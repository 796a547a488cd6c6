#include "relay/relay.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/prng.hpp"

namespace ads::relay {

RelayOptions RelayNode::validated(RelayOptions opts) {
  if (opts.max_legs == 0) {
    throw std::invalid_argument("RelayOptions::max_legs must be >= 1");
  }
  if (opts.report_interval_us == 0) {
    throw std::invalid_argument("RelayOptions::report_interval_us must be > 0");
  }
  if (opts.nack_flush_us == 0) opts.nack_flush_us = 1;
  opts.nack_holdoff_us = std::max(opts.nack_holdoff_us, opts.nack_flush_us);
  if (opts.retransmission_cache < 16) opts.retransmission_cache = 16;
  // A leg's bucket must hold one MTU-sized packet of the upstream stream.
  opts.link = rate::LinkOptions::validated(opts.link, 1500);
  if (opts.probe_interval_us == 0) opts.probe_interval_us = 1;
  if (opts.probe_count < 1) opts.probe_count = 1;
  if (opts.watchdog_jitter < 0.0) opts.watchdog_jitter = 0.0;
  return opts;
}

RelayNode::RelayNode(EventLoop& loop, RelayOptions opts)
    : loop_(loop),
      opts_(validated(std::move(opts))),
      owned_tel_(opts_.telemetry ? nullptr : std::make_unique<telemetry::Telemetry>()),
      tel_(opts_.telemetry ? opts_.telemetry : owned_tel_.get()),
      cache_(opts_.retransmission_cache),
      ssrc_(Prng(opts_.seed).next_u32()),
      wd_rng_(opts_.seed ^ 0xFA11FA11ull) {
  tel_->metrics.add_collector(this, [this] { publish_metrics(); });
}

RelayNode::~RelayNode() {
  // Quiesce (idempotent when the session already called stop()) and push
  // one final stopped-state snapshot before the collector withdraws: the
  // per-leg backlog/rate gauges publish zero, so a destroyed node never
  // leaves last-known readings dangling in the registry to steer upstream
  // adaptation on fiction.
  stop();
  publish_metrics();
  tel_->metrics.remove_collectors(this);
}

// ----- downstream legs ------------------------------------------------

LegId RelayNode::add_leg(Endpoint endpoint, LegConfig cfg) {
  if (legs_.size() >= opts_.max_legs) {
    throw std::invalid_argument("RelayNode: leg count would exceed max_legs");
  }
  const LegId id = next_leg_id_++;
  rate::LinkOptions link = opts_.link;
  if (cfg.rate_bps) link.rate_bps = *cfg.rate_bps;
  if (cfg.burst_bytes) link.burst_bytes = *cfg.burst_bytes;
  legs_.try_emplace(id, std::move(endpoint), link);
  return id;
}

void RelayNode::remove_leg(LegId id) {
  auto it = legs_.find(id);
  if (it == legs_.end()) return;
  // The collector no longer visits this leg: withdraw its gauges.
  publish_leg(id, it->second, /*withdrawn=*/true);
  legs_.erase(it);
  for (auto& [seq, repair] : repairs_) repair.waiters.erase(id);
}

const ReportBlock* RelayNode::leg_last_rr(LegId id) const {
  auto it = legs_.find(id);
  if (it == legs_.end() || !it->second.link.last_report()) return nullptr;
  return &*it->second.link.last_report();
}

// ----- upstream ingest ------------------------------------------------

void RelayNode::on_upstream_datagram(Bytes datagram) {
  switch (classify_packet(datagram)) {
    case PacketKind::kRtp: {
      // Ownership transfer, not a copy: the received datagram becomes the
      // pooled buffer every leg's PacketView (and the cache entry) shares.
      // Zero-copy forwarding needs the canonical fixed header the AH emits;
      // anything else is not ours.
      buf::BufRef buf = pool_.acquire(0);
      buf.bytes() = std::move(datagram);
      const PacketView v = PacketView::adopt(std::move(buf));
      if (!v) {
        ++stats_.decode_errors;
        return;
      }
      ingest_media(v);
      return;
    }
    case PacketKind::kRtcp:
      if (frozen()) return;  // nothing flows down while orphaned/stalled
      handle_upstream_rtcp(datagram);
      forward_control(datagram);
      return;
    case PacketKind::kBfcp:
      if (frozen()) return;
      forward_control(datagram);
      return;
    case PacketKind::kUnknown:
      ++stats_.decode_errors;
      return;
  }
}

std::size_t RelayNode::on_upstream_batch(std::span<const PacketView> pkts) {
  for (const PacketView& pkt : pkts) ingest_media(pkt);
  return pkts.size();
}

void RelayNode::ingest_media(const PacketView& v) {
  if (frozen()) {
    // §(c) graceful degradation: an orphaned (or stalled) node freezes
    // forwarding — late packets from a dead upstream must not leak into the
    // subtree mid-failover, and they must not count as liveness.
    ++stats_.frozen_drops;
    return;
  }
  if (have_upstream_ssrc_ && v.ssrc() != upstream_ssrc_) {
    // A different SSRC is a new upstream epoch (a re-parented link or a
    // restarted source), not a storm of duplicates/decode errors: reset
    // ext-seq tracking, the duplicate filter and the repair state, then
    // learn the new identity below.
    ++stats_.ssrc_epochs;
    begin_upstream_epoch();
  }
  if (!have_upstream_ssrc_) {
    upstream_ssrc_ = v.ssrc();
    have_upstream_ssrc_ = true;
    if (had_prev_epoch_seq_ && v.ssrc() == prev_epoch_ssrc_) {
      // Same stream under a new parent: the 16-bit gap between the last
      // packet of the old epoch and the first of this one is the media
      // lost across the failover blackout. A first packet *behind* the old
      // high-water mark is reordering, not loss.
      const auto gap = static_cast<std::uint16_t>(
          static_cast<std::uint16_t>(v.sequence() - prev_epoch_highest_) - 1);
      if (gap < 0x8000) stats_.failover_lost_packets += gap;
    }
    had_prev_epoch_seq_ = false;
  }
  on_upstream_activity();
  if (awaiting_resync_) {
    // First media of the adopted epoch: the §4.4 resync is under way.
    awaiting_resync_ = false;
    resync_duration_us_ = loop_.now() - adopt_at_us_;
  }
  ++stats_.upstream_packets;
  stats_.upstream_bytes += v.wire_size();

  const bool fresh = receiver_.on_packet(v, loop_.now());

  // Refcount bump: the subtree's repair store shares the buffer.
  stats_.rtx_evictions += cache_.put(v);

  if (!fresh) {
    // Network duplicate (or probation) — the subtree saw this one already.
    ++stats_.upstream_duplicates;
    return;
  }

  // A repair we requested upstream goes only to the legs that asked for it;
  // relay-detected gaps (all_legs) were never forwarded, so everyone gets
  // those. A sequence still queued is not a repair yet.
  auto wait = repairs_.find(v.sequence());
  if (wait != repairs_.end() && !wait->second.queued) {
    ++stats_.repairs_forwarded;
    if (!wait->second.all_legs) {
      for (LegId id : wait->second.waiters) {
        auto leg = legs_.find(id);
        if (leg != legs_.end()) forward_to_leg(leg->second, v);
      }
      for (LegId id : wait->second.waiters) {
        auto leg = legs_.find(id);
        if (leg != legs_.end()) leg->second.link.egress().flush();
      }
      repairs_.erase(wait);
      queue_gap_nacks();
      return;
    }
    repairs_.erase(wait);
  }

  for (auto& [id, leg] : legs_) forward_to_leg(leg, v);
  for (auto& [id, leg] : legs_) leg.link.egress().flush();

  // The relay NACKs upstream for its own reception gaps too — a loss on the
  // upstream link would otherwise starve the whole subtree.
  queue_gap_nacks();
}

// ----- per-leg forwarding --------------------------------------------

void RelayNode::forward_to_leg(LegState& leg, const PacketView& v) {
  const SimTime now = loop_.now();
  // §7 backlog gate (TCP legs) and §4.3 token bucket (UDP legs), per
  // packet: a slow leaf sheds its own traffic. The viewer's NACK→PLI ladder
  // recovers the gap from the relay's cache.
  if (leg.link.backlogged()) {
    ++leg.drops_backlog;
    ++stats_.leg_drops_backlog;
    return;
  }
  if (leg.link.short_of(v.wire_size(), now)) {
    ++leg.drops_rate;
    ++stats_.leg_drops_rate;
    return;
  }
  stats_.forwarded_bytes += leg.link.tcp() ? v.framed_size() : v.wire_size();
  ++leg.forwarded;
  ++stats_.forwarded_packets;
  stats_.payload_bytes_copied += leg.link.send(v, now);
}

void RelayNode::forward_control(BytesView packet) {
  ++stats_.control_forwarded;
  // TCP legs frame it behind their carry, ungated: control packets are
  // tiny, and the §7 gate is for media — feedback must keep flowing.
  for (auto& [id, leg] : legs_) {
    stats_.payload_bytes_copied += leg.link.egress().send_control(packet);
  }
}

// ----- upstream control -----------------------------------------------

void RelayNode::handle_upstream_rtcp(BytesView packet) {
  auto msgs = parse_rtcp_compound(packet);
  if (!msgs.ok()) return;
  for (const RtcpMessage& msg : *msgs) {
    if (std::holds_alternative<SenderReport>(msg)) {
      receiver_.on_sender_report(std::get<SenderReport>(msg), loop_.now());
      // An SR proves the upstream is alive even on an idle broadcast.
      on_upstream_activity();
    }
  }
}

// ----- leg uplink ------------------------------------------------------

void RelayNode::on_leg_packet(LegId from, BytesView packet) {
  if (stalled_) return;  // a wedged node reads nothing off its legs
  auto it = legs_.find(from);
  if (it == legs_.end()) return;
  switch (classify_packet(packet)) {
    case PacketKind::kRtcp:
      handle_leg_rtcp(from, it->second, packet);
      return;
    case PacketKind::kRtp:
      // HIP events ride their own RTP payload type; the relay is not the
      // input authority — pass them to the AH unchanged.
      ++stats_.hip_upstream;
      if (send_upstream_) send_upstream_(packet);
      return;
    case PacketKind::kBfcp:
      ++stats_.bfcp_upstream;
      if (send_upstream_) send_upstream_(packet);
      return;
    case PacketKind::kUnknown:
      ++stats_.decode_errors;
      return;
  }
}

void RelayNode::handle_leg_rtcp(LegId from, LegState& leg, BytesView packet) {
  auto msgs = parse_rtcp_compound(packet);
  if (!msgs.ok()) return;
  for (const RtcpMessage& msg : *msgs) {
    if (std::holds_alternative<ReceiverReport>(msg)) {
      const auto& rr = std::get<ReceiverReport>(msg);
      ++stats_.rrs_received;
      if (!rr.blocks.empty()) leg.link.on_report(rr.blocks.front(), loop_.now());
    } else if (std::holds_alternative<PictureLossIndication>(msg)) {
      ++stats_.plis_received;
      handle_leg_pli();
    } else if (std::holds_alternative<GenericNack>(msg)) {
      ++stats_.nacks_received;
      for (std::uint16_t seq :
           std::get<GenericNack>(msg).requested_sequences()) {
        ++stats_.nack_seqs_received;
        handle_leg_nack_seq(from, leg, seq);
      }
      // Repairs served from the cache go out as one batch.
      leg.link.egress().flush();
    }
  }
}

void RelayNode::handle_leg_nack_seq(LegId from, LegState& leg,
                                    std::uint16_t seq) {
  // First line of defence: the local retransmission store. A sibling's loss
  // is healed here and the AH never hears about it.
  const PacketView* cached = cache_.get(seq);
  if (cached != nullptr) {
    ++stats_.rtx_served;
    stats_.rtx_bytes += cached->wire_size();
    forward_to_leg(leg, *cached);
    return;
  }
  ++stats_.rtx_misses;
  if (orphaned_) {
    // §(c): while orphaned the cache keeps serving, but a miss has nowhere
    // to go — the parent is dead. The adoption PLI will refresh everyone.
    ++stats_.nacks_absorbed;
    return;
  }
  // Second: a request already queued or in flight upstream — absorb this
  // leg into its waiter set instead of asking again.
  auto [it, inserted] = repairs_.try_emplace(seq);
  if (!inserted) {
    if (!it->second.all_legs) it->second.waiters.insert(from);
    ++stats_.nacks_absorbed;
    return;
  }
  // Genuinely new: queue it for the next deduplicated upstream NACK.
  it->second.waiters.insert(from);
  arm_nack_flush();
}

void RelayNode::queue_gap_nacks() {
  if (!send_upstream_) return;
  bool queued_any = false;
  for (std::uint16_t seq : receiver_.missing(64)) {
    auto [it, inserted] = repairs_.try_emplace(seq);
    if (!inserted) continue;
    it->second.all_legs = true;
    ++stats_.gap_nacks;
    queued_any = true;
  }
  if (queued_any) arm_nack_flush();
}

void RelayNode::arm_nack_flush() {
  if (nack_flush_armed_) return;
  nack_flush_armed_ = true;
  after(opts_.nack_flush_us, &RelayNode::flush_nacks);
}

void RelayNode::collect_pending_nack(std::vector<RtcpMessage>& msgs) {
  std::vector<std::uint16_t> seqs;
  const SimTime now = loop_.now();
  for (auto& [seq, repair] : repairs_) {
    if (!repair.queued) continue;
    seqs.push_back(seq);
    repair.queued = false;
    repair.requested_at = now;
  }
  if (seqs.empty()) return;
  ++stats_.nacks_upstream;
  stats_.nack_seqs_upstream += seqs.size();
  msgs.push_back(GenericNack::for_sequences(ssrc_, upstream_ssrc_, std::move(seqs)));
}

void RelayNode::flush_nacks() {
  nack_flush_armed_ = false;
  // Quiesced: no repairs cross an epoch.
  if (frozen() || stopped_ || !send_upstream_) return;
  std::vector<RtcpMessage> msgs;
  collect_pending_nack(msgs);
  if (!msgs.empty()) send_upstream_(serialize_rtcp_compound(msgs));
}

void RelayNode::handle_leg_pli() {
  if (orphaned_) {
    // Absorbed: adopt_upstream() opens the new epoch with its own PLI, and
    // that one refresh serves the whole subtree.
    ++stats_.plis_coalesced;
    return;
  }
  const SimTime now = loop_.now();
  if (pli_sent_ever_ && now < last_pli_up_us_ + kPliCoalesceUs) {
    // Absorbed: the refresh already on its way serves this leg too.
    ++stats_.plis_coalesced;
    return;
  }
  if (opts_.pli_batch_us > 0) {
    // Flash-crowd wave batching (the PLI analogue of nack_flush_us): the
    // first PLI of a wave arms the timer, the rest of the wave folds into
    // it, and one upstream PLI goes out at expiry — so a join flood's PLI
    // storm crosses this node as a single refresh demand.
    if (pli_batch_armed_) {
      ++stats_.plis_batched;
      return;
    }
    pli_batch_armed_ = true;
    after(opts_.pli_batch_us, &RelayNode::flush_pli_batch);
    return;
  }
  send_pli_upstream(now);
}

void RelayNode::flush_pli_batch() {
  if (!pli_batch_armed_) return;  // quiesced by stop()/epoch reset
  pli_batch_armed_ = false;
  if (stopped_ || frozen()) return;
  send_pli_upstream(loop_.now());
}

void RelayNode::send_pli_upstream(SimTime now) {
  pli_sent_ever_ = true;
  last_pli_up_us_ = now;
  ++stats_.plis_upstream;
  // The coming full refresh supersedes outstanding loss recovery.
  receiver_.reset_losses();
  repairs_.clear();
  if (send_upstream_) {
    PictureLossIndication pli;
    pli.sender_ssrc = ssrc_;
    pli.media_ssrc = upstream_ssrc_;
    send_upstream_(pli.serialize());
  }
}

// ----- periodic aggregation -------------------------------------------

void RelayNode::after(SimTime delay, void (RelayNode::*fn)()) {
  loop_.after(delay, [this, fn, alive = std::weak_ptr<int>(alive_)] {
    if (!alive.expired()) (this->*fn)();
  });
}

void RelayNode::start() {
  if (started_) return;
  started_ = true;
  stopped_ = false;
  after(opts_.report_interval_us, &RelayNode::report_tick);
}

void RelayNode::stop() {
  started_ = false;
  if (stopped_) return;  // already quiesced; don't double-count the drop
  stopped_ = true;
  // Dropping the cache guarantees a stopped node can never answer a NACK
  // with a stale repair.
  reset_repair();
  // The liveness watchdog disarms with the node (any in-flight timer
  // no-ops via the stopped_ check); per-leg gauges withdraw at the next
  // snapshot via the same flag.
  probes_sent_ = 0;
}

void RelayNode::report_tick() {
  if (!started_) return;
  if (stalled_) {
    // Wedged: no adaptation, no reports; keep the interval alive so the
    // node resumes cleanly when the stall clears.
    after(opts_.report_interval_us, &RelayNode::report_tick);
    return;
  }
  const SimTime now = loop_.now();

  // Expire in-flight upstream requests whose repair never came: the next
  // media arrival re-queues still-missing sequences via queue_gap_nacks(),
  // so a lost NACK (or a lost repair) retries once per holdoff window.
  std::erase_if(repairs_, [&](const auto& entry) {
    return !entry.second.queued &&
           now >= entry.second.requested_at + opts_.nack_holdoff_us;
  });

  // Per-leg closed loop: the §7 backlog sample (TCP, carry included) or the
  // accumulated RR signal (UDP) retargets that leg's bucket. Quality/fps
  // outputs are meaningless without an encoder and stay unused.
  for (auto& [id, leg] : legs_) leg.link.adapt(now);

  // Worst-case RR summary upstream, with any pending NACK riding along in
  // the same compound datagram. An orphaned node has no parent to report
  // to; its legs keep adapting above.
  std::vector<RtcpMessage> msgs;
  if (!orphaned_ && upstream_report(msgs)) {
    collect_pending_nack(msgs);
    ++stats_.rrs_aggregated;
    send_upstream_(serialize_rtcp_compound(msgs));
  }

  if (started_) after(opts_.report_interval_us, &RelayNode::report_tick);
}

bool RelayNode::upstream_report(std::vector<RtcpMessage>& msgs) {
  if (!send_upstream_ || !have_upstream_ssrc_ || !receiver_.started()) {
    return false;
  }
  ReceiverReport rr;
  rr.ssrc = ssrc_;
  rr.blocks.push_back(aggregate_report());
  msgs.emplace_back(std::move(rr));
  return true;
}

ReportBlock RelayNode::aggregate_report() {
  // Base: the relay's own reception over the interval.
  ReportBlock agg = receiver_.snapshot(upstream_ssrc_, loop_.now());
  // Fold every leg's last report in, worst case per field: the AH sizes its
  // response to the weakest path through this subtree. Legs report on the
  // same forwarded stream (same SSRC/sequence space), so min over extended
  // highest sequence is meaningful.
  for (const auto& [id, leg] : legs_) {
    if (!leg.link.last_report()) continue;
    const ReportBlock& b = *leg.link.last_report();
    agg.fraction_lost = std::max(agg.fraction_lost, b.fraction_lost);
    agg.cumulative_lost = std::max(agg.cumulative_lost, b.cumulative_lost);
    agg.jitter = std::max(agg.jitter, b.jitter);
    if (b.ext_highest_seq != 0) {
      agg.ext_highest_seq = std::min(agg.ext_highest_seq, b.ext_highest_seq);
    }
  }
  return agg;
}

// ----- self-healing ----------------------------------------------------

void RelayNode::drop_cache() {
  stats_.cache_dropped += cache_.size();
  cache_ = RetransmissionCache(opts_.retransmission_cache);
}

void RelayNode::reset_repair() {
  repairs_.clear();
  pli_sent_ever_ = false;
  last_pli_up_us_ = 0;
  pli_batch_armed_ = false;  // an in-flight batch timer no-ops on expiry
  drop_cache();
}

void RelayNode::begin_upstream_epoch() {
  ++epoch_;
  reset_repair();  // a cross-epoch wave must not demand a refresh
  receiver_ = RtpReceiver{};
  have_upstream_ssrc_ = false;
  upstream_ssrc_ = 0;
}

void RelayNode::on_upstream_activity() {
  last_upstream_activity_us_ = loop_.now();
  probes_sent_ = 0;
  arm_watchdog(opts_.upstream_timeout_us);
}

void RelayNode::arm_watchdog(SimTime delay) {
  if (watchdog_armed_ || stopped_ || opts_.upstream_timeout_us == 0) return;
  watchdog_armed_ = true;
  after(delay, &RelayNode::watchdog_tick);
}

void RelayNode::watchdog_tick() {
  watchdog_armed_ = false;
  if (stopped_ || orphaned_ || opts_.upstream_timeout_us == 0) return;
  if (stalled_) {
    // The freeze is local (chaos kRelayStall), not the parent's fault —
    // keep the timer alive without escalating.
    arm_watchdog(opts_.upstream_timeout_us);
    return;
  }
  const SimTime idle = loop_.now() - last_upstream_activity_us_;
  if (idle < opts_.upstream_timeout_us) {
    // Activity arrived since this timer was set: sleep out the remainder.
    probes_sent_ = 0;
    arm_watchdog(opts_.upstream_timeout_us - idle);
    return;
  }
  if (probes_sent_ >= opts_.probe_count) {
    declare_upstream_dead();
    return;
  }
  // Escalate: one liveness probe per interval — the aggregated RR doubles
  // as the keepalive ping (a live parent's SRs or media would answer it).
  ++probes_sent_;
  ++stats_.watchdog_probes;
  std::vector<RtcpMessage> msgs;
  if (upstream_report(msgs)) send_upstream_(serialize_rtcp_compound(msgs));
  SimTime delay = opts_.probe_interval_us;
  if (opts_.watchdog_jitter > 0.0) {
    // Jitter is drawn only on escalation (the participant-watchdog rule):
    // fault-free runs never touch the Prng and stay bit-identical, while
    // sibling relays under one dead parent spread their declare-dead
    // instants instead of re-parenting in lockstep.
    const auto span = static_cast<std::uint64_t>(
        static_cast<double>(delay) * opts_.watchdog_jitter);
    if (span > 0) delay += static_cast<SimTime>(wd_rng_.below(span));
  }
  arm_watchdog(delay);
}

void RelayNode::declare_upstream_dead() {
  orphaned_ = true;
  ++stats_.upstream_lost;
  detect_latency_us_ = loop_.now() - last_upstream_activity_us_;
  // A dead parent serves no repairs: forget everything queued or in flight
  // upstream. The local cache stays — it keeps answering subtree NACKs
  // throughout the blackout (§c).
  repairs_.clear();
  if (on_upstream_lost_) on_upstream_lost_();
}

void RelayNode::set_stalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (!stalled) {
    // Thawed: restart the upstream grace period — silence accumulated
    // while *we* were wedged says nothing about the parent.
    last_upstream_activity_us_ = loop_.now();
    probes_sent_ = 0;
  }
}

void RelayNode::adopt_upstream() {
  // Remember the dying epoch's high-water mark: if the new parent forwards
  // the same stream (same SSRC), the seq gap across the blackout is the
  // failover's media loss.
  had_prev_epoch_seq_ = receiver_.started();
  prev_epoch_ssrc_ = upstream_ssrc_;
  prev_epoch_highest_ = receiver_.highest_sequence();
  ++stats_.adoptions;
  begin_upstream_epoch();
  orphaned_ = false;
  probes_sent_ = 0;
  last_upstream_activity_us_ = loop_.now();
  adopt_at_us_ = loop_.now();
  awaiting_resync_ = true;
  arm_watchdog(opts_.upstream_timeout_us);
  // §4.4 resync: ask the new parent for a full refresh now (media SSRC 0:
  // the new upstream is unknown until media flows). Opening the coalesce
  // window here folds the subtree's own (absorbed) PLIs into this single
  // upstream refresh.
  send_pli_upstream(loop_.now());
}

// ----- telemetry -------------------------------------------------------

void RelayNode::publish_metrics() {
  auto& m = tel_->metrics;
  const std::string& p = opts_.metrics_prefix;
  m.counter(p + "upstream_packets").set(stats_.upstream_packets);
  m.counter(p + "upstream_bytes").set(stats_.upstream_bytes);
  m.counter(p + "upstream_duplicates").set(stats_.upstream_duplicates);
  m.counter(p + "forwarded_packets").set(stats_.forwarded_packets);
  m.counter(p + "forwarded_bytes").set(stats_.forwarded_bytes);
  m.counter(p + "control_forwarded").set(stats_.control_forwarded);
  m.counter(p + "repairs_forwarded").set(stats_.repairs_forwarded);
  m.counter(p + "payload_bytes_copied").set(stats_.payload_bytes_copied);
  m.counter(p + "leg_drops_backlog").set(stats_.leg_drops_backlog);
  m.counter(p + "leg_drops_rate").set(stats_.leg_drops_rate);
  m.counter(p + "nacks_received").set(stats_.nacks_received);
  m.counter(p + "nack_seqs_received").set(stats_.nack_seqs_received);
  m.counter(p + "rtx_served").set(stats_.rtx_served);
  m.counter(p + "rtx_bytes").set(stats_.rtx_bytes);
  m.counter(p + "nacks_absorbed").set(stats_.nacks_absorbed);
  m.counter(p + "nacks_upstream").set(stats_.nacks_upstream);
  m.counter(p + "nack_seqs_upstream").set(stats_.nack_seqs_upstream);
  m.counter(p + "gap_nacks").set(stats_.gap_nacks);
  m.counter(p + "plis_received").set(stats_.plis_received);
  m.counter(p + "plis_coalesced").set(stats_.plis_coalesced);
  m.counter(p + "plis_batched").set(stats_.plis_batched);
  m.counter(p + "plis_upstream").set(stats_.plis_upstream);
  m.counter(p + "rrs_received").set(stats_.rrs_received);
  m.counter(p + "rrs_aggregated").set(stats_.rrs_aggregated);
  m.counter(p + "hip_upstream").set(stats_.hip_upstream);
  m.counter(p + "bfcp_upstream").set(stats_.bfcp_upstream);
  m.counter(p + "decode_errors").set(stats_.decode_errors);
  m.counter(p + "rtx.hits").set(stats_.rtx_served);  // every hit is served
  m.counter(p + "rtx.misses").set(stats_.rtx_misses);
  m.counter(p + "rtx.evictions").set(stats_.rtx_evictions);
  // Self-healing: detection, failover epoch and degradation telemetry.
  const std::string f = p + "failover.";
  m.counter(f + "probes").set(stats_.watchdog_probes);
  m.counter(f + "upstream_lost").set(stats_.upstream_lost);
  m.counter(f + "adoptions").set(stats_.adoptions);
  m.counter(f + "ssrc_epochs").set(stats_.ssrc_epochs);
  m.counter(f + "frozen_drops").set(stats_.frozen_drops);
  m.counter(f + "cache_dropped").set(stats_.cache_dropped);
  m.counter(f + "packets_lost").set(stats_.failover_lost_packets);
  m.gauge(f + "orphaned").set(orphaned_ ? 1 : 0);
  m.gauge(f + "detect_us").set(static_cast<std::int64_t>(detect_latency_us_));
  m.gauge(f + "resync_us").set(static_cast<std::int64_t>(resync_duration_us_));
  m.gauge(p + "legs").set(static_cast<std::int64_t>(legs_.size()));
  for (const auto& [id, leg] : legs_) publish_leg(id, leg, stopped_);
}

void RelayNode::publish_leg(LegId id, const LegState& leg, bool withdrawn) {
  auto& m = tel_->metrics;
  const std::string lp = opts_.metrics_prefix + "leg" + std::to_string(id) + ".";
  // A withdrawn leg's gauges read zero, not last-known: stale backlog/rate
  // readings from a quiesced forwarder would steer upstream adaptation on
  // fiction.
  if (leg.link.tcp()) {
    m.gauge(lp + "backlog")
        .set(withdrawn ? 0 : static_cast<std::int64_t>(leg.link.backlog()));
  }
  if (leg.link.rate_bps() != 0) {
    m.gauge(lp + "rate_bps")
        .set(withdrawn ? 0 : static_cast<std::int64_t>(leg.link.rate_bps()));
  }
  m.counter(lp + "forwarded").set(leg.forwarded);
  m.counter(lp + "drops_backlog").set(leg.drops_backlog);
  m.counter(lp + "drops_rate").set(leg.drops_rate);
}

}  // namespace ads::relay
