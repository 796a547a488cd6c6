#include "core/participant.hpp"

#include <algorithm>

#include "hip/utf8.hpp"
#include "util/logging.hpp"

namespace ads {

Participant::Participant(EventLoop& loop, ParticipantOptions opts)
    : loop_(loop),
      opts_(opts),
      codecs_(CodecRegistry::with_defaults()),
      hip_sender_(kHipPayloadType, opts.seed),
      rng_(opts.seed ^ 0x5EEDu),
      replica_(opts.screen_width, opts.screen_height, kBlack),
      pointer_icon_(8, 12, kWhite) {}

void Participant::send_packet(BytesView packet) {
  if (uplink_) uplink_(packet);
}

void Participant::join() {
  // §4.3 (UDP) — and harmless for TCP, where §5.3.1 allows PLI too.
  request_refresh();
  // Arm the starvation watchdog: if the join PLI (or everything after it)
  // is lost to a fault, the request is retried with backoff instead of
  // waiting on a screen that never arrives.
  last_media_us_ = loop_.now();
  watchdog_delay_us_ = opts_.starvation_timeout_us;
  arm_watchdog(watchdog_delay_us_);
}

void Participant::request_refresh() {
  PictureLossIndication pli;
  pli.sender_ssrc = hip_sender_.ssrc();
  pli.media_ssrc = remoting_ssrc_;
  ++stats_.plis_sent;
  send_packet(pli.serialize());
}

void Participant::set_user_id(std::uint16_t id) {
  if (id == opts_.user_id) return;
  opts_.user_id = id;
  has_floor_ = false;
  floor_pending_ = false;
  hid_status_ = HidStatus::kNotAllowed;
}

void Participant::request_floor() {
  floor_pending_ = true;
  send_floor_message(BfcpPrimitive::kFloorRequest);
}

void Participant::release_floor() {
  send_floor_message(BfcpPrimitive::kFloorRelease);
}

void Participant::send_floor_message(BfcpPrimitive primitive) {
  BfcpMessage msg;
  msg.primitive = primitive;
  msg.conference_id = 1;
  msg.transaction_id = next_transaction_++;
  msg.user_id = opts_.user_id;
  msg.floor_id = 0;
  send_packet(msg.serialize());
}

void Participant::send_hip(const HipMessage& msg) {
  RtpPacket pkt =
      hip_sender_.make_packet(serialize_hip(msg), /*marker=*/false, loop_.now());
  ++stats_.hip_sent;
  send_packet(pkt.serialize());
}

void Participant::mouse_move(std::uint32_t x, std::uint32_t y) {
  last_mouse_ = {x, y};
  focus_window_ = 0;
  // Topmost record containing the point gives the HIP WindowID (§6.1.2).
  for (const auto& [id, rec] : windows_) {
    if (rec.rect().contains(last_mouse_)) focus_window_ = id;
  }
  send_hip(MouseMoved{focus_window_, x, y});
}

void Participant::mouse_press(std::uint32_t x, std::uint32_t y, MouseButton b) {
  send_hip(MousePressed{focus_window_, b, x, y});
}

void Participant::mouse_release(std::uint32_t x, std::uint32_t y, MouseButton b) {
  send_hip(MouseReleased{focus_window_, b, x, y});
}

void Participant::mouse_wheel(std::uint32_t x, std::uint32_t y,
                              std::int32_t distance) {
  send_hip(MouseWheelMoved{focus_window_, x, y, distance});
}

void Participant::key_press(vk::KeyCode code) {
  send_hip(KeyPressed{focus_window_, code});
}

void Participant::key_release(vk::KeyCode code) {
  send_hip(KeyReleased{focus_window_, code});
}

void Participant::key_type(const std::string& utf8) {
  // "The participant MUST send more than one KeyTyped message if the
  // string does not fit into a single KeyTyped packet." (§6.8)
  constexpr std::size_t kMaxChunk = 1024;
  for (const std::string& chunk : split_utf8(utf8, kMaxChunk)) {
    send_hip(KeyTyped{focus_window_, chunk});
  }
}

void Participant::on_datagram(BytesView data) { handle_packet(data); }

void Participant::on_stream_bytes(BytesView data) {
  deframer_.feed(data);
  while (auto packet = deframer_.next()) handle_packet(*packet);
}

void Participant::handle_packet(BytesView packet) {
  switch (classify_packet(packet)) {
    case PacketKind::kRtp: {
      auto pkt = RtpPacket::parse(packet);
      if (!pkt.ok()) {
        ++stats_.decode_errors;
        return;
      }
      if (pkt->payload_type != kRemotingPayloadType) return;
      handle_rtp(std::move(*pkt));
      break;
    }
    case PacketKind::kBfcp:
      handle_bfcp(packet);
      break;
    case PacketKind::kRtcp:
      handle_rtcp_downlink(packet);
      break;
    case PacketKind::kUnknown:
      break;
  }
}

void Participant::handle_rtcp_downlink(BytesView packet) {
  // Behind a relay the downlink may carry compound RTCP (the relay forwards
  // upstream control traffic verbatim); a plain SR parses as a compound of
  // one, so both shapes share this loop.
  auto msgs = parse_rtcp_compound(packet);
  if (!msgs.ok()) return;
  for (const RtcpMessage& msg : *msgs) {
    if (std::holds_alternative<SenderReport>(msg)) {
      on_sender_report(std::get<SenderReport>(msg));
    }
  }
}

void Participant::on_sender_report(const SenderReport& sr) {
  ++stats_.srs_received;
  receiver_.on_sender_report(sr, loop_.now());
  if (opts_.transport == ParticipantOptions::Transport::kTcp ||
      !receiver_.started() || sr.ssrc != remoting_ssrc_) {
    return;
  }
  // RFC 3550 §6.4.1: the SR's packet count tells a lost tail (NACK it like
  // any other gap) from an idle sender (nothing outstanding, so silence is
  // not starvation).
  const std::uint16_t highest = receiver_.highest_sequence();
  if (receiver_.on_sender_count(sr.ssrc, sr.packet_count) > 0) {
    add_losses(highest, receiver_.highest_sequence());
  } else if (receiver_.missing(1).empty()) {
    on_media_activity();
  }
}

void Participant::schedule_rr() {
  if (rr_timer_armed_ || opts_.rr_interval_us == 0) return;
  rr_timer_armed_ = true;
  loop_.after(opts_.rr_interval_us, [this] {
    rr_timer_armed_ = false;
    if (!receiver_.started() &&
        opts_.transport != ParticipantOptions::Transport::kTcp) {
      return;
    }
    ReceiverReport rr;
    rr.ssrc = hip_sender_.ssrc();
    rr.blocks.push_back(receiver_.snapshot(remoting_ssrc_, loop_.now()));
    ++stats_.rrs_sent;
    send_packet(rr.serialize());
    schedule_rr();
  });
}

void Participant::handle_rtp(RtpPacket pkt) {
  ++stats_.rtp_packets;
  stats_.bytes_received += pkt.wire_size();
  remoting_ssrc_ = pkt.ssrc;
  schedule_rr();
  on_media_activity();

  if (opts_.transport == ParticipantOptions::Transport::kTcp) {
    // TCP is reliable and ordered; bypass reorder/loss machinery.
    deliver(pkt);
    return;
  }

  const std::uint16_t seq = pkt.sequence;
  const std::uint16_t highest = receiver_.highest_sequence();
  const bool started = receiver_.started();
  if (!receiver_.on_packet(pkt, loop_.now())) {
    on_duplicate(seq);
    return;
  }
  if (started) track_losses(seq, highest);
  deliver_run(reorder_.push(std::move(pkt)));
  // The hold bound: too much waits behind a gap to wait for its repair.
  if (reorder_.buffered() > opts_.reorder_max_hold) give_up();
}

void Participant::track_losses(std::uint16_t seq, std::uint16_t highest_before) {
  const SimTime now = loop_.now();
  if (auto it = losses_.find(seq); it != losses_.end()) {
    Loss& loss = it->second;
    if (loss.rounds == 1) {
      // Karn's rule: only a sequence NACKed once times its repair. Whether
      // this is the repair or the original arriving late shows when its
      // due passes or a duplicate (the repair) arrives first.
      loss.filled = now;
      return;
    }
    // Filled without a NACK: the stream reorders at least this much. A
    // fill slower than a repair was someone else's repair (a multicast
    // group-mate's), not reordering.
    if (loss.rounds == 0 && now - loss.since < repair_wait()) {
      reorder_us_ = std::max(reorder_us_, now - loss.since);
    }
    losses_.erase(it);
    return;
  }
  // Every sequence this packet skipped is missing from now on. A jump the
  // receiver takes for a stream restart is left to the hold bound.
  const auto jump = static_cast<std::uint16_t>(receiver_.highest_sequence() - highest_before);
  if (jump > 1 && jump < RtpReceiver::kMaxDropout) {
    add_losses(highest_before, static_cast<std::uint16_t>(seq - 1));
  }
}

void Participant::add_losses(std::uint16_t after, std::uint16_t last) {
  const SimTime now = loop_.now();
  // Without NACKs only a group-mate's repair can fill the gap, so it waits
  // out the blackout cap.
  const SimTime due = opts_.send_nacks ? now + nack_wait() + nack_jitter()
                                       : now + kBlackoutCapUs;
  for (auto s = after; s != last;) {
    losses_.try_emplace(++s, Loss{now, 0, due, 0, 0});
  }
  arm_repair_timer(due);
}

void Participant::on_duplicate(std::uint16_t seq) {
  auto it = losses_.find(seq);
  if (it == losses_.end() || it->second.filled == 0) return;
  learn_from_repair(it->second, loop_.now());
  losses_.erase(it);
}

void Participant::learn_from_repair(const Loss& loss, std::optional<SimTime> duplicate_at) {
  // The fill came sooner after the NACK than the duplicate after the fill:
  // the fill was the original, late, and the duplicate its repair. (A
  // network duplicate of a repair trails it by far less.)
  if (duplicate_at && loss.filled - loss.asked < *duplicate_at - loss.filled) {
    reorder_us_ = std::max(reorder_us_, loss.filled - loss.since);
    repair_us_ = std::max(repair_us_, *duplicate_at - loss.asked);
  } else {
    repair_us_ = std::max(repair_us_, loss.filled - loss.asked);
  }
}

SimTime Participant::nack_wait() const {
  // The reordering the stream has shown: confirmed by a gap that filled
  // without a NACK or by a repair that came as a duplicate, or shown by a
  // NACKed sequence whose first arrival came too soon to be its repair
  // (sooner than half the repair time, or before any repair was timed) and
  // so may yet prove to be the original. Twice that, so the tail of the
  // spread fills without a NACK too.
  SimTime shown = reorder_us_;
  for (const auto& [seq, loss] : losses_) {
    if (loss.filled != 0 &&
        (repair_us_ == 0 || 2 * (loss.filled - loss.asked) < repair_us_)) {
      shown = std::max(shown, loss.filled - loss.since);
    }
  }
  return 2 * shown;
}

SimTime Participant::repair_wait() const {
  // Half as long again as the slowest repair yet: a repair exactly that
  // slow must not race its own re-request.
  return repair_us_ != 0 ? repair_us_ + repair_us_ / 2 : kBlackoutCapUs;
}

SimTime Participant::nack_jitter() {
  return opts_.nack_jitter_us ? rng_.below(opts_.nack_jitter_us) : 0;
}

void Participant::arm_repair_timer(SimTime at) {
  if (repair_timer_at_ && *repair_timer_at_ <= at) return;
  repair_timer_at_ = at;
  loop_.at(at, [this, at] {
    if (repair_timer_at_ != at) return;  // an earlier timer took over
    repair_timer_at_.reset();
    on_repair_deadline();
  });
}

void Participant::on_repair_deadline() {
  const SimTime now = loop_.now();
  std::vector<std::uint16_t> nack;
  std::optional<SimTime> next;
  for (auto it = losses_.begin(); it != losses_.end();) {
    Loss& loss = it->second;
    if (loss.due <= now) {
      if (loss.filled != 0) {
        learn_from_repair(loss, std::nullopt);  // no duplicate came
        it = losses_.erase(it);
        continue;
      }
      if (loss.rounds == kNackRounds || now >= loss.since + kBlackoutCapUs) {
        ++stats_.nack_escalations;
        give_up();
        return;
      }
      // Ask (again): the first round once reordering could no longer fill
      // the gap, each further one after a repair time without a repair.
      ++loss.rounds;
      loss.asked = now;
      loss.due = std::min(now + repair_wait() + nack_jitter(),
                          loss.since + kBlackoutCapUs);
      nack.push_back(it->first);
    }
    next = std::min(next.value_or(loss.due), loss.due);
    ++it;
  }
  if (!nack.empty()) {
    GenericNack msg = GenericNack::for_sequences(hip_sender_.ssrc(),
                                                 remoting_ssrc_, std::move(nack));
    ++stats_.nacks_sent;
    send_packet(msg.serialize());
  }
  if (next) arm_repair_timer(*next);
}

void Participant::give_up() {
  // The one give-up path, for a run-out deadline and the hold bound alike.
  // Fragments behind the open gaps are unrecoverable: flush what is
  // buffered, jump the delivery cursor past everything seen so far, forget
  // the losses, drop partial reassembly state, and ask for a full refresh
  // (§5.3.1).
  ++stats_.gaps_skipped;
  // Nothing from before the first gap may be stitched to the flushed run.
  demux_.reset();
  deliver_run(reorder_.flush_all());
  reorder_.reset_to(static_cast<std::uint16_t>(receiver_.highest_sequence() + 1));
  receiver_.reset_losses();
  // Filled sequences stay until their repair time is learnt.
  std::erase_if(losses_, [](const auto& entry) { return entry.second.filled == 0; });
  for (const auto& [seq, loss] : losses_) arm_repair_timer(loss.due);
  // deliver_run() dropped any message cut by a hole inside the held run.
  // The give-up also drops one the run left open: nothing after it
  // completes it, and the refresh requested below repaints it anyway.
  demux_.reset();
  request_refresh();
}

void Participant::on_transport_reset() {
  ++stats_.transport_resets;
  // The byte stream was replaced: a frame torn mid-length-prefix must not
  // prefix the new stream, and half-reassembled messages are unfinishable.
  deframer_.reset();
  demux_.reset();
  // Loss bookkeeping referred to the dead transport.
  reorder_.flush_all();  // discard — stale pre-reconnect packets
  receiver_.reset_losses();
  losses_.clear();
  // Replicated screen/window state is kept; the AH resyncs it through the
  // late-join path (WMI + full refresh). Ask explicitly anyway so recovery
  // does not depend on the AH remembering to refresh us.
  request_refresh();
  // Restart the starvation ladder from its base timeout.
  last_media_us_ = loop_.now();
  watchdog_delay_us_ = opts_.starvation_timeout_us;
  arm_watchdog(watchdog_delay_us_);
}

void Participant::on_media_activity() {
  last_media_us_ = loop_.now();
  // Any media resets the escalation ladder to its base timeout.
  watchdog_delay_us_ = opts_.starvation_timeout_us;
  arm_watchdog(watchdog_delay_us_);
}

void Participant::arm_watchdog(SimTime delay) {
  if (watchdog_armed_ || opts_.starvation_timeout_us == 0) return;
  watchdog_armed_ = true;
  loop_.after(delay, [this] {
    watchdog_armed_ = false;
    const SimTime idle = loop_.now() - last_media_us_;
    if (idle < watchdog_delay_us_) {
      // Media arrived since this timer was set: sleep out the remainder.
      arm_watchdog(watchdog_delay_us_ - idle);
      return;
    }
    // Starved: last rung of the escalation ladder — request a full
    // refresh, then back off exponentially (capped) with jitter so a
    // roomful of starved participants does not PLI in lockstep. The
    // jitter draw happens only on escalation, keeping fault-free runs
    // bit-identical.
    ++stats_.starvation_plis;
    request_refresh();
    watchdog_delay_us_ =
        std::min(watchdog_delay_us_ * 2, kStarvationBackoffMaxUs);
    SimTime jitter = 0;
    const auto span = static_cast<std::uint64_t>(
        static_cast<double>(watchdog_delay_us_) * kStarvationJitter);
    if (span > 0) jitter = rng_.below(span);
    last_media_us_ = loop_.now();
    arm_watchdog(watchdog_delay_us_ + jitter);
  });
}

void Participant::deliver_run(const std::vector<RtpPacket>& run) {
  for (std::size_t i = 0; i < run.size(); ++i) {
    // A skipped gap can leave holes inside the run, and the reassembler
    // checks no sequence numbers: a message cut by a lost fragment would
    // complete with that chunk missing, so drop it at the hole.
    if (i > 0 &&
        run[i].sequence != static_cast<std::uint16_t>(run[i - 1].sequence + 1)) {
      demux_.reset();
    }
    deliver(run[i]);
  }
}

void Participant::deliver(const RtpPacket& pkt) {
  auto msg = demux_.feed(pkt.payload, pkt.marker);
  if (!msg.ok()) {
    // A continuation whose first fragment was lost (or dropped by a demux
    // reset after a skipped gap) is loss fallout, not a malformed payload.
    if (msg.error() == ParseError::kBadState) {
      ++stats_.orphan_fragments;
    } else {
      ++stats_.decode_errors;
    }
    return;
  }
  if (msg->has_value()) apply(std::move(**msg), pkt);
}

void Participant::apply(RemotingMessage msg, const RtpPacket& pkt) {
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, WindowManagerInfo>) {
          apply_wmi(m);
        } else if constexpr (std::is_same_v<T, RegionUpdate>) {
          apply_region_update(m, pkt);
        } else if constexpr (std::is_same_v<T, MoveRectangle>) {
          apply_move_rectangle(m);
        } else if constexpr (std::is_same_v<T, MousePointerInfo>) {
          apply_pointer(m);
        }
      },
      msg);
}

void Participant::apply_wmi(const WindowManagerInfo& msg) {
  ++stats_.wmi_received;
  // "The participant MUST create a window for each new WindowID and MUST
  // close this window after receiving a WindowManagerInfo message which
  // does not contain this WindowID." — the map mirrors exactly the message
  // content; the replica pixels persist ("MUST keep the existing window
  // image after a resize and relocation").
  std::map<std::uint16_t, WindowRecord> next;
  for (const WindowRecord& rec : msg.records) next[rec.window_id] = rec;
  windows_ = std::move(next);
}

void Participant::apply_region_update(const RegionUpdate& msg, const RtpPacket& pkt) {
  const ImageCodec* codec = codecs_.find(msg.content_pt);
  if (codec == nullptr) {
    ++stats_.decode_errors;
    return;
  }
  // One scratch per delivering thread, shared by the participants it runs:
  // a session that hosts many viewers in one process would otherwise keep
  // each viewer's largest band resident and decode into cache-cold memory.
  thread_local DecodeScratch scratch;
  // §5.2.2: paint the band at (left, top); a failed decode paints nothing.
  auto band = codec->decode_into(msg.content, replica_,
                                 {static_cast<std::int64_t>(msg.left),
                                  static_cast<std::int64_t>(msg.top)},
                                 scratch);
  if (!band.ok()) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.region_updates;
  if (deliveries_.size() == kMaxDeliveries) {
    deliveries_.pop_front();
    ++stats_.deliveries_dropped;
  }
  deliveries_.push_back(
      DeliveryRecord{loop_.now(), pkt.timestamp, msg.content.size(), *band});
}

void Participant::apply_move_rectangle(const MoveRectangle& msg) {
  ++stats_.move_rectangles;
  const Rect dest = msg.dest();
  replica_.move_rect(msg.source(), {dest.left, dest.top});
}

void Participant::apply_pointer(const MousePointerInfo& msg) {
  ++stats_.pointer_updates;
  pointer_ = {static_cast<std::int64_t>(msg.left), static_cast<std::int64_t>(msg.top)};
  if (msg.has_icon()) {
    const ImageCodec* codec = codecs_.find(msg.content_pt);
    if (codec != nullptr) {
      auto icon = codec->decode(msg.icon);
      if (icon.ok()) {
        // "The participant MUST store and use this image until a new image
        // arrives from the AH."
        pointer_icon_ = std::move(*icon);
      } else {
        ++stats_.decode_errors;
      }
    }
  }
}

void Participant::handle_bfcp(BytesView packet) {
  auto msg = BfcpMessage::parse(packet);
  if (!msg.ok()) return;
  if (msg->primitive != BfcpPrimitive::kFloorRequestStatus || !msg->request_status)
    return;
  // On a multicast downlink every member sees every status message; only
  // the addressed user reacts.
  if (msg->user_id != opts_.user_id) return;
  switch (*msg->request_status) {
    case RequestStatus::kGranted:
      has_floor_ = true;
      floor_pending_ = false;
      hid_status_ = msg->hid_status.value_or(HidStatus::kAllAllowed);
      break;
    case RequestStatus::kPending:
    case RequestStatus::kAccepted:
      floor_pending_ = true;
      break;
    case RequestStatus::kReleased:
    case RequestStatus::kRevoked:
    case RequestStatus::kCancelled:
    case RequestStatus::kDenied:
      has_floor_ = false;
      floor_pending_ = false;
      hid_status_ = HidStatus::kNotAllowed;
      break;
  }
}

std::vector<Participant::DeliveryRecord> Participant::drain_deliveries() {
  std::vector<DeliveryRecord> out(deliveries_.begin(), deliveries_.end());
  deliveries_.clear();
  return out;
}

}  // namespace ads
