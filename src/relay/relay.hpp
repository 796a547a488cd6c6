// Cascaded relay tier (SFU-style scale-out, ROADMAP item 1).
//
// A RelayNode terminates one upstream remoting stream — from the AH or from
// another relay — and re-fans it to N downstream legs *without re-encoding
// or re-serialising*: each arriving packet becomes (or already is) a
// PacketView into a shared refcounted buffer, and forwarding to a leg costs
// one refcount bump plus a `send_batch`/`send_gather` transport call. A
// depth-D tree of degree-K relays therefore serves K^D × viewers-per-leaf
// receivers while the AH encodes exactly once (see docs/RELAY.md and the
// byte-identity golden in tests/relay).
//
// Control plane: downstream legs' RTCP terminates at the relay and is
// aggregated upward —
//   * NACK: served first from a local RetransmissionCache (a sibling's loss
//     never reaches the AH); cache misses are deduplicated, batched for
//     nack_flush_us, and requested upstream once per holdoff window. The
//     repair is forwarded only to the legs that asked.
//   * PLI: at most one forwarded upstream per kPliCoalesceUs — one AH full
//     refresh heals the whole subtree.
//   * RR: one worst-case summary per report_interval_us (max loss/jitter,
//     min extended highest sequence over the relay's own reception and
//     every leg's last report), sent upstream as one compound datagram.
// Upstream control traffic (SRs) is forwarded verbatim to every leg; HIP
// and BFCP uplink packets pass through upward unchanged.
//
// Data plane policy is per leg, so a slow leaf degrades its own leg and
// never the tree: each leg holds one rate::Link, the same policy the AH
// applies per participant — the §7 backlog gate for TCP legs, a §4.3 token
// bucket (optionally retargeted by the link's ads::rate controller) for
// UDP legs. A relay has no encoder, so the controller's quality/fps
// outputs are ignored; only its rate output actuates the bucket.
//
// Self-healing: the node watches its upstream for media/SR silence on the
// virtual clock (same escalation shape as the participant starvation
// watchdog) — timeout, then probe_count liveness probes, then the upstream
// is declared dead and the upstream-lost callback fires once. While
// orphaned the node freezes forwarding but keeps serving subtree NACKs
// from its local cache; adopt_upstream() re-parents it onto a new upstream
// and resyncs through the §4.4 late-join path (immediate PLI, fresh
// receiver/probation state, dropped retransmission cache, cleared NACK/PLI
// holdoff windows) so no stale repair ever crosses an epoch boundary.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "buf/buf.hpp"
#include "net/egress.hpp"
#include "net/event_loop.hpp"
#include "rate/link.hpp"
#include "rtp/packet_classify.hpp"
#include "rtp/packet_view.hpp"
#include "rtp/retransmission_cache.hpp"
#include "rtp/rtp_session.hpp"
#include "telemetry/telemetry.hpp"
#include "util/prng.hpp"

namespace ads::relay {

/// Identifies one downstream leg within its RelayNode (never reused).
using LegId = std::uint16_t;

/// Every knob of one relay node. Validated like AppHostOptions: impossible
/// settings throw, merely nonsensical ones are clamped — see validated().
struct RelayOptions {
  /// Maximum downstream fan-out degree; add_leg() past it throws. Must be
  /// at least 1 (a relay that can never have a leg is a configuration
  /// error, not a topology).
  std::size_t max_legs = 64;
  /// Cadence of the aggregated upstream Receiver Report (and of the per-leg
  /// rate-adaptation interval). Must be > 0.
  SimTime report_interval_us = 500'000;
  /// How long leg NACKs accumulate before one deduplicated upstream NACK is
  /// flushed (0 is clamped to 1 — flush on the next event-loop turn).
  SimTime nack_flush_us = 5'000;
  /// A sequence already requested upstream is not re-requested within this
  /// window; late joiner legs asking for it are absorbed into the pending
  /// repair instead. Clamped up to nack_flush_us.
  SimTime nack_holdoff_us = 100'000;
  /// Flash-crowd PLI wave batching (mirrors nack_flush_us): when > 0 and no
  /// coalesce window (RelayNode::kPliCoalesceUs) is open, the first leg PLI
  /// arms a timer instead of going upstream immediately; every PLI landing
  /// before expiry joins the wave, and exactly one upstream PLI goes out
  /// when the timer fires (which also opens the coalesce window). A
  /// 10k-viewer join flood thus costs the AH one refresh demand per relay
  /// per wave. 0 forwards the first PLI of each window immediately.
  SimTime pli_batch_us = 0;
  /// Local retransmission store serving subtree NACKs without an upstream
  /// round trip. Packets, not bytes; clamped to at least 16.
  std::size_t retransmission_cache = 4096;
  /// Per-leg send policy (rate::Link): a packet the §7 backlog gate or the
  /// §4.3 bucket refuses is dropped for that leg. LegConfig overrides rate
  /// and burst per leg; adaptation actuates only the rate (no encoder).
  rate::LinkOptions link{.backlog_limit = 64 * 1024};
  /// Shared observability sink; null = the node owns a private Telemetry.
  telemetry::Telemetry* telemetry = nullptr;
  /// Prefix for this node's metrics (multi-relay sessions give each node a
  /// distinct prefix, e.g. "relay.r3.").
  std::string metrics_prefix = "relay.";
  /// Derives the relay's RTCP reporting SSRC deterministically.
  std::uint64_t seed = 0xBE1A;
  /// Upstream liveness watchdog: media/SR silence beyond this starts the
  /// probe ladder (0 disables detection). Armed by the first upstream
  /// activity and by adopt_upstream(), like the participant watchdog is
  /// armed by join().
  SimTime upstream_timeout_us = 2'000'000;
  /// Interval between liveness probes once the silence threshold is hit
  /// (each probe is one aggregated RR doubling as a keepalive). Clamped
  /// to at least 1.
  SimTime probe_interval_us = 250'000;
  /// Silent probes tolerated before the upstream is declared dead. Clamped
  /// to at least 1.
  int probe_count = 3;
  /// Uniform random jitter fraction added to each probe interval, drawn
  /// from the node's seeded Prng only on escalation — sibling relays spread
  /// their declare-dead instants without perturbing fault-free replay.
  double watchdog_jitter = 0.25;
};

/// Per-leg policy overrides supplied at add_leg() time, applied to a copy
/// of RelayOptions::link.
struct LegConfig {
  /// Static token-bucket rate for this leg (bits/s), used only with
  /// adaptation off; unset = RelayOptions::link.rate_bps.
  std::optional<std::uint64_t> rate_bps;
  /// Bucket depth for this leg (bytes), taken as given (not clamped);
  /// unset = RelayOptions::link.burst_bytes.
  std::optional<std::size_t> burst_bytes;
};

/// One relay node: upstream RTP/RTCP termination, zero-copy downstream
/// fan-out, upward feedback aggregation. Single-threaded on the event loop,
/// like everything else in the simulator.
class RelayNode {
 public:
  /// At most one PLI is forwarded upstream per window of this length; the
  /// rest of the subtree's PLIs are coalesced into that one refresh.
  static constexpr SimTime kPliCoalesceUs = 500'000;

  /// Constructs the node on `loop`. `opts` are validated first; impossible
  /// combinations throw std::invalid_argument.
  RelayNode(EventLoop& loop, RelayOptions opts = {});
  ~RelayNode();

  /// Validate and normalise options: rejects impossible settings (zero
  /// max_legs, zero report interval) with std::invalid_argument and clamps
  /// nonsensical ones (zero nack flush, holdoff below flush, a zero
  /// retransmission cache, and the link options through
  /// rate::LinkOptions::validated with a 1500-byte packet).
  static RelayOptions validated(RelayOptions opts);

  /// The validated options this node runs with.
  const RelayOptions& options() const { return opts_; }

  // ----- upstream side ------------------------------------------------

  /// Install the upstream feedback path (aggregated RTCP, pass-through HIP
  /// and BFCP). The callee owns framing when the upstream link is a stream.
  void set_upstream(std::function<bool(BytesView)> send) {
    send_upstream_ = std::move(send);
  }

  /// One upstream datagram (UDP upstream link). Takes ownership: an RTP
  /// media packet's bytes are moved into a pooled buffer and become the
  /// shared payload every leg's PacketView points into — no copy.
  void on_upstream_datagram(Bytes datagram);
  /// Zero-copy in-process ingest of media packets, in order: the upstream
  /// AH/relay hands its own PacketViews over (a turn's batch, or one
  /// repair) and the buffers are shared across the whole subtree. Returns
  /// packets accepted (all).
  std::size_t on_upstream_batch(std::span<const PacketView> pkts);

  // ----- downstream side ----------------------------------------------

  /// Register a downstream leg (a viewer's link or a child relay's
  /// upstream). Throws std::invalid_argument past options().max_legs.
  LegId add_leg(Endpoint endpoint, LegConfig cfg = {});
  /// Deregister a leg and reclaim its state. Its backlog/rate gauges are
  /// withdrawn to 0 (its counters stay: they are lifetime totals).
  void remove_leg(LegId id);
  /// Number of registered legs.
  std::size_t leg_count() const { return legs_.size(); }

  /// Uplink packet from a leg: RTCP terminates here (NACK/PLI/RR
  /// aggregation); RTP (HIP) and BFCP pass through upward verbatim.
  void on_leg_packet(LegId from, BytesView packet);

  /// Begin the periodic aggregation/adaptation interval on the event loop.
  void start();
  /// Stop the periodic interval and quiesce all deferred repair state:
  /// pending NACK batches and their holdoff windows are abandoned, the PLI
  /// coalesce window closes, the liveness watchdog disarms, and the
  /// retransmission cache is dropped — a stopped node never serves a stale
  /// repair. Per-leg backlog/rate gauges are withdrawn (zeroed) at the next
  /// snapshot. start() re-enables everything (with a cold cache).
  void stop();

  // ----- self-healing (failure detection and failover) -----------------

  /// Failure-detection hook: invoked exactly once per failure epoch when
  /// the upstream is declared dead (after the probe ladder drains). The
  /// session uses it to re-parent the orphaned subtree.
  void set_upstream_lost(std::function<void()> cb) {
    on_upstream_lost_ = std::move(cb);
  }
  /// True after the upstream was declared dead and before adopt_upstream().
  bool orphaned() const { return orphaned_; }

  /// Chaos hook (FaultClass::kRelayStall): a stalled node is wedged —
  /// ingest is dropped, nothing is forwarded or reported, leg uplink is
  /// ignored. Unstalling resumes normal operation and restarts the
  /// upstream grace period (the freeze was local, not the parent's fault).
  void set_stalled(bool stalled);
  /// True while frozen by set_stalled(true).
  bool stalled() const { return stalled_; }

  /// Failover resync: call after attaching this node under a new upstream.
  /// Begins a fresh upstream epoch — RTP ext-seq/probation state, the
  /// retransmission cache and all pending NACK/PLI holdoff windows reset —
  /// clears the orphaned state, re-arms the liveness watchdog and requests
  /// a §4.4 full refresh from the new parent with an immediate PLI.
  void adopt_upstream();

  /// Upstream epochs begun so far (SSRC changes plus adoptions).
  std::uint64_t upstream_epoch() const { return epoch_; }

  /// Detection latency of the most recent declare-dead (silence between the
  /// last upstream activity and the declaration), 0 before the first.
  SimTime last_detect_latency_us() const { return detect_latency_us_; }
  /// Duration of the most recent failover resync (adoption to the first
  /// media of the new epoch), 0 before the first completed resync.
  SimTime last_resync_duration_us() const { return resync_duration_us_; }

  // ----- introspection -------------------------------------------------

  /// Last Receiver Report block a leg sent (nullptr before the first).
  const ReportBlock* leg_last_rr(LegId id) const;
  /// The SSRC this relay reports with (RTCP sender identity).
  std::uint32_t ssrc() const { return ssrc_; }
  /// Upstream media SSRC once learned (0 before the first media packet).
  std::uint32_t upstream_ssrc() const { return upstream_ssrc_; }
  /// Upstream reception bookkeeping (loss/jitter the aggregated RR reports).
  const RtpReceiver& receiver() const { return receiver_; }
  /// The local retransmission store.
  const RetransmissionCache& cache() const { return cache_; }

  /// Lifetime totals for everything the node forwards, serves and absorbs.
  struct Stats {
    // Data plane.
    std::uint64_t upstream_packets = 0;   ///< media packets ingested
    std::uint64_t upstream_bytes = 0;     ///< media bytes ingested
    std::uint64_t upstream_duplicates = 0;///< dropped as already-forwarded
    std::uint64_t forwarded_packets = 0;  ///< per-leg media forwards
    std::uint64_t forwarded_bytes = 0;    ///< per-leg media bytes
    std::uint64_t control_forwarded = 0;  ///< SR/BFCP datagrams fanned down
    std::uint64_t repairs_forwarded = 0;  ///< upstream repairs routed to waiters
    std::uint64_t payload_bytes_copied = 0;  ///< TCP carry staging (0 on UDP legs)
    std::uint64_t leg_drops_backlog = 0;  ///< §7 gate drops across legs
    std::uint64_t leg_drops_rate = 0;     ///< §4.3 bucket drops across legs
    // NACK aggregation.
    std::uint64_t nacks_received = 0;     ///< NACK messages from legs
    std::uint64_t nack_seqs_received = 0; ///< sequences those asked for
    std::uint64_t rtx_served = 0;         ///< repairs served from the local cache
    std::uint64_t rtx_bytes = 0;          ///< bytes of those repairs
    std::uint64_t rtx_misses = 0;         ///< NACKed seqs not in the cache
    std::uint64_t rtx_evictions = 0;      ///< packets aged out of the cache
    std::uint64_t nacks_absorbed = 0;     ///< seqs deduplicated into a pending
                                          ///< or in-flight upstream request
    std::uint64_t nacks_upstream = 0;     ///< NACK messages sent upstream
    std::uint64_t nack_seqs_upstream = 0; ///< sequences requested upstream
    std::uint64_t gap_nacks = 0;          ///< relay-detected upstream losses queued
    // PLI coalescing / wave batching.
    std::uint64_t plis_received = 0;      ///< PLIs from legs
    std::uint64_t plis_coalesced = 0;     ///< absorbed by the coalesce window
    std::uint64_t plis_batched = 0;       ///< folded into an armed batch wave
    std::uint64_t plis_upstream = 0;      ///< forwarded upstream
    // RR aggregation.
    std::uint64_t rrs_received = 0;       ///< RRs from legs
    std::uint64_t rrs_aggregated = 0;     ///< worst-case summaries sent upstream
    // Pass-through uplink.
    std::uint64_t hip_upstream = 0;       ///< HIP packets relayed upward
    std::uint64_t bfcp_upstream = 0;      ///< BFCP packets relayed upward
    std::uint64_t decode_errors = 0;      ///< unparseable/unsupported ingest
    // Self-healing (failure detection / failover).
    std::uint64_t watchdog_probes = 0;    ///< liveness probes sent upstream
    std::uint64_t upstream_lost = 0;      ///< times the upstream was declared dead
    std::uint64_t adoptions = 0;          ///< failover epochs (adopt_upstream)
    std::uint64_t ssrc_epochs = 0;        ///< epochs begun by an upstream SSRC change
    std::uint64_t frozen_drops = 0;       ///< media dropped while orphaned/stalled
    std::uint64_t cache_dropped = 0;      ///< cached repairs discarded at epoch resets
    std::uint64_t failover_lost_packets = 0;  ///< seq-space gap across failover epochs
  };
  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }

  /// Seed lifetime counters from a previous incarnation. The session's
  /// cold-restart path calls this right after construction so relay.rN.*
  /// telemetry (rtx.* included) stays monotone across a crash/restart cycle.
  void fold_stats(const Stats& prior) { stats_ = prior; }

  /// The node's observability sink (owned or injected).
  telemetry::Telemetry& telemetry() { return *tel_; }

 private:
  struct LegState {
    rate::Link link;  ///< transport plus the §7/§4.3 gates and adaptation
    std::uint64_t forwarded = 0;
    std::uint64_t drops_backlog = 0;
    std::uint64_t drops_rate = 0;

    LegState(Endpoint ep, const rate::LinkOptions& opts)
        : link(std::move(ep), opts) {}
  };

  /// A sequence the subtree is missing: which legs asked (or everyone, for
  /// relay-detected upstream gaps). It stays queued until the next upstream
  /// NACK carries it, then waits for its repair until the holdoff expires.
  struct Repair {
    bool all_legs = false;
    std::set<LegId> waiters;
    bool queued = true;        ///< not yet requested upstream
    SimTime requested_at = 0;  ///< when it went upstream (once !queued)
  };

  /// Bookkeeping + cache + fan-out for one ingested media view.
  void ingest_media(const PacketView& v);
  /// Queue one media packet onto a leg, honouring that leg's §7/§4.3 gates
  /// (UDP packets leave at the leg's next egress flush).
  void forward_to_leg(LegState& leg, const PacketView& v);
  /// Fan one upstream control datagram (SR, BFCP) to every leg verbatim.
  void forward_control(BytesView packet);
  /// Consume upstream RTCP (SR → the receiver's LSR/DLSR) before fanning
  /// it down.
  void handle_upstream_rtcp(BytesView packet);
  /// Terminate one leg's RTCP: NACK dedup/serve, PLI coalesce, RR record.
  void handle_leg_rtcp(LegId from, LegState& leg, BytesView packet);
  /// Serve one NACKed sequence for a leg (cache, pending merge, or queue).
  void handle_leg_nack_seq(LegId from, LegState& leg, std::uint16_t seq);
  /// Queue relay-detected upstream gaps for the next NACK flush.
  void queue_gap_nacks();
  /// Arm the nack_flush_us timer if pending requests exist and it is idle.
  void arm_nack_flush();
  /// nack_flush_us expiry: disarm, then send one deduplicated upstream
  /// NACK for everything pending.
  void flush_nacks();
  /// Append the pending NACK (if any) to `msgs`, moving queued entries to
  /// requested; used by both the flush timer and the report tick.
  void collect_pending_nack(std::vector<RtcpMessage>& msgs);
  /// Forward one PLI upstream, absorb it into the coalesce window, or fold
  /// it into the armed batch wave (pli_batch_us).
  void handle_leg_pli();
  /// Emit the single upstream PLI of a wave: coalesce-window bookkeeping
  /// plus the loss-recovery reset the coming full refresh supersedes.
  void send_pli_upstream(SimTime now);
  /// pli_batch_us expiry: send the armed wave's one upstream PLI.
  void flush_pli_batch();
  /// The periodic interval: per-leg adaptation + aggregated upstream RR.
  void report_tick();
  /// Append the aggregated upstream RR to `msgs`; false (nothing appended)
  /// without an upstream path or a stream to report on.
  bool upstream_report(std::vector<RtcpMessage>& msgs);
  /// Worst-case fold of the relay's own reception and every leg's last RR.
  ReportBlock aggregate_report();
  /// Snapshot-time collector publishing Stats under the metrics prefix.
  void publish_metrics();
  /// Publish one leg's counters and its backlog (TCP) and rate
  /// (rate-limited) gauges, the gauges as 0 when `withdrawn` (stopped node,
  /// departed leg).
  void publish_leg(LegId id, const LegState& leg, bool withdrawn);
  /// Run member `fn` after `delay` unless the node is destroyed first.
  void after(SimTime delay, void (RelayNode::*fn)());
  /// Quiesce every deferred repair: the repair map (queued and requested
  /// NACKs), the PLI coalesce window and batch, and the retransmission
  /// cache. Shared by stop() and begin_upstream_epoch().
  void reset_repair();
  /// Reset every per-epoch upstream structure: reset_repair() plus the
  /// receiver/probation and SR state and the learned SSRC. Shared by
  /// SSRC-change detection and failover adoption.
  void begin_upstream_epoch();
  /// Drop the cache, counting the discarded entries.
  void drop_cache();
  /// Record upstream liveness (media or SR arrival) and reset the ladder.
  void on_upstream_activity();
  /// Arm the liveness timer unless already armed or detection is off.
  void arm_watchdog(SimTime delay);
  /// One watchdog expiry: disarm, then sleep out residual activity, probe,
  /// or declare.
  void watchdog_tick();
  /// Escalation end: mark the node orphaned and fire the lost callback.
  void declare_upstream_dead();
  /// True while the node must not forward media downstream.
  bool frozen() const { return orphaned_ || stalled_; }

  EventLoop& loop_;
  RelayOptions opts_;
  std::unique_ptr<telemetry::Telemetry> owned_tel_;  ///< null when injected
  telemetry::Telemetry* tel_;
  buf::BufPool pool_;  ///< wraps upstream datagrams into shared buffers
  RetransmissionCache cache_;
  RtpReceiver receiver_;  ///< upstream media reception bookkeeping
  std::function<bool(BytesView)> send_upstream_;

  std::map<LegId, LegState> legs_;
  LegId next_leg_id_ = 1;

  std::uint32_t ssrc_;
  std::uint32_t upstream_ssrc_ = 0;
  bool have_upstream_ssrc_ = false;

  // NACK aggregation state: every sequence the subtree is missing, queued
  // for the next upstream flush or requested and awaiting its repair.
  std::map<std::uint16_t, Repair> repairs_;
  bool nack_flush_armed_ = false;

  SimTime last_pli_up_us_ = 0;
  bool pli_sent_ever_ = false;
  bool pli_batch_armed_ = false;  ///< a PLI wave is accumulating

  // Self-healing state. The watchdog arms on the first upstream activity
  // (and on adoption); stop() disables it until the next start().
  std::function<void()> on_upstream_lost_;
  bool orphaned_ = false;
  bool stalled_ = false;
  bool stopped_ = false;  ///< stop() was called and no start() since
  bool watchdog_armed_ = false;
  SimTime last_upstream_activity_us_ = 0;
  int probes_sent_ = 0;
  std::uint64_t epoch_ = 0;
  SimTime detect_latency_us_ = 0;   ///< last declare-dead silence span
  SimTime resync_duration_us_ = 0;  ///< last adoption-to-first-media span
  SimTime adopt_at_us_ = 0;
  bool awaiting_resync_ = false;
  // High-water mark of the epoch that ended at the last adoption, for the
  // lost-across-failover count (meaningful only when the SSRC survives).
  bool had_prev_epoch_seq_ = false;
  std::uint32_t prev_epoch_ssrc_ = 0;
  std::uint16_t prev_epoch_highest_ = 0;
  Prng wd_rng_;

  bool started_ = false;
  Stats stats_;
  /// Pending event-loop callbacks hold a weak reference; destruction
  /// silently cancels them (same idiom as UdpChannel).
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace ads::relay
