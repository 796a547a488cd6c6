// Application Host (AH): "the computer which runs the shared application,
// distributes the screen updates to the participants, and regenerates human
// interface events received from participants" (§1).
//
// Pipeline per frame tick:
//   capture → (scroll detection → MoveRectangle) → cohort grouping →
//   encode damage once per cohort → RegionUpdate (fragmented to MTU) →
//   per-participant transmission.
// The distribute stage is a shared-encode broadcast fan-out: participants
// are grouped into cohorts by effective operating point (content payload
// type, quality rung, MTU) and each damage band is encoded once per cohort
// per tick, then packetized per endpoint — fan-out cost is per operating
// point, not per receiver.
// Plus: WindowManagerInfo whenever the window manager state changes
// (§5.2.1), MousePointerInfo for the AH pointer (§5.2.4), PLI-triggered
// full refreshes (§5.3.1), NACK-driven retransmissions (§5.3.2), §7
// backlog-aware frame dropping for TCP participants, and BFCP-gated HIP
// event injection (§4.1, Appendix A).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bfcp/floor_control.hpp"
#include "buf/buf.hpp"
#include "capture/screen_capturer.hpp"
#include "codec/registry.hpp"
#include "rtp/packet_classify.hpp"
#include "core/parallel_encoder.hpp"
#include "hip/messages.hpp"
#include "net/egress.hpp"
#include "net/event_loop.hpp"
#include "rate/link.hpp"
#include "remoting/message.hpp"
#include "remoting/region_update.hpp"
#include "rtp/framing.hpp"
#include "rtp/packet_view.hpp"
#include "rtp/retransmission_cache.hpp"
#include "rtp/rtp_session.hpp"
#include "sdp/sharing_session.hpp"
#include "snapshot/record.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "transcode/transcode.hpp"
#include "wm/window_manager.hpp"

namespace ads {

using ParticipantId = std::uint16_t;

/// Every knob of the Application Host: screen geometry, codec choice,
/// transport policies (§4.3 rate control, §7 backlog), the encode
/// pipeline, liveness, adaptation and observability.
struct AppHostOptions {
  std::int64_t screen_width = 1280;
  std::int64_t screen_height = 1024;
  std::int64_t damage_tile = 32;
  /// Maximum RTP payload size (fragmentation threshold, Table 2).
  std::size_t mtu_payload = 1200;
  /// Content codec for RegionUpdate payloads.
  ContentPt codec = ContentPt::kPng;
  /// Emit MoveRectangle for detected scrolls (§5.2.3) instead of
  /// re-encoding the scrolled area.
  bool use_move_rectangle = true;
  /// Transmit the pointer as explicit MousePointerInfo messages; when
  /// false the pointer is assumed to be drawn into RegionUpdates (§4.2:
  /// "The AH decides which mouse model to use").
  bool pointer_messages = true;
  /// Answer NACKs with retransmissions (SDP "retransmissions" parameter).
  bool retransmissions = true;
  /// Per-participant send policy (rate::Link): a frame is skipped, and its
  /// damage kept pending, while the §7 backlog gate or the §4.3 bucket (one
  /// MTU) refuses it. Adaptation also sets the DCT rung and fps divisor.
  rate::LinkOptions link;
  /// Tall damage rectangles are split into horizontal bands of at most this
  /// many rows before encoding, bounding the size of a single RegionUpdate
  /// so rate control and interface queues see smooth bursts. 0 disables.
  std::int64_t region_band_rows = 128;
  /// Worker threads for the parallel band-encode stage; the tick thread
  /// encodes bands next to them. 0 = encode serially on the tick thread;
  /// the default sizes the pool to the machine. Wire bytes are identical at
  /// every setting (bands are sequence-ordered).
  std::size_t encode_threads = std::thread::hardware_concurrency();
  /// Byte budget for the encoded-region cache consulted before compressing
  /// a band (serves PLI full refreshes, late joiners, and repeating content
  /// from memory). 0 disables the cache.
  std::size_t encoded_cache_bytes = 8 * 1024 * 1024;
  /// Flash-crowd late-join: the checkpoint snapshot service
  /// (docs/LATEJOIN.md). When enabled, refresh demand — PLIs and TCP
  /// admissions — is batched into join cohorts per refresh window and
  /// served from pre-encoded, cohort-keyed refresh bundles: one checkpoint
  /// encode per operating point per join wave. Off by default; refreshes
  /// then go through the tick's cohort encode (the E19 baseline). The
  /// embedded record_path additionally streams checkpoint + updates to disk
  /// for deterministic session replay.
  snapshot::SnapshotOptions snapshot;
  SimTime frame_interval_us = 100'000;  ///< 10 fps capture clock
  /// RTCP Sender Report cadence (0 = no SRs).
  SimTime sr_interval_us = 1'000'000;
  /// Participant liveness (swept on the capture clock): a participant whose
  /// uplink (RTP-HIP, RTCP, BFCP — anything) has been silent for
  /// stale_after_us is marked stale (liveness.stale gauge); one silent for
  /// evict_after_us is removed and its per-participant state (token bucket,
  /// retransmission cache, stream carry) reclaimed. 0 disables each.
  SimTime stale_after_us = 0;
  SimTime evict_after_us = 0;
  std::size_t retransmission_cache = 2048;
  /// Session-wide telemetry sink. Null = the AH owns a private Telemetry
  /// (always available via telemetry()); non-null injects a shared instance
  /// that must outlive the AH.
  telemetry::Telemetry* telemetry = nullptr;
  /// Trace-span ring capacity for the tick-pipeline spans (ah.tick,
  /// ah.capture, ah.damage, ah.encode, ah.packetise, ...). 0 disables
  /// tracing; spans then cost one branch each. Ignored when an injected
  /// telemetry instance already has its trace ring enabled.
  std::size_t trace_capacity = 512;
  std::uint64_t seed = 0xADA5;
};

/// The Application Host: owns capture, encode, fan-out, feedback handling
/// and per-participant adaptation for one sharing session.
class AppHost {
 public:
  /// Constructs the AH on `loop`. `opts` are validated first — see
  /// validated(); invalid combinations throw std::invalid_argument.
  AppHost(EventLoop& loop, AppHostOptions opts = {});
  ~AppHost();

  /// Validate and normalise options: rejects impossible settings
  /// (frame_interval_us == 0, non-positive screen dimensions, zero MTU)
  /// with std::invalid_argument, and clamps merely nonsensical ones
  /// (negative band rows, and the link options through
  /// rate::LinkOptions::validated with one MTU as the packet size) to the
  /// nearest workable value.
  static AppHostOptions validated(AppHostOptions opts);

  /// The window manager whose shared windows this AH exports.
  WindowManager& wm() { return wm_; }
  /// The capture stage (attach scripted apps, read the last frame).
  ScreenCapturer& capturer() { return capturer_; }
  /// The BFCP floor-control server gating HIP input.
  FloorControlServer& floor() { return floor_; }
  /// The validated options this AH runs with.
  const AppHostOptions& options() const { return opts_; }

  /// Register a participant. For TCP endpoints the AH immediately queues
  /// WindowManagerInfo + a full refresh (§4.4); UDP participants are
  /// expected to send PLI (§4.3). A non-zero `reuse_id` re-registers a
  /// returning participant (TCP reconnect) under its previous id — BFCP
  /// floor state and HIP identity carry over — with fresh transport state
  /// (RTP stream, caches, uplink deframer). Falls back to a new id if the
  /// requested one is still occupied. New ids are never 0 and never one a
  /// live participant or member alias holds; throws std::length_error when
  /// all 65,535 ids are live.
  ParticipantId add_participant(Endpoint endpoint, ParticipantId reuse_id = 0);
  /// Deregister a participant and reclaim all its per-participant state;
  /// its rate.* totals live on, so those counters stay monotone,
  /// and its rate.p<id>.* gauges are withdrawn to 0. The liveness sweep
  /// evicts through here too.
  void remove_participant(ParticipantId id);
  /// Number of currently registered participants.
  std::size_t participant_count() const { return participants_.size(); }

  /// Called with the id of every participant evicted by the liveness sweep,
  /// after its state is gone — the session layer's hook to tear down the
  /// matching channels.
  using EvictionHandler = std::function<void(ParticipantId)>;
  /// Install (or replace) the eviction callback.
  void set_eviction_handler(EvictionHandler handler) {
    eviction_handler_ = std::move(handler);
  }

  /// Liveness introspection: true while the participant's uplink has been
  /// silent longer than stale_after_us (false for unknown ids).
  bool participant_stale(ParticipantId id) const;

  /// Register an uplink identity for a multicast group member: the member's
  /// RTCP feedback (PLI/NACK) applies to the group stream `group`, while
  /// HIP/BFCP keep the member's own identity. Returns the member id, drawn
  /// from the same allocator as add_participant().
  ParticipantId add_member_alias(ParticipantId group);

  /// Most recent RTCP Receiver Report block from a participant (nullptr
  /// before the first RR) — the AH-side link quality view.
  const ReportBlock* last_receiver_report(ParticipantId id) const;

  /// Current ads::rate operating point for a participant (nullptr for
  /// unknown ids). Meaningful only when options().link.adaptation.enabled.
  const rate::OperatingPoint* participant_operating_point(ParticipantId id) const;

  /// Per-participant codec override — the outcome of §5.2.2 media-type
  /// negotiation ("they should negotiate supported media types during the
  /// session establishment"). Returns false for unknown ids or payload
  /// types absent from the AH's registry.
  bool set_participant_codec(ParticipantId id, ContentPt codec);

  /// Per-participant output geometry (docs/TRANSCODE.md): downscale rung
  /// and/or crop viewport, the outcome of the SDP `a=geometry:` negotiation.
  /// Extends the participant's cohort operating point, so cohort-mates with
  /// the same geometry keep sharing one encode. Queues a full refresh at the
  /// new geometry. Returns false for unknown ids or a scale_shift > 6.
  bool set_participant_geometry(ParticipantId id, transcode::OutputGeometry geom);

  /// The participant's negotiated output geometry (nullptr for unknown ids).
  /// Follow-mode geometries report the declared geometry, not the per-tick
  /// resolved viewport.
  const transcode::OutputGeometry* participant_geometry(ParticipantId id) const;

  /// Host display-mode change: resize the desktop framebuffer. The next tick
  /// reports the whole new frame as damage, invalidates every snapshot
  /// bundle and re-sends a re-clamped pointer overlay to everyone.
  void set_screen_size(std::int64_t width, std::int64_t height);

  /// Begin the periodic capture/transmit loop on the event loop.
  void start();
  /// Stop the capture loop after the current tick; start() resumes it.
  void stop() { running_ = false; }

  /// Run one capture+transmit cycle immediately (benchmarks drive this
  /// directly instead of using start()).
  void tick();

  /// Inbound uplink traffic from a participant (RTP-HIP, RTCP, or BFCP —
  /// classified internally).
  void on_uplink_packet(ParticipantId from, BytesView packet);
  /// TCP uplink variant: raw stream bytes (RFC 4571 framed packets).
  void on_uplink_stream(ParticipantId from, BytesView data);

  /// Sink for validated, floor-approved HIP events — the "regenerate at the
  /// OS" hook. Receives the event and the originating participant.
  using InputSink = std::function<void(ParticipantId, const HipMessage&)>;
  /// Install (or replace) the HIP input sink.
  void set_input_sink(InputSink sink) { input_sink_ = std::move(sink); }

  /// Move the AH-user pointer (drives MousePointerInfo, §5.2.4).
  void set_pointer(Point p, const Image* icon = nullptr);

  /// The SDP offer describing this AH's session (§10.3 shape).
  SessionDescription sdp_offer() const;

  /// Map an RTP timestamp from the remoting stream back to the send-side
  /// sim time (measurement hook for latency benchmarks).
  SimTime remoting_timestamp_to_us(std::uint32_t rtp_ts) const;

  /// Lifetime totals for everything the AH sends, skips and receives.
  struct Stats {
    std::uint64_t frames_captured = 0;
    std::uint64_t region_updates_sent = 0;
    std::uint64_t move_rectangles_sent = 0;
    std::uint64_t wmi_sent = 0;
    std::uint64_t pointer_msgs_sent = 0;
    std::uint64_t rtp_packets_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_skipped_backlog = 0;  ///< §7 policy skips
    std::uint64_t frames_skipped_rate = 0;     ///< §4.3 rate-control skips
    std::uint64_t frames_skipped_fps = 0;      ///< ads::rate fps-divisor skips
    std::uint64_t srs_sent = 0;
    std::uint64_t rrs_received = 0;
    std::uint64_t retransmissions_sent = 0;  ///< NACK repairs sent (rtx hits)
    std::uint64_t rtx_misses = 0;            ///< NACKed seqs no longer cached
    std::uint64_t rtx_evictions = 0;         ///< packets aged out of rtx stores
    std::uint64_t nacks_received = 0;
    std::uint64_t plis_received = 0;
    std::uint64_t hip_events_accepted = 0;
    std::uint64_t hip_events_rejected_coords = 0;  ///< §4.1 legitimacy check
    std::uint64_t hip_events_rejected_floor = 0;   ///< BFCP gate
    std::uint64_t hip_parse_errors = 0;
    std::uint64_t participants_evicted = 0;   ///< liveness-timeout removals
    std::uint64_t stale_transitions = 0;      ///< fresh→stale edges observed
    // Shared fan-out accounting.
    std::uint64_t fanout_cohorts = 0;         ///< operating-point cohorts formed
    std::uint64_t fanout_encodes_unique = 0;  ///< bands encoded once per cohort
    std::uint64_t fanout_encodes_shared = 0;  ///< band encodes saved by sharing
    // Zero-copy datapath accounting (docs/DATAPATH.md). payload_bytes_copied
    // counts sender-side staging copies only: band-stream serialisation and
    // TCP carry staging (the unaccepted suffix of a partial write).
    // Transport-level materialisation of a delivered datagram is the wire
    // (the NIC-DMA analogue), not a copy.
    std::uint64_t packets_built = 0;          ///< header-plus-view packets assembled
    std::uint64_t payload_bytes_copied = 0;   ///< staging copies, in bytes
    std::uint64_t band_streams_built = 0;     ///< fragment streams serialised once
                                              ///< per cohort or bundle band
    // Flash-crowd late-join accounting (docs/LATEJOIN.md). join_admissions
    // counts every full refresh granted; the shared/fallback split only
    // accrues while the snapshot service is enabled.
    std::uint64_t join_admissions = 0;          ///< full refreshes granted
    std::uint64_t join_shared_refreshes = 0;    ///< served from a refresh bundle
    std::uint64_t join_fallback_refreshes = 0;  ///< §4.4 path despite snapshot on
    // Output-geometry transcode accounting (docs/TRANSCODE.md). Per-class
    // byte counters split bytes_sent by the receiver's device class; the
    // remaining counters track the geometry machinery itself.
    std::uint64_t hip_events_mapped = 0;     ///< HIP coords mapped output→host
    std::uint64_t viewport_moves = 0;        ///< follow viewports re-anchored
    std::uint64_t move_rects_geometry_skipped = 0;  ///< S1 divisibility gate
    std::uint64_t bytes_sent_full = 0;       ///< media bytes, full-res class
    std::uint64_t bytes_sent_half = 0;       ///< … half-res rung
    std::uint64_t bytes_sent_quarter = 0;    ///< … quarter (shift >= 2) rungs
    std::uint64_t bytes_sent_viewport = 0;   ///< … viewport/follow class
  };
  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }

  /// The band-encode stage (pool size, cache hit/miss counters) — the perf
  /// observability hook for benches and tests.
  const ParallelEncoder& encoder() const { return encoder_; }

  /// The flash-crowd snapshot service: refresh-window/bundle state and the
  /// snapshot.* counter source (docs/LATEJOIN.md).
  const snapshot::SnapshotService& snapshot_service() const { return snapshot_; }

  /// The per-tick frame scaler cache: one scaled frame per distinct output
  /// geometry per tick (the transcode.* counter source, docs/TRANSCODE.md).
  const transcode::FrameScaler& scaler() const { return scaler_; }

  /// The session recorder (non-null while options().snapshot.record_path is
  /// set; check ok() — a failed open latches it into a no-op). Call
  /// finish() before replaying the file within the same process.
  snapshot::SessionRecorder* recorder() { return recorder_.get(); }

  /// The session-wide observability sink (owned or injected — see
  /// AppHostOptions::telemetry). telemetry().snapshot() yields one
  /// cross-layer view: ah.* counters, encoder.*/cache.* stage stats,
  /// rtx.* retransmission-store stats, plus whatever the net layer and the
  /// session wiring publish into the same registry.
  telemetry::Telemetry& telemetry() { return *tel_; }

 private:
  struct ParticipantState {
    rate::Link link;  ///< transport plus the §7/§4.3 gates and adaptation
    RtpSender sender;          ///< per-participant remoting RTP stream
    RetransmissionCache cache;
    bool needs_full_refresh = false;
    bool needs_wmi = false;
    Region pending;            ///< damage not yet delivered (backlog skips)
    std::uint64_t frames_sent = 0;
    StreamDeframer uplink_deframer;  ///< TCP uplink reassembly
    std::optional<ContentPt> codec;  ///< negotiated override (else AH default)
    SimTime last_uplink_us = 0;      ///< liveness: any uplink traffic
    bool stale = false;              ///< silent past stale_after_us
    // §5.2.4 pointer dirtiness is per participant: set for everyone when
    // the AH pointer moves, cleared only when *this* participant is sent
    // the update — a tick skipped by the fps divisor, the §7 backlog gate
    // or the §4.3 bucket keeps the flag armed.
    bool pointer_dirty = false;
    bool pointer_icon_dirty = false;
    // Output geometry (docs/TRANSCODE.md): the negotiated device-class
    // geometry, and the host-space source rect it resolved to on the last
    // tick — follow mode re-anchors per tick, and a changed source rect
    // queues the newly-streamed area as pending damage.
    transcode::OutputGeometry geometry;
    Rect geometry_src;

    ParticipantState(Endpoint ep, const rate::LinkOptions& link_opts,
                     std::uint8_t pt, std::uint64_t seed, std::size_t cache_size)
        : link(std::move(ep), link_opts), sender(pt, seed), cache(cache_size) {}
  };

  /// One band's serialised fragment stream: a pooled buffer holding the
  /// concatenated fragment payloads plus the per-fragment windows. Built
  /// once, then shared by every PacketView cut from it. The shape is the
  /// snapshot service's bundle band, so pre-encoded refresh bundles feed
  /// packetize_regions directly — a joiner's packets are views into the
  /// checkpoint's streams.
  using BandStream = snapshot::BundleBand;

  void schedule_tick();
  /// Serialise one band's RegionUpdate fragment stream into a pooled buffer
  /// (the single staging copy of the zero-copy datapath; counted in
  /// payload_bytes_copied). `content` is consumed.
  BandStream make_band_stream(const Rect& r, ContentPt pt, Bytes content,
                              const transcode::OutputGeometry& geom);
  /// Account for and hand one packet to the participant's link, which
  /// charges its §4.3 bucket (UDP packets also enter the retransmission
  /// cache). UDP packets leave at the end of the distribute turn
  /// (finish_turn).
  void transmit_view(ParticipantState& p, const PacketView& v, SimTime now);
  /// End one participant's distribute turn: count the frame and flush the
  /// egress's UDP batch.
  void finish_turn(ParticipantState& p);
  /// The id for the next participant or member alias: the next one past
  /// the last handed out that is non-zero and not live.
  ParticipantId allocate_id();
  void send_payload(ParticipantState& p, Bytes payload, bool marker, SimTime now);
  void send_wmi(ParticipantState& p);
  /// Resolve a participant's declared geometry for this tick: follow mode
  /// re-anchors the viewport to the topmost shared window's frame; plain
  /// geometries pass through unchanged.
  transcode::OutputGeometry resolve_geometry(const ParticipantState& p) const;
  /// Map host-space rects into one geometry's output space, merge, and
  /// band-split.
  std::vector<Rect> geometry_bands(const transcode::OutputGeometry& geom,
                                   const std::vector<Rect>& host_rects) const;
  /// Per-tick snapshot + record stage, run before distribution: geometry
  /// invalidation, refresh-window close / delta eviction, this tick's
  /// damage and scroll destinations folded into live bundle deltas, and the
  /// checkpoint + update stream appended to the session recorder.
  void snapshot_stage(const std::vector<MoveRectangle>& scrolls,
                      const std::vector<Rect>& damage);
  /// Fetch (building on first demand in the window) the refresh bundle for
  /// the operating point `key`, encoded with `params` in `geom`'s output
  /// space. nullptr = serve this joiner through the per-joiner §4.4 path
  /// instead (service disabled, bundle budget exhausted, or build failure).
  snapshot::RefreshBundle* snapshot_admit(const snapshot::OperatingPointKey& key,
                                          const EncodeParams& params,
                                          const transcode::OutputGeometry& geom);
  /// Split rectangles into ≤ region_band_rows-row bands (the encode/cohort
  /// granularity). Empty rects are dropped.
  std::vector<Rect> band_split(const std::vector<Rect>& rects) const;
  /// Per-participant pre-send policy: flushes TCP carry, records whether
  /// the participant was current before this tick's damage landed
  /// (`was_current` — the §5.2.2 MoveRectangle eligibility), accumulates
  /// damage, runs the ads::rate update and the fps-divisor / §7 backlog /
  /// §4.3 bucket gates. Returns false when the participant is skipped this
  /// tick (scrolled areas are folded into its pending damage).
  /// Also resolves the participant's output geometry for this tick (follow
  /// re-anchoring; a moved source rect queues the newly-exposed area as
  /// pending damage *before* the was_current probe, so a viewport move
  /// disables MoveRectangle eligibility for that tick).
  bool pre_send(ParticipantState& p, const std::vector<MoveRectangle>& scrolls,
                const std::vector<Rect>& damage, bool& was_current,
                transcode::OutputGeometry& geom);
  /// Transmit already-encoded bands (parallel to `queue`) within the
  /// participant's rate budget, cutting header-plus-view packets from each
  /// band's fragment stream. `stream_for(i)` yields band i's stream, built
  /// lazily so bands past the rate cut-off cost nothing; the streams are
  /// cohort- or bundle-owned (one serialisation feeds every member).
  /// Returns the bands that must stay pending for the next tick.
  std::vector<Rect> packetize_regions(
      ParticipantState& p, const std::vector<Rect>& queue,
      const std::function<const BandStream&(std::size_t)>& stream_for);
  /// Shared-encode broadcast fan-out: plan per participant, group into
  /// operating-point cohorts, encode each band once per cohort, then
  /// packetize per endpoint in participant order.
  void distribute_shared(const std::vector<MoveRectangle>& scrolls,
                         const std::vector<Rect>& damage);
  void send_move_rectangle(ParticipantState& p, const MoveRectangle& mr);
  void send_pointer(ParticipantState& p, bool include_icon);
  /// The id whose stream serves `id`: its multicast group's when `id` is a
  /// member alias, else `id` itself.
  ParticipantId stream_id(ParticipantId id) const;
  /// The stream state serving `id` (see stream_id()). Null when there is
  /// none.
  ParticipantState* stream_state(ParticipantId id);
  void handle_rtcp(ParticipantId from, BytesView packet);
  /// Apply one sub-packet of a (possibly compound) RTCP datagram to `p`.
  void handle_rtcp_message(ParticipantState& p, const RtcpMessage& msg);
  void handle_hip(ParticipantId from, BytesView payload);
  void handle_bfcp(ParticipantId from, BytesView packet);
  /// Record uplink activity for liveness (aliases credit their group).
  void touch_liveness(ParticipantId from);
  /// Mark silent participants stale; evict those silent past the timeout.
  void sweep_liveness();
  ContentPt codec_for(const ParticipantState& p) const;
  /// Snapshot-time collector: publishes Stats, encoder/cache stage stats
  /// and the aggregated retransmission-store stats into the registry.
  void publish_metrics();

  EventLoop& loop_;
  AppHostOptions opts_;
  std::unique_ptr<telemetry::Telemetry> owned_tel_;  ///< null when injected
  telemetry::Telemetry* tel_;
  WindowManager wm_;
  ScreenCapturer capturer_;
  CodecRegistry codecs_;
  ParallelEncoder encoder_;
  /// Payload-buffer pool for the zero-copy datapath. Declared before
  /// participants_ (whose retransmission caches hold BufRefs) so teardown
  /// order exercises the detach path only when the AH itself dies mid-hold.
  buf::BufPool pool_;
  /// Flash-crowd late-join state (docs/LATEJOIN.md). Refresh bundles hold
  /// pooled stream buffers, so — like participants_ — the service is
  /// declared after pool_ and releases its BufRefs first on teardown.
  snapshot::SnapshotService snapshot_;
  std::unique_ptr<snapshot::SessionRecorder> recorder_;
  FloorControlServer floor_;
  std::map<ParticipantId, ParticipantState> participants_;
  std::map<ParticipantId, ParticipantId> member_alias_;  ///< member -> group
  ParticipantId next_participant_id_ = 1;
  SimTime last_sr_at_ = 0;
  std::uint64_t tick_count_ = 0;  ///< drives the ads::rate fps divisor
  InputSink input_sink_;
  EvictionHandler eviction_handler_;
  bool running_ = false;

  // Pointer model state (dirtiness lives per participant).
  Point pointer_{0, 0};
  Image pointer_icon_;

  // Output-geometry transcode stage (docs/TRANSCODE.md): per-tick scaled
  // frame cache, and the previous frame size so a host resize re-arms every
  // participant's pointer overlay (the re-clamped position must be re-sent).
  transcode::FrameScaler scaler_;
  std::int64_t last_frame_w_ = 0;
  std::int64_t last_frame_h_ = 0;

  // WindowManagerInfo trigger (§5.2.1): the wm revision last announced.
  std::uint64_t last_wmi_revision_ = ~0ull;

  // Snapshot geometry watch (invalidate bundles on a resize) and session
  // recorder bookkeeping: what the on-disk replay state already reflects.
  std::int64_t snap_frame_w_ = 0;
  std::int64_t snap_frame_h_ = 0;
  bool recorded_initial_checkpoint_ = false;
  SimTime last_checkpoint_rec_us_ = 0;
  std::uint64_t recorded_wmi_revision_ = ~0ull;
  Point recorded_pointer_{0, 0};

  // One logical remoting timestamp base shared across participants for the
  // latency measurement hook (participants' senders share the seed-derived
  // initial timestamp).
  std::uint32_t ts_base_;
  Stats stats_;
  /// Adaptation counters of participants that have left, so the rate.*
  /// sums never run backwards.
  rate::ControllerStats retired_rate_;
};

}  // namespace ads
