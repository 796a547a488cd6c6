#include "core/app_host.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "hip/hip_map.hpp"
#include "rtp/rtcp.hpp"
#include "util/logging.hpp"

namespace ads {
namespace {

/// S1 MoveRectangle geometry gate: a scroll is only replayable on a scaled
/// view when both its source and destination rects land on whole output
/// pixels — corners offset from the source-rect origin by a multiple of the
/// scale factor and extent divisible by it. Anything else would replay from
/// fractionally-covered output pixels whose box-filtered values differ from
/// a re-encode, and the scaled replica would silently diverge (the
/// geometry-unsafe MoveRectangle bug this PR fixes). Such scrolls fall back
/// to ordinary damage for that cohort.
bool mr_alignable(const transcode::OutputGeometry& g, const Rect& fb,
                  const MoveRectangle& mr) {
  const Rect s = transcode::source_rect(g, fb);
  if (g.scale_shift == 0 && s == fb) return true;  // pixel-identity view
  const Rect src = mr.source();
  const Rect dst = mr.dest();
  if (!s.contains(src) || !s.contains(dst)) return false;
  const std::int64_t f = g.factor();
  return (src.left - s.left) % f == 0 && (src.top - s.top) % f == 0 &&
         (dst.left - s.left) % f == 0 && (dst.top - s.top) % f == 0 &&
         src.width % f == 0 && src.height % f == 0;
}

/// Rewrite an alignable scroll into one geometry's output space (subtract
/// the source-rect origin, divide by the scale factor). Pixel-identity
/// geometries pass through unchanged.
MoveRectangle mr_to_output(const transcode::OutputGeometry& g, const Rect& fb,
                           const MoveRectangle& mr) {
  const Rect s = transcode::source_rect(g, fb);
  if (g.scale_shift == 0 && s == fb) return mr;
  const std::int64_t f = g.factor();
  const Rect src = mr.source();
  const Rect dst = mr.dest();
  return MoveRectangle::from(
      mr.window_id,
      {(src.left - s.left) / f, (src.top - s.top) / f, src.width / f, src.height / f},
      {(dst.left - s.left) / f, (dst.top - s.top) / f});
}

/// Metric prefix of one participant's rate.p<id>.* gauges.
std::string rate_prefix(ParticipantId id) {
  return "rate.p" + std::to_string(id) + ".";
}

}  // namespace

AppHostOptions AppHost::validated(AppHostOptions opts) {
  if (opts.frame_interval_us == 0) {
    throw std::invalid_argument("AppHostOptions: frame_interval_us must be > 0");
  }
  if (opts.screen_width <= 0 || opts.screen_height <= 0) {
    throw std::invalid_argument("AppHostOptions: screen dimensions must be > 0");
  }
  if (opts.mtu_payload == 0) {
    throw std::invalid_argument("AppHostOptions: mtu_payload must be > 0");
  }
  // Clamp merely-nonsensical combinations to the nearest workable value.
  if (opts.damage_tile <= 0) opts.damage_tile = 32;
  if (opts.region_band_rows < 0) opts.region_band_rows = 0;
  // The §4.3 gate asks for one MTU, so the bucket must hold one.
  opts.link = rate::LinkOptions::validated(opts.link, opts.mtu_payload);
  opts.snapshot = snapshot::SnapshotService::validated(std::move(opts.snapshot));
  return opts;
}

AppHost::AppHost(EventLoop& loop, AppHostOptions opts)
    : loop_(loop),
      opts_(validated(std::move(opts))),
      owned_tel_(opts_.telemetry != nullptr
                     ? nullptr
                     : std::make_unique<telemetry::Telemetry>()),
      tel_(opts_.telemetry != nullptr ? opts_.telemetry : owned_tel_.get()),
      capturer_(wm_, opts_.screen_width, opts_.screen_height, opts_.damage_tile),
      codecs_(CodecRegistry::with_defaults()),
      encoder_(codecs_, {.threads = opts_.encode_threads,
                         .cache_bytes = opts_.encoded_cache_bytes}),
      snapshot_(opts_.snapshot),
      floor_(FloorControlOptions{.conference_id = 1, .floor_id = 0}),
      pointer_icon_(8, 12, Pixel{255, 255, 255, 255}) {
  // All per-participant senders share one seed, hence one timestamp base —
  // the AH is one media source fanned out to many sinks.
  ts_base_ = RtpSender(kRemotingPayloadType, opts_.seed).timestamp_at(0);

  // Trace spans run on the event loop's virtual clock, so traces are
  // deterministic: same session, same spans, any machine.
  if (opts_.trace_capacity > 0 && !tel_->trace.enabled()) {
    tel_->trace.enable(opts_.trace_capacity, [lp = &loop_] { return lp->now(); });
  }
  tel_->metrics.add_collector(this, [this] { publish_metrics(); });

  // Session record/replay substrate: stream checkpoint + updates to disk
  // whenever a path is configured. A failed open latches the recorder into
  // a no-op — recording must never take the session down.
  if (!opts_.snapshot.record_path.empty()) {
    recorder_ =
        std::make_unique<snapshot::SessionRecorder>(opts_.snapshot.record_path);
    if (!recorder_->ok()) {
      ADS_LOG(kWarn) << "session recorder failed to open "
                     << opts_.snapshot.record_path;
    }
  }
}

AppHost::~AppHost() { tel_->metrics.remove_collectors(this); }

void AppHost::publish_metrics() {
  auto& m = tel_->metrics;
  m.counter("ah.frames_captured").set(stats_.frames_captured);
  m.counter("ah.region_updates_sent").set(stats_.region_updates_sent);
  m.counter("ah.move_rectangles_sent").set(stats_.move_rectangles_sent);
  m.counter("ah.wmi_sent").set(stats_.wmi_sent);
  m.counter("ah.pointer_msgs_sent").set(stats_.pointer_msgs_sent);
  m.counter("ah.rtp_packets_sent").set(stats_.rtp_packets_sent);
  m.counter("ah.bytes_sent").set(stats_.bytes_sent);
  m.counter("ah.frames_skipped_backlog").set(stats_.frames_skipped_backlog);
  m.counter("ah.frames_skipped_rate").set(stats_.frames_skipped_rate);
  m.counter("ah.frames_skipped_fps").set(stats_.frames_skipped_fps);
  m.counter("ah.srs_sent").set(stats_.srs_sent);
  m.counter("ah.rrs_received").set(stats_.rrs_received);
  m.counter("ah.retransmissions_sent").set(stats_.retransmissions_sent);
  m.counter("ah.nacks_received").set(stats_.nacks_received);
  m.counter("ah.plis_received").set(stats_.plis_received);
  m.counter("ah.hip_events_accepted").set(stats_.hip_events_accepted);
  m.counter("ah.hip_events_rejected_coords").set(stats_.hip_events_rejected_coords);
  m.counter("ah.hip_events_rejected_floor").set(stats_.hip_events_rejected_floor);
  m.counter("ah.hip_parse_errors").set(stats_.hip_parse_errors);
  m.gauge("ah.participants").set(static_cast<std::int64_t>(participants_.size()));
  m.counter("fanout.cohorts").set(stats_.fanout_cohorts);
  m.counter("fanout.encodes_unique").set(stats_.fanout_encodes_unique);
  m.counter("fanout.encodes_shared").set(stats_.fanout_encodes_shared);
  m.counter("datapath.packets_built").set(stats_.packets_built);
  m.counter("datapath.payload_bytes_copied").set(stats_.payload_bytes_copied);
  m.counter("datapath.band_streams_built").set(stats_.band_streams_built);
  const buf::BufPoolStats& bp = pool_.stats();
  m.counter("datapath.pool.acquires").set(bp.acquires);
  m.counter("datapath.pool.hits").set(bp.pool_hits);
  m.counter("datapath.pool.allocations").set(bp.allocations);
  m.counter("datapath.pool.recycles").set(bp.recycles);
  m.counter("datapath.pool.frees").set(bp.frees);
  m.gauge("datapath.pool.outstanding")
      .set(static_cast<std::int64_t>(bp.outstanding));

  const ParallelEncoder::Stats& es = encoder_.stats();
  m.counter("encoder.bands_requested").set(es.bands_requested);
  m.counter("encoder.bands_encoded").set(es.bands_encoded);
  m.counter("encoder.encode_calls").set(es.encode_calls);
  m.gauge("encoder.queue_depth_peak")
      .set(static_cast<std::int64_t>(es.peak_queue_depth));
  m.gauge("encoder.threads").set(static_cast<std::int64_t>(encoder_.threads()));
  m.counter("cache.hits").set(es.cache_hits);
  m.counter("cache.misses").set(es.cache_misses);
  m.counter("cache.bytes_saved").set(es.cache_hit_bytes);
  EncodedRegionCache& cache = encoder_.cache();
  m.gauge("cache.bytes").set(static_cast<std::int64_t>(cache.bytes()));
  m.gauge("cache.entries").set(static_cast<std::int64_t>(cache.entries()));
  m.counter("cache.evictions").set(cache.evictions());

  // Every cache hit is a retransmission sent.
  m.counter("rtx.hits").set(stats_.retransmissions_sent);
  m.counter("rtx.misses").set(stats_.rtx_misses);
  m.counter("rtx.evictions").set(stats_.rtx_evictions);
  std::uint64_t rtx_cached = 0;
  for (const auto& [id, p] : participants_) rtx_cached += p.cache.size();
  m.gauge("rtx.cached_packets").set(static_cast<std::int64_t>(rtx_cached));

  if (opts_.link.adaptation.enabled) {
    std::uint64_t increases = retired_rate_.increases;
    std::uint64_t decreases = retired_rate_.decreases;
    std::uint64_t q_changes = retired_rate_.quality_changes;
    std::uint64_t fps_changes = retired_rate_.fps_changes;
    for (const auto& [id, p] : participants_) {
      const rate::ControllerStats& rs = p.link.controller_stats();
      increases += rs.increases;
      decreases += rs.decreases;
      q_changes += rs.quality_changes;
      fps_changes += rs.fps_changes;
      const rate::OperatingPoint& op = p.link.operating_point();
      const std::string prefix = rate_prefix(id);
      m.gauge(prefix + "budget_bps")
          .set(static_cast<std::int64_t>(op.rate_bps));
      m.gauge(prefix + "quality_step").set(op.quality_step);
      m.gauge(prefix + "fps_divisor").set(op.fps_divisor);
    }
    m.counter("rate.increases").set(increases);
    m.counter("rate.decreases").set(decreases);
    m.counter("rate.quality_changes").set(q_changes);
    m.counter("rate.fps_changes").set(fps_changes);
  }

  std::int64_t stale_now = 0;
  for (const auto& [id, p] : participants_) {
    if (p.stale) ++stale_now;
  }
  m.gauge("liveness.stale").set(stale_now);
  m.counter("liveness.stale_transitions").set(stats_.stale_transitions);
  m.counter("liveness.evictions").set(stats_.participants_evicted);

  // Flash-crowd late-join families (docs/LATEJOIN.md; names in TELEMETRY.md).
  const snapshot::SnapshotService::Stats& sn = snapshot_.stats();
  m.counter("snapshot.windows_opened").set(sn.windows_opened);
  m.counter("snapshot.windows_closed").set(sn.windows_closed);
  m.counter("snapshot.bundles_built").set(sn.bundles_built);
  m.counter("snapshot.bundle_bands").set(sn.bundle_bands);
  m.counter("snapshot.bundles_served").set(sn.bundles_served);
  m.counter("snapshot.encodes_saved").set(sn.encodes_saved);
  m.counter("snapshot.plis_absorbed").set(sn.plis_absorbed);
  m.counter("snapshot.build_failures").set(sn.build_failures);
  m.counter("snapshot.budget_rejections").set(sn.budget_rejections);
  m.counter("snapshot.delta_evictions").set(sn.delta_evictions);
  m.counter("snapshot.invalidations").set(sn.invalidations);
  m.counter("snapshot.delta_rects").set(sn.delta_rects);
  m.gauge("snapshot.live_bundles")
      .set(static_cast<std::int64_t>(snapshot_.bundle_count()));
  if (recorder_ != nullptr) {
    const snapshot::SessionRecorder::Stats& rs = recorder_->stats();
    m.counter("snapshot.record.checkpoints").set(rs.checkpoints);
    m.counter("snapshot.record.region_updates").set(rs.region_updates);
    m.counter("snapshot.record.move_rects").set(rs.move_rects);
    m.counter("snapshot.record.bytes").set(rs.bytes_written);
  }
  m.counter("join.admissions").set(stats_.join_admissions);
  m.counter("join.shared_refreshes").set(stats_.join_shared_refreshes);
  m.counter("join.fallback_refreshes").set(stats_.join_fallback_refreshes);
  m.counter("join.waves").set(sn.windows_opened);

  // Output-geometry transcode family (docs/TRANSCODE.md; names in
  // TELEMETRY.md).
  const transcode::FrameScaler::Stats& ts = scaler_.stats();
  m.counter("transcode.frames_scaled").set(ts.frames_scaled);
  m.counter("transcode.pixels_scaled").set(ts.pixels_scaled);
  m.counter("transcode.cache_hits").set(ts.cache_hits);
  m.counter("transcode.hip_events_mapped").set(stats_.hip_events_mapped);
  m.counter("transcode.viewport_moves").set(stats_.viewport_moves);
  m.counter("transcode.move_rects_blocked")
      .set(stats_.move_rects_geometry_skipped);
  m.counter("transcode.bytes_full").set(stats_.bytes_sent_full);
  m.counter("transcode.bytes_half").set(stats_.bytes_sent_half);
  m.counter("transcode.bytes_quarter").set(stats_.bytes_sent_quarter);
  m.counter("transcode.bytes_viewport").set(stats_.bytes_sent_viewport);
}

ParticipantId AppHost::allocate_id() {
  if (participants_.size() + member_alias_.size() >= 0xFFFF) {
    throw std::length_error("AppHost: all 65535 participant ids are live");
  }
  // 16-bit ids wrap: skip 0 (the "no reuse" sentinel) and every id a live
  // participant or member alias still holds.
  while (next_participant_id_ == 0 ||
         participants_.count(next_participant_id_) != 0 ||
         member_alias_.count(next_participant_id_) != 0) {
    ++next_participant_id_;
  }
  return next_participant_id_++;
}

ParticipantId AppHost::add_participant(Endpoint endpoint,
                                       ParticipantId reuse_id) {
  const bool reuse = reuse_id != 0 && participants_.count(reuse_id) == 0 &&
                     member_alias_.count(reuse_id) == 0;
  const ParticipantId id = reuse ? reuse_id : allocate_id();
  ParticipantState& p =
      participants_
          .try_emplace(id, std::move(endpoint), opts_.link, kRemotingPayloadType,
                       opts_.seed, opts_.retransmission_cache)
          .first->second;
  if (p.link.tcp()) {
    // §4.4: "The AH prepares and transmits the windows' state information
    // and image of the whole shared region to the new participant, right
    // after the TCP connection establishment."
    p.needs_wmi = true;
    p.needs_full_refresh = true;
  }
  p.last_uplink_us = loop_.now();
  return id;
}

bool AppHost::participant_stale(ParticipantId id) const {
  auto it = participants_.find(id);
  return it != participants_.end() && it->second.stale;
}

ParticipantId AppHost::stream_id(ParticipantId id) const {
  auto alias = member_alias_.find(id);
  return alias == member_alias_.end() ? id : alias->second;
}

AppHost::ParticipantState* AppHost::stream_state(ParticipantId id) {
  auto it = participants_.find(stream_id(id));
  return it == participants_.end() ? nullptr : &it->second;
}

void AppHost::touch_liveness(ParticipantId from) {
  ParticipantState* p = stream_state(from);
  if (p == nullptr) return;
  p->last_uplink_us = loop_.now();
  p->stale = false;
}

void AppHost::sweep_liveness() {
  if (opts_.stale_after_us == 0 && opts_.evict_after_us == 0) return;
  const SimTime now = loop_.now();
  std::vector<ParticipantId> evict;
  for (auto& [id, p] : participants_) {
    const SimTime silent = now - p.last_uplink_us;
    if (opts_.stale_after_us > 0 && silent >= opts_.stale_after_us && !p.stale) {
      p.stale = true;
      ++stats_.stale_transitions;
    }
    if (opts_.evict_after_us > 0 && silent >= opts_.evict_after_us) {
      evict.push_back(id);
    }
  }
  for (ParticipantId id : evict) {
    remove_participant(id);
    ++stats_.participants_evicted;
    if (eviction_handler_) eviction_handler_(id);
  }
}

void AppHost::remove_participant(ParticipantId id) {
  auto it = participants_.find(id);
  if (it == participants_.end()) return;
  // Erasing the state reclaims the link (bucket, controller, egress carry),
  // retransmission cache and uplink deframer; its adaptation counters live
  // on in retired_rate_ so the rate.* sums stay monotone.
  const rate::ControllerStats& rs = it->second.link.controller_stats();
  retired_rate_.increases += rs.increases;
  retired_rate_.decreases += rs.decreases;
  retired_rate_.quality_changes += rs.quality_changes;
  retired_rate_.fps_changes += rs.fps_changes;
  participants_.erase(it);
  // The collector no longer visits this id: withdraw its gauges.
  if (opts_.link.adaptation.enabled) {
    const std::string prefix = rate_prefix(id);
    for (const char* gauge : {"budget_bps", "quality_step", "fps_divisor"}) {
      tel_->metrics.gauge(prefix + gauge).set(0);
    }
  }
}

ParticipantId AppHost::add_member_alias(ParticipantId group) {
  const ParticipantId member = allocate_id();
  member_alias_[member] = group;
  return member;
}

const ReportBlock* AppHost::last_receiver_report(ParticipantId id) const {
  auto it = participants_.find(stream_id(id));
  if (it == participants_.end() || !it->second.link.last_report()) return nullptr;
  return &*it->second.link.last_report();
}

const rate::OperatingPoint* AppHost::participant_operating_point(
    ParticipantId id) const {
  auto it = participants_.find(id);
  if (it == participants_.end()) return nullptr;
  return &it->second.link.operating_point();
}

void AppHost::start() {
  if (running_) return;
  running_ = true;
  schedule_tick();
}

void AppHost::schedule_tick() {
  loop_.after(opts_.frame_interval_us, [this] {
    if (!running_) return;
    tick();
    schedule_tick();
  });
}

SimTime AppHost::remoting_timestamp_to_us(std::uint32_t rtp_ts) const {
  const std::uint32_t ticks = rtp_ts - ts_base_;
  return static_cast<SimTime>(ticks) * 1000 / 90;
}

SessionDescription AppHost::sdp_offer() const {
  SharingOffer offer;
  offer.remoting_pt = kRemotingPayloadType;
  offer.hip_pt = kHipPayloadType;
  offer.retransmissions = opts_.retransmissions;
  return build_sharing_offer(offer);
}

void AppHost::set_pointer(Point p, const Image* icon) {
  bool moved = false;
  if (p != pointer_) {
    pointer_ = p;
    moved = true;
  }
  const bool icon_changed = icon != nullptr;
  if (icon_changed) pointer_icon_ = *icon;
  if (!moved && !icon_changed) return;
  // Dirtiness is per participant so a tick skipped by the fps divisor, the
  // §7 backlog gate or the §4.3 bucket still delivers the update when that
  // participant next sends. Late joiners get the pointer via the §5.2.4
  // full-refresh path instead.
  for (auto& [id, ps] : participants_) {
    ps.pointer_dirty = true;
    if (icon_changed) ps.pointer_icon_dirty = true;
  }
}

bool AppHost::set_participant_codec(ParticipantId id, ContentPt codec) {
  auto it = participants_.find(id);
  if (it == participants_.end()) return false;
  if (codecs_.find(codec) == nullptr) return false;
  it->second.codec = codec;
  return true;
}

ContentPt AppHost::codec_for(const ParticipantState& p) const {
  return p.codec.value_or(opts_.codec);
}

bool AppHost::set_participant_geometry(ParticipantId id,
                                       transcode::OutputGeometry geom) {
  auto it = participants_.find(id);
  if (it == participants_.end()) return false;
  if (geom.scale_shift > transcode::kMaxScaleShift) return false;
  it->second.geometry = geom;
  // Force re-resolution next tick (an unchanged-looking source rect from a
  // different geometry must not suppress the refresh), and queue the full
  // picture at the new geometry — a scaled replica cannot patch itself from
  // deltas encoded for the old output space.
  it->second.geometry_src = Rect{};
  it->second.needs_full_refresh = true;
  return true;
}

const transcode::OutputGeometry* AppHost::participant_geometry(
    ParticipantId id) const {
  auto it = participants_.find(id);
  return it == participants_.end() ? nullptr : &it->second.geometry;
}

void AppHost::set_screen_size(std::int64_t width, std::int64_t height) {
  capturer_.set_screen_size(width, height);
  // Keep the validated options in sync with the live framebuffer; the next
  // tick()'s frame-size watches handle the rest (full damage from the
  // capturer, snapshot invalidation in snapshot_stage, and the re-clamped
  // pointer overlay resend).
  opts_.screen_width = capturer_.width();
  opts_.screen_height = capturer_.height();
}

transcode::OutputGeometry AppHost::resolve_geometry(
    const ParticipantState& p) const {
  transcode::OutputGeometry g = p.geometry;
  if (g.follow) {
    // Viewport-follow streams the focused (topmost shared) window; with no
    // shared window the viewport clears and the view degrades to the whole
    // frame at the negotiated scale rung.
    const std::vector<Window> shared = wm_.shared_windows();
    g.viewport = shared.empty() ? Rect{} : shared.back().frame;
  }
  return g;
}

std::vector<Rect> AppHost::geometry_bands(
    const transcode::OutputGeometry& geom,
    const std::vector<Rect>& host_rects) const {
  const Rect fb = capturer_.last_frame().bounds();
  // Pixel-identity views band the host rects as given; only mapped views
  // need the merge below.
  if (geom.scale_shift == 0 && transcode::source_rect(geom, fb) == fb) {
    return band_split(host_rects);
  }
  Region out;
  for (const Rect& r : host_rects) {
    const Rect mapped = transcode::map_rect_to_output(geom, fb, r);
    if (!mapped.empty()) out.add(mapped);
  }
  out.simplify();
  return band_split(out.rects());
}

void AppHost::transmit_view(ParticipantState& p, const PacketView& v, SimTime now) {
  ++stats_.rtp_packets_sent;
  ++stats_.packets_built;
  stats_.bytes_sent += v.wire_size();
  // Per-device-class byte split (declared geometry, not the per-tick
  // resolved viewport — the class is a property of the receiver).
  switch (transcode::device_class(p.geometry)) {
    case transcode::DeviceClass::kFull: stats_.bytes_sent_full += v.wire_size(); break;
    case transcode::DeviceClass::kHalf: stats_.bytes_sent_half += v.wire_size(); break;
    case transcode::DeviceClass::kQuarter:
      stats_.bytes_sent_quarter += v.wire_size();
      break;
    case transcode::DeviceClass::kViewport:
      stats_.bytes_sent_viewport += v.wire_size();
      break;
  }

  // The cache shares the payload buffer: 16 header bytes + a ref.
  if (!p.link.tcp()) stats_.rtx_evictions += p.cache.put(v);
  stats_.payload_bytes_copied += p.link.send(v, now);
}

void AppHost::finish_turn(ParticipantState& p) {
  ++p.frames_sent;
  p.link.egress().flush();
}

void AppHost::send_payload(ParticipantState& p, Bytes payload, bool marker,
                           SimTime now) {
  // Control-plane messages (WMI, MoveRectangle, pointer fragments) move
  // their bytes into a pooled buffer — ownership transfer, not a copy.
  const std::size_t length = payload.size();
  buf::BufRef buf = pool_.acquire(0);
  buf.bytes() = std::move(payload);
  const PacketView v = p.sender.make_view(marker, now, std::move(buf), 0, length);
  transmit_view(p, v, now);
}

void AppHost::send_wmi(ParticipantState& p) {
  const WindowManagerInfo msg = WindowManagerInfo::from(wm_);
  send_payload(p, msg.serialize(), /*marker=*/false, loop_.now());
  ++stats_.wmi_sent;
  p.needs_wmi = false;
}

void AppHost::send_move_rectangle(ParticipantState& p, const MoveRectangle& mr) {
  send_payload(p, mr.serialize(), /*marker=*/false, loop_.now());
  ++stats_.move_rectangles_sent;
}

void AppHost::send_pointer(ParticipantState& p, bool include_icon) {
  // Clamp the host pointer into the frame *before* the window lookup and
  // the geometry mapping: a pointer parked on (or past) the right/bottom
  // edge — including one stranded outside the bounds by a host resize —
  // must render on the last on-screen pixel, not one past it (§5.2.4).
  const Rect fb = capturer_.last_frame().bounds();
  Point host{std::max<std::int64_t>(0, pointer_.x),
             std::max<std::int64_t>(0, pointer_.y)};
  if (!fb.empty()) {
    host.x = std::min(host.x, fb.right() - 1);
    host.y = std::min(host.y, fb.bottom() - 1);
  }
  // Scaled/viewport viewers get the position in their own output space; the
  // icon stays native-size (cursors render 1:1 on the viewer, like real
  // remote-desktop stacks).
  const transcode::OutputGeometry geom = resolve_geometry(p);
  const Point out =
      fb.empty() ? host : transcode::map_point_to_output(geom, fb, host);
  RegionUpdate carrier;
  carrier.window_id = wm_.shared_window_at(host).value_or(0);
  carrier.content_pt = static_cast<std::uint8_t>(codec_for(p));
  carrier.left = static_cast<std::uint32_t>(std::max<std::int64_t>(0, out.x));
  carrier.top = static_cast<std::uint32_t>(std::max<std::int64_t>(0, out.y));
  if (include_icon) {
    carrier.content = codecs_.find(codec_for(p))->encode(pointer_icon_);
  }
  auto frags = fragment_region_update(carrier, opts_.mtu_payload,
                                      RemotingType::kMousePointerInfo);
  for (auto& frag : frags) {
    send_payload(p, std::move(frag.payload), frag.marker, loop_.now());
  }
  ++stats_.pointer_msgs_sent;
}

std::vector<Rect> AppHost::band_split(const std::vector<Rect>& rects) const {
  // Band-split tall rectangles so each RegionUpdate stays modest; this lets
  // rate control stop between bands instead of mid-message, and gives the
  // shared fan-out its deduplication granularity.
  std::vector<Rect> queue;
  for (const Rect& r : rects) {
    if (r.empty()) continue;
    if (opts_.region_band_rows <= 0 || r.height <= opts_.region_band_rows) {
      queue.push_back(r);
      continue;
    }
    for (std::int64_t top = r.top; top < r.bottom(); top += opts_.region_band_rows) {
      queue.push_back(Rect{r.left, top, r.width,
                           std::min(opts_.region_band_rows, r.bottom() - top)});
    }
  }
  return queue;
}

AppHost::BandStream AppHost::make_band_stream(const Rect& r, ContentPt pt,
                                              Bytes content,
                                              const transcode::OutputGeometry& geom) {
  RegionUpdate msg;
  // Band rects are output-space under a non-identity geometry; the window
  // ownership lookup lives in host space, so map the centre back first.
  const Point centre{r.left + r.width / 2, r.top + r.height / 2};
  const Point host_centre =
      transcode::map_point_to_host(geom, capturer_.last_frame().bounds(), centre);
  msg.window_id = wm_.shared_window_at(host_centre).value_or(0);
  msg.content_pt = static_cast<std::uint8_t>(pt);
  msg.left = static_cast<std::uint32_t>(std::max<std::int64_t>(0, r.left));
  msg.top = static_cast<std::uint32_t>(std::max<std::int64_t>(0, r.top));
  msg.content = std::move(content);

  BandStream bs;
  bs.buf = pool_.acquire(msg.content.size() + 64);
  bs.frags = fragment_region_update_into(msg, opts_.mtu_payload, bs.buf.bytes());
  // The one staging copy of the datapath: content + fragment headers
  // serialised into the pooled stream buffer.
  stats_.payload_bytes_copied += bs.buf.bytes().size();
  return bs;
}

std::vector<Rect> AppHost::packetize_regions(
    ParticipantState& p, const std::vector<Rect>& queue,
    const std::function<const BandStream&(std::size_t)>& stream_for) {
  const SimTime now = loop_.now();
  std::vector<Rect> leftover;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (p.link.exhausted(now)) {
      // Budget exhausted mid-frame: carry the rest into the next tick.
      leftover.insert(leftover.end(), queue.begin() + static_cast<std::ptrdiff_t>(i),
                      queue.end());
      break;
    }
    const BandStream& bs = stream_for(i);
    for (const FragmentSpan& fs : bs.frags) {
      const PacketView v =
          p.sender.make_view(fs.marker, now, bs.buf, fs.offset, fs.length);
      transmit_view(p, v, now);
    }
    ++stats_.region_updates_sent;
  }
  return leftover;
}

bool AppHost::pre_send(ParticipantState& p,
                       const std::vector<MoveRectangle>& scrolls,
                       const std::vector<Rect>& damage, bool& was_current,
                       transcode::OutputGeometry& geom) {
  // Flush any carried-over TCP bytes first.
  p.link.egress().drain_carry();

  // Resolve this tick's output geometry (follow mode re-anchors to the
  // topmost shared window). A moved source rect queues the newly-streamed
  // area as pending damage — and because this runs before the was_current
  // probe below, the move also disqualifies MoveRectangle replay this tick
  // (the replica has never seen the pixels the scroll would copy from).
  geom = resolve_geometry(p);
  const Rect src =
      transcode::source_rect(geom, capturer_.last_frame().bounds());
  if (src != p.geometry_src) {
    if (!p.geometry_src.empty()) {
      p.pending.add(src);
      if (p.geometry.follow || !p.geometry.viewport.empty()) {
        ++stats_.viewport_moves;
      }
    }
    p.geometry_src = src;
  }

  // §5.2.2 MoveRectangle eligibility is decided on the state the
  // participant was in *before* this tick's damage lands: only a replica
  // with nothing pending is guaranteed current over every scroll source.
  // (Comparing pending area against this tick's damage area misclassifies
  // a lagging participant whose stale region gets re-damaged this tick —
  // it would replay the move from stale source pixels and diverge.)
  was_current = p.pending.empty();

  // Accumulate this tick's damage for everyone.
  for (const Rect& r : damage) p.pending.add(r);

  // ads::rate control interval (a no-op with adaptation off). Frame-interval
  // scaling: send this participant's frame only every Nth capture tick.
  // Damage (and scrolled areas, which cannot be replayed later) keeps
  // accumulating as pending.
  const rate::OperatingPoint& op = p.link.adapt(loop_.now());
  if (opts_.link.adaptation.enabled && op.fps_divisor > 1 &&
      tick_count_ % static_cast<std::uint64_t>(op.fps_divisor) != 0) {
    ++stats_.frames_skipped_fps;
    for (const MoveRectangle& mr : scrolls) p.pending.add(mr.dest());
    return false;
  }

  // §7 backlog policy: if this TCP participant still has unsent bytes,
  // skip its frame — pending damage keeps accumulating and the latest
  // state is sent when the pipe drains ("a viewer usually only needs to
  // see the final state of the image"). The §4.3 UDP rate-control bucket
  // applies the same policy to UDP participants (only TCP links backlog,
  // only UDP links are rate-limited).
  if (p.link.backlogged()) {
    ++stats_.frames_skipped_backlog;
  } else if (p.link.short_of(opts_.mtu_payload, loop_.now())) {
    ++stats_.frames_skipped_rate;
  } else {
    return true;
  }
  // Scrolled areas cannot be replayed later (the participant missed the
  // base); convert them to pending damage.
  for (const MoveRectangle& mr : scrolls) p.pending.add(mr.dest());
  return false;
}

void AppHost::distribute_shared(const std::vector<MoveRectangle>& scrolls,
                                const std::vector<Rect>& damage) {
  const Image& frame = capturer_.last_frame();
  const Rect fb = frame.bounds();

  struct SendPlan {
    ParticipantState* p = nullptr;
    bool full_refresh = false;
    bool send_mrs = false;
    ContentPt pt = ContentPt::kRaw;
    EncodeParams params;
    snapshot::OperatingPointKey key;  ///< cohort and refresh-bundle key
    transcode::OutputGeometry geom;   ///< resolved output geometry
    std::vector<MoveRectangle> mrs;   ///< alignment-gated, output-space
    std::vector<Rect> bands;          ///< this participant's send queue
    std::vector<std::uint32_t> slots; ///< band → index into cohort payloads
    /// Non-null: a full refresh served from this pre-encoded checkpoint
    /// bundle instead of the cohort encode (bands stays empty).
    snapshot::RefreshBundle* bundle = nullptr;
  };

  // Phase 1 — per-participant policy and banding. Decisions here depend
  // only on that participant's own state (bucket, backlog, fps divisor,
  // pending region), so running them before any send gives each
  // participant the same wire it would get alone.
  std::vector<SendPlan> plan;
  plan.reserve(participants_.size());
  for (auto& [id, p] : participants_) {
    bool was_current = false;
    transcode::OutputGeometry geom;
    if (!pre_send(p, scrolls, damage, was_current, geom)) continue;

    SendPlan sp;
    sp.p = &p;
    sp.geom = geom;
    sp.pt = codec_for(p);
    const rate::OperatingPoint& op = p.link.operating_point();
    const bool adaptive_dct =
        opts_.link.adaptation.enabled && sp.pt == ContentPt::kDct;
    if (adaptive_dct) sp.params.dct_quality = op.dct_quality;
    // The operating point includes the output geometry: scale rung plus the
    // resolved host-space source rect (pre_send just refreshed
    // p.geometry_src = source_rect(geom, fb)). Identity viewers all resolve
    // to {0, fb}, so they share one cohort and one refresh bundle.
    sp.key = snapshot::OperatingPointKey{
        static_cast<std::uint8_t>(sp.pt), op.quality_key(adaptive_dct),
        opts_.mtu_payload, geom.scale_shift, p.geometry_src};
    if (p.needs_full_refresh) {
      // "image of the whole shared region" (§4.3). With the snapshot
      // service on, the whole join cohort is served from one pre-encoded
      // refresh bundle per operating point; otherwise (or on bundle-budget/
      // build failure) the refresh is band-split like any damage and goes
      // through the cohort encode. A rate-limited remainder stays pending
      // either way (phase 3).
      sp.full_refresh = true;
      p.pending.clear();
      ++stats_.join_admissions;
      if (snapshot_.enabled()) {
        sp.bundle = snapshot_admit(sp.key, sp.params, geom);
      }
      if (sp.bundle != nullptr) {
        ++stats_.join_shared_refreshes;
      } else {
        if (snapshot_.enabled()) ++stats_.join_fallback_refreshes;
        sp.bands = geometry_bands(geom, {fb});
      }
    } else {
      sp.send_mrs = p.frames_sent > 0 && was_current;
      if (sp.send_mrs) {
        // S1 alignment gate, decided here in phase 1 so a blocked scroll's
        // destination folds into pending *before* banding — same-tick
        // damage delivery.
        for (const MoveRectangle& mr : scrolls) {
          if (mr_alignable(geom, fb, mr)) {
            sp.mrs.push_back(mr_to_output(geom, fb, mr));
          } else {
            p.pending.add(mr.dest());
            ++stats_.move_rects_geometry_skipped;
          }
        }
      } else {
        for (const MoveRectangle& mr : scrolls) p.pending.add(mr.dest());
      }
      p.pending.simplify();
      sp.bands = geometry_bands(geom, p.pending.rects());
    }
    plan.push_back(std::move(sp));
  }

  // Phase 2 — group band lists into operating-point cohorts and encode
  // each distinct band once per cohort. Band payloads are pure functions
  // of (pixels, codec, quality), so cohort-mates receive identical bytes.
  struct Cohort {
    std::vector<Rect> bands;  ///< distinct bands, first-seen order
    std::map<Rect, std::uint32_t> slot;
    std::vector<Bytes> payloads;
    /// Per-band fragment streams, serialised lazily on first member use
    /// (band_streams_built); every cohort member's packets are views into
    /// these shared buffers.
    std::vector<BandStream> streams;
    ContentPt pt = ContentPt::kRaw;
    EncodeParams params;
    transcode::OutputGeometry geom;  ///< output geometry (key-equivalent
                                     ///< for every member by construction)
    std::uint64_t requested = 0;  ///< band sends across the cohort
  };
  std::map<snapshot::OperatingPointKey, Cohort> cohorts;
  for (SendPlan& sp : plan) {
    if (sp.bands.empty()) continue;
    Cohort& c = cohorts[sp.key];
    c.pt = sp.pt;
    c.params = sp.params;
    c.geom = sp.geom;
    sp.slots.reserve(sp.bands.size());
    for (const Rect& b : sp.bands) {
      auto [it, inserted] =
          c.slot.try_emplace(b, static_cast<std::uint32_t>(c.bands.size()));
      if (inserted) c.bands.push_back(b);
      sp.slots.push_back(it->second);
    }
    c.requested += sp.bands.size();
  }
  {
    telemetry::ScopedSpan span(tel_->trace, "ah.encode");
    for (auto& [key, c] : cohorts) {
      // Each distinct (geometry × rung) cohort encodes once per tick, from
      // the scaler's per-tick cached view of that geometry (identity views
      // borrow the live frame without a copy).
      c.payloads =
          encoder_.encode_regions(scaler_.view(frame, c.geom), c.bands, c.pt,
                                  c.params);
      c.streams.resize(c.bands.size());
      stats_.fanout_encodes_unique += c.bands.size();
      stats_.fanout_encodes_shared += c.requested - c.bands.size();
    }
    stats_.fanout_cohorts += cohorts.size();
  }

  // Phase 3 — per-endpoint transmission, in participant order, preserving
  // each participant's message sequence (WMI → MoveRectangles →
  // RegionUpdates → pointer).
  telemetry::ScopedSpan packetise_span(tel_->trace, "ah.packetise");
  for (SendPlan& sp : plan) {
    ParticipantState& p = *sp.p;
    if (p.needs_wmi) send_wmi(p);
    if (sp.send_mrs) {
      for (const MoveRectangle& mr : sp.mrs) send_move_rectangle(p, mr);
    }
    // Pending damage is host-space; rate-limited output-space leftovers map
    // back through the geometry before they re-queue (identity maps 1:1).
    auto pend_leftover = [&](const std::vector<Rect>& leftover) {
      for (const Rect& r : leftover) {
        const Rect mapped = transcode::map_rect_to_host(sp.geom, fb, r);
        if (!mapped.empty()) p.pending.add(mapped);
      }
    };
    if (sp.bundle != nullptr) {
      // Bundle-served refresh: cut this joiner's packets straight from the
      // checkpoint's pre-encoded fragment streams (no per-wave encode),
      // then inherit the bundle's accumulated delta as pending damage so
      // the joiner converges to the live frame on the next tick.
      snapshot::RefreshBundle& b = *sp.bundle;
      auto stream_for = [&](std::size_t i) -> const BandStream& {
        return b.streams[i];
      };
      auto leftover = packetize_regions(p, b.bands, stream_for);
      p.pending.clear();
      pend_leftover(leftover);
      for (const Rect& r : b.delta.rects()) p.pending.add(r);
    } else {
      // Cohort-mates cut their packets from the same lazily-serialised band
      // streams: the fragment stream is payload-identical for every member
      // (window id, origin, codec and content are operating-point facts), so
      // one buffer fill fans out to the whole cohort.
      Cohort* c = sp.bands.empty() ? nullptr : &cohorts[sp.key];
      auto stream_for = [&](std::size_t i) -> const BandStream& {
        const std::uint32_t s = sp.slots[i];
        BandStream& bs = c->streams[s];
        if (!bs.buf) {
          bs = make_band_stream(c->bands[s], c->pt, std::move(c->payloads[s]),
                                c->geom);
          ++stats_.band_streams_built;
        }
        return bs;
      };
      auto leftover = packetize_regions(p, sp.bands, stream_for);
      p.pending.clear();
      pend_leftover(leftover);
    }
    if (sp.full_refresh) {
      p.needs_full_refresh = false;
      // §5.2.4: late joiners get the current pointer position and image.
      if (opts_.pointer_messages) send_pointer(p, /*include_icon=*/true);
      p.pointer_dirty = false;
      p.pointer_icon_dirty = false;
    } else if (p.pointer_dirty && opts_.pointer_messages) {
      send_pointer(p, p.pointer_icon_dirty);
      p.pointer_dirty = false;
      p.pointer_icon_dirty = false;
    }
    finish_turn(p);
  }
}

void AppHost::snapshot_stage(const std::vector<MoveRectangle>& scrolls,
                             const std::vector<Rect>& damage) {
  const Image& frame = capturer_.last_frame();
  if (snapshot_.enabled()) {
    // A geometry change makes every checkpoint unservable (bundles cover
    // the old bounds); drop them all before window maintenance.
    if (frame.width() != snap_frame_w_ || frame.height() != snap_frame_h_) {
      if (snap_frame_w_ != 0 || snap_frame_h_ != 0) snapshot_.invalidate();
      snap_frame_w_ = frame.width();
      snap_frame_h_ = frame.height();
    }
    snapshot_.begin_tick(loop_.now());
    // This tick's churn lands in the deltas of bundles built on earlier
    // ticks. A bundle built later this tick starts with an empty delta
    // because it is encoded from the current frame, which already includes
    // this churn.
    for (const MoveRectangle& mr : scrolls) snapshot_.add_delta(mr.dest());
    for (const Rect& r : damage) snapshot_.add_delta(r);
  }

  if (recorder_ == nullptr || !recorder_->ok()) return;
  const SimTime now = loop_.now();
  const SimTime interval = opts_.snapshot.refresh_interval_us > 0
                               ? opts_.snapshot.refresh_interval_us
                               : 1'000'000;
  if (!recorded_initial_checkpoint_ ||
      now - last_checkpoint_rec_us_ >= interval) {
    // Periodic replay anchor; it subsumes this tick's updates, so nothing
    // else is recorded this tick.
    recorder_->checkpoint(now, frame, WindowManagerInfo::from(wm_), pointer_);
    recorded_initial_checkpoint_ = true;
    last_checkpoint_rec_us_ = now;
    recorded_wmi_revision_ = wm_.revision();
    recorded_pointer_ = pointer_;
    return;
  }
  if (wm_.revision() != recorded_wmi_revision_) {
    recorder_->wmi(now, WindowManagerInfo::from(wm_));
    recorded_wmi_revision_ = wm_.revision();
  }
  // Replay applies moves before damage, mirroring how tick() computes the
  // residual diff against the post-move previous frame — bit-exact replay.
  for (const MoveRectangle& mr : scrolls) recorder_->move_rect(now, mr);
  if (!damage.empty()) {
    // Damage is recorded losslessly (PNG) whatever the session codec; the
    // bands flow through the shared encoder and its cache like any send.
    const std::vector<Rect> bands = band_split(damage);
    const std::vector<Bytes> payloads =
        encoder_.encode_regions(frame, bands, ContentPt::kPng, {});
    for (std::size_t i = 0; i < bands.size(); ++i) {
      recorder_->region_update(now, bands[i], ContentPt::kPng, payloads[i]);
    }
  }
  if (pointer_ != recorded_pointer_) {
    recorder_->pointer(now, pointer_);
    recorded_pointer_ = pointer_;
  }
}

snapshot::RefreshBundle* AppHost::snapshot_admit(
    const snapshot::OperatingPointKey& key, const EncodeParams& params,
    const transcode::OutputGeometry& geom) {
  const Image& frame = capturer_.last_frame();
  const auto pt = static_cast<ContentPt>(key.content_pt);
  return snapshot_.admit(key, loop_.now(), [&](snapshot::RefreshBundle& b) {
    b.bands = geometry_bands(geom, {frame.bounds()});
    if (b.bands.empty()) return false;
    // The one checkpoint encode of this operating point's join cohort: the
    // bands run through the shared encoder (cache first, then the worker
    // pool) and are serialised once into pooled streams that every
    // joiner's packets view.
    std::vector<Bytes> payloads = [&] {
      telemetry::ScopedSpan span(tel_->trace, "ah.encode");
      return encoder_.encode_regions(scaler_.view(frame, geom), b.bands, pt,
                                     params);
    }();
    b.streams.reserve(b.bands.size());
    for (std::size_t i = 0; i < b.bands.size(); ++i) {
      b.streams.push_back(
          make_band_stream(b.bands[i], pt, std::move(payloads[i]), geom));
      ++stats_.band_streams_built;
    }
    return true;
  });
}

void AppHost::tick() {
  telemetry::ScopedSpan tick_span(tel_->trace, "ah.tick");
  ++tick_count_;
  sweep_liveness();
  const CaptureResult capture = [this] {
    telemetry::ScopedSpan span(tel_->trace, "ah.capture");
    return capturer_.capture();
  }();
  const Image& frame = *capture.frame;
  ++stats_.frames_captured;

  // New tick, new scaler cache: at most one scaled frame per distinct
  // output geometry for everything this tick sends.
  scaler_.begin_tick();

  // Host resize watch: the clamped pointer position moves with the bounds,
  // so every participant's overlay re-arms — a pointer parked at the old
  // bottom-right corner must be re-sent re-clamped into the new frame.
  if (frame.width() != last_frame_w_ || frame.height() != last_frame_h_) {
    if (last_frame_w_ != 0 || last_frame_h_ != 0) {
      for (auto& [id, p] : participants_) {
        p.pointer_dirty = true;
        p.pointer_icon_dirty = true;
      }
    }
    last_frame_w_ = frame.width();
    last_frame_h_ = frame.height();
  }

  // WindowManagerInfo trigger: any window-manager change (§5.2.1).
  if (wm_.revision() != last_wmi_revision_) {
    last_wmi_revision_ = wm_.revision();
    for (auto& [id, p] : participants_) p.needs_wmi = true;
  }

  // Scroll pass (§5.2.3): the capturer's verified per-window scrolls, each
  // already applied to its reference so the damage below shrinks to the
  // newly exposed strip.
  std::vector<MoveRectangle> scrolls;
  if (opts_.use_move_rectangle) {
    telemetry::ScopedSpan span(tel_->trace, "ah.scroll_detect");
    for (const ScrollMove& m : capturer_.detect_moves()) {
      scrolls.push_back(MoveRectangle::from(m.window, m.source, m.dest));
    }
  }

  // Residual damage against the capturer's post-move reference.
  std::vector<Rect> damage;
  {
    telemetry::ScopedSpan span(tel_->trace, "ah.damage");
    damage = capturer_.damage();
  }

  // Flash-crowd snapshot + record stage: refresh-window/bundle maintenance
  // and the on-disk checkpoint + update stream, both fed from this tick's
  // scrolls and damage. Runs before distribution so admissions below see
  // up-to-date bundle deltas.
  {
    telemetry::ScopedSpan span(tel_->trace, "ah.snapshot");
    snapshot_stage(scrolls, damage);
  }

  {
    telemetry::ScopedSpan span(tel_->trace, "ah.distribute");
    distribute_shared(scrolls, damage);
  }

  // Periodic RTCP Sender Reports (RFC 3550 §6.4.1) so participants can
  // compute RTT and map RTP timestamps to wallclock.
  if (opts_.sr_interval_us != 0 &&
      loop_.now() - last_sr_at_ >= opts_.sr_interval_us) {
    telemetry::ScopedSpan span(tel_->trace, "ah.rtcp");
    last_sr_at_ = loop_.now();
    for (auto& [id, p] : participants_) {
      SenderReport sr;
      sr.ssrc = p.sender.ssrc();
      // "NTP" timestamp: simulated microseconds in the 32.32 fixed-point
      // shape real stacks use.
      sr.ntp_timestamp = (loop_.now() / 1'000'000) << 32 |
                         ((loop_.now() % 1'000'000) << 32) / 1'000'000;
      sr.rtp_timestamp = p.sender.timestamp_at(loop_.now());
      sr.packet_count = static_cast<std::uint32_t>(p.sender.packets_sent());
      sr.octet_count = static_cast<std::uint32_t>(p.sender.bytes_sent());
      ++stats_.srs_sent;
      // On TCP the SR queues behind any carried media tail, never inside it.
      stats_.payload_bytes_copied += p.link.egress().send_control(sr.serialize());
    }
  }
}

void AppHost::on_uplink_stream(ParticipantId from, BytesView data) {
  auto it = participants_.find(from);
  if (it == participants_.end()) return;
  touch_liveness(from);  // even a partial frame proves the peer is alive
  it->second.uplink_deframer.feed(data);
  while (auto packet = it->second.uplink_deframer.next()) {
    on_uplink_packet(from, *packet);
  }
}

void AppHost::on_uplink_packet(ParticipantId from, BytesView packet) {
  touch_liveness(from);
  switch (classify_packet(packet)) {
    case PacketKind::kRtcp:
      handle_rtcp(from, packet);
      break;
    case PacketKind::kRtp: {
      auto pkt = RtpPacket::parse(packet);
      if (!pkt.ok() || pkt->payload_type != kHipPayloadType) {
        ++stats_.hip_parse_errors;
        return;
      }
      handle_hip(from, pkt->payload);
      break;
    }
    case PacketKind::kBfcp:
      handle_bfcp(from, packet);
      break;
    case PacketKind::kUnknown:
      break;
  }
}

void AppHost::handle_rtcp(ParticipantId from, BytesView packet) {
  ParticipantState* p = stream_state(from);
  if (p == nullptr) return;

  // A relay leg ships its aggregated feedback as one RFC 3550 compound
  // datagram (RR + pending NACK); a lone PLI/RR/NACK parses as a compound
  // of one, so both arrivals share this loop.
  auto msgs = parse_rtcp_compound(packet);
  if (!msgs.ok()) return;
  for (const RtcpMessage& msg : *msgs) handle_rtcp_message(*p, msg);
}

void AppHost::handle_rtcp_message(ParticipantState& p, const RtcpMessage& msg) {
  if (std::holds_alternative<PictureLossIndication>(msg)) {
    // §5.3.1: full refresh preceded by WindowManagerInfo.
    ++stats_.plis_received;
    p.needs_wmi = true;
    p.needs_full_refresh = true;
    // Flash-crowd aggregation: the PLI either opens a refresh window or is
    // absorbed by the live one. Either way the refresh itself is answered
    // at the next tick's admission — from a shared bundle when possible —
    // so a PLI storm (including relay-coalesced waves) costs one window,
    // not one encode per PLI.
    snapshot_.note_demand(loop_.now());
    return;
  }
  if (std::holds_alternative<ReceiverReport>(msg)) {
    const auto& rr = std::get<ReceiverReport>(msg);
    ++stats_.rrs_received;
    if (!rr.blocks.empty()) p.link.on_report(rr.blocks.front(), loop_.now());
    return;
  }
  if (!std::holds_alternative<GenericNack>(msg)) return;

  ++stats_.nacks_received;
  if (!opts_.retransmissions) return;
  for (std::uint16_t seq : std::get<GenericNack>(msg).requested_sequences()) {
    // Retransmissions count against the §4.3 rate budget too; a depleted
    // bucket defers the repair (the participant re-NACKs).
    if (p.link.exhausted(loop_.now())) break;
    const PacketView* cached = p.cache.get(seq);
    if (cached == nullptr) {
      ++stats_.rtx_misses;
      continue;
    }
    // For a multicast group the repair goes to the whole group, healing
    // every member that lost the packet on its own last hop.
    ++stats_.retransmissions_sent;
    stats_.bytes_sent += cached->wire_size();
    stats_.payload_bytes_copied += p.link.send_now(*cached, loop_.now());
  }
}

void AppHost::handle_hip(ParticipantId from, BytesView payload) {
  auto msg = parse_hip(payload);
  if (!msg.ok()) {
    ++stats_.hip_parse_errors;
    return;
  }

  // Output-geometry inverse mapping: a scaled/viewport viewer reports mouse
  // coordinates in its own output space. Map them back to host space first,
  // so the §4.1 legitimacy check and the input sink both operate on real
  // desktop pixels (a quarter-res click on output (x, y) lands on the
  // centre of the 2^s × 2^s host block it covers).
  if (const ParticipantState* p = stream_state(from)) {
    if (hip::map_to_host(*msg, resolve_geometry(*p),
                         capturer_.last_frame().bounds())) {
      ++stats_.hip_events_mapped;
    }
  }

  std::uint32_t left = 0;
  std::uint32_t top = 0;
  const bool is_mouse = hip_coordinates(*msg, left, top);

  // Floor-control gate (Appendix A).
  const bool allowed = is_mouse ? floor_.may_send_mouse(from)
                                : floor_.may_send_keyboard(from);
  if (!allowed) {
    ++stats_.hip_events_rejected_floor;
    return;
  }

  // §4.1: "The AH MUST only accept legitimate HIP events by checking
  // whether the requested coordinates are inside the shared windows."
  if (is_mouse) {
    const Point p{static_cast<std::int64_t>(left), static_cast<std::int64_t>(top)};
    if (!wm_.point_in_shared_window(p)) {
      ++stats_.hip_events_rejected_coords;
      return;
    }
  }

  ++stats_.hip_events_accepted;
  if (input_sink_) input_sink_(from, *msg);
}

void AppHost::handle_bfcp(ParticipantId from, BytesView packet) {
  auto msg = BfcpMessage::parse(packet);
  if (!msg.ok()) return;
  // The wire user_id is advisory; the transport identity wins.
  BfcpMessage request = *msg;
  request.user_id = from;
  auto responses = floor_.on_message(request, loop_.now());
  for (const BfcpMessage& response : responses) {
    // Multicast members receive BFCP responses via their group stream and
    // filter by the user_id field.
    ParticipantState* p = stream_state(response.user_id);
    if (p == nullptr) continue;
    stats_.payload_bytes_copied +=
        p->link.egress().send_control(response.serialize());
  }
}

}  // namespace ads
