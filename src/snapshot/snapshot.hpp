// Checkpoint snapshot service for flash-crowd late joins (ROADMAP item 3).
//
// The paper's §4.4 late-join path (WindowManagerInfo transfer + full
// refresh) is per joiner: N viewers arriving in one RTT cost the AH N full
// encodes (or N cache walks) and an upstream PLI storm. This service
// amortises that cost across an entire *refresh interval*: the AH
// checkpoints its framebuffer state into pre-encoded, cohort-keyed
// **refresh bundles** — each bundle is the full shared region, band-split,
// encoded once per operating point and serialised once into pooled
// `ads::buf` fragment streams — and every joiner (or PLI) that lands while
// the bundle is live is served by cutting header-plus-view packets from
// those shared streams. One encode pass per operating point per join wave,
// no matter whether the wave is one viewer or ten thousand.
//
// Semantics (see docs/LATEJOIN.md for the full state machine):
//   * A **refresh window** opens at the first refresh demand (PLI or TCP
//     admission) and is re-anchored to the instant a bundle is finalised;
//     it closes refresh_interval_us later. All demand inside the window
//     shares the window's bundles. A PLI arriving in the same tick a
//     bundle is finalised therefore falls inside that bundle's interval
//     and is absorbed — it must never trigger a second encode.
//   * Each live bundle accumulates a **delta** region: damage (and scroll
//     destinations) from ticks after the bundle was built. A joiner served
//     from the bundle inherits the delta as pending damage, so it
//     converges to the live frame on the very next tick.
//   * Window close (or an explicit invalidation: geometry change, codec
//     churn) drops every bundle; the pooled stream buffers recycle once
//     the last in-flight PacketView releases them.
//
// The service is deliberately host-agnostic: it owns interval/bundle/delta
// state and counters, while the AH supplies a build callback that encodes
// and serialises the bands (reusing its ParallelEncoder, EncodedRegionCache
// and BufPool). That keeps `ads::snapshot` free of `ads::core` and lets
// tests drive it with synthetic builders.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "buf/buf.hpp"
#include "image/geometry.hpp"
#include "net/event_loop.hpp"
#include "remoting/region_update.hpp"

namespace ads::snapshot {

/// Every knob of the snapshot service. Validated like AppHostOptions:
/// impossible settings throw, nonsensical ones clamp — see
/// SnapshotService::validated().
struct SnapshotOptions {
  /// Master switch. Off = the AH answers every joiner through the §4.4
  /// per-joiner path (the E19 baseline).
  bool enabled = false;
  /// Lifetime of a refresh bundle and width of the PLI aggregation window.
  /// All refresh demand within one window shares one encode per operating
  /// point. Must be > 0 when enabled.
  SimTime refresh_interval_us = 500'000;
  /// Upper bound on simultaneously live cohort-keyed bundles (distinct
  /// operating points per window). Admissions past it fall back to the
  /// per-joiner path. Clamped to at least 1.
  std::size_t max_bundles = 16;
  /// Drop a bundle whose accumulated delta covers more than this fraction
  /// of the bundle area — serving checkpoint + near-full delta would cost
  /// more than a fresh refresh. Clamped into (0, 1].
  double max_delta_fraction = 0.5;
  /// When non-empty, the AH records the session (checkpoint + update
  /// stream) to this file for deterministic replay — see record.hpp.
  std::string record_path;
};

/// One operating point: participants that agree on every field can share
/// encoded band bytes byte for byte. The AH's fan-out groups participants
/// into encode cohorts by it and this service keys refresh bundles by it.
/// The geometry fields split device classes: a quarter-res tablet and a
/// full-res desktop (or two viewports) never share a cohort or a bundle.
struct OperatingPointKey {
  std::uint8_t content_pt = 0;   ///< RegionUpdate codec payload type
  std::uint8_t quality = 0;      ///< ads::rate quality rung (cache-key value)
  std::size_t mtu_payload = 0;   ///< fragmentation threshold
  std::uint8_t scale_shift = 0;  ///< output geometry downscale rung (2^shift)
  /// Resolved host-space source rect streamed by the geometry; always set
  /// (the whole frame for identity views and plain rungs). A bundle's
  /// delta-fraction eviction measures host-space delta against its area.
  Rect source{};
  friend auto operator<=>(const OperatingPointKey&, const OperatingPointKey&) = default;
};

/// One band of a bundle: the serialised RegionUpdate fragment stream in a
/// pooled buffer plus its per-fragment windows. Identical in shape to the
/// AH's internal BandStream so a bundle band feeds packetize_regions
/// directly — every joiner's packets are views into this one buffer.
struct BundleBand {
  buf::BufRef buf;                  ///< pooled fragment-stream buffer
  std::vector<FragmentSpan> frags;  ///< per-fragment windows + markers
};

/// One pre-encoded, cohort-keyed refresh checkpoint. Built at most once per
/// operating point per refresh window; served to every joiner of the wave.
struct RefreshBundle {
  OperatingPointKey key;
  SimTime built_at_us = 0;       ///< finalisation instant (window anchor)
  std::uint64_t checkpoint = 0;  ///< monotone id across the session
  std::vector<Rect> bands;       ///< band-split shared region (output space)
  std::vector<BundleBand> streams;  ///< parallel to bands
  Region delta;                  ///< damage accumulated since built_at_us
  std::uint64_t serves = 0;      ///< joiners served from this bundle
};

/// Checkpoint/bundle/window bookkeeping for the flash-crowd late-join path.
/// Single-threaded on the event-loop/tick thread, like the AH that owns it.
class SnapshotService {
 public:
  /// Constructs the service with validated options (throws
  /// std::invalid_argument on impossible settings).
  explicit SnapshotService(SnapshotOptions opts);

  /// Validate and normalise options: enabled with a zero refresh interval
  /// throws; max_bundles clamps to >= 1, max_delta_fraction into (0, 1].
  static SnapshotOptions validated(SnapshotOptions opts);

  /// The validated options this service runs with.
  const SnapshotOptions& options() const { return opts_; }
  /// True when the service answers refresh demand (the master switch).
  bool enabled() const { return opts_.enabled; }

  /// Builder callback: fill `bands` + `streams` of the bundle for its key
  /// (band-split, encode, serialise). Return false on failure — the caller
  /// then falls back to the per-joiner path and nothing is cached.
  using BuildFn = std::function<bool(RefreshBundle&)>;

  /// Per-tick maintenance, called before distribution: closes the refresh
  /// window (dropping every bundle) once refresh_interval_us has elapsed
  /// since its anchor, and evicts bundles whose delta outgrew
  /// max_delta_fraction.
  void begin_tick(SimTime now);

  /// Record refresh demand (a PLI, or a TCP admission wanting the §4.4
  /// push): opens the window if none is open. Returns true when a live
  /// bundle (any key) already covers the demand — the PLI is absorbed by
  /// the current window instead of anchoring a new one.
  bool note_demand(SimTime now);

  /// Fetch the live bundle for `key`, building it via `build` on first
  /// demand in this window. Building re-anchors the window at `now`, so
  /// demand arriving in the same tick the bundle is finalised shares it.
  /// Returns nullptr when the service is disabled, the bundle budget is
  /// exhausted, or `build` fails (callers fall back to §4.4).
  RefreshBundle* admit(const OperatingPointKey& key, SimTime now,
                       const BuildFn& build);

  /// Accumulate one damage (or scroll-destination) rect into every live
  /// bundle's delta. Call once per tick per rect, before any admission.
  void add_delta(const Rect& r);

  /// Drop every bundle and close the window (frame geometry change, codec
  /// registry churn, stop()).
  void invalidate();

  /// Live bundles (distinct operating points in the current window).
  std::size_t bundle_count() const { return bundles_.size(); }
  /// True while a refresh window is open.
  bool window_open() const { return window_open_; }
  /// Monotone checkpoint id of the most recently built bundle (0 = none).
  std::uint64_t checkpoint_id() const { return next_checkpoint_ - 1; }

  /// Lifetime totals for windows, bundles and absorbed demand.
  struct Stats {
    std::uint64_t windows_opened = 0;   ///< refresh windows begun
    std::uint64_t windows_closed = 0;   ///< windows expired (interval over)
    std::uint64_t bundles_built = 0;    ///< checkpoint encodes performed
    std::uint64_t bundle_bands = 0;     ///< bands across built bundles
    std::uint64_t bundles_served = 0;   ///< joiners served from a bundle
    std::uint64_t encodes_saved = 0;    ///< band encodes avoided by sharing
    std::uint64_t plis_absorbed = 0;    ///< demand folded into a live window
    std::uint64_t build_failures = 0;   ///< builder returned false
    std::uint64_t budget_rejections = 0; ///< admissions past max_bundles
    std::uint64_t delta_evictions = 0;  ///< bundles dropped (delta outgrew)
    std::uint64_t invalidations = 0;    ///< explicit invalidate() calls
    std::uint64_t delta_rects = 0;      ///< rects folded into bundle deltas
  };
  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  /// Drop every bundle (shared by window close and invalidate()).
  void drop_bundles();

  SnapshotOptions opts_;
  std::map<OperatingPointKey, RefreshBundle> bundles_;
  bool window_open_ = false;
  SimTime window_anchor_us_ = 0;  ///< open instant, re-anchored per build
  std::uint64_t next_checkpoint_ = 1;
  Stats stats_;
};

}  // namespace ads::snapshot
