// Output-geometry transcode stage (ROADMAP item 4, E20).
//
// The fan-out cohorts of docs/ARCHITECTURE.md share one encode per operating
// point, but until this module the operating point fixed the *geometry*: every
// viewer received the host's native resolution. Heterogeneous receivers
// (VirtuMob-style quarter-resolution smartphones, WebNC-style region-of-
// interest viewers) want the cohort operating point to include an **output
// geometry** — a power-of-two downscale rung plus an optional host-space
// crop/viewport rect — so a device class pays only for the pixels it can
// show.
//
// This module owns the geometry value type, the host↔output coordinate
// mapping used on both the media path (damage rects, MoveRectangle, pointer
// overlay) and the input path (HIP events mapped back to host space), and the
// per-tick `FrameScaler` cache that materialises each distinct geometry's
// scaled frame at most once per tick. Scaling is an iterated 2× box average
// over the (cropped) source rect, built on `simd::box_halve_row`
// (AVX2/SSE/scalar, byte-identical across dispatch) so cohort encodes stay
// deterministic regardless of the host CPU.
//
// Coordinate conventions (see docs/TRANSCODE.md):
//   * `source_rect` is the host-space rect actually streamed: the viewport
//     clipped to the frame, or the whole frame when no viewport is set.
//   * Output space has origin (0,0) at the source rect's top-left and is
//     `ceil(source_extent / 2^scale_shift)` in each axis; odd source extents
//     replicate the right/bottom edge (the simd kernel's clamp rule).
//   * Host→output rect mapping uses *cover* semantics (floor the near edge,
//     ceil the far edge) so any damaged source pixel's output block is
//     re-encoded; output→host point mapping returns the source block's
//     centre, clamped into the source rect (§4.1 legitimacy checks and the
//     input sink both operate on host coordinates).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "image/geometry.hpp"
#include "image/image.hpp"

namespace ads::transcode {

/// Deepest downscale rung any geometry may request (1/64 per axis — far
/// below the smallest device class worth streaming). Shared bound for the
/// SDP token parser, the offer's geometry-max attribute and the AH's
/// set_participant_geometry validation.
inline constexpr std::uint8_t kMaxScaleShift = 6;

/// One cohort's output geometry: a power-of-two downscale rung plus an
/// optional host-space viewport. Default-constructed = identity (full frame,
/// native resolution). The operating-point key (snapshot::OperatingPointKey)
/// that groups fan-out cohorts and refresh bundles holds its scale rung and
/// its resolved source rect, which is always set.
struct OutputGeometry {
  /// Downscale exponent: each axis shrinks by 2^scale_shift (0 = native).
  std::uint8_t scale_shift = 0;
  /// Host-space crop; empty = whole frame. For follow mode this holds the
  /// *resolved* viewport (the focused window's frame) once the host has
  /// anchored it for the tick.
  Rect viewport{};
  /// Viewport-follow: the viewport tracks the focused shared window and is
  /// re-anchored by the host on WM focus/move/resize events.
  bool follow = false;

  /// True for the identity geometry (native resolution, no crop, no follow).
  bool identity() const { return scale_shift == 0 && viewport.empty() && !follow; }
  /// Per-axis downscale factor, 2^scale_shift.
  std::int64_t factor() const { return std::int64_t{1} << scale_shift; }

  friend bool operator==(const OutputGeometry&, const OutputGeometry&) = default;
};

/// Device classes for telemetry / per-class byte accounting (E20): the
/// scale rung, or kViewport whenever a crop/follow viewport is in play.
enum class DeviceClass { kFull = 0, kHalf = 1, kQuarter = 2, kViewport = 3 };

/// Classify a geometry: any viewport/follow → kViewport, else by rung
/// (shift 0 → full, 1 → half, >= 2 → quarter).
DeviceClass device_class(const OutputGeometry& g);

/// Telemetry suffix for a device class ("full", "half", "quarter",
/// "viewport").
std::string_view device_class_name(DeviceClass c);

/// Serialise a geometry as the compact SDP token used by the
/// `a=geometry:` answer attribute — "s<shift>[;v<l>,<t>,<w>,<h>][;f]",
/// e.g. "s0" (identity), "s2" (quarter rung), "s1;v8,8,64,48", "s0;f".
std::string to_token(const OutputGeometry& g);

/// Parse the `to_token` format; nullopt on malformed input.
std::optional<OutputGeometry> parse_token(std::string_view token);

/// The host-space rect actually streamed: viewport ∩ frame bounds, or the
/// whole frame when the viewport is empty (or the intersection is).
Rect source_rect(const OutputGeometry& g, const Rect& frame_bounds);

/// Output-space bounds: origin (0,0), extent ceil(source / 2^shift) per axis.
Rect output_bounds(const OutputGeometry& g, const Rect& frame_bounds);

/// Map a host-space rect into output space with cover semantics (floor near
/// edge, ceil far edge), clipped to the source rect first. Empty result when
/// the rect misses the source rect entirely.
Rect map_rect_to_output(const OutputGeometry& g, const Rect& frame_bounds,
                        const Rect& host_rect);

/// Map an output-space rect back to the host-space region it covers
/// (the inverse cover: every source pixel feeding the output rect). Clipped
/// to the source rect.
Rect map_rect_to_host(const OutputGeometry& g, const Rect& frame_bounds,
                      const Rect& out_rect);

/// Map a host-space point to the output pixel containing it (clamped into
/// the source rect first, so edge/outside points land on the nearest output
/// pixel).
Point map_point_to_output(const OutputGeometry& g, const Rect& frame_bounds,
                          Point host_pt);

/// Map an output-space point back to host space: the centre of its source
/// block, clamped into the source rect. This is the HIP inverse mapping —
/// a click on a quarter-resolution stream lands on the middle of the 4×4
/// host block the output pixel was averaged from.
Point map_point_to_host(const OutputGeometry& g, const Rect& frame_bounds,
                        Point out_pt);

/// One 2× box-halve pass over `src` (edge-replicating on odd extents),
/// producing a ceil(w/2) × ceil(h/2) image via `simd::box_halve_row`.
/// Exposed for the golden byte-identity tests.
Image box_halve(const Image& src);

/// Materialise `frame` under `g`: crop to the source rect, then halve
/// `scale_shift` times. Identity geometry returns a plain copy.
Image scale_frame(const Image& frame, const OutputGeometry& g);

/// Per-tick cache of scaled frames, keyed by (scale rung × source rect).
/// The host calls `begin_tick()` once per capture tick, then `view()` per
/// cohort; each distinct geometry is materialised at most once per tick no
/// matter how many cohorts or joiners share it. Identity geometries pass the
/// live frame through without copying.
class FrameScaler {
 public:
  /// Lifetime counters for telemetry (`transcode.*`).
  struct Stats {
    std::uint64_t frames_scaled = 0;  ///< cache misses: scaled frames built
    std::uint64_t pixels_scaled = 0;  ///< output pixels produced by misses
    std::uint64_t cache_hits = 0;     ///< views served from the tick cache
  };

  /// Invalidate the cache for a new tick (the capture frame changed).
  void begin_tick();

  /// The scaled view of `frame` under `g` (valid until the next
  /// begin_tick()). Identity geometry returns `frame` itself.
  const Image& view(const Image& frame, const OutputGeometry& g);

  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  /// One cached scaled frame for a (rung × source rect) pair.
  struct Entry {
    std::uint8_t scale_shift = 0;
    Rect src;
    Image image;
  };

  /// A handful of device classes per session — linear scan; deque so
  /// references handed out by view() survive later insertions in the tick.
  std::deque<Entry> cache_;
  Stats stats_;
};

}  // namespace ads::transcode
