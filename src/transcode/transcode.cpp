#include "transcode/transcode.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>

#include "util/simd.hpp"

namespace ads::transcode {
namespace {

static_assert(sizeof(Pixel) == 4, "box_halve_row assumes packed RGBA8");

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

// Parse a decimal int64 from [p, end); advances p past the digits. False on
// no digits or out-of-range.
bool parse_i64(const char*& p, const char* end, std::int64_t& out) {
  const auto [next, ec] = std::from_chars(p, end, out);
  if (ec != std::errc{} || next == p) return false;
  p = next;
  return true;
}

}  // namespace

DeviceClass device_class(const OutputGeometry& g) {
  if (g.follow || !g.viewport.empty()) return DeviceClass::kViewport;
  if (g.scale_shift == 0) return DeviceClass::kFull;
  if (g.scale_shift == 1) return DeviceClass::kHalf;
  return DeviceClass::kQuarter;
}

std::string_view device_class_name(DeviceClass c) {
  switch (c) {
    case DeviceClass::kHalf: return "half";
    case DeviceClass::kQuarter: return "quarter";
    case DeviceClass::kViewport: return "viewport";
    case DeviceClass::kFull: break;
  }
  return "full";
}

std::string to_token(const OutputGeometry& g) {
  std::string out = "s";
  out += std::to_string(static_cast<int>(g.scale_shift));
  if (!g.viewport.empty()) {
    out += ";v";
    out += std::to_string(g.viewport.left);
    out += ',';
    out += std::to_string(g.viewport.top);
    out += ',';
    out += std::to_string(g.viewport.width);
    out += ',';
    out += std::to_string(g.viewport.height);
  }
  if (g.follow) out += ";f";
  return out;
}

std::optional<OutputGeometry> parse_token(std::string_view token) {
  OutputGeometry g;
  const char* p = token.data();
  const char* const end = p + token.size();
  if (p == end || *p != 's') return std::nullopt;
  ++p;
  std::int64_t shift = 0;
  if (!parse_i64(p, end, shift) || shift < 0 || shift > kMaxScaleShift) {
    return std::nullopt;
  }
  g.scale_shift = static_cast<std::uint8_t>(shift);
  while (p != end) {
    if (*p != ';' || ++p == end) return std::nullopt;
    if (*p == 'v') {
      ++p;
      std::int64_t v[4];
      for (int i = 0; i < 4; ++i) {
        if (i > 0) {
          if (p == end || *p != ',') return std::nullopt;
          ++p;
        }
        if (!parse_i64(p, end, v[i]) || v[i] < 0) return std::nullopt;
      }
      // Every later use takes the far edges (left + width, top + height),
      // so both must fit in int64.
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      if (v[2] <= 0 || v[3] <= 0 || v[0] > kMax - v[2] || v[1] > kMax - v[3]) {
        return std::nullopt;
      }
      g.viewport = Rect{v[0], v[1], v[2], v[3]};
    } else if (*p == 'f') {
      ++p;
      g.follow = true;
    } else {
      return std::nullopt;
    }
  }
  return g;
}

Rect source_rect(const OutputGeometry& g, const Rect& frame_bounds) {
  if (g.viewport.empty()) return frame_bounds;
  const Rect r = intersect(g.viewport, frame_bounds);
  // A viewport pushed entirely off-frame (host resize, window moved away)
  // degrades to the whole frame rather than an empty stream.
  return r.empty() ? frame_bounds : r;
}

Rect output_bounds(const OutputGeometry& g, const Rect& frame_bounds) {
  const Rect src = source_rect(g, frame_bounds);
  const std::int64_t f = g.factor();
  return {0, 0, ceil_div(src.width, f), ceil_div(src.height, f)};
}

Rect map_rect_to_output(const OutputGeometry& g, const Rect& frame_bounds,
                        const Rect& host_rect) {
  const Rect src = source_rect(g, frame_bounds);
  const Rect r = intersect(host_rect, src);
  if (r.empty()) return {};
  const std::int64_t f = g.factor();
  const std::int64_t left = (r.left - src.left) / f;
  const std::int64_t top = (r.top - src.top) / f;
  const std::int64_t right = ceil_div(r.right() - src.left, f);
  const std::int64_t bottom = ceil_div(r.bottom() - src.top, f);
  return {left, top, right - left, bottom - top};
}

Rect map_rect_to_host(const OutputGeometry& g, const Rect& frame_bounds,
                      const Rect& out_rect) {
  const Rect src = source_rect(g, frame_bounds);
  const Rect r = intersect(out_rect, output_bounds(g, frame_bounds));
  if (r.empty()) return {};
  const std::int64_t f = g.factor();
  const std::int64_t left = src.left + r.left * f;
  const std::int64_t top = src.top + r.top * f;
  const std::int64_t right = std::min(src.right(), src.left + r.right() * f);
  const std::int64_t bottom = std::min(src.bottom(), src.top + r.bottom() * f);
  return {left, top, right - left, bottom - top};
}

Point map_point_to_output(const OutputGeometry& g, const Rect& frame_bounds,
                          Point host_pt) {
  const Rect src = source_rect(g, frame_bounds);
  const std::int64_t f = g.factor();
  const std::int64_t x = std::clamp(host_pt.x, src.left, src.right() - 1);
  const std::int64_t y = std::clamp(host_pt.y, src.top, src.bottom() - 1);
  return {(x - src.left) / f, (y - src.top) / f};
}

Point map_point_to_host(const OutputGeometry& g, const Rect& frame_bounds,
                        Point out_pt) {
  const Rect src = source_rect(g, frame_bounds);
  const Rect out = output_bounds(g, frame_bounds);
  const std::int64_t f = g.factor();
  const std::int64_t ox = std::clamp(out_pt.x, std::int64_t{0}, out.width - 1);
  const std::int64_t oy = std::clamp(out_pt.y, std::int64_t{0}, out.height - 1);
  // Centre of the 2^shift × 2^shift source block, clamped for edge blocks
  // that the odd-extent replication rule truncated.
  const std::int64_t hx = std::min(src.left + ox * f + f / 2, src.right() - 1);
  const std::int64_t hy = std::min(src.top + oy * f + f / 2, src.bottom() - 1);
  return {hx, hy};
}

Image box_halve(const Image& src) {
  if (src.empty()) return src;
  const std::int64_t w = src.width();
  const std::int64_t h = src.height();
  Image out((w + 1) / 2, (h + 1) / 2);
  const std::span<Pixel> dst = out.pixels();
  for (std::int64_t y = 0; y < out.height(); ++y) {
    const std::span<const Pixel> r0 = src.row(2 * y);
    const std::span<const Pixel> r1 = src.row(std::min(2 * y + 1, h - 1));
    simd::box_halve_row(reinterpret_cast<const std::uint8_t*>(r0.data()),
                        reinterpret_cast<const std::uint8_t*>(r1.data()),
                        static_cast<std::size_t>(w),
                        reinterpret_cast<std::uint8_t*>(
                            dst.subspan(static_cast<std::size_t>(y * out.width()))
                                .data()));
  }
  return out;
}

Image scale_frame(const Image& frame, const OutputGeometry& g) {
  Image out = frame.crop(source_rect(g, frame.bounds()));
  for (std::uint8_t s = 0; s < g.scale_shift && !out.empty(); ++s)
    out = box_halve(out);
  return out;
}

void FrameScaler::begin_tick() { cache_.clear(); }

const Image& FrameScaler::view(const Image& frame, const OutputGeometry& g) {
  const Rect src = source_rect(g, frame.bounds());
  // Pixel-identity geometries (native rung, whole frame) pass the live frame
  // through — no copy, no cache entry.
  if (frame.empty() || (g.scale_shift == 0 && src == frame.bounds())) return frame;
  for (const Entry& e : cache_) {
    if (e.scale_shift == g.scale_shift && e.src == src) {
      ++stats_.cache_hits;
      return e.image;
    }
  }
  Entry& e = cache_.emplace_back();
  e.scale_shift = g.scale_shift;
  e.src = src;
  e.image = scale_frame(frame, g);
  ++stats_.frames_scaled;
  stats_.pixels_scaled += static_cast<std::uint64_t>(e.image.width()) *
                          static_cast<std::uint64_t>(e.image.height());
  return e.image;
}

}  // namespace ads::transcode
