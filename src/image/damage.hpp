// Damage detection: the AH-side substitute for an OS damage/mirror-driver
// interface. Two frames are divided into fixed-size tiles; tiles whose hash
// differs are merged into dirty rectangles, which become RegionUpdate
// messages. ScreenCapturer::damage() runs this once per capture tick.
#pragma once

#include <cstdint>
#include <vector>

#include "image/geometry.hpp"
#include "image/image.hpp"

namespace ads {

/// 64-bit hash of a pixel rectangle: four interleaved FNV-1a lanes (pixel i
/// updates lane i&3 within its row) folded together with the pixel count.
/// The stripe makes the multiply chains independent so the kernel
/// vectorises; only hash *equality* is meaningful to callers.
std::uint64_t hash_rect(const Image& img, const Rect& r);

/// Stateless tile diff of two equally-sized images: the areas where they
/// differ, merged into disjoint rectangles at `tile_size` granularity.
/// Differently-sized images report the union bound as fully damaged.
std::vector<Rect> diff_rects(const Image& before, const Image& after,
                             std::int64_t tile_size = 32);

}  // namespace ads
