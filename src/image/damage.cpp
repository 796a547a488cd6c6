#include "image/damage.hpp"

#include <algorithm>
#include <cstring>

#include "util/simd.hpp"

namespace ads {
namespace {

/// True when `a` and `b` differ in columns [x, x + width) of some row in
/// [top, bottom).
bool rows_differ(const Image& a, const Image& b, std::int64_t x, std::int64_t width,
                 std::int64_t top, std::int64_t bottom) {
  const std::size_t bytes = static_cast<std::size_t>(width) * sizeof(Pixel);
  for (std::int64_t y = top; y < bottom; ++y) {
    if (std::memcmp(a.row(y).data() + x, b.row(y).data() + x, bytes) != 0) return true;
  }
  return false;
}

}  // namespace

std::uint64_t hash_rect(const Image& img, const Rect& r) {
  constexpr std::uint64_t kOffset = 0xCBF29CE484222325ull;
  constexpr std::uint64_t kPrime = 0x100000001B3ull;
  const Rect c = intersect(r, img.bounds());
  // Lane phase restarts at each row (i & 3 within the row), so the kernel
  // always consumes aligned groups of four from the row start.
  std::uint64_t lanes[4] = {kOffset ^ 1, kOffset ^ 2, kOffset ^ 3, kOffset ^ 4};
  std::uint64_t pixels = 0;
  for (std::int64_t y = c.top; y < c.bottom(); ++y) {
    auto row = img.row(y).subspan(static_cast<std::size_t>(c.left),
                                  static_cast<std::size_t>(c.width));
    simd::fnv4_absorb(lanes, reinterpret_cast<const std::uint8_t*>(row.data()),
                      row.size());
    pixels += row.size();
  }
  std::uint64_t h = kOffset;
  for (const std::uint64_t lane : lanes) h = (h ^ lane) * kPrime;
  return (h ^ pixels) * kPrime;
}

std::vector<Rect> diff_rects(const Image& before, const Image& after,
                             std::int64_t tile_size) {
  if (before.width() != after.width() || before.height() != after.height()) {
    const Rect full = bounding_union(before.bounds(), after.bounds());
    return full.empty() ? std::vector<Rect>{} : std::vector<Rect>{full};
  }
  const std::int64_t width = after.width();
  const std::int64_t cols = (width + tile_size - 1) / tile_size;
  const std::int64_t rows = (after.height() + tile_size - 1) / tile_size;
  Region region;
  for (std::int64_t ty = 0; ty < rows; ++ty) {
    const std::int64_t top = ty * tile_size;
    const std::int64_t bottom = std::min(top + tile_size, after.height());
    // Rows that match across the full width hold no dirty tile: start the
    // band's tiles at its first row that differs, or skip the band.
    std::int64_t first = top;
    while (first < bottom && !rows_differ(before, after, 0, width, first, first + 1)) {
      ++first;
    }
    if (first == bottom) continue;
    std::int64_t run_start = -1;
    for (std::int64_t tx = 0; tx <= cols; ++tx) {
      const std::int64_t left = tx * tile_size;
      const bool dirty =
          tx < cols && rows_differ(before, after, left,
                                   std::min(tile_size, width - left), first, bottom);
      if (dirty && run_start < 0) run_start = tx;
      if (!dirty && run_start >= 0) {
        const Rect band{run_start * tile_size, top, (tx - run_start) * tile_size,
                        tile_size};
        region.add(intersect(band, after.bounds()));
        run_start = -1;
      }
    }
  }
  region.simplify();
  return region.rects();
}

}  // namespace ads
