#include "image/damage.hpp"

#include "util/simd.hpp"

namespace ads {

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
  const std::int64_t cols = (after.width() + tile_size - 1) / tile_size;
  const std::int64_t rows = (after.height() + tile_size - 1) / tile_size;
  Region region;
  for (std::int64_t ty = 0; ty < rows; ++ty) {
    std::int64_t run_start = -1;
    for (std::int64_t tx = 0; tx <= cols; ++tx) {
      bool dirty = false;
      if (tx < cols) {
        const Rect tile = intersect(
            Rect{tx * tile_size, ty * tile_size, tile_size, tile_size}, after.bounds());
        dirty = hash_rect(before, tile) != hash_rect(after, tile);
      }
      if (dirty && run_start < 0) run_start = tx;
      if (!dirty && run_start >= 0) {
        const Rect band{run_start * tile_size, ty * tile_size,
                        (tx - run_start) * tile_size, tile_size};
        region.add(intersect(band, after.bounds()));
        run_start = -1;
      }
    }
  }
  region.simplify();
  return region.rects();
}

}  // namespace ads
