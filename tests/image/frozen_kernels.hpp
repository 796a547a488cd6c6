// Frozen copies of the frame-differencing kernels as they were before
// diff_rects compared pixels and scroll detection voted over a sorted row
// table: a tile is dirty when its 64-bit hash differs, and the scroll vote
// maps each row hash to its rows and counts displacements in an
// unordered_map. Tests compare the current kernels and ScreenCapturer with
// these copies, so a rewrite is never checked against itself. Keep them
// as they are.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <vector>

#include "image/damage.hpp"
#include "image/scroll_detect.hpp"

namespace ads::frozen {

/// Tile diff by tile hash: tiles whose hash_rect() differs, merged into
/// runs per tile row and simplified.
inline std::vector<Rect> diff_rects(const Image& before, const Image& after,
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

/// Votes per displacement over the clipped area `c`.
using Votes = std::unordered_map<std::int64_t, std::int64_t>;

/// The vote: every row of `after` votes for each displacement at which
/// `before` holds a row of the same hash (dy == 0 and |dy| beyond the
/// search window excluded).
inline Votes scroll_votes(const Image& before, const Image& after, const Rect& c,
                          const ScrollDetectorOptions& opts) {
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> old_rows;
  old_rows.reserve(static_cast<std::size_t>(c.height));
  for (std::int64_t y = c.top; y < c.bottom(); ++y) {
    old_rows[hash_rect(before, Rect{c.left, y, c.width, 1})].push_back(y);
  }
  Votes votes;
  for (std::int64_t y = c.top; y < c.bottom(); ++y) {
    const std::uint64_t h = hash_rect(after, Rect{c.left, y, c.width, 1});
    auto it = old_rows.find(h);
    if (it == old_rows.end()) continue;
    for (std::int64_t old_y : it->second) {
      const std::int64_t dy = y - old_y;
      if (dy != 0 && std::abs(dy) <= opts.max_displacement) ++votes[dy];
    }
  }
  return votes;
}

/// The pick: most votes, then the smaller |dy|; a tie between dy and -dy
/// goes to whichever the map iterates first.
inline std::optional<ScrollMatch> pick_scroll(const Votes& votes, const Rect& c,
                                              const ScrollDetectorOptions& opts) {
  if (votes.empty()) return std::nullopt;
  std::int64_t best_dy = 0;
  std::int64_t best_votes = 0;
  for (auto [dy, n] : votes) {
    if (n > best_votes || (n == best_votes && std::abs(dy) < std::abs(best_dy))) {
      best_dy = dy;
      best_votes = n;
    }
  }
  const std::int64_t movable = c.height - std::abs(best_dy);
  if (movable <= 0) return std::nullopt;
  const double confidence = static_cast<double>(best_votes) / static_cast<double>(movable);
  if (confidence < opts.min_confidence) return std::nullopt;
  Rect source = c;
  if (best_dy > 0) {
    source.height = movable;
  } else {
    source.top = c.top - best_dy;
    source.height = movable;
  }
  return ScrollMatch{best_dy, source, confidence};
}

/// detect_scroll as it was.
inline std::optional<ScrollMatch> detect_scroll(const Image& before, const Image& after,
                                                const Rect& area,
                                                const ScrollDetectorOptions& opts = {}) {
  const Rect c = intersect(intersect(area, before.bounds()), after.bounds());
  if (c.height < opts.min_rows || c.width <= 0) return std::nullopt;
  return pick_scroll(scroll_votes(before, after, c, opts), c, opts);
}

/// True when every row of `c` is the same in both images.
inline bool rows_unchanged(const Image& before, const Image& after, const Rect& c) {
  for (std::int64_t y = c.top; y < c.bottom(); ++y) {
    if (std::memcmp(before.row(y).data() + c.left, after.row(y).data() + c.left,
                    static_cast<std::size_t>(c.width) * sizeof(Pixel)) != 0) {
      return false;
    }
  }
  return true;
}

/// frozen::detect_scroll with the two documented rule changes of the
/// current vote: an area whose rows are all unchanged reports no scroll,
/// and a tie between dy and -dy goes to the negative dy.
inline std::optional<ScrollMatch> detect_scroll_ruled(
    const Image& before, const Image& after, const Rect& area,
    const ScrollDetectorOptions& opts = {}) {
  const Rect c = intersect(intersect(area, before.bounds()), after.bounds());
  if (c.height < opts.min_rows || c.width <= 0) return std::nullopt;
  if (rows_unchanged(before, after, c)) return std::nullopt;
  Votes votes = scroll_votes(before, after, c, opts);
  auto match = pick_scroll(votes, c, opts);
  if (match && match->dy > 0) {
    const auto twin = votes.find(-match->dy);
    if (twin != votes.end() && twin->second == votes[match->dy]) {
      votes.erase(match->dy);
      match = pick_scroll(votes, c, opts);
    }
  }
  return match;
}

}  // namespace ads::frozen
