#include "image/scroll_detect.hpp"

#include <unordered_map>
#include <vector>

#include "image/damage.hpp"

namespace ads {

std::optional<ScrollMatch> detect_scroll(const Image& before, const Image& after,
                                         const Rect& area,
                                         const ScrollDetectorOptions& opts) {
  const Rect c = intersect(intersect(area, before.bounds()), after.bounds());
  if (c.height < opts.min_rows || c.width <= 0) return std::nullopt;

  // Map old-frame row hash -> list of y positions.
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> old_rows;
  old_rows.reserve(static_cast<std::size_t>(c.height));
  for (std::int64_t y = c.top; y < c.bottom(); ++y) {
    old_rows[hash_rect(before, Rect{c.left, y, c.width, 1})].push_back(y);
  }

  // Vote for displacements. A row identical in both frames votes for 0 as
  // well as other candidates; the dy==0 votes are discarded at the end.
  std::unordered_map<std::int64_t, std::int64_t> votes;
  for (std::int64_t y = c.top; y < c.bottom(); ++y) {
    const std::uint64_t h = hash_rect(after, Rect{c.left, y, c.width, 1});
    auto it = old_rows.find(h);
    if (it == old_rows.end()) continue;
    for (std::int64_t old_y : it->second) {
      const std::int64_t dy = y - old_y;
      if (dy != 0 && std::abs(dy) <= opts.max_displacement) ++votes[dy];
    }
  }
  if (votes.empty()) return std::nullopt;

  std::int64_t best_dy = 0;
  std::int64_t best_votes = 0;
  for (auto [dy, n] : votes) {
    if (n > best_votes || (n == best_votes && std::abs(dy) < std::abs(best_dy))) {
      best_dy = dy;
      best_votes = n;
    }
  }

  // The movable band is the part of the area that stays inside it after
  // displacement.
  const std::int64_t movable = c.height - std::abs(best_dy);
  if (movable <= 0) return std::nullopt;
  const double confidence = static_cast<double>(best_votes) / static_cast<double>(movable);
  if (confidence < opts.min_confidence) return std::nullopt;

  Rect source = c;
  if (best_dy > 0) {
    source.height = movable;  // rows [top, top+movable) move down
  } else {
    source.top = c.top - best_dy;  // rows [top-dy, bottom) move up
    source.height = movable;
  }
  return ScrollMatch{best_dy, source, confidence};
}

}  // namespace ads
