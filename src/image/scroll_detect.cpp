#include "image/scroll_detect.hpp"

#include <algorithm>
#include <cstdlib>

#include "image/damage.hpp"

namespace ads {

void hash_rows(const Image& img, const Rect& area, std::vector<std::uint64_t>& out) {
  const Rect c = intersect(area, img.bounds());
  out.resize(static_cast<std::size_t>(c.height));
  for (std::int64_t i = 0; i < c.height; ++i) {
    out[static_cast<std::size_t>(i)] = hash_rect(img, Rect{c.left, c.top + i, c.width, 1});
  }
}

std::optional<ScrollMatch> ScrollVoter::vote(std::span<const std::uint64_t> before,
                                             std::span<const std::uint64_t> after,
                                             const Rect& area,
                                             const ScrollDetectorOptions& opts) {
  if (area.height < opts.min_rows || area.width <= 0) return std::nullopt;
  // An area whose rows are all unchanged did not scroll, even when its
  // rows repeat (a uniform area matches itself at every displacement).
  if (std::equal(before.begin(), before.end(), after.begin(), after.end())) {
    return std::nullopt;
  }
  const std::int64_t rows = static_cast<std::int64_t>(after.size());
  const std::int64_t max_dy = std::min(opts.max_displacement, rows - 1);
  if (max_dy <= 0) return std::nullopt;

  table_.resize(before.size());
  for (std::size_t y = 0; y < before.size(); ++y) {
    table_[y] = Row{before[y], static_cast<std::int64_t>(y)};
  }
  std::sort(table_.begin(), table_.end());

  // Each row of `after` looks up the rows of `before` with its hash within
  // ±max_dy. A row identical in both frames also finds itself; dy == 0
  // casts no vote.
  votes_.assign(static_cast<std::size_t>(2 * max_dy + 1), 0);
  for (std::int64_t y = 0; y < rows; ++y) {
    const std::uint64_t h = after[static_cast<std::size_t>(y)];
    for (auto it = std::lower_bound(table_.begin(), table_.end(), Row{h, y - max_dy});
         it != table_.end() && it->hash == h && it->y <= y + max_dy; ++it) {
      if (it->y != y) ++votes_[static_cast<std::size_t>(y - it->y + max_dy)];
    }
  }

  std::int64_t best_dy = 0;
  std::int64_t best_votes = 0;
  for (std::int64_t d = 1; d <= max_dy; ++d) {
    for (const std::int64_t dy : {-d, d}) {
      const std::int64_t n = votes_[static_cast<std::size_t>(dy + max_dy)];
      if (n > best_votes) {
        best_dy = dy;
        best_votes = n;
      }
    }
  }
  if (best_votes == 0) return std::nullopt;

  // The movable band is the part of the area that stays inside it after
  // displacement.
  const std::int64_t movable = area.height - std::abs(best_dy);
  const double confidence = static_cast<double>(best_votes) / static_cast<double>(movable);
  if (confidence < opts.min_confidence) return std::nullopt;

  // Rows [top, top + movable) move down; rows [top - dy, bottom) move up.
  Rect source = area;
  source.height = movable;
  if (best_dy < 0) source.top -= best_dy;
  return ScrollMatch{best_dy, source, confidence};
}

std::optional<ScrollMatch> detect_scroll(const Image& before, const Image& after,
                                         const Rect& area,
                                         const ScrollDetectorOptions& opts) {
  const Rect c = intersect(intersect(area, before.bounds()), after.bounds());
  std::vector<std::uint64_t> rows_before;
  std::vector<std::uint64_t> rows_after;
  hash_rows(before, c, rows_before);
  hash_rows(after, c, rows_after);
  return ScrollVoter().vote(rows_before, rows_after, c, opts);
}

}  // namespace ads
