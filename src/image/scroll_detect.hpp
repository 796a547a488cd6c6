// Vertical-scroll detection. The draft's MoveRectangle message (§5.2.3) is
// "efficient for some drawing operations like scrolls"; to emit it the AH
// must *recognise* a scroll from two successive frames. Detection is two
// steps: hash_rows() hashes each row of the candidate rectangle in a frame,
// and ScrollVoter::vote() finds the dominant vertical displacement between
// two frames' row hashes. If enough rows moved coherently, the scroll is
// reported so the sender can ship a MoveRectangle plus a small delta update
// instead of re-encoding the whole area (benchmark E2). Splitting the steps
// lets ScreenCapturer hash each frame's rows once and reuse them as the
// next tick's reference hashes.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "image/geometry.hpp"
#include "image/image.hpp"

namespace ads {

/// A vertical displacement found between two frames.
struct ScrollMatch {
  /// Vertical displacement in pixels: positive = content moved down
  /// (i.e. the user scrolled up), negative = content moved up.
  std::int64_t dy = 0;
  /// Source rectangle in the *previous* frame whose pixels reappear
  /// displaced by `dy` in the current frame.
  Rect source;
  /// Fraction of candidate rows that matched the dominant displacement.
  double confidence = 0.0;
};

/// Thresholds of the displacement vote.
struct ScrollDetectorOptions {
  std::int64_t max_displacement = 128;  ///< search window (pixels, both signs)
  double min_confidence = 0.6;          ///< reject weaker matches
  std::int64_t min_rows = 16;           ///< don't bother for tiny areas
};

/// Row hashes of `area` clipped to `img`, top to bottom: element i is
/// hash_rect() of row `top + i` of the clipped area. Reuses `out`'s storage.
void hash_rows(const Image& img, const Rect& area, std::vector<std::uint64_t>& out);

/// The displacement vote over two frames' row hashes. Keeps its sorted
/// (hash, y) table and per-displacement counts between calls, so a caller
/// that holds one voter allocates nothing in steady state.
class ScrollVoter {
 public:
  /// Vote over `before` and `after`, one hash per row of `area` (which is
  /// already clipped to both frames; hash_rows() of each frame). Every row
  /// of `after` votes for each displacement 1 ≤ |dy| ≤ max_displacement
  /// at which `before` holds an equal row. The most-voted dy wins; ties go
  /// to the smaller |dy|, then to the negative dy. Returns nullopt when the
  /// area is below min_rows, when every row is unchanged (as when both
  /// spans hash one frame) or when the winner's confidence falls below
  /// min_confidence.
  std::optional<ScrollMatch> vote(std::span<const std::uint64_t> before,
                                  std::span<const std::uint64_t> after,
                                  const Rect& area,
                                  const ScrollDetectorOptions& opts = {});

 private:
  /// One row of `before`, ordered by hash, then y.
  struct Row {
    std::uint64_t hash;
    std::int64_t y;

    friend auto operator<=>(const Row&, const Row&) = default;
  };
  std::vector<Row> table_;
  std::vector<std::int64_t> votes_;  ///< votes_[dy + max |dy|]
};

/// Detect a vertical scroll of `area` between `before` and `after`: the
/// row hashes of both frames put to one ScrollVoter::vote(). Returns
/// nullopt when no displacement meets the confidence threshold, including
/// when nothing moved.
std::optional<ScrollMatch> detect_scroll(const Image& before, const Image& after,
                                         const Rect& area,
                                         const ScrollDetectorOptions& opts = {});

}  // namespace ads
