#include "image/scroll_detect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "frozen_kernels.hpp"
#include "util/prng.hpp"

namespace ads {
namespace {

/// Paint distinctive horizontal stripes so every row hash is unique.
Image striped(std::int64_t w, std::int64_t h, std::uint64_t seed) {
  Image img(w, h);
  Prng rng(seed);
  for (std::int64_t y = 0; y < h; ++y) {
    const Pixel p{static_cast<std::uint8_t>(rng.next_u32()),
                  static_cast<std::uint8_t>(rng.next_u32()),
                  static_cast<std::uint8_t>(rng.next_u32()), 255};
    img.fill_rect({0, y, w, 1}, p);
  }
  return img;
}

TEST(ScrollDetect, FindsUpwardScroll) {
  const Image before = striped(64, 100, 42);
  Image after = before;
  after.move_rect({0, 10, 64, 90}, {0, 0});  // content moves up 10
  auto match = detect_scroll(before, after, {0, 0, 64, 100});
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->dy, -10);
  EXPECT_GE(match->confidence, 0.6);
}

TEST(ScrollDetect, FindsDownwardScroll) {
  const Image before = striped(64, 100, 7);
  Image after = before;
  after.move_rect({0, 0, 64, 90}, {0, 10});
  auto match = detect_scroll(before, after, {0, 0, 64, 100});
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->dy, 10);
}

TEST(ScrollDetect, SourceRectMapsOldToNew) {
  const Image before = striped(32, 80, 3);
  Image after = before;
  after.move_rect({0, 8, 32, 72}, {0, 0});
  auto match = detect_scroll(before, after, {0, 0, 32, 80});
  ASSERT_TRUE(match.has_value());
  // Applying the move to `before` must reproduce the moved band of `after`.
  Image replay = before;
  replay.move_rect(match->source, {match->source.left, match->source.top + match->dy});
  const Rect moved{match->source.left, match->source.top + match->dy,
                   match->source.width, match->source.height};
  EXPECT_EQ(replay.crop(moved), after.crop(moved));
}

TEST(ScrollDetect, NoMatchOnUnrelatedFrames) {
  const Image before = striped(64, 100, 1);
  const Image after = striped(64, 100, 2);
  EXPECT_FALSE(detect_scroll(before, after, {0, 0, 64, 100}).has_value());
}

TEST(ScrollDetect, NoMatchOnIdenticalFrames) {
  const Image img = striped(64, 100, 5);
  EXPECT_FALSE(detect_scroll(img, img, {0, 0, 64, 100}).has_value());
  // Every row of a uniform image matches every other: unchanged rows must
  // still report no scroll, not a one-row move.
  const Image uniform(200, 200, Pixel{90, 90, 90, 255});
  EXPECT_FALSE(detect_scroll(uniform, uniform, {0, 0, 200, 200}).has_value());
}

TEST(ScrollDetect, RespectsMaxDisplacement) {
  const Image before = striped(64, 300, 9);
  Image after = before;
  after.move_rect({0, 200, 64, 100}, {0, 0});  // dy = -200
  ScrollDetectorOptions opts;
  opts.max_displacement = 100;
  EXPECT_FALSE(detect_scroll(before, after, {0, 0, 64, 300}, opts).has_value());
  opts.max_displacement = 250;
  auto match = detect_scroll(before, after, {0, 0, 64, 300}, opts);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->dy, -200);
}

TEST(ScrollDetect, TooSmallAreaRejected) {
  const Image before = striped(64, 10, 11);
  Image after = before;
  after.move_rect({0, 2, 64, 8}, {0, 0});
  ScrollDetectorOptions opts;
  opts.min_rows = 16;
  EXPECT_FALSE(detect_scroll(before, after, {0, 0, 64, 10}, opts).has_value());
}

TEST(ScrollDetect, SubRegionScrollDetectedWithinArea) {
  // Only the middle band scrolls (e.g. a document window inside a desktop).
  Image before(200, 200, kBlack);
  const Image content = striped(100, 100, 21);
  before.blit(content, {0, 0, 100, 100}, {50, 50});
  Image after = before;
  after.move_rect({50, 60, 100, 90}, {50, 50});
  auto match = detect_scroll(before, after, {50, 50, 100, 100});
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->dy, -10);
}

TEST(ScrollDetect, VoteOverRowHashesMatchesDetectScroll) {
  const Image before = striped(40, 120, 12);
  Image after = before;
  after.move_rect({0, 24, 40, 96}, {0, 0});
  const Rect area{0, 10, 40, 100};
  std::vector<std::uint64_t> rows_before;
  std::vector<std::uint64_t> rows_after;
  hash_rows(before, area, rows_before);
  hash_rows(after, area, rows_after);
  ASSERT_EQ(rows_before.size(), 100u);
  EXPECT_EQ(rows_before[3], hash_rect(before, {0, 13, 40, 1}));

  ScrollVoter voter;
  const auto voted = voter.vote(rows_before, rows_after, area);
  const auto detected = detect_scroll(before, after, area);
  ASSERT_TRUE(voted.has_value());
  ASSERT_TRUE(detected.has_value());
  EXPECT_EQ(voted->dy, -24);
  EXPECT_EQ(voted->dy, detected->dy);
  EXPECT_EQ(voted->source, detected->source);
  EXPECT_EQ(voted->confidence, detected->confidence);
}

TEST(ScrollDetect, SignTieGoesToTheNegativeDisplacement) {
  // Rows alternate between two colours, so every odd displacement gets the
  // same votes in both directions.
  Image before(32, 64);
  for (std::int64_t y = 0; y < 64; ++y) {
    before.fill_rect({0, y, 32, 1}, y % 2 ? kWhite : kBlack);
  }
  Image after = before;
  after.fill_rect({0, 32, 32, 1}, Pixel{1, 2, 3, 255});  // not all unchanged
  const auto match = detect_scroll(before, after, before.bounds());
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->dy, -2);
}

/// An image whose row y is filled with palette colour `pattern[y]`.
Image rows_of(std::int64_t w, const std::vector<int>& pattern) {
  static const Pixel kPalette[] = {kBlack, kWhite, {200, 30, 30, 255},
                                   {30, 200, 30, 255}, {30, 30, 200, 255}};
  Image img(w, static_cast<std::int64_t>(pattern.size()));
  for (std::size_t y = 0; y < pattern.size(); ++y) {
    img.fill_rect({0, static_cast<std::int64_t>(y), w, 1}, kPalette[pattern[y] % 5]);
  }
  return img;
}

/// Row patterns with many equal rows: two-valued random, periodic and
/// symmetric about the middle.
std::vector<int> tie_heavy_rows(int kind, std::int64_t h, Prng& rng) {
  std::vector<int> rows(static_cast<std::size_t>(h));
  const std::int64_t period = 2 + static_cast<std::int64_t>(rng.below(5));
  for (std::int64_t y = 0; y < h; ++y) {
    switch (kind) {
      case 0: rows[static_cast<std::size_t>(y)] = static_cast<int>(rng.below(2)); break;
      case 1: rows[static_cast<std::size_t>(y)] = static_cast<int>(y % period); break;
      default: {
        const std::int64_t mirrored = std::min(y, h - 1 - y);
        rows[static_cast<std::size_t>(y)] = static_cast<int>((mirrored * 7 / period) % 3);
      }
    }
  }
  return rows;
}

void expect_same_match(const std::optional<ScrollMatch>& got,
                       const std::optional<ScrollMatch>& want, const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got) return;
  EXPECT_EQ(got->dy, want->dy) << where;
  EXPECT_EQ(got->source, want->source) << where;
  EXPECT_EQ(got->confidence, want->confidence) << where;
}

TEST(ScrollDetect, MatchesTheFrozenVoteOnTieHeavyRows) {
  Prng rng(2023);
  int sign_ties = 0;
  int unchanged_fixes = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::int64_t h = 20 + static_cast<std::int64_t>(rng.below(180));
      const std::vector<int> rows = tie_heavy_rows(kind, h, rng);
      const Image before = rows_of(24, rows);
      for (const std::int64_t shift : {0, 1, -1, 2, -3, 7, -16, 45}) {
        // Scroll by `shift` and fill the exposed rows from the same pattern.
        std::vector<int> next(rows.size());
        for (std::int64_t y = 0; y < h; ++y) {
          const std::int64_t from = y - shift;
          next[static_cast<std::size_t>(y)] =
              rows[static_cast<std::size_t>(((from % h) + h) % h)];
        }
        const Image after = rows_of(24, next);
        const Rect area = before.bounds();
        for (const std::int64_t max_dy : {1, 2, 3, 5, 8, 13, 32, 64, 100, 128}) {
          ScrollDetectorOptions opts;
          opts.max_displacement = max_dy;
          const std::string where = "kind " + std::to_string(kind) + " h " +
                                    std::to_string(h) + " shift " + std::to_string(shift) +
                                    " max_dy " + std::to_string(max_dy);
          expect_same_match(detect_scroll(before, after, area, opts),
                            frozen::detect_scroll_ruled(before, after, area, opts), where);

          // Count where the two documented rules decide the outcome.
          const auto old = frozen::detect_scroll(before, after, area, opts);
          if (old && frozen::rows_unchanged(before, after, area)) ++unchanged_fixes;
          const frozen::Votes votes = frozen::scroll_votes(before, after, area, opts);
          if (old && !frozen::rows_unchanged(before, after, area)) {
            const auto twin = votes.find(-old->dy);
            if (twin != votes.end() && twin->second == votes.at(old->dy)) ++sign_ties;
          }
        }
      }
    }
  }
  EXPECT_GT(sign_ties, 0);
  EXPECT_GT(unchanged_fixes, 0);
}

class ScrollAmounts : public ::testing::TestWithParam<int> {};

TEST_P(ScrollAmounts, DetectsExactDisplacement) {
  const int dy = GetParam();
  const Image before = striped(48, 256, 33);
  Image after = before;
  if (dy > 0) {
    after.move_rect({0, 0, 48, 256 - dy}, {0, dy});
  } else {
    after.move_rect({0, -dy, 48, 256 + dy}, {0, 0});
  }
  auto match = detect_scroll(before, after, {0, 0, 48, 256});
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->dy, dy);
}

INSTANTIATE_TEST_SUITE_P(Displacements, ScrollAmounts,
                         ::testing::Values(-64, -17, -3, -1, 1, 2, 5, 16, 50, 100));

}  // namespace
}  // namespace ads
