#include "image/damage.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

// TU-wide allocation counter so tests can assert the unchanged-frame
// diff_rects path is allocation-free (the AH diffs every frame tick; a
// per-tick allocation would be a regression the compiler can't catch).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ads {
namespace {

std::int64_t total_area(const std::vector<Rect>& rects) {
  std::int64_t a = 0;
  for (const auto& r : rects) a += r.area();
  return a;
}

bool covers(const std::vector<Rect>& rects, Point p) {
  for (const auto& r : rects) {
    if (r.contains(p)) return true;
  }
  return false;
}

TEST(DiffRects, UnchangedFrameReportsNothing) {
  const Image frame(100, 80, kBlack);
  EXPECT_TRUE(diff_rects(frame, frame, 32).empty());
}

TEST(DiffRects, SinglePixelChangeFoundWithinOneTile) {
  const Image before(128, 128, kBlack);
  Image after = before;
  after.set(70, 40, kWhite);
  auto damage = diff_rects(before, after, 32);
  ASSERT_FALSE(damage.empty());
  EXPECT_TRUE(covers(damage, {70, 40}));
  // Damage granularity is one tile.
  EXPECT_LE(total_area(damage), 32 * 32);
}

TEST(DiffRects, DamageCoversAllChanges) {
  const Image before(200, 200, kBlack);
  Image after = before;
  after.fill_rect({10, 10, 50, 5}, kWhite);
  after.fill_rect({150, 180, 30, 10}, kWhite);
  auto damage = diff_rects(before, after, 16);
  EXPECT_TRUE(covers(damage, {10, 10}));
  EXPECT_TRUE(covers(damage, {59, 14}));
  EXPECT_TRUE(covers(damage, {150, 180}));
  EXPECT_TRUE(covers(damage, {179, 189}));
}

TEST(DiffRects, EdgeTilesClippedToFrame) {
  // 100 is not a multiple of 32; edge tiles must not extend past bounds.
  const Image before(100, 100, kBlack);
  Image after = before;
  after.set(99, 99, kWhite);
  auto damage = diff_rects(before, after, 32);
  ASSERT_FALSE(damage.empty());
  for (const auto& r : damage) {
    EXPECT_LE(r.right(), 100);
    EXPECT_LE(r.bottom(), 100);
  }
}

TEST(DiffRects, AdjacentDirtyTilesMerge) {
  const Image before(128, 128, kBlack);
  Image after = before;
  after.fill_rect({0, 0, 128, 32}, kWhite);  // full top band: 4 tiles
  auto damage = diff_rects(before, after, 32);
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0], (Rect{0, 0, 128, 32}));
}

TEST(DiffRects, SizeMismatchReportsUnionBound) {
  // Same pixel content, different geometry: the union bound, not a diff.
  const Image a(100, 100, kBlack);
  const Image taller(100, 120, kBlack);
  auto damage = diff_rects(a, taller, 16);
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0], taller.bounds());

  // Each image wider in one axis: the bound covers both.
  damage = diff_rects(Image(200, 50, kBlack), Image(60, 90, kBlack), 32);
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0], (Rect{0, 0, 200, 90}));
}

TEST(DiffRects, EmptyFrameReportsNoDamage) {
  EXPECT_TRUE(diff_rects(Image(), Image(), 32).empty());
}

TEST(DiffRects, UnchangedFrameAllocatesNothing) {
  const Image before(256, 192, kBlack);
  const Image after = before;
  diff_rects(before, after, 32);  // warm: return-value machinery settled

  const std::uint64_t allocations = g_allocations.load();
  const auto damage = diff_rects(before, after, 32);
  const std::uint64_t now = g_allocations.load();
  EXPECT_TRUE(damage.empty());
  EXPECT_EQ(now - allocations, 0u) << "no-change diff allocated";
}

class DamageTileSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(DamageTileSizes, DetectsChangeAtAnyGranularity) {
  const Image before(130, 70, kBlack);
  Image after = before;
  after.fill_rect({40, 30, 20, 10}, kWhite);
  auto damage = diff_rects(before, after, GetParam());
  EXPECT_TRUE(covers(damage, {40, 30}));
  EXPECT_TRUE(covers(damage, {59, 39}));
  // Everything reported must lie within bounds.
  for (const auto& r : damage) {
    EXPECT_TRUE(after.bounds().contains(r));
  }
}

INSTANTIATE_TEST_SUITE_P(Granularities, DamageTileSizes,
                         ::testing::Values(8, 16, 32, 33, 64, 128));

}  // namespace
}  // namespace ads
