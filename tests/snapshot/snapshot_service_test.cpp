// Unit tests for the SnapshotService refresh-window / bundle state machine
// (the host-agnostic half of the flash-crowd late-join path). The AH's
// integration behaviour on top of this lives in
// tests/core/latejoin_cohort_test.cpp.
#include "snapshot/snapshot.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "buf/buf.hpp"

namespace ads::snapshot {
namespace {

SnapshotOptions enabled_opts() {
  SnapshotOptions o;
  o.enabled = true;
  o.refresh_interval_us = 500'000;
  return o;
}

// Synthetic builder standing in for the AH's encode+serialise callback:
// two 64x8 bands, one whole-stream fragment each, pooled buffers.
SnapshotService::BuildFn make_builder(buf::BufPool& pool, int* builds = nullptr) {
  return [&pool, builds](RefreshBundle& b) {
    if (builds != nullptr) ++(*builds);
    b.bands = {Rect{0, 0, 64, 8}, Rect{0, 8, 64, 8}};
    for (std::size_t i = 0; i < b.bands.size(); ++i) {
      BundleBand band;
      band.buf = pool.acquire(32);
      band.buf.bytes().assign(32, static_cast<std::uint8_t>(i));
      band.frags.push_back(FragmentSpan{0, 32, true});
      b.streams.push_back(std::move(band));
    }
    return true;
  };
}

constexpr OperatingPointKey kKeyA{98, 0, 1200};
constexpr OperatingPointKey kKeyB{102, 3, 1200};

TEST(SnapshotOptionsTest, ValidatedClampsNonsenseAndThrowsOnImpossible) {
  SnapshotOptions o;
  o.enabled = true;
  o.refresh_interval_us = 0;
  EXPECT_THROW(SnapshotService::validated(o), std::invalid_argument);

  // Disabled: a zero interval is inert configuration, not an error.
  o.enabled = false;
  EXPECT_NO_THROW(SnapshotService::validated(o));

  SnapshotOptions c = enabled_opts();
  c.max_bundles = 0;
  c.max_delta_fraction = 0.0;
  c = SnapshotService::validated(c);
  EXPECT_EQ(c.max_bundles, 1u);
  EXPECT_DOUBLE_EQ(c.max_delta_fraction, 0.5);

  c.max_delta_fraction = 1.5;
  c = SnapshotService::validated(c);
  EXPECT_DOUBLE_EQ(c.max_delta_fraction, 0.5);
}

TEST(SnapshotServiceTest, DisabledServiceRefusesAllDemand) {
  SnapshotService svc{SnapshotOptions{}};
  buf::BufPool pool;
  EXPECT_FALSE(svc.enabled());
  EXPECT_FALSE(svc.note_demand(0));
  EXPECT_EQ(svc.admit(kKeyA, 0, make_builder(pool)), nullptr);
  EXPECT_FALSE(svc.window_open());
  EXPECT_EQ(svc.stats().windows_opened, 0u);
  EXPECT_EQ(svc.stats().bundles_built, 0u);
}

TEST(SnapshotServiceTest, FirstDemandOpensWindowLaterDemandIsAbsorbed) {
  SnapshotService svc{enabled_opts()};
  EXPECT_FALSE(svc.note_demand(1'000));  // opens — not absorbed
  EXPECT_TRUE(svc.window_open());
  EXPECT_TRUE(svc.note_demand(2'000));
  EXPECT_TRUE(svc.note_demand(3'000));
  EXPECT_EQ(svc.stats().windows_opened, 1u);
  EXPECT_EQ(svc.stats().plis_absorbed, 2u);
}

TEST(SnapshotServiceTest, AdmitBuildsOncePerWindowThenServesShared) {
  SnapshotService svc{enabled_opts()};
  buf::BufPool pool;
  int builds = 0;
  const auto build = make_builder(pool, &builds);

  RefreshBundle* first = svc.admit(kKeyA, 10'000, build);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first->checkpoint, 1u);
  EXPECT_EQ(first->serves, 1u);
  ASSERT_EQ(first->bands.size(), 2u);
  ASSERT_EQ(first->streams.size(), 2u);

  // Nine more joiners of the same operating point: zero further builds.
  for (int i = 0; i < 9; ++i) {
    RefreshBundle* again = svc.admit(kKeyA, 10'000 + i, build);
    ASSERT_EQ(again, first);
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first->serves, 10u);
  EXPECT_EQ(svc.stats().bundles_built, 1u);
  EXPECT_EQ(svc.stats().bundle_bands, 2u);
  EXPECT_EQ(svc.stats().bundles_served, 10u);
  // Each shared serve saved one encode per band.
  EXPECT_EQ(svc.stats().encodes_saved, 9u * 2u);

  // A different operating point builds its own bundle in the same window.
  RefreshBundle* other = svc.admit(kKeyB, 11'000, build);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other, first);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(svc.bundle_count(), 2u);
  // One window for the whole wave.
  EXPECT_EQ(svc.stats().windows_opened, 1u);
}

// The satellite-5 regression at the unit level: the window is anchored at
// bundle *finalisation*, so demand arriving a full interval after the window
// opened — but within one interval of the build — is still absorbed.
TEST(SnapshotServiceTest, WindowReanchorsAtBundleFinalisation) {
  SnapshotService svc{enabled_opts()};  // 500 ms interval
  buf::BufPool pool;
  int builds = 0;
  const auto build = make_builder(pool, &builds);

  EXPECT_FALSE(svc.note_demand(0));            // window opens at t=0
  ASSERT_NE(svc.admit(kKeyA, 100'000, build), nullptr);  // anchor → 100 ms

  // t=500 ms: a full interval past the *open* instant but only 400 ms past
  // the anchor. The window must survive and the demand must be absorbed —
  // an open-anchored window would have expired here and forced a rebuild.
  svc.begin_tick(500'000);
  EXPECT_TRUE(svc.window_open());
  EXPECT_EQ(svc.bundle_count(), 1u);
  EXPECT_TRUE(svc.note_demand(500'000));
  ASSERT_NE(svc.admit(kKeyA, 500'000, build), nullptr);
  EXPECT_EQ(builds, 1);

  // One interval past the anchor the window closes and the bundles drop.
  svc.begin_tick(600'000);
  EXPECT_FALSE(svc.window_open());
  EXPECT_EQ(svc.bundle_count(), 0u);
  EXPECT_EQ(svc.stats().windows_closed, 1u);

  // The next demand starts a fresh wave with a fresh checkpoint.
  EXPECT_FALSE(svc.note_demand(700'000));
  ASSERT_NE(svc.admit(kKeyA, 700'000, build), nullptr);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(svc.checkpoint_id(), 2u);
}

TEST(SnapshotServiceTest, AdmissionPastBundleBudgetFallsBack) {
  SnapshotOptions o = enabled_opts();
  o.max_bundles = 1;
  SnapshotService svc{o};
  buf::BufPool pool;
  ASSERT_NE(svc.admit(kKeyA, 1'000, make_builder(pool)), nullptr);
  EXPECT_EQ(svc.admit(kKeyB, 1'000, make_builder(pool)), nullptr);
  EXPECT_EQ(svc.stats().budget_rejections, 1u);
  // The existing operating point still serves.
  EXPECT_NE(svc.admit(kKeyA, 2'000, make_builder(pool)), nullptr);
}

TEST(SnapshotServiceTest, BuilderFailureLeavesNothingCached) {
  SnapshotService svc{enabled_opts()};
  buf::BufPool pool;

  // Builder reports failure.
  EXPECT_EQ(svc.admit(kKeyA, 0, [](RefreshBundle&) { return false; }), nullptr);
  // Builder "succeeds" but produces no bands.
  EXPECT_EQ(svc.admit(kKeyA, 0, [](RefreshBundle&) { return true; }), nullptr);
  // Bands and streams disagree.
  EXPECT_EQ(svc.admit(kKeyA, 0,
                      [](RefreshBundle& b) {
                        b.bands = {Rect{0, 0, 8, 8}};
                        return true;  // no streams
                      }),
            nullptr);
  EXPECT_EQ(svc.stats().build_failures, 3u);
  EXPECT_EQ(svc.bundle_count(), 0u);

  // A later healthy build is unaffected.
  EXPECT_NE(svc.admit(kKeyA, 0, make_builder(pool)), nullptr);
}

TEST(SnapshotServiceTest, DeltaAccumulatesIntoEveryLiveBundle) {
  SnapshotService svc{enabled_opts()};
  buf::BufPool pool;
  RefreshBundle* a = svc.admit(kKeyA, 0, make_builder(pool));
  RefreshBundle* b = svc.admit(kKeyB, 0, make_builder(pool));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  svc.add_delta(Rect{0, 0, 10, 2});
  svc.add_delta(Rect{});  // empty rects are ignored
  EXPECT_EQ(a->delta.area(), 20);
  EXPECT_EQ(b->delta.area(), 20);
  EXPECT_EQ(svc.stats().delta_rects, 1u);
}

TEST(SnapshotServiceTest, BundleWhoseDeltaOutgrowsItsAreaIsEvicted) {
  SnapshotOptions o = enabled_opts();
  o.max_delta_fraction = 0.5;
  SnapshotService svc{o};
  buf::BufPool pool;
  int builds = 0;
  // Bundle area = 64x16 = 1024; budget = 512.
  ASSERT_NE(svc.admit(kKeyA, 0, make_builder(pool, &builds)), nullptr);

  svc.add_delta(Rect{0, 0, 64, 8});  // area 512 — exactly at budget, stays
  svc.begin_tick(100'000);
  EXPECT_EQ(svc.bundle_count(), 1u);
  EXPECT_EQ(svc.stats().delta_evictions, 0u);

  svc.add_delta(Rect{0, 8, 64, 2});  // 640 total — over budget
  svc.begin_tick(200'000);
  EXPECT_EQ(svc.bundle_count(), 0u);
  EXPECT_EQ(svc.stats().delta_evictions, 1u);
  // The window itself stays open; the next admission rebuilds fresh.
  EXPECT_TRUE(svc.window_open());
  ASSERT_NE(svc.admit(kKeyA, 200'000, make_builder(pool, &builds)), nullptr);
  EXPECT_EQ(builds, 2);
}

TEST(SnapshotServiceTest, InvalidateDropsBundlesAndClosesWindow) {
  SnapshotService svc{enabled_opts()};
  buf::BufPool pool;

  // Invalidate on an idle service is a no-op.
  svc.invalidate();
  EXPECT_EQ(svc.stats().invalidations, 0u);

  ASSERT_NE(svc.admit(kKeyA, 0, make_builder(pool)), nullptr);
  svc.invalidate();
  EXPECT_FALSE(svc.window_open());
  EXPECT_EQ(svc.bundle_count(), 0u);
  EXPECT_EQ(svc.stats().invalidations, 1u);
  EXPECT_EQ(svc.stats().windows_closed, 1u);
}

TEST(SnapshotServiceTest, BundleStreamsRecycleToThePoolOnWindowClose) {
  SnapshotService svc{enabled_opts()};
  buf::BufPool pool;
  ASSERT_NE(svc.admit(kKeyA, 0, make_builder(pool)), nullptr);
  EXPECT_EQ(pool.stats().outstanding, 2u);
  svc.begin_tick(500'000);  // interval elapsed → window closes
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().recycles, 2u);
}

}  // namespace
}  // namespace ads::snapshot
