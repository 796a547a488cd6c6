// Flash-crowd late-join integration tests (docs/LATEJOIN.md): join cohorts
// served from checkpoint refresh bundles, PLI aggregation-window semantics,
// and the admission edges — demand at the bundle-finalisation instant, a
// TCP joiner behind the §7 backlog gate, bundle-budget fallback, and a
// relay crash mid-refresh.
//
// The PliAtBundleFinalisationIsAbsorbed test is the refresh-storm
// regression: before the finalisation-anchored window fix in
// src/snapshot/snapshot.cpp, a PLI landing in the same tick a bundle was
// finalised (or late in an open-anchored window) expired the window early
// and forced a second checkpoint encode for the same wave.
#include <gtest/gtest.h>

#include <memory>

#include "capture/apps.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "rtp/rtcp.hpp"

namespace ads {
namespace {

AppHostOptions snap_host(std::int64_t w = 320, std::int64_t h = 240) {
  AppHostOptions opts;
  opts.screen_width = w;
  opts.screen_height = h;
  opts.frame_interval_us = sim_ms(100);
  opts.snapshot.enabled = true;
  opts.snapshot.refresh_interval_us = sim_ms(300);
  return opts;
}

UdpLinkConfig clean_link() {
  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 2000;
  return link;
}

Image replica_of(const SharingSession::Connection& conn, const Image& truth) {
  return conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
}

TEST(LateJoinCohort, FlashCrowdWaveSharesOneBundleEncode) {
  SharingSession session(snap_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 128, 96}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3));
  host.start();
  session.run_for(sim_ms(500));  // stream already warm when the crowd hits

  // Eight joiners in one instant: their PLIs all land inside one refresh
  // window and the whole cohort is served from a single checkpoint encode.
  constexpr int kCrowd = 8;
  // The wave is fully scripted: disable the starvation retry ladder, whose
  // organic re-PLI would land after host.stop() and open a second (never
  // admitted) window that has nothing to do with the join wave itself.
  ParticipantOptions popts;
  popts.starvation_timeout_us = 0;
  std::vector<SharingSession::Connection*> crowd;
  for (int i = 0; i < kCrowd; ++i) {
    crowd.push_back(&session.add_udp_participant(popts, clean_link()));
  }
  for (auto* c : crowd) c->participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  const auto& sn = host.snapshot_service().stats();
  EXPECT_EQ(sn.windows_opened, 1u);
  EXPECT_EQ(sn.bundles_built, 1u);  // ≤1 cohort encode for the whole wave
  EXPECT_EQ(sn.bundles_served, static_cast<std::uint64_t>(kCrowd));
  EXPECT_GE(sn.plis_absorbed, static_cast<std::uint64_t>(kCrowd - 1));
  EXPECT_GT(sn.encodes_saved, 0u);
  EXPECT_EQ(host.stats().join_admissions, static_cast<std::uint64_t>(kCrowd));
  EXPECT_EQ(host.stats().join_shared_refreshes,
            static_cast<std::uint64_t>(kCrowd));
  EXPECT_EQ(host.stats().join_fallback_refreshes, 0u);

  const Image& truth = host.capturer().last_frame();
  for (auto* c : crowd) {
    EXPECT_EQ(diff_pixel_count(truth, replica_of(*c, truth)), 0);
    EXPECT_EQ(c->participant->stats().decode_errors, 0u);
  }
}

// The refresh-storm regression (finalisation-anchored window): demand at the
// bundle's finalisation instant and demand a full interval past the window
// *open* — but inside the interval measured from the *build* — must both be
// absorbed by the existing bundle, never trigger a second encode.
TEST(LateJoinCohort, PliAtBundleFinalisationIsAbsorbed) {
  AppHostOptions opts = snap_host();
  opts.snapshot.refresh_interval_us = sim_ms(250);
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 64, 64}, 1);
  // Static content after the first slide: the checkpoint alone converges.
  host.capturer().attach(w,
                         std::make_unique<SlideshowApp>(64, 64, 2, 1'000'000));

  auto& a = session.add_udp_participant({}, clean_link());
  auto& b = session.add_udp_participant({}, clean_link());
  auto& c = session.add_udp_participant({}, clean_link());
  const PictureLossIndication pli;

  auto step = [&](SimTime dur = sim_ms(100)) {
    host.tick();
    session.run_for(dur);
  };

  step();  // t=0: initial paint, nobody needs a refresh yet
  session.run_for(sim_ms(50));                   // t=150ms
  host.on_uplink_packet(a.id, pli.serialize());  // window opens at t=150ms
  session.run_for(sim_ms(50));                   // t=200ms
  host.tick();  // A admitted — the bundle is built and the window
                // re-anchors at this finalisation instant (t=200ms)
  EXPECT_EQ(host.snapshot_service().stats().bundles_built, 1u);
  // B's PLI lands at the very instant the bundle was finalised.
  host.on_uplink_packet(b.id, pli.serialize());
  session.run_for(sim_ms(100));  // t=300ms
  host.tick();                   // B served from the same bundle
  session.run_for(sim_ms(100));  // t=400ms
  host.tick();  // an open-anchored window (open + 250ms) would have
                // expired right here and dropped the bundle
  session.run_for(sim_ms(10));
  // C's PLI at t=410ms: 260ms past the window *open* but only 210ms past
  // the build — absorbed only if the window is finalisation-anchored.
  host.on_uplink_packet(c.id, pli.serialize());
  session.run_for(sim_ms(30));
  step();  // t=440ms: C still served from the t=200ms bundle

  const auto& sn = host.snapshot_service().stats();
  EXPECT_EQ(sn.windows_opened, 1u);
  EXPECT_EQ(sn.bundles_built, 1u) << "same-wave PLI forced a second encode";
  EXPECT_EQ(sn.plis_absorbed, 2u);
  EXPECT_EQ(host.stats().join_shared_refreshes, 3u);
  EXPECT_EQ(host.stats().join_fallback_refreshes, 0u);

  for (int i = 0; i < 4; ++i) step();
  session.run_for(sim_ms(500));
  const Image& truth = host.capturer().last_frame();
  for (auto* conn : {&a, &b, &c}) {
    EXPECT_EQ(diff_pixel_count(truth, replica_of(*conn, truth)), 0);
  }
}

TEST(LateJoinCohort, JoinerMidWindowInheritsBundleDeltaAndConverges) {
  SharingSession session(snap_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 160, 120}, 1);
  // Churning content: the checkpoint goes stale between the two joins, so
  // the second joiner must converge through the bundle's delta region.
  host.capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 2));
  host.start();
  session.run_for(sim_ms(500));

  auto& a = session.add_udp_participant({}, clean_link());
  a.participant->join();
  session.run_for(sim_ms(150));  // inside the 300ms refresh window
  auto& b = session.add_udp_participant({}, clean_link());
  b.participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  const auto& sn = host.snapshot_service().stats();
  EXPECT_EQ(sn.bundles_built, 1u);  // B rode A's checkpoint
  EXPECT_EQ(host.stats().join_shared_refreshes, 2u);
  EXPECT_GT(sn.delta_rects, 0u);  // churn accumulated into the live bundle

  const Image& truth = host.capturer().last_frame();
  for (auto* conn : {&a, &b}) {
    EXPECT_EQ(diff_pixel_count(truth, replica_of(*conn, truth)), 0);
    EXPECT_EQ(conn->participant->stats().decode_errors, 0u);
  }
}

TEST(LateJoinCohort, SnapshotDisabledFallsBackToPerJoinerPath) {
  AppHostOptions opts = snap_host();
  opts.snapshot.enabled = false;  // the E19 cohort arm
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 96, 96}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(96, 96, 3));
  host.start();
  session.run_for(sim_ms(300));

  std::vector<SharingSession::Connection*> crowd;
  for (int i = 0; i < 3; ++i) {
    crowd.push_back(&session.add_udp_participant({}, clean_link()));
  }
  for (auto* c : crowd) c->participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  // Every joiner was admitted, none through the snapshot path.
  EXPECT_EQ(host.stats().join_admissions, 3u);
  EXPECT_EQ(host.stats().join_shared_refreshes, 0u);
  EXPECT_EQ(host.stats().join_fallback_refreshes, 0u);
  EXPECT_EQ(host.snapshot_service().stats().windows_opened, 0u);
  const Image& truth = host.capturer().last_frame();
  for (auto* c : crowd) {
    EXPECT_EQ(diff_pixel_count(truth, replica_of(*c, truth)), 0);
  }
}

TEST(LateJoinCohort, BundleBudgetExhaustionFallsBackToCohortEncode) {
  AppHostOptions opts = snap_host();
  opts.snapshot.max_bundles = 1;
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({10, 10, 96, 96}, 1);
  host.capturer().attach(w, std::make_unique<SlideshowApp>(96, 96, 3));

  auto& a = session.add_udp_participant({}, clean_link());
  auto& b = session.add_udp_participant({}, clean_link());
  // Distinct operating points: B negotiates a different codec (§5.2.2), so
  // its refresh needs a second bundle — which the budget refuses.
  ASSERT_TRUE(host.set_participant_codec(b.id, ContentPt::kRle));
  host.start();
  session.run_for(sim_ms(300));
  a.participant->join();
  b.participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  EXPECT_EQ(host.stats().join_admissions, 2u);
  EXPECT_EQ(host.stats().join_shared_refreshes, 1u);
  EXPECT_EQ(host.stats().join_fallback_refreshes, 1u);  // §4.4 path, no bundle
  EXPECT_EQ(host.snapshot_service().stats().bundles_built, 1u);
  EXPECT_EQ(host.snapshot_service().stats().budget_rejections, 1u);

  // The fallback is a correctness no-op: both converge.
  const Image& truth = host.capturer().last_frame();
  for (auto* conn : {&a, &b}) {
    EXPECT_EQ(diff_pixel_count(truth, replica_of(*conn, truth)), 0);
  }
}

// §7 admission edge: a refresh demanded while the TCP backlog gate is
// closed stays pending (needs_full_refresh persists) and is admitted — via
// a fresh bundle — once the pipe drains.
TEST(LateJoinCohort, TcpRefreshDeferredByBacklogGateAdmittedAfterDrain) {
  AppHostOptions opts = snap_host(160, 120);
  opts.codec = ContentPt::kRaw;  // big payloads: one refresh floods the pipe
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 64, 64}, 1);
  host.capturer().attach(w,
                         std::make_unique<SlideshowApp>(64, 64, 2, 1'000'000));

  TcpLinkConfig link;
  link.down.bandwidth_bps = 1'000'000;  // raw refresh ≈ 77KB → ~6 ticks
  link.down.send_buffer_bytes = 1024 * 1024;
  auto& tcp = session.add_tcp_participant({}, link);

  auto step = [&] {
    host.tick();
    session.run_for(sim_ms(100));
  };

  step();  // admission tick: WMI + raw full refresh accepted into the buffer
  EXPECT_EQ(host.stats().join_admissions, 1u);
  EXPECT_EQ(host.stats().join_shared_refreshes, 1u);
  step();  // the refresh is still draining: the §7 gate is closed
  EXPECT_GT(host.stats().frames_skipped_backlog, 0u);

  // New refresh demand while the gate is closed — must NOT be served yet.
  const PictureLossIndication pli;
  host.on_uplink_packet(tcp.id, pli.serialize());
  step();
  EXPECT_EQ(host.stats().plis_received, 1u);
  EXPECT_EQ(host.stats().join_admissions, 1u) << "admitted through closed gate";

  // Drain; the deferred demand is admitted from a fresh checkpoint (the
  // first wave's window has long expired).
  for (int i = 0; i < 20; ++i) step();
  EXPECT_EQ(host.stats().join_admissions, 2u);
  EXPECT_EQ(host.stats().join_shared_refreshes, 2u);
  EXPECT_EQ(host.snapshot_service().stats().bundles_built, 2u);

  session.run_for(sim_sec(2));  // deliver the tail of the stream
  const Image& truth = host.capturer().last_frame();
  const Image replica =
      tcp.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0);
}

// A relay crash racing a shared refresh: the in-flight bundle packets die
// with the node, and after the cold restart the subtree resyncs through the
// adoption-epoch §4.4 path — both viewers converge with no stale-epoch
// frame ever applied (decode_errors stays 0).
TEST(LateJoinCohort, RelayCrashDuringSharedRefreshResyncsCleanly) {
  SharingSession session(snap_host());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(320, 240, 5));

  relay::RelayOptions ropts;
  ropts.report_interval_us = sim_ms(200);
  ropts.nack_flush_us = sim_ms(5);
  ropts.nack_holdoff_us = sim_ms(300);
  auto& r1 = session.add_relay(ropts);
  ParticipantOptions popts;
  popts.screen_width = 320;
  popts.screen_height = 240;
  auto& v1 = session.add_relay_viewer(r1, popts, {});
  auto& v2 = session.add_relay_viewer(r1, popts, {});

  host.start();
  session.run_for(sim_ms(300));
  v1.participant->join();  // leg PLI → coalesced upstream → shared refresh
  session.run_for(sim_ms(400));
  EXPECT_GE(host.stats().join_shared_refreshes, 1u);

  // The second joiner's refresh races the crash.
  v2.participant->join();
  session.run_for(sim_ms(30));
  session.crash_relay(r1);
  session.run_for(sim_sec(1));
  session.restart_relay(r1);
  session.run_for(sim_sec(3));  // adoption epoch: PLI pulls a fresh refresh
  host.stop();
  session.run_for(sim_sec(1));

  EXPECT_EQ(session.relay_crashes(), 1u);
  EXPECT_EQ(session.relay_restarts(), 1u);
  EXPECT_GE(host.stats().join_admissions, 2u);

  const Image& truth = host.capturer().last_frame();
  for (auto* v : {&v1, &v2}) {
    const Image replica = v->participant->screen().crop(
        {0, 0, truth.width(), truth.height()});
    EXPECT_EQ(diff_pixel_count(truth, replica), 0);
    EXPECT_EQ(v->participant->stats().decode_errors, 0u);
  }
}

}  // namespace
}  // namespace ads
