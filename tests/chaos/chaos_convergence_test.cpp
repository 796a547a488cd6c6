// The resilience invariant, end to end: script fault episodes onto live
// session links, and after the last episode clears every surviving
// participant's framebuffer must be bit-identical to the AH's within a
// bounded number of ticks. A seeded matrix keeps the whole thing
// deterministic; liveness eviction is asserted through the telemetry
// snapshot.
#include <gtest/gtest.h>

#include "chaos/fault_schedule.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "telemetry/export.hpp"

namespace ads {
namespace {

using chaos::FaultSchedule;
using chaos::RandomScheduleOptions;

AppHostOptions chaos_host() {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  return opts;
}

UdpLinkConfig fast_udp() {
  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 2000;
  return link;
}

ParticipantOptions resilient_participant() {
  ParticipantOptions opts;
  opts.starvation_timeout_us = sim_ms(800);  // recover quickly after faults
  return opts;
}

/// Pixel-exact convergence check against the AH's last captured frame.
void expect_converged(SharingSession& session,
                      const SharingSession::Connection& conn,
                      const char* what) {
  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_EQ(diff_pixel_count(truth, replica), 0) << what;
}

TEST(ChaosConvergence, UdpRandomFaultMatrixReconvergesAcrossSeeds) {
  // ISSUE acceptance: deterministic for >= 5 seeds. One faulted link plus
  // one clean witness per run; the witness must never regress.
  for (std::uint64_t seed : {101u, 202u, 303u, 404u, 505u}) {
    SharingSession session(chaos_host());
    const WindowId w = session.host().wm().create({0, 0, 160, 120}, 1);
    session.host().capturer().attach(
        w, std::make_unique<TerminalApp>(160, 120, 5));

    auto& faulted = session.add_udp_participant(resilient_participant(), fast_udp());
    auto& witness = session.add_udp_participant(resilient_participant(), fast_udp());
    faulted.participant->join();
    witness.participant->join();

    FaultSchedule faults(session.loop(), seed, &session.telemetry());
    faults.script_random(*faulted.down_udp, {});

    session.host().start();
    // Run through the whole schedule, then give the recovery ladder
    // (NACK retries -> PLI + backoff) a bounded window: 25 ticks.
    const SimTime deadline = faults.all_clear_at() + 25 * sim_ms(100);
    session.loop().run_until(deadline);
    session.host().stop();
    session.run_for(sim_sec(1));  // drain in-flight deliveries

    ASSERT_GT(faults.episodes_started(), 0u) << "seed " << seed;
    EXPECT_EQ(faults.episodes_cleared(), faults.episodes().size())
        << "seed " << seed;
    expect_converged(session, faulted, "faulted link");
    expect_converged(session, witness, "witness link");
  }
}

TEST(ChaosConvergence, SameSeedReplaysBitIdenticalTelemetry) {
  // Whole-system determinism: two identical runs (same schedule seed, same
  // links) produce byte-identical telemetry JSON — every counter in every
  // layer, including the jittered starvation/PLI machinery.
  const auto run = [] {
    SharingSession session(chaos_host());
    const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
    session.host().capturer().attach(
        w, std::make_unique<TerminalApp>(128, 96, 5));
    auto& conn = session.add_udp_participant(resilient_participant(), fast_udp());
    conn.participant->join();
    FaultSchedule faults(session.loop(), 777, &session.telemetry());
    faults.script_random(*conn.down_udp, {});
    session.host().start();
    session.loop().run_until(faults.all_clear_at() + sim_sec(2));
    session.host().stop();
    session.run_for(sim_sec(1));
    return telemetry::to_json(session.telemetry().snapshot());
  };
  EXPECT_EQ(run(), run());
}

TEST(ChaosConvergence, BlackoutStarvationRecoversViaWatchdogPli) {
  // Total blackout long enough to exhaust the NACK ladder: the participant
  // must escalate (bounded NACKs -> PLI with backoff) and still converge.
  SharingSession session(chaos_host());
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));

  ParticipantOptions popts = resilient_participant();
  auto& conn = session.add_udp_participant(popts, fast_udp());
  conn.participant->join();

  FaultSchedule faults(session.loop(), 5, &session.telemetry());
  faults.blackout(*conn.down_udp, sim_ms(600), sim_sec(2));

  session.host().start();
  session.loop().run_until(faults.all_clear_at() + sim_sec(3));
  session.host().stop();
  session.run_for(sim_sec(1));

  const auto& st = conn.participant->stats();
  EXPECT_GT(st.starvation_plis, 0u);  // the watchdog fired during the hole
  expect_converged(session, conn, "post-blackout");
}

TEST(ChaosConvergence, TcpStallAndCollapseReconverge) {
  SharingSession session(chaos_host());
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));

  TcpLinkConfig link;
  link.down.bandwidth_bps = 20'000'000;
  link.down.send_buffer_bytes = 256 * 1024;
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    auto& conn = session.add_tcp_participant(resilient_participant(), link);
    FaultSchedule faults(session.loop(), seed, &session.telemetry());
    RandomScheduleOptions ro;
    ro.start_us = session.loop().now() + sim_ms(500);
    ro.horizon_us = session.loop().now() + sim_sec(4);
    faults.script_random(*conn.down_tcp, ro);

    session.host().start();
    session.loop().run_until(faults.all_clear_at() + sim_ms(2500));
    session.host().stop();
    session.run_for(sim_sec(1));
    expect_converged(session, conn, "TCP faulted link");
    session.host().start();  // next seed reuses the session
  }
}

AppHostOptions adaptive_host() {
  AppHostOptions opts = chaos_host();
  opts.link.adaptation.enabled = true;
  opts.link.adaptation.min_rate_bps = 200'000;
  opts.link.adaptation.max_rate_bps = 50'000'000;
  opts.link.adaptation.initial_rate_bps = 20'000'000;
  // Probe back up fast enough that post-restore budgets clear the VideoApp
  // demand within a bounded test window.
  opts.link.adaptation.additive_increase_bps = 1'000'000;
  return opts;
}

TEST(ChaosConvergence, AdaptiveBandwidthCollapseMatrixReconverges) {
  // ISSUE 4 acceptance: the closed-loop controller must ride through a
  // bandwidth collapse — decrease into the hole, probe back out after the
  // restore — and still reconverge pixel-exact, across 5 seeds. The codec
  // stays PNG (lossless) so convergence is bit-exact; the quality ladder
  // has its own DCT test below.
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    SharingSession session(adaptive_host());
    const WindowId w = session.host().wm().create({0, 0, 160, 120}, 1);
    // Full-frame damage every tick: demand far exceeds the collapsed link,
    // so the loop must actually throttle (light content would ride through
    // the collapse untouched and prove nothing).
    session.host().capturer().attach(
        w, std::make_unique<VideoApp>(160, 120, 5));

    auto& conn = session.add_udp_participant(resilient_participant(), fast_udp());
    conn.participant->join();

    FaultSchedule faults(session.loop(), seed, &session.telemetry());
    faults.bandwidth_collapse(*conn.down_udp, sim_sec(1), sim_ms(2500),
                              /*collapsed_bps=*/300'000,
                              /*restore_bps=*/50'000'000);

    session.host().start();
    session.loop().run_until(faults.all_clear_at() + sim_sec(8));
    session.host().stop();
    session.run_for(sim_sec(1));

    const auto snap = session.telemetry().snapshot();
    EXPECT_GT(snap.counter("rate.decreases"), 0u) << "seed " << seed;
    EXPECT_GT(snap.counter("rate.increases"), 0u) << "seed " << seed;
    EXPECT_GE(snap.gauge("rate.p1.budget_bps"), 200'000) << "seed " << seed;
    expect_converged(session, conn, "adaptive collapse link");
  }
}

TEST(ChaosConvergence, AdaptiveGilbertElliottEpisodeRecovers) {
  // Burst loss (not a rate mismatch): the loop must cut on the lossy RRs,
  // then recover full budget and converge once the episode clears.
  // Retransmissions are disabled so interval loss reaches the RR unrepaired
  // (a successful NACK repair refills the received count within the same RR
  // interval and masks the signal); recovery then rides the per-sequence
  // NACK-escalation → PLI ladder.
  AppHostOptions host_opts = adaptive_host();
  host_opts.retransmissions = false;
  SharingSession session(host_opts);
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(128, 96, 5));

  auto& conn = session.add_udp_participant(resilient_participant(), fast_udp());
  conn.participant->join();

  FaultSchedule faults(session.loop(), 99, &session.telemetry());
  faults.burst_loss(*conn.down_udp, sim_sec(1), sim_sec(2));

  session.host().start();
  session.loop().run_until(faults.all_clear_at() + sim_sec(6));
  session.host().stop();
  session.run_for(sim_sec(1));

  const auto snap = session.telemetry().snapshot();
  EXPECT_GT(snap.counter("rate.decreases"), 0u);
  expect_converged(session, conn, "adaptive burst-loss link");
}

TEST(ChaosConvergence, AdaptiveSameSeedReplaysBitIdenticalTelemetry) {
  // Determinism of the whole closed loop: every rate.* counter and gauge —
  // the full adaptation trace — must replay byte-identically for the same
  // seed. Run the 5-seed matrix, two runs each.
  const auto run = [](std::uint64_t seed) {
    SharingSession session(adaptive_host());
    const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
    session.host().capturer().attach(
        w, std::make_unique<TerminalApp>(128, 96, 5));
    auto& conn = session.add_udp_participant(resilient_participant(), fast_udp());
    conn.participant->join();
    FaultSchedule faults(session.loop(), seed, &session.telemetry());
    faults.bandwidth_collapse(*conn.down_udp, sim_sec(1), sim_sec(2),
                              300'000, 50'000'000);
    faults.script_random(*conn.down_udp,
                         {.start_us = sim_sec(4), .horizon_us = sim_sec(7)});
    session.host().start();
    session.loop().run_until(faults.all_clear_at() + sim_sec(2));
    session.host().stop();
    session.run_for(sim_sec(1));
    return telemetry::to_json(session.telemetry().snapshot());
  };
  for (std::uint64_t seed : {61u, 62u, 63u, 64u, 65u}) {
    const std::string first = run(seed);
    EXPECT_EQ(first, run(seed)) << "seed " << seed;
    EXPECT_NE(first.find("rate.decreases"), std::string::npos);
  }
}

TEST(ChaosConvergence, AdaptiveDctEngagesQualityLadderUnderCollapse) {
  // With a lossy codec the controller also walks the quality/fps ladder:
  // mid-collapse the operating point must have degraded, and after the
  // restore it must climb back to the top rung. Convergence is asserted by
  // PSNR (DCT is lossy; pixel-exact is the PNG tests' job).
  AppHostOptions opts = adaptive_host();
  opts.codec = ContentPt::kDct;
  // Loss must reach the RRs while the collapse is still on: repairs are off
  // (NACK retransmissions landing inside an RR interval refill the received
  // count and mask queue-drop loss), and the down link gets a shallow
  // interface queue — the default 256 KiB buffer holds ~8 s of data at the
  // collapsed rate, so tail-drop sequence gaps would not drain into view
  // until after the restore (bufferbloat hiding the loss signal).
  opts.retransmissions = false;
  SharingSession session(opts);
  const WindowId w = session.host().wm().create({0, 0, 160, 120}, 1);
  session.host().capturer().attach(w, std::make_unique<VideoApp>(160, 120, 3));

  UdpLinkConfig link = fast_udp();
  link.down.queue_bytes = 32 * 1024;  // ~1 s of queue at the collapsed rate
  auto& conn = session.add_udp_participant(resilient_participant(), link);
  conn.participant->join();

  FaultSchedule faults(session.loop(), 7, &session.telemetry());
  faults.bandwidth_collapse(*conn.down_udp, sim_sec(1), sim_sec(5),
                            250'000, 50'000'000);

  session.host().start();
  session.run_for(sim_ms(5500));  // mid-collapse, past several lossy RRs
  {
    const auto snap = session.telemetry().snapshot();
    EXPECT_GT(snap.counter("rate.decreases"), 0u);
    const auto* op = session.host().participant_operating_point(1);
    ASSERT_NE(op, nullptr);
    // The operating point must have left the top of the schedule: a worse
    // quality rung, and — once the mid rungs are exhausted — a slower
    // frame cadence.
    EXPECT_GT(op->quality_step, 0);
  }
  session.loop().run_until(faults.all_clear_at() + sim_sec(20));
  session.host().stop();
  session.run_for(sim_sec(1));
  {
    const auto snap = session.telemetry().snapshot();
    EXPECT_GT(snap.counter("rate.quality_changes"), 0u);
    const auto* op = session.host().participant_operating_point(1);
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->quality_step, 0);  // clean air: back at the top rung
    EXPECT_EQ(op->fps_divisor, 1);
  }
  const Image& truth = session.host().capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  EXPECT_GT(psnr(truth, replica), 20.0);
}

TEST(ChaosConvergence, SilentParticipantIsEvictedAndStateReclaimed) {
  // A participant whose uplink dies completely goes stale and is then
  // evicted; the telemetry snapshot must show the transition, the eviction,
  // and the reclaimed AH-side state. The survivor keeps converging.
  AppHostOptions host_opts = chaos_host();
  host_opts.stale_after_us = sim_sec(2);
  host_opts.evict_after_us = sim_sec(4);
  SharingSession session(host_opts);
  const WindowId w = session.host().wm().create({0, 0, 128, 96}, 1);
  session.host().capturer().attach(w, std::make_unique<SlideshowApp>(128, 96, 3));

  auto& doomed = session.add_udp_participant(resilient_participant(), fast_udp());
  auto& survivor = session.add_udp_participant(resilient_participant(), fast_udp());
  doomed.participant->join();
  survivor.participant->join();

  // Kill the doomed participant's uplink for the rest of the run: its RRs,
  // NACKs and PLIs all vanish, so the AH hears nothing from it.
  FaultSchedule faults(session.loop(), 13, &session.telemetry());
  faults.blackout(*doomed.up_udp, sim_ms(200), sim_sec(30));

  session.host().start();
  session.run_for(sim_ms(2600));
  {
    auto snap = session.telemetry().snapshot();
    EXPECT_EQ(snap.gauge("liveness.stale"), 1);
    EXPECT_EQ(snap.counter("liveness.evictions"), 0u);
    EXPECT_EQ(snap.gauge("ah.participants"), 2);
  }
  session.run_for(sim_ms(2000));
  {
    auto snap = session.telemetry().snapshot();
    EXPECT_EQ(snap.counter("liveness.stale_transitions"), 1u);
    EXPECT_EQ(snap.counter("liveness.evictions"), 1u);
    EXPECT_EQ(snap.gauge("liveness.stale"), 0);     // the stale peer is gone
    EXPECT_EQ(snap.gauge("ah.participants"), 1);    // state reclaimed
    EXPECT_EQ(snap.counter("recovery.evicted_connections"), 1u);
    EXPECT_EQ(snap.counter("recovery.dropped_links"), 0u);  // not a drop_tcp()
  }
  EXPECT_EQ(session.host().participant_count(), 1u);
  // The doomed connection's channels were torn down by the session hook.
  EXPECT_EQ(doomed.down_udp, nullptr);
  EXPECT_EQ(doomed.up_udp, nullptr);

  session.host().stop();
  session.run_for(sim_sec(1));
  expect_converged(session, survivor, "survivor after eviction");
}

}  // namespace
}  // namespace ads
