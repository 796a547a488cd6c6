// E11 — §4.3 UDP rate control ablation.
//
// "The AH controls the transmission rate for participants using UDP,
// because UDP itself does not provide flow and congestion control."
//
// A video window streams over a 2 Mbit/s UDP path with a 32 KB interface
// queue. The AH's token-bucket target sweeps from far-below to far-above
// the link rate; a 0-target row is the uncontrolled baseline. Counters:
// offered rate, queue drops (what uncontrolled sending costs), recovery
// traffic (PLIs), and the participant-side median update age (staleness).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/fault_schedule.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"

namespace {

using namespace ads;

struct RunStats {
  double offered_bps = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t frames_skipped = 0;
  std::uint64_t plis = 0;
  double median_age_ms = 0;
};

RunStats run_pipeline(std::uint64_t rate_bps) {
  AppHostOptions host_opts;
  host_opts.screen_width = 320;
  host_opts.screen_height = 240;
  host_opts.frame_interval_us = sim_ms(100);
  host_opts.link.rate_bps = rate_bps;
  host_opts.link.burst_bytes = 16 * 1024;
  SharingSession session(host_opts);
  AppHost& host = session.host();
  const WindowId movie = host.wm().create({16, 16, 256, 192}, 1);
  host.capturer().attach(movie, std::make_unique<VideoApp>(256, 192, 7));

  UdpLinkConfig link;
  link.down.delay_us = 10'000;
  link.down.bandwidth_bps = 2'000'000;
  link.down.queue_bytes = 32 * 1024;
  link.up.delay_us = 10'000;
  auto& conn = session.add_udp_participant({}, link);
  conn.participant->join();
  host.start();
  session.run_for(sim_sec(8));

  RunStats out;
  out.offered_bps = static_cast<double>(host.stats().bytes_sent) * 8.0 / 8.0;
  out.queue_dropped = conn.down_udp->stats().queue_dropped;
  out.frames_skipped = host.stats().frames_skipped_rate;
  out.plis = conn.participant->stats().plis_sent;

  std::vector<double> ages_ms;
  for (const auto& d : conn.participant->drain_deliveries()) {
    const SimTime captured_us = host.remoting_timestamp_to_us(d.rtp_timestamp);
    if (d.arrived_us >= captured_us) {
      ages_ms.push_back(static_cast<double>(d.arrived_us - captured_us) / 1000.0);
    }
  }
  out.median_age_ms = ads::bench::percentile(ages_ms, 0.5);
  return out;
}

void rate_control(benchmark::State& state) {
  const std::uint64_t rate_bps =
      static_cast<std::uint64_t>(state.range(0)) * 100'000ull;
  RunStats stats;
  for (auto _ : state) stats = run_pipeline(rate_bps);
  state.counters["target_kbps"] = static_cast<double>(rate_bps) / 1000.0;
  state.counters["offered_kbps"] = stats.offered_bps / 1000.0;
  state.counters["queue_dropped"] = static_cast<double>(stats.queue_dropped);
  state.counters["frames_skipped"] = static_cast<double>(stats.frames_skipped);
  state.counters["plis"] = static_cast<double>(stats.plis);
  state.counters["update_age_median_ms"] = stats.median_age_ms;
  ads::bench::record_counters(
      "ratecontrol",
      "E11/udp_rate_control/" + std::to_string(state.range(0) * 100) + "kbps",
      state.counters);
}

// Arg = target rate in 100 kbit/s units; 0 = uncontrolled baseline.
BENCHMARK(rate_control)
    ->Name("E11/udp_rate_control")
    ->Arg(0)
    ->Arg(5)
    ->Arg(10)
    ->Arg(15)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ---------------------------------------------------------------------------
// E16 — static vs adaptive rate control under changing links.
//
// The E11 sweep shows a well-chosen static token bucket beats uncontrolled
// sending — but any static choice is only right for one link. E16 ablates
// the ads::rate closed loop against static targets across three link
// profiles: a permanent step-down, a collapse-and-restore, and a
// Gilbert–Elliott burst-loss episode. Counters: stall time (longest gap in
// the participant's delivery stream — what a viewer perceives as a frozen
// screen), median update age, queue drops, adaptation events, and final
// replica PSNR.

struct E16Stats {
  double stall_ms = 0;        ///< max inter-delivery gap (incl. run tail)
  double median_age_ms = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t decreases = 0;
  std::uint64_t increases = 0;
  double psnr_db = 0;
};

constexpr SimTime kE16Horizon = sim_sec(12);

E16Stats run_e16(int profile, std::uint64_t static_rate_bps, bool adaptive) {
  AppHostOptions host_opts;
  host_opts.screen_width = 320;
  host_opts.screen_height = 240;
  host_opts.frame_interval_us = sim_ms(100);
  if (adaptive) {
    host_opts.link.adaptation.enabled = true;
    host_opts.link.adaptation.min_rate_bps = 200'000;
    host_opts.link.adaptation.max_rate_bps = 8'000'000;
    host_opts.link.adaptation.initial_rate_bps = 4'000'000;
    host_opts.link.adaptation.additive_increase_bps = 500'000;
    // Converge fast: halve on congestion (classic AIMD) and let the tighter
    // RR cadence below deliver the signal twice a second.
    host_opts.link.adaptation.multiplicative_decrease = 0.5;
    host_opts.link.adaptation.decrease_holdoff_us = sim_ms(400);
  } else {
    host_opts.link.rate_bps = static_rate_bps;
    host_opts.link.burst_bytes = 16 * 1024;
  }
  SharingSession session(host_opts);
  AppHost& host = session.host();
  const WindowId movie = host.wm().create({16, 16, 256, 192}, 1);
  host.capturer().attach(movie, std::make_unique<VideoApp>(256, 192, 7));

  UdpLinkConfig link;
  link.down.delay_us = 10'000;
  link.down.bandwidth_bps = 8'000'000;
  // Shallow interface queue: tail-drop loss surfaces inside one RR interval
  // instead of hiding behind seconds of bufferbloat.
  link.down.queue_bytes = 32 * 1024;
  link.up.delay_us = 10'000;
  ParticipantOptions part_opts;
  part_opts.rr_interval_us = sim_ms(500);  // same feedback cadence for all rows
  auto& conn = session.add_udp_participant(part_opts, link);
  conn.participant->join();

  chaos::FaultSchedule faults(session.loop(), 16, &session.telemetry());
  switch (profile) {
    case 0:  // permanent step-down to 1 Mbit/s at t = 2 s
      faults.bandwidth_collapse(*conn.down_udp, sim_sec(2),
                                kE16Horizon - sim_sec(2), 1'000'000, 1'000'000);
      break;
    case 1:  // collapse to 400 kbit/s for 3 s, then full restore
      faults.bandwidth_collapse(*conn.down_udp, sim_sec(2), sim_sec(3),
                                400'000, 8'000'000);
      break;
    case 2:  // Gilbert–Elliott burst-loss episode
      faults.burst_loss(*conn.down_udp, sim_sec(2), sim_sec(3), {});
      break;
  }

  host.start();
  session.loop().run_until(kE16Horizon);
  host.stop();
  session.run_for(sim_ms(500));

  E16Stats out;
  out.queue_dropped = conn.down_udp->stats().queue_dropped;
  const auto snap = session.telemetry().snapshot();
  out.decreases = snap.counter("rate.decreases");
  out.increases = snap.counter("rate.increases");

  std::vector<double> ages_ms;
  SimTime prev_arrival = 0;
  double max_gap_us = 0;
  for (const auto& d : conn.participant->drain_deliveries()) {
    const SimTime captured_us = host.remoting_timestamp_to_us(d.rtp_timestamp);
    if (d.arrived_us >= captured_us) {
      ages_ms.push_back(static_cast<double>(d.arrived_us - captured_us) / 1000.0);
    }
    max_gap_us = std::max(
        max_gap_us, static_cast<double>(d.arrived_us - prev_arrival));
    prev_arrival = d.arrived_us;
  }
  // The tail counts: a stream that dies mid-run stalls until the horizon.
  // (Arrivals can land past the horizon during the drain window — no tail
  // gap in that case.)
  if (prev_arrival < kE16Horizon) {
    max_gap_us =
        std::max(max_gap_us, static_cast<double>(kE16Horizon - prev_arrival));
  }
  out.stall_ms = max_gap_us / 1000.0;
  out.median_age_ms = ads::bench::percentile(ages_ms, 0.5);

  const Image& truth = host.capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  out.psnr_db = psnr(truth, replica);
  return out;
}

void rate_adaptation(benchmark::State& state) {
  const int profile = static_cast<int>(state.range(0));
  const std::uint64_t static_rate_bps =
      static_cast<std::uint64_t>(state.range(1)) * 100'000ull;
  const bool adaptive = state.range(1) == 0;
  E16Stats stats;
  for (auto _ : state) stats = run_e16(profile, static_rate_bps, adaptive);
  state.counters["adaptive"] = adaptive ? 1.0 : 0.0;
  state.counters["static_kbps"] = static_cast<double>(static_rate_bps) / 1000.0;
  state.counters["stall_ms"] = stats.stall_ms;
  state.counters["update_age_median_ms"] = stats.median_age_ms;
  state.counters["queue_dropped"] = static_cast<double>(stats.queue_dropped);
  state.counters["rate_decreases"] = static_cast<double>(stats.decreases);
  state.counters["rate_increases"] = static_cast<double>(stats.increases);
  state.counters["psnr_db"] = stats.psnr_db;
  static const char* kProfiles[] = {"stepdown", "collapse", "burstloss"};
  const std::string mode =
      adaptive ? "adaptive"
               : "static_" + std::to_string(static_rate_bps / 1000) + "kbps";
  ads::bench::record_counters(
      "ratecontrol",
      std::string("E16/") + kProfiles[profile] + "/" + mode, state.counters);
}

// Args = {link profile, static rate in 100 kbit/s units (0 = adaptive)}.
// Static rates bracket the step-down/collapse floors: 1, 4, and 8 Mbit/s.
BENCHMARK(rate_adaptation)
    ->Name("E16/static_vs_adaptive")
    ->Args({0, 0})
    ->Args({0, 10})
    ->Args({0, 40})
    ->Args({0, 80})
    ->Args({1, 0})
    ->Args({1, 10})
    ->Args({1, 40})
    ->Args({1, 80})
    ->Args({2, 0})
    ->Args({2, 10})
    ->Args({2, 40})
    ->Args({2, 80})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
