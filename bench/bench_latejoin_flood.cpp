// E19 — flash-crowd late-join: checkpoint snapshot service vs the tick's
// cohort encode (docs/LATEJOIN.md).
//
// A warm session goes static, then a join flood (chaos::kJoinFlood
// scripting, fixed seed) lands a cohort of N joiners inside one refresh
// window. Both arms measure join-to-first-frame latency per joiner and the
// AH's encode work across the wave:
//
//   * cohort   — snapshots off; joiners whose PLIs land before the same
//                tick share that tick's cohort encode of the full screen,
//                so bands requested grow with the ticks the wave spans.
//   * snapshot — the first PLI opens the window, the whole wave shares one
//                checkpoint bundle, and bands requested stay at one encode.
//
// The content is static after warm-up, so post-warm-up encodes are refresh
// encodes only and the counters are exact, not a timing heuristic. The CI
// smoke asserts ≤1 cohort encode per join wave on the snapshot arm, and
// that the cohort arm is flat in N but above the snapshot arm.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "chaos/fault_schedule.hpp"
#include "core/session.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace ads;

constexpr std::int64_t kWidth = 640;
constexpr std::int64_t kHeight = 480;

struct FloodStats {
  double joined = 0;             ///< joiners that reached a full frame
  double join_ms_mean = -1;      ///< PLI → full-frame latency, cohort mean
  double join_ms_max = -1;
  double bands_encoded_wave = 0; ///< unique encodes across the wave
  double bands_requested_wave = 0;  ///< encoder band requests across the wave
  double bundles_built = 0;
  double windows_opened = 0;
  double encodes_saved = 0;
  double shared = 0;
  double fallback = 0;
};

FloodStats run_flood(int cohort, bool snapshot_on) {
  AppHostOptions opts;
  opts.screen_width = kWidth;
  opts.screen_height = kHeight;
  opts.frame_interval_us = sim_ms(100);
  opts.snapshot.enabled = snapshot_on;
  opts.snapshot.refresh_interval_us = sim_ms(300);
  SharingSession session(opts);
  AppHost& host = session.host();

  // Static after the first paint: every post-warm-up encode is a refresh.
  const WindowId w = host.wm().create({0, 0, kWidth, kHeight}, 1);
  host.capturer().attach(
      w, std::make_unique<SlideshowApp>(kWidth, kHeight, 3, 1'000'000));
  host.start();
  session.run_for(sim_sec(1));

  UdpLinkConfig link;
  link.down.delay_us = 20'000;
  link.down.bandwidth_bps = 50'000'000;
  link.up.delay_us = 20'000;
  ParticipantOptions popts;
  popts.starvation_timeout_us = 0;  // the wave is scripted; no organic re-PLIs
  std::vector<SharingSession::Connection*> crowd;
  for (int i = 0; i < cohort; ++i) {
    crowd.push_back(&session.add_udp_participant(popts, link));
  }

  const telemetry::Snapshot before = session.telemetry().snapshot();

  // The flood: the whole cohort joins across a 150ms window — inside one
  // 300ms refresh window on the snapshot arm.
  std::vector<SimTime> join_at(static_cast<std::size_t>(cohort), 0);
  chaos::FaultSchedule faults(session.loop(), /*seed=*/17);
  faults.join_flood(session.loop().now(), sim_ms(150),
                    static_cast<std::size_t>(cohort), [&](std::size_t i) {
                      join_at[i] = session.loop().now();
                      crowd[i]->participant->join();
                    });
  session.run_for(sim_sec(4));
  host.stop();
  session.run_for(sim_sec(1));

  FloodStats out;
  const telemetry::Snapshot after = session.telemetry().snapshot();
  // The EncodedRegionCache already dedupes the actual codec runs, so the
  // signal is the encoder *requests*: the cohort arm consults the encoder
  // (cache included) once per tick the wave spans, while the snapshot arm
  // serves the whole wave from one bundle.
  out.bands_encoded_wave =
      static_cast<double>(after.counter("encoder.bands_encoded") -
                          before.counter("encoder.bands_encoded"));
  out.bands_requested_wave =
      static_cast<double>(after.counter("encoder.bands_requested") -
                          before.counter("encoder.bands_requested"));
  const auto& sn = host.snapshot_service().stats();
  out.bundles_built = static_cast<double>(sn.bundles_built);
  out.windows_opened = static_cast<double>(sn.windows_opened);
  out.encodes_saved = static_cast<double>(sn.encodes_saved);
  out.shared = static_cast<double>(host.stats().join_shared_refreshes);
  out.fallback = static_cast<double>(host.stats().join_fallback_refreshes);

  // Join-to-first-frame: the refresh arrives as full-width bands; a join
  // completes when their cumulative area covers the screen.
  double sum_ms = 0;
  for (std::size_t i = 0; i < crowd.size(); ++i) {
    std::int64_t covered = 0;
    for (const auto& d : crowd[i]->participant->drain_deliveries()) {
      if (d.arrived_us <= join_at[i] || d.region.width != kWidth) continue;
      covered += d.region.area();
      if (covered >= kWidth * kHeight) {
        const double ms =
            static_cast<double>(d.arrived_us - join_at[i]) / 1000.0;
        sum_ms += ms;
        out.join_ms_max = std::max(out.join_ms_max, ms);
        out.joined += 1;
        break;
      }
    }
  }
  if (out.joined > 0) out.join_ms_mean = sum_ms / out.joined;
  return out;
}

void run_bench(benchmark::State& state, bool snapshot_on) {
  const int cohort = static_cast<int>(state.range(0));
  FloodStats stats;
  for (auto _ : state) stats = run_flood(cohort, snapshot_on);
  state.counters["cohort"] = cohort;
  state.counters["joined"] = stats.joined;
  state.counters["join_ms_mean"] = stats.join_ms_mean;
  state.counters["join_ms_max"] = stats.join_ms_max;
  state.counters["bands_encoded_wave"] = stats.bands_encoded_wave;
  state.counters["bands_requested_wave"] = stats.bands_requested_wave;
  state.counters["bundles_built"] = stats.bundles_built;
  state.counters["windows_opened"] = stats.windows_opened;
  state.counters["encodes_saved"] = stats.encodes_saved;
  state.counters["shared_refreshes"] = stats.shared;
  state.counters["fallback_refreshes"] = stats.fallback;
  bench::record_counters("latejoin_flood",
                         std::string("E19/flood/") +
                             (snapshot_on ? "snapshot" : "cohort") + "/" +
                             std::to_string(cohort),
                         state.counters);
}

void cohort(benchmark::State& state) { run_bench(state, false); }
void snapshot(benchmark::State& state) { run_bench(state, true); }

BENCHMARK(cohort)
    ->Name("E19/flood/cohort")
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(snapshot)
    ->Name("E19/flood/snapshot")
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
