// E3 — §7 TCP backlog policy.
//
// Claim under test: "Application hosts shouldn't blindly send every screen
// update ... they should monitor the state of their TCP transmission
// buffers ... and only send the most recent screen data when there is no
// backlog. This will prevent screen latency for rapidly-changing images."
//
// A rapidly-changing video window streams to one TCP participant across a
// bandwidth sweep. Policy "naive" sends every frame; policy "backlog"
// skips a participant's frame while its send buffer holds > 4 KB. The
// measured output is the participant-side frame age (now - RTP capture
// timestamp): median and p95, plus frames skipped.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/session.hpp"

namespace {

using namespace ads;
using namespace ads::bench;

struct AgeStats {
  double median_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;
  std::uint64_t skipped = 0;
  std::uint64_t delivered = 0;
};

AgeStats run_pipeline(std::uint64_t bandwidth_bps, std::size_t backlog_limit) {
  AppHostOptions host_opts;
  host_opts.screen_width = 320;
  host_opts.screen_height = 240;
  host_opts.frame_interval_us = sim_ms(100);
  host_opts.codec = ContentPt::kPng;
  host_opts.link.backlog_limit = backlog_limit;
  SharingSession session(host_opts);
  AppHost& host = session.host();

  const WindowId movie = host.wm().create({16, 16, 256, 192}, 1);
  host.capturer().attach(movie, std::make_unique<VideoApp>(256, 192, 7));

  TcpLinkConfig link;
  link.down.bandwidth_bps = bandwidth_bps;
  link.down.delay_us = 30'000;
  link.down.send_buffer_bytes = 512 * 1024;
  auto& conn = session.add_tcp_participant({}, link);

  host.start();
  session.run_for(sim_sec(10));
  host.stop();
  session.run_for(sim_sec(2));

  std::vector<double> ages_ms;
  for (const auto& d : conn.participant->drain_deliveries()) {
    const SimTime captured_us = host.remoting_timestamp_to_us(d.rtp_timestamp);
    if (d.arrived_us >= captured_us) {
      ages_ms.push_back(static_cast<double>(d.arrived_us - captured_us) / 1000.0);
    }
  }
  AgeStats out;
  out.delivered = ages_ms.size();
  out.skipped = host.stats().frames_skipped_backlog;
  out.median_ms = percentile(ages_ms, 0.5);
  out.p95_ms = percentile(ages_ms, 0.95);
  out.max_ms = percentile(ages_ms, 1.0);
  return out;
}

void run_bench(benchmark::State& state, std::size_t backlog_limit) {
  const std::uint64_t bw = static_cast<std::uint64_t>(state.range(0)) * 1'000'000ull;
  AgeStats stats;
  for (auto _ : state) stats = run_pipeline(bw, backlog_limit);
  state.counters["age_median_ms"] = stats.median_ms;
  state.counters["age_p95_ms"] = stats.p95_ms;
  state.counters["age_max_ms"] = stats.max_ms;
  state.counters["frames_skipped"] = static_cast<double>(stats.skipped);
  state.counters["updates_delivered"] = static_cast<double>(stats.delivered);
  record_counters("backlog",
                  std::string("E3/backlog/") +
                      (backlog_limit == 0 ? "naive_send_all"
                                          : "skip_when_backlogged") +
                      "/" + std::to_string(state.range(0)) + "mbps",
                  state.counters);
}

void naive(benchmark::State& state) { run_bench(state, 0); }
void backlog_aware(benchmark::State& state) { run_bench(state, 4096); }

// Bandwidth sweep in Mbit/s. The video stream needs roughly 4-6 Mbit/s as
// PNG, so 1-4 Mbit/s is the congested regime where §7 matters.
BENCHMARK(naive)
    ->Name("E3/backlog/naive_send_all")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(backlog_aware)
    ->Name("E3/backlog/skip_when_backlogged")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
