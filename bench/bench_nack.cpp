// E4 — UDP loss repair via Generic NACK retransmissions (draft §5.3.2 and
// the SDP "retransmissions" parameter, §9.3.1).
//
// A terminal workload streams over UDP at loss rates 0-20%. With
// retransmissions=yes the participant NACKs missing packets and the AH
// resends from its cache; with retransmissions=no the only repair is the
// PLI full refresh. Counters: residual divergence while lossy, PLIs,
// retransmissions, total AH bytes (repair overhead), and the AH store's
// rtx.misses and rtx.evictions from the session snapshot.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace ads;

struct RepairStats {
  std::uint64_t nacks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t plis = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rtx_misses = 0;     ///< NACKed sequences no longer cached
  std::uint64_t rtx_evictions = 0;  ///< packets aged out of the store
  std::int64_t residual_diff = 0;  ///< divergence measured during loss
  std::int64_t final_diff = 0;     ///< after the link heals
};

RepairStats run_pipeline(double loss, bool retransmissions) {
  AppHostOptions host_opts;
  host_opts.screen_width = 320;
  host_opts.screen_height = 240;
  host_opts.frame_interval_us = sim_ms(100);
  host_opts.retransmissions = retransmissions;
  SharingSession session(host_opts);
  AppHost& host = session.host();

  const WindowId term = host.wm().create({16, 16, 256, 192}, 1);
  host.capturer().attach(term, std::make_unique<TerminalApp>(256, 192, 5));

  UdpLinkConfig link;
  link.down.delay_us = 30'000;
  link.down.loss = loss;
  link.down.bandwidth_bps = 50'000'000;
  link.down.seed = 1234;
  link.up.delay_us = 30'000;
  ParticipantOptions popts;
  popts.send_nacks = retransmissions;
  auto& conn = session.add_udp_participant(popts, link);
  conn.participant->join();

  host.start();
  session.run_for(sim_sec(8));

  RepairStats out;
  {
    const Image& truth = host.capturer().last_frame();
    const Image replica =
        conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
    out.residual_diff = diff_pixel_count(truth, replica);
  }

  conn.down_udp->set_loss(0.0);
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  out.nacks = conn.participant->stats().nacks_sent;
  out.retransmissions = host.stats().retransmissions_sent;
  out.plis = conn.participant->stats().plis_sent;
  out.bytes = host.stats().bytes_sent;
  const Image& truth = host.capturer().last_frame();
  const Image replica =
      conn.participant->screen().crop({0, 0, truth.width(), truth.height()});
  out.final_diff = diff_pixel_count(truth, replica);
  const telemetry::Snapshot snap = session.telemetry().snapshot();
  out.rtx_misses = snap.counter("rtx.misses");
  out.rtx_evictions = snap.counter("rtx.evictions");
  // Embed the full cross-layer metrics snapshot of the last case run, so
  // BENCH_nack.json carries the session internals behind the counters.
  bench::json_report("nack").set_metrics_json(telemetry::to_json(snap));
  return out;
}

void run_bench(benchmark::State& state, bool retransmissions) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  RepairStats stats;
  for (auto _ : state) stats = run_pipeline(loss, retransmissions);
  state.counters["nacks"] = static_cast<double>(stats.nacks);
  state.counters["retransmissions"] = static_cast<double>(stats.retransmissions);
  state.counters["plis"] = static_cast<double>(stats.plis);
  state.counters["ah_bytes"] = static_cast<double>(stats.bytes);
  state.counters["rtx_misses"] = static_cast<double>(stats.rtx_misses);
  state.counters["rtx_evictions"] = static_cast<double>(stats.rtx_evictions);
  state.counters["residual_diff_px"] = static_cast<double>(stats.residual_diff);
  state.counters["converged_after_heal"] = stats.final_diff == 0 ? 1 : 0;
  bench::record_counters("nack",
                         std::string("E4/loss/retransmissions_") +
                             (retransmissions ? "yes" : "no") + "/" +
                             std::to_string(state.range(0)),
                         state.counters);
}

void with_retransmissions(benchmark::State& state) { run_bench(state, true); }
void without_retransmissions(benchmark::State& state) { run_bench(state, false); }

BENCHMARK(with_retransmissions)
    ->Name("E4/loss/retransmissions_yes")
    ->Arg(0)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(without_retransmissions)
    ->Name("E4/loss/retransmissions_no")
    ->Arg(0)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
