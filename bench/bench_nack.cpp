// E4 — UDP loss repair via Generic NACK retransmissions (draft §5.3.2 and
// the SDP "retransmissions" parameter, §9.3.1).
//
// A terminal workload streams over UDP at loss rates 0-20%. With
// retransmissions=yes the participant NACKs missing packets and the AH
// resends from its cache; with retransmissions=no the only repair is the
// PLI full refresh. Counters: residual divergence while lossy, PLIs,
// retransmissions, total AH bytes (repair overhead), and the AH store's
// rtx.misses and rtx.evictions from the session snapshot.
//
// The loss probe (E4/probe/<rtt ms>/<loss per mille>/<jitter ms>): four
// UDP viewers of a 480x360 video window on 100 Mbit/s links for 10 s, then
// 20 frozen ticks with a pointer move each and 500 ms to settle. Downlink
// loss and jitter stay on throughout; counts are summed over the viewers,
// and converged_viewers counts those pixel-identical to the AH's frame
// after the drain.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

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

/// An application frozen on the content it was given.
class FrozenApp final : public AppPainter {
 public:
  explicit FrozenApp(const Image& content)
      : AppPainter(content.width(), content.height(), kBlack) {
    content_ = content;
  }
  void tick(std::uint64_t) override {}
  std::string_view name() const override { return "frozen"; }
};

struct ProbeStats {
  std::uint64_t lost = 0;  ///< downlink datagrams the links dropped
  std::uint64_t nacks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t abandoned_gaps = 0;
  std::uint64_t plis = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t ah_bytes = 0;
  std::uint64_t converged_viewers = 0;
};

ProbeStats run_probe(SimTime rtt_us, double loss, SimTime jitter_us) {
  constexpr int kViewers = 4;
  AppHostOptions host_opts;
  host_opts.screen_width = 640;
  host_opts.screen_height = 480;
  SharingSession session(host_opts);
  AppHost& host = session.host();
  const Rect window{80, 60, 480, 360};
  const WindowId id = host.wm().create(window, 1);
  host.capturer().attach(id, std::make_unique<VideoApp>(window.width, window.height, 5));

  std::vector<SharingSession::Connection*> viewers;
  for (int i = 0; i < kViewers; ++i) {
    UdpLinkConfig link;
    for (UdpChannelOptions* dir : {&link.down, &link.up}) {
      dir->delay_us = rtt_us / 2;
      dir->bandwidth_bps = 100'000'000;
    }
    link.down.seed = 1000 + 2 * static_cast<std::uint64_t>(i);
    link.up.seed = 1001 + 2 * static_cast<std::uint64_t>(i);
    link.down.loss = loss;
    link.down.jitter_us = jitter_us;
    ParticipantOptions popts;
    popts.screen_width = host_opts.screen_width;
    popts.screen_height = host_opts.screen_height;
    viewers.push_back(&session.add_udp_participant(popts, link));
    viewers.back()->participant->join();
  }
  host.start();
  session.run_for(sim_sec(10));
  host.capturer().attach(id, std::make_unique<FrozenApp>(host.capturer().app(id)->content()));
  for (int i = 1; i <= 20; ++i) {
    host.set_pointer({window.left + i, window.top + i});
    session.run_for(host_opts.frame_interval_us);
  }
  session.run_for(sim_ms(500));

  ProbeStats out;
  const Image& truth = host.capturer().last_frame();
  for (const SharingSession::Connection* c : viewers) {
    const Participant::Stats& st = c->participant->stats();
    out.lost += c->down_udp->stats().lost;
    out.nacks += st.nacks_sent;
    out.abandoned_gaps += st.gaps_skipped;
    out.plis += st.plis_sent;
    out.decode_errors += st.decode_errors;
    out.converged_viewers += diff_pixel_count(truth, c->participant->screen()) == 0;
  }
  out.retransmissions = host.stats().retransmissions_sent;
  out.ah_bytes = host.stats().bytes_sent;
  host.stop();
  return out;
}

void loss_probe(benchmark::State& state) {
  const SimTime rtt_us = sim_ms(static_cast<std::uint64_t>(state.range(0)));
  const double loss = static_cast<double>(state.range(1)) / 1000.0;
  const SimTime jitter_us = sim_ms(static_cast<std::uint64_t>(state.range(2)));
  ProbeStats stats;
  for (auto _ : state) stats = run_probe(rtt_us, loss, jitter_us);
  state.counters["lost"] = static_cast<double>(stats.lost);
  state.counters["nacks"] = static_cast<double>(stats.nacks);
  state.counters["retransmissions"] = static_cast<double>(stats.retransmissions);
  state.counters["abandoned_gaps"] = static_cast<double>(stats.abandoned_gaps);
  state.counters["plis"] = static_cast<double>(stats.plis);
  state.counters["decode_errors"] = static_cast<double>(stats.decode_errors);
  state.counters["ah_bytes"] = static_cast<double>(stats.ah_bytes);
  state.counters["converged_viewers"] = static_cast<double>(stats.converged_viewers);
  bench::record_counters("nack",
                         "E4/probe/" + std::to_string(state.range(0)) + "/" +
                             std::to_string(state.range(1)) + "/" +
                             std::to_string(state.range(2)),
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
// Args: RTT ms, downlink loss per mille, downlink jitter ms.
BENCHMARK(loss_probe)
    ->Name("E4/probe")
    ->Args({40, 1, 0})
    ->Args({40, 10, 0})
    ->Args({80, 1, 0})
    ->Args({80, 10, 0})
    ->Args({160, 1, 0})
    ->Args({160, 10, 0})
    ->Args({40, 0, 2})
    ->Args({40, 0, 5})
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
