// E20 — device-class diversity: per-cohort output geometry
// (docs/TRANSCODE.md).
//
// A webpage workload (tiled incremental loads) streams to a mixed audience.
// Two arms, same viewer count:
//
//   * fullres — geometry-blind baseline: every viewer receives the host's
//               native resolution, whatever it can actually display.
//   * classes — viewers split across device classes (full, half rung,
//               quarter rung, half-rung viewport crop); each class forms
//               its own (geometry × rung) cohort and is encoded once from
//               the FrameScaler's per-tick cache.
//
// Measured per arm: bytes per viewer per device class, scaled-replica
// fidelity per class (PSNR against the box-filtered truth; 0 = lossless,
// the codec-bench convention), and the AH's encode/scale work. The
// headline acceptance: a quarter-rung viewer costs ≤ ~30% of a full-res
// viewer's bytes at identical per-class fidelity.
//
// The E20/cohort case is the CI determinism gate: five viewers across
// three rungs admitted in one tick must form exactly three cohorts, 7
// unique band encodes (4 full + 2 half + 1 quarter at 64-row bands on
// 320×240) and two scaled frames — one encode per (geometry × rung) cohort
// per tick, with no duplicate scaler work.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "rtp/rtcp.hpp"
#include "transcode/transcode.hpp"

namespace {

using namespace ads;

struct ClassSpec {
  const char* name;
  transcode::OutputGeometry geom;
};

struct WorkloadSpec {
  const char* name;
  std::int64_t width;
  std::int64_t height;
};

// Two content classes with opposite downscale economics: the webpage's
// typeset text compresses superbly at native resolution but box-averages
// into high-entropy grey, so the quarter rung keeps ~half the bytes; the
// photographic video class barely compresses at any rung, so bytes track
// pixel count and the quarter rung pays ~1/16.
constexpr WorkloadSpec kWorkloads[] = {
    {"webpage", 640, 480},
    {"video", 320, 240},
};

std::vector<ClassSpec> device_classes(const WorkloadSpec& wl) {
  return {
      {"full", {}},
      {"half", {1, {}, false}},
      {"quarter", {2, {}, false}},
      {"viewport",
       {1, {wl.width / 4, wl.height / 4, wl.width / 2, wl.height / 2}, false}},
  };
}

struct ArmStats {
  double bytes_per_viewer[4] = {0, 0, 0, 0};  ///< indexed like kClasses
  double psnr[4] = {-1, -1, -1, -1};          ///< 0 = lossless
  double diff_px[4] = {0, 0, 0, 0};
  double bytes_total = 0;
  double cohorts = 0;
  double encodes_unique = 0;
  double frames_scaled = 0;
  double scaler_cache_hits = 0;
};

ArmStats run_arm(const WorkloadSpec& wl, int per_class, bool classes_on) {
  const std::vector<ClassSpec> classes = device_classes(wl);
  AppHostOptions opts;
  opts.screen_width = wl.width;
  opts.screen_height = wl.height;
  opts.frame_interval_us = sim_ms(100);
  SharingSession session(opts);
  AppHost& host = session.host();

  const WindowId w = host.wm().create({0, 0, wl.width, wl.height}, 1);
  host.capturer().attach(w, make_app(wl.name, wl.width, wl.height, 7));

  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 100'000'000;
  link.up.delay_us = 2000;
  std::vector<SharingSession::Connection*> viewers;
  for (std::size_t cls = 0; cls < classes.size(); ++cls) {
    for (int i = 0; i < per_class; ++i) {
      auto& conn = session.add_udp_participant({}, link);
      if (classes_on) {
        host.set_participant_geometry(conn.id, classes[cls].geom);
      }
      viewers.push_back(&conn);
    }
  }

  host.start();
  for (auto* v : viewers) v->participant->join();
  session.run_for(sim_sec(4));  // tiles load, a navigation or two lands
  host.stop();
  session.run_for(sim_sec(1));

  ArmStats out;
  const AppHost::Stats& s = host.stats();
  const double full_viewers =
      classes_on ? per_class : static_cast<double>(viewers.size());
  out.bytes_per_viewer[0] = static_cast<double>(s.bytes_sent_full) / full_viewers;
  if (classes_on) {
    out.bytes_per_viewer[1] = static_cast<double>(s.bytes_sent_half) / per_class;
    out.bytes_per_viewer[2] =
        static_cast<double>(s.bytes_sent_quarter) / per_class;
    out.bytes_per_viewer[3] =
        static_cast<double>(s.bytes_sent_viewport) / per_class;
  }
  out.bytes_total = static_cast<double>(s.bytes_sent);
  out.cohorts = static_cast<double>(s.fanout_cohorts);
  out.encodes_unique = static_cast<double>(s.fanout_encodes_unique);
  out.frames_scaled = static_cast<double>(host.scaler().stats().frames_scaled);
  out.scaler_cache_hits =
      static_cast<double>(host.scaler().stats().cache_hits);

  // Per-class fidelity against the geometry-transformed truth (the codec is
  // lossless, so any divergence is a transcode-path bug, not noise).
  const Image& truth = host.capturer().last_frame();
  for (std::size_t cls = 0; cls < classes.size(); ++cls) {
    const transcode::OutputGeometry geom =
        classes_on ? classes[cls].geom : transcode::OutputGeometry{};
    const Image want = transcode::scale_frame(truth, geom);
    const Image got =
        viewers[cls * static_cast<std::size_t>(per_class)]
            ->participant->screen()
            .crop(want.bounds());
    const double db = psnr(want, got);
    out.psnr[cls] = std::isfinite(db) ? db : 0.0;  // 0 = lossless
    out.diff_px[cls] = static_cast<double>(diff_pixel_count(want, got));
  }
  return out;
}

void run_bench(benchmark::State& state, bool classes_on) {
  const WorkloadSpec& wl = kWorkloads[static_cast<std::size_t>(state.range(0))];
  const int per_class = static_cast<int>(state.range(1));
  const std::vector<ClassSpec> classes = device_classes(wl);
  ArmStats stats;
  for (auto _ : state) stats = run_arm(wl, per_class, classes_on);
  state.counters["per_class"] = per_class;
  for (std::size_t cls = 0; cls < classes.size(); ++cls) {
    const std::string n = classes[cls].name;
    state.counters["bytes_per_viewer_" + n] = stats.bytes_per_viewer[cls];
    state.counters["psnr_" + n] = stats.psnr[cls];
    state.counters["diff_px_" + n] = stats.diff_px[cls];
  }
  state.counters["bytes_total"] = stats.bytes_total;
  state.counters["cohorts"] = stats.cohorts;
  state.counters["encodes_unique"] = stats.encodes_unique;
  state.counters["frames_scaled"] = stats.frames_scaled;
  state.counters["scaler_cache_hits"] = stats.scaler_cache_hits;
  bench::record_counters("transcode",
                         std::string("E20/geometry/") + wl.name + "/" +
                             (classes_on ? "classes" : "fullres") + "/" +
                             std::to_string(per_class),
                         state.counters);
}

void fullres(benchmark::State& state) { run_bench(state, false); }
void classes(benchmark::State& state) { run_bench(state, true); }

BENCHMARK(fullres)
    ->Name("E20/geometry/fullres")
    ->ArgsProduct({{0, 1}, {2, 4}})  // {workload index} × {viewers per class}
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(classes)
    ->Name("E20/geometry/classes")
    ->ArgsProduct({{0, 1}, {2, 4}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The deterministic cohort-encode gate (mirrors the
// TranscodeFlow.OneEncodePerGeometryRungCohortPerTick regression test, but
// exported as bench counters so the ASan CI smoke can assert it): five
// same-codec viewers across identity/half/quarter admitted in one tick.
void cohort(benchmark::State& state) {
  double cohorts = 0, unique = 0, shared = 0, scaled = 0;
  for (auto _ : state) {
    EventLoop loop;
    AppHostOptions opts;
    opts.screen_width = 320;
    opts.screen_height = 240;
    opts.region_band_rows = 64;
    AppHost host(loop, opts);
    const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
    host.capturer().attach(
        w, std::make_unique<SlideshowApp>(320, 240, 3, 1'000'000));
    std::vector<ParticipantId> ids;
    for (int i = 0; i < 5; ++i) {
      Endpoint ep;
      ep.kind = Endpoint::Kind::kUdp;
      ep.send_packet_batch = [](std::span<const PacketView> pkts) {
        return pkts.size();
      };
      ids.push_back(host.add_participant(std::move(ep)));
    }
    host.set_participant_geometry(ids[2], {1, {}, false});
    host.set_participant_geometry(ids[3], {2, {}, false});
    host.set_participant_geometry(ids[4], {2, {}, false});
    const PictureLossIndication pli;
    for (ParticipantId id : ids) host.on_uplink_packet(id, pli.serialize());
    host.tick();
    host.tick();  // static tick: must add nothing
    cohorts = static_cast<double>(host.stats().fanout_cohorts);
    unique = static_cast<double>(host.stats().fanout_encodes_unique);
    shared = static_cast<double>(host.stats().fanout_encodes_shared);
    scaled = static_cast<double>(host.scaler().stats().frames_scaled);
  }
  state.counters["cohorts"] = cohorts;
  state.counters["encodes_unique"] = unique;
  state.counters["encodes_shared"] = shared;
  state.counters["frames_scaled"] = scaled;
  bench::record_counters("transcode", "E20/cohort", state.counters);
}

BENCHMARK(cohort)
    ->Name("E20/cohort")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
