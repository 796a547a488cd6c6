// E8 — AH capture pipeline rate: damage detection cost and end-to-end
// frame preparation throughput.
//
// Part 1 sweeps the damage-tile size (8..64 px) on each workload and times
// diff_rects on two consecutive frames — the per-frame fixed cost of
// finding what changed, which ScreenCapturer::damage() pays every tick.
// Part 2 times a full AH tick (app paint → composite → scroll moves →
// damage → encode → fragment) per workload, giving the maximum capture
// rate the AH sustains.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_common.hpp"
#include "capture/screen_capturer.hpp"
#include "codec/registry.hpp"
#include "image/damage.hpp"
#include "remoting/region_update.hpp"

namespace {

using namespace ads;
using namespace ads::bench;

void damage_detection(benchmark::State& state, const std::string& workload) {
  const std::int64_t tile = state.range(0);
  const auto frames = workload_frames(workload, 640, 480, 24);
  std::size_t i = 0;
  std::int64_t last_damage_area = 0;
  for (auto _ : state) {
    const std::size_t k = 1 + i % (frames.size() - 1);
    auto damage = diff_rects(frames[k - 1], frames[k], tile);
    last_damage_area = 0;
    for (const auto& r : damage) last_damage_area += r.area();
    benchmark::DoNotOptimize(damage);
    ++i;
  }
  state.counters["damage_px"] = static_cast<double>(last_damage_area);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 640 * 480 *
                          4);
  record_counters("pipeline",
                  "E8/damage/" + workload + "/tile:" + std::to_string(tile),
                  state.counters);
}

void full_tick(benchmark::State& state, const std::string& workload) {
  WindowManager wm;
  const WindowId w = wm.create({16, 16, 480, 360}, 1);
  ScreenCapturer cap(wm, 640, 480, /*tile=*/32);
  cap.attach(w, make_app(workload, 480, 360, 9));
  const auto registry = CodecRegistry::with_defaults();
  const ImageCodec* codec = registry.find(ContentPt::kPng);

  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
  for (auto _ : state) {
    // The AH's per-tick calls (AppHost::tick with use_move_rectangle).
    const CaptureResult result = cap.capture();
    cap.detect_moves();
    for (const Rect& r : cap.damage()) {
      RegionUpdate msg;
      msg.content_pt = static_cast<std::uint8_t>(ContentPt::kPng);
      msg.left = static_cast<std::uint32_t>(r.left);
      msg.top = static_cast<std::uint32_t>(r.top);
      msg.content = codec->encode(result.frame->crop(r));
      auto frags = fragment_region_update(msg, 1200);
      bytes += msg.content.size();
      packets += frags.size();
      benchmark::DoNotOptimize(frags);
    }
  }
  state.counters["bytes_per_frame"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.counters["packets_per_frame"] =
      static_cast<double>(packets) / static_cast<double>(state.iterations());
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  // fps is rate-typed (meaningful only in benchmark's own output), so
  // record the per-frame costs explicitly rather than copying counters.
  json_report("pipeline")
      .record("E8/full_tick/" + workload,
              {{"bytes_per_frame", state.counters["bytes_per_frame"]},
               {"packets_per_frame", state.counters["packets_per_frame"]}});
}

void register_all() {
  for (const char* workload : {"terminal", "slideshow", "document", "video", "paint"}) {
    benchmark::RegisterBenchmark(
        (std::string("E8/damage/") + workload).c_str(),
        [workload = std::string(workload)](benchmark::State& s) {
          damage_detection(s, workload);
        })
        ->Arg(8)
        ->Arg(16)
        ->Arg(32)
        ->Arg(64)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        (std::string("E8/full_tick/") + workload).c_str(),
        [workload = std::string(workload)](benchmark::State& s) {
          full_tick(s, workload);
        })
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
