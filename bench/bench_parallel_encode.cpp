// E13 — the parallel band-encode stage (worker pool + encoded-region cache).
//
// Claims under test:
//  * splitting a frame's damage into 128-row bands and encoding them on a
//    worker pool plus the calling thread scales encode throughput with core
//    count while producing byte-identical wire output (the golden test
//    asserts the identity; this bench measures the speedup, honestly
//    reporting whatever the machine's core count allows);
//  * on the perfbench photo shape (a 512x416 `video` damage rect cut into
//    128, 128, 128 and 32 rows) the calling thread's share shortens the
//    encode from two full bands per thread to one full band plus the
//    32-row band at threads:2;
//  * the encoded-region cache turns a PLI full refresh of unchanged content
//    into memory copies instead of codec runs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <initializer_list>
#include <string>

#include "bench_common.hpp"
#include "core/parallel_encoder.hpp"

namespace {

using namespace ads;
using namespace ads::bench;

constexpr std::int64_t kBandRows = 128;

/// One damaged frame: the painter that fills it and its size.
struct Shape {
  std::string name;  ///< E13 row name
  std::string workload;
  std::int64_t width;
  std::int64_t height;
};

const Image& frame_for(const Shape& shape) {
  static std::map<std::string, Image> cache;
  auto it = cache.find(shape.name);
  if (it == cache.end()) {
    it = cache.emplace(shape.name, workload_frame(shape.workload, shape.width,
                                                  shape.height))
             .first;
  }
  return it->second;
}

std::vector<Rect> bands_for(const Image& frame) {
  std::vector<Rect> bands;
  for (std::int64_t top = 0; top < frame.height(); top += kBandRows) {
    bands.push_back(
        Rect{0, top, frame.width(), std::min(kBandRows, frame.height() - top)});
  }
  return bands;
}

double measure_encode_ns(ParallelEncoder& enc, const Image& frame,
                         const std::vector<Rect>& bands, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    auto payloads = enc.encode_regions(frame, bands, ContentPt::kPng);
    benchmark::DoNotOptimize(payloads);
  }
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                  start)
             .count() /
         reps;
}

/// Serial (threads=0, cache off) cost of one full-frame encode, measured
/// once per shape — the baseline every thread count is compared against.
double serial_ns(const Shape& shape) {
  static std::map<std::string, double> cache;
  auto it = cache.find(shape.name);
  if (it == cache.end()) {
    const Image& frame = frame_for(shape);
    const auto bands = bands_for(frame);
    const auto registry = CodecRegistry::with_defaults();
    ParallelEncoder enc(registry, {.threads = 0, .cache_bytes = 0});
    measure_encode_ns(enc, frame, bands, 1);  // warm the scratch arenas
    it = cache.emplace(shape.name, measure_encode_ns(enc, frame, bands, 3)).first;
  }
  return it->second;
}

void run_threads(benchmark::State& state, const std::string& name,
                 const Shape& shape, std::size_t threads) {
  const Image& frame = frame_for(shape);
  const auto bands = bands_for(frame);
  const auto registry = CodecRegistry::with_defaults();
  ParallelEncoder enc(registry, {.threads = threads, .cache_bytes = 0});

  double total_ns = 0;
  std::int64_t iters = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto payloads = enc.encode_regions(frame, bands, ContentPt::kPng);
    total_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    ++iters;
    benchmark::DoNotOptimize(payloads);
  }

  const double ns_per_frame = total_ns / static_cast<double>(iters);
  state.counters["bands"] = static_cast<double>(bands.size());
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["ns_per_band"] = ns_per_frame / static_cast<double>(bands.size());
  state.counters["speedup_vs_serial"] = serial_ns(shape) / ns_per_frame;
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  json_report("parallel_encode")
      .record(name, {{"bands", state.counters["bands"]},
                     {"threads", state.counters["threads"]},
                     {"ns_per_band", state.counters["ns_per_band"]},
                     {"speedup_vs_serial", state.counters["speedup_vs_serial"]},
                     {"hw_threads", state.counters["hw_threads"]}});
}

// The PLI-refresh scenario the cache exists for: a participant joins (or
// reports loss) and the AH must resend the whole — unchanged — screen. With
// the cache every band is a lookup; without it every band re-runs PNG.
void run_cache(benchmark::State& state, const std::string& name,
               std::size_t cache_bytes) {
  const Image& frame = frame_for({"slideshow", "slideshow", 1280, 1024});
  const auto bands = bands_for(frame);
  const auto registry = CodecRegistry::with_defaults();
  ParallelEncoder enc(registry, {.threads = 0, .cache_bytes = cache_bytes});
  auto cold = enc.encode_regions(frame, bands, ContentPt::kPng);  // populate
  benchmark::DoNotOptimize(cold);

  for (auto _ : state) {
    auto refresh = enc.encode_regions(frame, bands, ContentPt::kPng);
    benchmark::DoNotOptimize(refresh);
  }

  const auto& stats = enc.stats();
  const double lookups = static_cast<double>(stats.cache_hits + stats.cache_misses);
  state.counters["hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;
  state.counters["cache_bytes"] = static_cast<double>(enc.cache().bytes());
  json_report("parallel_encode")
      .record(name, {{"hit_rate", state.counters["hit_rate"]},
                     {"cache_bytes", state.counters["cache_bytes"]}});
}

void register_all() {
  const std::vector<Shape> full_screen = {{"terminal", "terminal", 1280, 1024},
                                          {"slideshow", "slideshow", 1280, 1024},
                                          {"video", "video", 1280, 1024}};
  const auto register_sweep = [](const Shape& shape,
                                 std::initializer_list<std::size_t> thread_counts) {
    for (const std::size_t threads : thread_counts) {
      const std::string name =
          "E13/" + shape.name + "/threads:" + std::to_string(threads);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [name, shape, threads](benchmark::State& s) {
                                     run_threads(s, name, shape, threads);
                                   })
          ->Unit(benchmark::kMillisecond);
    }
  };
  for (const Shape& shape : full_screen) register_sweep(shape, {0, 1, 2, 4, 8});
  register_sweep({"photo_bands", "video", 512, 416}, {0, 1, 2, 3});
  for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{16} << 20}) {
    const std::string name = std::string("E13b/pli_refresh/cache:") +
                             (cache_bytes ? "on" : "off");
    benchmark::RegisterBenchmark(name.c_str(),
                                 [name, cache_bytes](benchmark::State& s) {
                                   run_cache(s, name, cache_bytes);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
}

const int registered = (register_all(), 0);

}  // namespace
