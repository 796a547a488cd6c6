// E9 — compression substrate ablations.
//
// The design decisions DESIGN.md calls out for the from-scratch codec
// stack, measured on a corpus of screen tiles (PNG-filtered scanlines of
// each workload):
//   * DEFLATE level sweep (LZ77 search depth / lazy matching)
//   * forced block type: stored vs fixed vs dynamic Huffman
//   * PNG adaptive filtering on vs off
//   * level-6 PNG encode of one 128-row AH band per content class, the
//     participant's decode of that same band, and its application to a
//     1280×1024 replica: decode + blit against decode_into
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>

#include "bench_common.hpp"
#include "codec/deflate.hpp"
#include "codec/inflate.hpp"
#include "codec/png.hpp"
#include "util/checksum.hpp"

namespace {

using namespace ads;
using namespace ads::bench;

/// Corpus: raw RGBA bytes of a mixed screen (terminal + document + video).
Bytes corpus() {
  static const Bytes data = [] {
    Bytes out;
    for (const char* workload : {"terminal", "document", "video"}) {
      const Image frame = workload_frame(workload, 256, 192);
      for (const Pixel& p : frame.pixels()) {
        out.push_back(p.r);
        out.push_back(p.g);
        out.push_back(p.b);
        out.push_back(p.a);
      }
    }
    return out;
  }();
  return data;
}

void deflate_levels(benchmark::State& state) {
  const int level = static_cast<int>(state.range(0));
  const Bytes input = corpus();
  Bytes compressed;
  for (auto _ : state) {
    compressed = deflate_compress(input, {.level = level});
    benchmark::DoNotOptimize(compressed);
  }
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(compressed.size());
  state.counters["bytes"] = static_cast<double>(compressed.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  record_counters("deflate", "E9/deflate/level/" + std::to_string(level),
                  state.counters);
}

void deflate_block_types(benchmark::State& state) {
  const auto block = static_cast<DeflateOptions::Block>(state.range(0));
  const Bytes input = corpus();
  Bytes compressed;
  for (auto _ : state) {
    compressed = deflate_compress(input, {.level = 6, .block = block});
    benchmark::DoNotOptimize(compressed);
  }
  state.counters["ratio"] =
      static_cast<double>(input.size()) / static_cast<double>(compressed.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  record_counters("deflate",
                  "E9/deflate/block_type/" + std::to_string(state.range(0)),
                  state.counters);
}

void inflate_speed(benchmark::State& state) {
  const Bytes input = corpus();
  const Bytes compressed = deflate_compress(input, {.level = 6});
  for (auto _ : state) {
    auto out = inflate(compressed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
}

void png_filters(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  const Image frame = workload_frame("document", 512, 384);
  Bytes encoded;
  for (auto _ : state) {
    encoded = png_encode(frame, PngOptions{.deflate = {.level = 6},
                                           .rgba = true,
                                           .adaptive_filters = adaptive});
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["bytes"] = static_cast<double>(encoded.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512 * 384 *
                          4);
  record_counters("deflate",
                  std::string("E9/png/adaptive_filters/") +
                      (adaptive ? "on" : "off"),
                  state.counters);
}

/// One 128-row band (rows 128..255 of a 384-row frame) of `workload` at
/// `width`, PNG-encoded at level 6 into a reused scratch, as an AH encode
/// worker does.
void png_band(benchmark::State& state, const char* workload, std::int64_t width) {
  const Image band = workload_frame(workload, width, 384).crop({0, 128, width, 128});
  EncodeScratch scratch;
  Bytes encoded;
  for (auto _ : state) {
    png_encode_into(band, {.deflate = {.level = 6}}, encoded, scratch);
    benchmark::DoNotOptimize(encoded);
  }
  state.counters["bytes"] = static_cast<double>(encoded.size());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * width * 128 * 4);
  record_counters("deflate", std::string("E9/png/band/") + workload, state.counters);
}

/// The participant side of png_band: decode the same band, as every viewer
/// does for each PNG RegionUpdate. `mb_s` is raster output (width × 128 ×
/// 4 bytes) per second of wall time.
void png_band_decode(benchmark::State& state, const char* workload, std::int64_t width) {
  const Image band = workload_frame(workload, width, 384).crop({0, 128, width, 128});
  const Bytes encoded = png_encode(band, {.deflate = {.level = 6}});
  const auto raster_bytes = static_cast<double>(width * 128 * 4);
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto decoded = png_decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  state.counters["bytes"] = static_cast<double>(encoded.size());
  state.counters["mb_s"] =
      raster_bytes * static_cast<double>(state.iterations()) / elapsed.count() / 1e6;
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * width * 128 * 4);
  record_counters("deflate", std::string("E9/png/decode/") + workload, state.counters);
}

/// How the participant applies a PNG RegionUpdate to its replica.
enum class Apply { kBlit, kInto };

/// png_band_decode's band applied to a 1280×1024 replica at the screen
/// position it has in its perfbench workload (the window's origin plus the
/// band's 128 rows): png_decode into a fresh Image and blit it, or
/// PngCodec::decode_into with one reused scratch. `replica_crc` is the
/// CRC-32 of the replica after the run, equal for both arms.
void png_band_apply(benchmark::State& state, const char* workload, std::int64_t width,
                    Point window, Apply how) {
  const Image band = workload_frame(workload, width, 384).crop({0, 128, width, 128});
  const Bytes encoded = png_encode(band, {.deflate = {.level = 6}});
  const Point at{window.x, window.y + 128};
  Image replica(1280, 1024);
  const PngCodec codec;
  DecodeScratch scratch;
  for (auto _ : state) {
    if (how == Apply::kBlit) {
      auto decoded = png_decode(encoded);
      replica.blit(*decoded, decoded->bounds(), at);
    } else {
      auto rect = codec.decode_into(encoded, replica, at, scratch);
      benchmark::DoNotOptimize(rect);
    }
    benchmark::DoNotOptimize(replica.pixels().data());
    benchmark::ClobberMemory();
  }
  Crc32 crc;
  crc.update(BytesView(reinterpret_cast<const std::uint8_t*>(replica.pixels().data()),
                       replica.pixels().size() * sizeof(Pixel)));
  state.counters["replica_crc"] = crc.value();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * width * 128 * 4);
  record_counters("deflate",
                  std::string("E9/png/apply/") + (how == Apply::kBlit ? "blit/" : "into/") +
                      workload,
                  state.counters);
}

BENCHMARK(deflate_levels)
    ->Name("E9/deflate/level")
    ->DenseRange(0, 9)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deflate_block_types)
    ->Name("E9/deflate/block_type")  // 1=stored, 2=fixed, 3=dynamic
    ->Arg(static_cast<int>(DeflateOptions::Block::kStored))
    ->Arg(static_cast<int>(DeflateOptions::Block::kFixed))
    ->Arg(static_cast<int>(DeflateOptions::Block::kDynamic))
    ->Unit(benchmark::kMillisecond);
BENCHMARK(inflate_speed)->Name("E9/inflate")->Unit(benchmark::kMillisecond);
BENCHMARK(png_filters)
    ->Name("E9/png/adaptive_filters")  // 0=off, 1=on
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
// Widths of the perfbench workloads that carry each class.
BENCHMARK_CAPTURE(png_band, video, "video", 512)
    ->Name("E9/png/band/video")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band, terminal, "terminal", 512)
    ->Name("E9/png/band/terminal")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band, document, "document", 800)
    ->Name("E9/png/band/document")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band, webpage, "webpage", 1024)
    ->Name("E9/png/band/webpage")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_decode, video, "video", 512)
    ->Name("E9/png/decode/video")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_decode, terminal, "terminal", 512)
    ->Name("E9/png/decode/terminal")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_decode, document, "document", 800)
    ->Name("E9/png/decode/document")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_decode, webpage, "webpage", 1024)
    ->Name("E9/png/decode/webpage")
    ->Unit(benchmark::kMillisecond);
// Window origins: photo's video, text_relay's document and join_churn's
// webpage; no workload shows a terminal, so it sits at the screen's origin.
BENCHMARK_CAPTURE(png_band_apply, blit_video, "video", 512, Point{80, 60}, Apply::kBlit)
    ->Name("E9/png/apply/blit/video")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_apply, blit_terminal, "terminal", 512, Point{0, 0}, Apply::kBlit)
    ->Name("E9/png/apply/blit/terminal")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_apply, blit_document, "document", 800, Point{240, 112}, Apply::kBlit)
    ->Name("E9/png/apply/blit/document")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_apply, blit_webpage, "webpage", 1024, Point{128, 128}, Apply::kBlit)
    ->Name("E9/png/apply/blit/webpage")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_apply, into_video, "video", 512, Point{80, 60}, Apply::kInto)
    ->Name("E9/png/apply/into/video")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_apply, into_terminal, "terminal", 512, Point{0, 0}, Apply::kInto)
    ->Name("E9/png/apply/into/terminal")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_apply, into_document, "document", 800, Point{240, 112}, Apply::kInto)
    ->Name("E9/png/apply/into/document")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(png_band_apply, into_webpage, "webpage", 1024, Point{128, 128}, Apply::kInto)
    ->Name("E9/png/apply/into/webpage")
    ->Unit(benchmark::kMillisecond);

}  // namespace
