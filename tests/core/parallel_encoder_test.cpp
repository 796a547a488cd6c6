// ParallelEncoder: deterministic ordered output across thread counts, the
// encoded-region cache (hits, LRU byte bound), and the end-to-end golden
// guarantee — an AppHost configured serial (encode_threads=0) and one
// configured parallel (encode_threads=4) emit byte-identical wire streams.
#include "core/parallel_encoder.hpp"

#include <gtest/gtest.h>

#include "capture/apps.hpp"
#include "core/app_host.hpp"

namespace ads {
namespace {

Image workload_frame(std::string_view name, std::int64_t w, std::int64_t h) {
  auto app = make_app(name, w, h, 99);
  for (int t = 0; t < 12; ++t) app->tick(static_cast<std::uint64_t>(t));
  return app->content();
}

std::vector<Rect> band_split(const Rect& r, std::int64_t band_rows) {
  std::vector<Rect> bands;
  for (std::int64_t top = r.top; top < r.bottom(); top += band_rows) {
    bands.push_back(Rect{r.left, top, r.width, std::min(band_rows, r.bottom() - top)});
  }
  return bands;
}

TEST(ParallelEncoder, ParallelOutputMatchesSerialPerBand) {
  const Image frame = workload_frame("terminal", 320, 256);
  const auto bands = band_split(frame.bounds(), 32);
  const CodecRegistry registry = CodecRegistry::with_defaults();

  ParallelEncoder serial(registry, {.threads = 0, .cache_bytes = 0});
  ParallelEncoder parallel(registry, {.threads = 4, .cache_bytes = 0});
  for (const ContentPt pt :
       {ContentPt::kRaw, ContentPt::kRle, ContentPt::kPng, ContentPt::kDct}) {
    const auto a = serial.encode_regions(frame, bands, pt);
    const auto b = parallel.encode_regions(frame, bands, pt);
    ASSERT_EQ(a.size(), bands.size());
    ASSERT_EQ(b.size(), bands.size());
    for (std::size_t i = 0; i < bands.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "band " << i << " pt " << static_cast<int>(pt);
      EXPECT_FALSE(a[i].empty());
    }
  }
  EXPECT_EQ(parallel.threads(), 4u);
  EXPECT_EQ(serial.threads(), 0u);
}

TEST(ParallelEncoder, RepeatedCallsReuseScratchAndStayIdentical) {
  const Image frame = workload_frame("slideshow", 256, 192);
  const auto bands = band_split(frame.bounds(), 64);
  const CodecRegistry registry = CodecRegistry::with_defaults();
  ParallelEncoder enc(registry, {.threads = 2, .cache_bytes = 0});
  const auto first = enc.encode_regions(frame, bands, ContentPt::kPng);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(enc.encode_regions(frame, bands, ContentPt::kPng), first);
  }
}

TEST(ParallelEncoder, CacheServesRepeatedContent) {
  const Image frame = workload_frame("slideshow", 256, 192);
  const auto bands = band_split(frame.bounds(), 32);
  const CodecRegistry registry = CodecRegistry::with_defaults();

  ParallelEncoder enc(registry, {.threads = 2, .cache_bytes = 4 * 1024 * 1024});
  const auto cold = enc.encode_regions(frame, bands, ContentPt::kPng);
  EXPECT_EQ(enc.stats().cache_hits, 0u);
  EXPECT_EQ(enc.stats().cache_misses, bands.size());

  // The PLI-refresh shape: identical content re-requested in full.
  const auto warm = enc.encode_regions(frame, bands, ContentPt::kPng);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(enc.stats().cache_hits, bands.size());
  EXPECT_EQ(enc.stats().bands_encoded, bands.size());  // nothing re-encoded
}

TEST(ParallelEncoder, CacheDistinguishesCodecs) {
  const Image frame = workload_frame("terminal", 128, 64);
  const auto bands = band_split(frame.bounds(), 64);
  const CodecRegistry registry = CodecRegistry::with_defaults();
  ParallelEncoder enc(registry, {.threads = 0, .cache_bytes = 1 << 20});
  const auto png = enc.encode_regions(frame, bands, ContentPt::kPng);
  const auto rle = enc.encode_regions(frame, bands, ContentPt::kRle);
  EXPECT_NE(png, rle);  // same pixels, different codec: must not alias
  EXPECT_EQ(enc.encode_regions(frame, bands, ContentPt::kRle), rle);
}

TEST(ParallelEncoder, CacheDistinguishesQualityRungs) {
  const Image frame = workload_frame("video", 128, 64);
  const auto bands = band_split(frame.bounds(), 64);
  const CodecRegistry registry = CodecRegistry::with_defaults();
  ParallelEncoder enc(registry, {.threads = 0, .cache_bytes = 1 << 20});
  const auto q90 = enc.encode_regions(frame, bands, ContentPt::kDct,
                                      EncodeParams{.dct_quality = 90});
  const auto q10 = enc.encode_regions(frame, bands, ContentPt::kDct,
                                      EncodeParams{.dct_quality = 10});
  EXPECT_NE(q90, q10);  // same pixels, different rung: must not alias
  EXPECT_EQ(enc.stats().cache_hits, 0u);  // second rung was a fresh encode
  // Re-requesting either rung is a cache hit with that rung's bytes.
  EXPECT_EQ(enc.encode_regions(frame, bands, ContentPt::kDct,
                               EncodeParams{.dct_quality = 90}),
            q90);
  EXPECT_EQ(enc.stats().cache_hits, bands.size());
}

TEST(EncodedRegionCache, LruEvictionHonoursByteBudget) {
  EncodedRegionCache cache(1000);
  for (std::uint64_t i = 0; i < 10; ++i) {
    cache.insert({i, 98, 0, 16, 16}, Bytes(300));
  }
  EXPECT_LE(cache.bytes(), 1000u);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_GT(cache.evictions(), 0u);
  // Oldest keys are gone, newest survive.
  Bytes out;
  EXPECT_FALSE(cache.find({0, 98, 0, 16, 16}, out));
  EXPECT_TRUE(cache.find({9, 98, 0, 16, 16}, out));
}

TEST(EncodedRegionCache, FindPromotesToMostRecentlyUsed) {
  EncodedRegionCache cache(900);
  cache.insert({1, 98, 0, 16, 16}, Bytes(300));
  cache.insert({2, 98, 0, 16, 16}, Bytes(300));
  cache.insert({3, 98, 0, 16, 16}, Bytes(300));
  Bytes out;
  ASSERT_TRUE(cache.find({1, 98, 0, 16, 16}, out));  // touch 1: now MRU
  cache.insert({4, 98, 0, 16, 16}, Bytes(300));      // evicts LRU = 2
  EXPECT_TRUE(cache.find({1, 98, 0, 16, 16}, out));
  EXPECT_FALSE(cache.find({2, 98, 0, 16, 16}, out));
}

TEST(EncodedRegionCache, OversizedPayloadIsNotCached) {
  EncodedRegionCache cache(100);
  cache.insert({1, 98, 0, 16, 16}, Bytes(101));
  EXPECT_EQ(cache.entries(), 0u);
  Bytes out;
  EXPECT_FALSE(cache.find({1, 98, 0, 16, 16}, out));
}

TEST(EncodedRegionCache, ZeroBudgetDisables) {
  EncodedRegionCache cache(0);
  cache.insert({1, 98, 0, 16, 16}, Bytes{1, 2, 3});
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------------------
// Golden test: serial vs parallel AH runs produce byte-identical wire
// streams over 50 ticks of live damage traffic.

struct WireCapture {
  Bytes stream;  ///< all datagrams, concatenated in send order
  std::uint64_t datagrams = 0;
};

std::unique_ptr<AppHost> make_host(EventLoop& loop, std::size_t threads,
                                   std::string_view workload, WireCapture& capture) {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 256;
  opts.encode_threads = threads;
  auto host = std::make_unique<AppHost>(loop, opts);
  const WindowId w = host->wm().create({8, 8, 288, 224}, 1);
  host->capturer().attach(w, make_app(workload, 288, 224, 21));
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUdp;
  ep.send_packet_batch = [&capture](std::span<const PacketView> pkts) {
    for (const PacketView& v : pkts) v.serialize_into(capture.stream);
    capture.datagrams += pkts.size();
    return pkts.size();
  };
  ep.send_datagram = [&capture](BytesView wire) {
    capture.stream.insert(capture.stream.end(), wire.begin(), wire.end());
    ++capture.datagrams;
    return true;
  };
  host->add_participant(std::move(ep));
  return host;
}

void run_golden(std::string_view workload) {
  EventLoop loop_serial;
  EventLoop loop_parallel;
  WireCapture serial_wire;
  WireCapture parallel_wire;
  auto serial = make_host(loop_serial, 0, workload, serial_wire);
  auto parallel = make_host(loop_parallel, 4, workload, parallel_wire);
  ASSERT_EQ(parallel->encoder().threads(), 4u);

  for (int tick = 0; tick < 50; ++tick) {
    serial->tick();
    parallel->tick();
  }
  EXPECT_GT(serial_wire.datagrams, 0u);
  EXPECT_EQ(serial_wire.datagrams, parallel_wire.datagrams);
  ASSERT_EQ(serial_wire.stream.size(), parallel_wire.stream.size());
  EXPECT_TRUE(serial_wire.stream == parallel_wire.stream)
      << "serial and parallel wire bytes diverged on workload " << workload;
}

TEST(ParallelGolden, TerminalWorkloadByteIdentical) { run_golden("terminal"); }

TEST(ParallelGolden, SlideshowWorkloadByteIdentical) { run_golden("slideshow"); }

}  // namespace
}  // namespace ads
