#include "codec/png.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "codec/zlib.hpp"
#include "image/metrics.hpp"
#include "png_stream.hpp"
#include "util/prng.hpp"

// The largest single operator new request, so a test can bound what a
// warm decode allocates.
namespace {
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_allocation.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler does not pair an inlined free() with new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ads {
namespace {

Image gradient(std::int64_t w, std::int64_t h) {
  Image img(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      img.set(x, y,
              Pixel{static_cast<std::uint8_t>(x * 255 / std::max<std::int64_t>(1, w - 1)),
                    static_cast<std::uint8_t>(y * 255 / std::max<std::int64_t>(1, h - 1)),
                    static_cast<std::uint8_t>((x + y) & 0xFF), 255});
    }
  }
  return img;
}

Image noisy(std::int64_t w, std::int64_t h, std::uint64_t seed) {
  Image img(w, h);
  Prng rng(seed);
  for (auto& p : img.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32())};
  }
  return img;
}

TEST(Png, SignatureAndStructure) {
  const Bytes data = png_encode(Image(4, 4, kWhite));
  ASSERT_GE(data.size(), 8u);
  const Bytes sig = {0x89, 'P', 'N', 'G', '\r', '\n', 0x1A, '\n'};
  EXPECT_TRUE(std::equal(sig.begin(), sig.end(), data.begin()));
  // First chunk must be IHDR with length 13.
  EXPECT_EQ(data[8], 0);
  EXPECT_EQ(data[11], 13);
  EXPECT_EQ(data[12], 'I');
  EXPECT_EQ(data[13], 'H');
}

TEST(Png, LosslessRoundTripFlatColour) {
  const Image img(33, 17, Pixel{10, 200, 30, 255});
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(Png, LosslessRoundTripGradient) {
  const Image img = gradient(64, 48);
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(Png, LosslessRoundTripNoise) {
  const Image img = noisy(50, 50, 3);
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(Png, RgbModeDropsAlphaOnly) {
  Image img = gradient(20, 20);
  for (auto& p : img.pixels()) p.a = 77;
  auto out = png_decode(png_encode(img, PngOptions{.deflate = {}, .rgba = false, .adaptive_filters = true}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(diff_pixel_count(*out, img), 0);  // RGB identical
  EXPECT_EQ(out->at(0, 0).a, 255);            // alpha reset
}

TEST(Png, NonAdaptiveFiltersStillLossless) {
  const Image img = gradient(31, 29);
  auto out = png_decode(png_encode(img, PngOptions{.deflate = {}, .rgba = true, .adaptive_filters = false}));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(Png, AdaptiveFiltersHelpOnGradients) {
  const Image img = gradient(256, 256);
  const std::size_t adaptive = png_encode(img).size();
  const std::size_t plain = png_encode(img, PngOptions{.deflate = {}, .rgba = true, .adaptive_filters = false}).size();
  EXPECT_LT(adaptive, plain);
}

TEST(Png, FlatColourCompressesHard) {
  const Image img(640, 480, Pixel{0, 90, 200, 255});
  const Bytes data = png_encode(img);
  EXPECT_LT(data.size(), 5000u);  // 1.2 MB raw
}

TEST(Png, CorruptedCrcRejected) {
  Bytes data = png_encode(gradient(16, 16));
  data[data.size() - 5] ^= 0xFF;  // inside IEND CRC
  auto out = png_decode(data);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kBadChecksum);
}

TEST(Png, BadSignatureRejected) {
  Bytes data = png_encode(gradient(8, 8));
  data[0] = 0x00;
  auto out = png_decode(data);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kBadMagic);
}

TEST(Png, TruncationRejectedEverywhere) {
  const Bytes data = png_encode(gradient(24, 24));
  // Any prefix must fail cleanly, never crash.
  for (std::size_t len : {0ul, 4ul, 8ul, 20ul, 33ul, data.size() - 1}) {
    EXPECT_FALSE(png_decode(BytesView(data).subspan(0, len)).ok()) << len;
  }
}

TEST(Png, HostileDimensionsRejected) {
  // Craft an IHDR declaring a multi-terabyte raster.
  Bytes data = png_encode(Image(1, 1, kWhite));
  // IHDR payload starts at offset 16 (8 sig + 4 len + 4 type).
  for (int i = 0; i < 4; ++i) data[16 + static_cast<std::size_t>(i)] = 0xFF;
  auto out = png_decode(data);
  ASSERT_FALSE(out.ok());
  // Either the CRC (we modified the chunk) — recompute to hit the guard.
  EXPECT_TRUE(out.error() == ParseError::kBadChecksum ||
              out.error() == ParseError::kOverflow);
}

TEST(Png, OnePixelImage) {
  Image img(1, 1, Pixel{1, 2, 3, 4});
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

class PngSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PngSizes, RoundTripAtOddDimensions) {
  const auto [w, h] = GetParam();
  const Image img = noisy(w, h, static_cast<std::uint64_t>(w * 1000 + h));
  auto out = png_decode(png_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

INSTANTIATE_TEST_SUITE_P(Dimensions, PngSizes,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 100},
                                           std::pair{100, 1}, std::pair{3, 7},
                                           std::pair{255, 3}, std::pair{64, 64},
                                           std::pair{127, 255}));

// ---- PngCodec::decode_into: the participant's replica path ----

/// A PNG stream of `img` with every row under filter `type`.
Bytes filtered_png(const Image& img, int type, bool rgba = true) {
  return png_stream::build(static_cast<std::uint32_t>(img.width()),
                           static_cast<std::uint32_t>(img.height()), rgba,
                           zlib_compress(png_stream::filtered_lines(img, type, rgba)));
}

/// A 1280 x 1024 replica of noise, so that every written pixel shows.
const Image& replica_base() {
  static const Image base = noisy(1280, 1024, 99);
  return base;
}

/// decode_into `data` at `at` on a copy of the replica, which must equal
/// png_decode + blit on another copy; returns the decoded replica.
Image expect_into_matches_blit(BytesView data, Point at, DecodeScratch& scratch) {
  auto decoded = png_decode(data);
  EXPECT_TRUE(decoded.ok());
  Image want = replica_base();
  if (decoded.ok()) want.blit(*decoded, decoded->bounds(), at);
  Image got = replica_base();
  auto rect = PngCodec().decode_into(data, got, at, scratch);
  EXPECT_TRUE(rect.ok());
  if (rect.ok() && decoded.ok()) {
    EXPECT_EQ(*rect, (Rect{at.x, at.y, decoded->width(), decoded->height()}));
  }
  EXPECT_TRUE(got == want) << "band at (" << at.x << ", " << at.y << ")";
  return got;
}

TEST(PngDecodeInto, EveryFilterAtPerfbenchWidthsMatchesDecodeAndBlit) {
  // Widths of photo (512), text_relay (800) and join_churn (1024) bands,
  // each at its window's screen position.
  const std::pair<std::int64_t, Point> bands[] = {
      {512, {80, 188}}, {800, {240, 240}}, {1024, {128, 256}}};
  DecodeScratch scratch;
  for (const auto& [width, at] : bands) {
    const Image band = noisy(width, 24, static_cast<std::uint64_t>(width));
    for (int type = 0; type <= 4; ++type) {
      SCOPED_TRACE(::testing::Message() << "width " << width << " filter " << type);
      const Image got = expect_into_matches_blit(filtered_png(band, type), at, scratch);
      Image want = replica_base();
      want.blit(band, band.bounds(), at);
      EXPECT_TRUE(got == want);
    }
  }
}

TEST(PngDecodeInto, BandsCrossingEveryEdgeMatchDecodeAndBlit) {
  const Image band = gradient(300, 40);
  DecodeScratch scratch;
  for (int type = 0; type <= 4; ++type) {
    const Bytes data = filtered_png(band, type);
    for (const Point at : {Point{1100, 1000}, Point{1279, 1023}, Point{-150, -20},
                           Point{-299, 500}, Point{600, -39}, Point{1280, 0},
                           Point{0, 1024}, Point{-300, -40}}) {
      SCOPED_TRACE(::testing::Message() << "filter " << type);
      expect_into_matches_blit(data, at, scratch);
    }
  }
}

TEST(PngDecodeInto, RgbStreamsMatchDecodeAndBlit) {
  Image band = noisy(800, 30, 5);
  DecodeScratch scratch;
  for (int type = 0; type <= 4; ++type) {
    const Bytes data = filtered_png(band, type, false);
    const Image got = expect_into_matches_blit(data, {240, 300}, scratch);
    for (Pixel& p : band.pixels()) p.a = 255;
    Image want = replica_base();
    want.blit(band, band.bounds(), {240, 300});
    EXPECT_TRUE(got == want) << "filter " << type;
    expect_into_matches_blit(data, {1000, 1010}, scratch);
  }
  expect_into_matches_blit(
      png_encode(band, PngOptions{.deflate = {}, .rgba = false, .adaptive_filters = true}),
      {0, 0}, scratch);
}

TEST(PngDecodeInto, StreamSplitOverSeveralIdatsMatchesDecodeAndBlit) {
  const Image band = noisy(512, 16, 8);
  const Bytes zlib = zlib_compress(png_stream::filtered_lines(band, 4));
  DecodeScratch scratch;
  for (const std::size_t idats : {2u, 3u, 7u}) {
    const Bytes data = png_stream::build(512, 16, true, zlib, idats);
    const Image got = expect_into_matches_blit(data, {80, 60}, scratch);
    Image want = replica_base();
    want.blit(band, band.bounds(), {80, 60});
    EXPECT_TRUE(got == want) << idats << " IDATs";
  }
}

TEST(PngDecodeInto, OneScratchServesLargeSmallLargeBands) {
  const Bytes large = png_encode(noisy(1024, 128, 1));
  const Bytes small = png_encode(gradient(40, 6));
  const Bytes large2 = png_encode(gradient(1024, 128));
  DecodeScratch scratch;
  expect_into_matches_blit(large, {128, 128}, scratch);
  expect_into_matches_blit(small, {7, 9}, scratch);
  expect_into_matches_blit(large2, {128, 256}, scratch);
  expect_into_matches_blit(small, {1270, 1020}, scratch);
}

/// decode_into must fail with `error`, as png_decode does, leaving every
/// replica pixel as it was.
void expect_rejected(BytesView data, ParseError error, DecodeScratch& scratch) {
  auto decoded = png_decode(data);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error(), error);
  for (const Point at : {Point{128, 128}, Point{1200, 1000}}) {
    Image replica = replica_base();
    auto rect = PngCodec().decode_into(data, replica, at, scratch);
    ASSERT_FALSE(rect.ok());
    EXPECT_EQ(rect.error(), error);
    EXPECT_TRUE(replica == replica_base());
  }
}

TEST(PngDecodeInto, FailuresLeaveTheReplicaUntouched) {
  const Image band = noisy(1024, 32, 2);
  const Bytes lines = png_stream::filtered_lines(band, 4);
  const Bytes zlib = zlib_compress(lines);
  DecodeScratch scratch;
  // Warm the scratch with the good stream first: a failure must not paint
  // what an earlier call left in it.
  expect_into_matches_blit(png_stream::build(1024, 32, true, zlib), {128, 128}, scratch);

  Bytes bad_crc = png_stream::build(1024, 32, true, zlib);
  bad_crc[bad_crc.size() - 12 - 1] ^= 0x40;  // last byte of the IDAT's CRC
  expect_rejected(bad_crc, ParseError::kBadChecksum, scratch);

  Bytes bad_adler = zlib;
  bad_adler.back() ^= 0x01;
  expect_rejected(png_stream::build(1024, 32, true, bad_adler), ParseError::kBadChecksum, scratch);

  const Bytes cut_zlib(zlib.begin(), zlib.begin() + static_cast<std::ptrdiff_t>(zlib.size() / 2));
  expect_rejected(png_stream::build(1024, 32, true, cut_zlib), ParseError::kTruncated, scratch);
  const Bytes whole = png_stream::build(1024, 32, true, zlib);
  expect_rejected(BytesView(whole).first(whole.size() - 20), ParseError::kTruncated, scratch);

  // The IHDR claims one row more than the stream holds, or one fewer.
  expect_rejected(png_stream::build(1024, 33, true, zlib), ParseError::kBadValue, scratch);
  expect_rejected(png_stream::build(1024, 31, true, zlib), ParseError::kOverflow, scratch);

  Bytes bad_filter = lines;
  bad_filter[31 * (1024 * 4 + 1)] = 5;  // the last row's filter byte
  expect_rejected(png_stream::build(1024, 32, true, zlib_compress(bad_filter)),
                  ParseError::kBadValue, scratch);
}

TEST(Png, ZeroRowHeaderStillLimitsTheStream) {
  // 64 MiB of zeros deflate to 64 KiB; under an IHDR of zero rows the
  // inflate limit must stay at the (empty) raster, not vanish.
  const Bytes bomb = zlib_compress(Bytes(std::size_t{64} << 20, 0));
  for (const bool rgba : {true, false}) {
    const Bytes data = png_stream::build(4, 0, rgba, bomb);
    g_largest_allocation = 0;
    auto out = png_decode(data);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.error(), ParseError::kOverflow);
    DecodeScratch scratch;
    Image replica(8, 8);
    auto rect = PngCodec().decode_into(data, replica, {0, 0}, scratch);
    ASSERT_FALSE(rect.ok());
    EXPECT_EQ(rect.error(), ParseError::kOverflow);
    EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 20);
  }
  // An empty image still round-trips.
  auto empty = png_decode(png_encode(Image()));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(PngDecodeInto, WarmScratchAllocatesNothingLarge) {
  const Bytes large = png_encode(noisy(1024, 128, 3));
  const Bytes same = png_encode(gradient(1024, 128));
  const Bytes small = png_encode(noisy(512, 64, 4));
  const Bytes rgb = png_encode(noisy(256, 32, 6),
                               PngOptions{.deflate = {}, .rgba = false, .adaptive_filters = true});
  Image replica = replica_base();
  const PngCodec codec;
  DecodeScratch scratch;
  ASSERT_TRUE(codec.decode_into(large, replica, {128, 128}, scratch).ok());
  g_largest_allocation = 0;
  ASSERT_TRUE(codec.decode_into(large, replica, {128, 256}, scratch).ok());
  ASSERT_TRUE(codec.decode_into(same, replica, {1000, 1000}, scratch).ok());
  ASSERT_TRUE(codec.decode_into(small, replica, {80, 60}, scratch).ok());
  ASSERT_TRUE(codec.decode_into(rgb, replica, {0, 0}, scratch).ok());
  EXPECT_LT(g_largest_allocation.load(), std::size_t{4096});
}

}  // namespace
}  // namespace ads
