#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "codec/raw_codec.hpp"
#include "codec/rle_codec.hpp"
#include "util/prng.hpp"

// The largest single operator new request, so a test can bound what a
// hostile header makes a decoder allocate.
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

Image noisy(std::int64_t w, std::int64_t h, std::uint64_t seed) {
  Image img(w, h);
  Prng rng(seed);
  for (auto& p : img.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()), 255};
  }
  return img;
}

TEST(RawCodec, RoundTrip) {
  const Image img = noisy(17, 23, 1);
  auto out = raw_decode(raw_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(RawCodec, SizeIsExactlyHeaderPlusPixels) {
  const Image img(10, 20, kWhite);
  EXPECT_EQ(raw_encode(img).size(), 8u + 10 * 20 * 4);
}

TEST(RawCodec, TruncatedPayloadRejected) {
  Bytes data = raw_encode(noisy(8, 8, 2));
  data.pop_back();
  EXPECT_FALSE(raw_decode(data).ok());
}

TEST(RawCodec, TrailingGarbageRejected) {
  Bytes data = raw_encode(noisy(8, 8, 2));
  data.push_back(0);
  EXPECT_FALSE(raw_decode(data).ok());
}

TEST(RawCodec, HostileDimensionsRejected) {
  ByteWriter w;
  w.u32(0xFFFFFFFF);
  w.u32(0xFFFFFFFF);
  auto out = raw_decode(w.view());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kOverflow);
}

TEST(RleCodec, RoundTripFlat) {
  const Image img(100, 100, Pixel{5, 6, 7, 255});
  auto out = rle_decode(rle_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(RleCodec, RoundTripNoise) {
  const Image img = noisy(33, 41, 3);
  auto out = rle_decode(rle_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(RleCodec, FlatImageCompressesToFewRuns) {
  const Image img(256, 256, kWhite);  // 65536 pixels = one 65535 run + one 1 run
  EXPECT_EQ(rle_encode(img).size(), 8u + 2 * 6);
}

TEST(RleCodec, RunNeverCrossesMaxU16) {
  // 70000 identical pixels require a run split at 65535.
  const Image img(700, 100, kBlack);
  auto out = rle_decode(rle_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, img);
}

TEST(RleCodec, OverflowingRunRejected) {
  // Declare more pixels than the image holds.
  ByteWriter w;
  w.u32(2);
  w.u32(2);
  w.u16(5);  // 5 > 4 pixels
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u8(255);
  EXPECT_FALSE(rle_decode(w.view()).ok());
}

TEST(RleCodec, ShortPayloadRejected) {
  ByteWriter w;
  w.u32(2);
  w.u32(2);
  w.u16(4);
  w.u8(0);  // truncated pixel
  EXPECT_FALSE(rle_decode(w.view()).ok());
}

TEST(RleCodec, RasterThePayloadCannotFillIsRefusedBeforeAllocation) {
  // A 4096 x 4096 header (64 MiB of pixels) with one run of 65535 pixels:
  // the payload cannot describe the raster, so nothing that size is
  // allocated.
  ByteWriter w;
  w.u32(4096);
  w.u32(4096);
  w.u16(65535);
  w.u8(1);
  w.u8(2);
  w.u8(3);
  w.u8(255);
  g_largest_allocation = 0;
  auto out = rle_decode(w.view());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kTruncated);
  EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 20);

  // A payload with exactly enough runs still decodes.
  const Image img(300, 437, Pixel{9, 8, 7, 255});  // 131100 pixels: 3 runs
  const Bytes enc = rle_encode(img);
  ASSERT_EQ(enc.size(), 8u + 3 * 6);
  auto back = rle_decode(enc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->pixels()[131099], img.pixels()[131099]);
}

TEST(RleCodec, EmptyImage) {
  const Image img;
  auto out = rle_decode(rle_encode(img));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->width(), 0);
}

}  // namespace
}  // namespace ads
