// The *_into scratch overloads must be byte-identical to their allocating
// counterparts — that equivalence is what lets the parallel encoder and the
// encoded-region cache reuse arenas without changing the wire format.
#include <gtest/gtest.h>

#include "capture/apps.hpp"
#include "codec/dct_codec.hpp"
#include "codec/deflate.hpp"
#include "codec/registry.hpp"
#include "codec/zlib.hpp"

namespace ads {
namespace {

Image workload_frame(std::string_view name, std::int64_t w, std::int64_t h) {
  auto app = make_app(name, w, h, 7);
  for (int t = 0; t < 10; ++t) app->tick(static_cast<std::uint64_t>(t));
  return app->content();
}

TEST(EncodeScratch, EncodeIntoMatchesEncodeAcrossCodecsAndWorkloads) {
  const CodecRegistry registry = CodecRegistry::with_defaults();
  EncodeScratch scratch;
  Bytes out;
  for (const char* workload : {"terminal", "slideshow", "video"}) {
    const Image frame = workload_frame(workload, 160, 120);
    for (const ContentPt pt :
         {ContentPt::kRaw, ContentPt::kRle, ContentPt::kPng, ContentPt::kDct}) {
      const ImageCodec* codec = registry.find(pt);
      ASSERT_NE(codec, nullptr);
      const Bytes expected = codec->encode(frame);
      // Every call shape reaches the one encode: params omitted, default
      // params given explicitly, and the codec's own encode_into.
      ASSERT_TRUE(registry.encode_into(pt, frame, out, scratch));
      EXPECT_EQ(out, expected) << codec->name() << " on " << workload;
      ASSERT_TRUE(registry.encode_into(pt, frame, out, scratch, EncodeParams{}));
      EXPECT_EQ(out, expected) << codec->name() << " on " << workload
                               << " (explicit default params)";
      codec->encode_into(frame, out, scratch);
      EXPECT_EQ(out, expected) << codec->name() << " on " << workload
                               << " (codec encode_into)";
      if (codec->lossless()) {
        // Lossless codecs ignore the quality override.
        ASSERT_TRUE(registry.encode_into(pt, frame, out, scratch,
                                         EncodeParams{.dct_quality = 20}));
        EXPECT_EQ(out, expected) << codec->name() << " on " << workload
                                 << " (quality override ignored)";
      }
    }
    // A DCT quality override encodes exactly as a codec built at that
    // quality would.
    for (const int q : {20, 90}) {
      ASSERT_TRUE(registry.encode_into(ContentPt::kDct, frame, out, scratch,
                                       EncodeParams{.dct_quality = q}));
      EXPECT_EQ(out, DctCodec(DctOptions{q}).encode(frame))
          << "dct quality " << q << " on " << workload;
    }
  }
}

TEST(EncodeScratch, ScratchReuseAcrossManyImagesStaysIdentical) {
  // The steady-state pattern: one arena, many differently-sized bands. The
  // arena must never leak state from one encode into the next.
  const CodecRegistry registry = CodecRegistry::with_defaults();
  EncodeScratch scratch;
  Bytes out;
  for (int i = 0; i < 8; ++i) {
    const Image frame = workload_frame("paint", 64 + 16 * i, 48 + 8 * i);
    for (const ContentPt pt : {ContentPt::kPng, ContentPt::kRle, ContentPt::kDct}) {
      ASSERT_TRUE(registry.encode_into(pt, frame, out, scratch));
      EXPECT_EQ(out, registry.find(pt)->encode(frame)) << "iteration " << i;
    }
  }
}

TEST(EncodeScratch, EncodeIntoUnknownPayloadTypeFails) {
  const CodecRegistry registry = CodecRegistry::with_defaults();
  EncodeScratch scratch;
  Bytes out = {1, 2, 3};
  EXPECT_FALSE(registry.encode_into(static_cast<ContentPt>(111),
                                    workload_frame("terminal", 32, 32), out, scratch));
}

TEST(EncodeScratch, DeflateCompressIntoMatchesDeflateCompress) {
  Bytes input;
  for (int i = 0; i < 40000; ++i) {
    input.push_back(static_cast<std::uint8_t>((i * 31) % 251));
  }
  DeflateScratch scratch;
  Bytes out;
  for (const int level : {0, 1, 6, 9}) {
    const DeflateOptions opts{.level = level};
    deflate_compress_into(input, opts, out, scratch);
    EXPECT_EQ(out, deflate_compress(input, opts)) << "level " << level;
  }
}

TEST(EncodeScratch, ZlibCompressIntoMatchesZlibCompress) {
  Bytes input;
  for (int i = 0; i < 20000; ++i) {
    input.push_back(static_cast<std::uint8_t>(i % 17));
  }
  DeflateScratch scratch;
  Bytes out;
  zlib_compress_into(input, {.level = 6}, out, scratch);
  EXPECT_EQ(out, zlib_compress(input, {.level = 6}));
}

TEST(EncodeScratch, RepeatedDeflateIntoReusesCapacity) {
  Bytes input(60000, 0xAB);
  DeflateScratch scratch;
  Bytes out;
  deflate_compress_into(input, {}, out, scratch);
  const Bytes first = out;
  const std::size_t cap = out.capacity();
  for (int i = 0; i < 4; ++i) {
    deflate_compress_into(input, {}, out, scratch);
    EXPECT_EQ(out, first);
    // Identical input: the recycled buffer must not need to regrow.
    EXPECT_EQ(out.capacity(), cap);
  }
}

}  // namespace
}  // namespace ads
