#include "codec/zlib.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/prng.hpp"

namespace ads {
namespace {

Bytes ascii(const char* s) {
  Bytes out;
  while (*s) out.push_back(static_cast<std::uint8_t>(*s++));
  return out;
}

TEST(Zlib, RoundTrip) {
  const Bytes input = ascii("zlib wraps a deflate stream with an adler checksum");
  auto out = zlib_decompress(zlib_compress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Zlib, EmptyRoundTrip) {
  auto out = zlib_decompress(zlib_compress({}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(Zlib, DecompressIntoChecksOnlyTheBytesItProduced) {
  // After a long stream, the reused buffer holds stale bytes past a short
  // stream's end; the Adler-32 must cover the short stream alone.
  Bytes out;
  const Bytes long_input(100000, 'a');
  auto n = zlib_decompress_into(zlib_compress(long_input), {}, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, long_input.size());
  const Bytes short_input = ascii("a short stream after a long one");
  n = zlib_decompress_into(zlib_compress(short_input), {}, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, short_input.size());
  EXPECT_TRUE(std::equal(short_input.begin(), short_input.end(), out.begin()));
  EXPECT_GE(out.size(), long_input.size());

  Bytes bad = zlib_compress(short_input);
  bad.back() ^= 0x01;
  n = zlib_decompress_into(bad, {}, out);
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error(), ParseError::kBadChecksum);
}

TEST(Zlib, HeaderIsRfc1950Conformant) {
  const Bytes stream = zlib_compress(ascii("x"));
  ASSERT_GE(stream.size(), 6u);
  EXPECT_EQ(stream[0] & 0x0F, 8);  // CM = deflate
  EXPECT_EQ((static_cast<unsigned>(stream[0]) * 256 + stream[1]) % 31, 0u);
  EXPECT_EQ(stream[1] & 0x20, 0);  // no FDICT
}

TEST(Zlib, DecodesReferenceStream) {
  // zlib-compressed "hello" as produced by standard zlib.
  const Bytes stream = {0x78, 0x9C, 0xCB, 0x48, 0xCD, 0xC9, 0xC9, 0x07,
                        0x00, 0x06, 0x2C, 0x02, 0x15};
  auto out = zlib_decompress(stream);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, ascii("hello"));
}

TEST(Zlib, CorruptedChecksumDetected) {
  Bytes stream = zlib_compress(ascii("payload payload payload"));
  stream.back() ^= 0xFF;
  auto out = zlib_decompress(stream);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kBadChecksum);
}

TEST(Zlib, CorruptedHeaderDetected) {
  Bytes stream = zlib_compress(ascii("payload"));
  stream[0] = 0x79;  // CM=9 unsupported
  EXPECT_FALSE(zlib_decompress(stream).ok());
  stream[0] = 0x78;
  stream[1] ^= 0x01;  // break the %31 check
  EXPECT_FALSE(zlib_decompress(stream).ok());
}

TEST(Zlib, TruncatedStreamDetected) {
  Bytes stream = zlib_compress(ascii("some reasonably long payload here"));
  stream.resize(4);
  EXPECT_FALSE(zlib_decompress(stream).ok());
  EXPECT_FALSE(zlib_decompress(BytesView(stream).subspan(0, 1)).ok());
}

TEST(Zlib, FdictRejected) {
  Bytes stream = zlib_compress(ascii("abc"));
  stream[1] |= 0x20;
  // Fix the header checksum so only FDICT triggers the failure.
  const unsigned cmf = stream[0];
  unsigned flg = stream[1] & ~0x1Fu;
  flg |= (31 - (cmf * 256 + flg) % 31) % 31;
  stream[1] = static_cast<std::uint8_t>(flg);
  auto out = zlib_decompress(stream);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.error(), ParseError::kUnsupported);
}

TEST(Zlib, LargeRandomisedRoundTrips) {
  Prng rng(23);
  for (int iter = 0; iter < 5; ++iter) {
    Bytes input(static_cast<std::size_t>(rng.range(0, 200000)));
    for (auto& b : input) {
      // Mix of compressible (zero) and random bytes.
      b = rng.chance(0.7) ? 0 : static_cast<std::uint8_t>(rng.next_u32());
    }
    auto out = zlib_decompress(zlib_compress(input));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, input);
  }
}

}  // namespace
}  // namespace ads
