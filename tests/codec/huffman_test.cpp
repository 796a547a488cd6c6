#include "codec/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/prng.hpp"

namespace ads {
namespace {

TEST(BuildCodeLengths, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs(10, 0);
  freqs[4] = 100;
  auto lengths = build_code_lengths(freqs, 15);
  EXPECT_EQ(lengths[4], 1);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (i != 4) {
      EXPECT_EQ(lengths[i], 0);
    }
  }
}

TEST(BuildCodeLengths, KraftInequalityHolds) {
  Prng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::uint64_t> freqs(286);
    for (auto& f : freqs) f = rng.below(1000);
    auto lengths = build_code_lengths(freqs, 15);
    double kraft = 0;
    for (std::uint8_t l : lengths) {
      if (l) kraft += std::pow(2.0, -static_cast<double>(l));
    }
    EXPECT_LE(kraft, 1.0 + 1e-12);
  }
}

TEST(BuildCodeLengths, RespectsMaxBits) {
  // Exponential frequencies force a degenerate tree deeper than 7 without
  // the limiting fallback.
  std::vector<std::uint64_t> freqs;
  std::uint64_t f = 1;
  for (int i = 0; i < 20; ++i) {
    freqs.push_back(f);
    f *= 3;
  }
  auto lengths = build_code_lengths(freqs, 7);
  for (std::uint8_t l : lengths) EXPECT_LE(l, 7);
  // All symbols still get codes.
  for (std::uint8_t l : lengths) EXPECT_GT(l, 0);
}

TEST(BuildCodeLengths, FrequentSymbolsGetShorterCodes) {
  std::vector<std::uint64_t> freqs = {1000, 1, 1, 1};
  auto lengths = build_code_lengths(freqs, 15);
  EXPECT_LT(lengths[0], lengths[3]);
}

TEST(CanonicalCodes, MatchRfc1951Example) {
  // RFC 1951 §3.2.2 example: alphabet ABCDEFGH with lengths (3,3,3,3,3,2,4,4)
  // yields codes 010,011,100,101,110,00,1110,1111 (before bit reversal).
  const std::vector<std::uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  auto codes = canonical_codes(lengths);
  const std::vector<std::uint32_t> expected_msb = {0b010, 0b011, 0b100, 0b101,
                                                   0b110, 0b00,  0b1110, 0b1111};
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_EQ(codes[i], reverse_bits(expected_msb[i], lengths[i])) << "symbol " << i;
  }
}

TEST(HuffmanDecoder, RejectsOversubscribedCode) {
  // Three codes of length 1 cannot exist.
  HuffmanDecoder d;
  EXPECT_FALSE(d.init({1, 1, 1}).ok());
}

TEST(HuffmanDecoder, AcceptsIncompleteCode) {
  // A single length-1 code (DEFLATE's degenerate distance table).
  HuffmanDecoder d;
  EXPECT_TRUE(d.init({1}).ok());
}

TEST(HuffmanRoundTrip, EncodeDecodeRandomSymbols) {
  Prng rng(17);
  for (int iter = 0; iter < 10; ++iter) {
    const int alphabet = static_cast<int>(rng.range(2, 286));
    std::vector<std::uint64_t> freqs(static_cast<std::size_t>(alphabet));
    for (auto& f : freqs) f = rng.below(500) + (rng.chance(0.3) ? 0 : 1);
    if (std::accumulate(freqs.begin(), freqs.end(), 0ull) == 0) freqs[0] = 1;

    auto lengths = build_code_lengths(freqs, 15);
    auto codes = canonical_codes(lengths);
    HuffmanDecoder dec;
    ASSERT_TRUE(dec.init(lengths).ok());

    // Emit a random sequence of symbols that have codes.
    std::vector<int> symbols;
    for (int s = 0; s < alphabet; ++s) {
      if (lengths[static_cast<std::size_t>(s)]) symbols.push_back(s);
    }
    ASSERT_FALSE(symbols.empty());
    BitWriter w;
    std::vector<int> emitted;
    for (int k = 0; k < 500; ++k) {
      const int sym = symbols[rng.below(symbols.size())];
      emitted.push_back(sym);
      w.write(codes[static_cast<std::size_t>(sym)],
              lengths[static_cast<std::size_t>(sym)]);
    }
    const Bytes data = w.take();
    BitReader r(data);
    for (int expected : emitted) {
      auto got = dec.decode(r);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expected);
    }
  }
}

TEST(HuffmanDecoder, CodesLongerThanTheTableDecodeThroughTheWalk) {
  // Doubling frequencies build a degenerate tree: codes of every length up
  // to the 15-bit limit, most of them past the one-lookup table.
  std::vector<std::uint64_t> freqs;
  for (int i = 0; i < 24; ++i) freqs.push_back(std::uint64_t{1} << i);
  const auto lengths = build_code_lengths(freqs, 15);
  const auto codes = canonical_codes(lengths);
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()), 15);
  HuffmanDecoder dec;
  ASSERT_TRUE(dec.init(lengths).ok());

  Prng rng(23);
  std::vector<int> emitted;
  BitWriter w;
  for (int k = 0; k < 2000; ++k) {
    const int sym = static_cast<int>(rng.below(lengths.size()));
    emitted.push_back(sym);
    w.write(codes[static_cast<std::size_t>(sym)], lengths[static_cast<std::size_t>(sym)]);
  }
  const Bytes data = w.take();
  BitReader r(data);
  int long_codes = 0;
  for (int expected : emitted) {
    auto got = dec.decode(r);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, expected);
    if (lengths[static_cast<std::size_t>(expected)] > HuffmanDecoder::kTableBits) ++long_codes;
  }
  EXPECT_GT(long_codes, 1000);
}

/// Symbol k < 15 is k ones then a zero (k + 1 bits); 15 is fifteen ones.
std::vector<std::uint8_t> staircase_lengths() {
  std::vector<std::uint8_t> lengths;
  for (int k = 0; k < 15; ++k) lengths.push_back(static_cast<std::uint8_t>(k + 1));
  lengths.push_back(15);
  return lengths;
}

TEST(HuffmanDecoder, TruncationInsideAShortCode) {
  HuffmanDecoder d;
  ASSERT_TRUE(d.init(staircase_lengths()).ok());
  // Seven 0s (symbol 0), then the first bit of symbol 1 ("10").
  const Bytes data = {0x80};
  BitReader r(data);
  for (int k = 0; k < 7; ++k) ASSERT_EQ(d.decode(r).value(), 0);
  auto v = d.decode(r);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error(), ParseError::kTruncated);
}

TEST(HuffmanDecoder, TruncationInsideALongCode) {
  HuffmanDecoder d;
  ASSERT_TRUE(d.init(staircase_lengths()).ok());
  // Eight 1s: a prefix of every code from 9 bits up. The zero-padded
  // lookup lands on the 9-bit symbol 8, which does not fit.
  {
    const Bytes data = {0xFF};
    BitReader r(data);
    auto v = d.decode(r);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error(), ParseError::kTruncated);
  }
  // Four 0s, then twelve 1s: no code fits in the table's ten bits, and the
  // walk runs out of input at 13.
  {
    const Bytes data = {0xF0, 0xFF};
    BitReader r(data);
    for (int k = 0; k < 4; ++k) ASSERT_EQ(d.decode(r).value(), 0);
    auto v = d.decode(r);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error(), ParseError::kTruncated);
  }
}

TEST(HuffmanDecoder, BitsMatchingNoCodeOfAnIncompleteTable) {
  // Symbols of lengths 1 and 2 leave every pattern starting "11" unused.
  HuffmanDecoder d;
  ASSERT_TRUE(d.init({1, 2}).ok());
  const Bytes data = {0xFE, 0xFF};
  BitReader r(data);
  ASSERT_EQ(d.decode(r).value(), 0);
  auto v = d.decode(r);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error(), ParseError::kBadValue);
}

TEST(HuffmanDecoder, GarbageInputFailsCleanly) {
  HuffmanDecoder d;
  ASSERT_TRUE(d.init({2, 2, 2, 3, 3}).ok());
  const Bytes empty;
  BitReader r(empty);
  EXPECT_FALSE(d.decode(r).ok());
}

}  // namespace
}  // namespace ads
