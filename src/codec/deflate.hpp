// DEFLATE compressor (RFC 1951), implemented from scratch.
//
// Pipeline: LZ77 tokenisation with hash-bucket match search (optionally
// lazy), then per-stream Huffman coding. The encoder emits whichever of
// {stored, fixed-Huffman, dynamic-Huffman} blocks is smallest for the data.
// Shared tables (length/distance code bases) live in this header so the
// inflater uses the identical definitions.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/bytes.hpp"

namespace ads {

struct DeflateOptions {
  /// 0 = stored only; 1 = greedy match, fixed-block preferred; 2-9 = hash
  /// chain search depth grows, lazy matching from level 4. Out-of-range
  /// values are clamped to [0, 9].
  int level = 6;
  /// Force block type for ablation benchmarks (E9); kAuto picks cheapest.
  enum class Block { kAuto, kStored, kFixed, kDynamic } block = Block::kAuto;
};

/// `level` folded into the supported range: negatives behave as 0 (stored
/// only), anything above 9 as 9.
int deflate_clamp_level(int level);

/// Reusable compressor state (match-candidate index, token list, frequency
/// tables, staging buffers). One scratch per thread: reusing it across calls makes
/// the steady-state encode path allocation-free for same-or-smaller inputs.
struct DeflateScratch {
  DeflateScratch();
  ~DeflateScratch();
  DeflateScratch(DeflateScratch&&) noexcept;
  DeflateScratch& operator=(DeflateScratch&&) noexcept;

  struct Impl;
  std::unique_ptr<Impl> impl;
  /// Staging for wrapper formats (zlib stream body); lives here so zlib/png
  /// can reuse it without seeing Impl.
  Bytes stream;
};

/// Compress `input` into a raw DEFLATE stream (no zlib wrapper).
Bytes deflate_compress(BytesView input, const DeflateOptions& opts = {});

/// As deflate_compress, but writes into `out` (cleared first, capacity kept)
/// and reuses `scratch` instead of allocating working state. Output bytes are
/// identical to deflate_compress for the same input and options.
void deflate_compress_into(BytesView input, const DeflateOptions& opts, Bytes& out,
                           DeflateScratch& scratch);

namespace deflate_tables {

// RFC 1951 §3.2.5. Length codes 257..285: base length and extra bits.
inline constexpr int kNumLengthCodes = 29;
inline constexpr std::array<std::uint16_t, kNumLengthCodes> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
inline constexpr std::array<std::uint8_t, kNumLengthCodes> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// Distance codes 0..29: base distance and extra bits.
inline constexpr int kNumDistCodes = 30;
inline constexpr std::array<std::uint16_t, kNumDistCodes> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
inline constexpr std::array<std::uint8_t, kNumDistCodes> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Fixed-Huffman code lengths (§3.2.6): literal/length symbols 0..287, then
// the 30 distance codes (all 5 bits).
inline constexpr auto kFixedLitLenLengths = [] {
  std::array<std::uint8_t, 288> l{};
  for (std::size_t i = 0; i < l.size(); ++i) l[i] = i < 144 ? 8 : i < 256 ? 9 : i < 280 ? 7 : 8;
  return l;
}();
inline constexpr std::size_t kFixedDistCodes = 30;
inline constexpr std::uint8_t kFixedDistLength = 5;

// Order in which code-length-code lengths are transmitted (§3.2.7).
inline constexpr std::array<std::uint8_t, 19> kClcOrder = {
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15};

/// Length value (0..258) -> length code index; 0..2 are not lengths.
inline constexpr auto kLengthCode = [] {
  std::array<std::uint8_t, 259> t{};
  for (std::size_t code = 0; code < kNumLengthCodes; ++code) {
    // 258 has its own code (28), so code 27 stops at 257.
    const int end = code + 1 < kNumLengthCodes ? kLengthBase[code + 1] : 259;
    for (int len = kLengthBase[code]; len < end; ++len) {
      t[static_cast<std::size_t>(len)] = static_cast<std::uint8_t>(code);
    }
  }
  return t;
}();

/// Distance code by `dist - 1` up to 256, then by `256 + ((dist - 1) >> 7)`:
/// every code above 15 spans whole multiples of 128 (zlib's `_dist_code`).
inline constexpr auto kDistCode = [] {
  std::array<std::uint8_t, 512> t{};
  for (std::size_t code = 0; code < kNumDistCodes; ++code) {
    const int end = code + 1 < kNumDistCodes ? kDistBase[code + 1] : 32769;
    for (int d = kDistBase[code]; d < end; ++d) {
      t[static_cast<std::size_t>(d <= 256 ? d - 1 : 256 + ((d - 1) >> 7))] =
          static_cast<std::uint8_t>(code);
    }
  }
  return t;
}();

/// Length value (3..258) -> length code index (0..28).
constexpr int length_code(int length) {
  assert(length >= 3 && length <= 258);
  return kLengthCode[static_cast<std::size_t>(length)];
}
/// Distance value (1..32768) -> distance code index (0..29).
constexpr int dist_code(int dist) {
  assert(dist >= 1 && dist <= 32768);
  return kDistCode[static_cast<std::size_t>(dist <= 256 ? dist - 1 : 256 + ((dist - 1) >> 7))];
}

}  // namespace deflate_tables

}  // namespace ads
