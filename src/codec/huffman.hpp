// Canonical Huffman code construction and decoding, shared by the DEFLATE
// encoder/decoder and the DCT codec's entropy stage.
//
// Encoding side: build_code_lengths() produces length-limited code lengths
// from symbol frequencies; canonical_codes() assigns the RFC 1951 §3.2.2
// canonical bit patterns (returned already bit-reversed, ready for the
// LSB-first BitWriter).
//
// Decoding side: HuffmanDecoder consumes a code-length vector and decodes
// symbols from a BitReader: codes of up to kTableBits bits in one lookup,
// longer ones by the canonical count/offset walk.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "codec/bitstream.hpp"
#include "util/result.hpp"

namespace ads {

/// Compute code lengths (0 = symbol unused) for `freqs`, limited to
/// `max_bits`. Uses Huffman construction with frequency-halving fallback
/// when the natural tree exceeds the limit. If only one symbol has nonzero
/// frequency it is assigned length 1 (DEFLATE requires a decodable code).
std::vector<std::uint8_t> build_code_lengths(const std::vector<std::uint64_t>& freqs,
                                             int max_bits);

/// Canonical code values for `lengths` per RFC 1951, bit-reversed so they
/// can be emitted through the LSB-first BitWriter directly.
std::vector<std::uint32_t> canonical_codes(const std::vector<std::uint8_t>& lengths);

class HuffmanDecoder {
 public:
  HuffmanDecoder() = default;

  /// Build the decoding tables. Fails (kBadValue) on an over-subscribed
  /// code; incomplete codes are accepted (required by DEFLATE's degenerate
  /// single-symbol distance codes).
  ParseStatus init(const std::vector<std::uint8_t>& lengths);

  /// Decode one symbol. kTruncated if the data ends inside a code,
  /// kBadValue if the bits match no code.
  Result<int> decode(BitReader& in) const {
    if (!initialised()) return ParseError::kBadValue;
    const std::uint16_t entry = table_[in.peek(kTableBits)];
    if (entry == 0) return decode_long(in);
    // Codes are prefix-free: if the zero-padded lookup found a code longer
    // than what is left, no code fits in the remaining bits.
    const int len = entry & 15;
    if (in.bits_remaining() < static_cast<std::size_t>(len)) return ParseError::kTruncated;
    in.consume(len);
    return entry >> 4;
  }

  bool initialised() const { return !sorted_symbols_.empty(); }

  /// The table entry for the next stream bits (only the low kTableBits
  /// are used): symbol << 4 | code length, or 0 when they start a longer
  /// code, match no code, or the decoder is uninitialised. For a caller
  /// that holds the bits in a register and has checked there are enough.
  std::uint16_t lookup(std::uint32_t bits) const {
    return table_[bits & ((1u << kTableBits) - 1)];
  }

  /// Codes up to this many bits decode with one table lookup.
  static constexpr int kTableBits = 10;

 private:
  /// Canonical walk, bit by bit, for codes longer than kTableBits (and bit
  /// patterns that match no code).
  Result<int> decode_long(BitReader& in) const;

  static constexpr int kMaxBits = 15;
  // table_[next kTableBits stream bits] = symbol << 4 | code length, or 0
  // when the bits start a longer code or no code at all.
  std::array<std::uint16_t, 1 << kTableBits> table_ = {};
  // counts_[l]   = number of codes of length l
  // offsets_[l]  = index into sorted_symbols_ of the first code of length l
  // first_code_[l] = canonical value of the first (non-reversed) code of length l
  std::uint16_t counts_[kMaxBits + 1] = {};
  std::uint16_t offsets_[kMaxBits + 1] = {};
  std::uint32_t first_code_[kMaxBits + 1] = {};
  std::vector<std::uint16_t> sorted_symbols_;
};

}  // namespace ads
