// LSB-first bit I/O as required by DEFLATE (RFC 1951 §3.1.1): data elements
// are packed starting at the least-significant bit of each byte. Huffman
// codes are packed most-significant-bit first, which callers achieve by
// reversing the code bits before writing (see Huffman code builder).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace ads {

class BitWriter {
 public:
  BitWriter() = default;
  /// Adopt `buf` as the output buffer (cleared, capacity kept) so callers on
  /// a hot path can reuse one allocation across invocations via take().
  explicit BitWriter(Bytes buf) : buf_(std::move(buf)) { buf_.clear(); }

  /// Append the low `count` bits of `bits`, LSB first. count <= 32.
  void write(std::uint32_t bits, int count);

  /// Pad with zero bits to the next byte boundary.
  void align_to_byte();

  /// Append a whole byte (must be byte-aligned).
  void byte(std::uint8_t b);

  std::size_t bit_count() const { return buf_.size() * 8 - (bit_pos_ ? 8 - bit_pos_ : 0); }
  const Bytes& data() const { return buf_; }
  Bytes take() {
    align_to_byte();
    return std::move(buf_);
  }

 private:
  Bytes buf_;
  int bit_pos_ = 0;  ///< bits already used in the last byte (0 = aligned)
};

class BitReader {
 public:
  explicit BitReader(BytesView data) : data_(data) {}

  /// The next `count` bits (count <= 32), LSB first, without consuming them.
  /// Bits past the end of the data read as zero.
  std::uint32_t peek(int count) const {
    const std::size_t avail = data_.size() - byte_pos_;
    const std::uint8_t* p = data_.data() + byte_pos_;
    std::uint64_t window = 0;
    if (std::endian::native == std::endian::little && avail >= 8) {
      std::memcpy(&window, p, 8);
    } else {
      for (std::size_t k = 0; k < avail && k < 8; ++k) window |= std::uint64_t{p[k]} << (8 * k);
    }
    return static_cast<std::uint32_t>((window >> bit_pos_) &
                                      ((std::uint64_t{1} << count) - 1));
  }

  /// Skip `count` bits; the caller checks bits_remaining() first.
  void consume(int count) {
    bit_pos_ += count;
    byte_pos_ += static_cast<std::size_t>(bit_pos_ >> 3);
    bit_pos_ &= 7;
  }

  /// Read `count` bits, LSB first. Returns kTruncated past the end.
  Result<std::uint32_t> read(int count);

  /// Read a single bit.
  Result<std::uint32_t> bit() { return read(1); }

  /// Discard bits up to the next byte boundary.
  void align_to_byte();

  /// Bytes fully or partially consumed so far.
  std::size_t byte_position() const { return byte_pos_ + (bit_pos_ ? 1 : 0); }
  /// Bits consumed so far.
  std::size_t bit_position() const {
    return byte_pos_ * 8 + static_cast<std::size_t>(bit_pos_);
  }
  /// Continue from bit `position` (at most the data's size in bits), for a
  /// caller that decoded ahead on its own copy of the bits.
  void seek(std::size_t position) {
    byte_pos_ = position >> 3;
    bit_pos_ = static_cast<int>(position & 7);
  }
  /// View of remaining whole bytes (call align_to_byte() first).
  BytesView remaining_bytes() const { return data_.subspan(byte_pos_); }
  std::size_t bits_remaining() const {
    return (data_.size() - byte_pos_) * 8 - static_cast<std::size_t>(bit_pos_);
  }

 private:
  BytesView data_;
  std::size_t byte_pos_ = 0;
  int bit_pos_ = 0;  ///< bits consumed in the current byte
};

/// Reverse the low `count` bits of `v` (used to emit Huffman codes MSB-first
/// through the LSB-first writer).
constexpr std::uint32_t reverse_bits(std::uint32_t v, int count) {
  std::uint32_t r = 0;
  for (int i = 0; i < count; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

}  // namespace ads
