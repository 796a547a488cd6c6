#include "codec/bitstream.hpp"

#include <cassert>

namespace ads {

void BitWriter::write(std::uint32_t bits, int count) {
  assert(count >= 0 && count <= 32);
  while (count > 0) {
    if (bit_pos_ == 0) buf_.push_back(0);
    const int room = 8 - bit_pos_;
    const int take = count < room ? count : room;
    buf_.back() |= static_cast<std::uint8_t>((bits & ((1u << take) - 1)) << bit_pos_);
    bits >>= take;
    count -= take;
    bit_pos_ = (bit_pos_ + take) & 7;
  }
}

void BitWriter::align_to_byte() { bit_pos_ = 0; }

void BitWriter::byte(std::uint8_t b) {
  assert(bit_pos_ == 0);
  buf_.push_back(b);
}

Result<std::uint32_t> BitReader::read(int count) {
  assert(count >= 0 && count <= 32);
  if (bits_remaining() < static_cast<std::size_t>(count)) return ParseError::kTruncated;
  const std::uint32_t out = peek(count);
  consume(count);
  return out;
}

void BitReader::align_to_byte() {
  if (bit_pos_ != 0) {
    bit_pos_ = 0;
    ++byte_pos_;
  }
}

}  // namespace ads
