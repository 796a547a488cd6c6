#include "codec/inflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <vector>

#include "codec/bitstream.hpp"
#include "codec/deflate.hpp"
#include "codec/huffman.hpp"

namespace ads {
namespace {

using namespace deflate_tables;

constexpr int kEndOfBlock = 256;
constexpr std::size_t kMaxMatch = 258;
/// The fast loop runs while this much output room is left: one maximum
/// match plus the 16-byte overrun of its chunked copy.
constexpr std::size_t kFastRoom = kMaxMatch + 16;
/// First capacity step; later steps are four times what has been
/// produced, so growing a 400 kB band copies about 300 kB.
constexpr std::size_t kFirstStep = std::size_t{64} << 10;

/// The fast loop's per-block tables: for every kTableBits-bit stream
/// prefix, what the code it starts decodes to, with a length's or a
/// distance's base and extra-bit count folded in, so one lookup yields the
/// value and the bits to consume. Entry layout: value << 16 | kind << 12 |
/// (code length + extra bits) << 4 | code length. Kind 0 (a longer code, a
/// symbol DEFLATE does not define, or no code) sends the symbol to the
/// checked path.
constexpr unsigned kTableBits = HuffmanDecoder::kTableBits;
constexpr std::uint32_t kTableMask = (1u << kTableBits) - 1;
enum : std::uint32_t { kKindLiteral = 1, kKindMatch = 2, kKindEnd = 3 };

struct FastTables {
  std::array<std::uint32_t, 1 << kTableBits> litlen;
  std::array<std::uint32_t, 1 << kTableBits> dist;
};

constexpr std::uint32_t fast_entry(std::uint32_t kind, std::uint32_t value,
                                   std::uint32_t code_len, std::uint32_t extra) {
  return value << 16 | kind << 12 | (code_len + extra) << 4 | code_len;
}

void build_fast_tables(const HuffmanDecoder& litlen, const HuffmanDecoder& dist,
                       FastTables& t) {
  for (std::uint32_t bits = 0; bits <= kTableMask; ++bits) {
    const std::uint16_t e = litlen.lookup(bits);
    const std::uint32_t sym = e >> 4;
    const std::uint32_t len = e & 15;
    std::uint32_t f = 0;
    if (e != 0 && sym < 256) {
      f = fast_entry(kKindLiteral, sym, len, 0);
    } else if (e != 0 && sym == kEndOfBlock) {
      f = fast_entry(kKindEnd, 0, len, 0);
    } else if (e != 0 && sym - 257 < kNumLengthCodes) {
      f = fast_entry(kKindMatch, kLengthBase[sym - 257], len, kLengthExtra[sym - 257]);
    }
    t.litlen[bits] = f;
    const std::uint16_t d = dist.lookup(bits);
    const std::uint32_t dsym = d >> 4;
    t.dist[bits] = d != 0 && dsym < kNumDistCodes
                       ? fast_entry(kKindMatch, kDistBase[dsym], d & 15u, kDistExtra[dsym])
                       : 0;
  }
}

/// A block's decoders: the checked path's and the fast loop's view of them.
struct BlockTables {
  HuffmanDecoder litlen;
  HuffmanDecoder dist;
  FastTables fast;
};

/// Little-endian load of 8 input bytes.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

/// Copy a `length`-byte match from `distance` bytes back. A match that
/// overlaps its own output repeats its first `distance` bytes: a run for
/// distance 1, otherwise by period doubling. Each copy's source ends where
/// its destination starts, so every memcpy is disjoint, and a match that
/// does not overlap is one memcpy.
void copy_match(std::uint8_t* dst, std::size_t distance, std::size_t length) {
  const std::uint8_t* src = dst - distance;
  if (distance == 1) {
    std::memset(dst, *src, length);
    return;
  }
  std::size_t done = 0;
  for (std::size_t chunk = distance; done < length; chunk = done + distance) {
    const std::size_t n = std::min(chunk, length - done);
    std::memcpy(dst + done, src, n);
    done += n;
  }
}

/// One DEFLATE stream's decoder state. Output is written through `base_`
/// into `out_`, whose first `cap_` bytes are the capacity: what `out_`
/// already holds, up to the limit. Growing never takes capacity past the
/// limit, nor past the larger of kFirstStep and four times what has been
/// produced (or what has been produced plus the match or stored block
/// being written), so a hostile `max_output` costs nothing until the
/// stream delivers the bytes. `out_` never shrinks.
class Inflater {
 public:
  Inflater(BytesView input, const InflateLimits& limits, Bytes& out)
      : input_(input),
        in_(input),
        limit_(limits.max_output == 0 ? std::numeric_limits<std::size_t>::max()
                                      : limits.max_output),
        out_(out),
        base_(out.data()),
        cap_(std::min(out.size(), limit_)) {}

  /// Decode the whole stream; returns the number of bytes produced.
  Result<std::size_t> run();

 private:
  /// Make room for `n` more bytes. kOverflow past the limit.
  ParseStatus reserve(std::size_t n) {
    if (n > limit_ - pos_) return ParseError::kOverflow;
    if (n > cap_ - pos_) grow(pos_ + n);
    return {};
  }

  void grow(std::size_t need) {
    cap_ = std::min(limit_, std::max({need, 4 * pos_, kFirstStep}));
    if (out_.size() < cap_) {
      out_.resize(cap_);
      base_ = out_.data();
    }
  }

  ParseStatus stored_block();
  ParseStatus huffman_block(const BlockTables& tables);
  bool fast_symbols(const FastTables& tables);
  ParseStatus checked_symbol(const HuffmanDecoder& litlen, const HuffmanDecoder& dist,
                             bool& end_of_block);

  BytesView input_;
  BitReader in_;
  std::size_t limit_;
  Bytes& out_;
  std::uint8_t* base_;
  std::size_t pos_ = 0;  ///< bytes produced
  std::size_t cap_;      ///< usable bytes of out_, <= out_.size() and the limit
};

ParseStatus Inflater::stored_block() {
  in_.align_to_byte();
  auto len_lo = in_.read(8);
  auto len_hi = in_.read(8);
  auto nlen_lo = in_.read(8);
  auto nlen_hi = in_.read(8);
  if (!len_lo || !len_hi || !nlen_lo || !nlen_hi) return ParseError::kTruncated;
  const std::uint16_t len = static_cast<std::uint16_t>(*len_lo | (*len_hi << 8));
  const std::uint16_t nlen = static_cast<std::uint16_t>(*nlen_lo | (*nlen_hi << 8));
  if (static_cast<std::uint16_t>(~len) != nlen) return ParseError::kBadValue;
  if (auto s = reserve(len); !s.ok()) return s;
  const BytesView stored = in_.remaining_bytes();
  if (stored.size() < len) return ParseError::kTruncated;
  if (len != 0) std::memcpy(base_ + pos_, stored.data(), len);
  pos_ += len;
  in_.consume(8 * len);
  return {};
}

/// Decode symbols from a 64-bit bit buffer while at least 8 input bytes
/// and kFastRoom output bytes remain. Each step refills the buffer to 56 or
/// more bits with one unaligned load; a whole length/distance pair takes at
/// most 10 + 5 + 10 + 13 = 38 of them, so no symbol needs a truncation
/// check, and the next symbol's table entry is looked up from the bits left
/// over before the refill lands. A symbol is consumed only once it is known
/// to be valid. Returns true at the end of the block; false hands the next
/// symbol to checked_symbol() (a code longer than the table, a bad symbol
/// or distance, or the stream's tail), which decodes it from the same bit.
bool Inflater::fast_symbols(const FastTables& t) {
  const std::uint8_t* const data = input_.data();
  const std::size_t start = in_.bit_position();
  // Refills load 8 bytes at `p`, which must not pass `last`.
  if (input_.size() < 8 || (start >> 3) > input_.size() - 8) return false;
  const std::uint8_t* const last = data + input_.size() - 8;
  const std::uint8_t* p = data + (start >> 3);
  std::uint64_t bitbuf = 0;
  unsigned bitsleft = 0;  // valid bits in `bitbuf`; the stream position is p * 8 - bitsleft
  const auto refill = [&] {
    bitbuf |= load_le64(p) << bitsleft;
    p += (63 - bitsleft) >> 3;
    bitsleft |= 56;
  };
  refill();
  bitbuf >>= start & 7;
  bitsleft -= start & 7;

  std::uint8_t* const base = base_;
  std::size_t pos = pos_;
  const std::size_t cap = cap_;
  bool end_of_block = false;
  std::uint32_t e = t.litlen[bitbuf & kTableMask];
  // Here bitsleft >= 18 and `e` is the entry for the next symbol.
  while (p <= last && cap - pos >= kFastRoom) {
    refill();
    const std::uint32_t kind = e >> 12 & 3;
    if (kind == kKindLiteral) {
      // Two literals fit before the next refill.
      base[pos++] = static_cast<std::uint8_t>(e >> 16);
      bitbuf >>= e & 15;
      bitsleft -= e & 15;
      e = t.litlen[bitbuf & kTableMask];
      if ((e >> 12 & 3) == kKindLiteral) {
        base[pos++] = static_cast<std::uint8_t>(e >> 16);
        bitbuf >>= e & 15;
        bitsleft -= e & 15;
        e = t.litlen[bitbuf & kTableMask];
      }
      continue;
    }
    if (kind != kKindMatch) {
      if (kind == kKindEnd) {
        bitbuf >>= e & 15;
        bitsleft -= e & 15;
        end_of_block = true;
      }
      break;
    }
    // The length code and its extra bits form one `total`-bit field.
    const std::uint32_t total = e >> 4 & 31;
    const std::size_t length =
        (e >> 16) + ((bitbuf & ((std::uint64_t{1} << total) - 1)) >> (e & 15));
    const std::uint64_t rest = bitbuf >> total;
    const std::uint32_t d = t.dist[rest & kTableMask];
    if (d == 0) break;
    const std::uint32_t dtotal = d >> 4 & 31;
    const std::size_t distance =
        (d >> 16) + ((rest & ((std::uint64_t{1} << dtotal) - 1)) >> (d & 15));
    if (distance > pos) break;
    bitbuf = rest >> dtotal;
    bitsleft -= total + dtotal;
    e = t.litlen[bitbuf & kTableMask];

    std::uint8_t* dst = base + pos;
    if (distance >= 16) {
      // Disjoint 16-byte chunks; the last may run up to 15 bytes past the
      // match, into room that later output overwrites.
      const std::uint8_t* src = dst - distance;
      for (std::size_t k = 0; k < length; k += 16) std::memcpy(dst + k, src + k, 16);
    } else {
      copy_match(dst, distance, length);
    }
    pos += length;
  }
  in_.seek(static_cast<std::size_t>(p - data) * 8 - bitsleft);
  pos_ = pos;
  return end_of_block;
}

/// Decode one symbol with every bounds check (the pre-fast-path loop body).
ParseStatus Inflater::checked_symbol(const HuffmanDecoder& litlen, const HuffmanDecoder& dist,
                                     bool& end_of_block) {
  auto sym = litlen.decode(in_);
  if (!sym) return sym.error();
  if (*sym < 256) {
    if (auto s = reserve(1); !s.ok()) return s;
    base_[pos_++] = static_cast<std::uint8_t>(*sym);
    return {};
  }
  if (*sym == kEndOfBlock) {
    end_of_block = true;
    return {};
  }
  const int lc = *sym - 257;
  if (lc >= kNumLengthCodes) return ParseError::kBadValue;
  auto lextra = in_.read(kLengthExtra[static_cast<std::size_t>(lc)]);
  if (!lextra) return lextra.error();
  const std::size_t length = kLengthBase[static_cast<std::size_t>(lc)] + *lextra;

  auto dsym = dist.decode(in_);
  if (!dsym) return dsym.error();
  if (*dsym >= kNumDistCodes) return ParseError::kBadValue;
  auto dextra = in_.read(kDistExtra[static_cast<std::size_t>(*dsym)]);
  if (!dextra) return dextra.error();
  const std::size_t distance = kDistBase[static_cast<std::size_t>(*dsym)] + *dextra;

  if (distance > pos_) return ParseError::kBadValue;
  if (auto s = reserve(length); !s.ok()) return s;
  copy_match(base_ + pos_, distance, length);
  pos_ += length;
  return {};
}

ParseStatus Inflater::huffman_block(const BlockTables& tables) {
  for (;;) {
    if (cap_ - pos_ < kFastRoom && kFastRoom <= limit_ - pos_) grow(pos_ + kFastRoom);
    if (fast_symbols(tables.fast)) return {};
    bool end_of_block = false;
    if (auto s = checked_symbol(tables.litlen, tables.dist, end_of_block); !s.ok()) return s;
    if (end_of_block) return {};
  }
}

ParseStatus read_dynamic_tables(BitReader& in, BlockTables& tables) {
  HuffmanDecoder& litlen = tables.litlen;
  HuffmanDecoder& dist = tables.dist;
  auto hlit = in.read(5);
  auto hdist = in.read(5);
  auto hclen = in.read(4);
  if (!hlit || !hdist || !hclen) return ParseError::kTruncated;
  const int nlit = static_cast<int>(*hlit) + 257;
  const int ndist = static_cast<int>(*hdist) + 1;
  const int nclc = static_cast<int>(*hclen) + 4;
  if (nlit > 286 || ndist > 30) return ParseError::kBadValue;

  std::vector<std::uint8_t> clc_lengths(19, 0);
  for (int i = 0; i < nclc; ++i) {
    auto v = in.read(3);
    if (!v) return v.error();
    clc_lengths[kClcOrder[static_cast<std::size_t>(i)]] = static_cast<std::uint8_t>(*v);
  }
  HuffmanDecoder clc;
  if (auto s = clc.init(clc_lengths); !s.ok()) return s;

  std::vector<std::uint8_t> lengths;
  lengths.reserve(static_cast<std::size_t>(nlit + ndist));
  while (static_cast<int>(lengths.size()) < nlit + ndist) {
    auto sym = clc.decode(in);
    if (!sym) return sym.error();
    if (*sym < 16) {
      lengths.push_back(static_cast<std::uint8_t>(*sym));
    } else if (*sym == 16) {
      if (lengths.empty()) return ParseError::kBadValue;
      auto rep = in.read(2);
      if (!rep) return rep.error();
      const std::uint8_t prev = lengths.back();
      for (std::uint32_t k = 0; k < *rep + 3; ++k) lengths.push_back(prev);
    } else if (*sym == 17) {
      auto rep = in.read(3);
      if (!rep) return rep.error();
      for (std::uint32_t k = 0; k < *rep + 3; ++k) lengths.push_back(0);
    } else {  // 18
      auto rep = in.read(7);
      if (!rep) return rep.error();
      for (std::uint32_t k = 0; k < *rep + 11; ++k) lengths.push_back(0);
    }
  }
  if (static_cast<int>(lengths.size()) != nlit + ndist) return ParseError::kBadValue;

  std::vector<std::uint8_t> lit_lengths(lengths.begin(), lengths.begin() + nlit);
  std::vector<std::uint8_t> dist_lengths(lengths.begin() + nlit, lengths.end());
  if (auto s = litlen.init(lit_lengths); !s.ok()) return s;
  // A block with no matches can legally transmit a degenerate distance code
  // (a single zero length); treat an uninitialisable distance table as
  // "no distance codes" and fail only if a match actually needs one.
  if (auto s = dist.init(dist_lengths); !s.ok()) {
    // leave `dist` uninitialised; decode() on it will fail
  }
  build_fast_tables(litlen, dist, tables.fast);
  return {};
}

/// The fixed-Huffman tables are constant; build them once.
const BlockTables& fixed_tables() {
  static const BlockTables fixed = [] {
    BlockTables t;
    [[maybe_unused]] const bool ok =
        t.litlen.init(std::vector<std::uint8_t>(kFixedLitLenLengths.begin(),
                                                kFixedLitLenLengths.end()))
            .ok() &&
        t.dist.init(std::vector<std::uint8_t>(kFixedDistCodes, kFixedDistLength)).ok();
    assert(ok);
    build_fast_tables(t.litlen, t.dist, t.fast);
    return t;
  }();
  return fixed;
}

Result<std::size_t> Inflater::run() {
  for (;;) {
    auto bfinal = in_.bit();
    if (!bfinal) return bfinal.error();
    auto btype = in_.read(2);
    if (!btype) return btype.error();

    if (*btype == 0) {
      if (auto s = stored_block(); !s.ok()) return s.error();
    } else if (*btype == 1) {
      if (auto s = huffman_block(fixed_tables()); !s.ok()) return s.error();
    } else if (*btype == 2) {
      BlockTables tables;
      if (auto s = read_dynamic_tables(in_, tables); !s.ok()) return s.error();
      if (auto s = huffman_block(tables); !s.ok()) return s.error();
    } else {
      return ParseError::kBadValue;
    }

    if (*bfinal) break;
  }
  return pos_;
}

}  // namespace

Result<std::size_t> inflate_into(BytesView input, const InflateLimits& limits, Bytes& out) {
  return Inflater(input, limits, out).run();
}

Result<Bytes> inflate(BytesView input, const InflateLimits& limits) {
  Bytes out;
  auto n = inflate_into(input, limits, out);
  if (!n) return n.error();
  out.resize(*n);
  return out;
}

}  // namespace ads
