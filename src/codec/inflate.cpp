#include "codec/inflate.hpp"

#include <cassert>
#include <cstring>
#include <vector>

#include "codec/bitstream.hpp"
#include "codec/deflate.hpp"
#include "codec/huffman.hpp"

namespace ads {
namespace {

using namespace deflate_tables;

constexpr int kEndOfBlock = 256;

ParseStatus check_limit(const Bytes& out, std::size_t extra, const InflateLimits& limits) {
  if (limits.max_output != 0 && out.size() + extra > limits.max_output) {
    return ParseError::kOverflow;
  }
  return {};
}

ParseStatus inflate_block_body(BitReader& in, Bytes& out, const HuffmanDecoder& litlen,
                               const HuffmanDecoder& dist, const InflateLimits& limits) {
  for (;;) {
    auto sym = litlen.decode(in);
    if (!sym) return sym.error();
    if (*sym < 256) {
      if (auto s = check_limit(out, 1, limits); !s.ok()) return s;
      out.push_back(static_cast<std::uint8_t>(*sym));
      continue;
    }
    if (*sym == kEndOfBlock) return {};
    const int lc = *sym - 257;
    if (lc >= kNumLengthCodes) return ParseError::kBadValue;
    auto lextra = in.read(kLengthExtra[static_cast<std::size_t>(lc)]);
    if (!lextra) return lextra.error();
    const std::size_t length = kLengthBase[static_cast<std::size_t>(lc)] + *lextra;

    auto dsym = dist.decode(in);
    if (!dsym) return dsym.error();
    if (*dsym >= kNumDistCodes) return ParseError::kBadValue;
    auto dextra = in.read(kDistExtra[static_cast<std::size_t>(*dsym)]);
    if (!dextra) return dextra.error();
    const std::size_t distance = kDistBase[static_cast<std::size_t>(*dsym)] + *dextra;

    if (distance > out.size()) return ParseError::kBadValue;
    if (auto s = check_limit(out, length, limits); !s.ok()) return s;
    const std::size_t at = out.size();
    out.resize(at + length);
    std::uint8_t* dst = out.data() + at;
    const std::uint8_t* src = dst - distance;
    if (distance >= length) {
      std::memcpy(dst, src, length);
    } else {
      // The match overlaps its own output (an RLE-style run): byte order
      // matters.
      for (std::size_t k = 0; k < length; ++k) dst[k] = src[k];
    }
  }
}

ParseStatus read_dynamic_tables(BitReader& in, HuffmanDecoder& litlen,
                                HuffmanDecoder& dist) {
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
  return {};
}

struct FixedDecoders {
  HuffmanDecoder litlen;
  HuffmanDecoder dist;
};

/// The fixed-Huffman tables are constant; build them once.
const FixedDecoders& fixed_decoders() {
  static const FixedDecoders fixed = [] {
    FixedDecoders d;
    [[maybe_unused]] const bool ok =
        d.litlen.init(std::vector<std::uint8_t>(kFixedLitLenLengths.begin(),
                                                kFixedLitLenLengths.end()))
            .ok() &&
        d.dist.init(std::vector<std::uint8_t>(kFixedDistCodes, kFixedDistLength)).ok();
    assert(ok);
    return d;
  }();
  return fixed;
}

}  // namespace

Result<Bytes> inflate(BytesView input, const InflateLimits& limits) {
  BitReader in(input);
  Bytes out;

  for (;;) {
    auto bfinal = in.bit();
    if (!bfinal) return bfinal.error();
    auto btype = in.read(2);
    if (!btype) return btype.error();

    if (*btype == 0) {  // stored
      in.align_to_byte();
      auto len_lo = in.read(8);
      auto len_hi = in.read(8);
      auto nlen_lo = in.read(8);
      auto nlen_hi = in.read(8);
      if (!len_lo || !len_hi || !nlen_lo || !nlen_hi) return ParseError::kTruncated;
      const std::uint16_t len = static_cast<std::uint16_t>(*len_lo | (*len_hi << 8));
      const std::uint16_t nlen = static_cast<std::uint16_t>(*nlen_lo | (*nlen_hi << 8));
      if (static_cast<std::uint16_t>(~len) != nlen) return ParseError::kBadValue;
      if (auto s = check_limit(out, len, limits); !s.ok()) return s.error();
      const BytesView stored = in.remaining_bytes();
      if (stored.size() < len) return ParseError::kTruncated;
      out.insert(out.end(), stored.begin(), stored.begin() + len);
      in.consume(8 * len);
    } else if (*btype == 1) {  // fixed Huffman
      const FixedDecoders& fixed = fixed_decoders();
      if (auto s = inflate_block_body(in, out, fixed.litlen, fixed.dist, limits); !s.ok())
        return s.error();
    } else if (*btype == 2) {  // dynamic Huffman
      HuffmanDecoder litlen;
      HuffmanDecoder dist;
      if (auto s = read_dynamic_tables(in, litlen, dist); !s.ok()) return s.error();
      if (auto s = inflate_block_body(in, out, litlen, dist, limits); !s.ok())
        return s.error();
    } else {
      return ParseError::kBadValue;
    }

    if (*bfinal) break;
  }
  return out;
}

}  // namespace ads
