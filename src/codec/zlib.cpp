#include "codec/zlib.hpp"

#include "util/checksum.hpp"

namespace ads {

Bytes zlib_compress(BytesView input, const DeflateOptions& opts) {
  DeflateScratch scratch;
  Bytes out;
  zlib_compress_into(input, opts, out, scratch);
  return out;
}

void zlib_compress_into(BytesView input, const DeflateOptions& opts, Bytes& out,
                        DeflateScratch& scratch) {
  deflate_compress_into(input, opts, scratch.stream, scratch);
  ByteWriter w(std::move(out));
  // CMF: CM=8 (deflate), CINFO=7 (32K window). FLG chosen so that
  // (CMF*256 + FLG) % 31 == 0 with FDICT=0, FLEVEL=0.
  const std::uint8_t cmf = 0x78;
  std::uint8_t flg = 0;
  const std::uint16_t check = static_cast<std::uint16_t>(cmf) << 8;
  flg = static_cast<std::uint8_t>(31 - (check % 31)) % 31;
  w.u8(cmf);
  w.u8(flg);
  w.bytes(scratch.stream);
  w.u32(adler32(input));
  out = w.take();
}

Result<std::size_t> zlib_decompress_into(BytesView input, const InflateLimits& limits,
                                         Bytes& out) {
  ByteReader in(input);
  auto cmf = in.u8();
  auto flg = in.u8();
  if (!cmf || !flg) return ParseError::kTruncated;
  if ((*cmf & 0x0F) != 8) return ParseError::kUnsupported;       // CM must be deflate
  if ((static_cast<unsigned>(*cmf) * 256 + *flg) % 31 != 0) return ParseError::kBadMagic;
  if (*flg & 0x20) return ParseError::kUnsupported;              // FDICT not supported
  if (in.remaining() < 4) return ParseError::kTruncated;

  const BytesView body = input.subspan(2, input.size() - 6);
  auto n = inflate_into(body, limits, out);
  if (!n) return n.error();

  ByteReader tail(input.subspan(input.size() - 4));
  auto expected = tail.u32();
  if (!expected) return expected.error();
  if (adler32(BytesView(out).first(*n)) != *expected) return ParseError::kBadChecksum;
  return n;
}

Result<Bytes> zlib_decompress(BytesView input, const InflateLimits& limits) {
  Bytes out;
  auto n = zlib_decompress_into(input, limits, out);
  if (!n) return n.error();
  out.resize(*n);
  return out;
}

}  // namespace ads
