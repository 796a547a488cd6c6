// Hand-built PNG streams for decoder tests: scanlines under a chosen filter
// and a chosen zlib stream, split over any number of IDAT chunks, with
// every chunk CRC correct. Tests edit the scanlines or the zlib stream, or
// declare a size the stream does not hold, so the decoder's later checks
// (inflate, Adler-32, size, filter bytes) see the damage, not the CRC.
#pragma once

#include <algorithm>
#include <cstdint>

#include "image/image.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/simd.hpp"

namespace ads::png_stream {

/// `img`'s scanlines, every row under filter `type` (0..4): one filter
/// byte, then the row's RGBA (or RGB) bytes filtered against the row above.
inline Bytes filtered_lines(const Image& img, int type, bool rgba = true) {
  const std::size_t bpp = rgba ? 4 : 3;
  const std::size_t stride = static_cast<std::size_t>(img.width()) * bpp;
  Bytes raster;
  for (const Pixel& p : img.pixels()) {
    raster.insert(raster.end(), {p.r, p.g, p.b});
    if (rgba) raster.push_back(p.a);
  }
  Bytes lines((stride + 1) * static_cast<std::size_t>(img.height()));
  for (std::size_t y = 0; y < static_cast<std::size_t>(img.height()); ++y) {
    lines[y * (stride + 1)] = static_cast<std::uint8_t>(type);
    simd::png_filter_row(type, &raster[y * stride], y > 0 ? &raster[(y - 1) * stride] : nullptr,
                         stride, bpp, &lines[y * (stride + 1) + 1]);
  }
  return lines;
}

/// Append one chunk (length, type, payload, CRC-32 of type and payload).
inline void put_chunk(Bytes& out, const char* type, BytesView payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(type, 4);
  w.bytes(payload);
  Crc32 crc;
  crc.update(BytesView(w.view()).subspan(4));
  w.u32(crc.value());
  out.insert(out.end(), w.view().begin(), w.view().end());
}

/// Signature, an IHDR declaring `width` x `height` (8-bit RGBA or RGB),
/// `zlib` cut into `idats` IDAT chunks, and IEND. With one IDAT this is
/// byte for byte what png_encode writes for the same zlib stream.
inline Bytes build(std::uint32_t width, std::uint32_t height, bool rgba, BytesView zlib,
                   std::size_t idats = 1) {
  Bytes out = {0x89, 'P', 'N', 'G', '\r', '\n', 0x1A, '\n'};
  ByteWriter ihdr;
  ihdr.u32(width);
  ihdr.u32(height);
  for (const std::uint8_t b : {8, rgba ? 6 : 2, 0, 0, 0}) ihdr.u8(b);
  put_chunk(out, "IHDR", ihdr.view());
  const std::size_t step = std::max<std::size_t>(1, (zlib.size() + idats - 1) / idats);
  for (std::size_t at = 0; at < zlib.size(); at += step) {
    put_chunk(out, "IDAT", zlib.subspan(at, std::min(step, zlib.size() - at)));
  }
  put_chunk(out, "IEND", {});
  return out;
}

/// The zlib stream of a png_encode result (one IDAT, after the signature
/// and the 25-byte IHDR chunk, before the CRC and the 12-byte IEND).
inline Bytes idat_of(const Bytes& png) {
  constexpr std::size_t kIdatPayload = 8 + 25 + 8;
  return Bytes(png.begin() + kIdatPayload, png.end() - 4 - 12);
}

}  // namespace ads::png_stream
