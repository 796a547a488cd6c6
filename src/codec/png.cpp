#include "codec/png.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>

#include "codec/zlib.hpp"
#include "util/checksum.hpp"
#include "util/simd.hpp"

namespace ads {
namespace {

// Encoder and decoder both treat RGBA rows as PNG scanlines.
static_assert(sizeof(Pixel) == 4 && offsetof(Pixel, r) == 0 && offsetof(Pixel, g) == 1 &&
                  offsetof(Pixel, b) == 2 && offsetof(Pixel, a) == 3,
              "Pixel must be RGBA8 in memory order");

constexpr std::array<std::uint8_t, 8> kSignature = {0x89, 'P', 'N', 'G', '\r', '\n', 0x1A,
                                                    '\n'};

void write_chunk(ByteWriter& out, const char type[4], BytesView payload) {
  out.u32(static_cast<std::uint32_t>(payload.size()));
  const std::size_t crc_start = out.size();
  out.bytes(type, 4);
  out.bytes(payload);
  Crc32 crc;
  crc.update(BytesView(out.view().subspan(crc_start)));
  out.u32(crc.value());
}

}  // namespace

Bytes png_encode(const Image& img, const PngOptions& opts) {
  EncodeScratch scratch;
  Bytes out;
  png_encode_into(img, opts, out, scratch);
  return out;
}

void png_encode_into(const Image& img, const PngOptions& opts, Bytes& dest,
                     EncodeScratch& scratch) {
  const std::size_t width = static_cast<std::size_t>(img.width());
  const std::size_t height = static_cast<std::size_t>(img.height());
  const std::size_t bpp = opts.rgba ? 4 : 3;
  const std::size_t stride = width * bpp;

  // RGBA scanlines are the pixel rows themselves; RGB ones are serialised
  // into staging with alpha dropped.
  const std::uint8_t* raster = reinterpret_cast<const std::uint8_t*>(img.pixels().data());
  if (!opts.rgba) {
    Bytes& rgb = scratch.staging;
    rgb.resize(height * stride);
    for (std::size_t y = 0; y < height; ++y) {
      const auto row = img.row(static_cast<std::int64_t>(y));
      std::uint8_t* out = &rgb[y * stride];
      for (std::size_t x = 0; x < width; ++x) {
        out[x * 3 + 0] = row[x].r;
        out[x * 3 + 1] = row[x].g;
        out[x * 3 + 2] = row[x].b;
      }
    }
    raster = rgb.data();
  }

  // Filter: each scanline is prefixed with its filter type byte.
  Bytes& filtered = scratch.filtered;
  filtered.resize((stride + 1) * height);
  Bytes& trial = scratch.row;
  trial.resize(stride);
  for (std::size_t y = 0; y < height; ++y) {
    const std::uint8_t* row = raster + y * stride;
    const std::uint8_t* prior = y > 0 ? row - stride : nullptr;
    std::uint8_t* dst = &filtered[y * (stride + 1)];
    if (!opts.adaptive_filters || stride == 0) {
      dst[0] = 0;
      if (stride) std::memcpy(dst + 1, row, stride);
      continue;
    }
    int best_type = 0;
    std::uint64_t best_score = ~0ull;
    for (int type = 0; type < 5; ++type) {
      simd::png_filter_row(type, row, prior, stride, bpp, trial.data());
      const std::uint64_t score = simd::png_abs_sum(trial.data(), stride);
      if (score < best_score) {
        best_score = score;
        best_type = type;
      }
    }
    dst[0] = static_cast<std::uint8_t>(best_type);
    simd::png_filter_row(best_type, row, prior, stride, bpp, dst + 1);
  }

  ByteWriter out(std::move(dest));
  out.bytes(kSignature.data(), kSignature.size());

  ByteWriter ihdr(13);
  ihdr.u32(static_cast<std::uint32_t>(width));
  ihdr.u32(static_cast<std::uint32_t>(height));
  ihdr.u8(8);                          // bit depth
  ihdr.u8(opts.rgba ? 6 : 2);          // colour type: RGBA or RGB
  ihdr.u8(0);                          // compression: deflate
  ihdr.u8(0);                          // filter method 0
  ihdr.u8(0);                          // no interlace
  write_chunk(out, "IHDR", ihdr.view());

  zlib_compress_into(filtered, opts.deflate, scratch.compressed, scratch.deflate);
  write_chunk(out, "IDAT", scratch.compressed);
  write_chunk(out, "IEND", {});
  dest = out.take();
}

Result<Image> png_decode(BytesView data) {
  ByteReader in(data);
  auto sig = in.bytes(kSignature.size());
  if (!sig) return sig.error();
  if (!std::equal(sig->begin(), sig->end(), kSignature.begin()))
    return ParseError::kBadMagic;

  std::uint32_t width = 0;
  std::uint32_t height = 0;
  int colour_type = -1;
  Bytes idat;
  bool seen_iend = false;

  while (!in.at_end() && !seen_iend) {
    auto len = in.u32();
    if (!len) return len.error();
    auto type_bytes = in.bytes(4);
    if (!type_bytes) return type_bytes.error();
    auto payload = in.bytes(*len);
    if (!payload) return payload.error();
    auto crc_field = in.u32();
    if (!crc_field) return crc_field.error();

    Crc32 crc;
    crc.update(*type_bytes);
    crc.update(*payload);
    if (crc.value() != *crc_field) return ParseError::kBadChecksum;

    const std::string_view type(reinterpret_cast<const char*>(type_bytes->data()), 4);
    if (type == "IHDR") {
      ByteReader h(*payload);
      auto w = h.u32();
      auto ht = h.u32();
      auto depth = h.u8();
      auto ct = h.u8();
      auto comp = h.u8();
      auto filt = h.u8();
      auto inter = h.u8();
      if (!w || !ht || !depth || !ct || !comp || !filt || !inter)
        return ParseError::kTruncated;
      if (*depth != 8 || (*ct != 2 && *ct != 6)) return ParseError::kUnsupported;
      if (*comp != 0 || *filt != 0 || *inter != 0) return ParseError::kUnsupported;
      width = *w;
      height = *ht;
      colour_type = *ct;
      // 1 GiB raster guard against hostile dimensions.
      const std::uint64_t raster_bytes =
          static_cast<std::uint64_t>(width) * height * (*ct == 6 ? 4 : 3);
      if (raster_bytes > (1ull << 30)) return ParseError::kOverflow;
    } else if (type == "IDAT") {
      idat.insert(idat.end(), payload->begin(), payload->end());
    } else if (type == "IEND") {
      seen_iend = true;
    }
    // Ancillary chunks are skipped.
  }
  if (colour_type < 0 || !seen_iend) return ParseError::kTruncated;

  const std::size_t bpp = colour_type == 6 ? 4 : 3;
  const std::size_t stride = static_cast<std::size_t>(width) * bpp;
  const std::size_t expected = (stride + 1) * height;
  auto raw = zlib_decompress(idat, {.max_output = expected});
  if (!raw) return raw.error();
  if (raw->size() != expected) return ParseError::kBadValue;

  // RGBA scanlines unfilter straight into the pixel rows; RGB ones in
  // place, then widen.
  Image img(width, height);
  std::uint8_t* const pixels = reinterpret_cast<std::uint8_t*>(img.pixels().data());
  const Bytes zeros(stride, 0);
  const std::uint8_t* prior = zeros.data();
  for (std::size_t y = 0; y < height; ++y) {
    std::uint8_t* line = raw->data() + y * (stride + 1);
    const int ftype = line[0];
    if (ftype > 4) return ParseError::kBadValue;
    std::uint8_t* row = bpp == 4 ? pixels + y * stride : line + 1;
    simd::png_unfilter_row(ftype, line + 1, prior, row, stride, bpp);
    if (bpp == 3) {
      Pixel* out = img.pixels().data() + y * width;
      for (std::size_t x = 0; x < width; ++x) out[x] = {row[3 * x], row[3 * x + 1], row[3 * x + 2], 255};
    }
    prior = row;
  }
  return img;
}

}  // namespace ads
