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

namespace {

/// A PNG stream that passed every check (chunk CRCs, IHDR, Adler-32,
/// inflated size and filter bytes): its filtered scanlines, one filter
/// byte then `stride` bytes per row, in the decode scratch.
struct PngRaster {
  std::int64_t width = 0;
  std::int64_t height = 0;
  std::size_t bpp = 0;
  std::size_t stride = 0;
  std::uint8_t* lines = nullptr;
};

/// Parse and inflate `data` and check all of it, writing no pixel.
Result<PngRaster> png_read(BytesView data, DecodeScratch& scratch) {
  ByteReader in(data);
  auto sig = in.bytes(kSignature.size());
  if (!sig) return sig.error();
  if (!std::equal(sig->begin(), sig->end(), kSignature.begin()))
    return ParseError::kBadMagic;

  std::uint32_t width = 0;
  std::uint32_t height = 0;
  int colour_type = -1;
  BytesView idat;  // the zlib stream: one IDAT where it lies, or all joined
  std::size_t idat_chunks = 0;
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
      if (++idat_chunks == 1) {
        idat = *payload;
      } else {
        if (idat_chunks == 2) scratch.idat.assign(idat.begin(), idat.end());
        scratch.idat.insert(scratch.idat.end(), payload->begin(), payload->end());
        idat = scratch.idat;
      }
    } else if (type == "IEND") {
      seen_iend = true;
    }
    // Ancillary chunks are skipped.
  }
  if (colour_type < 0 || !seen_iend) return ParseError::kTruncated;

  PngRaster r;
  r.width = width;
  r.height = height;
  r.bpp = colour_type == 6 ? 4 : 3;
  r.stride = static_cast<std::size_t>(width) * r.bpp;
  const std::size_t expected = (r.stride + 1) * height;
  // A zero-row image's stream must inflate to nothing; a limit of 0 would
  // mean no limit at all.
  auto n = zlib_decompress_into(idat, {.max_output = std::max<std::size_t>(expected, 1)},
                                scratch.inflated);
  if (!n) return n.error();
  if (*n != expected) return ParseError::kBadValue;
  r.lines = scratch.inflated.data();
  for (std::size_t y = 0; y < height; ++y) {
    if (r.lines[y * (r.stride + 1)] > 4) return ParseError::kBadValue;
  }
  return r;
}

/// Unfilter `r` into `dst` at `at`, clipped as Image::blit clips. An RGBA
/// band that lies wholly inside `dst` unfilters each row straight into its
/// destination row, which is then the next row's predictor. Any other band
/// unfilters each row in place in the scratch and copies (RGBA) or widens
/// (RGB) its visible span; rows above `dst` are unfiltered too, because the
/// rows below predict from them, and rows below `dst` are skipped.
void png_unfilter_into(const PngRaster& r, Image& dst, Point at, DecodeScratch& scratch) {
  const Rect band{at.x, at.y, r.width, r.height};
  const Rect visible = intersect(band, dst.bounds());
  if (visible.empty()) return;
  const auto dst_row = [&](std::int64_t y, std::int64_t x) {
    return dst.pixels().data() + y * dst.width() + x;
  };
  if (scratch.zero_row.size() < r.stride) scratch.zero_row.resize(r.stride);
  const std::uint8_t* prior = scratch.zero_row.data();
  if (r.bpp == 4 && visible == band) {
    for (std::int64_t y = 0; y < r.height; ++y) {
      const std::uint8_t* line = r.lines + static_cast<std::size_t>(y) * (r.stride + 1);
      auto* row = reinterpret_cast<std::uint8_t*>(dst_row(at.y + y, at.x));
      simd::png_unfilter_row(line[0], line + 1, prior, row, r.stride, 4);
      prior = row;
    }
    return;
  }
  const std::size_t skip = static_cast<std::size_t>(visible.left - at.x) * r.bpp;
  const std::size_t span = static_cast<std::size_t>(visible.width);
  for (std::int64_t y = 0; y < visible.bottom() - at.y; ++y) {
    std::uint8_t* line = r.lines + static_cast<std::size_t>(y) * (r.stride + 1);
    simd::png_unfilter_row(line[0], line + 1, prior, line + 1, r.stride, r.bpp);
    prior = line + 1;
    if (at.y + y < visible.top) continue;
    Pixel* out = dst_row(at.y + y, visible.left);
    const std::uint8_t* in = line + 1 + skip;
    if (r.bpp == 4) {
      std::memcpy(out, in, span * sizeof(Pixel));
    } else {
      for (std::size_t x = 0; x < span; ++x) {
        out[x] = {in[3 * x], in[3 * x + 1], in[3 * x + 2], 255};
      }
    }
  }
}

}  // namespace

Result<Image> png_decode(BytesView data) {
  DecodeScratch scratch;
  auto r = png_read(data, scratch);
  if (!r) return r.error();
  Image img(r->width, r->height);
  png_unfilter_into(*r, img, {0, 0}, scratch);
  return img;
}

Result<Rect> PngCodec::decode_into(BytesView data, Image& dst, Point at,
                                   DecodeScratch& scratch) const {
  auto r = png_read(data, scratch);
  if (!r) return r.error();
  png_unfilter_into(*r, dst, at, scratch);
  return Rect{at.x, at.y, r->width, r->height};
}

}  // namespace ads
