#include "codec/dct_codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "codec/zlib.hpp"
#include "util/simd.hpp"

namespace ads {
namespace {

// Standard JPEG (Annex K) example quantisation tables.
constexpr std::array<int, 64> kLumaQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, 64> kChromaQuant = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

constexpr std::array<int, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

/// IJG-style quality scaling of a quant table.
std::array<int, 64> scale_table(const std::array<int, 64>& base, int quality) {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, 64> out{};
  for (int i = 0; i < 64; ++i) {
    out[static_cast<std::size_t>(i)] = std::clamp(
        (base[static_cast<std::size_t>(i)] * scale + 50) / 100, 1, 255);
  }
  return out;
}

struct DctBasis {
  // cos((2x+1) u pi / 16) * c(u) precomputed, plus flat row-major and
  // transposed copies for the simd kernel (which broadcasts inputs and walks
  // the transpose so per-output addition order matches the scalar loops).
  double t[8][8];
  double flat[64];
  double flat_t[64];
  DctBasis() {
    for (int u = 0; u < 8; ++u) {
      const double cu = u == 0 ? std::sqrt(0.5) : 1.0;
      for (int x = 0; x < 8; ++x) {
        t[u][x] = 0.5 * cu * std::cos((2 * x + 1) * u * M_PI / 16.0);
        flat[u * 8 + x] = t[u][x];
        flat_t[x * 8 + u] = t[u][x];
      }
    }
  }
};

const DctBasis& basis() {
  static const DctBasis b;
  return b;
}

void fdct8x8(const double in[64], double out[64]) {
  const auto& b = basis();
  simd::fdct8x8(in, out, b.flat, b.flat_t);
}

void idct8x8(const double in[64], double out[64]) {
  const auto& b = basis();
  double tmp[64];
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      double s = 0;
      for (int u = 0; u < 8; ++u) s += in[v * 8 + u] * b.t[u][x];
      tmp[v * 8 + x] = s;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      double s = 0;
      for (int v = 0; v < 8; ++v) s += tmp[v * 8 + x] * b.t[v][y];
      out[y * 8 + x] = s;
    }
  }
}

std::uint8_t clamp_u8(double v) {
  return static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
}

void rgb_to_ycbcr(const Pixel& p, double& y, double& cb, double& cr) {
  y = 0.299 * p.r + 0.587 * p.g + 0.114 * p.b;
  cb = 128.0 - 0.168736 * p.r - 0.331264 * p.g + 0.5 * p.b;
  cr = 128.0 + 0.5 * p.r - 0.418688 * p.g - 0.081312 * p.b;
}

Pixel ycbcr_to_rgb(double y, double cb, double cr) {
  Pixel p;
  p.r = clamp_u8(y + 1.402 * (cr - 128.0));
  p.g = clamp_u8(y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0));
  p.b = clamp_u8(y + 1.772 * (cb - 128.0));
  p.a = 255;
  return p;
}

/// Append an int16 (little-endian; internal to this codec) to `out`.
void push_i16(Bytes& out, int v) {
  const auto u = static_cast<std::uint16_t>(static_cast<std::int16_t>(v));
  out.push_back(static_cast<std::uint8_t>(u));
  out.push_back(static_cast<std::uint8_t>(u >> 8));
}

int read_i16(BytesView data, std::size_t index) {
  const std::uint16_t u = static_cast<std::uint16_t>(
      data[index * 2] | static_cast<std::uint16_t>(data[index * 2 + 1]) << 8);
  return static_cast<std::int16_t>(u);
}

}  // namespace

Bytes dct_encode(const Image& img, const DctOptions& opts) {
  EncodeScratch scratch;
  Bytes out;
  dct_encode_into(img, opts, out, scratch);
  return out;
}

void dct_encode_into(const Image& img, const DctOptions& opts, Bytes& dest,
                     EncodeScratch& scratch) {
  const std::int64_t w = img.width();
  const std::int64_t h = img.height();
  const std::int64_t bw = (w + 7) / 8;
  const std::int64_t bh = (h + 7) / 8;

  const auto luma_q = scale_table(kLumaQuant, opts.quality);
  const auto chroma_q = scale_table(kChromaQuant, opts.quality);

  // Channel planes, edge-replicated to block multiples.
  const std::int64_t pw = bw * 8;
  const std::int64_t ph = bh * 8;
  std::vector<double>(&planes)[3] = scratch.planes;
  for (auto& pl : planes) pl.resize(static_cast<std::size_t>(pw * ph));
  for (std::int64_t y = 0; y < ph; ++y) {
    const std::int64_t sy = std::min(y, h > 0 ? h - 1 : 0);
    for (std::int64_t x = 0; x < pw; ++x) {
      const std::int64_t sx = std::min(x, w > 0 ? w - 1 : 0);
      double yy = 0;
      double cb = 0;
      double cr = 0;
      if (w > 0 && h > 0) rgb_to_ycbcr(img.at(sx, sy), yy, cb, cr);
      const std::size_t i = static_cast<std::size_t>(y * pw + x);
      planes[0][i] = yy - 128.0;
      planes[1][i] = cb - 128.0;
      planes[2][i] = cr - 128.0;
    }
  }

  Bytes& coeffs = scratch.staging;
  coeffs.clear();
  coeffs.reserve(static_cast<std::size_t>(bw * bh) * 3 * 32);
  for (int ch = 0; ch < 3; ++ch) {
    const auto& q = ch == 0 ? luma_q : chroma_q;
    int prev_dc = 0;
    for (std::int64_t by = 0; by < bh; ++by) {
      for (std::int64_t bx = 0; bx < bw; ++bx) {
        double block[64];
        for (int yy = 0; yy < 8; ++yy) {
          for (int xx = 0; xx < 8; ++xx) {
            block[yy * 8 + xx] = planes[ch][static_cast<std::size_t>(
                (by * 8 + yy) * pw + bx * 8 + xx)];
          }
        }
        double freq[64];
        fdct8x8(block, freq);
        int quant[64];
        simd::dct_quantise(freq, q.data(), kZigzag.data(), quant);
        // DC delta within the channel improves the entropy stage.
        const int dc = quant[0];
        quant[0] = dc - prev_dc;
        prev_dc = dc;
        for (int i = 0; i < 64; ++i) push_i16(coeffs, quant[i]);
      }
    }
  }

  zlib_compress_into(coeffs, {.level = 6}, scratch.compressed, scratch.deflate);
  ByteWriter out(std::move(dest));
  out.u32(static_cast<std::uint32_t>(w));
  out.u32(static_cast<std::uint32_t>(h));
  out.u8(static_cast<std::uint8_t>(std::clamp(opts.quality, 1, 100)));
  out.bytes(scratch.compressed);
  dest = out.take();
}

Result<Image> dct_decode(BytesView data) {
  ByteReader in(data);
  auto w32 = in.u32();
  auto h32 = in.u32();
  auto quality = in.u8();
  if (!w32 || !h32 || !quality) return ParseError::kTruncated;
  const std::int64_t w = *w32;
  const std::int64_t h = *h32;
  if (static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h) > (1ull << 28))
    return ParseError::kOverflow;
  const std::int64_t bw = (w + 7) / 8;
  const std::int64_t bh = (h + 7) / 8;
  const std::size_t expected =
      static_cast<std::size_t>(bw * bh) * 3 * 64 * 2;  // i16 per coefficient

  // max_output 0 would mean no limit: a zero-sized header expects nothing.
  auto coeffs =
      zlib_decompress(in.rest(), {.max_output = std::max<std::size_t>(expected, 1)});
  if (!coeffs) return coeffs.error();
  if (coeffs->size() != expected) return ParseError::kBadValue;

  const auto luma_q = scale_table(kLumaQuant, *quality);
  const auto chroma_q = scale_table(kChromaQuant, *quality);

  const std::int64_t pw = bw * 8;
  const std::int64_t ph = bh * 8;
  std::vector<double> planes[3];
  for (auto& pl : planes) pl.resize(static_cast<std::size_t>(pw * ph));

  std::size_t ci = 0;
  for (int ch = 0; ch < 3; ++ch) {
    const auto& q = ch == 0 ? luma_q : chroma_q;
    int prev_dc = 0;
    for (std::int64_t by = 0; by < bh; ++by) {
      for (std::int64_t bx = 0; bx < bw; ++bx) {
        double freq[64] = {};
        for (int i = 0; i < 64; ++i) {
          int v = read_i16(*coeffs, ci++);
          if (i == 0) {
            v += prev_dc;
            prev_dc = v;
          }
          freq[kZigzag[static_cast<std::size_t>(i)]] =
              static_cast<double>(v) *
              q[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])];
        }
        double block[64];
        idct8x8(freq, block);
        for (int yy = 0; yy < 8; ++yy) {
          for (int xx = 0; xx < 8; ++xx) {
            planes[ch][static_cast<std::size_t>((by * 8 + yy) * pw + bx * 8 + xx)] =
                block[yy * 8 + xx] + 128.0;
          }
        }
      }
    }
  }

  Image img(w, h);
  for (std::int64_t y = 0; y < h; ++y) {
    for (std::int64_t x = 0; x < w; ++x) {
      const std::size_t i = static_cast<std::size_t>(y * pw + x);
      img.set(x, y, ycbcr_to_rgb(planes[0][i], planes[1][i], planes[2][i]));
    }
  }
  return img;
}

}  // namespace ads
