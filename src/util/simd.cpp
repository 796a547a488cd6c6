#include "util/simd.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(ADS_SIMD_ENABLED) && defined(__x86_64__)
#define ADS_SIMD_X86 1
#include <immintrin.h>
#else
#define ADS_SIMD_X86 0
#endif

namespace ads::simd {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

constexpr std::size_t kAdlerNmax = 5552;
constexpr std::uint32_t kAdlerMod = 65521;

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    table[n] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

std::uint8_t paeth_byte(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  const int p = static_cast<int>(a) + b - c;
  const int pa = std::abs(p - a);
  const int pb = std::abs(p - b);
  const int pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return a;
  if (pb <= pc) return b;
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar references. These are the pre-SIMD implementations, byte for byte;
// the dispatched entry points must match them exactly on every input.
// ---------------------------------------------------------------------------

void adler32_absorb_scalar(std::uint32_t& s1, std::uint32_t& s2,
                           const std::uint8_t* data, std::size_t n) {
  std::size_t i = 0;
  while (i < n) {
    const std::size_t chunk = std::min(kAdlerNmax, n - i);
    for (std::size_t j = 0; j < chunk; ++j) {
      s1 += data[i + j];
      s2 += s1;
    }
    s1 %= kAdlerMod;
    s2 %= kAdlerMod;
    i += chunk;
  }
}

std::uint32_t crc32_absorb_scalar(std::uint32_t crc, const std::uint8_t* data,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    crc = kCrcTable[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc;
}

void fnv4_absorb_scalar(std::uint64_t lanes[4], const std::uint8_t* rgba,
                        std::size_t n_pixels) {
  for (std::size_t i = 0; i < n_pixels; ++i) {
    const std::uint8_t* q = rgba + i * 4;
    const std::uint32_t v = static_cast<std::uint32_t>(q[0]) << 24 |
                            static_cast<std::uint32_t>(q[1]) << 16 |
                            static_cast<std::uint32_t>(q[2]) << 8 | q[3];
    lanes[i & 3] = (lanes[i & 3] ^ v) * kFnvPrime;
  }
}

namespace {

// Scalar filter over the index range [begin, end) with whole-row semantics
// (a/c reach back across `begin`); shared by the reference path and the
// vector path's head/tail handling.
void png_filter_range(int type, const std::uint8_t* row, const std::uint8_t* prior,
                      std::size_t begin, std::size_t end, std::size_t bpp,
                      std::uint8_t* out) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint8_t x = row[i];
    const std::uint8_t a = i >= bpp ? row[i - bpp] : 0;
    const std::uint8_t b = prior ? prior[i] : 0;
    const std::uint8_t c = (prior && i >= bpp) ? prior[i - bpp] : 0;
    std::uint8_t v = 0;
    switch (type) {
      case 0: v = x; break;
      case 1: v = static_cast<std::uint8_t>(x - a); break;
      case 2: v = static_cast<std::uint8_t>(x - b); break;
      case 3: v = static_cast<std::uint8_t>(x - (a + b) / 2); break;
      case 4: v = static_cast<std::uint8_t>(x - paeth_byte(a, b, c)); break;
    }
    out[i] = v;
  }
}

}  // namespace

void png_filter_row_scalar(int type, const std::uint8_t* row,
                           const std::uint8_t* prior, std::size_t n, std::size_t bpp,
                           std::uint8_t* out) {
  png_filter_range(type, row, prior, 0, n, bpp, out);
}

void png_unfilter_row_scalar(int type, const std::uint8_t* src,
                             const std::uint8_t* prior, std::uint8_t* dst,
                             std::size_t n, std::size_t bpp) {
  if (n == 0) return;
  const std::size_t lead = std::min(bpp, n);  // bytes with no left neighbour
  switch (type) {
    case 0:
      std::memmove(dst, src, n);
      break;
    case 1:
      std::memmove(dst, src, lead);
      for (std::size_t i = bpp; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(src[i] + dst[i - bpp]);
      break;
    case 2:
      for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::uint8_t>(src[i] + prior[i]);
      break;
    case 3:
      for (std::size_t i = 0; i < lead; ++i)
        dst[i] = static_cast<std::uint8_t>(src[i] + prior[i] / 2);
      for (std::size_t i = bpp; i < n; ++i)
        dst[i] = static_cast<std::uint8_t>(src[i] + (dst[i - bpp] + prior[i]) / 2);
      break;
    case 4:
      // paeth(0, b, 0) is b.
      for (std::size_t i = 0; i < lead; ++i) dst[i] = static_cast<std::uint8_t>(src[i] + prior[i]);
      for (std::size_t i = bpp; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(
            src[i] + paeth_byte(dst[i - bpp], prior[i], prior[i - bpp]));
      }
      break;
  }
}

std::uint64_t png_abs_sum_scalar(const std::uint8_t* data, std::size_t n) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::int8_t>(data[i]);
    s += static_cast<std::uint64_t>(v < 0 ? -v : v);
  }
  return s;
}

void hash3_run_scalar(const std::uint8_t* data, std::size_t n, std::uint16_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint16_t>(hash3(data + i));
}

void fdct8x8_scalar(const double in[64], double out[64], const double basis[64],
                    const double basis_t[64]) {
  (void)basis_t;
  double tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      double s = 0;
      for (int x = 0; x < 8; ++x) s += in[y * 8 + x] * basis[u * 8 + x];
      tmp[y * 8 + u] = s;
    }
  }
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double s = 0;
      for (int y = 0; y < 8; ++y) s += tmp[y * 8 + u] * basis[v * 8 + y];
      out[v * 8 + u] = s;
    }
  }
}

void dct_quantise_scalar(const double freq[64], const int q[64],
                         const int zigzag[64], int out[64]) {
  for (int i = 0; i < 64; ++i) {
    const int z = zigzag[i];
    const double v = freq[z] / q[z];
    out[i] = std::clamp(static_cast<int>(std::lround(v)), -32768, 32767);
  }
}

namespace {

// Scalar box-halve over output pixels [begin, end); shared by the reference
// path and the vector paths' odd-width tails so every tier computes edge
// pixels through the same expression.
void box_halve_range(const std::uint8_t* r0, const std::uint8_t* r1,
                     std::size_t src_w_px, std::size_t begin, std::size_t end,
                     std::uint8_t* out) {
  for (std::size_t j = begin; j < end; ++j) {
    const std::size_t x0 = 2 * j;
    const std::size_t x1 = std::min(2 * j + 1, src_w_px - 1);
    const std::uint8_t* a = r0 + x0 * 4;
    const std::uint8_t* b = r0 + x1 * 4;
    const std::uint8_t* c = r1 + x0 * 4;
    const std::uint8_t* d = r1 + x1 * 4;
    for (int ch = 0; ch < 4; ++ch) {
      const std::uint32_t s = static_cast<std::uint32_t>(a[ch]) + b[ch] + c[ch] +
                              d[ch] + 2u;
      out[j * 4 + ch] = static_cast<std::uint8_t>(s >> 2);
    }
  }
}

}  // namespace

void box_halve_row_scalar(const std::uint8_t* r0, const std::uint8_t* r1,
                          std::size_t src_w_px, std::uint8_t* out) {
  box_halve_range(r0, r1, src_w_px, 0, (src_w_px + 1) / 2, out);
}

// ---------------------------------------------------------------------------
// Vector implementations.
// ---------------------------------------------------------------------------

#if ADS_SIMD_X86

#define ADS_TARGET_AVX2 __attribute__((target("avx2")))
#define ADS_TARGET_CLMUL __attribute__((target("pclmul,sse4.1")))
#define ADS_TARGET_SSE41 __attribute__((target("sse4.1")))

namespace {

ADS_TARGET_AVX2
void adler32_absorb_avx2(std::uint32_t& s1r, std::uint32_t& s2r,
                         const std::uint8_t* data, std::size_t n) {
  std::uint32_t s1 = s1r;
  std::uint32_t s2 = s2r;
  const __m256i zero = _mm256_setzero_si256();
  // Byte j of a 32-byte block contributes (32 - j)·d_j to s2 within the
  // block, plus 32·s1_before_block handled via the vs1s accumulator.
  const __m256i weights = _mm256_setr_epi8(
      32, 31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14,
      13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1);
  const __m256i ones16 = _mm256_set1_epi16(1);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t chunk = std::min(kAdlerNmax, n - i);
    const std::size_t blocks = chunk / 32;
    std::size_t j = 0;
    if (blocks > 0) {
      // NMAX chunking guarantees the true (unreduced) sums fit in 32 bits,
      // and every vector lane's partial is a subset of the true sum, so
      // 32-bit lane arithmetic never wraps.
      __m256i vs1 = _mm256_set_epi32(0, 0, 0, 0, 0, 0, 0, static_cast<int>(s1));
      __m256i vs2 = _mm256_set_epi32(0, 0, 0, 0, 0, 0, 0, static_cast<int>(s2));
      __m256i vs1s = zero;
      for (std::size_t b = 0; b < blocks; ++b) {
        const __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + b * 32));
        vs1s = _mm256_add_epi32(vs1s, vs1);
        vs1 = _mm256_add_epi32(vs1, _mm256_sad_epu8(d, zero));
        const __m256i w = _mm256_maddubs_epi16(d, weights);
        vs2 = _mm256_add_epi32(vs2, _mm256_madd_epi16(w, ones16));
      }
      vs2 = _mm256_add_epi32(vs2, _mm256_slli_epi32(vs1s, 5));
      alignas(32) std::uint32_t l1[8];
      alignas(32) std::uint32_t l2[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(l1), vs1);
      _mm256_store_si256(reinterpret_cast<__m256i*>(l2), vs2);
      s1 = 0;
      s2 = 0;
      for (int k = 0; k < 8; ++k) {
        s1 += l1[k];
        s2 += l2[k];
      }
      j = blocks * 32;
    }
    for (; j < chunk; ++j) {
      s1 += data[i + j];
      s2 += s1;
    }
    s1 %= kAdlerMod;
    s2 %= kAdlerMod;
    i += chunk;
  }
  s1r = s1;
  s2r = s2;
}

// Fold a 128-bit CRC state forward over `K`'s stride: the probe-validated
// reflected-domain identity creg(x ++ 0^N) == creg(fold(x, K_N)).
ADS_TARGET_CLMUL
inline __m128i crc_fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

ADS_TARGET_CLMUL
std::uint32_t crc32_absorb_clmul(std::uint32_t crc, const std::uint8_t* data,
                                 std::size_t n) {
  if (n < 80) return crc32_absorb_scalar(crc, data, n);
  // Reflected CRC-32 fold constants (x^{N·8±32} mod P for strides 64/16 B).
  const __m128i k64 = _mm_set_epi64x(0x1c6e41596ll, 0x154442bd4ll);
  const __m128i k16 = _mm_set_epi64x(0x0ccaa009ell, 0x1751997d0ll);
  // The running register xors into the first 4 message bytes (init-injection
  // identity of the reflected bytewise CRC).
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
  data += 64;
  n -= 64;
  while (n >= 64) {
    x1 = _mm_xor_si128(crc_fold(x1, k64),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)));
    x2 = _mm_xor_si128(crc_fold(x2, k64),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)));
    x3 = _mm_xor_si128(crc_fold(x3, k64),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)));
    x4 = _mm_xor_si128(crc_fold(x4, k64),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)));
    data += 64;
    n -= 64;
  }
  x2 = _mm_xor_si128(x2, crc_fold(x1, k16));
  x3 = _mm_xor_si128(x3, crc_fold(x2, k16));
  x4 = _mm_xor_si128(x4, crc_fold(x3, k16));
  __m128i x = x4;
  while (n >= 16) {
    x = _mm_xor_si128(crc_fold(x, k16),
                      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data)));
    data += 16;
    n -= 16;
  }
  // Finish by streaming the 16 folded state bytes (then the tail) through
  // the bytewise table — sidesteps the Barrett-reduction constants entirely.
  alignas(16) std::uint8_t state[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(state), x);
  crc = crc32_absorb_scalar(0, state, 16);
  return crc32_absorb_scalar(crc, data, n);
}

// 4-lane 64-bit multiply by the FNV prime (AVX2 has no mullo_epi64):
// a·p = lo(a)·lo(p) + ((lo(a)·hi(p) + hi(a)·lo(p)) << 32)  (mod 2^64).
ADS_TARGET_AVX2
inline __m256i fnv_mul64(__m256i a) {
  const __m256i prime_lo = _mm256_set1_epi64x(0x1B3);
  const __m256i prime_hi = _mm256_set1_epi64x(0x100);
  const __m256i t1 = _mm256_mul_epu32(a, prime_lo);
  const __m256i t2 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), prime_lo);
  const __m256i t3 = _mm256_mul_epu32(a, prime_hi);
  return _mm256_add_epi64(t1, _mm256_slli_epi64(_mm256_add_epi64(t2, t3), 32));
}

ADS_TARGET_AVX2
void fnv4_absorb_avx2(std::uint64_t lanes[4], const std::uint8_t* rgba,
                      std::size_t n_pixels) {
  const std::size_t n4 = n_pixels & ~std::size_t{3};
  if (n4 > 0) {
    __m256i l = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
    // Byte-swap each 32-bit word: memory order r,g,b,a → r<<24|g<<16|b<<8|a.
    const __m128i bswap =
        _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
    for (std::size_t i = 0; i < n4; i += 4) {
      __m128i px =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rgba + i * 4));
      px = _mm_shuffle_epi8(px, bswap);
      l = _mm256_xor_si256(l, _mm256_cvtepu32_epi64(px));
      l = fnv_mul64(l);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), l);
  }
  if (n4 < n_pixels)
    fnv4_absorb_scalar(lanes, rgba + n4 * 4, n_pixels - n4);
}

// Widen 32 unsigned bytes to two 16-lane u16 vectors (in-lane unpack; the
// matching packus in png_pack16 restores the original byte order).
ADS_TARGET_AVX2
inline void png_widen(__m256i v, __m256i& lo, __m256i& hi) {
  const __m256i zero = _mm256_setzero_si256();
  lo = _mm256_unpacklo_epi8(v, zero);
  hi = _mm256_unpackhi_epi8(v, zero);
}

ADS_TARGET_AVX2
inline __m256i png_pack16(__m256i lo, __m256i hi) {
  return _mm256_packus_epi16(lo, hi);
}

// Paeth predictor over 16-bit lanes holding widened bytes: |b-c|, |a-c| and
// |a+b-2c| are the classic pa/pb/pc; the nested blends mirror the scalar
// tie-break order (a, then b, then c).
ADS_TARGET_AVX2
inline __m256i png_paeth16(__m256i a, __m256i b, __m256i c) {
  const __m256i pa = _mm256_abs_epi16(_mm256_sub_epi16(b, c));
  const __m256i pb = _mm256_abs_epi16(_mm256_sub_epi16(a, c));
  const __m256i pc = _mm256_abs_epi16(
      _mm256_sub_epi16(_mm256_add_epi16(a, b), _mm256_add_epi16(c, c)));
  const __m256i a_gt_b = _mm256_cmpgt_epi16(pa, pb);
  const __m256i a_gt_c = _mm256_cmpgt_epi16(pa, pc);
  const __m256i b_gt_c = _mm256_cmpgt_epi16(pb, pc);
  const __m256i take_a = _mm256_andnot_si256(_mm256_or_si256(a_gt_b, a_gt_c),
                                             _mm256_set1_epi8(-1));
  const __m256i bc = _mm256_blendv_epi8(b, c, b_gt_c);
  return _mm256_blendv_epi8(bc, a, take_a);
}

ADS_TARGET_AVX2
void png_filter_row_avx2(int type, const std::uint8_t* row,
                         const std::uint8_t* prior, std::size_t n, std::size_t bpp,
                         std::uint8_t* out) {
  if (type == 0 || (type == 2 && !prior)) {
    std::memcpy(out, row, n);
    return;
  }
  // Head bytes where a/c are zero follow the scalar path; the vector loop
  // covers i ∈ [bpp, n) (or [0, n) for type 2) in 32-byte strides.
  const std::size_t start = type == 2 ? 0 : bpp;
  png_filter_range(type, row, prior, 0, std::min(start, n), bpp, out);
  std::size_t i = start;
  const __m256i zero = _mm256_setzero_si256();
  while (i + 32 <= n) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    __m256i v;
    switch (type) {
      case 1: {
        const __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i - bpp));
        v = _mm256_sub_epi8(x, a);
        break;
      }
      case 2: {
        const __m256i b =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prior + i));
        v = _mm256_sub_epi8(x, b);
        break;
      }
      case 3: {
        const __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i - bpp));
        const __m256i b =
            prior ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prior + i))
                  : zero;
        __m256i alo;
        __m256i ahi;
        __m256i blo;
        __m256i bhi;
        png_widen(a, alo, ahi);
        png_widen(b, blo, bhi);
        const __m256i mlo = _mm256_srli_epi16(_mm256_add_epi16(alo, blo), 1);
        const __m256i mhi = _mm256_srli_epi16(_mm256_add_epi16(ahi, bhi), 1);
        v = _mm256_sub_epi8(x, png_pack16(mlo, mhi));
        break;
      }
      default: {  // type 4: Paeth predictor in 16-bit lanes
        const __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i - bpp));
        const __m256i b =
            prior ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prior + i))
                  : zero;
        const __m256i c =
            prior
                ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prior + i - bpp))
                : zero;
        const __m256i pred_lo =
            png_paeth16(_mm256_unpacklo_epi8(a, zero), _mm256_unpacklo_epi8(b, zero),
                        _mm256_unpacklo_epi8(c, zero));
        const __m256i pred_hi =
            png_paeth16(_mm256_unpackhi_epi8(a, zero), _mm256_unpackhi_epi8(b, zero),
                        _mm256_unpackhi_epi8(c, zero));
        v = _mm256_sub_epi8(x, png_pack16(pred_lo, pred_hi));
        break;
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
    i += 32;
  }
  if (i < n) png_filter_range(type, row, prior, i, n, bpp, out);
}

// One 4-byte pixel in the low lane of an xmm register.
ADS_TARGET_SSE41
inline __m128i load_pixel(const std::uint8_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, 4);
  return _mm_cvtsi32_si128(v);
}

ADS_TARGET_SSE41
inline void store_pixel(std::uint8_t* p, __m128i v) {
  const std::int32_t x = _mm_cvtsi128_si32(v);
  std::memcpy(p, &x, 4);
}

// Unfilter for 4-byte pixels. Up adds 16 bytes at a time; Sub, Average and
// Paeth carry the previous output pixel `a` in a register, one pixel per
// step. Starting from a = c = 0 makes the first pixel's predictor the
// scalar lead's (0 for Sub, b/2 for Average, b for Paeth). Average is
// floor((a + b) / 2) = avg_epu8 (which rounds up) minus the dropped low
// bit.
ADS_TARGET_SSE41
void png_unfilter_row_sse41(int type, const std::uint8_t* src,
                            const std::uint8_t* prior, std::uint8_t* dst,
                            std::size_t n, std::size_t bpp) {
  if (bpp != 4 || n % 4 != 0 || type < 1 || type > 4) {
    png_unfilter_row_scalar(type, src, prior, dst, n, bpp);
    return;
  }
  const __m128i zero = _mm_setzero_si128();
  switch (type) {
    case 1: {
      __m128i a = zero;
      for (std::size_t i = 0; i < n; i += 4) {
        a = _mm_add_epi8(load_pixel(src + i), a);
        store_pixel(dst + i, a);
      }
      break;
    }
    case 2: {
      std::size_t i = 0;
      for (; i + 16 <= n; i += 16) {
        const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
        const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(prior + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_add_epi8(x, b));
      }
      for (; i < n; i += 4)
        store_pixel(dst + i, _mm_add_epi8(load_pixel(src + i), load_pixel(prior + i)));
      break;
    }
    case 3: {
      const __m128i one = _mm_set1_epi8(1);
      __m128i a = zero;
      for (std::size_t i = 0; i < n; i += 4) {
        const __m128i b = load_pixel(prior + i);
        const __m128i avg =
            _mm_sub_epi8(_mm_avg_epu8(a, b), _mm_and_si128(_mm_xor_si128(a, b), one));
        a = _mm_add_epi8(load_pixel(src + i), avg);
        store_pixel(dst + i, a);
      }
      break;
    }
    default: {  // 4: Paeth
      // The branch-free form stb_image uses, equal to paeth_byte on every
      // (a, b, c): with t = 3c - a - b, take min(a, b) if max(a, b) <= t,
      // else c; then max(a, b) instead if t <= min(a, b). In 16-bit lanes
      // only `a` carries from pixel to pixel, and it feeds one subtract and
      // a min/max before the two selects.
      const __m128i low_byte = _mm_set1_epi16(0xFF);
      __m128i a = zero;  // previous output pixel
      __m128i c = zero;  // previous prior pixel
      for (std::size_t i = 0; i < n; i += 4) {
        const __m128i b = _mm_unpacklo_epi8(load_pixel(prior + i), zero);
        const __m128i x = _mm_unpacklo_epi8(load_pixel(src + i), zero);
        const __m128i c3_minus_b = _mm_sub_epi16(_mm_add_epi16(c, _mm_add_epi16(c, c)), b);
        const __m128i t = _mm_sub_epi16(c3_minus_b, a);
        const __m128i lo = _mm_min_epi16(a, b);
        const __m128i hi = _mm_max_epi16(a, b);
        const __m128i t0 = _mm_blendv_epi8(lo, c, _mm_cmpgt_epi16(hi, t));
        const __m128i pred = _mm_blendv_epi8(hi, t0, _mm_cmpgt_epi16(t, lo));
        a = _mm_and_si128(_mm_add_epi16(x, pred), low_byte);
        store_pixel(dst + i, _mm_packus_epi16(a, a));
        c = b;
      }
      break;
    }
  }
}

ADS_TARGET_AVX2
std::uint64_t png_abs_sum_avx2(const std::uint8_t* data, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(_mm256_abs_epi8(d), zero));
  }
  alignas(32) std::uint64_t l[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(l), acc);
  return l[0] + l[1] + l[2] + l[3] + png_abs_sum_scalar(data + i, n - i);
}

// Trigram hash, 16 positions per step: each 128-bit lane byte-shuffles its
// own copy of a 16-byte load into four zero-extended 3-byte windows (lane 0
// positions +0..3, lane 1 +4..7), then the same 32-bit multiply and shift
// as hash3. The second load reads bytes i+8..i+23, so the loop stops while
// i + 24 <= n + 2; the tail runs the scalar loop.
ADS_TARGET_AVX2
void hash3_run_avx2(const std::uint8_t* data, std::size_t n, std::uint16_t* out) {
  const __m256i gather =
      _mm256_setr_epi8(0, 1, 2, -1, 1, 2, 3, -1, 2, 3, 4, -1, 3, 4, 5, -1,  //
                       4, 5, 6, -1, 5, 6, 7, -1, 6, 7, 8, -1, 7, 8, 9, -1);
  const __m256i mul = _mm256_set1_epi32(static_cast<int>(0x9E3779B1u));
  constexpr int kShift = 32 - kHash3Bits;
  std::size_t i = 0;
  for (; i + 22 <= n; i += 16) {
    const __m256i a = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i)));
    const __m256i b = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i + 8)));
    const __m256i ha =
        _mm256_srli_epi32(_mm256_mullo_epi32(_mm256_shuffle_epi8(a, gather), mul), kShift);
    const __m256i hb =
        _mm256_srli_epi32(_mm256_mullo_epi32(_mm256_shuffle_epi8(b, gather), mul), kShift);
    // packus works per lane (a0..3 b0..3 | a4..7 b4..7); 0xD8 restores order.
    const __m256i packed = _mm256_permute4x64_epi64(_mm256_packus_epi32(ha, hb), 0xD8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), packed);
  }
  hash3_run_scalar(data + i, n - i, out + i);
}

ADS_TARGET_AVX2
void fdct8x8_avx2(const double in[64], double out[64], const double basis[64],
                  const double basis_t[64]) {
  // Lanes are the four outputs u (or u+4); each lane accumulates mul/add in
  // the same x (then y) order as the scalar loop, and the avx2-only target
  // cannot fuse the separate mul and add, so results are bit-identical.
  double tmp[64];
  for (int y = 0; y < 8; ++y) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (int x = 0; x < 8; ++x) {
      const __m256d s = _mm256_set1_pd(in[y * 8 + x]);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(s, _mm256_loadu_pd(basis_t + x * 8)));
      acc1 =
          _mm256_add_pd(acc1, _mm256_mul_pd(s, _mm256_loadu_pd(basis_t + x * 8 + 4)));
    }
    _mm256_storeu_pd(tmp + y * 8, acc0);
    _mm256_storeu_pd(tmp + y * 8 + 4, acc1);
  }
  for (int v = 0; v < 8; ++v) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (int y = 0; y < 8; ++y) {
      const __m256d s = _mm256_set1_pd(basis[v * 8 + y]);
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(s, _mm256_loadu_pd(tmp + y * 8)));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(s, _mm256_loadu_pd(tmp + y * 8 + 4)));
    }
    _mm256_storeu_pd(out + v * 8, acc0);
    _mm256_storeu_pd(out + v * 8 + 4, acc1);
  }
}

// SSE2 (x86-64 baseline) box halve: 2 output pixels per iteration. The
// sums fit u16 (max 4·255 + 2), the +2 / >>2 rounding matches the scalar
// expression lane for lane, and odd-width tails fall through to the shared
// scalar range so edge replication is identical.
void box_halve_row_sse(const std::uint8_t* r0, const std::uint8_t* r1,
                       std::size_t src_w_px, std::uint8_t* out) {
  const std::size_t out_w = (src_w_px + 1) / 2;
  const __m128i zero = _mm_setzero_si128();
  const __m128i two = _mm_set1_epi16(2);
  std::size_t j = 0;
  for (; 2 * j + 4 <= src_w_px; j += 2) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + 2 * j * 4));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + 2 * j * 4));
    // Row sums widened to u16: lo = source px0,px1; hi = px2,px3.
    const __m128i lo =
        _mm_add_epi16(_mm_unpacklo_epi8(a, zero), _mm_unpacklo_epi8(b, zero));
    const __m128i hi =
        _mm_add_epi16(_mm_unpackhi_epi8(a, zero), _mm_unpackhi_epi8(b, zero));
    // Horizontal pair add folds px1 onto px0 (px3 onto px2) per channel.
    const __m128i s0 = _mm_add_epi16(lo, _mm_srli_si128(lo, 8));
    const __m128i s1 = _mm_add_epi16(hi, _mm_srli_si128(hi, 8));
    __m128i s = _mm_unpacklo_epi64(s0, s1);
    s = _mm_srli_epi16(_mm_add_epi16(s, two), 2);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + j * 4),
                     _mm_packus_epi16(s, s));
  }
  box_halve_range(r0, r1, src_w_px, j, out_w, out);
}

ADS_TARGET_AVX2
void box_halve_row_avx2(const std::uint8_t* r0, const std::uint8_t* r1,
                        std::size_t src_w_px, std::uint8_t* out) {
  const std::size_t out_w = (src_w_px + 1) / 2;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i two = _mm256_set1_epi16(2);
  std::size_t j = 0;
  for (; 2 * j + 8 <= src_w_px; j += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r0 + 2 * j * 4));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r1 + 2 * j * 4));
    // Same shape as the SSE kernel, applied per 128-bit lane: lane 0 holds
    // source px0..3 → output px0,px1; lane 1 px4..7 → output px2,px3.
    const __m256i lo = _mm256_add_epi16(_mm256_unpacklo_epi8(a, zero),
                                        _mm256_unpacklo_epi8(b, zero));
    const __m256i hi = _mm256_add_epi16(_mm256_unpackhi_epi8(a, zero),
                                        _mm256_unpackhi_epi8(b, zero));
    const __m256i s0 = _mm256_add_epi16(lo, _mm256_srli_si256(lo, 8));
    const __m256i s1 = _mm256_add_epi16(hi, _mm256_srli_si256(hi, 8));
    __m256i s = _mm256_unpacklo_epi64(s0, s1);
    s = _mm256_srli_epi16(_mm256_add_epi16(s, two), 2);
    const __m256i packed = _mm256_packus_epi16(s, s);
    // Gather each lane's low quadword (output px0,px1 | px2,px3) into the
    // low 128 bits and store 4 output pixels at once.
    const __m256i gathered = _mm256_permute4x64_epi64(packed, 0x08);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + j * 4),
                     _mm256_castsi256_si128(gathered));
  }
  box_halve_range(r0, r1, src_w_px, j, out_w, out);
}

ADS_TARGET_AVX2
void dct_quantise_avx2(const double freq[64], const int q[64], const int zigzag[64],
                       int out[64]) {
  // Elementwise IEEE divisions in natural order (order is irrelevant for
  // per-element results); the zigzag gather + lround stay scalar.
  alignas(32) double t[64];
  for (int j = 0; j < 64; j += 4) {
    const __m256d fq = _mm256_loadu_pd(freq + j);
    const __m256d dq =
        _mm256_cvtepi32_pd(_mm_loadu_si128(reinterpret_cast<const __m128i*>(q + j)));
    _mm256_store_pd(t + j, _mm256_div_pd(fq, dq));
  }
  for (int i = 0; i < 64; ++i) {
    out[i] =
        std::clamp(static_cast<int>(std::lround(t[zigzag[i]])), -32768, 32767);
  }
}

}  // namespace

#endif  // ADS_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

namespace {

Level detect_level() {
#if ADS_SIMD_X86
  Level detected = Level::kScalar;
  if (__builtin_cpu_supports("avx2"))
    detected = Level::kAvx2;
  else if (__builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul"))
    detected = Level::kSse42;
  if (const char* env = std::getenv("ADS_SIMD")) {
    const std::string_view want(env);
    Level cap = detected;
    if (want == "scalar" || want == "off")
      cap = Level::kScalar;
    else if (want == "sse42")
      cap = Level::kSse42;
    else if (want == "avx2")
      cap = Level::kAvx2;
    if (static_cast<int>(cap) < static_cast<int>(detected)) detected = cap;
  }
  return detected;
#else
  return Level::kScalar;
#endif
}

/// Function-pointer table bound once, on first use, from the active level.
struct Kernels {
  void (*adler)(std::uint32_t&, std::uint32_t&, const std::uint8_t*, std::size_t) =
      &adler32_absorb_scalar;
  std::uint32_t (*crc)(std::uint32_t, const std::uint8_t*, std::size_t) =
      &crc32_absorb_scalar;
  void (*fnv4)(std::uint64_t[4], const std::uint8_t*, std::size_t) =
      &fnv4_absorb_scalar;
  void (*filter)(int, const std::uint8_t*, const std::uint8_t*, std::size_t,
                 std::size_t, std::uint8_t*) = &png_filter_row_scalar;
  void (*unfilter)(int, const std::uint8_t*, const std::uint8_t*, std::uint8_t*,
                   std::size_t, std::size_t) = &png_unfilter_row_scalar;
  std::uint64_t (*abs_sum)(const std::uint8_t*, std::size_t) = &png_abs_sum_scalar;
  void (*hash3)(const std::uint8_t*, std::size_t, std::uint16_t*) = &hash3_run_scalar;
  void (*fdct)(const double[64], double[64], const double[64], const double[64]) =
      &fdct8x8_scalar;
  void (*quantise)(const double[64], const int[64], const int[64], int[64]) =
      &dct_quantise_scalar;
  void (*halve)(const std::uint8_t*, const std::uint8_t*, std::size_t,
                std::uint8_t*) = &box_halve_row_scalar;

  Kernels() {
#if ADS_SIMD_X86
    const Level l = active_level();
    if (l >= Level::kSse42) {
      crc = &crc32_absorb_clmul;
      unfilter = &png_unfilter_row_sse41;
      halve = &box_halve_row_sse;
    }
    if (l >= Level::kAvx2) {
      adler = &adler32_absorb_avx2;
      fnv4 = &fnv4_absorb_avx2;
      filter = &png_filter_row_avx2;
      abs_sum = &png_abs_sum_avx2;
      hash3 = &hash3_run_avx2;
      fdct = &fdct8x8_avx2;
      quantise = &dct_quantise_avx2;
      halve = &box_halve_row_avx2;
    }
#endif
  }
};

const Kernels& kernels() {
  static const Kernels k;
  return k;
}

}  // namespace

Level active_level() {
  static const Level l = detect_level();
  return l;
}

std::string_view level_name(Level level) {
  switch (level) {
    case Level::kSse42: return "sse42";
    case Level::kAvx2: return "avx2";
    case Level::kScalar: break;
  }
  return "scalar";
}

bool compiled_with_simd() { return ADS_SIMD_X86 != 0; }

void adler32_absorb(std::uint32_t& s1, std::uint32_t& s2, const std::uint8_t* data,
                    std::size_t n) {
  kernels().adler(s1, s2, data, n);
}

std::uint32_t crc32_absorb(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t n) {
  return kernels().crc(crc, data, n);
}

void fnv4_absorb(std::uint64_t lanes[4], const std::uint8_t* rgba,
                 std::size_t n_pixels) {
  kernels().fnv4(lanes, rgba, n_pixels);
}

void png_filter_row(int type, const std::uint8_t* row, const std::uint8_t* prior,
                    std::size_t n, std::size_t bpp, std::uint8_t* out) {
  kernels().filter(type, row, prior, n, bpp, out);
}

void png_unfilter_row(int type, const std::uint8_t* src, const std::uint8_t* prior,
                      std::uint8_t* dst, std::size_t n, std::size_t bpp) {
  kernels().unfilter(type, src, prior, dst, n, bpp);
}

void png_unfilter_row_at(Level level, int type, const std::uint8_t* src,
                         const std::uint8_t* prior, std::uint8_t* dst, std::size_t n,
                         std::size_t bpp) {
  if (static_cast<int>(level) > static_cast<int>(active_level()))
    level = active_level();
#if ADS_SIMD_X86
  if (level >= Level::kSse42) {
    png_unfilter_row_sse41(type, src, prior, dst, n, bpp);
    return;
  }
#endif
  png_unfilter_row_scalar(type, src, prior, dst, n, bpp);
}

std::uint64_t png_abs_sum(const std::uint8_t* data, std::size_t n) {
  return kernels().abs_sum(data, n);
}

void hash3_run(const std::uint8_t* data, std::size_t n, std::uint16_t* out) {
  kernels().hash3(data, n, out);
}

void hash3_run_at(Level level, const std::uint8_t* data, std::size_t n,
                  std::uint16_t* out) {
  if (static_cast<int>(level) > static_cast<int>(active_level()))
    level = active_level();
#if ADS_SIMD_X86
  switch (level) {
    case Level::kAvx2: hash3_run_avx2(data, n, out); return;
    case Level::kSse42:
    case Level::kScalar: break;
  }
#else
  (void)level;
#endif
  hash3_run_scalar(data, n, out);
}

void fdct8x8(const double in[64], double out[64], const double basis[64],
             const double basis_t[64]) {
  kernels().fdct(in, out, basis, basis_t);
}

void dct_quantise(const double freq[64], const int q[64], const int zigzag[64],
                  int out[64]) {
  kernels().quantise(freq, q, zigzag, out);
}

void box_halve_row(const std::uint8_t* r0, const std::uint8_t* r1,
                   std::size_t src_w_px, std::uint8_t* out) {
  kernels().halve(r0, r1, src_w_px, out);
}

void box_halve_row_at(Level level, const std::uint8_t* r0, const std::uint8_t* r1,
                      std::size_t src_w_px, std::uint8_t* out) {
  if (static_cast<int>(level) > static_cast<int>(active_level()))
    level = active_level();
#if ADS_SIMD_X86
  switch (level) {
    case Level::kAvx2: box_halve_row_avx2(r0, r1, src_w_px, out); return;
    case Level::kSse42: box_halve_row_sse(r0, r1, src_w_px, out); return;
    case Level::kScalar: break;
  }
#else
  (void)level;
#endif
  box_halve_row_scalar(r0, r1, src_w_px, out);
}

}  // namespace ads::simd
