// Runtime-dispatched SIMD kernels for the measured hot loops: Adler-32 and
// CRC-32 absorption (util/checksum), tile hashing (image/damage), PNG filter
// selection/apply and the participant's PNG unfilter (codec/png), the
// DEFLATE matcher's trigram hash pass (codec/deflate), the forward DCT +
// quantise (codec/dct) and the box-downscale row average (transcode's
// FrameScaler).
//
// Contract: every dispatched kernel is bit-identical to its `_scalar`
// reference on all inputs — vector paths keep each output element's
// operation sequence equal to the scalar one (integer kernels are exact by
// construction; the FP kernels use explicit mul/add intrinsics in scalar
// order and never fuse, so IEEE-754 determinism carries the identity).
// The `_scalar` variants stay exported as the golden reference for the
// differential tests and the E13 microbenches.
//
// Dispatch policy: the implementation level is chosen once per process from
// CPUID (AVX2 > SSE4.2+PCLMUL > scalar), clamped by the `ADS_SIMD` CMake
// toggle (OFF compiles the scalar paths only) and by an optional `ADS_SIMD`
// environment variable ("scalar" | "sse42" | "avx2") for A/B debugging.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ads::simd {

/// Implementation tiers in ascending capability order. kSse42 implies
/// PCLMULQDQ (paired on every x86-64 CPU that has SSE4.2).
enum class Level { kScalar = 0, kSse42 = 1, kAvx2 = 2 };

/// The tier selected for this process (CPUID ∧ build toggle ∧ env override).
/// Stable for the lifetime of the process.
Level active_level();

/// Human-readable tier name ("scalar", "sse42", "avx2") for logs and benches.
std::string_view level_name(Level level);

/// True when the build compiled the vector paths (CMake `ADS_SIMD=ON`).
bool compiled_with_simd();

/// Absorb `n` bytes into running Adler-32 sums (RFC 1950 semantics: NMAX
/// chunking with mod-65521 reductions). `s1`/`s2` are updated in place.
void adler32_absorb(std::uint32_t& s1, std::uint32_t& s2, const std::uint8_t* data,
                    std::size_t n);
/// Scalar reference for adler32_absorb (the pre-SIMD implementation).
void adler32_absorb_scalar(std::uint32_t& s1, std::uint32_t& s2,
                           const std::uint8_t* data, std::size_t n);

/// Absorb `n` bytes into a raw reflected CRC-32 register (poly 0xEDB88320).
/// Callers keep the init/final xor convention; this is the inner loop only.
std::uint32_t crc32_absorb(std::uint32_t crc, const std::uint8_t* data, std::size_t n);
/// Scalar (bytewise table) reference for crc32_absorb.
std::uint32_t crc32_absorb_scalar(std::uint32_t crc, const std::uint8_t* data,
                                  std::size_t n);

/// Absorb `n_pixels` packed RGBA pixels (memory order r,g,b,a) into four
/// interleaved FNV-1a lanes: pixel i updates lanes[i & 3] with the
/// big-endian u32 word. The 4-lane stripe is the tile-hash spec; it exists
/// so the multiply chains are independent and vectorise 4-wide.
void fnv4_absorb(std::uint64_t lanes[4], const std::uint8_t* rgba,
                 std::size_t n_pixels);
/// Scalar reference for fnv4_absorb.
void fnv4_absorb_scalar(std::uint64_t lanes[4], const std::uint8_t* rgba,
                        std::size_t n_pixels);

/// Apply PNG scanline filter `type` (0..4) to `row` (length `n`, pixel
/// stride `bpp`) given the previous scanline `prior` (null on row 0),
/// writing `n` filtered bytes to `out`.
void png_filter_row(int type, const std::uint8_t* row, const std::uint8_t* prior,
                    std::size_t n, std::size_t bpp, std::uint8_t* out);
/// Scalar reference for png_filter_row.
void png_filter_row_scalar(int type, const std::uint8_t* row,
                           const std::uint8_t* prior, std::size_t n, std::size_t bpp,
                           std::uint8_t* out);

/// Undo PNG scanline filter `type` (0..4, RFC 2083 §6): `src` is the
/// filtered line of `n` bytes (pixel stride `bpp`), `prior` the unfiltered
/// line above (all zeros for the first line, never null), `dst` receives
/// the result and may alias `src`. The vector tiers take 4-byte pixels:
/// 16 bytes at a time for Up, one pixel at a time for Sub, Average and
/// Paeth; other strides run the scalar loop.
void png_unfilter_row(int type, const std::uint8_t* src, const std::uint8_t* prior,
                      std::uint8_t* dst, std::size_t n, std::size_t bpp);
/// Scalar reference for png_unfilter_row.
void png_unfilter_row_scalar(int type, const std::uint8_t* src,
                             const std::uint8_t* prior, std::uint8_t* dst,
                             std::size_t n, std::size_t bpp);
/// Test hook: run png_unfilter_row's tier-`level` implementation (clamped
/// to active_level()).
void png_unfilter_row_at(Level level, int type, const std::uint8_t* src,
                         const std::uint8_t* prior, std::uint8_t* dst, std::size_t n,
                         std::size_t bpp);

/// Sum of |signed interpretation| over `n` bytes — the PNG filter heuristic.
std::uint64_t png_abs_sum(const std::uint8_t* data, std::size_t n);
/// Scalar reference for png_abs_sum.
std::uint64_t png_abs_sum_scalar(const std::uint8_t* data, std::size_t n);

/// Bits of the DEFLATE matcher's trigram hash (32768 buckets).
inline constexpr int kHash3Bits = 15;

/// The DEFLATE matcher's hash of the three bytes at `p`: their
/// little-endian 24-bit value times 0x9E3779B1, top kHash3Bits bits.
inline std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          static_cast<std::uint32_t>(p[1]) << 8 |
                          static_cast<std::uint32_t>(p[2]) << 16;
  return (v * 0x9E3779B1u) >> (32 - kHash3Bits);
}

/// out[i] = hash3(data + i) for every i < n; reads n + 2 bytes of `data`.
void hash3_run(const std::uint8_t* data, std::size_t n, std::uint16_t* out);
/// Scalar reference for hash3_run.
void hash3_run_scalar(const std::uint8_t* data, std::size_t n, std::uint16_t* out);
/// Test hook: run hash3_run's tier-`level` implementation (clamped to
/// active_level()).
void hash3_run_at(Level level, const std::uint8_t* data, std::size_t n,
                  std::uint16_t* out);

/// 8×8 forward DCT. `basis` is the separable cos basis t[u][x] row-major;
/// `basis_t` its transpose t[x][u] (the vector path broadcasts inputs and
/// walks the transpose so per-output addition order matches scalar).
void fdct8x8(const double in[64], double out[64], const double basis[64],
             const double basis_t[64]);
/// Scalar reference for fdct8x8.
void fdct8x8_scalar(const double in[64], double out[64], const double basis[64],
                    const double basis_t[64]);

/// Zigzag + quantise an fdct output block: out[i] =
/// clamp(lround(freq[zigzag[i]] / q[zigzag[i]]), -32768, 32767).
void dct_quantise(const double freq[64], const int q[64], const int zigzag[64],
                  int out[64]);
/// Scalar reference for dct_quantise.
void dct_quantise_scalar(const double freq[64], const int q[64],
                         const int zigzag[64], int out[64]);

/// Box-average one 2×-downscale output row from two source rows of packed
/// RGBA pixels (the transcode scaler's inner loop). Per channel:
///   out[j] = (r0[2j] + r0[x1] + r1[2j] + r1[x1] + 2) >> 2,
/// where x1 = min(2j + 1, src_w_px - 1) replicates the right edge on odd
/// widths. Writes (src_w_px + 1) / 2 output pixels; for the odd bottom edge
/// callers pass r1 == r0. `src_w_px` must be >= 1.
void box_halve_row(const std::uint8_t* r0, const std::uint8_t* r1,
                   std::size_t src_w_px, std::uint8_t* out);
/// Scalar reference for box_halve_row.
void box_halve_row_scalar(const std::uint8_t* r0, const std::uint8_t* r1,
                          std::size_t src_w_px, std::uint8_t* out);
/// Test hook: run box_halve_row's tier-`level` implementation (clamped to
/// active_level()), so the golden byte-identity suite can exercise every
/// compiled tier in one process regardless of the dispatch pick.
void box_halve_row_at(Level level, const std::uint8_t* r0, const std::uint8_t* r1,
                      std::size_t src_w_px, std::uint8_t* out);

}  // namespace ads::simd
