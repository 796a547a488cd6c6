// Differential tests for the SIMD kernel layer: every dispatched kernel must
// be bit-identical to its scalar reference across randomized inputs, all
// buffer alignments (0..15 byte offsets) and all tail lengths (0..63 bytes
// past a vector-width multiple). The suite runs in both ADS_SIMD=ON and OFF
// builds; in the OFF build dispatch degenerates to scalar and the tests
// still pin the plumbing.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/prng.hpp"

namespace ads {
namespace {

// Deterministic byte soup with an oversized slack region so tests can slide
// the start offset for alignment coverage.
std::vector<std::uint8_t> random_bytes(Prng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.range(0, 255));
  return out;
}

TEST(SimdDispatch, LevelIsStableAndNamed) {
  const simd::Level l = simd::active_level();
  EXPECT_EQ(l, simd::active_level());
  EXPECT_FALSE(simd::level_name(l).empty());
  if (!simd::compiled_with_simd()) {
    EXPECT_EQ(l, simd::Level::kScalar);
  }
}

TEST(SimdAdler32, MatchesScalarAcrossLengthsAndAlignments) {
  Prng rng(0xAD1E);
  const auto buf = random_bytes(rng, 3 * 5552 + 256);
  for (std::size_t align = 0; align < 16; align += 3) {
    for (std::size_t tail = 0; tail < 64; ++tail) {
      for (const std::size_t base : {std::size_t{0}, std::size_t{32},
                                     std::size_t{5552}, std::size_t{2 * 5552}}) {
        const std::size_t n = base + tail;
        ASSERT_LE(align + n, buf.size());
        std::uint32_t s1a = 1, s2a = 0, s1b = 1, s2b = 0;
        simd::adler32_absorb(s1a, s2a, buf.data() + align, n);
        simd::adler32_absorb_scalar(s1b, s2b, buf.data() + align, n);
        ASSERT_EQ(s1a, s1b) << "align=" << align << " n=" << n;
        ASSERT_EQ(s2a, s2b) << "align=" << align << " n=" << n;
      }
    }
  }
}

TEST(SimdAdler32, IncrementalSplitsMatchOneShot) {
  Prng rng(0xAD2E);
  const auto buf = random_bytes(rng, 40000);
  std::uint32_t s1 = 1, s2 = 0;
  std::size_t pos = 0;
  while (pos < buf.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(static_cast<std::size_t>(rng.range(1, 9000)),
                              buf.size() - pos);
    simd::adler32_absorb(s1, s2, buf.data() + pos, chunk);
    pos += chunk;
  }
  std::uint32_t r1 = 1, r2 = 0;
  simd::adler32_absorb_scalar(r1, r2, buf.data(), buf.size());
  EXPECT_EQ(s1, r1);
  EXPECT_EQ(s2, r2);
}

TEST(SimdCrc32, MatchesScalarAcrossLengthsAndAlignments) {
  Prng rng(0xC3C3);
  const auto buf = random_bytes(rng, 4096 + 128);
  for (std::size_t align = 0; align < 16; ++align) {
    for (std::size_t tail = 0; tail < 64; ++tail) {
      for (const std::size_t base :
           {std::size_t{0}, std::size_t{64}, std::size_t{1024}, std::size_t{3000}}) {
        const std::size_t n = base + tail;
        const std::uint32_t init = static_cast<std::uint32_t>(rng.range(0, 1 << 30));
        const std::uint32_t a = simd::crc32_absorb(init, buf.data() + align, n);
        const std::uint32_t b = simd::crc32_absorb_scalar(init, buf.data() + align, n);
        ASSERT_EQ(a, b) << "align=" << align << " n=" << n;
      }
    }
  }
}

TEST(SimdFnv4, MatchesScalarAcrossWidthsAndPhases) {
  Prng rng(0xF4F4);
  const auto buf = random_bytes(rng, 4 * 1024);
  for (std::size_t pixels = 0; pixels < 70; ++pixels) {
    for (const std::size_t offset_px : {std::size_t{0}, std::size_t{1},
                                        std::size_t{2}, std::size_t{3},
                                        std::size_t{5}}) {
      ASSERT_LE((offset_px + pixels) * 4, buf.size());
      std::uint64_t la[4] = {1, 2, 3, 4};
      std::uint64_t lb[4] = {1, 2, 3, 4};
      simd::fnv4_absorb(la, buf.data() + offset_px * 4, pixels);
      simd::fnv4_absorb_scalar(lb, buf.data() + offset_px * 4, pixels);
      for (int j = 0; j < 4; ++j)
        ASSERT_EQ(la[j], lb[j]) << "pixels=" << pixels << " lane=" << j;
    }
  }
}

TEST(SimdPngFilters, MatchesScalarAllTypesWidthsAndPriors) {
  Prng rng(0x9A96);
  const auto raster = random_bytes(rng, 2 * 4096);
  for (const std::size_t bpp : {std::size_t{3}, std::size_t{4}}) {
    for (int type = 0; type < 5; ++type) {
      for (std::size_t tail = 0; tail < 64; ++tail) {
        for (const std::size_t base : {std::size_t{0}, std::size_t{96},
                                       std::size_t{1024}}) {
          const std::size_t n = base + tail;
          const std::uint8_t* row = raster.data() + 7;  // odd alignment
          const std::uint8_t* prior = raster.data() + 4096 + 3;
          for (const bool with_prior : {false, true}) {
            std::vector<std::uint8_t> got(n + 1, 0xEE);
            std::vector<std::uint8_t> want(n + 1, 0xEE);
            simd::png_filter_row(type, row, with_prior ? prior : nullptr, n, bpp,
                                 got.data());
            simd::png_filter_row_scalar(type, row, with_prior ? prior : nullptr, n,
                                        bpp, want.data());
            ASSERT_EQ(got, want) << "type=" << type << " n=" << n << " bpp=" << bpp
                                 << " prior=" << with_prior;
          }
        }
      }
    }
  }
}

// PNG unfilter: every tier against the scalar reference, for all five
// filter types, 3- and 4-byte pixels and widths 0..67 plus two long rows
// (odd widths included). Rows are random bytes or drawn from {0, 1, 127,
// 128, 254, 255}, whose many equal distances exercise Paeth's tie order.
// Each case runs on exact-size buffers (ASan catches an over-read or
// over-write), both out of place and in place (dst == src, as the decoder
// unfilters RGB scanlines).
TEST(SimdPngUnfilter, EveryTierMatchesScalarAllTypesWidthsAndBpp) {
  Prng rng(0x0F17);
  const std::uint8_t edges[] = {0, 1, 127, 128, 254, 255};
  std::vector<std::size_t> widths;
  for (std::size_t w = 0; w < 68; ++w) widths.push_back(w);
  widths.push_back(257);
  widths.push_back(1023);
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kSse42, simd::Level::kAvx2}) {
    for (const std::size_t bpp : {std::size_t{3}, std::size_t{4}}) {
      for (int type = 0; type < 5; ++type) {
        for (const std::size_t width : widths) {
          for (const bool edge_values : {false, true}) {
            const std::size_t n = width * bpp;
            std::vector<std::uint8_t> src(n);
            std::vector<std::uint8_t> prior(n);
            for (auto* v : {&src, &prior}) {
              for (auto& b : *v)
                b = edge_values ? edges[rng.below(6)] : static_cast<std::uint8_t>(rng.next_u32());
            }
            if (width % 5 == 0) std::fill(prior.begin(), prior.end(), 0);  // first line
            std::vector<std::uint8_t> want(n);
            simd::png_unfilter_row_scalar(type, src.data(), prior.data(), want.data(), n, bpp);
            std::vector<std::uint8_t> got(n);
            simd::png_unfilter_row_at(level, type, src.data(), prior.data(), got.data(), n,
                                      bpp);
            ASSERT_EQ(got, want) << simd::level_name(level) << " type=" << type
                                 << " bpp=" << bpp << " width=" << width;
            std::vector<std::uint8_t> in_place = src;
            simd::png_unfilter_row_at(level, type, in_place.data(), prior.data(),
                                      in_place.data(), n, bpp);
            ASSERT_EQ(in_place, want) << simd::level_name(level) << " in place, type="
                                      << type << " bpp=" << bpp << " width=" << width;
          }
        }
      }
    }
  }
  // The dispatched entry point on one long 4-byte-pixel row per type.
  const auto src = random_bytes(rng, 4 * 1001);
  const auto prior = random_bytes(rng, 4 * 1001);
  for (int type = 0; type < 5; ++type) {
    std::vector<std::uint8_t> a(src.size());
    std::vector<std::uint8_t> b(src.size());
    simd::png_unfilter_row(type, src.data(), prior.data(), a.data(), a.size(), 4);
    simd::png_unfilter_row_scalar(type, src.data(), prior.data(), b.data(), b.size(), 4);
    EXPECT_EQ(a, b) << "type=" << type;
  }
}

// Paeth over every (a, b, c) triple, so the vector tiers' branch-free
// predictor is checked against the scalar one on all 2^24 inputs. The prior
// row alternates c with each b (pixels 2k, 2k + 1 hold c = k >> 8, b =
// k & 255), and each even pixel's source byte is chosen so that its output,
// the next pixel's a, is the row's `a`: r + 64 * lane over 64 rows.
TEST(SimdPngUnfilter, PaethMatchesScalarOnEveryTriple) {
  const auto paeth = [](int a, int b, int c) {
    const int p = a + b - c;
    const int pa = std::abs(p - a);
    const int pb = std::abs(p - b);
    const int pc = std::abs(p - c);
    return pa <= pb && pa <= pc ? a : pb <= pc ? b : c;
  };
  constexpr std::size_t kPixels = 2 * 65536;
  std::vector<std::uint8_t> prior(4 * kPixels);
  for (std::size_t k = 0; k < 65536; ++k) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      prior[8 * k + lane] = static_cast<std::uint8_t>(k >> 8);
      prior[8 * k + 4 + lane] = static_cast<std::uint8_t>(k);
    }
  }
  std::vector<std::uint8_t> src(prior.size(), 0);
  std::vector<std::uint8_t> want(prior.size());
  std::vector<std::uint8_t> got(prior.size());
  for (int r = 0; r < 64; ++r) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      const int a = r + 64 * static_cast<int>(lane);
      int left = 0;  // output of the previous pixel in this lane
      for (std::size_t px = 0; px < kPixels; ++px) {
        const std::size_t i = 4 * px + lane;
        const int b = prior[i];
        const int c = px > 0 ? prior[i - 4] : 0;
        const int pred = paeth(left, b, c);
        if (px % 2 == 0) src[i] = static_cast<std::uint8_t>(a - pred);
        left = (src[i] + pred) & 0xFF;
      }
    }
    simd::png_unfilter_row_scalar(4, src.data(), prior.data(), want.data(), src.size(), 4);
    for (const simd::Level level : {simd::Level::kSse42, simd::Level::kAvx2}) {
      simd::png_unfilter_row_at(level, 4, src.data(), prior.data(), got.data(), src.size(), 4);
      ASSERT_EQ(got, want) << simd::level_name(level) << " row " << r;
    }
  }
}

TEST(SimdPngAbsSum, MatchesScalarIncludingMinus128) {
  Prng rng(0xAB50);
  auto buf = random_bytes(rng, 2048);
  // Salt with the abs(-128) edge case.
  for (std::size_t i = 0; i < buf.size(); i += 17) buf[i] = 0x80;
  for (std::size_t tail = 0; tail < 64; ++tail) {
    for (const std::size_t base : {std::size_t{0}, std::size_t{512}}) {
      for (std::size_t align = 0; align < 8; ++align) {
        const std::size_t n = base + tail;
        ASSERT_EQ(simd::png_abs_sum(buf.data() + align, n),
                  simd::png_abs_sum_scalar(buf.data() + align, n));
      }
    }
  }
}

// The DEFLATE trigram hash: every tier against scalar hash3 for every
// position count 0..64 at every start offset 0..15. Each case runs on an
// exact-size copy of its n + 2 input bytes (ASan catches an over-read) and
// checks that nothing past out[n - 1] is written.
TEST(SimdHash3, EveryTierMatchesScalarHash3) {
  Prng rng(0x4A53);
  const auto buf = random_bytes(rng, 16 + 64 + 2);
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kSse42, simd::Level::kAvx2}) {
    for (std::size_t align = 0; align < 16; ++align) {
      for (std::size_t n = 0; n <= 64; ++n) {
        const std::vector<std::uint8_t> in(buf.begin(),
                                           buf.begin() + static_cast<std::ptrdiff_t>(align + n + 2));
        std::vector<std::uint16_t> out(n + 1, 0xFFFF);
        simd::hash3_run_at(level, in.data() + align, n, out.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], simd::hash3(in.data() + align + i))
              << simd::level_name(level) << " align=" << align << " n=" << n << " i=" << i;
        }
        ASSERT_EQ(out[n], 0xFFFF) << simd::level_name(level) << " n=" << n;
      }
    }
  }
  // The dispatched entry point, on a run long enough for every vector loop.
  std::vector<std::uint16_t> a(buf.size() - 2);
  std::vector<std::uint16_t> b(a.size());
  simd::hash3_run(buf.data(), a.size(), a.data());
  simd::hash3_run_scalar(buf.data(), b.size(), b.data());
  EXPECT_EQ(a, b);
}

TEST(SimdHash3, IsFifteenBitsOfTheMultiplicativeHash) {
  const std::uint8_t zeros[3] = {0, 0, 0};
  EXPECT_EQ(simd::hash3(zeros), 0u);
  const std::uint8_t abc[3] = {'a', 'b', 'c'};
  EXPECT_EQ(simd::hash3(abc), (0x636261u * 0x9E3779B1u) >> 17);
  const std::uint8_t ones[3] = {0xFF, 0xFF, 0xFF};
  EXPECT_LT(simd::hash3(ones), 1u << simd::kHash3Bits);
}

TEST(SimdDct, ForwardTransformBitIdentical) {
  Prng rng(0xDC7);
  // A cos basis shaped like the codec's (values in [-0.5, 0.5]).
  double basis[64];
  double basis_t[64];
  for (int u = 0; u < 8; ++u) {
    for (int x = 0; x < 8; ++x) {
      basis[u * 8 + x] =
          0.5 * std::cos((2 * x + 1) * u * 3.14159265358979323846 / 16.0);
      basis_t[x * 8 + u] = basis[u * 8 + x];
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    double in[64];
    for (auto& v : in) v = static_cast<double>(rng.range(-12800, 12700)) / 100.0;
    double a[64];
    double b[64];
    simd::fdct8x8(in, a, basis, basis_t);
    simd::fdct8x8_scalar(in, b, basis, basis_t);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
          << "coef " << i << ": " << a[i] << " vs " << b[i];
    }
  }
}

TEST(SimdDct, QuantiseBitIdentical) {
  Prng rng(0xDC8);
  int zigzag[64];
  for (int i = 0; i < 64; ++i) zigzag[i] = i;
  // A couple of shuffles of the index map, including the identity.
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    if (shuffle > 0) {
      for (int i = 63; i > 0; --i)
        std::swap(zigzag[i], zigzag[rng.range(0, i)]);
    }
    for (int trial = 0; trial < 100; ++trial) {
      double freq[64];
      int q[64];
      for (auto& v : freq)
        v = static_cast<double>(rng.range(-4'000'000, 4'000'000)) / 7.0;
      for (auto& v : q) v = rng.range(1, 255);
      int a[64];
      int b[64];
      simd::dct_quantise(freq, q, zigzag, a);
      simd::dct_quantise_scalar(freq, q, zigzag, b);
      for (int i = 0; i < 64; ++i) ASSERT_EQ(a[i], b[i]) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace ads
