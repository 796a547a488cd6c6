// Byte-identity golden for the DEFLATE encoder: the committed length and
// FNV-1a-64 of deflate_compress() output for every level 1–9 and block mode
// {kAuto, kFixed, kDynamic} over seeded corpora. Speed work on the matcher
// or the Huffman stage must leave every byte where it was; a change that
// moves one (a different lazy policy, chain halving, another hash) fails
// here and has to re-baseline the table on purpose. Every stream must also
// round-trip through inflate().
//
// Besides screen content, four crafted corpora pin the edges of the match
// search: the 32 KiB window, the per-level candidate cap, hash collisions
// (which use up candidates too) and a lazy look-ahead past the last
// trigram.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "capture/apps.hpp"
#include "codec/deflate.hpp"
#include "codec/inflate.hpp"
#include "codec/png.hpp"
#include "codec/zlib.hpp"
#include "util/prng.hpp"

namespace ads {
namespace {

using Block = DeflateOptions::Block;

struct Corpus {
  std::string name;
  std::vector<Bytes> inputs;
};

/// The adaptive-filtered scanlines PNG hands to zlib for one 160×64 band of
/// `workload`: encode at level 0 (stored blocks) and unwrap the IDAT.
Bytes filtered_band(std::string_view workload) {
  auto app = make_app(workload, 160, 64, 11);
  for (int t = 0; t < 10; ++t) app->tick(static_cast<std::uint64_t>(t));
  const Bytes png = png_encode(app->content(), {.deflate = {.level = 0}});
  // Signature (8) + IHDR chunk (4 + 4 + 13 + 4), then the IDAT chunk.
  constexpr std::size_t kIdat = 33;
  const std::size_t len = static_cast<std::size_t>(png[kIdat]) << 24 |
                          static_cast<std::size_t>(png[kIdat + 1]) << 16 |
                          static_cast<std::size_t>(png[kIdat + 2]) << 8 | png[kIdat + 3];
  auto raw = zlib_decompress(BytesView(png).subspan(kIdat + 8, len));
  EXPECT_TRUE(raw.ok());
  return raw.ok() ? *raw : Bytes{};
}

/// Bytes that repeat with period 23 plus a seeded sprinkle of noise, so
/// matches of every length run up to the end of short inputs.
Bytes cyclic(std::size_t n, Prng& rng) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rng.below(16) == 0 ? static_cast<std::uint8_t>(rng.next_u32())
                                : static_cast<std::uint8_t>('a' + i % 23);
  }
  return out;
}

/// The matcher's trigram hash (`hash3` in util/simd.hpp) of the
/// little-endian 24-bit value `v`, restated so the crafted inputs below do
/// not depend on the code under test.
std::uint32_t trigram_hash(std::uint32_t v) { return (v * 0x9E3779B1u) >> 17; }

std::uint32_t trigram_at(const Bytes& b, std::size_t i) {
  return b[i] | static_cast<std::uint32_t>(b[i + 1]) << 8 |
         static_cast<std::uint32_t>(b[i + 2]) << 16;
}

Bytes letters(std::size_t n, Prng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>('a' + rng.below(26));
  return out;
}

/// A 258-byte block, a zero run, and the block again at distance `dist`
/// from its only earlier copy. The block's bytes are nonzero, so the run
/// shares none of its trigrams.
Bytes window_edge(std::size_t dist, Prng& rng) {
  Bytes out(258);
  for (auto& b : out) b = static_cast<std::uint8_t>(1 + rng.below(255));
  const Bytes block = out;
  out.resize(dist, 0);
  out.insert(out.end(), block.begin(), block.end());
  return out;
}

/// A 64-byte target, then `decoys` nearer positions in the bucket of its
/// first trigram, then a separator and the target again: the earlier copy
/// is candidate decoys + 1 of the second copy's first probe. Each decoy is
/// three bytes in that bucket followed by a non-letter (its trigram
/// itself, or a colliding one).
Bytes behind_decoys(const std::vector<std::array<std::uint8_t, 3>>& decoys,
                    const Bytes& target) {
  Bytes out = target;
  for (const auto& d : decoys) {
    out.insert(out.end(), d.begin(), d.end());
    out.push_back('#');
  }
  out.push_back('!');
  out.insert(out.end(), target.begin(), target.end());
  return out;
}

/// `count` copies of the target's first trigram.
std::vector<std::array<std::uint8_t, 3>> same_trigram(const Bytes& target,
                                                      std::size_t count) {
  return std::vector<std::array<std::uint8_t, 3>>(count, {target[0], target[1], target[2]});
}

/// `count` distinct trigrams that are not the target's first one but hash
/// into its bucket; their first byte differs from the target's, so each
/// fails the byte check at offset 0.
std::vector<std::array<std::uint8_t, 3>> colliding_trigrams(const Bytes& target,
                                                            std::size_t count) {
  const std::uint32_t want = trigram_hash(trigram_at(target, 0));
  std::vector<std::array<std::uint8_t, 3>> out;
  for (std::uint32_t v = 0; out.size() < count; ++v) {
    if ((v & 0xFF) == target[0] || trigram_hash(v) != want) continue;
    out.push_back({static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
                   static_cast<std::uint8_t>(v >> 16)});
  }
  return out;
}

const std::vector<Corpus>& corpora() {
  static const std::vector<Corpus> all = [] {
    std::vector<Corpus> c;
    for (const char* workload : {"video", "terminal", "webpage"}) {
      c.push_back({workload, {filtered_band(workload)}});
    }

    Prng rng(2718);
    Bytes random(20000);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.next_u32());
    c.push_back({"random", {random}});

    // 300-byte runs: longer than the longest match, so each run ends in a
    // short tail match after one or more 258-byte ones.
    Bytes runs;
    for (int k = 0; k < 24; ++k) runs.insert(runs.end(), 300, static_cast<std::uint8_t>(k * 37));
    c.push_back({"runs", {runs, Bytes(300, 'x')}});

    // Short inputs and lengths around multiples of 8 (the word-wise
    // compare) and of 258 (the longest match): every match limit boundary.
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 40; ++n) lengths.push_back(n);
    for (std::size_t m = 48; m <= 136; m += 8) {
      for (std::size_t n : {m - 1, m, m + 1}) lengths.push_back(n);
    }
    for (std::size_t m = 258; m <= 1032; m += 258) {
      for (std::size_t n : {m - 2, m - 1, m, m + 1, m + 2}) lengths.push_back(n);
    }
    Corpus small{"small", {}};
    for (std::size_t n : lengths) {
      small.inputs.push_back(Bytes(n, static_cast<std::uint8_t>(n)));
      small.inputs.push_back(cyclic(n, rng));
    }
    c.push_back(std::move(small));

    // The only earlier copy at distance 32768 must be used, at 32769 not.
    c.push_back({"window", {window_edge(32768, rng), window_edge(32769, rng)}});

    // The earlier copy is the max_chain-th candidate (found) or the
    // (max_chain + 1)-th (missed) at levels 4, 6 and 9.
    const Bytes target = letters(64, rng);
    Corpus cap{"chain_cap", {}};
    for (std::size_t chain : {32, 128, 4096}) {
      for (std::size_t decoys : {chain - 1, chain}) {
        cap.inputs.push_back(behind_decoys(same_trigram(target, decoys), target));
      }
    }
    c.push_back(std::move(cap));

    // As above with distinct trigrams that collide in the hash, at levels
    // 1, 2 and 3.
    Corpus collisions{"collisions", {}};
    for (std::size_t chain : {4, 8, 16}) {
      for (std::size_t decoys : {chain - 1, chain}) {
        collisions.inputs.push_back(
            behind_decoys(colliding_trigrams(target, decoys), target));
      }
    }
    c.push_back(std::move(collisions));

    // Inputs that end in a copy of their first t bytes. The match found at
    // n - t has its lazy look-ahead at n - t + 1: for t = 3 that is one of
    // the last two positions, which have no trigram left to probe; for
    // t > 3 it still has one.
    Corpus tail{"tail", {}};
    for (std::size_t t = 3; t <= 6; ++t) {
      Bytes in = letters(24, rng);
      const Bytes head(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(t));
      in.insert(in.end(), head.begin(), head.end());
      tail.inputs.push_back(std::move(in));
    }
    c.push_back(std::move(tail));
    return c;
  }();
  return all;
}

struct Golden {
  std::string_view corpus;
  int level;
  Block block;
  std::size_t bytes;    ///< total compressed bytes over the corpus
  std::uint64_t fnv;    ///< FNV-1a-64 over each output's length and bytes
};

// clang-format off
constexpr Golden kGolden[] = {
    {"video", 1, Block::kAuto, 12575, 0x31051ff4ca8042bfull},
    {"video", 1, Block::kFixed, 19946, 0x0c16d9d50d2e3cddull},
    {"video", 1, Block::kDynamic, 12575, 0x31051ff4ca8042bfull},
    {"video", 2, Block::kAuto, 12267, 0x8b3bf534ef875c9full},
    {"video", 2, Block::kFixed, 18831, 0xca93c3bc23b93a90ull},
    {"video", 2, Block::kDynamic, 12267, 0x8b3bf534ef875c9full},
    {"video", 3, Block::kAuto, 11947, 0x89ae6acf0eb86b8full},
    {"video", 3, Block::kFixed, 17403, 0x4a1e3aca611a058cull},
    {"video", 3, Block::kDynamic, 11947, 0x89ae6acf0eb86b8full},
    {"video", 4, Block::kAuto, 11658, 0x0bee8064a53580c6ull},
    {"video", 4, Block::kFixed, 16162, 0x456aaf75d45cf25aull},
    {"video", 4, Block::kDynamic, 11658, 0x0bee8064a53580c6ull},
    {"video", 5, Block::kAuto, 11269, 0x5eaea364750fed09ull},
    {"video", 5, Block::kFixed, 15372, 0x7702523310b5ac19ull},
    {"video", 5, Block::kDynamic, 11269, 0x5eaea364750fed09ull},
    {"video", 6, Block::kAuto, 11094, 0x820ab5c9bfd1c1c4ull},
    {"video", 6, Block::kFixed, 14987, 0x3875ae06a7680703ull},
    {"video", 6, Block::kDynamic, 11094, 0x820ab5c9bfd1c1c4ull},
    {"video", 7, Block::kAuto, 11105, 0x9a17a0505e07a0caull},
    {"video", 7, Block::kFixed, 14853, 0xf5fe9542a9b0e2f0ull},
    {"video", 7, Block::kDynamic, 11105, 0x9a17a0505e07a0caull},
    {"video", 8, Block::kAuto, 11111, 0xd15507c76966114bull},
    {"video", 8, Block::kFixed, 14828, 0xa1e44de9e179568cull},
    {"video", 8, Block::kDynamic, 11111, 0xd15507c76966114bull},
    {"video", 9, Block::kAuto, 11112, 0x2761d8c65d60249aull},
    {"video", 9, Block::kFixed, 14829, 0x750aab2f8412127bull},
    {"video", 9, Block::kDynamic, 11112, 0x2761d8c65d60249aull},
    {"terminal", 1, Block::kAuto, 1301, 0xfd401d8068ef9dc9ull},
    {"terminal", 1, Block::kFixed, 1824, 0x753bbbeaf8079407ull},
    {"terminal", 1, Block::kDynamic, 1301, 0xfd401d8068ef9dc9ull},
    {"terminal", 2, Block::kAuto, 1229, 0x6ff4e5ab47e07e3eull},
    {"terminal", 2, Block::kFixed, 1642, 0x58f6eeeb256eae56ull},
    {"terminal", 2, Block::kDynamic, 1229, 0x6ff4e5ab47e07e3eull},
    {"terminal", 3, Block::kAuto, 1171, 0xacdc9423d3cd60b7ull},
    {"terminal", 3, Block::kFixed, 1517, 0x362f3dd7dff186b2ull},
    {"terminal", 3, Block::kDynamic, 1171, 0xacdc9423d3cd60b7ull},
    {"terminal", 4, Block::kAuto, 1134, 0x2dc2cb332a0e4f19ull},
    {"terminal", 4, Block::kFixed, 1446, 0x81415c3dba1ec837ull},
    {"terminal", 4, Block::kDynamic, 1134, 0x2dc2cb332a0e4f19ull},
    {"terminal", 5, Block::kAuto, 1115, 0x04847f857570b597ull},
    {"terminal", 5, Block::kFixed, 1396, 0xf6d8e256bdb3952cull},
    {"terminal", 5, Block::kDynamic, 1115, 0x04847f857570b597ull},
    {"terminal", 6, Block::kAuto, 1097, 0xe2ca9ccdb833e04aull},
    {"terminal", 6, Block::kFixed, 1354, 0x2b8aabc35a0349adull},
    {"terminal", 6, Block::kDynamic, 1097, 0xe2ca9ccdb833e04aull},
    {"terminal", 7, Block::kAuto, 1073, 0x306f1cb08a06a1bfull},
    {"terminal", 7, Block::kFixed, 1304, 0x6ed32219b9652cabull},
    {"terminal", 7, Block::kDynamic, 1073, 0x306f1cb08a06a1bfull},
    {"terminal", 8, Block::kAuto, 1040, 0x74d5d9490311f83eull},
    {"terminal", 8, Block::kFixed, 1258, 0x58149ac32f94f4f0ull},
    {"terminal", 8, Block::kDynamic, 1040, 0x74d5d9490311f83eull},
    {"terminal", 9, Block::kAuto, 987, 0x372708dde88bc3aaull},
    {"terminal", 9, Block::kFixed, 1199, 0x07636ccf741a3dbdull},
    {"terminal", 9, Block::kDynamic, 987, 0x372708dde88bc3aaull},
    {"webpage", 1, Block::kAuto, 370, 0xe6ab4a0638ea59f1ull},
    {"webpage", 1, Block::kFixed, 556, 0x46a32a98e839e076ull},
    {"webpage", 1, Block::kDynamic, 370, 0xe6ab4a0638ea59f1ull},
    {"webpage", 2, Block::kAuto, 372, 0xbec1725d301128a2ull},
    {"webpage", 2, Block::kFixed, 556, 0xd4aa198cc4dc4d31ull},
    {"webpage", 2, Block::kDynamic, 372, 0xbec1725d301128a2ull},
    {"webpage", 3, Block::kAuto, 375, 0xf9572a26a792ed21ull},
    {"webpage", 3, Block::kFixed, 558, 0x66d1bd4cf979f1b9ull},
    {"webpage", 3, Block::kDynamic, 375, 0xf9572a26a792ed21ull},
    {"webpage", 4, Block::kAuto, 352, 0xf43385aab611a583ull},
    {"webpage", 4, Block::kFixed, 544, 0x7870a49241e70129ull},
    {"webpage", 4, Block::kDynamic, 352, 0xf43385aab611a583ull},
    {"webpage", 5, Block::kAuto, 352, 0xbfe0d5dcb408bf9aull},
    {"webpage", 5, Block::kFixed, 543, 0xf656b4b3cae52c06ull},
    {"webpage", 5, Block::kDynamic, 352, 0xbfe0d5dcb408bf9aull},
    {"webpage", 6, Block::kAuto, 353, 0x4cfbec5647cbf8d2ull},
    {"webpage", 6, Block::kFixed, 542, 0x64bc6bb44db0bcfbull},
    {"webpage", 6, Block::kDynamic, 353, 0x4cfbec5647cbf8d2ull},
    {"webpage", 7, Block::kAuto, 358, 0xd9b20bd391b213cdull},
    {"webpage", 7, Block::kFixed, 538, 0xa59c050a65fe5e91ull},
    {"webpage", 7, Block::kDynamic, 358, 0xd9b20bd391b213cdull},
    {"webpage", 8, Block::kAuto, 370, 0x5257ce8688ce8ac2ull},
    {"webpage", 8, Block::kFixed, 521, 0x0e0c076d01155713ull},
    {"webpage", 8, Block::kDynamic, 370, 0x5257ce8688ce8ac2ull},
    {"webpage", 9, Block::kAuto, 357, 0x8f9ac9c9ddc3b33dull},
    {"webpage", 9, Block::kFixed, 512, 0x92b351370d2ba6eeull},
    {"webpage", 9, Block::kDynamic, 357, 0x8f9ac9c9ddc3b33dull},
    {"random", 1, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 1, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 1, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 2, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 2, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 2, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 3, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 3, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 3, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 4, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 4, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 4, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 5, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 5, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 5, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 6, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 6, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 6, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 7, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 7, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 7, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 8, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 8, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 8, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"random", 9, Block::kAuto, 20005, 0x744a801dd6d1c21bull},
    {"random", 9, Block::kFixed, 21099, 0x5d7d8a553c164628ull},
    {"random", 9, Block::kDynamic, 20039, 0x06fd828e6b089feeull},
    {"runs", 1, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 1, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 1, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 2, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 2, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 2, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 3, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 3, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 3, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 4, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 4, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 4, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 5, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 5, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 5, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 6, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 6, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 6, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 7, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 7, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 7, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 8, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 8, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 8, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"runs", 9, Block::kAuto, 86, 0x73b57a650805a92dull},
    {"runs", 9, Block::kFixed, 117, 0xddcc70cb0da9a48dull},
    {"runs", 9, Block::kDynamic, 96, 0x210dcc1eadc24f47ull},
    {"small", 1, Block::kAuto, 6286, 0xb8d0b35f470ad1ceull},
    {"small", 1, Block::kFixed, 6286, 0x960d22dd8927e828ull},
    {"small", 1, Block::kDynamic, 8116, 0xa29c7fb81426a916ull},
    {"small", 2, Block::kAuto, 6089, 0x3b72aa71d479f22aull},
    {"small", 2, Block::kFixed, 6089, 0x3b72aa71d479f22aull},
    {"small", 2, Block::kDynamic, 8038, 0x529e1ce99187d6aaull},
    {"small", 3, Block::kAuto, 6045, 0xacb847b4a4fe7336ull},
    {"small", 3, Block::kFixed, 6045, 0xacb847b4a4fe7336ull},
    {"small", 3, Block::kDynamic, 8027, 0x4c70e2d1595c064cull},
    {"small", 4, Block::kAuto, 6017, 0x948c2d10505ed5b9ull},
    {"small", 4, Block::kFixed, 6017, 0x948c2d10505ed5b9ull},
    {"small", 4, Block::kDynamic, 8023, 0x9eb48b572345c56dull},
    {"small", 5, Block::kAuto, 6017, 0x948c2d10505ed5b9ull},
    {"small", 5, Block::kFixed, 6017, 0x948c2d10505ed5b9ull},
    {"small", 5, Block::kDynamic, 8023, 0x9eb48b572345c56dull},
    {"small", 6, Block::kAuto, 6017, 0x948c2d10505ed5b9ull},
    {"small", 6, Block::kFixed, 6017, 0x948c2d10505ed5b9ull},
    {"small", 6, Block::kDynamic, 8023, 0x9eb48b572345c56dull},
    {"small", 7, Block::kAuto, 6017, 0x948c2d10505ed5b9ull},
    {"small", 7, Block::kFixed, 6017, 0x948c2d10505ed5b9ull},
    {"small", 7, Block::kDynamic, 8023, 0x9eb48b572345c56dull},
    {"small", 8, Block::kAuto, 6017, 0x948c2d10505ed5b9ull},
    {"small", 8, Block::kFixed, 6017, 0x948c2d10505ed5b9ull},
    {"small", 8, Block::kDynamic, 8023, 0x9eb48b572345c56dull},
    {"small", 9, Block::kAuto, 6017, 0x948c2d10505ed5b9ull},
    {"small", 9, Block::kFixed, 6017, 0x948c2d10505ed5b9ull},
    {"small", 9, Block::kDynamic, 8023, 0x9eb48b572345c56dull},
    {"window", 1, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 1, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 1, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 2, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 2, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 2, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 3, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 3, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 3, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 4, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 4, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 4, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 5, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 5, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 5, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 6, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 6, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 6, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 7, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 7, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 7, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 8, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 8, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 8, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"window", 9, Block::kAuto, 988, 0x67de91698d2e13c6ull},
    {"window", 9, Block::kFixed, 1241, 0x03353f84e8de6b16ull},
    {"window", 9, Block::kDynamic, 988, 0x67de91698d2e13c6ull},
    {"chain_cap", 1, Block::kAuto, 506, 0x5f219f11f57d65f4ull},
    {"chain_cap", 1, Block::kFixed, 666, 0x3151978c085d8bc8ull},
    {"chain_cap", 1, Block::kDynamic, 506, 0x5f219f11f57d65f4ull},
    {"chain_cap", 2, Block::kAuto, 506, 0x5f219f11f57d65f4ull},
    {"chain_cap", 2, Block::kFixed, 666, 0x3151978c085d8bc8ull},
    {"chain_cap", 2, Block::kDynamic, 506, 0x5f219f11f57d65f4ull},
    {"chain_cap", 3, Block::kAuto, 506, 0x5f219f11f57d65f4ull},
    {"chain_cap", 3, Block::kFixed, 666, 0x3151978c085d8bc8ull},
    {"chain_cap", 3, Block::kDynamic, 506, 0x5f219f11f57d65f4ull},
    {"chain_cap", 4, Block::kAuto, 499, 0xfb1231ee27366069ull},
    {"chain_cap", 4, Block::kFixed, 661, 0x5d9377877e76cab2ull},
    {"chain_cap", 4, Block::kDynamic, 499, 0xfb1231ee27366069ull},
    {"chain_cap", 5, Block::kAuto, 498, 0x15a8d64a1598d01eull},
    {"chain_cap", 5, Block::kFixed, 660, 0x539883c44fb6a8f0ull},
    {"chain_cap", 5, Block::kDynamic, 498, 0x15a8d64a1598d01eull},
    {"chain_cap", 6, Block::kAuto, 498, 0x2743058ac71c6b46ull},
    {"chain_cap", 6, Block::kFixed, 659, 0xc01880da99d6622full},
    {"chain_cap", 6, Block::kDynamic, 498, 0x2743058ac71c6b46ull},
    {"chain_cap", 7, Block::kAuto, 498, 0x437f40bd80e4cd69ull},
    {"chain_cap", 7, Block::kFixed, 658, 0xccdcb5c2a6eaff52ull},
    {"chain_cap", 7, Block::kDynamic, 498, 0x437f40bd80e4cd69ull},
    {"chain_cap", 8, Block::kAuto, 498, 0x437f40bd80e4cd69ull},
    {"chain_cap", 8, Block::kFixed, 658, 0xccdcb5c2a6eaff52ull},
    {"chain_cap", 8, Block::kDynamic, 498, 0x437f40bd80e4cd69ull},
    {"chain_cap", 9, Block::kAuto, 498, 0x2a642e70e6ec1c7cull},
    {"chain_cap", 9, Block::kFixed, 657, 0xdec386f5b991fde5ull},
    {"chain_cap", 9, Block::kDynamic, 498, 0x2a642e70e6ec1c7cull},
    {"collisions", 1, Block::kAuto, 639, 0x396e46825687a1c4ull},
    {"collisions", 1, Block::kFixed, 639, 0x396e46825687a1c4ull},
    {"collisions", 1, Block::kDynamic, 670, 0x47948afdc8abe2b3ull},
    {"collisions", 2, Block::kAuto, 637, 0xf8fdddc4d16c86ddull},
    {"collisions", 2, Block::kFixed, 637, 0xf8fdddc4d16c86ddull},
    {"collisions", 2, Block::kDynamic, 669, 0x867da9511b81cff9ull},
    {"collisions", 3, Block::kAuto, 635, 0xdba0cbb409452427ull},
    {"collisions", 3, Block::kFixed, 635, 0xdba0cbb409452427ull},
    {"collisions", 3, Block::kDynamic, 667, 0xe1e616fe098dc1a6ull},
    {"collisions", 4, Block::kAuto, 634, 0x659e64fab753928aull},
    {"collisions", 4, Block::kFixed, 634, 0x659e64fab753928aull},
    {"collisions", 4, Block::kDynamic, 666, 0x91edace9519b4f23ull},
    {"collisions", 5, Block::kAuto, 634, 0x659e64fab753928aull},
    {"collisions", 5, Block::kFixed, 634, 0x659e64fab753928aull},
    {"collisions", 5, Block::kDynamic, 666, 0x91edace9519b4f23ull},
    {"collisions", 6, Block::kAuto, 634, 0x659e64fab753928aull},
    {"collisions", 6, Block::kFixed, 634, 0x659e64fab753928aull},
    {"collisions", 6, Block::kDynamic, 666, 0x91edace9519b4f23ull},
    {"collisions", 7, Block::kAuto, 634, 0x659e64fab753928aull},
    {"collisions", 7, Block::kFixed, 634, 0x659e64fab753928aull},
    {"collisions", 7, Block::kDynamic, 666, 0x91edace9519b4f23ull},
    {"collisions", 8, Block::kAuto, 634, 0x659e64fab753928aull},
    {"collisions", 8, Block::kFixed, 634, 0x659e64fab753928aull},
    {"collisions", 8, Block::kDynamic, 666, 0x91edace9519b4f23ull},
    {"collisions", 9, Block::kAuto, 634, 0x659e64fab753928aull},
    {"collisions", 9, Block::kFixed, 634, 0x659e64fab753928aull},
    {"collisions", 9, Block::kDynamic, 666, 0x91edace9519b4f23ull},
    {"tail", 1, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 1, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 1, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 2, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 2, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 2, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 3, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 3, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 3, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 4, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 4, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 4, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 5, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 5, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 5, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 6, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 6, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 6, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 7, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 7, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 7, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 8, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 8, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 8, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
    {"tail", 9, Block::kAuto, 112, 0x6bf24166d25edf1dull},
    {"tail", 9, Block::kFixed, 112, 0x6bf24166d25edf1dull},
    {"tail", 9, Block::kDynamic, 137, 0x3a9efca3871d9f5bull},
};
// clang-format on

const char* block_name(Block b) {
  switch (b) {
    case Block::kAuto: return "kAuto";
    case Block::kFixed: return "kFixed";
    case Block::kDynamic: return "kDynamic";
    case Block::kStored: return "kStored";
  }
  return "?";
}

void absorb(std::uint64_t& h, std::uint8_t b) {
  h ^= b;
  h *= 0x100000001b3ull;
}

TEST(DeflateGolden, EveryLevelAndBlockModeMatchesCommittedBytes) {
  std::size_t checked = 0;
  for (const Corpus& corpus : corpora()) {
    for (int level = 1; level <= 9; ++level) {
      for (const Block block : {Block::kAuto, Block::kFixed, Block::kDynamic}) {
        std::size_t bytes = 0;
        std::uint64_t fnv = 0xcbf29ce484222325ull;
        for (const Bytes& input : corpus.inputs) {
          const Bytes out = deflate_compress(input, {.level = level, .block = block});
          auto back = inflate(out);
          ASSERT_TRUE(back.ok()) << corpus.name << " level " << level;
          ASSERT_EQ(*back, input) << corpus.name << " level " << level;
          bytes += out.size();
          for (int k = 0; k < 4; ++k) absorb(fnv, static_cast<std::uint8_t>(out.size() >> (8 * k)));
          for (std::uint8_t b : out) absorb(fnv, b);
        }
        const Golden* want = nullptr;
        for (const Golden& g : kGolden) {
          if (g.corpus == corpus.name && g.level == level && g.block == block) want = &g;
        }
        char line[128];
        std::snprintf(line, sizeof line, "{\"%s\", %d, Block::%s, %zu, 0x%016llxull},",
                      corpus.name.c_str(), level, block_name(block), bytes,
                      static_cast<unsigned long long>(fnv));
        ASSERT_NE(want, nullptr) << "no golden for " << line;
        EXPECT_EQ(want->bytes, bytes) << line;
        EXPECT_EQ(want->fnv, fnv) << line;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kGolden));
}

const Corpus& corpus(std::string_view name) {
  for (const Corpus& c : corpora()) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "no corpus " << name;
  return corpora().front();
}

// The window edge in plain terms: the copy at distance 32768 costs a few
// bytes at every level, the one at 32769 is sent as 258 literals.
TEST(DeflateGolden, CopyAtWindowEdgeIsUsedOnlyWithinTheWindow) {
  const Corpus& window = corpus("window");
  ASSERT_EQ(window.inputs.size(), 2u);
  for (int level = 1; level <= 9; ++level) {
    const std::size_t inside = deflate_compress(window.inputs[0], {.level = level}).size();
    const std::size_t outside = deflate_compress(window.inputs[1], {.level = level}).size();
    EXPECT_GT(outside, inside + 200) << "level " << level;
  }
}

}  // namespace
}  // namespace ads
