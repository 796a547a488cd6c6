#include "codec/deflate.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <vector>

#include "codec/bitstream.hpp"
#include "codec/huffman.hpp"
#include "util/simd.hpp"

namespace ads {

namespace {

using namespace deflate_tables;

constexpr int kWindowSize = 32768;
constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr std::size_t kHashSize = std::size_t{1} << simd::kHash3Bits;
constexpr int kEndOfBlock = 256;
constexpr int kNumLitLen = 286;  // literal/length alphabet size

/// One LZ77 token: a literal byte (dist == 0) or a (length, dist) match.
struct Token {
  std::uint16_t length_or_literal;
  std::uint16_t dist;
};

struct SearchParams {
  int max_chain;
  int nice_length;  ///< stop searching once a match this long is found
  bool lazy;
};

SearchParams params_for_level(int level) {
  switch (level) {
    case 1: return {4, 16, false};
    case 2: return {8, 32, false};
    case 3: return {16, 64, false};
    case 4: return {32, 64, true};
    case 5: return {64, 128, true};
    case 6: return {128, 192, true};
    case 7: return {256, 258, true};
    case 8: return {1024, 258, true};
    default: return {4096, 258, true};  // 9+
  }
}

/// Length of the common prefix of `a` and `b`, at most `limit`. Compares 8
/// bytes per step on little-endian hosts (the first differing byte is the
/// lowest set byte of the XOR); loads never reach past `limit`.
int match_length(const std::uint8_t* a, const std::uint8_t* b, int limit) {
  int n = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n + 8 <= limit; n += 8) {
      std::uint64_t x;
      std::uint64_t y;
      std::memcpy(&x, a + n, 8);
      std::memcpy(&y, b + n, 8);
      if (const std::uint64_t diff = x ^ y) return n + std::countr_zero(diff) / 8;
    }
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

struct Match {
  int len = 0;
  int dist = 0;
};

/// Grow-only array whose contents are neither initialised nor kept when it
/// grows: every use overwrites what it reads.
template <typename T>
class Buffer {
 public:
  T* grown(std::size_t n) {
    if (capacity_ < n) {
      data_ = std::make_unique_for_overwrite<T[]>(n);
      capacity_ = n;
    }
    return data_.get();
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

/// Working arrays of the match-candidate index, kept in DeflateScratch so
/// repeated calls reuse their capacity.
struct MatchIndexScratch {
  Buffer<std::uint16_t> hash;   ///< hash3 of each position
  Buffer<std::uint32_t> slot;   ///< each position's slot in `order`
  Buffer<std::uint32_t> order;  ///< positions grouped by bucket, ascending
  Buffer<std::uint16_t> seen;   ///< buckets in order of first occurrence
  std::vector<std::uint32_t> count;  ///< per-bucket tally; all zero between calls
};

/// The `order` slot in front of each bucket. Any position minus it wraps
/// past the window, so the candidate walk stops there.
constexpr std::uint32_t kBucketEnd = 0xFFFFFFFF;

/// Positions the index build handles at once inside a run of one bucket.
constexpr std::uint32_t kBlock = 16;

/// True when all kBlock hashes at `h` equal `bucket` (four 8-byte compares).
bool block_in_bucket(const std::uint16_t* h, std::uint32_t bucket) {
  const std::uint64_t pattern = 0x0001000100010001ull * bucket;
  std::uint64_t diff = 0;
  for (std::uint32_t k = 0; k < kBlock; k += 4) {
    std::uint64_t w;
    std::memcpy(&w, h + k, 8);
    diff |= w ^ pattern;
  }
  return diff == 0;
}

/// LZ77 tokeniser over a candidate index built once per input.
///
/// The probe at position p walks the earlier positions q < p with
/// hash3(q) == hash3(p), most recent first, up to max_chain of them and no
/// further back than the 32 KiB window. Those are exactly the positions an
/// insert-as-you-go hash chain holds when p is probed: every position before
/// p, and none after it, is inserted before p is probed, on the greedy, lazy
/// and look-ahead paths alike. So the index needs no inserts: `order` lists
/// each bucket's positions in ascending order behind a kBucketEnd slot, and
/// the candidates of p are the slots just below slot[p], read as one
/// contiguous run.
class Lz77 {
 public:
  Lz77(BytesView input, SearchParams params, MatchIndexScratch& s)
      : in_(input), params_(params) {
    build_index(s);
  }

  void tokenize(std::vector<Token>& tokens) const {
    tokens.clear();
    tokens.reserve(in_.size() / 3 + 16);
    const std::size_t n = in_.size();
    std::size_t i = 0;
    // Longest match at i. Each position is probed once: a lazy look-ahead
    // that wins is carried into the next step.
    Match match = find_match(0);
    while (i < n) {
      if (params_.lazy && match.len >= kMinMatch && match.len < params_.nice_length &&
          i + 1 < n) {
        // Peek at i+1; if strictly better there, emit in_[i] as a literal.
        const Match next = find_match(i + 1);
        if (next.len > match.len) {
          tokens.push_back({in_[i], 0});
          ++i;
          match = next;
          continue;
        }
      }
      if (match.len >= kMinMatch) {
        tokens.push_back(
            {static_cast<std::uint16_t>(match.len), static_cast<std::uint16_t>(match.dist)});
        i += static_cast<std::size_t>(match.len);
      } else {
        tokens.push_back({in_[i], 0});
        ++i;
      }
      match = find_match(i);
    }
  }

 private:
  /// Bucket-sorts the positions that have a full trigram: hash pass, rank
  /// of each position within its bucket, bucket starts, one scatter.
  void build_index(MatchIndexScratch& s) {
    const std::size_t m = in_.size() >= kMinMatch ? in_.size() - (kMinMatch - 1) : 0;
    const std::size_t max_buckets = std::min(m, kHashSize);
    // Everything is allocated before `count` is touched, so it is back to
    // all zero whenever this returns.
    std::uint16_t* const hash = s.hash.grown(m);
    slot_ = s.slot.grown(m);
    order_ = s.order.grown(m + max_buckets);
    // One slot of slack: the rank pass stores each bucket change before it
    // knows whether the bucket is new.
    std::uint16_t* const seen = s.seen.grown(max_buckets + 1);
    if (s.count.empty()) s.count.resize(kHashSize);
    std::uint32_t* const count = s.count.data();
    if (m == 0) return;
    simd::hash3_run(in_.data(), m, hash);

    // Rank (into slot_ for now): the bucket's tally so far. Within a run
    // of one bucket it is counted in a register, kBlock positions at a
    // time where it can be; `count` is touched only where the bucket
    // changes. A bucket whose tally reads zero there is new.
    std::uint32_t bucket = hash[0];
    std::uint32_t r = 0;
    std::size_t distinct = 0;
    seen[distinct++] = static_cast<std::uint16_t>(bucket);
    for (std::size_t p = 0; p < m;) {
      const std::uint32_t h = hash[p];
      if (h != bucket) {
        count[bucket] = r;
        bucket = h;
        r = count[h];
        seen[distinct] = static_cast<std::uint16_t>(h);
        distinct += r == 0;
      } else if (p + kBlock <= m && block_in_bucket(hash + p, h)) {
        for (std::uint32_t k = 0; k < kBlock; ++k) slot_[p + k] = r + k;
        r += kBlock;
        p += kBlock;
        continue;
      }
      slot_[p++] = r++;
    }
    count[bucket] = r;

    // Buckets take consecutive ranges of `order` in first-occurrence
    // order, so this pass costs the number of buckets used, not all
    // 32768. `count` now holds each bucket's first slot.
    std::uint32_t next = 0;
    for (std::size_t k = 0; k < distinct; ++k) {
      const std::uint16_t b = seen[k];
      order_[next++] = kBucketEnd;
      const std::uint32_t size = count[b];
      count[b] = next;
      next += size;
    }

    // Scatter: slot = bucket start + rank. kBlock positions whose ranks
    // are consecutive in one bucket fill consecutive slots.
    for (std::size_t p = 0; p < m;) {
      const std::uint32_t h = hash[p];
      const std::uint32_t first = count[h] + slot_[p];
      if (p + kBlock <= m && hash[p + kBlock - 1] == h &&
          slot_[p + kBlock - 1] == slot_[p] + (kBlock - 1)) {
        for (std::uint32_t k = 0; k < kBlock; ++k) {
          order_[first + k] = static_cast<std::uint32_t>(p) + k;
          slot_[p + k] = first + k;
        }
        p += kBlock;
      } else {
        order_[first] = static_cast<std::uint32_t>(p);
        slot_[p++] = first;
      }
    }
    for (std::size_t k = 0; k < distinct; ++k) count[seen[k]] = 0;
  }

  Match find_match(std::size_t pos) const {
    Match best;
    const std::size_t n = in_.size();
    if (pos + kMinMatch > n) return best;
    const int limit = static_cast<int>(std::min<std::size_t>(kMaxMatch, n - pos));
    const std::uint8_t* const here = &in_[pos];
    const std::uint32_t* cand = order_ + slot_[pos];
    for (int chain = params_.max_chain; chain > 0; --chain) {
      const std::size_t cpos = *--cand;
      if (pos - cpos > kWindowSize) break;  // also kBucketEnd
      const std::uint8_t* const there = &in_[cpos];
      // Only a candidate that also matches at offset best.len can be
      // longer; best.len < limit keeps this probe inside the input.
      if (there[best.len] == here[best.len]) {
        const int len = match_length(there, here, limit);
        if (len > best.len) {
          best = {len, static_cast<int>(pos - cpos)};
          if (len >= params_.nice_length || len == limit) break;
        }
      }
    }
    return best;
  }

  BytesView in_;
  SearchParams params_;
  std::uint32_t* slot_ = nullptr;
  std::uint32_t* order_ = nullptr;
};

struct CodeSet {
  std::vector<std::uint8_t> litlen_lengths;
  std::vector<std::uint32_t> litlen_codes;
  std::vector<std::uint8_t> dist_lengths;
  std::vector<std::uint32_t> dist_codes;
};

void count_frequencies(const std::vector<Token>& tokens,
                       std::vector<std::uint64_t>& lit_freq,
                       std::vector<std::uint64_t>& dist_freq) {
  lit_freq.assign(kNumLitLen, 0);
  dist_freq.assign(kNumDistCodes, 0);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++lit_freq[t.length_or_literal];
    } else {
      ++lit_freq[static_cast<std::size_t>(257 + length_code(t.length_or_literal))];
      ++dist_freq[static_cast<std::size_t>(dist_code(t.dist))];
    }
  }
  ++lit_freq[kEndOfBlock];
}

/// Cost in bits of coding `tokens` with the given code lengths (excluding
/// any block header).
std::uint64_t body_cost_bits(const std::vector<Token>& tokens,
                             const std::vector<std::uint8_t>& litlen,
                             const std::vector<std::uint8_t>& dist) {
  std::uint64_t bits = 0;
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      bits += litlen[t.length_or_literal];
    } else {
      const int lc = length_code(t.length_or_literal);
      const int dc = dist_code(t.dist);
      bits += litlen[static_cast<std::size_t>(257 + lc)] +
              kLengthExtra[static_cast<std::size_t>(lc)] +
              dist[static_cast<std::size_t>(dc)] +
              kDistExtra[static_cast<std::size_t>(dc)];
    }
  }
  bits += litlen[kEndOfBlock];
  return bits;
}

void write_tokens(BitWriter& out, const std::vector<Token>& tokens, const CodeSet& cs) {
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      out.write(cs.litlen_codes[t.length_or_literal],
                cs.litlen_lengths[t.length_or_literal]);
    } else {
      const int lc = length_code(t.length_or_literal);
      const std::size_t sym = static_cast<std::size_t>(257 + lc);
      out.write(cs.litlen_codes[sym], cs.litlen_lengths[sym]);
      const int le = kLengthExtra[static_cast<std::size_t>(lc)];
      if (le) {
        out.write(static_cast<std::uint32_t>(t.length_or_literal -
                                             kLengthBase[static_cast<std::size_t>(lc)]),
                  le);
      }
      const int dc = dist_code(t.dist);
      out.write(cs.dist_codes[static_cast<std::size_t>(dc)],
                cs.dist_lengths[static_cast<std::size_t>(dc)]);
      const int de = kDistExtra[static_cast<std::size_t>(dc)];
      if (de) {
        out.write(
            static_cast<std::uint32_t>(t.dist - kDistBase[static_cast<std::size_t>(dc)]),
            de);
      }
    }
  }
  out.write(cs.litlen_codes[kEndOfBlock], cs.litlen_lengths[kEndOfBlock]);
}

/// Run-length encode the concatenated litlen+dist code lengths into
/// code-length-code symbols (with 16/17/18 repeats), per §3.2.7.
struct ClcSymbol {
  std::uint8_t symbol;
  std::uint8_t extra;       ///< repeat payload for 16/17/18
};

std::vector<ClcSymbol> rle_code_lengths(const std::vector<std::uint8_t>& lengths) {
  std::vector<ClcSymbol> out;
  std::size_t i = 0;
  while (i < lengths.size()) {
    const std::uint8_t v = lengths[i];
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == v) ++run;
    if (v == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t take = std::min<std::size_t>(left, 138);
        out.push_back({18, static_cast<std::uint8_t>(take - 11)});
        left -= take;
      }
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 10);
        out.push_back({17, static_cast<std::uint8_t>(take - 3)});
        left -= take;
      }
      for (std::size_t k = 0; k < left; ++k) out.push_back({0, 0});
    } else {
      out.push_back({v, 0});
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t take = std::min<std::size_t>(left, 6);
        out.push_back({16, static_cast<std::uint8_t>(take - 3)});
        left -= take;
      }
      for (std::size_t k = 0; k < left; ++k) out.push_back({v, 0});
    }
    i += run;
  }
  return out;
}

void write_stored(BitWriter& out, BytesView input, bool final_block) {
  // Stored blocks are limited to 65535 bytes each.
  std::size_t pos = 0;
  do {
    const std::size_t chunk = std::min<std::size_t>(input.size() - pos, 65535);
    const bool last = final_block && pos + chunk == input.size();
    out.write(last ? 1 : 0, 1);
    out.write(0, 2);  // BTYPE=00
    out.align_to_byte();
    const std::uint16_t len = static_cast<std::uint16_t>(chunk);
    out.byte(static_cast<std::uint8_t>(len));
    out.byte(static_cast<std::uint8_t>(len >> 8));
    out.byte(static_cast<std::uint8_t>(~len));
    out.byte(static_cast<std::uint8_t>(~len >> 8));
    for (std::size_t k = 0; k < chunk; ++k) out.byte(input[pos + k]);
    pos += chunk;
  } while (pos < input.size());
}

struct DynamicHeader {
  std::vector<ClcSymbol> rle;
  std::vector<std::uint8_t> clc_lengths;   // 19 entries
  std::vector<std::uint32_t> clc_codes;
  int hlit;
  int hdist;
  int hclen;
  std::uint64_t cost_bits;
};

DynamicHeader build_dynamic_header(const std::vector<std::uint8_t>& litlen,
                                   const std::vector<std::uint8_t>& dist) {
  DynamicHeader h;
  // HLIT: number of litlen codes - 257 (at least 257 codes transmitted).
  int nlit = kNumLitLen;
  while (nlit > 257 && litlen[static_cast<std::size_t>(nlit - 1)] == 0) --nlit;
  int ndist = kNumDistCodes;
  while (ndist > 1 && dist[static_cast<std::size_t>(ndist - 1)] == 0) --ndist;
  h.hlit = nlit - 257;
  h.hdist = ndist - 1;

  std::vector<std::uint8_t> all(litlen.begin(), litlen.begin() + nlit);
  all.insert(all.end(), dist.begin(), dist.begin() + ndist);
  h.rle = rle_code_lengths(all);

  std::vector<std::uint64_t> clc_freq(19, 0);
  for (const ClcSymbol& s : h.rle) ++clc_freq[s.symbol];
  h.clc_lengths = build_code_lengths(clc_freq, 7);
  h.clc_codes = canonical_codes(h.clc_lengths);

  int nclc = 19;
  while (nclc > 4 && h.clc_lengths[kClcOrder[static_cast<std::size_t>(nclc - 1)]] == 0)
    --nclc;
  h.hclen = nclc - 4;

  h.cost_bits = 5 + 5 + 4 + static_cast<std::uint64_t>(nclc) * 3;
  for (const ClcSymbol& s : h.rle) {
    h.cost_bits += h.clc_lengths[s.symbol];
    if (s.symbol == 16) h.cost_bits += 2;
    if (s.symbol == 17) h.cost_bits += 3;
    if (s.symbol == 18) h.cost_bits += 7;
  }
  return h;
}

void write_dynamic_header(BitWriter& out, const DynamicHeader& h) {
  out.write(static_cast<std::uint32_t>(h.hlit), 5);
  out.write(static_cast<std::uint32_t>(h.hdist), 5);
  out.write(static_cast<std::uint32_t>(h.hclen), 4);
  for (int i = 0; i < h.hclen + 4; ++i) {
    out.write(h.clc_lengths[kClcOrder[static_cast<std::size_t>(i)]], 3);
  }
  for (const ClcSymbol& s : h.rle) {
    out.write(h.clc_codes[s.symbol], h.clc_lengths[s.symbol]);
    if (s.symbol == 16) out.write(s.extra, 2);
    if (s.symbol == 17) out.write(s.extra, 3);
    if (s.symbol == 18) out.write(s.extra, 7);
  }
}

/// The fixed-Huffman code set is constant; build it once.
const CodeSet& fixed_codes() {
  static const CodeSet cs = [] {
    CodeSet fixed;
    fixed.litlen_lengths.assign(kFixedLitLenLengths.begin(), kFixedLitLenLengths.end());
    fixed.litlen_codes = canonical_codes(fixed.litlen_lengths);
    fixed.dist_lengths.assign(kFixedDistCodes, kFixedDistLength);
    fixed.dist_codes = canonical_codes(fixed.dist_lengths);
    return fixed;
  }();
  return cs;
}

}  // namespace

struct DeflateScratch::Impl {
  MatchIndexScratch index;
  std::vector<Token> tokens;
  std::vector<std::uint64_t> lit_freq;
  std::vector<std::uint64_t> dist_freq;
};

DeflateScratch::DeflateScratch() : impl(std::make_unique<Impl>()) {}
DeflateScratch::~DeflateScratch() = default;
DeflateScratch::DeflateScratch(DeflateScratch&&) noexcept = default;
DeflateScratch& DeflateScratch::operator=(DeflateScratch&&) noexcept = default;

int deflate_clamp_level(int level) { return std::clamp(level, 0, 9); }

Bytes deflate_compress(BytesView input, const DeflateOptions& opts) {
  DeflateScratch scratch;
  Bytes out;
  deflate_compress_into(input, opts, out, scratch);
  return out;
}

void deflate_compress_into(BytesView input, const DeflateOptions& opts, Bytes& out,
                           DeflateScratch& scratch) {
  const int level = deflate_clamp_level(opts.level);
  BitWriter bits(std::move(out));

  if (level <= 0 || opts.block == DeflateOptions::Block::kStored) {
    if (input.empty()) {
      // A zero-length stored block is still a valid final block.
      bits.write(1, 1);
      bits.write(0, 2);
      bits.align_to_byte();
      bits.byte(0);
      bits.byte(0);
      bits.byte(0xFF);
      bits.byte(0xFF);
      out = bits.take();
      return;
    }
    write_stored(bits, input, true);
    out = bits.take();
    return;
  }

  const SearchParams params = params_for_level(level);
  std::vector<Token>& tokens = scratch.impl->tokens;
  Lz77(input, params, scratch.impl->index).tokenize(tokens);

  // Candidate 1: fixed Huffman.
  const CodeSet& fixed = fixed_codes();
  const std::uint64_t fixed_bits =
      3 + body_cost_bits(tokens, fixed.litlen_lengths, fixed.dist_lengths);

  // Candidate 2: dynamic Huffman.
  std::vector<std::uint64_t>& lit_freq = scratch.impl->lit_freq;
  std::vector<std::uint64_t>& dist_freq = scratch.impl->dist_freq;
  count_frequencies(tokens, lit_freq, dist_freq);
  CodeSet dyn;
  dyn.litlen_lengths = build_code_lengths(lit_freq, 15);
  dyn.dist_lengths = build_code_lengths(dist_freq, 15);
  // DEFLATE requires at least one distance code length slot even if unused.
  if (std::all_of(dyn.dist_lengths.begin(), dyn.dist_lengths.end(),
                  [](std::uint8_t l) { return l == 0; })) {
    dyn.dist_lengths[0] = 1;
  }
  dyn.litlen_codes = canonical_codes(dyn.litlen_lengths);
  dyn.dist_codes = canonical_codes(dyn.dist_lengths);
  const DynamicHeader header = build_dynamic_header(dyn.litlen_lengths, dyn.dist_lengths);
  const std::uint64_t dyn_bits =
      3 + header.cost_bits +
      body_cost_bits(tokens, dyn.litlen_lengths, dyn.dist_lengths);

  const std::uint64_t stored_bits = (input.size() + 5 * (input.size() / 65535 + 1)) * 8;

  auto choice = opts.block;
  if (choice == DeflateOptions::Block::kAuto) {
    if (stored_bits < fixed_bits && stored_bits < dyn_bits) {
      choice = DeflateOptions::Block::kStored;
    } else if (fixed_bits <= dyn_bits) {
      choice = DeflateOptions::Block::kFixed;
    } else {
      choice = DeflateOptions::Block::kDynamic;
    }
  }

  switch (choice) {
    case DeflateOptions::Block::kStored:
      write_stored(bits, input, true);
      break;
    case DeflateOptions::Block::kFixed:
      bits.write(1, 1);  // BFINAL
      bits.write(1, 2);  // BTYPE=01
      write_tokens(bits, tokens, fixed);
      break;
    case DeflateOptions::Block::kDynamic:
    case DeflateOptions::Block::kAuto:
      bits.write(1, 1);
      bits.write(2, 2);  // BTYPE=10
      write_dynamic_header(bits, header);
      write_tokens(bits, tokens, dyn);
      break;
  }
  out = bits.take();
}

}  // namespace ads
