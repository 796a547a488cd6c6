#include "codec/huffman.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace ads {
namespace {

struct Node {
  std::uint64_t freq;
  int index;  ///< symbol for leaves, node id for internal
  int left = -1;
  int right = -1;
};

/// One Huffman construction pass; returns max depth, fills `lengths`.
int huffman_pass(const std::vector<std::uint64_t>& freqs,
                 std::vector<std::uint8_t>& lengths) {
  const int n = static_cast<int>(freqs.size());
  lengths.assign(static_cast<std::size_t>(n), 0);

  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(2 * n));
  using Entry = std::pair<std::uint64_t, int>;  // (freq, node id); id breaks ties
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < n; ++i) {
    if (freqs[static_cast<std::size_t>(i)] == 0) continue;
    nodes.push_back({freqs[static_cast<std::size_t>(i)], i});
    heap.emplace(nodes.back().freq, static_cast<int>(nodes.size()) - 1);
  }
  if (heap.empty()) return 0;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(nodes[0].index)] = 1;
    return 1;
  }
  while (heap.size() > 1) {
    auto [fa, a] = heap.top();
    heap.pop();
    auto [fb, b] = heap.top();
    heap.pop();
    nodes.push_back({fa + fb, -1, a, b});
    heap.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }
  // Depth-first assignment of depths.
  struct Frame {
    int node;
    int depth;
  };
  std::vector<Frame> stack{{heap.top().second, 0}};
  int max_depth = 0;
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes[static_cast<std::size_t>(id)];
    if (node.left < 0) {
      lengths[static_cast<std::size_t>(node.index)] = static_cast<std::uint8_t>(depth);
      max_depth = std::max(max_depth, depth);
    } else {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
  return max_depth;
}

}  // namespace

std::vector<std::uint8_t> build_code_lengths(const std::vector<std::uint64_t>& freqs,
                                             int max_bits) {
  std::vector<std::uint64_t> f = freqs;
  std::vector<std::uint8_t> lengths;
  // Flattening the frequency distribution shortens the deepest paths; a few
  // halvings always converge because equal frequencies give a balanced tree.
  for (;;) {
    const int depth = huffman_pass(f, lengths);
    if (depth <= max_bits) break;
    for (auto& v : f) {
      if (v > 0) v = v / 2 + 1;
    }
  }
  return lengths;
}

std::vector<std::uint32_t> canonical_codes(const std::vector<std::uint8_t>& lengths) {
  int max_len = 0;
  for (std::uint8_t l : lengths) max_len = std::max(max_len, static_cast<int>(l));
  std::vector<std::uint32_t> bl_count(static_cast<std::size_t>(max_len) + 1, 0);
  for (std::uint8_t l : lengths) {
    if (l) ++bl_count[l];
  }
  std::vector<std::uint32_t> next_code(static_cast<std::size_t>(max_len) + 1, 0);
  std::uint32_t code = 0;
  for (int bits = 1; bits <= max_len; ++bits) {
    code = (code + bl_count[static_cast<std::size_t>(bits) - 1]) << 1;
    next_code[static_cast<std::size_t>(bits)] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (lengths[i] == 0) continue;
    codes[i] = reverse_bits(next_code[lengths[i]]++, lengths[i]);
  }
  return codes;
}

ParseStatus HuffmanDecoder::init(const std::vector<std::uint8_t>& lengths) {
  std::fill(std::begin(counts_), std::end(counts_), 0);
  sorted_symbols_.clear();
  table_.fill(0);
  // Any early return below must leave the decoder inert: decode() checks
  // initialised() before touching the tables, and lookup() finds only 0.

  for (std::uint8_t l : lengths) {
    if (l > kMaxBits) {
      std::fill(std::begin(counts_), std::end(counts_), 0);
      return ParseError::kBadValue;
    }
    if (l) ++counts_[l];
  }

  // Over-subscription check (Kraft inequality).
  std::uint32_t left = 1;
  for (int len = 1; len <= kMaxBits; ++len) {
    left <<= 1;
    if (counts_[len] > left) {
      std::fill(std::begin(counts_), std::end(counts_), 0);
      return ParseError::kBadValue;
    }
    left -= counts_[len];
  }

  std::uint16_t offset = 0;
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxBits; ++len) {
    offsets_[len] = offset;
    code = (code + counts_[len - 1]) << 1;
    first_code_[len] = code;
    offset = static_cast<std::uint16_t>(offset + counts_[len]);
  }

  sorted_symbols_.resize(offset);
  std::uint16_t fill[kMaxBits + 1];
  std::copy(std::begin(offsets_), std::end(offsets_), fill);
  for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
    if (lengths[sym]) sorted_symbols_[fill[lengths[sym]]++] = static_cast<std::uint16_t>(sym);
  }
  if (sorted_symbols_.empty()) return ParseError::kBadValue;

  // Every table slot whose low `len` bits are a short code's (bit-reversed)
  // pattern decodes to it; the slots' upper bits are the following input.
  const std::vector<std::uint32_t> codes = canonical_codes(lengths);
  for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
    const int len = lengths[sym];
    if (len == 0 || len > kTableBits) continue;
    const auto entry = static_cast<std::uint16_t>(sym << 4 | static_cast<std::size_t>(len));
    for (std::uint32_t slot = codes[sym]; slot < table_.size(); slot += 1u << len) {
      table_[slot] = entry;
    }
  }
  return {};
}

Result<int> HuffmanDecoder::decode_long(BitReader& in) const {
  const std::uint32_t bits = in.peek(kMaxBits);
  const std::size_t avail = in.bits_remaining();
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxBits; ++len) {
    if (avail < static_cast<std::size_t>(len)) return ParseError::kTruncated;
    code = (code << 1) | ((bits >> (len - 1)) & 1);
    if (code >= first_code_[len] && code - first_code_[len] < counts_[len]) {
      in.consume(len);
      return static_cast<int>(sorted_symbols_[offsets_[len] + (code - first_code_[len])]);
    }
  }
  return ParseError::kBadValue;
}

}  // namespace ads
