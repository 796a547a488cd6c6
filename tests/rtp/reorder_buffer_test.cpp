#include "rtp/reorder_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/prng.hpp"

namespace ads {
namespace {

RtpPacket pkt(std::uint16_t seq) {
  RtpPacket p;
  p.sequence = seq;
  p.payload = {static_cast<std::uint8_t>(seq), static_cast<std::uint8_t>(seq >> 8)};
  return p;
}

std::vector<std::uint16_t> seqs(const std::vector<RtpPacket>& packets) {
  std::vector<std::uint16_t> out;
  for (const auto& p : packets) out.push_back(p.sequence);
  return out;
}

TEST(ReorderBuffer, InOrderPassThrough) {
  ReorderBuffer buf;
  EXPECT_EQ(seqs(buf.push(pkt(10))), (std::vector<std::uint16_t>{10}));
  EXPECT_EQ(seqs(buf.push(pkt(11))), (std::vector<std::uint16_t>{11}));
  EXPECT_EQ(buf.buffered(), 0u);
}

TEST(ReorderBuffer, HoldsUntilGapFilled) {
  ReorderBuffer buf;
  buf.push(pkt(1));
  EXPECT_TRUE(buf.push(pkt(3)).empty());
  EXPECT_EQ(buf.buffered(), 1u);
  EXPECT_EQ(seqs(buf.push(pkt(2))), (std::vector<std::uint16_t>{2, 3}));
}

TEST(ReorderBuffer, LatePacketDropped) {
  ReorderBuffer buf;
  buf.push(pkt(5));
  buf.push(pkt(6));
  EXPECT_TRUE(buf.push(pkt(5)).empty());  // duplicate of delivered
  EXPECT_EQ(buf.dropped_late(), 1u);
}

TEST(ReorderBuffer, DuplicateHeldPacketDropped) {
  ReorderBuffer buf;
  buf.push(pkt(1));
  buf.push(pkt(3));
  buf.push(pkt(3));
  EXPECT_EQ(buf.dropped_late(), 1u);
}

TEST(ReorderBuffer, SkipGapAbandonsMissing) {
  ReorderBuffer buf;
  buf.push(pkt(1));
  buf.push(pkt(3));
  buf.push(pkt(4));
  auto flushed = buf.flush_all();
  EXPECT_EQ(seqs(flushed), (std::vector<std::uint16_t>{3, 4}));
  EXPECT_EQ(buf.buffered(), 0u);
  // Cursor advanced past the gap.
  EXPECT_EQ(seqs(buf.push(pkt(5))), (std::vector<std::uint16_t>{5}));
}

TEST(ReorderBuffer, ExpectedSequenceTracksCursor) {
  ReorderBuffer buf;
  EXPECT_FALSE(buf.expected_sequence().has_value());
  buf.push(pkt(100));
  EXPECT_EQ(buf.expected_sequence(), 101);
}

TEST(ReorderBuffer, WrapAroundDelivery) {
  ReorderBuffer buf;
  buf.push(pkt(65534));
  EXPECT_TRUE(buf.push(pkt(0)).empty());  // 65535 missing
  auto out = buf.push(pkt(65535));
  EXPECT_EQ(seqs(out), (std::vector<std::uint16_t>{65535, 0}));
}

TEST(ReorderBuffer, RandomPermutationDeliversInOrder) {
  Prng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    ReorderBuffer buf;
    // A shuffled window of 300 packets starting near wrap.
    std::vector<std::uint16_t> order;
    const std::uint16_t base = 65400;
    for (int i = 0; i < 300; ++i) order.push_back(static_cast<std::uint16_t>(base + i));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    std::vector<std::uint16_t> delivered;
    for (std::uint16_t s : order) {
      for (auto& p : buf.push(pkt(s))) delivered.push_back(p.sequence);
    }
    // Everything from the first *delivered cursor* onward arrives in order.
    for (std::size_t i = 1; i < delivered.size(); ++i) {
      EXPECT_EQ(static_cast<std::uint16_t>(delivered[i] - delivered[i - 1]), 1u);
    }
    // No gap is given up: whatever is not behind the first cursor arrives.
    EXPECT_EQ(delivered.size() + buf.dropped_late(), order.size());
    EXPECT_EQ(buf.buffered(), 0u);
  }
}

}  // namespace
}  // namespace ads
