#include "rtp/retransmission_cache.hpp"

#include <gtest/gtest.h>

#include "buf/buf.hpp"

namespace ads {
namespace {

buf::BufPool& pool() {
  static buf::BufPool p(128);
  return p;
}

PacketView pkt(std::uint16_t seq, std::uint8_t value) {
  buf::BufRef b = pool().acquire(1);
  b.bytes() = {value};
  return PacketView::build(/*marker=*/false, /*payload_type=*/96, seq,
                           /*timestamp=*/0, /*ssrc=*/0x1234, std::move(b),
                           /*offset=*/0, /*length=*/1);
}

PacketView pkt(std::uint16_t seq) {
  return pkt(seq, static_cast<std::uint8_t>(seq));
}

TEST(RetransmissionCache, StoresAndRetrieves) {
  RetransmissionCache cache(10);
  cache.put(pkt(1));
  cache.put(pkt(2));
  const PacketView* got = cache.get(1);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->payload().size(), 1u);
  EXPECT_EQ(got->payload()[0], 1u);
}

TEST(RetransmissionCache, MissReturnsNull) {
  RetransmissionCache cache(10);
  cache.put(pkt(1));
  EXPECT_EQ(cache.get(99), nullptr);
  EXPECT_NE(cache.get(1), nullptr);  // a miss changes nothing
}

TEST(RetransmissionCache, EvictsOldestBeyondCapacity) {
  RetransmissionCache cache(3);
  for (std::uint16_t s = 0; s < 5; ++s) cache.put(pkt(s));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.get(0), nullptr);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_NE(cache.get(2), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
}

TEST(RetransmissionCache, ReinsertSameSequenceUpdates) {
  RetransmissionCache cache(4);
  cache.put(pkt(7));
  cache.put(pkt(7, 42));
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(cache.get(7), nullptr);
  EXPECT_EQ(cache.get(7)->payload()[0], 42u);
}

TEST(RetransmissionCache, ZeroCapacityStoresNothing) {
  RetransmissionCache cache(0);
  EXPECT_EQ(cache.put(pkt(1)), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(1), nullptr);
}

TEST(RetransmissionCache, SequenceWrapKeysDistinct) {
  RetransmissionCache cache(10);
  cache.put(pkt(65535));
  cache.put(pkt(0));
  EXPECT_NE(cache.get(65535), nullptr);
  EXPECT_NE(cache.get(0), nullptr);
}

TEST(RetransmissionCache, CountsEvictions) {
  RetransmissionCache cache(3);
  std::size_t evicted = 0;
  for (std::uint16_t s = 0; s < 3; ++s) evicted += cache.put(pkt(s));
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(cache.put(pkt(3)), 1u);
  EXPECT_EQ(cache.put(pkt(4)), 1u);
  // Re-inserting an existing sequence replaces in place — no eviction.
  EXPECT_EQ(cache.put(pkt(4)), 0u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(RetransmissionCache, SharesPayloadBufferWithCaller) {
  // Caching a packet must not copy the payload: the cached view shares the
  // caller's buffer, and eviction releases the reference.
  buf::BufRef b = pool().acquire(4);
  b.bytes() = {1, 2, 3, 4};
  PacketView v = PacketView::build(true, 96, 100, 0, 1, b, 0, 4);
  EXPECT_EQ(b.refcount(), 2u);  // b + v

  RetransmissionCache cache(2);
  cache.put(v);
  EXPECT_EQ(b.refcount(), 3u);  // b + v + cached copy
  ASSERT_NE(cache.get(100), nullptr);
  EXPECT_EQ(cache.get(100)->payload().data(), b.view().data());

  cache.put(pkt(101));
  cache.put(pkt(102));  // evicts seq 100
  EXPECT_EQ(cache.get(100), nullptr);
  EXPECT_EQ(b.refcount(), 2u);
}

TEST(RetransmissionCache, EvictionOrderSurvivesSequenceWrap) {
  // Insertion order, not numeric order, drives eviction: streaming across
  // the 16-bit wrap must evict 65534, 65535 (the oldest), never the
  // numerically-small post-wrap sequences.
  RetransmissionCache cache(8);
  std::uint16_t seq = 65534;
  std::size_t evicted = 0;
  for (int i = 0; i < 10; ++i) evicted += cache.put(pkt(seq++));  // 65534..65535,0..7
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(cache.get(65534), nullptr);
  EXPECT_EQ(cache.get(65535), nullptr);
  for (std::uint16_t s = 0; s < 8; ++s) {
    EXPECT_NE(cache.get(s), nullptr) << "seq " << s;
  }
}

TEST(RetransmissionCache, LongWrappingStreamRetainsExactlyNewest) {
  // 70'000 packets walk the full sequence space and wrap: the cache must
  // end up holding exactly the last `capacity` sequences sent.
  constexpr std::size_t kCapacity = 64;
  RetransmissionCache cache(kCapacity);
  std::uint16_t seq = 0;
  std::size_t evicted = 0;
  for (int i = 0; i < 70'000; ++i) evicted += cache.put(pkt(seq++));
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_EQ(evicted, 70'000u - kCapacity);
  const std::uint16_t last = static_cast<std::uint16_t>(69'999);
  for (std::size_t back = 0; back < kCapacity; ++back) {
    const std::uint16_t s = static_cast<std::uint16_t>(last - back);
    EXPECT_NE(cache.get(s), nullptr) << "seq " << s;
  }
  // The one evicted just before the retained window is gone.
  EXPECT_EQ(cache.get(static_cast<std::uint16_t>(last - kCapacity)), nullptr);
}

}  // namespace
}  // namespace ads
