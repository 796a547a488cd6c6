// Egress: one peer's send path. UDP packets queue until flush() and leave in
// one batch call; TCP packets are RFC 4571 framed behind the carry of
// earlier partial writes, so frames are never torn and control packets
// never land inside a media frame.
#include "net/egress.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "buf/buf.hpp"
#include "rtp/framing.hpp"

namespace ads {
namespace {

/// A media packet whose payload is `length` patterned bytes.
PacketView media(buf::BufPool& pool, std::uint16_t seq, std::size_t length) {
  buf::BufRef ref = pool.acquire(length);
  for (std::size_t i = 0; i < length; ++i) {
    ref.bytes().push_back(static_cast<std::uint8_t>(i * 7 + seq));
  }
  return PacketView::build(false, 99, seq, 1000, 0xABCD, std::move(ref), 0, length);
}

/// Every frame of a stream, in order; fails on a trailing partial frame.
std::vector<Bytes> deframe(const Bytes& wire) {
  StreamDeframer d;
  d.feed(wire);
  std::vector<Bytes> frames;
  while (auto f = d.next()) frames.push_back(std::move(*f));
  EXPECT_EQ(d.pending_bytes(), 0u);
  return frames;
}

/// A scripted TCP peer: accepts at most `budget` bytes per write and keeps
/// what it accepted, in order.
struct StreamProbe {
  std::size_t budget = SIZE_MAX;
  Bytes wire;
  std::size_t writes = 0;

  std::size_t take(BytesView d) {
    ++writes;
    const std::size_t n = std::min(budget, d.size());
    wire.insert(wire.end(), d.begin(), d.begin() + static_cast<std::ptrdiff_t>(n));
    budget -= n;
    return n;
  }
  Endpoint gather() {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kTcp;
    ep.write_gather = [this](std::span<const BytesView> parts) {
      Bytes joined;
      for (const BytesView& p : parts) joined.insert(joined.end(), p.begin(), p.end());
      return take(joined);
    };
    return ep;
  }
};

TEST(Egress, UdpMediaLeavesInOneBatchPerTurn) {
  buf::BufPool pool;
  const std::vector<PacketView> pkts{media(pool, 1, 40), media(pool, 2, 50)};
  std::vector<std::vector<Bytes>> batches;
  std::vector<Bytes> datagrams;
  Endpoint ep;
  ep.send_packet_batch = [&](std::span<const PacketView> b) {
    std::vector<Bytes> wire;
    for (const PacketView& v : b) wire.push_back(v.serialize());
    batches.push_back(std::move(wire));
    return b.size();
  };
  ep.send_datagram = [&](BytesView d) {
    datagrams.emplace_back(d.begin(), d.end());
    return true;
  };
  Egress egress(std::move(ep));

  for (const PacketView& v : pkts) EXPECT_EQ(egress.send(v), 0u);
  EXPECT_TRUE(batches.empty());  // queued until the turn ends
  egress.flush();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], (std::vector<Bytes>{pkts[0].serialize(), pkts[1].serialize()}));
  egress.flush();  // the queue drained: an empty turn sends nothing
  EXPECT_EQ(batches.size(), 1u);

  // A retransmission leaves at once, as a batch of one.
  EXPECT_EQ(egress.send_now(pkts[1]), 0u);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1], std::vector<Bytes>{pkts[1].serialize()});

  // Control leaves as one datagram, now; media never does.
  const Bytes control{0x80, 0xC8, 0x00, 0x06, 1, 2, 3, 4};
  EXPECT_EQ(egress.send_control(control), 0u);
  EXPECT_EQ(datagrams, std::vector<Bytes>{control});
  EXPECT_EQ(batches.size(), 2u);
}

TEST(Egress, PartialGatherReStagesOnlyTheUnacceptedSuffix) {
  buf::BufPool pool;
  const PacketView p1 = media(pool, 1, 100);
  const PacketView p2 = media(pool, 2, 60);
  StreamProbe peer;
  Egress egress(peer.gather());

  peer.budget = 5;
  EXPECT_EQ(egress.send(p1), p1.framed_size() - 5);
  EXPECT_EQ(egress.carry_bytes(), p1.framed_size() - 5);

  peer.budget = SIZE_MAX;
  EXPECT_EQ(egress.send(p2), 0u);  // carry + p2 went in one offer
  EXPECT_EQ(egress.carry_bytes(), 0u);
  EXPECT_EQ(peer.writes, 2u);
  EXPECT_EQ(deframe(peer.wire), (std::vector<Bytes>{p1.serialize(), p2.serialize()}));
}

TEST(Egress, ControlQueuesBehindTheCarryNeverInsideIt) {
  buf::BufPool pool;
  const PacketView p1 = media(pool, 1, 100);
  const Bytes control{0x80, 0xC8, 0x00, 0x06, 1, 2, 3, 4};
  StreamProbe peer;
  Egress egress(peer.gather());
  peer.budget = 40;  // p1 is torn mid-frame
  egress.send(p1);
  ASSERT_GT(egress.carry_bytes(), 0u);

  peer.budget = 7;  // the control write is torn too
  egress.send_control(control);
  EXPECT_EQ(egress.carry_bytes(), p1.framed_size() + 2 + control.size() - 40 - 7);

  peer.budget = SIZE_MAX;
  egress.drain_carry();
  EXPECT_EQ(egress.carry_bytes(), 0u);
  EXPECT_EQ(deframe(peer.wire), (std::vector<Bytes>{p1.serialize(), control}));
}

TEST(Egress, DropsPacketsTooLongForTheLengthPrefix) {
  buf::BufPool pool;
  StreamProbe peer;
  Egress egress(peer.gather());

  const PacketView too_long = media(pool, 1, 0x10000 - PacketView::kHeaderSize);
  EXPECT_EQ(egress.send(too_long), 0u);
  EXPECT_EQ(egress.send_control(Bytes(0x10000, 0xAA)), 0u);
  EXPECT_EQ(peer.writes, 0u);
  EXPECT_EQ(egress.carry_bytes(), 0u);

  // The largest frameable packet still goes out.
  const PacketView largest = media(pool, 2, 0xFFFF - PacketView::kHeaderSize);
  egress.send(largest);
  EXPECT_EQ(deframe(peer.wire), std::vector<Bytes>{largest.serialize()});
}

TEST(Egress, BacklogIsEndpointBacklogPlusCarry) {
  buf::BufPool pool;
  const PacketView p1 = media(pool, 1, 100);
  StreamProbe peer;
  Endpoint ep = peer.gather();
  ep.backlog = [] { return std::size_t{1000}; };
  Egress egress(std::move(ep));
  EXPECT_EQ(egress.backlog(), 1000u);

  peer.budget = 3;
  egress.send(p1);
  EXPECT_EQ(egress.carry_bytes(), p1.framed_size() - 3);
  EXPECT_EQ(egress.backlog(), 1000u + egress.carry_bytes());

  // Without a backlog callback the carry is the whole backlog.
  StreamProbe bare;
  Egress carry_only(bare.gather());
  bare.budget = 3;
  carry_only.send(p1);
  EXPECT_EQ(carry_only.backlog(), carry_only.carry_bytes());

  // clear() discards the carry of a stream that is gone.
  egress.clear();
  EXPECT_EQ(egress.backlog(), 1000u);
}

}  // namespace
}  // namespace ads
