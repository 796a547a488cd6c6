// Differential test for the MulticastGroup view fan-out: replicating a
// batch of PacketViews to the whole group (send_batch) must deliver the
// exact bytes, to the exact members, at the exact times that send() of each
// serialised datagram would — loss, delay and queue draws are per member
// channel and must not be disturbed by which entry point the AH used.
#include <gtest/gtest.h>

#include <vector>

#include "buf/buf.hpp"
#include "net/multicast.hpp"
#include "rtp/packet_view.hpp"

namespace ads {
namespace {

constexpr std::size_t kMembers = 4;
constexpr int kPackets = 200;

PacketView make_view(buf::BufPool& pool, std::uint16_t seq,
                     std::size_t payload_len) {
  buf::BufRef buf = pool.acquire(payload_len);
  buf.bytes().assign(payload_len, static_cast<std::uint8_t>(seq & 0xFF));
  return PacketView::build((seq % 7) == 0, 99, seq, 90u * seq, 0xFACE,
                           std::move(buf), 0, payload_len);
}

UdpChannelOptions member_opts(std::size_t i) {
  UdpChannelOptions opts;
  opts.seed = 0x5EED + i;
  opts.loss = 0.15;          // per-member loss draws
  opts.delay_us = 5'000 * (i + 1);
  opts.jitter_us = 2'000;    // reordering
  opts.duplicate = 0.05;
  opts.bandwidth_bps = 2'000'000;  // serialisation delay matters
  return opts;
}

struct Deliveries {
  std::vector<std::vector<Bytes>> per_member =
      std::vector<std::vector<Bytes>>(kMembers);
  std::vector<std::vector<SimTime>> times =
      std::vector<std::vector<SimTime>>(kMembers);
};

/// Run one arm: identical channels, identical traffic, different entry
/// point (views vs pre-serialised datagrams).
Deliveries run_arm(bool via_views) {
  EventLoop loop;
  MulticastGroup group(loop);
  Deliveries out;
  for (std::size_t i = 0; i < kMembers; ++i) {
    UdpChannel& ch = group.add_member(member_opts(i));
    ch.set_receiver([&out, &loop, i](Bytes data) {
      out.per_member[i].push_back(std::move(data));
      out.times[i].push_back(loop.now());
    });
  }

  buf::BufPool pool;
  for (int p = 0; p < kPackets;) {
    // One to three packets per 1 ms step: a batch of one is a repair, a
    // longer one a turn's media.
    std::vector<PacketView> batch;
    for (int n = 1 + p % 3; n > 0 && p < kPackets; --n, ++p) {
      batch.push_back(
          make_view(pool, static_cast<std::uint16_t>(p), 100 + (p % 400)));
    }
    if (via_views) {
      group.send_batch(batch);
    } else {
      for (const PacketView& v : batch) group.send(v.serialize());
    }
    loop.run_until(loop.now() + 1'000);  // 1 ms spacing
  }
  loop.run_until(loop.now() + sim_ms(200));  // drain in-flight deliveries
  return out;
}

TEST(MulticastViewFanout, ViewPathMatchesDatagramPathPerMember) {
  const Deliveries views = run_arm(true);
  const Deliveries datagrams = run_arm(false);

  for (std::size_t i = 0; i < kMembers; ++i) {
    // Loss must have bitten (differentially interesting traffic)…
    EXPECT_LT(views.per_member[i].size(), static_cast<std::size_t>(kPackets));
    // …but both arms saw identical per-member delivery sequences.
    ASSERT_EQ(views.per_member[i].size(), datagrams.per_member[i].size())
        << "member " << i << " delivery count diverged";
    EXPECT_TRUE(views.per_member[i] == datagrams.per_member[i])
        << "member " << i << " delivered bytes diverged";
    EXPECT_TRUE(views.times[i] == datagrams.times[i])
        << "member " << i << " delivery times diverged";
    ASSERT_FALSE(views.per_member[i].empty());
  }

  // Members draw independently: at least two members must disagree about
  // which packets survived (otherwise the per-member channels collapsed
  // into one shared draw and the test proves nothing).
  bool any_difference = false;
  for (std::size_t i = 1; i < kMembers && !any_difference; ++i) {
    any_difference = views.per_member[i] != views.per_member[0];
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace ads
