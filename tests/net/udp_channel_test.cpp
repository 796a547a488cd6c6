#include "net/udp_channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace ads {
namespace {

Bytes payload(std::size_t n, std::uint8_t fill = 0xAB) { return Bytes(n, fill); }

TEST(UdpChannel, DeliversAfterPropagationDelay) {
  EventLoop loop;
  UdpChannelOptions opts;
  opts.delay_us = 5000;
  UdpChannel ch(loop, opts);
  SimTime arrived = 0;
  ch.set_receiver([&](Bytes) { arrived = loop.now(); });
  loop.at(1000, [&] { ch.send(payload(100)); });
  loop.run();
  EXPECT_EQ(arrived, 6000u);
}

TEST(UdpChannel, LosslessByDefault) {
  EventLoop loop;
  UdpChannelOptions opts;
  UdpChannel ch(loop, opts);
  int received = 0;
  ch.set_receiver([&](Bytes) { ++received; });
  for (int i = 0; i < 100; ++i) ch.send(payload(10));
  loop.run();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(ch.stats().lost, 0u);
}

TEST(UdpChannel, LossRateApproximatelyRespected) {
  EventLoop loop;
  UdpChannelOptions opts;
  opts.loss = 0.3;
  opts.seed = 9;
  UdpChannel ch(loop, opts);
  int received = 0;
  ch.set_receiver([&](Bytes) { ++received; });
  for (int i = 0; i < 2000; ++i) ch.send(payload(10));
  loop.run();
  EXPECT_NEAR(static_cast<double>(received) / 2000.0, 0.7, 0.05);
  EXPECT_EQ(ch.stats().lost + ch.stats().delivered, 2000u);
}

TEST(UdpChannel, DuplicationProducesExtraCopies) {
  EventLoop loop;
  UdpChannelOptions opts;
  opts.duplicate = 0.5;
  opts.seed = 11;
  UdpChannel ch(loop, opts);
  int received = 0;
  ch.set_receiver([&](Bytes) { ++received; });
  for (int i = 0; i < 1000; ++i) ch.send(payload(10));
  loop.run();
  EXPECT_GT(received, 1300);
  EXPECT_EQ(static_cast<std::uint64_t>(received),
            1000 + ch.stats().duplicated);
}

TEST(UdpChannel, JitterReordersPackets) {
  EventLoop loop;
  UdpChannelOptions opts;
  opts.delay_us = 1000;
  opts.jitter_us = 50000;
  opts.seed = 13;
  UdpChannel ch(loop, opts);
  std::vector<std::uint8_t> order;
  ch.set_receiver([&](Bytes d) { order.push_back(d[0]); });
  for (std::uint8_t i = 0; i < 50; ++i) ch.send(Bytes{i});
  loop.run();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST(UdpChannel, BandwidthSerialisesBackToBack) {
  EventLoop loop;
  UdpChannelOptions opts;
  opts.bandwidth_bps = 8000;  // 1000 bytes/sec
  opts.delay_us = 0;
  UdpChannel ch(loop, opts);
  std::vector<SimTime> arrivals;
  ch.set_receiver([&](Bytes) { arrivals.push_back(loop.now()); });
  ch.send(payload(500));  // 0.5 s serialisation
  ch.send(payload(500));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 500'000u);
  EXPECT_EQ(arrivals[1], 1'000'000u);
}

TEST(UdpChannel, QueueTailDropsWhenFull) {
  EventLoop loop;
  UdpChannelOptions opts;
  opts.bandwidth_bps = 8000;  // 1000 B/s
  opts.queue_bytes = 1500;
  UdpChannel ch(loop, opts);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) accepted += ch.send(payload(500)) ? 1 : 0;
  EXPECT_LT(accepted, 10);
  EXPECT_GT(ch.stats().queue_dropped, 0u);
  loop.run();
  EXPECT_EQ(ch.stats().delivered, static_cast<std::uint64_t>(accepted));
}

TEST(UdpChannel, StatsCountBytes) {
  EventLoop loop;
  UdpChannel ch(loop, {});
  ch.set_receiver([](Bytes) {});
  ch.send(payload(123));
  loop.run();
  EXPECT_EQ(ch.stats().bytes_delivered, 123u);
}

TEST(UdpChannel, SetLossStartsDeterministicEpisode) {
  // The seeding contract: episode N's draws depend only on (seed, N), not
  // on how much traffic earlier episodes carried. Two channels with the
  // same seed but different episode-0 volumes must agree byte-for-byte
  // once set_loss() starts episode 1.
  auto run = [](int warmup_sends) {
    EventLoop loop;
    UdpChannelOptions opts;
    opts.loss = 0.5;
    opts.seed = 21;
    opts.delay_us = 0;
    UdpChannel ch(loop, opts);
    std::vector<std::uint8_t> got;
    ch.set_receiver([&](Bytes d) { got.push_back(d[0]); });
    for (int i = 0; i < warmup_sends; ++i) ch.send(payload(10));
    loop.run();
    got.clear();

    ch.set_loss(0.3);  // episode 1
    for (std::uint8_t i = 0; i < 100; ++i) ch.send(Bytes{i});
    loop.run();
    return got;
  };
  const auto a = run(3);
  const auto b = run(250);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(UdpChannel, SetLossEpisodesDrawDistinctStreams) {
  // Same loss rate, consecutive episodes: the mixed per-episode seeds must
  // not replay the same loss pattern.
  auto episode = [](int calls) {
    EventLoop loop;
    UdpChannelOptions opts;
    opts.seed = 33;
    opts.delay_us = 0;
    UdpChannel ch(loop, opts);
    std::vector<std::uint8_t> got;
    ch.set_receiver([&](Bytes d) { got.push_back(d[0]); });
    for (int c = 0; c < calls; ++c) ch.set_loss(0.5);
    for (std::uint8_t i = 0; i < 100; ++i) ch.send(Bytes{i});
    loop.run();
    return got;
  };
  EXPECT_NE(episode(1), episode(2));
  EXPECT_EQ(episode(2), episode(2));
}

TEST(UdpChannel, ResetStatsZeroesWithoutTouchingLink) {
  EventLoop loop;
  UdpChannelOptions opts;
  opts.loss = 0.5;
  opts.seed = 9;
  UdpChannel ch(loop, opts);
  ch.set_receiver([](Bytes) {});
  for (int i = 0; i < 50; ++i) ch.send(payload(10));
  loop.run();
  EXPECT_GT(ch.stats().lost, 0u);

  ch.reset_stats();
  EXPECT_EQ(ch.stats().sent, 0u);
  EXPECT_EQ(ch.stats().delivered, 0u);
  EXPECT_EQ(ch.stats().lost, 0u);
  EXPECT_EQ(ch.stats().bytes_delivered, 0u);

  // The PRNG stream continues where it left off — resetting stats does not
  // replay or skip loss draws.
  ch.send(payload(10));
  loop.run();
  EXPECT_EQ(ch.stats().sent, 1u);
  EXPECT_EQ(ch.stats().delivered + ch.stats().lost, 1u);
}

TEST(UdpChannel, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    EventLoop loop;
    UdpChannelOptions opts;
    opts.loss = 0.5;
    opts.seed = seed;
    UdpChannel ch(loop, opts);
    std::vector<std::uint8_t> got;
    ch.set_receiver([&](Bytes d) { got.push_back(d[0]); });
    for (std::uint8_t i = 0; i < 100; ++i) ch.send(Bytes{i});
    loop.run();
    return got;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

PacketView view_pkt(buf::BufPool& pool, std::uint16_t seq, std::size_t size) {
  buf::BufRef b = pool.acquire(size);
  b.bytes().resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    b.bytes()[i] = static_cast<std::uint8_t>(seq + i);
  }
  return PacketView::build(seq % 2 == 0, 96, seq, 1000u + seq, 0xFEED,
                           std::move(b), 0, size);
}

TEST(UdpChannel, SendPacketMatchesSendOnSerialisedBytes) {
  // Differential: the header-plus-view entry point (send_batch) must be
  // observationally identical to send() on the serialised datagrams — same
  // loss draws, same drops, same delivery times and bytes — across loss,
  // duplication, bandwidth limiting and queue drops.
  UdpChannelOptions opts;
  opts.loss = 0.2;
  opts.duplicate = 0.1;
  opts.jitter_us = 3000;
  opts.bandwidth_bps = 400'000;
  opts.queue_bytes = 8 * 1024;
  opts.seed = 77;

  auto run = [&](bool as_views) {
    EventLoop loop;
    UdpChannel ch(loop, opts);
    buf::BufPool pool;
    std::vector<std::pair<SimTime, Bytes>> got;
    ch.set_receiver([&](Bytes d) { got.emplace_back(loop.now(), std::move(d)); });
    // Batches of 1..5 packets, as a turn or a repair would hand them over.
    for (std::uint16_t s = 0; s < 400;) {
      std::vector<PacketView> batch;
      for (std::size_t n = 1 + s % 5; n > 0 && s < 400; --n, ++s) {
        batch.push_back(view_pkt(pool, s, 100 + s % 700));
      }
      if (as_views) {
        ch.send_batch(batch);
      } else {
        for (const PacketView& v : batch) ch.send(v.serialize());
      }
    }
    loop.run();
    return std::make_tuple(std::move(got), ch.stats().sent, ch.stats().lost,
                           ch.stats().queue_dropped, ch.stats().duplicated,
                           ch.stats().delivered);
  };
  const auto views = run(true);
  const auto bytes = run(false);
  EXPECT_TRUE(views == bytes);
  EXPECT_GT(std::get<3>(views), 0u);  // queue drops actually exercised
  EXPECT_GT(std::get<2>(views), 0u);  // loss exercised
}

TEST(UdpChannel, SendBatchMatchesSequentialSendPacket) {
  // One 200-packet batch against 200 batches of one.
  UdpChannelOptions opts;
  opts.loss = 0.1;
  opts.bandwidth_bps = 300'000;
  opts.queue_bytes = 4 * 1024;
  opts.seed = 31;

  auto run = [&](bool batched) {
    EventLoop loop;
    UdpChannel ch(loop, opts);
    buf::BufPool pool;
    std::vector<Bytes> got;
    ch.set_receiver([&](Bytes d) { got.push_back(std::move(d)); });
    std::size_t accepted = 0;
    std::vector<PacketView> batch;
    for (std::uint16_t s = 0; s < 200; ++s) {
      batch.push_back(view_pkt(pool, s, 200));
    }
    if (batched) {
      accepted = ch.send_batch(batch);
    } else {
      for (const PacketView& v : batch) {
        accepted += ch.send_batch(std::span<const PacketView>(&v, 1));
      }
    }
    loop.run();
    return std::make_pair(std::move(got), accepted);
  };
  const auto batched = run(true);
  const auto sequential = run(false);
  EXPECT_TRUE(batched == sequential);
  EXPECT_LT(batched.second, 200u);  // some tail drops: batch kept going
  EXPECT_GT(batched.second, 0u);
}

TEST(UdpChannel, LostViewPacketIsNeverMaterialised) {
  // loss=1: every packet is admitted then lost; the view path must not have
  // touched the payload buffer (refcount proves no hidden copies either).
  EventLoop loop;
  UdpChannelOptions opts;
  opts.loss = 1.0;
  UdpChannel ch(loop, opts);
  buf::BufPool pool;
  int received = 0;
  ch.set_receiver([&](Bytes) { ++received; });
  const PacketView v = view_pkt(pool, 1, 500);
  EXPECT_EQ(ch.send_batch(std::span<const PacketView>(&v, 1)), 1u);
  loop.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ch.stats().lost, 1u);
}

}  // namespace
}  // namespace ads
