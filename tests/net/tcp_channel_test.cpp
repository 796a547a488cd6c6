#include "net/tcp_channel.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "telemetry/telemetry.hpp"

namespace ads {
namespace {

TEST(TcpChannel, DeliversInOrderAndIntact) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 1'000'000;
  opts.delay_us = 1000;
  TcpChannel ch(loop, opts);
  Bytes received;
  ch.set_receiver([&](Bytes d) { received.insert(received.end(), d.begin(), d.end()); });
  ch.send(Bytes{1, 2, 3});
  ch.send(Bytes{4, 5});
  loop.run();
  EXPECT_EQ(received, (Bytes{1, 2, 3, 4, 5}));
}

TEST(TcpChannel, SerialisationDelayMatchesBandwidth) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;  // 1000 B/s
  opts.delay_us = 10'000;
  TcpChannel ch(loop, opts);
  SimTime arrival = 0;
  ch.set_receiver([&](Bytes) { arrival = loop.now(); });
  ch.send(Bytes(1000, 0));  // 1 second to serialise
  loop.run();
  EXPECT_EQ(arrival, 1'000'000u + 10'000u);
}

TEST(TcpChannel, PartialWriteWhenBufferFull) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;
  opts.send_buffer_bytes = 1000;
  TcpChannel ch(loop, opts);
  ch.set_receiver([](Bytes) {});
  const std::size_t first = ch.send(Bytes(800, 1));
  EXPECT_EQ(first, 800u);
  const std::size_t second = ch.send(Bytes(800, 2));
  EXPECT_LT(second, 800u);
  EXPECT_EQ(ch.stats().partial_writes, 1u);
}

TEST(TcpChannel, BacklogDrainsOverTime) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;  // 1000 B/s
  opts.send_buffer_bytes = 10'000;
  TcpChannel ch(loop, opts);
  ch.set_receiver([](Bytes) {});
  ch.send(Bytes(1000, 0));
  EXPECT_GT(ch.backlog_bytes(), 900u);
  loop.run_until(500'000);  // half the serialisation time
  EXPECT_NEAR(static_cast<double>(ch.backlog_bytes()), 500.0, 20.0);
  loop.run_until(2'000'000);
  EXPECT_EQ(ch.backlog_bytes(), 0u);
}

TEST(TcpChannel, ZeroBacklogMeansWritable) {
  EventLoop loop;
  TcpChannel ch(loop, {});
  EXPECT_EQ(ch.backlog_bytes(), 0u);
  EXPECT_EQ(ch.free_space(), TcpChannelOptions{}.send_buffer_bytes);
}

TEST(TcpChannel, ZeroBandwidthIsUnlimited) {
  // 0 bit/s means unlimited, as on UdpChannel: a write serialises at once
  // and adds no backlog.
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 0;
  opts.delay_us = 1000;
  opts.send_buffer_bytes = 1000;
  TcpChannel ch(loop, opts);
  std::size_t received = 0;
  SimTime arrival = 0;
  ch.set_receiver([&](Bytes d) {
    received += d.size();
    arrival = loop.now();
  });
  EXPECT_EQ(ch.send(Bytes(100, 1)), 100u);
  EXPECT_EQ(ch.backlog_bytes(), 0u);
  EXPECT_EQ(ch.send(Bytes(1000, 2)), 1000u);  // the whole buffer is free
  loop.run();
  EXPECT_EQ(received, 1100u);
  EXPECT_EQ(arrival, 1000u);  // propagation delay only

  // A limited link turns unlimited mid-run: its backlog is gone, and later
  // writes still arrive after the bytes it was clocking out.
  opts.bandwidth_bps = 8000;  // 1000 B/s
  TcpChannel slow(loop, opts);
  Bytes order;
  slow.set_receiver([&](Bytes d) { order.push_back(d.front()); });
  slow.send(Bytes(500, 1));  // half a second to serialise
  EXPECT_GT(slow.backlog_bytes(), 400u);
  slow.set_bandwidth(0);
  EXPECT_EQ(slow.backlog_bytes(), 0u);
  EXPECT_EQ(slow.send(Bytes(1000, 2)), 1000u);
  EXPECT_EQ(slow.backlog_bytes(), 0u);
  loop.run();
  EXPECT_EQ(order, (Bytes{1, 2}));
  EXPECT_EQ(slow.stats().bytes_delivered, 1500u);
}

TEST(TcpChannel, ByteAccounting) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.send_buffer_bytes = 100;
  TcpChannel ch(loop, opts);
  std::size_t delivered = 0;
  ch.set_receiver([&](Bytes d) { delivered += d.size(); });
  ch.send(Bytes(60, 0));
  ch.send(Bytes(60, 0));  // only 40 fit
  loop.run();
  EXPECT_EQ(ch.stats().bytes_offered, 120u);
  EXPECT_EQ(ch.stats().bytes_accepted, 100u);
  EXPECT_EQ(delivered, 100u);
}

TEST(TcpChannel, ManySmallWritesAllArrive) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 10'000'000;
  TcpChannel ch(loop, opts);
  std::size_t total = 0;
  ch.set_receiver([&](Bytes d) { total += d.size(); });
  std::size_t sent = 0;
  for (int i = 0; i < 500; ++i) {
    sent += ch.send(Bytes(37, static_cast<std::uint8_t>(i)));
    loop.run_until(loop.now() + 1000);
  }
  loop.run();
  EXPECT_EQ(total, sent);
  EXPECT_EQ(sent, 500u * 37u);
}

TEST(TcpChannel, StallAcceptsNothingButDrainsAcceptedData) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;  // 1000 B/s
  TcpChannel ch(loop, opts);
  std::size_t delivered = 0;
  ch.set_receiver([&](Bytes d) { delivered += d.size(); });
  EXPECT_EQ(ch.send(Bytes(500, 1)), 500u);
  ch.set_stalled(true);
  EXPECT_EQ(ch.send(Bytes(100, 2)), 0u);  // zero-window: nothing accepted
  EXPECT_GT(ch.stats().partial_writes, 0u);
  loop.run();
  EXPECT_EQ(delivered, 500u);  // pre-stall data still clocked out
  ch.set_stalled(false);
  EXPECT_EQ(ch.send(Bytes(100, 3)), 100u);
  loop.run();
  EXPECT_EQ(delivered, 600u);
}

TEST(TcpChannel, DropLosesInFlightAndRefusesLaterSends) {
  EventLoop loop;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;
  opts.delay_us = 50'000;
  TcpChannel ch(loop, opts);
  std::size_t delivered = 0;
  ch.set_receiver([&](Bytes d) { delivered += d.size(); });
  ch.send(Bytes(1000, 1));          // needs 1 s to serialise
  loop.at(100'000, [&] { ch.drop(); });
  loop.run();
  EXPECT_TRUE(ch.down());
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(ch.stats().bytes_lost_on_drop, 1000u);
  EXPECT_EQ(ch.send(Bytes(10, 2)), 0u);
  EXPECT_EQ(ch.backlog_bytes(), 0u);
  loop.run();
  EXPECT_EQ(delivered, 0u);
}

TEST(TcpChannel, BacklogGaugeClearedOnTeardown) {
  // The net.tcp.backlog gauge is shared across channels; a dying channel
  // must withdraw exactly its own published share.
  EventLoop loop;
  telemetry::Telemetry tel;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;
  opts.telemetry = &tel;
  {
    TcpChannel keeper(loop, opts);
    keeper.set_receiver([](Bytes) {});
    keeper.send(Bytes(300, 1));
    {
      TcpChannel doomed(loop, opts);
      doomed.set_receiver([](Bytes) {});
      doomed.send(Bytes(800, 2));
      EXPECT_GT(tel.metrics.snapshot().gauge("net.tcp.backlog"), 0);
      const std::int64_t with_both = tel.metrics.snapshot().gauge("net.tcp.backlog");
      EXPECT_GT(with_both, 300);  // both channels' unsent bytes counted
    }
    // Only the keeper's share remains.
    const std::int64_t after = tel.metrics.snapshot().gauge("net.tcp.backlog");
    EXPECT_GT(after, 0);
    EXPECT_LE(after, 301);
  }
  EXPECT_EQ(tel.metrics.snapshot().gauge("net.tcp.backlog"), 0);
}

TEST(TcpChannel, BacklogGaugeClearedOnDrop) {
  EventLoop loop;
  telemetry::Telemetry tel;
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;
  opts.telemetry = &tel;
  TcpChannel ch(loop, opts);
  ch.set_receiver([](Bytes) {});
  ch.send(Bytes(500, 1));
  EXPECT_GT(tel.metrics.snapshot().gauge("net.tcp.backlog"), 0);
  ch.drop();
  EXPECT_EQ(tel.metrics.snapshot().gauge("net.tcp.backlog"), 0);
}

TEST(TcpChannel, SendGatherMatchesSendOnConcatenatedBytes) {
  // Differential: offering {a, b, c} in one gather call must be
  // observationally identical to send() on the concatenation — same accepted
  // counts, same partial-write behaviour (including an acceptance boundary
  // that lands mid-part), same delivered stream, same stats.
  TcpChannelOptions opts;
  opts.bandwidth_bps = 8000;       // 1000 B/s: backlog builds quickly
  opts.send_buffer_bytes = 1024;   // forces partial acceptance mid-part
  opts.delay_us = 2000;

  struct Outcome {
    Bytes delivered;
    std::vector<std::size_t> accepted;
    std::uint64_t offered = 0;
    std::uint64_t accepted_bytes = 0;
    std::uint64_t delivered_bytes = 0;
    std::uint64_t partials = 0;
    bool operator==(const Outcome&) const = default;
  };

  auto make_parts = [](std::uint8_t round) {
    // Three parts of awkward sizes, one of them empty every third round.
    std::vector<Bytes> parts;
    parts.push_back(Bytes(37 + round * 5, round));
    parts.push_back(Bytes(round % 3 == 0 ? 0 : 301,
                          static_cast<std::uint8_t>(round + 100)));
    parts.push_back(Bytes(129, static_cast<std::uint8_t>(round + 200)));
    return parts;
  };

  auto run = [&](bool gathered) {
    EventLoop loop;
    TcpChannel ch(loop, opts);
    Outcome out;
    ch.set_receiver([&](Bytes d) {
      out.delivered.insert(out.delivered.end(), d.begin(), d.end());
    });
    for (std::uint8_t round = 0; round < 12; ++round) {
      const std::vector<Bytes> parts = make_parts(round);
      if (gathered) {
        std::vector<BytesView> views;
        for (const Bytes& p : parts) views.emplace_back(p);
        out.accepted.push_back(ch.send_gather(views));
      } else {
        Bytes concat;
        for (const Bytes& p : parts)
          concat.insert(concat.end(), p.begin(), p.end());
        out.accepted.push_back(ch.send(concat));
      }
      // Drain a little between rounds so acceptance boundaries move around.
      loop.run_until(loop.now() + 150'000);
    }
    loop.run();
    out.offered = ch.stats().bytes_offered;
    out.accepted_bytes = ch.stats().bytes_accepted;
    out.delivered_bytes = ch.stats().bytes_delivered;
    out.partials = ch.stats().partial_writes;
    return out;
  };

  const Outcome gather = run(true);
  const Outcome contiguous = run(false);
  EXPECT_TRUE(gather == contiguous);
  EXPECT_GT(gather.partials, 0u);  // mid-part boundaries actually exercised
  // At least one round was cut off strictly inside a part (not at a part
  // boundary): some accepted count falls inside the middle part's range.
  bool mid_part = false;
  for (std::size_t i = 0; i < gather.accepted.size(); ++i) {
    const auto parts = make_parts(static_cast<std::uint8_t>(i));
    const std::size_t a = gather.accepted[i];
    if (a > parts[0].size() && a < parts[0].size() + parts[1].size()) {
      mid_part = true;
    }
  }
  EXPECT_TRUE(mid_part);
}

TEST(TcpChannel, SendGatherEmptyPartsAreNoOp) {
  EventLoop loop;
  TcpChannel ch(loop, {});
  ch.set_receiver([](Bytes) {});
  EXPECT_EQ(ch.send_gather({}), 0u);
  const BytesView none[] = {BytesView{}, BytesView{}};
  EXPECT_EQ(ch.send_gather(none), 0u);
  EXPECT_EQ(ch.stats().bytes_offered, 0u);
  EXPECT_EQ(ch.stats().partial_writes, 0u);
  EXPECT_EQ(ch.backlog_bytes(), 0u);
}

}  // namespace
}  // namespace ads
