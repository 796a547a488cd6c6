// RelayNode behaviour: zero-copy media fan-out, local NACK service with
// upstream deduplication, PLI coalescing, worst-case RR aggregation, the
// per-leg §7 backlog / §4.3 token-bucket gates and their adaptation, and
// per-leg gauges that are withdrawn when the leg leaves.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relay/relay.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"

namespace ads::relay {
namespace {

constexpr std::uint32_t kMediaSsrc = 0xCAFE0001;

Bytes media_datagram(std::uint16_t seq, std::size_t payload_len = 64,
                     std::uint8_t fill = 0xAB) {
  RtpPacket pkt;
  pkt.marker = true;
  pkt.payload_type = kRemotingPayloadType;
  pkt.sequence = seq;
  pkt.timestamp = 9000u * seq;
  pkt.ssrc = kMediaSsrc;
  pkt.payload.assign(payload_len, fill);
  return pkt.serialize();
}

/// One capturing UDP leg: records every media packet (serialised) and every
/// control datagram the relay hands it.
struct UdpLegProbe {
  std::vector<Bytes> media;
  std::vector<Bytes> control;

  Endpoint endpoint() {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUdp;
    ep.send_packet_batch = [this](std::span<const PacketView> pkts) {
      for (const PacketView& v : pkts) media.push_back(v.serialize());
      return pkts.size();
    };
    ep.send_datagram = [this](BytesView d) {
      control.emplace_back(d.begin(), d.end());
      return true;
    };
    return ep;
  }
};

struct Fixture {
  EventLoop loop;
  RelayNode node;
  std::vector<Bytes> upstream;  ///< packets the relay sent upward

  explicit Fixture(RelayOptions opts = {}) : node(loop, opts) {
    node.set_upstream([this](BytesView p) {
      upstream.emplace_back(p.begin(), p.end());
      return true;
    });
  }

  void feed_media(std::uint16_t seq) {
    node.on_upstream_datagram(media_datagram(seq));
  }

  /// All upstream GenericNack sequences seen so far (across compounds).
  std::vector<std::uint16_t> upstream_nack_seqs() const {
    std::vector<std::uint16_t> out;
    for (const Bytes& dgram : upstream) {
      auto msgs = parse_rtcp_compound(dgram);
      if (!msgs.ok()) continue;
      for (const RtcpMessage& m : *msgs) {
        if (const auto* nack = std::get_if<GenericNack>(&m)) {
          for (std::uint16_t s : nack->requested_sequences()) out.push_back(s);
        }
      }
    }
    return out;
  }

  std::size_t upstream_pli_count() const {
    std::size_t n = 0;
    for (const Bytes& dgram : upstream) {
      auto msgs = parse_rtcp_compound(dgram);
      if (!msgs.ok()) continue;
      for (const RtcpMessage& m : *msgs) {
        if (std::holds_alternative<PictureLossIndication>(m)) ++n;
      }
    }
    return n;
  }
};

TEST(RelayNode, FansMediaToEveryLegByteIdentically) {
  Fixture f;
  UdpLegProbe a, b;
  f.node.add_leg(a.endpoint());
  f.node.add_leg(b.endpoint());

  const Bytes wire0 = media_datagram(100);
  const Bytes wire1 = media_datagram(101);
  f.feed_media(100);
  f.feed_media(101);

  ASSERT_EQ(a.media.size(), 2u);
  ASSERT_EQ(b.media.size(), 2u);
  EXPECT_EQ(a.media[0], wire0);
  EXPECT_EQ(a.media[1], wire1);
  EXPECT_EQ(b.media[0], wire0);
  EXPECT_EQ(b.media[1], wire1);
  EXPECT_EQ(f.node.stats().upstream_packets, 2u);
  EXPECT_EQ(f.node.stats().forwarded_packets, 4u);
  // A UDP leg's batch path never stages payload bytes.
  EXPECT_EQ(f.node.stats().payload_bytes_copied, 0u);
  EXPECT_EQ(f.node.upstream_ssrc(), kMediaSsrc);
}

TEST(RelayNode, DropsNetworkDuplicates) {
  Fixture f;
  UdpLegProbe a;
  f.node.add_leg(a.endpoint());
  f.feed_media(7);
  f.feed_media(7);
  EXPECT_EQ(a.media.size(), 1u);
  EXPECT_EQ(f.node.stats().upstream_duplicates, 1u);
}

TEST(RelayNode, RtpDatagramShorterThanAHeaderIsADecodeError) {
  Fixture f;
  UdpLegProbe a;
  f.node.add_leg(a.endpoint());
  Bytes short_dgram = media_datagram(1);
  short_dgram.resize(RtpPacket::kHeaderSize - 1);
  f.node.on_upstream_datagram(short_dgram);
  EXPECT_EQ(f.node.stats().decode_errors, 1u);
  EXPECT_EQ(f.node.stats().upstream_packets, 0u);
  EXPECT_TRUE(a.media.empty());
}

TEST(RelayNode, NonCanonicalRtpHeaderIsADecodeError) {
  Fixture f;
  UdpLegProbe a;
  f.node.add_leg(a.endpoint());
  // V=2 but with the extension bit, then with one CSRC: still RTP by
  // version, but not the fixed header the relay forwards zero-copy.
  for (const std::uint8_t first : {std::uint8_t{0x90}, std::uint8_t{0x81}}) {
    Bytes dgram = media_datagram(1);
    dgram[0] = first;
    f.node.on_upstream_datagram(dgram);
  }
  EXPECT_EQ(f.node.stats().decode_errors, 2u);
  EXPECT_EQ(f.node.stats().upstream_packets, 0u);
  EXPECT_TRUE(a.media.empty());
  // The canonical header is accepted even with an empty payload.
  f.node.on_upstream_datagram(media_datagram(1, /*payload_len=*/0));
  EXPECT_EQ(f.node.stats().upstream_packets, 1u);
  EXPECT_EQ(a.media.size(), 1u);
}

TEST(RelayNode, ServesNackFromLocalCacheWithoutUpstreamRequest) {
  Fixture f;
  UdpLegProbe a, b;
  const LegId leg_a = f.node.add_leg(a.endpoint());
  f.node.add_leg(b.endpoint());
  for (std::uint16_t s = 0; s < 5; ++s) f.feed_media(s);
  a.media.clear();

  // Leg A lost 2 and 3 on its last hop and NACKs; the relay's cache covers
  // both, so nothing goes upstream and leg B sees no retransmission.
  const GenericNack nack =
      GenericNack::for_sequences(0x77, kMediaSsrc, {2, 3});
  f.node.on_leg_packet(leg_a, nack.serialize());

  ASSERT_EQ(a.media.size(), 2u);
  EXPECT_EQ(a.media[0], media_datagram(2));
  EXPECT_EQ(a.media[1], media_datagram(3));
  EXPECT_EQ(b.media.size(), 5u);  // no duplicate fan-out
  EXPECT_EQ(f.node.stats().rtx_served, 2u);
  EXPECT_EQ(f.node.stats().nacks_upstream, 0u);
  f.loop.run_until(f.loop.now() + sim_ms(100));
  EXPECT_TRUE(f.upstream_nack_seqs().empty());
}

TEST(RelayNode, CacheMissGoesUpstreamOnceAndRepairReachesOnlyWaiters) {
  Fixture f;
  UdpLegProbe a, b;
  const LegId leg_a = f.node.add_leg(a.endpoint());
  const LegId leg_b = f.node.add_leg(b.endpoint());
  f.feed_media(0);  // learn the SSRC, seed the receiver

  // Sequence 9 never reached the relay: both legs ask for it; one upstream
  // request must result, with the second leg absorbed as a waiter.
  f.node.on_leg_packet(
      leg_a, GenericNack::for_sequences(0x77, kMediaSsrc, {9}).serialize());
  f.node.on_leg_packet(
      leg_b, GenericNack::for_sequences(0x78, kMediaSsrc, {9}).serialize());
  f.loop.run_until(f.loop.now() + sim_ms(50));

  const auto seqs = f.upstream_nack_seqs();
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0], 9);
  EXPECT_EQ(f.node.stats().nacks_upstream, 1u);
  EXPECT_EQ(f.node.stats().nacks_absorbed, 1u);

  // The repair arrives from upstream: both waiters get it exactly once, and
  // it is not re-fanned as fresh media on later packets.
  a.media.clear();
  b.media.clear();
  f.node.on_upstream_datagram(media_datagram(9));
  ASSERT_EQ(a.media.size(), 1u);
  ASSERT_EQ(b.media.size(), 1u);
  EXPECT_EQ(a.media[0], media_datagram(9));
  EXPECT_EQ(f.node.stats().repairs_forwarded, 1u);
}

TEST(RelayNode, RelayDetectedGapIsNackedUpstreamAndRepairFansToAll) {
  Fixture f;
  UdpLegProbe a, b;
  f.node.add_leg(a.endpoint());
  f.node.add_leg(b.endpoint());
  f.feed_media(0);
  f.feed_media(1);
  f.feed_media(3);  // gap: 2 lost on the upstream link
  f.loop.run_until(f.loop.now() + sim_ms(50));

  const auto seqs = f.upstream_nack_seqs();
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_EQ(seqs[0], 2);
  EXPECT_EQ(f.node.stats().gap_nacks, 1u);

  // A relay-detected gap was never forwarded anywhere, so the repair goes
  // to every leg.
  a.media.clear();
  b.media.clear();
  f.node.on_upstream_datagram(media_datagram(2));
  ASSERT_EQ(a.media.size(), 1u);
  ASSERT_EQ(b.media.size(), 1u);
  EXPECT_EQ(a.media[0], media_datagram(2));
}

TEST(RelayNode, GapFilledBeforeTheFlushIsNotRequestedUpstream) {
  Fixture f;
  UdpLegProbe a;
  f.node.add_leg(a.endpoint());
  f.feed_media(1);
  f.feed_media(2);
  f.feed_media(4);  // 3 looks lost and is queued for the next NACK flush
  f.loop.run_until(f.loop.now() + sim_ms(1));
  f.feed_media(3);  // ...but it was only late
  f.loop.run_until(f.loop.now() + sim_ms(50));

  EXPECT_EQ(f.node.stats().gap_nacks, 1u);
  EXPECT_EQ(f.node.stats().nack_seqs_upstream, 0u);
  EXPECT_TRUE(f.upstream_nack_seqs().empty());
  EXPECT_EQ(f.node.stats().upstream_duplicates, 0u);
  EXPECT_EQ(a.media.size(), 4u);
}

TEST(RelayNode, CoalescesSubtreePlisIntoOneUpstreamRefresh) {
  Fixture f;
  UdpLegProbe a, b;
  const LegId leg_a = f.node.add_leg(a.endpoint());
  const LegId leg_b = f.node.add_leg(b.endpoint());
  f.feed_media(0);

  PictureLossIndication pli;
  pli.sender_ssrc = 0x77;
  pli.media_ssrc = kMediaSsrc;
  f.node.on_leg_packet(leg_a, pli.serialize());
  f.node.on_leg_packet(leg_b, pli.serialize());
  EXPECT_EQ(f.upstream_pli_count(), 1u);
  EXPECT_EQ(f.node.stats().plis_upstream, 1u);
  EXPECT_EQ(f.node.stats().plis_coalesced, 1u);

  // Outside the window the next PLI is forwarded again.
  f.loop.run_until(f.loop.now() + RelayNode::kPliCoalesceUs + 1);
  f.node.on_leg_packet(leg_a, pli.serialize());
  EXPECT_EQ(f.upstream_pli_count(), 2u);
}

// Flash-crowd wave batching (pli_batch_us): the first leg PLI of a wave
// arms a timer instead of forwarding immediately, the rest of the wave
// folds into it, and exactly one upstream PLI goes out at expiry — the PLI
// analogue of nack_flush_us, and what keeps a kJoinFlood's PLI storm from
// multiplying across relay tiers (docs/LATEJOIN.md §6).
TEST(RelayNode, BatchesPliWaveIntoOneDeferredUpstreamRefresh) {
  RelayOptions opts;
  opts.pli_batch_us = sim_ms(20);
  Fixture f(opts);
  UdpLegProbe a, b, c;
  const LegId leg_a = f.node.add_leg(a.endpoint());
  const LegId leg_b = f.node.add_leg(b.endpoint());
  const LegId leg_c = f.node.add_leg(c.endpoint());
  f.feed_media(0);

  PictureLossIndication pli;
  pli.sender_ssrc = 0x77;
  pli.media_ssrc = kMediaSsrc;
  f.node.on_leg_packet(leg_a, pli.serialize());  // arms the wave
  f.node.on_leg_packet(leg_b, pli.serialize());
  f.node.on_leg_packet(leg_c, pli.serialize());
  // Nothing upstream yet: the demand is held for the rest of the wave.
  EXPECT_EQ(f.upstream_pli_count(), 0u);
  EXPECT_EQ(f.node.stats().plis_batched, 2u);

  f.loop.run_until(f.loop.now() + opts.pli_batch_us + 1);
  EXPECT_EQ(f.upstream_pli_count(), 1u);
  EXPECT_EQ(f.node.stats().plis_upstream, 1u);

  // The flush anchors the coalesce window: a straggler inside it is
  // absorbed by the refresh already on its way, not re-batched.
  f.node.on_leg_packet(leg_a, pli.serialize());
  EXPECT_EQ(f.upstream_pli_count(), 1u);
  EXPECT_EQ(f.node.stats().plis_coalesced, 1u);
  EXPECT_EQ(f.node.stats().plis_batched, 2u);

  // A second wave past the coalesce window arms and flushes again.
  f.loop.run_until(f.loop.now() + RelayNode::kPliCoalesceUs + 1);
  f.node.on_leg_packet(leg_b, pli.serialize());
  EXPECT_EQ(f.upstream_pli_count(), 1u);  // deferred again
  f.loop.run_until(f.loop.now() + opts.pli_batch_us + 1);
  EXPECT_EQ(f.upstream_pli_count(), 2u);
}

// An armed batch dies with the node: stop() quiesces the wave, and the
// timer's expiry must not demand a refresh on behalf of a dead subtree.
TEST(RelayNode, StopQuiescesAnArmedPliBatch) {
  RelayOptions opts;
  opts.pli_batch_us = sim_ms(20);
  Fixture f(opts);
  UdpLegProbe a;
  const LegId leg_a = f.node.add_leg(a.endpoint());
  f.feed_media(0);

  PictureLossIndication pli;
  pli.sender_ssrc = 0x77;
  pli.media_ssrc = kMediaSsrc;
  f.node.on_leg_packet(leg_a, pli.serialize());
  f.node.stop();
  f.loop.run_until(f.loop.now() + opts.pli_batch_us + 1);
  EXPECT_EQ(f.upstream_pli_count(), 0u);
  EXPECT_EQ(f.node.stats().plis_upstream, 0u);
}

TEST(RelayNode, AggregatesWorstCaseReceiverReportUpstream) {
  RelayOptions opts;
  opts.report_interval_us = sim_ms(100);
  Fixture f(opts);
  UdpLegProbe a, b;
  const LegId leg_a = f.node.add_leg(a.endpoint());
  const LegId leg_b = f.node.add_leg(b.endpoint());
  f.node.start();
  f.feed_media(0);
  f.feed_media(1);

  // Leg A reports heavy loss, leg B is clean but further behind.
  ReportBlock block_a;
  block_a.ssrc = kMediaSsrc;
  block_a.fraction_lost = 64;
  block_a.cumulative_lost = 10;
  block_a.ext_highest_seq = 1;
  block_a.jitter = 500;
  ReceiverReport rr_a;
  rr_a.ssrc = 0x77;
  rr_a.blocks.push_back(block_a);
  f.node.on_leg_packet(leg_a, rr_a.serialize());

  ReportBlock block_b = block_a;
  block_b.fraction_lost = 0;
  block_b.cumulative_lost = 0;
  block_b.ext_highest_seq = 0;  // ignored: a leg that never saw media
  block_b.jitter = 900;
  ReceiverReport rr_b;
  rr_b.ssrc = 0x78;
  rr_b.blocks.push_back(block_b);
  f.node.on_leg_packet(leg_b, rr_b.serialize());

  f.loop.run_until(f.loop.now() + sim_ms(150));

  const ReceiverReport* up = nullptr;
  std::vector<ReceiverReport> found;
  for (const Bytes& dgram : f.upstream) {
    auto msgs = parse_rtcp_compound(dgram);
    if (!msgs.ok()) continue;
    for (const RtcpMessage& m : *msgs) {
      if (const auto* rr = std::get_if<ReceiverReport>(&m)) found.push_back(*rr);
    }
  }
  ASSERT_FALSE(found.empty());
  up = &found.back();
  ASSERT_EQ(up->blocks.size(), 1u);
  EXPECT_EQ(up->ssrc, f.node.ssrc());
  EXPECT_EQ(up->blocks[0].ssrc, kMediaSsrc);
  // Worst case across the relay's own (clean) reception and both legs.
  EXPECT_EQ(up->blocks[0].fraction_lost, 64);
  EXPECT_EQ(up->blocks[0].cumulative_lost, 10u);
  EXPECT_GE(up->blocks[0].jitter, 900u);
  EXPECT_EQ(up->blocks[0].ext_highest_seq, 1u);
  EXPECT_EQ(f.node.stats().rrs_received, 2u);
  EXPECT_GE(f.node.stats().rrs_aggregated, 1u);
  ASSERT_NE(f.node.leg_last_rr(leg_a), nullptr);
  EXPECT_EQ(f.node.leg_last_rr(leg_a)->fraction_lost, 64);
}

TEST(RelayNode, BacklogGateShedsOnlyTheSlowTcpLeg) {
  Fixture f;
  UdpLegProbe healthy;
  f.node.add_leg(healthy.endpoint());

  std::size_t backlog = 0;
  Bytes slow_bytes;
  Endpoint slow;
  slow.kind = Endpoint::Kind::kTcp;
  slow.write_gather = [&slow_bytes](std::span<const BytesView> parts) {
    std::size_t total = 0;
    for (const BytesView& p : parts) {
      slow_bytes.insert(slow_bytes.end(), p.begin(), p.end());
      total += p.size();
    }
    return total;
  };
  slow.backlog = [&backlog] { return backlog; };
  f.node.add_leg(std::move(slow));

  f.feed_media(0);
  backlog = f.node.options().link.backlog_limit + 1;  // §7 spike
  f.feed_media(1);
  f.feed_media(2);
  backlog = 0;
  f.feed_media(3);

  EXPECT_EQ(healthy.media.size(), 4u);  // untouched by the sibling's spike
  EXPECT_EQ(f.node.stats().leg_drops_backlog, 2u);
  // The TCP leg received frames 0 and 3 as RFC 4571 frames.
  Bytes expected;
  for (std::uint16_t s : {0, 3}) {
    const Bytes wire = media_datagram(s);
    expected.push_back(static_cast<std::uint8_t>(wire.size() >> 8));
    expected.push_back(static_cast<std::uint8_t>(wire.size()));
    expected.insert(expected.end(), wire.begin(), wire.end());
  }
  EXPECT_EQ(slow_bytes, expected);
  // Full gather acceptance: nothing was re-staged.
  EXPECT_EQ(f.node.stats().payload_bytes_copied, 0u);
}

TEST(RelayNode, TokenBucketShedsOnlyTheStarvedUdpLeg) {
  Fixture f;
  UdpLegProbe healthy, starved;
  f.node.add_leg(healthy.endpoint());
  LegConfig cfg;
  cfg.rate_bps = 8;  // ~1 byte/s: the first burst is all it ever gets
  cfg.burst_bytes = media_datagram(0).size();
  f.node.add_leg(starved.endpoint(), cfg);

  for (std::uint16_t s = 0; s < 4; ++s) f.feed_media(s);

  EXPECT_EQ(healthy.media.size(), 4u);
  EXPECT_EQ(starved.media.size(), 1u);  // burst covered exactly one packet
  EXPECT_EQ(f.node.stats().leg_drops_rate, 3u);
}

/// One leg Receiver Report carrying a single block with `fraction_lost`.
Bytes leg_rr(std::uint8_t fraction_lost) {
  ReportBlock block;
  block.ssrc = kMediaSsrc;
  block.fraction_lost = fraction_lost;
  ReceiverReport rr;
  rr.ssrc = 0x77;
  rr.blocks.push_back(block);
  return rr.serialize();
}

TEST(RelayNode, AdaptiveLegsRetargetTheirBucketsFromReceiverReports) {
  // Two adaptive UDP legs from the default 2 Mbit/s budget: one reports 25%
  // loss every interval (x0.7 per interval), the other reports none (+100
  // kbit/s per interval). Six intervals pin the whole actuator path: RR
  // intake, the AIMD step and the bucket retarget the gauge reads.
  RelayOptions opts;
  opts.metrics_prefix = "relay.r9.";
  opts.link.adaptation.enabled = true;
  Fixture f(opts);
  f.node.start();
  UdpLegProbe lossy, clean;
  const LegId leg_lossy = f.node.add_leg(lossy.endpoint());
  const LegId leg_clean = f.node.add_leg(clean.endpoint());
  for (int interval = 0; interval < 6; ++interval) {
    f.node.on_leg_packet(leg_lossy, leg_rr(64));
    f.node.on_leg_packet(leg_clean, leg_rr(0));
    f.loop.run_until(f.loop.now() + opts.report_interval_us);
  }
  const auto snap = f.node.telemetry().snapshot();
  EXPECT_EQ(snap.gauge("relay.r9.leg" + std::to_string(leg_lossy) + ".rate_bps"),
            235'297);
  EXPECT_EQ(snap.gauge("relay.r9.leg" + std::to_string(leg_clean) + ".rate_bps"),
            2'600'000);
}

TEST(RelayNode, AdaptiveLegBurstCoversOnePacket) {
  // An adaptive leg's bucket must hold one packet, as a rate-limited one's
  // must: validation raises a 1000-byte burst to 1500, so 1,212-byte packets
  // 100 ms apart all pass instead of every one being refused.
  RelayOptions opts;
  opts.link.adaptation.enabled = true;
  opts.link.burst_bytes = 1000;
  Fixture f(opts);
  EXPECT_EQ(f.node.options().link.burst_bytes, 1500u);
  UdpLegProbe leg;
  f.node.add_leg(leg.endpoint());
  for (std::uint16_t s = 0; s < 50; ++s) {
    f.node.on_upstream_datagram(media_datagram(s, 1200));
    f.loop.run_until(f.loop.now() + sim_ms(100));
  }
  EXPECT_EQ(leg.media.size(), 50u);
  EXPECT_EQ(f.node.stats().leg_drops_rate, 0u);
}

TEST(RelayNode, AdaptiveLegStartsAtTheClampedBudget) {
  // The initial rate is clamped into [min, max] before it seeds the bucket.
  RelayOptions opts;
  opts.metrics_prefix = "relay.r9.";
  opts.link.adaptation.enabled = true;
  opts.link.adaptation.initial_rate_bps = 50'000'000;
  opts.link.adaptation.max_rate_bps = 20'000'000;
  Fixture f(opts);
  UdpLegProbe a;
  const LegId leg = f.node.add_leg(a.endpoint());
  const auto snap = f.node.telemetry().snapshot();
  EXPECT_EQ(snap.gauge("relay.r9.leg" + std::to_string(leg) + ".rate_bps"),
            20'000'000);
}

TEST(RelayNode, AdaptiveLegIgnoresLegConfigRate) {
  // LegConfig::rate_bps is the leg's static rate; with adaptation on the
  // bucket starts at the controller's budget (2 Mbit/s by default).
  RelayOptions opts;
  opts.metrics_prefix = "relay.r9.";
  opts.link.adaptation.enabled = true;
  Fixture f(opts);
  UdpLegProbe a;
  LegConfig cfg;
  cfg.rate_bps = 500'000;
  const LegId leg = f.node.add_leg(a.endpoint(), cfg);
  const auto snap = f.node.telemetry().snapshot();
  EXPECT_EQ(snap.gauge("relay.r9.leg" + std::to_string(leg) + ".rate_bps"),
            2'000'000);
}

TEST(RelayNode, RemovedLegWithdrawsItsGauges) {
  // A departed leg's backlog and rate gauges read 0 (as after stop()), not
  // the last reading; its counters stay, as lifetime totals.
  std::size_t backlog = 5000;
  RelayOptions opts;
  opts.metrics_prefix = "relay.r9.";
  Fixture f(opts);
  UdpLegProbe udp;
  LegConfig cfg;
  cfg.rate_bps = 1'000'000;
  const LegId rated = f.node.add_leg(udp.endpoint(), cfg);
  Endpoint stream;
  stream.kind = Endpoint::Kind::kTcp;
  stream.write_gather = [](std::span<const BytesView> parts) {
    std::size_t total = 0;
    for (const BytesView& p : parts) total += p.size();
    return total;
  };
  stream.backlog = [&backlog] { return backlog; };
  const LegId tcp = f.node.add_leg(std::move(stream));
  f.feed_media(0);
  const std::string rate = "relay.r9.leg" + std::to_string(rated) + ".";
  const std::string tcp_leg = "relay.r9.leg" + std::to_string(tcp) + ".";
  const auto live = f.node.telemetry().snapshot();
  ASSERT_EQ(live.gauge(rate + "rate_bps"), 1'000'000);
  ASSERT_EQ(live.gauge(tcp_leg + "backlog"), 5000);

  f.node.remove_leg(rated);
  f.node.remove_leg(tcp);
  const auto gone = f.node.telemetry().snapshot();
  EXPECT_EQ(gone.gauge(rate + "rate_bps", -1), 0);
  EXPECT_EQ(gone.gauge(tcp_leg + "backlog", -1), 0);
  EXPECT_EQ(gone.counter(rate + "forwarded"), 1u);
  EXPECT_EQ(gone.counter(tcp_leg + "forwarded"), 1u);
}

TEST(RelayNode, ForwardsUpstreamControlVerbatimToEveryLeg) {
  Fixture f;
  UdpLegProbe a, b;
  f.node.add_leg(a.endpoint());
  f.node.add_leg(b.endpoint());

  SenderReport sr;
  sr.ssrc = kMediaSsrc;
  sr.ntp_timestamp = 0x0123456789ABCDEFull;
  sr.rtp_timestamp = 90'000;
  sr.packet_count = 10;
  sr.octet_count = 1000;
  const Bytes wire = sr.serialize();
  f.node.on_upstream_datagram(wire);

  ASSERT_EQ(a.control.size(), 1u);
  ASSERT_EQ(b.control.size(), 1u);
  EXPECT_EQ(a.control[0], wire);
  EXPECT_EQ(b.control[0], wire);
  EXPECT_EQ(f.node.stats().control_forwarded, 1u);
  EXPECT_TRUE(a.media.empty());
}

TEST(RelayNode, PassesHipAndBfcpUplinkThroughUnchanged) {
  Fixture f;
  UdpLegProbe a;
  const LegId leg = f.node.add_leg(a.endpoint());

  RtpPacket hip;
  hip.payload_type = kHipPayloadType;
  hip.sequence = 42;
  hip.ssrc = 0x5151;
  hip.payload = {1, 2, 3};
  const Bytes hip_wire = hip.serialize();
  f.node.on_leg_packet(leg, hip_wire);

  const Bytes bfcp_wire = {0x20, 0x01, 0x00, 0x00};  // BFCP ver-1 header
  f.node.on_leg_packet(leg, bfcp_wire);

  ASSERT_EQ(f.upstream.size(), 2u);
  EXPECT_EQ(f.upstream[0], hip_wire);
  EXPECT_EQ(f.upstream[1], bfcp_wire);
  EXPECT_EQ(f.node.stats().hip_upstream, 1u);
  EXPECT_EQ(f.node.stats().bfcp_upstream, 1u);
}

TEST(RelayNode, PublishesTelemetryUnderItsPrefix) {
  RelayOptions opts;
  opts.metrics_prefix = "relay.r9.";
  EventLoop loop;
  RelayNode node(loop, opts);
  UdpLegProbe a;
  node.add_leg(a.endpoint());
  node.on_upstream_datagram(media_datagram(0));

  const auto snap = node.telemetry().snapshot();
  EXPECT_TRUE(snap.has_counter("relay.r9.upstream_packets"));
  EXPECT_EQ(snap.counter("relay.r9.upstream_packets"), 1u);
  EXPECT_EQ(snap.counter("relay.r9.forwarded_packets"), 1u);
  EXPECT_EQ(snap.gauge("relay.r9.legs"), 1);
}

// ----- self-healing: watchdog, orphan freeze, adoption, epochs ----------

/// Watchdog knobs small enough to run a full escalation in a short test,
/// jitter off so expiry instants are exact.
RelayOptions watchdog_opts() {
  RelayOptions opts;
  opts.upstream_timeout_us = sim_ms(200);
  opts.probe_interval_us = sim_ms(50);
  opts.probe_count = 2;
  opts.watchdog_jitter = 0.0;
  return opts;
}

Bytes media_datagram_ssrc(std::uint32_t ssrc, std::uint16_t seq) {
  RtpPacket pkt;
  pkt.marker = true;
  pkt.payload_type = kRemotingPayloadType;
  pkt.sequence = seq;
  pkt.timestamp = 9000u * seq;
  pkt.ssrc = ssrc;
  pkt.payload.assign(64, 0xAB);
  return pkt.serialize();
}

TEST(RelayNode, WatchdogProbesThenDeclaresUpstreamDead) {
  Fixture f(watchdog_opts());
  f.node.start();
  bool lost = false;
  f.node.set_upstream_lost([&lost] { lost = true; });
  f.feed_media(1);  // first activity arms the watchdog

  // Timeout at 200ms, probes at 200 and 250ms, declaration at 300ms.
  f.loop.run_until(sim_ms(199));
  EXPECT_FALSE(f.node.orphaned());
  EXPECT_EQ(f.node.stats().watchdog_probes, 0u);
  f.loop.run_until(sim_ms(260));
  EXPECT_EQ(f.node.stats().watchdog_probes, 2u);
  EXPECT_FALSE(lost);
  f.loop.run_until(sim_ms(301));
  EXPECT_TRUE(lost);
  EXPECT_TRUE(f.node.orphaned());
  EXPECT_EQ(f.node.stats().upstream_lost, 1u);
  EXPECT_EQ(f.node.last_detect_latency_us(), sim_ms(300));
}

TEST(RelayNode, WatchdogSleepsOutRemainderWhileUpstreamActive) {
  Fixture f(watchdog_opts());
  f.node.start();
  bool lost = false;
  f.node.set_upstream_lost([&lost] { lost = true; });
  // Media every 100ms keeps idle under the 200ms threshold throughout.
  for (int i = 0; i < 10; ++i) {
    f.node.on_upstream_datagram(media_datagram(static_cast<std::uint16_t>(i)));
    f.loop.run_until(f.loop.now() + sim_ms(100));
  }
  EXPECT_FALSE(lost);
  EXPECT_FALSE(f.node.orphaned());
  EXPECT_EQ(f.node.stats().watchdog_probes, 0u);
}

TEST(RelayNode, OrphanFreezesForwardingButServesSubtreeFromCache) {
  Fixture f(watchdog_opts());
  f.node.start();
  UdpLegProbe a;
  const LegId leg = f.node.add_leg(a.endpoint());
  for (std::uint16_t s = 1; s <= 5; ++s) f.feed_media(s);
  f.loop.run_until(sim_ms(400));  // escalation drains: orphaned
  ASSERT_TRUE(f.node.orphaned());
  const std::size_t media_before = a.media.size();
  const std::size_t upstream_before = f.upstream.size();

  // Media straggling in from the dead parent is frozen out, not forwarded.
  f.feed_media(6);
  EXPECT_EQ(a.media.size(), media_before);
  EXPECT_EQ(f.node.stats().frozen_drops, 1u);

  // A cached sequence is still served to the subtree during the blackout…
  f.node.on_leg_packet(leg, GenericNack::for_sequences(
                                0xB0B, f.node.upstream_ssrc(), {3}).serialize());
  EXPECT_EQ(f.node.stats().rtx_served, 1u);
  EXPECT_EQ(a.media.size(), media_before + 1);

  // …while a miss is absorbed (no dead-parent request), and so are PLIs.
  f.node.on_leg_packet(leg, GenericNack::for_sequences(
                                0xB0B, f.node.upstream_ssrc(), {40}).serialize());
  PictureLossIndication pli;
  pli.sender_ssrc = 0xB0B;
  pli.media_ssrc = f.node.upstream_ssrc();
  f.node.on_leg_packet(leg, pli.serialize());
  f.loop.run_until(f.loop.now() + sim_ms(600));
  EXPECT_EQ(f.upstream.size(), upstream_before);
  EXPECT_GT(f.node.stats().nacks_absorbed, 0u);
  EXPECT_GT(f.node.stats().plis_coalesced, 0u);
}

TEST(RelayNode, AdoptUpstreamResyncsIntoAFreshEpoch) {
  Fixture f(watchdog_opts());
  f.node.start();
  UdpLegProbe a;
  f.node.add_leg(a.endpoint());
  for (std::uint16_t s = 1; s <= 5; ++s) f.feed_media(s);
  f.loop.run_until(sim_ms(400));
  ASSERT_TRUE(f.node.orphaned());

  f.node.adopt_upstream();
  EXPECT_FALSE(f.node.orphaned());
  EXPECT_EQ(f.node.upstream_epoch(), 1u);
  EXPECT_EQ(f.node.stats().adoptions, 1u);
  EXPECT_EQ(f.node.stats().cache_dropped, 5u);  // stale repairs discarded
  EXPECT_EQ(f.node.cache().size(), 0u);
  ASSERT_FALSE(f.upstream.empty());  // the §4.4 refresh request went out
  EXPECT_GE(f.upstream_pli_count(), 1u);
  EXPECT_EQ(f.node.upstream_ssrc(), 0u);  // new epoch: identity re-learned

  // First media of the new epoch completes the resync; a different SSRC is
  // the new parent's own stream, not a duplicate of the old one.
  f.loop.run_until(f.loop.now() + sim_ms(40));
  f.node.on_upstream_datagram(media_datagram_ssrc(0xD00D, 900));
  EXPECT_EQ(f.node.stats().upstream_duplicates, 0u);
  EXPECT_EQ(f.node.stats().decode_errors, 0u);
  EXPECT_EQ(f.node.upstream_ssrc(), 0xD00Du);
  EXPECT_EQ(f.node.last_resync_duration_us(), sim_ms(40));
}

TEST(RelayNode, FailoverLossIsCountedWhenTheSsrcSurvives) {
  Fixture f(watchdog_opts());
  f.node.start();
  for (std::uint16_t s = 1; s <= 5; ++s) f.feed_media(s);
  f.loop.run_until(sim_ms(400));
  ASSERT_TRUE(f.node.orphaned());
  f.node.adopt_upstream();
  // Same stream via the new parent, resuming at 9: seqs 6,7,8 died with
  // the old parent.
  f.feed_media(9);
  EXPECT_EQ(f.node.stats().failover_lost_packets, 3u);
}

TEST(RelayNode, UpstreamSsrcChangeBeginsANewEpochNotDuplicates) {
  Fixture f;
  f.node.start();
  UdpLegProbe a;
  f.node.add_leg(a.endpoint());
  for (std::uint16_t s = 1; s <= 3; ++s) f.feed_media(s);
  // The upstream restarts with a new SSRC and a colliding sequence space.
  for (std::uint16_t s = 1; s <= 3; ++s) {
    f.node.on_upstream_datagram(media_datagram_ssrc(0xFEED, s));
  }
  EXPECT_EQ(f.node.stats().ssrc_epochs, 1u);
  EXPECT_EQ(f.node.upstream_epoch(), 1u);
  EXPECT_EQ(f.node.stats().upstream_duplicates, 0u);
  EXPECT_EQ(f.node.stats().decode_errors, 0u);
  EXPECT_EQ(f.node.stats().upstream_packets, 6u);
  EXPECT_EQ(a.media.size(), 6u);
  EXPECT_EQ(f.node.upstream_ssrc(), 0xFEEDu);
}

TEST(RelayNode, StalledNodeFreezesAndThawRestartsTheGracePeriod) {
  Fixture f(watchdog_opts());
  f.node.start();
  UdpLegProbe a;
  const LegId leg = f.node.add_leg(a.endpoint());
  f.feed_media(1);
  f.node.set_stalled(true);
  ASSERT_TRUE(f.node.stalled());

  // Ingest, leg uplink and the probe ladder are all frozen while wedged —
  // far past the timeout, the parent is never declared dead.
  f.feed_media(2);
  EXPECT_EQ(f.node.stats().frozen_drops, 1u);
  f.node.on_leg_packet(leg, GenericNack::for_sequences(
                                0xB0B, f.node.upstream_ssrc(), {1}).serialize());
  EXPECT_EQ(f.node.stats().nacks_received, 0u);
  f.loop.run_until(sim_ms(900));
  EXPECT_FALSE(f.node.orphaned());
  EXPECT_EQ(f.node.stats().watchdog_probes, 0u);

  // Thaw: forwarding resumes and the upstream gets a fresh grace period.
  f.node.set_stalled(false);
  f.feed_media(3);
  EXPECT_EQ(a.media.size(), 2u);
  f.loop.run_until(f.loop.now() + sim_ms(150));
  EXPECT_FALSE(f.node.orphaned());
}

TEST(RelayNode, StopQuiescesRepairStateAndWithdrawsLegGauges) {
  RelayOptions opts = watchdog_opts();
  opts.metrics_prefix = "relay.r7.";
  opts.nack_flush_us = sim_ms(5);
  Fixture f(opts);
  f.node.start();
  UdpLegProbe a;
  LegConfig cfg;
  cfg.rate_bps = 1'000'000;
  const LegId leg = f.node.add_leg(a.endpoint(), cfg);
  for (std::uint16_t s = 1; s <= 4; ++s) f.feed_media(s);

  // A cache miss leaves a pending upstream NACK behind…
  f.node.on_leg_packet(leg, GenericNack::for_sequences(
                                0xB0B, f.node.upstream_ssrc(), {90}).serialize());
  const std::size_t upstream_before = f.upstream.size();
  f.node.stop();
  // …which stop() must abandon: no flush fires after the quiesce.
  f.loop.run_until(f.loop.now() + sim_ms(700));
  EXPECT_EQ(f.upstream.size(), upstream_before);
  // The cache is dropped — a stopped node can never serve a stale repair —
  // and the monotone rtx totals survive the drop.
  EXPECT_EQ(f.node.cache().size(), 0u);
  EXPECT_EQ(f.node.stats().cache_dropped, 4u);
  const auto snap = f.node.telemetry().snapshot();
  EXPECT_EQ(snap.counter("relay.r7.rtx.misses"), 1u);
  // Per-leg gauges are withdrawn (zero, not last-known) at the snapshot.
  EXPECT_EQ(snap.gauge("relay.r7.leg" + std::to_string(leg) + ".rate_bps"), 0);

  // start() re-enables forwarding with a cold cache.
  f.node.start();
  f.feed_media(10);
  EXPECT_EQ(a.media.size(), 5u);
  const auto snap2 = f.node.telemetry().snapshot();
  EXPECT_EQ(snap2.gauge("relay.r7.leg" + std::to_string(leg) + ".rate_bps"),
            1'000'000);
}

TEST(RelayNode, FoldStatsSeedsLifetimeCountersMonotonically) {
  EventLoop loop;
  RelayNode node(loop, {});
  RelayNode::Stats prior;
  prior.upstream_packets = 100;
  prior.forwarded_packets = 250;
  prior.upstream_lost = 1;
  prior.rtx_served = 7;
  prior.rtx_misses = 3;
  prior.rtx_evictions = 2;
  node.fold_stats(prior);
  EXPECT_EQ(node.stats().upstream_packets, 100u);
  EXPECT_EQ(node.stats().forwarded_packets, 250u);
  EXPECT_EQ(node.stats().upstream_lost, 1u);
  const auto snap = node.telemetry().snapshot();
  EXPECT_EQ(snap.counter("relay.rtx.hits"), 7u);
  EXPECT_EQ(snap.counter("relay.rtx.misses"), 3u);
  EXPECT_EQ(snap.counter("relay.rtx.evictions"), 2u);
  node.on_upstream_datagram(media_datagram(1));
  EXPECT_EQ(node.stats().upstream_packets, 101u);
}

}  // namespace
}  // namespace ads::relay
