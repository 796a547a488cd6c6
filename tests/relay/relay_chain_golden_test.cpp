// Byte-identity golden for the cascaded relay tier: a 50-tick scripted
// session runs with one viewer connected directly to the AH and one leaf
// viewer behind a depth-2 relay chain (AH → relay1 → relay2 → leaf). Both
// AH-side participants share the seed-derived stream identity, so the leaf
// must receive the *byte-identical* media stream — while the relays forward
// views with zero payload copies and zero encodes (they have no encoder at
// all), serve a sibling's NACKs from the relay cache without bothering the
// AH, coalesce subtree PLIs, and starve a rate-limited sibling leg without
// touching the observed path.
//
// The script keeps the observed path lossless (direct wiring, no channels):
// loss, repair and starvation all happen on *sibling* legs, which is
// exactly the isolation property the relay tier promises.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "capture/apps.hpp"
#include "core/app_host.hpp"
#include "relay/relay.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"

namespace ads {
namespace {

constexpr int kTicks = 50;

/// Capturing UDP endpoint: media batches serialised, control verbatim.
struct LegCapture {
  Bytes media;            ///< serialised RTP stream, concatenated
  std::vector<Bytes> control;
  std::set<std::uint16_t> seqs;

  Endpoint endpoint() {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUdp;
    ep.send_packet_batch = [this](std::span<const PacketView> pkts) {
      for (const PacketView& v : pkts) {
        v.serialize_into(media);
        seqs.insert(v.sequence());
      }
      return pkts.size();
    };
    ep.send_datagram = [this](BytesView d) {
      control.emplace_back(d.begin(), d.end());
      return true;
    };
    return ep;
  }
};

TEST(RelayChainGolden, LeafBehindDepth2ChainMatchesDirectViewerByteForByte) {
  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.region_band_rows = 64;
  opts.frame_interval_us = sim_ms(100);
  opts.sr_interval_us = sim_ms(500);
  AppHost host(loop, opts);

  const WindowId w1 = host.wm().create({0, 0, 200, 160}, 1);
  const WindowId w2 = host.wm().create({60, 40, 240, 180}, 1);
  host.capturer().attach(w1, std::make_unique<TerminalApp>(200, 160, 5));
  host.capturer().attach(w2, std::make_unique<DocumentApp>(240, 180, 9));

  // --- the relay chain -------------------------------------------------
  relay::RelayOptions r1_opts;
  r1_opts.metrics_prefix = "relay.r1.";
  relay::RelayNode relay1(loop, r1_opts);
  relay::RelayOptions r2_opts;
  r2_opts.metrics_prefix = "relay.r2.";
  r2_opts.seed = 0xBE1B;  // distinct RTCP identity per node
  relay::RelayNode relay2(loop, r2_opts);

  // relay1 leg 1: feeds relay2 (in-process, zero-copy view hand-off).
  Endpoint to_r2;
  to_r2.kind = Endpoint::Kind::kUdp;
  to_r2.send_packet_batch = [&relay2](std::span<const PacketView> pkts) {
    return relay2.on_upstream_batch(pkts);
  };
  to_r2.send_datagram = [&relay2](BytesView d) {
    relay2.on_upstream_datagram(Bytes(d.begin(), d.end()));
    return true;
  };
  const relay::LegId leg_r2 = relay1.add_leg(std::move(to_r2));
  relay2.set_upstream([&relay1, leg_r2](BytesView p) {
    relay1.on_leg_packet(leg_r2, p);
    return true;
  });

  // relay1 leg 2: sibling B — drops its deliveries during a scripted window
  // and NACKs afterwards; the repairs must come from relay1's cache.
  int tick_no = 0;
  LegCapture b;
  std::set<std::uint16_t> b_dropped;
  Endpoint b_ep;
  b_ep.kind = Endpoint::Kind::kUdp;
  b_ep.send_packet_batch = [&](std::span<const PacketView> pkts) {
    for (const PacketView& v : pkts) {
      if (tick_no >= 10 && tick_no < 16) {
        b_dropped.insert(v.sequence());
        continue;  // accepted by the "link", lost after the relay
      }
      v.serialize_into(b.media);
      b.seqs.insert(v.sequence());
    }
    return pkts.size();
  };
  b_ep.send_datagram = [&b](BytesView d) {
    b.control.emplace_back(d.begin(), d.end());
    return true;
  };
  const relay::LegId leg_b = relay1.add_leg(std::move(b_ep));

  // relay2 leg 1: the observed leaf viewer.
  LegCapture leaf;
  const relay::LegId leg_leaf = relay2.add_leg(leaf.endpoint());
  // relay2 leg 2: sibling D, token-bucket starved.
  LegCapture starved;
  relay::LegConfig d_cfg;
  d_cfg.rate_bps = 20'000;
  d_cfg.burst_bytes = 2'000;
  relay2.add_leg(starved.endpoint(), d_cfg);

  // --- AH participants -------------------------------------------------
  // Direct viewer: the leaf's endpoint shape, wired straight to the AH.
  LegCapture direct;
  const ParticipantId direct_id = host.add_participant(direct.endpoint());

  // Relay root: the AH's second UDP participant is relay1's upstream.
  Endpoint relay_ep;
  relay_ep.kind = Endpoint::Kind::kUdp;
  relay_ep.send_packet_batch = [&relay1](std::span<const PacketView> pkts) {
    return relay1.on_upstream_batch(pkts);
  };
  relay_ep.send_datagram = [&relay1](BytesView d) {
    relay1.on_upstream_datagram(Bytes(d.begin(), d.end()));
    return true;
  };
  const ParticipantId relay_id = host.add_participant(std::move(relay_ep));
  relay1.set_upstream([&host, relay_id](BytesView p) {
    host.on_uplink_packet(relay_id, p);
    return true;
  });
  relay1.start();
  relay2.start();

  // --- the 50-tick script ----------------------------------------------
  const Image icon(6, 9, Pixel{255, 0, 0, 255});
  auto paired_pli = [&] {
    // Leaf PLI travels the chain: relay2 forwards it up, relay1 forwards it
    // to the AH. The direct viewer sends its own in the same tick, so both
    // AH participants schedule the identical full refresh. Sibling B's PLI
    // lands inside relay1's coalesce window and is absorbed.
    PictureLossIndication pli;
    pli.sender_ssrc = 0x1EAF;
    pli.media_ssrc = relay2.upstream_ssrc();
    relay2.on_leg_packet(leg_leaf, pli.serialize());
    host.on_uplink_packet(direct_id, pli.serialize());
    pli.sender_ssrc = 0xB0B;
    relay1.on_leg_packet(leg_b, pli.serialize());
  };

  for (tick_no = 0; tick_no < kTicks; ++tick_no) {
    if (tick_no == 2) paired_pli();  // late-join refresh for the whole tree
    if (tick_no == 7) host.set_pointer({50, 60});
    if (tick_no == 16) {
      // Sibling B recovers its scripted drop window from relay1's cache.
      ASSERT_FALSE(b_dropped.empty());
      const std::vector<std::uint16_t> lost(b_dropped.begin(), b_dropped.end());
      const GenericNack nack =
          GenericNack::for_sequences(0xB0B, relay1.upstream_ssrc(), lost);
      relay1.on_leg_packet(leg_b, nack.serialize());
    }
    if (tick_no == 23) host.set_pointer({80, 90}, &icon);
    if (tick_no == 30) paired_pli();  // mid-session refresh, outside coalesce
    if (tick_no == 35) host.wm().move(w2, {40, 30});
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }

  // --- byte identity ----------------------------------------------------
  ASSERT_FALSE(direct.media.empty());
  ASSERT_EQ(leaf.media.size(), direct.media.size());
  EXPECT_TRUE(leaf.media == direct.media)
      << "leaf stream diverged from the direct viewer's";
  // Control (SRs) reached the leaf through two relay hops, verbatim.
  ASSERT_FALSE(direct.control.empty());
  EXPECT_TRUE(leaf.control == direct.control);

  // --- zero-copy, zero-encode relays ------------------------------------
  EXPECT_EQ(relay1.stats().payload_bytes_copied, 0u);
  EXPECT_EQ(relay2.stats().payload_bytes_copied, 0u);
  EXPECT_EQ(relay1.stats().upstream_packets, direct.seqs.size());

  // --- sibling-leg isolation did what the script asked -------------------
  // B's losses were healed from relay1's cache; the AH never saw a NACK.
  EXPECT_GT(relay1.stats().rtx_served, 0u);
  EXPECT_EQ(relay1.stats().nacks_upstream, 0u);
  for (std::uint16_t s : b_dropped) {
    EXPECT_TRUE(b.seqs.count(s)) << "seq " << s << " never repaired";
  }
  // B's PLIs were coalesced into the leaf's refresh, one per window.
  EXPECT_EQ(relay1.stats().plis_coalesced, 2u);
  EXPECT_EQ(relay1.stats().plis_upstream, 2u);
  EXPECT_EQ(host.stats().plis_received, 4u);
  // D starved alone: its leg dropped, the leaf's did not.
  EXPECT_GT(relay2.stats().leg_drops_rate, 0u);
  EXPECT_LT(starved.seqs.size(), leaf.seqs.size());
  // The report loop ran: aggregated RRs flowed AH-ward from both relays.
  EXPECT_GT(relay1.stats().rrs_aggregated, 0u);
  EXPECT_GT(relay1.stats().rrs_received, 0u);  // relay2's summaries
}

}  // namespace
}  // namespace ads
