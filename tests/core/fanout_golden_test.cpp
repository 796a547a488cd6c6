// Golden for the shared-encode broadcast fan-out: a 50-tick scripted
// session is run once with all five viewers and once per viewer alone.
// Alone, every cohort has one member and nothing is shared — per-participant
// encoding by construction — so each viewer's wire in the mixed run must
// equal its solo wire, and both must match the committed length and
// FNV-1a-64 digest. The script deliberately exercises the paths where
// sharing could leak between viewers: mixed transports, a cohort-splitting
// codec override, §7 backlog skips, partial TCP writes, §4.3 rate-limited
// leftovers, pointer moves and icon changes, a mid-session PLI full
// refresh, window-manager changes, and MoveRectangle-producing scroll
// workloads. The TCP viewers' wires must also deframe cleanly: Sender
// Reports that come due while a partial write is carried queue behind it
// instead of tearing into a media frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "capture/apps.hpp"
#include "core/app_host.hpp"
#include "rtp/framing.hpp"
#include "rtp/packet_classify.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"

namespace ads {
namespace {

constexpr int kTicks = 50;
constexpr std::size_t kViewers = 5;

/// A viewer's whole captured wire, by length and FNV-1a-64 hash.
struct WireDigest {
  std::size_t bytes = 0;
  std::uint64_t fnv1a64 = 0;
};

/// Committed digests of each viewer's wire. Any change to encoder output or
/// packetisation must re-baseline them deliberately.
constexpr std::array<WireDigest, kViewers> kGoldenWires = {{
    {67041, 0x1f10fb6614d7f13bull},  // 0: TCP
    {65207, 0xb47495eb4332ddb5ull},  // 1: TCP, backlog spike + partial writes
    {62998, 0x0c097952068b5789ull},  // 2: UDP, mid-session PLI
    {66275, 0x5a11ef2c74d66c53ull},  // 3: UDP, DCT
    {63200, 0xd2943bd8f508c883ull},  // 4: UDP
}};

WireDigest digest(const Bytes& wire) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : wire) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return {wire.size(), h};
}

struct GoldenResult {
  std::vector<Bytes> wires = std::vector<Bytes>(kViewers);
  AppHost::Stats stats;
};

/// Run the script with every viewer, or with viewer `solo` alone (the
/// others' wires stay empty).
GoldenResult run_golden(std::optional<std::size_t> solo = std::nullopt) {
  const auto present = [solo](std::size_t i) { return !solo || *solo == i; };

  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  // Refill below one MTU per tick: UDP viewers hit §4.3 rate skips and
  // carry packetise leftovers across ticks.
  opts.link.rate_bps = 80'000;
  opts.link.burst_bytes = 16 * 1024;
  opts.region_band_rows = 64;
  opts.frame_interval_us = sim_ms(100);
  opts.sr_interval_us = sim_ms(500);
  AppHost host(loop, opts);

  const WindowId w1 = host.wm().create({0, 0, 200, 160}, 1);
  const WindowId w2 = host.wm().create({60, 40, 240, 180}, 1);
  host.capturer().attach(w1, std::make_unique<TerminalApp>(200, 160, 5));
  host.capturer().attach(w2, std::make_unique<DocumentApp>(240, 180, 9));

  GoldenResult out;
  int tick_no = 0;

  // A TCP viewer's transport: keep the first `allow` bytes of one gather
  // offer and return how many that was.
  auto capture_stream = [&out](std::size_t i, std::span<const BytesView> parts,
                               std::size_t allow) {
    std::size_t taken = 0;
    for (const BytesView& part : parts) {
      const std::size_t n = std::min(allow - taken, part.size());
      out.wires[i].insert(out.wires[i].end(), part.begin(),
                          part.begin() + static_cast<std::ptrdiff_t>(n));
      taken += n;
    }
    return taken;
  };

  // Viewer 0: healthy TCP.
  if (present(0)) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kTcp;
    ep.write_gather = [&](std::span<const BytesView> parts) {
      return capture_stream(0, parts, SIZE_MAX);
    };
    ep.backlog = [] { return std::size_t{0}; };
    host.add_participant(std::move(ep));
  }

  // Viewer 1: flaky TCP — §7 backlog spike on ticks 10..15, partial writes
  // on ticks 20..23 (at most 96 bytes of each offer; the rest rides the
  // carry).
  if (present(1)) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kTcp;
    ep.write_gather = [&](std::span<const BytesView> parts) {
      const bool partial = tick_no >= 20 && tick_no < 24;
      return capture_stream(1, parts, partial ? 96 : SIZE_MAX);
    };
    ep.backlog = [&tick_no] {
      return (tick_no >= 10 && tick_no < 16) ? std::size_t{1} << 20
                                             : std::size_t{0};
    };
    host.add_participant(std::move(ep));
  }

  // Viewers 2..4: UDP. Viewer 3 negotiates DCT — its own cohort.
  std::array<ParticipantId, kViewers> ids{};  // 0 = absent
  for (std::size_t i = 2; i < kViewers; ++i) {
    if (!present(i)) continue;
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUdp;
    ep.send_packet_batch = [&, i](std::span<const PacketView> pkts) {
      for (const PacketView& v : pkts) v.serialize_into(out.wires[i]);
      return pkts.size();
    };
    ep.send_datagram = [&, i](BytesView d) {
      out.wires[i].insert(out.wires[i].end(), d.begin(), d.end());
      return true;
    };
    ids[i] = host.add_participant(std::move(ep));
  }
  if (ids[3] != 0) host.set_participant_codec(ids[3], ContentPt::kDct);

  const Image icon(6, 9, Pixel{255, 0, 0, 255});
  for (tick_no = 0; tick_no < kTicks; ++tick_no) {
    if (tick_no == 2) {
      // UDP viewers late-join via PLI (§4.3).
      for (ParticipantId id : ids) {
        if (id != 0) host.on_uplink_packet(id, PictureLossIndication{}.serialize());
      }
    }
    if (tick_no == 7) host.set_pointer({50, 60});
    if (tick_no == 20 && ids[2] != 0) {
      // Mid-session refresh for one UDP viewer.
      host.on_uplink_packet(ids[2], PictureLossIndication{}.serialize());
    }
    if (tick_no == 23) host.set_pointer({80, 90}, &icon);
    if (tick_no == 31) host.set_pointer({10, 10});
    if (tick_no == 35) host.wm().move(w2, {40, 30});  // WMI resend
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }

  out.stats = host.stats();
  return out;
}

/// Deframe one TCP viewer's wire: every RFC 4571 frame parses as remoting
/// RTP or as RTCP, RTP sequence numbers are consecutive, and no bytes are
/// left over.
void expect_clean_stream(const Bytes& wire, std::size_t viewer) {
  StreamDeframer deframer;
  deframer.feed(wire);
  std::size_t rtp = 0;
  std::size_t rtcp = 0;
  std::optional<std::uint16_t> last_seq;
  while (auto frame = deframer.next()) {
    const PacketKind kind = classify_packet(*frame);
    if (kind == PacketKind::kRtcp) {
      EXPECT_TRUE(parse_rtcp_compound(*frame).ok()) << "viewer " << viewer;
      ++rtcp;
      continue;
    }
    ASSERT_EQ(kind, PacketKind::kRtp) << "viewer " << viewer << " frame "
                                      << rtp + rtcp << " is neither RTP nor RTCP";
    auto pkt = RtpPacket::parse(*frame);
    ASSERT_TRUE(pkt.ok()) << "viewer " << viewer;
    EXPECT_EQ(pkt->payload_type, kRemotingPayloadType) << "viewer " << viewer;
    if (last_seq) {
      EXPECT_EQ(pkt->sequence, static_cast<std::uint16_t>(*last_seq + 1))
          << "viewer " << viewer;
    }
    last_seq = pkt->sequence;
    ++rtp;
  }
  EXPECT_EQ(deframer.pending_bytes(), 0u) << "viewer " << viewer;
  EXPECT_GT(rtp, 0u) << "viewer " << viewer;
  EXPECT_GT(rtcp, 0u) << "viewer " << viewer;
}

TEST(FanoutGolden, SharedFanoutIsByteIdenticalPerParticipant) {
  const GoldenResult mixed = run_golden();
  std::vector<GoldenResult> solo;
  for (std::size_t i = 0; i < kViewers; ++i) solo.push_back(run_golden(i));

  AppHost::Stats solo_sum;
  for (std::size_t i = 0; i < kViewers; ++i) {
    ASSERT_FALSE(mixed.wires[i].empty()) << "viewer " << i << " got nothing";
    ASSERT_EQ(mixed.wires[i].size(), solo[i].wires[i].size())
        << "viewer " << i << " wire length diverged from its solo run";
    EXPECT_TRUE(mixed.wires[i] == solo[i].wires[i])
        << "viewer " << i << " wire bytes diverged from its solo run";
    const WireDigest d = digest(mixed.wires[i]);
    EXPECT_EQ(d.bytes, kGoldenWires[i].bytes) << "viewer " << i;
    EXPECT_EQ(d.fnv1a64, kGoldenWires[i].fnv1a64)
        << "viewer " << i << " digest 0x" << std::hex << d.fnv1a64;

    // Alone, nothing is shared.
    const AppHost::Stats& s = solo[i].stats;
    EXPECT_EQ(s.fanout_encodes_shared, 0u) << "viewer " << i;
    solo_sum.region_updates_sent += s.region_updates_sent;
    solo_sum.move_rectangles_sent += s.move_rectangles_sent;
    solo_sum.rtp_packets_sent += s.rtp_packets_sent;
    solo_sum.bytes_sent += s.bytes_sent;
    solo_sum.payload_bytes_copied += s.payload_bytes_copied;
  }
  // Viewers 0 and 1 are TCP; viewer 1's partial writes overlap an SR.
  for (std::size_t i = 0; i < 2; ++i) expect_clean_stream(mixed.wires[i], i);

  // The script really exercised the interesting paths…
  EXPECT_GT(mixed.stats.move_rectangles_sent, 0u);
  EXPECT_GT(mixed.stats.frames_skipped_backlog, 0u);
  EXPECT_GT(mixed.stats.frames_skipped_rate, 0u);
  EXPECT_GT(mixed.stats.pointer_msgs_sent, 0u);
  EXPECT_GT(mixed.stats.plis_received, 0u);
  // …and the messaging totals are the solo runs' sums.
  EXPECT_EQ(mixed.stats.region_updates_sent, solo_sum.region_updates_sent);
  EXPECT_EQ(mixed.stats.move_rectangles_sent, solo_sum.move_rectangles_sent);
  EXPECT_EQ(mixed.stats.rtp_packets_sent, solo_sum.rtp_packets_sent);
  EXPECT_EQ(mixed.stats.bytes_sent, solo_sum.bytes_sent);

  // The mixed run actually shared work: multiple same-operating-point
  // viewers per tick, so sharing saved real encode requests.
  EXPECT_GT(mixed.stats.fanout_cohorts, 0u);
  EXPECT_GT(mixed.stats.fanout_encodes_shared, 0u);

  // Zero-copy invariant: each cohort band's fragment stream is serialised
  // at most once — every member's packets are views into that one buffer —
  // so the mixed run stages fewer bytes than the solo runs together.
  // Streams are built lazily, so a band encoded for a cohort whose members
  // all ran out of §4.3 tokens before reaching it is never serialised at
  // all — hence <= rather than ==.
  EXPECT_GT(mixed.stats.band_streams_built, 0u);
  EXPECT_LE(mixed.stats.band_streams_built, mixed.stats.fanout_encodes_unique);
  EXPECT_GT(solo_sum.payload_bytes_copied, mixed.stats.payload_bytes_copied);
  // Every data packet was assembled as a header-plus-view.
  EXPECT_EQ(mixed.stats.packets_built, mixed.stats.rtp_packets_sent);
}

}  // namespace
}  // namespace ads
