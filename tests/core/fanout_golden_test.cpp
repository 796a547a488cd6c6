// Golden A/B for the shared-encode broadcast fan-out: a 50-tick scripted
// session is run twice — once through the cohort path (shared_fanout on)
// and once through the per-participant reference path — and every
// participant's wire bytes must match exactly. The script deliberately
// exercises the paths where the two implementations could diverge: mixed
// transports, a cohort-splitting codec override, §7 backlog skips, partial
// TCP writes, §4.3 rate-limited leftovers, pointer moves and icon changes,
// a mid-session PLI full refresh, window-manager changes, and
// MoveRectangle-producing scroll workloads. The TCP viewers' wires must
// also deframe cleanly: Sender Reports that come due while a partial write
// is carried queue behind it instead of tearing into a media frame.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
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

struct GoldenResult {
  std::vector<Bytes> wires = std::vector<Bytes>(kViewers);
  AppHost::Stats stats;
};

GoldenResult run_golden(bool shared_fanout) {
  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.shared_fanout = shared_fanout;
  // Refill below one MTU per tick: UDP viewers hit §4.3 rate skips and
  // carry packetise leftovers across ticks.
  opts.udp_rate_bps = 80'000;
  opts.udp_burst_bytes = 16 * 1024;
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

  auto capture_stream = [&out](std::size_t i, BytesView data,
                               std::size_t accepted) {
    out.wires[i].insert(out.wires[i].end(), data.begin(),
                        data.begin() + static_cast<std::ptrdiff_t>(accepted));
  };

  // Viewer 0: healthy TCP.
  Endpoint ep0;
  ep0.kind = Endpoint::Kind::kTcp;
  ep0.write_stream = [&](BytesView d) {
    capture_stream(0, d, d.size());
    return d.size();
  };
  ep0.backlog = [] { return std::size_t{0}; };
  host.add_participant(std::move(ep0));

  // Viewer 1: flaky TCP — §7 backlog spike on ticks 10..15, partial writes
  // (stream-carry path) on ticks 20..23.
  Endpoint ep1;
  ep1.kind = Endpoint::Kind::kTcp;
  ep1.write_stream = [&](BytesView d) {
    const std::size_t allow =
        (tick_no >= 20 && tick_no < 24) ? std::min<std::size_t>(d.size(), 96)
                                        : d.size();
    capture_stream(1, d, allow);
    return allow;
  };
  ep1.backlog = [&tick_no] {
    return (tick_no >= 10 && tick_no < 16) ? std::size_t{1} << 20
                                           : std::size_t{0};
  };
  host.add_participant(std::move(ep1));

  // Viewers 2..4: UDP. Viewer 3 negotiates DCT — its own cohort.
  std::vector<ParticipantId> udp_ids;
  for (std::size_t i = 2; i < kViewers; ++i) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUdp;
    ep.send_datagram = [&, i](BytesView d) {
      capture_stream(i, d, d.size());
      return true;
    };
    udp_ids.push_back(host.add_participant(std::move(ep)));
  }
  host.set_participant_codec(udp_ids[1], ContentPt::kDct);

  const Image icon(6, 9, Pixel{255, 0, 0, 255});
  for (tick_no = 0; tick_no < kTicks; ++tick_no) {
    if (tick_no == 2) {
      // UDP viewers late-join via PLI (§4.3).
      for (ParticipantId id : udp_ids) {
        PictureLossIndication pli;
        host.on_uplink_packet(id, pli.serialize());
      }
    }
    if (tick_no == 7) host.set_pointer({50, 60});
    if (tick_no == 20) {
      PictureLossIndication pli;  // mid-session refresh for one UDP viewer
      host.on_uplink_packet(udp_ids[0], pli.serialize());
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
  const GoldenResult shared = run_golden(true);
  const GoldenResult legacy = run_golden(false);

  for (std::size_t i = 0; i < kViewers; ++i) {
    ASSERT_FALSE(shared.wires[i].empty()) << "viewer " << i << " got nothing";
    ASSERT_EQ(shared.wires[i].size(), legacy.wires[i].size())
        << "viewer " << i << " wire length diverged";
    EXPECT_TRUE(shared.wires[i] == legacy.wires[i])
        << "viewer " << i << " wire bytes diverged";
  }
  // Viewers 0 and 1 are TCP; viewer 1's partial writes overlap an SR.
  for (std::size_t i = 0; i < 2; ++i) expect_clean_stream(shared.wires[i], i);

  // The script really exercised the interesting paths…
  EXPECT_GT(legacy.stats.move_rectangles_sent, 0u);
  EXPECT_GT(legacy.stats.frames_skipped_backlog, 0u);
  EXPECT_GT(legacy.stats.frames_skipped_rate, 0u);
  EXPECT_GT(legacy.stats.pointer_msgs_sent, 0u);
  EXPECT_GT(legacy.stats.plis_received, 0u);
  // …and the messaging totals agree between the two paths.
  EXPECT_EQ(shared.stats.region_updates_sent, legacy.stats.region_updates_sent);
  EXPECT_EQ(shared.stats.move_rectangles_sent, legacy.stats.move_rectangles_sent);
  EXPECT_EQ(shared.stats.rtp_packets_sent, legacy.stats.rtp_packets_sent);
  EXPECT_EQ(shared.stats.bytes_sent, legacy.stats.bytes_sent);

  // The cohort path actually shared work: multiple same-operating-point
  // viewers per tick, so unique encodes stay within cohorts × bands and
  // sharing saved real encode requests.
  EXPECT_GT(shared.stats.fanout_cohorts, 0u);
  EXPECT_GT(shared.stats.fanout_encodes_shared, 0u);
  EXPECT_EQ(legacy.stats.fanout_cohorts, 0u);

  // Zero-copy invariant: the shared path serialises each cohort band's
  // fragment stream at most once — every member's packets are views into
  // that one buffer — while the legacy reference builds a stream per
  // participant (and never touches the cohort counter). Streams are built
  // lazily, so a band encoded for a cohort whose members all ran out of
  // §4.3 tokens before reaching it is never serialised at all — hence <=
  // rather than ==.
  EXPECT_GT(shared.stats.band_streams_built, 0u);
  EXPECT_LE(shared.stats.band_streams_built, shared.stats.fanout_encodes_unique);
  EXPECT_EQ(legacy.stats.band_streams_built, 0u);
  EXPECT_GT(legacy.stats.payload_bytes_copied, shared.stats.payload_bytes_copied);
  // Every data packet was assembled as a header-plus-view on both paths.
  EXPECT_EQ(shared.stats.packets_built, shared.stats.rtp_packets_sent);
  EXPECT_EQ(legacy.stats.packets_built, legacy.stats.rtp_packets_sent);
}

}  // namespace
}  // namespace ads
