// Shared-fan-out soak at broadcast scale: 256 UDP participants on the
// cohort path for 20 chaos ticks (datagram loss on a third of the
// endpoints, PLI storms, codec-split cohorts, pointer churn) with the
// parallel encoder's worker pool engaged. Run under TSan this exercises
// the submit-thread/worker hand-off of cohort-shared encodes; the
// functional asserts pin the fan-out accounting invariants and
// pixel-exact convergence for sampled lossless replicas.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "capture/apps.hpp"
#include "core/app_host.hpp"
#include "core/participant.hpp"
#include "image/metrics.hpp"
#include "rtp/rtcp.hpp"

namespace ads {
namespace {

constexpr std::size_t kParticipants = 256;
constexpr int kChaosTicks = 20;
constexpr int kSettleTicks = 8;

TEST(FanoutSoak, SharedFanout256UdpParticipantsUnderChaos) {
  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  // Generous buckets: chaos here is loss/PLI pressure, not rate skips.
  opts.link.rate_bps = 200'000'000;
  opts.link.burst_bytes = 4 * 1024 * 1024;
  AppHost host(loop, opts);

  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(320, 240, 5));

  // Four full replicas on lossless endpoints verify convergence; the other
  // 252 endpoints count datagrams, a third of them dropping packets on
  // chaos ticks. Replica endpoints decode in place (UDP framing).
  std::vector<std::unique_ptr<Participant>> replicas;
  std::vector<ParticipantId> ids;
  std::uint64_t datagrams = 0;
  int tick_no = 0;
  for (std::size_t i = 0; i < kParticipants; ++i) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUdp;
    if (i % 64 == 0) {
      ParticipantOptions popts;
      popts.transport = ParticipantOptions::Transport::kUdp;
      popts.screen_width = 320;
      popts.screen_height = 240;
      auto part = std::make_unique<Participant>(loop, popts);
      Participant* raw = part.get();
      ep.send_packet_batch = [raw](std::span<const PacketView> pkts) {
        for (const PacketView& v : pkts) raw->on_datagram(v.serialize());
        return pkts.size();
      };
      ep.send_datagram = [raw](BytesView d) {
        raw->on_datagram(d);
        return true;
      };
      replicas.push_back(std::move(part));
    } else {
      const bool lossy = (i % 3 == 1);
      const auto accept = [&datagrams, &tick_no, lossy, i] {
        // Chaos ticks drop a sliding third of the lossy endpoints' packets.
        if (lossy && tick_no < kChaosTicks &&
            (tick_no + static_cast<int>(i)) % 3 == 0) {
          return false;
        }
        ++datagrams;
        return true;
      };
      ep.send_packet_batch = [accept](std::span<const PacketView> pkts) {
        std::size_t accepted = 0;
        for (std::size_t k = 0; k < pkts.size(); ++k) accepted += accept();
        return accepted;
      };
      ep.send_datagram = [accept](BytesView) { return accept(); };
    }
    ids.push_back(host.add_participant(std::move(ep)));
  }
  // A codec split keeps at least two cohorts alive the whole run. The
  // replica slots (multiples of 64, also multiples of 4) stay on the
  // lossless non-default codec together.
  for (std::size_t i = 0; i < kParticipants; i += 4) {
    host.set_participant_codec(ids[i], ContentPt::kRle);
  }
  // UDP late-joiners request their first frame via PLI (§4.3); the replica
  // endpoints have no uplink wired, so inject theirs directly.
  for (std::size_t i = 0; i < kParticipants; i += 64) {
    PictureLossIndication pli;
    host.on_uplink_packet(ids[i], pli.serialize());
  }

  for (tick_no = 0; tick_no < kChaosTicks + kSettleTicks; ++tick_no) {
    if (tick_no < kChaosTicks) {
      // PLI storm from a rotating slice: forces full refreshes to fan out
      // through the cohort encoder alongside incremental updates.
      for (std::size_t i = static_cast<std::size_t>(tick_no) * 7;
           i < static_cast<std::size_t>(tick_no) * 7 + 5; ++i) {
        PictureLossIndication pli;
        host.on_uplink_packet(ids[i % kParticipants], pli.serialize());
      }
      host.set_pointer({tick_no * 9, tick_no * 5});
    }
    host.tick();
    loop.run_until(loop.now() + opts.frame_interval_us);
  }

  const AppHost::Stats st = host.stats();
  // Fan-out accounting invariants: the cohort stage actually deduplicated
  // (256 mostly-identical operating points), and unique encodes never
  // exceeded the per-cohort band count.
  EXPECT_GT(st.fanout_cohorts, 0u);
  // With ~64 same-operating-point members per cohort, shared (deduplicated)
  // encode requests must dwarf the unique encodes actually performed.
  EXPECT_GT(st.fanout_encodes_shared, st.fanout_encodes_unique);
  EXPECT_GT(st.plis_received, 0u);
  EXPECT_GT(datagrams, 0u);

  // The sampled lossless replicas converged pixel-exact despite the storm.
  const Image& truth = host.capturer().last_frame();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const Image replica = replicas[i]->screen().crop(truth.bounds());
    EXPECT_EQ(diff_pixel_count(truth, replica), 0) << "replica " << i;
  }
}

}  // namespace
}  // namespace ads
