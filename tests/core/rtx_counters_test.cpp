// Retransmission counters through churn: one session in which the AH and
// three relays answer NACKs from their caches while a direct viewer is
// removed, a relay is re-parented (its cache drops at the epoch change) and
// another relay crashes and restarts cold. The rtx.* family must keep three
// promises at every snapshot:
//   * a hit is a repair sent: rtx.hits == ah.retransmissions_sent and
//     relay.rN.rtx.hits == relay.rN.rtx_served;
//   * no rtx counter ever runs backwards, whoever departed;
//   * the totals are deterministic (pinned exactly at the end).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "capture/apps.hpp"
#include "core/session.hpp"

namespace ads {
namespace {

AppHostOptions host_options() {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  // Small stores, so misses and evictions happen within a few seconds. The
  // AH's is half the relays': viewers NACK each loss about once, so only a
  // store this small still sees a NACK for a packet it has evicted.
  opts.retransmission_cache = 8;
  return opts;
}

relay::RelayOptions relay_options() {
  relay::RelayOptions opts;
  opts.report_interval_us = sim_ms(200);
  opts.nack_flush_us = sim_ms(5);
  opts.nack_holdoff_us = sim_ms(100);
  opts.retransmission_cache = 16;
  return opts;
}

UdpLinkConfig lossy(double loss, std::uint64_t seed) {
  UdpLinkConfig link;
  link.down.delay_us = sim_ms(30);
  link.down.bandwidth_bps = 50'000'000;
  link.down.loss = loss;
  link.down.seed = seed;
  link.up.delay_us = sim_ms(30);
  link.up.seed = seed + 1;
  return link;
}

ParticipantOptions viewer_options() {
  ParticipantOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.send_nacks = true;
  return opts;
}

bool is_rtx_counter(const std::string& name) {
  return name.rfind("rtx.", 0) == 0 ||
         (name.rfind("relay.", 0) == 0 && name.find(".rtx.") != std::string::npos);
}

/// Checks the hit identities on one snapshot and that no rtx counter fell
/// since `prev`; returns this snapshot's rtx counters.
std::map<std::string, std::uint64_t> check_snapshot(
    const telemetry::Snapshot& snap,
    const std::map<std::string, std::uint64_t>& prev, const char* phase) {
  EXPECT_EQ(snap.counter("rtx.hits"), snap.counter("ah.retransmissions_sent"))
      << phase;
  for (int n = 1; n <= 3; ++n) {
    const std::string p = "relay.r" + std::to_string(n) + ".";
    EXPECT_EQ(snap.counter(p + "rtx.hits"), snap.counter(p + "rtx_served"))
        << phase << " " << p;
  }
  std::map<std::string, std::uint64_t> now;
  for (const auto& [name, value] : snap.counters) {
    if (is_rtx_counter(name)) now[name] = value;
  }
  for (const auto& [name, value] : prev) {
    EXPECT_TRUE(now.count(name) != 0) << phase << " lost " << name;
    EXPECT_GE(now[name], value) << phase << " " << name << " ran backwards";
  }
  return now;
}

TEST(RtxCounters, MonotoneAndExactThroughRemovalReparentAndRestart) {
  SharingSession session(host_options());
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(320, 240, 5));

  auto& direct = session.add_udp_participant(viewer_options(), lossy(0.08, 11));
  auto& leaver = session.add_udp_participant(viewer_options(), lossy(0.08, 21));
  // r1 hears the AH over a lossy link, so it gap-NACKs upstream; r2 hangs
  // below it over another lossy hop; r3 is the re-parenting target.
  auto& r1 = session.add_relay(relay_options(), lossy(0.05, 31));
  auto& r2 = session.add_relay_child(r1, relay_options(), lossy(0.05, 41));
  auto& r3 = session.add_relay(relay_options(), lossy(0.0, 51));
  auto& v1 = session.add_relay_viewer(r1, viewer_options(), lossy(0.1, 61));
  auto& v2 = session.add_relay_viewer(r2, viewer_options(), lossy(0.1, 71));
  auto& v3 = session.add_relay_viewer(r3, viewer_options(), lossy(0.1, 81));
  for (Participant* p : {direct.participant.get(), leaver.participant.get(),
                         v1.participant.get(), v2.participant.get(),
                         v3.participant.get()}) {
    p->join();
  }
  host.start();

  std::map<std::string, std::uint64_t> seen;
  auto phase = [&](const char* name) {
    seen = check_snapshot(session.telemetry().snapshot(), seen, name);
  };

  session.run_for(sim_sec(2));
  phase("steady");
  ASSERT_GT(host.stats().retransmissions_sent, 0u);

  // A departed participant's repairs stay counted.
  host.remove_participant(leaver.id);
  phase("removed");
  session.run_for(sim_sec(1));
  phase("after removal");

  // Re-parenting begins a new upstream epoch: r2's cache is dropped.
  const std::uint64_t dropped_before = r2.node->stats().cache_dropped;
  session.reparent_relay(r2, &r3);
  EXPECT_GT(r2.node->stats().cache_dropped, dropped_before);
  phase("reparented");
  session.run_for(sim_ms(1500));
  phase("after reparent");

  // A cold crash destroys r1 with its cache; the restart folds its totals.
  session.crash_relay(r1);
  phase("crashed");
  session.run_for(sim_ms(500));
  phase("while down");
  session.restart_relay(r1);
  phase("restarted");
  session.run_for(sim_ms(1500));
  phase("after restart");

  host.stop();
  session.run_for(sim_ms(300));
  phase("final");

  // Every store saw hits, misses and evictions in this run.
  for (const char* p : {"rtx.", "relay.r1.rtx.", "relay.r2.rtx."}) {
    for (const char* c : {"hits", "misses", "evictions"}) {
      EXPECT_GT(seen[std::string(p) + c], 0u) << p << c;
    }
  }
  const std::map<std::string, std::uint64_t> expected = {
      {"rtx.hits", 13},
      {"rtx.misses", 1},
      {"rtx.evictions", 430},
      {"relay.r1.rtx.hits", 14},
      {"relay.r1.rtx.misses", 5},
      {"relay.r1.rtx.evictions", 101},
      {"relay.r2.rtx.hits", 17},
      {"relay.r2.rtx.misses", 2},
      {"relay.r2.rtx.evictions", 124},
      {"relay.r3.rtx.hits", 35},
      {"relay.r3.rtx.misses", 0},
      {"relay.r3.rtx.evictions", 137},
  };
  EXPECT_EQ(seen, expected);
}

}  // namespace
}  // namespace ads
