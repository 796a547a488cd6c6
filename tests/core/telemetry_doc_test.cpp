// docs/TELEMETRY.md names every metric a session publishes. A short session
// with every metric family on — adaptation, snapshots with a recording,
// UDP/TCP/multicast/relay viewers, a rate-limited relay leg, a TCP relay
// leg and a chaos schedule with every fault class — takes one snapshot, and
// each metric name in it, with its per-id parts written as placeholders,
// must appear in TELEMETRY.md as a plain substring.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "capture/apps.hpp"
#include "chaos/fault_schedule.hpp"
#include "core/session.hpp"

namespace ads {
namespace {

/// Write a metric's per-id parts the way TELEMETRY.md does: rate.p<id>.,
/// relay.rN. and leg<id>.
std::string placeholder_name(const std::string& name) {
  static const std::regex participant(R"(^rate\.p\d+\.)");
  static const std::regex relay(R"(^relay\.r\d+\.)");
  static const std::regex leg(R"(\.leg\d+\.)");
  std::string out = std::regex_replace(name, participant, "rate.p<id>.");
  out = std::regex_replace(out, relay, "relay.rN.");
  return std::regex_replace(out, leg, ".leg<id>.");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(TelemetryDoc, EveryPublishedMetricIsNamedInTelemetryMd) {
  const std::string doc = read_file(std::string(ADS_SOURCE_DIR) + "/docs/TELEMETRY.md");
  ASSERT_FALSE(doc.empty()) << "docs/TELEMETRY.md not found";

  AppHostOptions host_opts;
  host_opts.screen_width = 320;
  host_opts.screen_height = 240;
  host_opts.encode_threads = 0;
  host_opts.link.adaptation.enabled = true;
  host_opts.snapshot.enabled = true;
  host_opts.snapshot.record_path = testing::TempDir() + "ads_telemetry_doc.adsrec";
  SharingSession session(host_opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
  host.capturer().attach(w, std::make_unique<DocumentApp>(320, 240, 5));

  auto& udp = session.add_udp_participant();
  udp.participant->join();
  auto& tcp = session.add_tcp_participant();
  auto& mc = session.add_multicast_session();
  session.add_multicast_member(mc).participant->join();
  auto& root = session.add_relay();
  auto& child = session.add_relay_child(root);
  relay::LegConfig rated;
  rated.rate_bps = 4'000'000;
  session.add_relay_viewer(child, {}, {}, rated).participant->join();
  // The session builds UDP legs only; the TCP leg's gauges need one too.
  Endpoint tcp_leg;
  tcp_leg.kind = Endpoint::Kind::kTcp;
  tcp_leg.write_gather = [](std::span<const BytesView> parts) {
    std::size_t n = 0;
    for (const BytesView& p : parts) n += p.size();
    return n;
  };
  tcp_leg.backlog = [] { return std::size_t{0}; };
  root.node->add_leg(std::move(tcp_leg));

  chaos::FaultSchedule faults(session.loop(), 7, &session.telemetry());
  faults.blackout(*udp.down_udp, sim_ms(300), sim_ms(100));
  faults.burst_loss(*udp.down_udp, sim_ms(500), sim_ms(200));
  faults.bandwidth_collapse(*udp.down_udp, sim_ms(800), sim_ms(200), 500'000,
                            100'000'000);
  faults.stall(*tcp.down_tcp, sim_ms(300), sim_ms(100));
  faults.drop(*tcp.down_tcp, sim_ms(1'500));
  faults.relay_stall(sim_ms(400), sim_ms(100),
                     [&root](bool stalled) { root.node->set_stalled(stalled); });
  faults.relay_crash(sim_ms(600), sim_ms(300),
                     [&session, &child] { session.crash_relay(child); },
                     [&session, &child] { session.restart_relay(child); });
  faults.join_flood(sim_ms(200), sim_ms(100), 2, [&session](std::size_t) {
    session.add_udp_participant().participant->join();
  });
  host.start();
  session.run_for(sim_sec(2));

  const telemetry::Snapshot snap = session.telemetry().snapshot();
  std::set<std::string> names;
  for (const auto& [name, value] : snap.counters) names.insert(placeholder_name(name));
  for (const auto& [name, value] : snap.gauges) names.insert(placeholder_name(name));
  for (const auto& [name, value] : snap.histograms) names.insert(placeholder_name(name));
  // The session reaches every family, per-id ones included.
  for (const char* expected :
       {"rate.p<id>.budget_bps", "relay.rN.leg<id>.backlog",
        "relay.rN.leg<id>.rate_bps", "snapshot.record.bytes",
        "chaos.relay_crash_episodes", "net.tcp.backlog_bytes"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }

  std::string missing;
  for (const std::string& name : names) {
    if (doc.find(name) == std::string::npos) missing += "\n  " + name;
  }
  EXPECT_TRUE(missing.empty()) << "not named in docs/TELEMETRY.md:" << missing;
  std::remove(host_opts.snapshot.record_path.c_str());
}

}  // namespace
}  // namespace ads
