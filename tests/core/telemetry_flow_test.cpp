// End-to-end telemetry: one 50-tick AppHost session over a lossy UDP link
// produces a single Snapshot whose counters satisfy cross-layer invariants
// (AH ↔ encoder ↔ cache ↔ rtx ↔ net), and the whole snapshot — spans
// included — is bit-reproducible across runs.
#include <gtest/gtest.h>

#include <string>

#include "core/session.hpp"
#include "telemetry/export.hpp"

namespace ads {
namespace {

AppHostOptions host_options() {
  AppHostOptions opts;
  opts.screen_width = 320;
  opts.screen_height = 240;
  opts.frame_interval_us = sim_ms(100);
  opts.trace_capacity = 4096;  // hold every span of a 50-tick run
  return opts;
}

UdpLinkConfig lossy_link() {
  UdpLinkConfig link;
  link.down.delay_us = 2000;
  link.down.bandwidth_bps = 50'000'000;
  link.down.loss = 0.10;
  link.down.seed = 77;
  link.up.delay_us = 2000;  // clean feedback path
  return link;
}

/// Runs the canonical 50-tick lossy session to completion (drained) and
/// returns the session for inspection.
telemetry::Snapshot run_session(std::string* json_out = nullptr) {
  SharingSession session(host_options());
  const WindowId w = session.host().wm().create({0, 0, 160, 120}, 1);
  session.host().capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 5));

  ParticipantOptions popts;
  popts.send_nacks = true;
  auto& conn = session.add_udp_participant(popts, lossy_link());
  conn.participant->join();
  session.host().start();
  session.run_for(sim_sec(5));  // 50 ticks at 100 ms
  session.host().stop();
  session.run_for(sim_sec(2));  // drain in-flight datagrams and repairs

  telemetry::Snapshot snap = session.telemetry().snapshot();
  if (json_out != nullptr) *json_out = telemetry::to_json(snap);

  // Registry totals mirror the ad-hoc structs exactly (collector pattern).
  EXPECT_EQ(snap.counter("ah.frames_captured"),
            session.host().stats().frames_captured);
  EXPECT_EQ(snap.counter("ah.rtp_packets_sent"),
            session.host().stats().rtp_packets_sent);
  EXPECT_EQ(snap.counter("participant.nacks_sent"),
            conn.participant->stats().nacks_sent);
  EXPECT_EQ(snap.counter("net.udp.lost"),
            conn.down_udp->stats().lost + conn.up_udp->stats().lost);
  return snap;
}

TEST(TelemetryFlow, CrossLayerInvariantsAfterLossySession) {
  const telemetry::Snapshot snap = run_session();

  EXPECT_EQ(snap.counter("ah.frames_captured"), 50u);

  // Encoder vs cache: every requested band either hit the cache or ran a
  // codec, and the cache (enabled by default) saw every request.
  const std::uint64_t requested = snap.counter("encoder.bands_requested");
  EXPECT_GT(requested, 0u);
  EXPECT_EQ(requested,
            snap.counter("cache.hits") + snap.counter("cache.misses"));
  EXPECT_EQ(snap.counter("encoder.bands_encoded"), snap.counter("cache.misses"));
  EXPECT_GE(snap.gauge("encoder.queue_depth_peak"), 1);

  // Net conservation: with duplication off and the loop drained, every
  // datagram offered to a UDP channel was delivered, randomly lost, or
  // tail-dropped — nothing in flight, nothing unaccounted.
  EXPECT_EQ(snap.counter("net.udp.duplicated"), 0u);
  EXPECT_EQ(snap.counter("net.udp.sent"),
            snap.counter("net.udp.delivered") + snap.counter("net.udp.lost") +
                snap.counter("net.udp.queue_dropped"));
  EXPECT_GT(snap.counter("net.udp.lost"), 0u);  // the link really was lossy

  // Repair loop: losses → NACKs → retransmission-cache hits → repairs.
  // The feedback path is clean, so every NACK sent arrived.
  EXPECT_GT(snap.counter("participant.nacks_sent"), 0u);
  EXPECT_EQ(snap.counter("ah.nacks_received"),
            snap.counter("participant.nacks_sent"));
  // The rate bucket is unlimited here, so every served NACK seq that was
  // still cached went straight out as a retransmission.
  EXPECT_EQ(snap.counter("ah.retransmissions_sent"), snap.counter("rtx.hits"));
  EXPECT_GT(snap.counter("rtx.hits"), 0u);

  // The shared queue-delay histogram saw every datagram the channels took
  // (loss happens after queueing, so lost datagrams are observed too).
  const auto it = snap.histograms.find("net.udp.queue_delay_us");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count,
            snap.counter("net.udp.sent") - snap.counter("net.udp.queue_dropped"));

  EXPECT_EQ(snap.gauge("ah.participants"), 1);
}

TEST(TelemetryFlow, TickPipelineSpansAreRecorded) {
  const telemetry::Snapshot snap = run_session();
  ASSERT_FALSE(snap.spans.empty());

  std::uint64_t ticks = 0, captures = 0, damages = 0, distributes = 0,
                encodes = 0, packetises = 0, rtcps = 0;
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const telemetry::SpanRecord& s : snap.spans) {
    EXPECT_LE(s.begin_us, s.end_us);
    if (!first) {
      EXPECT_GT(s.seq, prev_seq);  // completion order preserved
    }
    prev_seq = s.seq;
    first = false;
    const std::string_view name = s.name;
    ticks += name == "ah.tick";
    captures += name == "ah.capture";
    damages += name == "ah.damage";
    distributes += name == "ah.distribute";
    encodes += name == "ah.encode";
    packetises += name == "ah.packetise";
    rtcps += name == "ah.rtcp";
  }
  // One of each per tick (sub-spans close before their tick closes).
  EXPECT_EQ(ticks, 50u);
  EXPECT_EQ(captures, 50u);
  EXPECT_EQ(damages, 50u);
  EXPECT_EQ(distributes, 50u);
  // Encode/packetise run once per distribute stage, and the SR cadence
  // fired at least once.
  EXPECT_GT(encodes, 0u);
  EXPECT_EQ(encodes, packetises);
  EXPECT_GE(rtcps, 4u);  // 1 s cadence over a 5 s run
}

// The snapshot.* / join.* families (docs/TELEMETRY.md): registry totals
// mirror the SnapshotService and AH structs exactly, and the flash-crowd
// counters satisfy their cross-layer arithmetic after a join wave.
TEST(TelemetryFlow, SnapshotAndJoinFamiliesSatisfyInvariants) {
  AppHostOptions opts = host_options();
  opts.snapshot.enabled = true;
  opts.snapshot.refresh_interval_us = sim_ms(300);
  SharingSession session(opts);
  AppHost& host = session.host();
  const WindowId w = host.wm().create({0, 0, 160, 120}, 1);
  host.capturer().attach(w, std::make_unique<TerminalApp>(160, 120, 3));
  host.start();
  session.run_for(sim_ms(500));

  ParticipantOptions popts;
  popts.starvation_timeout_us = 0;  // scripted wave: no organic re-PLIs
  std::vector<SharingSession::Connection*> crowd;
  for (int i = 0; i < 4; ++i) {
    crowd.push_back(&session.add_udp_participant(popts, UdpLinkConfig{}));
  }
  for (auto* c : crowd) c->participant->join();
  session.run_for(sim_sec(2));
  host.stop();
  session.run_for(sim_sec(1));

  const telemetry::Snapshot snap = session.telemetry().snapshot();
  const auto& sn = host.snapshot_service().stats();
  const auto& hs = host.stats();

  // Collector pattern: the registry mirrors the structs verbatim.
  EXPECT_EQ(snap.counter("snapshot.windows_opened"), sn.windows_opened);
  EXPECT_EQ(snap.counter("snapshot.bundles_built"), sn.bundles_built);
  EXPECT_EQ(snap.counter("snapshot.bundles_served"), sn.bundles_served);
  EXPECT_EQ(snap.counter("snapshot.plis_absorbed"), sn.plis_absorbed);
  EXPECT_EQ(snap.counter("snapshot.encodes_saved"), sn.encodes_saved);
  EXPECT_EQ(snap.counter("join.admissions"), hs.join_admissions);
  EXPECT_EQ(snap.counter("join.shared_refreshes"), hs.join_shared_refreshes);
  EXPECT_EQ(snap.counter("join.fallback_refreshes"),
            hs.join_fallback_refreshes);
  EXPECT_EQ(snap.gauge("snapshot.live_bundles"),
            static_cast<std::int64_t>(host.snapshot_service().bundle_count()));

  // The wave really went through the snapshot path.
  EXPECT_GT(snap.counter("snapshot.windows_opened"), 0u);
  EXPECT_GT(snap.counter("snapshot.bundles_built"), 0u);
  EXPECT_EQ(snap.counter("join.admissions"), 4u);

  // Cross-layer arithmetic: with snapshots on, every admission is served
  // either from a bundle or through the §4.4 fallback — never both, never
  // neither. One wave == one window, and every received PLI either opened
  // a window or was absorbed into one.
  EXPECT_EQ(snap.counter("join.admissions"),
            snap.counter("join.shared_refreshes") +
                snap.counter("join.fallback_refreshes"));
  EXPECT_EQ(snap.counter("join.waves"), snap.counter("snapshot.windows_opened"));
  EXPECT_LE(snap.counter("snapshot.windows_closed"),
            snap.counter("snapshot.windows_opened"));
  EXPECT_GE(snap.counter("snapshot.bundles_served"),
            snap.counter("snapshot.bundles_built"));
  EXPECT_GE(snap.counter("snapshot.windows_opened") +
                snap.counter("snapshot.plis_absorbed"),
            snap.counter("ah.plis_received"));
}

TEST(TelemetryFlow, SnapshotJsonIsBitReproducible) {
  std::string first, second;
  run_session(&first);
  run_session(&second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TelemetryFlow, InjectedTelemetryIsShared) {
  // A caller-owned Telemetry outlives the session and receives the same
  // wiring as the AH-private default.
  telemetry::Telemetry tel;
  AppHostOptions opts = host_options();
  opts.telemetry = &tel;
  {
    SharingSession session(opts);
    const WindowId w = session.host().wm().create({0, 0, 96, 96}, 1);
    session.host().capturer().attach(w, std::make_unique<SlideshowApp>(96, 96, 3));
    auto& conn = session.add_udp_participant({}, UdpLinkConfig{});
    conn.participant->join();
    session.host().start();
    session.run_for(sim_sec(1));
    EXPECT_EQ(&session.telemetry(), &tel);
    EXPECT_GT(tel.snapshot().counter("ah.frames_captured"), 0u);
  }
  // Session gone: collectors were removed, snapshot() still works and
  // keeps the last published totals.
  const telemetry::Snapshot after = tel.snapshot();
  EXPECT_GT(after.counter("ah.frames_captured"), 0u);
}

}  // namespace
}  // namespace ads
