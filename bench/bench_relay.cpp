// E22 — cascaded relay tier scale-out (ads::relay).
//
// One AH feeds a relay tree (every interior node fans out to `degree`
// children, `depth` relay levels, a constant 4 viewers per leaf relay); the
// comparison arm serves the same total viewer count directly from the AH.
// Everything is wired with in-process callbacks on the virtual clock, so
// the grid is deterministic and the two timing windows are clean:
//
//   ah_ms_per_tick    — host.tick() alone (AH-side CPU; the relay arm's AH
//                       serves exactly one participant at every grid point)
//   tier_ms_per_tick  — replaying the AH's staged views into the tree (the
//                       whole cascade's forwarding cost, relay arm only)
//
// The headline claim: AH encode work and AH payload staging stay *flat* in
// the relay arm while served viewers grow multiplicatively with degree and
// depth, and the relays themselves never copy a payload byte. Mid-run every
// viewer sends a PLI and a NACK for the newest sequence, so the report also
// carries the tier's feedback-dedup ratios (subtree PLIs collapse to one
// upstream refresh; NACKs are served from relay caches and never reach the
// AH).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "capture/apps.hpp"
#include "core/app_host.hpp"
#include "relay/relay.hpp"
#include "rtp/rtcp.hpp"

namespace {

using namespace ads;

constexpr int kViewersPerLeaf = 4;
constexpr int kWarmupTicks = 4;
constexpr int kMeasuredTicks = 16;
constexpr int kFeedbackTick = 8;  // measured tick where every viewer NACKs/PLIs

/// A counting viewer: either a relay leg (owner set) or a direct AH
/// participant (owner null, addressed by participant id).
struct Viewer {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::uint16_t last_seq = 0;
  relay::RelayNode* owner = nullptr;
  relay::LegId leg = 0;
  ParticipantId id = 0;
};

struct RelayTree {
  std::vector<std::unique_ptr<relay::RelayNode>> nodes;
  std::vector<std::unique_ptr<Viewer>> viewers;
  relay::RelayNode* root = nullptr;
};

Endpoint viewer_endpoint(Viewer* v) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUdp;
  ep.send_packet_batch = [v](std::span<const PacketView> pkts) {
    for (const PacketView& pkt : pkts) {
      ++v->packets;
      v->bytes += pkt.wire_size();
      v->last_seq = pkt.sequence();
    }
    return pkts.size();
  };
  ep.send_datagram = [v](BytesView d) {
    v->bytes += d.size();
    return true;
  };
  return ep;
}

/// Builds the subtree rooted at `level` and returns its relay.
relay::RelayNode* build_node(EventLoop& loop, RelayTree& tree, int level,
                             int depth, int degree) {
  relay::RelayOptions opts;
  opts.report_interval_us = sim_ms(200);
  opts.seed = 0xBE1A + tree.nodes.size();  // distinct RTCP identity per node
  tree.nodes.push_back(std::make_unique<relay::RelayNode>(loop, opts));
  relay::RelayNode* node = tree.nodes.back().get();
  if (level < depth) {
    for (int c = 0; c < degree; ++c) {
      relay::RelayNode* child = build_node(loop, tree, level + 1, depth, degree);
      Endpoint ep;
      ep.kind = Endpoint::Kind::kUdp;
      ep.send_packet_batch = [child](std::span<const PacketView> pkts) {
        return child->on_upstream_batch(pkts);
      };
      ep.send_datagram = [child](BytesView d) {
        child->on_upstream_datagram(Bytes(d.begin(), d.end()));
        return true;
      };
      const relay::LegId leg = node->add_leg(std::move(ep));
      child->set_upstream([node, leg](BytesView p) {
        node->on_leg_packet(leg, p);
        return true;
      });
    }
  } else {
    for (int i = 0; i < kViewersPerLeaf; ++i) {
      tree.viewers.push_back(std::make_unique<Viewer>());
      Viewer* v = tree.viewers.back().get();
      v->owner = node;
      v->leg = node->add_leg(viewer_endpoint(v));
    }
  }
  node->start();
  return node;
}

int pow_int(int base, int exp) {
  int r = 1;
  for (int i = 0; i < exp; ++i) r *= base;
  return r;
}

void relay_scaleout(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int degree = static_cast<int>(state.range(1));
  const bool relay_arm = state.range(2) != 0;
  const int total_viewers = kViewersPerLeaf * pow_int(degree, depth - 1);

  double ah_ms = 0.0;
  double tier_ms = 0.0;
  AppHost::Stats before;
  AppHost::Stats after;
  std::uint64_t relays = 0;
  std::uint64_t relay_bytes_copied = 0;
  std::uint64_t relay_forwarded = 0;
  std::uint64_t rtx_served = 0;
  std::uint64_t nack_seqs_received = 0;
  std::uint64_t nack_seqs_at_ah = 0;
  std::uint64_t plis_injected = 0;
  std::uint64_t plis_at_ah = 0;
  std::uint64_t viewer_packets = 0;

  for (auto _ : state) {
    state.PauseTiming();
    EventLoop loop;
    AppHostOptions opts;
    opts.screen_width = 320;
    opts.screen_height = 240;
    opts.region_band_rows = 64;
    opts.frame_interval_us = sim_ms(100);
    opts.sr_interval_us = sim_ms(500);
    AppHost host(loop, opts);
    const WindowId w = host.wm().create({0, 0, 320, 240}, 1);
    host.capturer().attach(w, std::make_unique<TerminalApp>(320, 240, 5));

    // The AH's staged output for the relay arm: views are refcount bumps, so
    // buffering a tick's batch before replaying it into the tree costs no
    // payload copies and lets us time the AH and the tier separately.
    std::vector<PacketView> staged_views;
    std::vector<Bytes> staged_ctrl;
    RelayTree tree;
    std::vector<std::unique_ptr<Viewer>> direct_viewers;
    if (relay_arm) {
      tree.root = build_node(loop, tree, 1, depth, degree);
      Endpoint ep;
      ep.kind = Endpoint::Kind::kUdp;
      ep.send_packet_batch = [&staged_views](std::span<const PacketView> pkts) {
        staged_views.insert(staged_views.end(), pkts.begin(), pkts.end());
        return pkts.size();
      };
      ep.send_datagram = [&staged_ctrl](BytesView d) {
        staged_ctrl.emplace_back(d.begin(), d.end());
        return true;
      };
      const ParticipantId root_id = host.add_participant(std::move(ep));
      tree.root->set_upstream([&host, root_id](BytesView p) {
        host.on_uplink_packet(root_id, p);
        return true;
      });
    } else {
      for (int i = 0; i < total_viewers; ++i) {
        direct_viewers.push_back(std::make_unique<Viewer>());
        Viewer* v = direct_viewers.back().get();
        v->id = host.add_participant(viewer_endpoint(v));
      }
    }

    const auto& viewers = relay_arm ? tree.viewers : direct_viewers;
    auto inject_plis = [&] {
      PictureLossIndication pli;
      pli.sender_ssrc = 0x1EAF;
      for (const auto& v : viewers) {
        if (v->owner) {
          pli.media_ssrc = v->owner->upstream_ssrc();
          v->owner->on_leg_packet(v->leg, pli.serialize());
        } else {
          host.on_uplink_packet(v->id, pli.serialize());
        }
      }
    };
    auto run_tick = [&](bool measured) {
      const auto t0 = std::chrono::steady_clock::now();
      host.tick();
      const auto t1 = std::chrono::steady_clock::now();
      if (relay_arm) {
        tree.root->on_upstream_batch(staged_views);
        staged_views.clear();
        for (Bytes& d : staged_ctrl) tree.root->on_upstream_datagram(std::move(d));
        staged_ctrl.clear();
      }
      const auto t2 = std::chrono::steady_clock::now();
      if (measured) {
        ah_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
        tier_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
      }
      loop.run_until(loop.now() + opts.frame_interval_us);
    };

    inject_plis();  // every viewer late-joins; the tree collapses the storm
    for (int t = 0; t < kWarmupTicks; ++t) run_tick(false);

    before = host.stats();
    ah_ms = tier_ms = 0.0;
    state.ResumeTiming();
    for (int t = 0; t < kMeasuredTicks; ++t) {
      if (t == kFeedbackTick) {
        // Feedback burst: a PLI from every viewer, and (relay arm) a NACK
        // for the newest sequence — served from the leaf relay's cache.
        plis_injected = viewers.size();
        inject_plis();
        if (relay_arm) {
          for (const auto& v : tree.viewers) {
            const GenericNack nack = GenericNack::for_sequences(
                0x1EAF, v->owner->upstream_ssrc(), {v->last_seq});
            v->owner->on_leg_packet(v->leg, nack.serialize());
          }
        }
      }
      run_tick(true);
    }
    state.PauseTiming();
    after = host.stats();

    relays = tree.nodes.size();
    relay_bytes_copied = relay_forwarded = rtx_served = 0;
    nack_seqs_received = nack_seqs_at_ah = 0;
    for (const auto& node : tree.nodes) {
      const auto& s = node->stats();
      relay_bytes_copied += s.payload_bytes_copied;
      relay_forwarded += s.forwarded_packets;
      rtx_served += s.rtx_served;
      nack_seqs_received += s.nack_seqs_received;
    }
    if (relay_arm) nack_seqs_at_ah = tree.root->stats().nack_seqs_upstream;
    plis_at_ah = after.plis_received - before.plis_received;
    viewer_packets = 0;
    for (const auto& v : viewers) viewer_packets += v->packets;
    state.ResumeTiming();
  }

  const double ticks = kMeasuredTicks;
  const auto delta = [&](std::uint64_t AppHost::Stats::*m) {
    return static_cast<double>(after.*m - before.*m);
  };
  state.counters["viewers_served"] = total_viewers;
  state.counters["relays"] = static_cast<double>(relays);
  state.counters["ah_ms_per_tick"] = ah_ms / ticks;
  state.counters["tier_ms_per_tick"] = tier_ms / ticks;
  state.counters["ah_encodes_unique_per_tick"] =
      delta(&AppHost::Stats::fanout_encodes_unique) / ticks;
  state.counters["ah_bytes_copied_per_tick"] =
      delta(&AppHost::Stats::payload_bytes_copied) / ticks;
  state.counters["ah_packets_built_per_tick"] =
      delta(&AppHost::Stats::packets_built) / ticks;
  state.counters["ah_bytes_sent_per_tick"] = delta(&AppHost::Stats::bytes_sent) / ticks;
  state.counters["relay_payload_bytes_copied"] =
      static_cast<double>(relay_bytes_copied);
  state.counters["relay_forwarded_packets"] = static_cast<double>(relay_forwarded);
  state.counters["viewer_packets_total"] = static_cast<double>(viewer_packets);
  state.counters["plis_injected"] = static_cast<double>(plis_injected);
  state.counters["plis_at_ah"] = static_cast<double>(plis_at_ah);
  state.counters["pli_dedup_ratio"] =
      plis_at_ah ? static_cast<double>(plis_injected) /
                       static_cast<double>(plis_at_ah)
                 : 0.0;
  state.counters["nack_seqs_received"] = static_cast<double>(nack_seqs_received);
  state.counters["nack_seqs_at_ah"] = static_cast<double>(nack_seqs_at_ah);
  state.counters["rtx_served"] = static_cast<double>(rtx_served);
  state.counters["nack_dedup_ratio"] =
      nack_seqs_received
          ? static_cast<double>(nack_seqs_received) /
                static_cast<double>(nack_seqs_at_ah ? nack_seqs_at_ah : 1)
          : 0.0;
  bench::record_counters(
      "relay",
      std::string("E22/relay/") + (relay_arm ? "tree" : "direct") + "/deg" +
          std::to_string(degree) + "/depth" + std::to_string(depth),
      state.counters);
}

}  // namespace

BENCHMARK(relay_scaleout)
    ->Name("E22/relay")
    ->ArgsProduct({{1, 2, 3}, {1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
