// One session pass of a workload: a whole SharingSession (AH -> optional
// relays -> participants) on the virtual clock, with the capture clock
// driven from here: loop.run_until(k * frame_interval_us), then
// host.tick(), which is the work AppHost::start() schedules.
//
// Viewer downlinks are always wrapped (viewer_ms_per_s needs them). In the
// traced run relay and AH-uplink receivers are wrapped too. Every wrapper
// forwards to the same public call SharingSession installs.
#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "capture/apps.hpp"
#include "core/session.hpp"
#include "image/metrics.hpp"
#include "util/prng.hpp"

namespace perfbench {

WorkloadSpec workload_by_name(const std::string& name) {
  if (name == "photo") {
    return {.name = "photo", .screen_w = 640, .screen_h = 480,
            .window = {80, 60, 480, 360}, .app = "video", .ticks = 100,
            .udp_viewers = 4};
  }
  if (name == "text_relay") {
    // Relay viewers lose 0.1% of downlink datagrams, not 1%: at 1%
    // participants abandon NACK-repairable gaps (the loss-recovery timer
    // fires while a newer loss is still being repaired), each pulling a
    // full refresh through the tree to all 60 relay viewers, and
    // wall_s_per_sim_s and kbytes_per_viewer_s varied 26-28% with the seed.
    return {.name = "text_relay", .screen_w = 1280, .screen_h = 1024,
            .window = {240, 112, 800, 800}, .app = "document", .ticks = 300,
            .tcp_viewers = 2, .udp_viewers = 2, .child_relays = 4,
            .viewers_per_relay = 15, .relay_viewer_loss = 0.001};
  }
  if (name == "join_churn") {
    // 120 ticks take about 8 s of wall time, so a 12 s run always makes
    // two passes. At 200 ticks a pass took about 12 s, runs made one or two
    // passes by chance, and the second pass of a process reads faster.
    return {.name = "join_churn", .screen_w = 1280, .screen_h = 1024,
            .window = {128, 128, 1024, 768}, .app = "webpage", .ticks = 120,
            .tcp_viewers = 2, .udp_viewers = 2, .churn = true};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool Probe::write_spans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "layer,tick,begin_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << kLayerNames[static_cast<std::size_t>(s.layer)] << ',' << s.tick << ','
        << s.begin_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

namespace {

using namespace ads;

// Drain: kDrainTicks capture ticks on frozen content, then kSettleUs.
constexpr int kDrainTicks = 20;
constexpr SimTime kSettleUs = 500'000;
constexpr int kMaxWarmupTicks = 50;
// Churn schedule: the direct audience joins again every kWaveEvery ticks
// (8 joins per simulated second), none in the last kQuietTicks, each viewer
// leaving kStayTicks plus up to kStayJitterTicks after its join. Waves every
// half second keep join ticks at about a fifth of all ticks, so
// ah_tick_ms_p90 lands inside the join-tick cluster, not on its edge.
constexpr int kWaveEvery = 5;
constexpr int kQuietTicks = 10;
constexpr int kStayTicks = 25;
constexpr int kStayJitterTicks = 10;
constexpr SimTime kEvictAfterUs = 2'500'000;
// Every UDP link, both ways: the 100 Mbit/s of the photo workload. A
// limited link adds the serialisation of the bytes sent to each virtual
// latency, so latencies are not whole multiples of the 20 ms link delay.
constexpr std::uint64_t kLinkBps = 100'000'000;
// Seed streams (derive_seed) besides kPainterStream: churn, one per link.
constexpr std::uint64_t kChurnStream = 2;
constexpr std::uint64_t kLinkStreamBase = 1000;

/// The counters compared across passes and reported per layer, as deltas
/// over the timed run plus drain.
const char* const kCounterNames[] = {
    "ah.bytes_sent",          "ah.rtp_packets_sent",
    "ah.retransmissions_sent", "ah.frames_skipped_backlog",
    "ah.move_rectangles_sent", "encoder.bands_encoded",
    "cache.hits",             "cache.misses",
    "fanout.encodes_shared",  "datapath.payload_bytes_copied",
    "datapath.pool.acquires", "datapath.pool.hits",
    "datapath.pool.allocations", "liveness.evictions",
    "participant.region_updates", "participant.nacks_sent",
    "participant.plis_sent",  "participant.gaps_skipped",
    "participant.decode_errors", "net.udp.lost",
    "net.udp.queue_dropped",  "net.tcp.partial_writes",
    "snapshot.bundles_built", "snapshot.bundles_served",
    "snapshot.encodes_saved", "join.fallback_refreshes",
};

struct Viewer {
  Participant* p = nullptr;
  SharingSession::Connection* conn = nullptr;  ///< null for relay viewers
  bool tcp = false;
  SimTime join_us = 0;
  int leave_tick = -1;  ///< churn workloads only
  bool left = false;
  SimTime left_us = 0;
  std::uint64_t bytes_base = 0;  ///< bytes_received when the timed run began
  Region covered;                ///< applied RegionUpdates since join
  bool framed = false;
};

/// The shared window's last content, unchanging: the drain's painter.
class FrozenApp final : public AppPainter {
 public:
  explicit FrozenApp(const Image& content)
      : AppPainter(content.width(), content.height(), kBlack) {
    content_ = content;
  }
  void tick(std::uint64_t) override {}
  std::string_view name() const override { return "frozen"; }
};

/// Bucket upper bound holding the median of a histogram delta.
double histogram_p50(const telemetry::Snapshot& before,
                     const telemetry::Snapshot& after, const std::string& name) {
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return 0;
  std::vector<std::uint64_t> counts = a->second.counts;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end() && b->second.counts.size() == counts.size()) {
    for (std::size_t i = 0; i < counts.size(); ++i) counts[i] -= b->second.counts[i];
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  std::uint64_t seen = 0;
  const auto& bounds = a->second.bounds;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (2 * seen >= total) {
      return static_cast<double>(i < bounds.size() ? bounds[i] : bounds.back());
    }
  }
  return static_cast<double>(bounds.back());
}

class SessionPass {
 public:
  SessionPass(const WorkloadSpec& spec, std::uint64_t seed, Probe& probe)
      : spec_(spec), seed_(seed), probe_(probe),
        churn_(derive_seed(seed, kChurnStream)) {}

  PassResult run(int ticks) {
    PassResult res;
    const std::int64_t setup0 = now_ns();
    session_ = std::make_unique<SharingSession>(host_options());
    AppHost& host = session_->host();
    const WindowId win = host.wm().create(spec_.window, 1);
    host.capturer().attach(win, make_app(spec_.app, spec_.window.width,
                                         spec_.window.height,
                                         derive_seed(seed_, kPainterStream)));
    build_audience();

    while (!all_framed()) {
      if (k_ >= kMaxWarmupTicks) {
        res.failures.push_back("warm-up: initial viewers never saw a full frame");
        break;
      }
      tick();
    }
    res.setup_s = static_cast<double>(now_ns() - setup0) / 1e9;
    res.warmup_ticks = k_;
    if (ticks == 0) return res;

    // Timed run.
    const telemetry::Snapshot before = host.telemetry().snapshot();
    const auto relay_before = relay_totals();
    const SimTime timed_start = session_->loop().now();
    for (auto& v : viewers_) v->bytes_base = v->p->stats().bytes_received;
    probe_.reset_totals();
    sampling_ = true;
    const std::int64_t timed0 = now_ns();
    for (int t = 1; t <= ticks; ++t) {
      if (spec_.churn) churn(t, ticks);
      res.tick_ms.push_back(tick());
    }
    res.timed_wall_s = static_cast<double>(now_ns() - timed0) / 1e9;
    const SimTime timed_end = session_->loop().now();
    res.viewer_rx_ms = probe_.total_ms(Layer::kViewerRx);
    res.viewer_rx_calls = probe_.calls(Layer::kViewerRx);
    res.relay_rx_ms = probe_.total_ms(Layer::kRelayRx);
    res.relay_rx_calls = probe_.calls(Layer::kRelayRx);
    res.uplink_ms = probe_.total_ms(Layer::kUplink);
    res.uplink_calls = probe_.calls(Layer::kUplink);
    res.sim_s = static_cast<double>(timed_end - timed_start) / 1e6;
    for (auto& v : viewers_) {
      const SimTime from = std::max(v->join_us, timed_start);
      const SimTime to = v->left ? v->left_us : timed_end;
      if (to > from) res.viewer_seconds += static_cast<double>(to - from) / 1e6;
      res.viewer_bytes += v->p->stats().bytes_received - v->bytes_base;
    }

    drain(win);

    const telemetry::Snapshot after = host.telemetry().snapshot();
    for (const char* name : kCounterNames) {
      res.counters[name] =
          static_cast<double>(after.counter(name) - before.counter(name));
    }
    const auto relay_after = relay_totals();
    res.counters["relay.forwarded"] = relay_after[0] - relay_before[0];
    res.counters["relay.rtx_served"] = relay_after[1] - relay_before[1];
    res.counters["relay.nack_seqs"] = relay_after[2] - relay_before[2];
    res.counters["net.udp.queue_delay_us_p50"] =
        histogram_p50(before, after, "net.udp.queue_delay_us");

    check_viewers(res);
    res.latency_ms = std::move(latency_ms_);
    res.join_ms = std::move(join_ms_);
    return res;
  }

 private:
  AppHostOptions host_options() const {
    AppHostOptions o;
    o.screen_width = spec_.screen_w;
    o.screen_height = spec_.screen_h;
    o.encode_threads = kEncodeThreads;
    if (spec_.churn) {
      o.snapshot.enabled = true;
      o.evict_after_us = kEvictAfterUs;
    }
    return o;
  }

  ParticipantOptions viewer_options() const {
    ParticipantOptions o;
    o.screen_width = spec_.screen_w;
    o.screen_height = spec_.screen_h;
    return o;
  }

  std::uint64_t link_seed() {
    const std::uint64_t s = derive_seed(seed_, kLinkStreamBase + links_++);
    return s == 1 ? 2 : s;  // 1 asks the session to pick a seed itself
  }

  /// One UDP link pair at kLinkBps with its own seeds. Each direction's
  /// delay is the default plus a fixed offset drawn from its seed, up to
  /// the time one full packet (the AH's MTU payload) takes at kLinkBps,
  /// 96 us, so the seed moves every virtual latency. Per-packet jitter
  /// would do the same but reorders packets: 96 us of it made text_relay
  /// viewers NACK and refresh, doubling its bytes per viewer, and 1 ms made
  /// participants log decode errors without skipping a gap.
  UdpLinkConfig udp_link(double down_loss = 0.0) {
    const auto packet_us = static_cast<std::uint64_t>(
        static_cast<double>(session_->host().options().mtu_payload) * 8 * 1e6 /
        static_cast<double>(kLinkBps));
    UdpLinkConfig link;
    link.down.loss = down_loss;
    for (UdpChannelOptions* dir : {&link.down, &link.up}) {
      dir->bandwidth_bps = kLinkBps;
      dir->seed = link_seed();
      dir->delay_us += static_cast<SimTime>(dir->seed % (packet_us + 1));
    }
    return link;
  }

  void build_audience() {
    add_direct();
    if (spec_.child_relays == 0) return;
    SharingSession::RelayHandle& root = session_->add_relay({}, udp_link());
    for (int c = 0; c < spec_.child_relays; ++c) {
      SharingSession::RelayHandle& child =
          session_->add_relay_child(root, {}, udp_link());
      for (int i = 0; i < spec_.viewers_per_relay; ++i) {
        session_->add_relay_viewer(child, viewer_options(),
                                   udp_link(spec_.relay_viewer_loss));
      }
    }
    wire_relays();
  }

  /// The direct audience: TCP viewers (§4.4 joiners), then UDP viewers
  /// (PLI joiners). On churn workloads this is also one join wave.
  void add_direct() {
    for (int i = 0; i < spec_.tcp_viewers; ++i) add_tcp();
    for (int i = 0; i < spec_.udp_viewers; ++i) add_udp();
  }

  Viewer& add_viewer(Participant* p, SharingSession::Connection* conn, bool tcp) {
    auto v = std::make_unique<Viewer>();
    v->p = p;
    v->conn = conn;
    v->tcp = tcp;
    v->join_us = session_->loop().now();
    if (spec_.churn) {
      v->leave_tick = k_ + kStayTicks + static_cast<int>(churn_.range(0, kStayJitterTicks));
    }
    viewers_.push_back(std::move(v));
    return *viewers_.back();
  }

  void add_udp() {
    SharingSession::Connection& c =
        session_->add_udp_participant(viewer_options(), udp_link());
    Participant* p = c.participant.get();
    c.down_udp->set_receiver([this, p](Bytes d) {
      probe_.time(Layer::kViewerRx, [&] { p->on_datagram(d); });
    });
    if (probe_.traced()) {
      AppHost* host = &session_->host();
      c.up_udp->set_receiver([this, host, id = c.id](Bytes d) {
        probe_.time(Layer::kUplink, [&] { host->on_uplink_packet(id, d); });
      });
    }
    add_viewer(p, &c, false);
    p->join();
  }

  void add_tcp() {
    SharingSession::Connection& c = session_->add_tcp_participant(viewer_options());
    Participant* p = c.participant.get();
    c.down_tcp->set_receiver([this, p](Bytes d) {
      probe_.time(Layer::kViewerRx, [&] { p->on_stream_bytes(d); });
    });
    if (probe_.traced()) {
      AppHost* host = &session_->host();
      c.up_tcp->set_receiver([this, host, id = c.id](Bytes d) {
        probe_.time(Layer::kUplink, [&] { host->on_uplink_stream(id, d); });
      });
    }
    add_viewer(p, &c, true);
  }

  /// Relay downlinks and relay viewers; relay and AH-uplink receivers only
  /// in the traced run. Closures route through the handles, like the
  /// session's own.
  void wire_relays() {
    AppHost* host = &session_->host();
    for (const auto& handle : session_->relays()) {
      SharingSession::RelayHandle* r = handle.get();
      if (!probe_.traced()) continue;
      r->down->set_receiver([this, r](Bytes d) {
        if (!r->node) return;
        probe_.time(Layer::kRelayRx, [&] { r->node->on_upstream_datagram(std::move(d)); });
      });
      r->up->set_receiver([this, r, host](Bytes d) {
        if (r->parent == nullptr) {
          probe_.time(Layer::kUplink, [&] { host->on_uplink_packet(r->upstream_id, d); });
        } else if (r->parent->alive && r->parent->node) {
          probe_.time(Layer::kRelayRx,
                      [&] { r->parent->node->on_leg_packet(r->leg, d); });
        }
      });
    }
    for (const auto& handle : session_->relay_viewers()) {
      SharingSession::RelayViewer* v = handle.get();
      Participant* p = v->participant.get();
      v->down->set_receiver([this, p](Bytes d) {
        probe_.time(Layer::kViewerRx, [&] { p->on_datagram(d); });
      });
      if (probe_.traced()) {
        v->up->set_receiver([this, v](Bytes d) {
          if (!v->relay->alive || !v->relay->node) return;
          probe_.time(Layer::kRelayRx, [&] { v->relay->node->on_leg_packet(v->leg, d); });
        });
      }
      add_viewer(p, nullptr, false);
      p->join();
    }
  }

  /// Churn, before timed tick `t` of `ticks`: leaves due now, then a join
  /// wave every kWaveEvery ticks (none in the last kQuietTicks, so every
  /// live viewer has had time to converge when the run ends). TCP viewers
  /// leave through drop_tcp, UDP viewers through 100% loss both ways, after
  /// which the AH's liveness sweep evicts them.
  void churn(int t, int ticks) {
    const int due = k_ + 1;  // the tick about to run
    for (auto& v : viewers_) {
      if (v->left || v->leave_tick != due) continue;
      if (v->tcp) {
        session_->drop_tcp(*v->conn);
      } else {
        if (v->conn->down_udp) v->conn->down_udp->set_loss(1.0);
        if (v->conn->up_udp) v->conn->up_udp->set_loss(1.0);
      }
      v->left = true;
      v->left_us = session_->loop().now();
    }
    if (t % kWaveEvery == 0 && t <= ticks - kQuietTicks) add_direct();
  }

  /// Let in-flight data, repairs and refreshes settle: the AH keeps ticking
  /// on frozen content, and a pointer move each tick sends every viewer a
  /// packet, so a loss at the very end of the stream is detected and
  /// repaired like any other.
  void drain(WindowId win) {
    AppHost& host = session_->host();
    host.capturer().attach(win, std::make_unique<FrozenApp>(
                                    host.capturer().app(win)->content()));
    for (int i = 1; i <= kDrainTicks; ++i) {
      host.set_pointer({spec_.window.left + i, spec_.window.top + i});
      tick();
    }
    session_->run_for(kSettleUs);
    collect();
  }

  /// Advance the capture clock one interval and tick the AH; returns the
  /// tick's wall milliseconds.
  double tick() {
    ++k_;
    AppHost& host = session_->host();
    session_->loop().run_until(static_cast<SimTime>(k_) *
                               host.options().frame_interval_us);
    probe_.set_tick(static_cast<std::uint32_t>(k_));
    const std::int64_t t0 = now_ns();
    host.tick();
    const std::int64_t t1 = now_ns();
    probe_.record(Layer::kTick, t0, t1);
    collect();
    return static_cast<double>(t1 - t0) / 1e6;
  }

  /// Drain every viewer's applied RegionUpdates: latency samples (timed run
  /// and drain) and join coverage (always).
  void collect() {
    const AppHost& host = session_->host();
    const std::int64_t window_area = spec_.window.area();
    for (auto& v : viewers_) {
      for (const auto& d : v->p->drain_deliveries()) {
        if (sampling_) {
          const SimTime captured = host.remoting_timestamp_to_us(d.rtp_timestamp);
          if (d.arrived_us >= captured) {
            latency_ms_.push_back(static_cast<double>(d.arrived_us - captured) / 1e3);
          }
        }
        if (v->framed || d.arrived_us < v->join_us) continue;
        const Rect part = intersect(d.region, spec_.window);
        if (part.empty()) continue;
        v->covered.add(part);
        if (v->covered.area() >= window_area) {
          v->framed = true;
          v->covered.clear();
          join_ms_.push_back(static_cast<double>(d.arrived_us - v->join_us) / 1e3);
        }
      }
    }
  }

  bool all_framed() const {
    return std::all_of(viewers_.begin(), viewers_.end(),
                       [](const auto& v) { return v->framed; });
  }

  std::array<double, 3> relay_totals() const {
    std::array<double, 3> out{};
    for (const auto& r : session_->relays()) {
      if (!r->node) continue;
      const auto& s = r->node->stats();
      out[0] += static_cast<double>(s.forwarded_packets);
      out[1] += static_cast<double>(s.rtx_served);
      out[2] += static_cast<double>(s.nack_seqs_received);
    }
    return out;
  }

  /// Every live viewer must match the AH's shared view pixel for pixel and
  /// log no decode error beyond what its skipped gaps explain. Abandoning a
  /// gap resets the demultiplexer and flushes the reorder buffer through
  /// it, and each flushed continuation fragment counts as a decode error.
  /// One skip flushes at most reorder_max_hold + 1 packets, so more errors
  /// than that per skipped gap fail the viewer.
  void check_viewers(PassResult& res) const {
    const Image& truth = session_->host().capturer().last_frame();
    const std::uint64_t errors_per_gap = viewer_options().reorder_max_hold + 1;
    for (std::size_t i = 0; i < viewers_.size(); ++i) {
      const Viewer& v = *viewers_[i];
      if (v.left) continue;
      ++res.live_viewers;
      const std::int64_t diff = diff_pixel_count(v.p->screen(), truth);
      const Participant::Stats& st = v.p->stats();
      const bool explained = st.decode_errors <= st.gaps_skipped * errors_per_gap;
      if (st.decode_errors > 0 && explained) ++res.excused_viewers;
      if (diff == 0 && explained && v.framed) continue;
      ++res.failed_viewers;
      if (res.failures.size() < 8) {
        res.failures.push_back("viewer " + std::to_string(i) + ": " +
                               std::to_string(diff) + " px differ, " +
                               std::to_string(st.decode_errors) + " decode errors, " +
                               std::to_string(st.gaps_skipped) + " gaps skipped" +
                               (v.framed ? "" : ", never saw a full frame"));
      }
    }
  }

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  Probe& probe_;
  Prng churn_;
  std::uint64_t links_ = 0;
  int k_ = 0;  ///< capture ticks so far (the virtual clock is k_ intervals)
  bool sampling_ = false;
  std::unique_ptr<SharingSession> session_;
  std::vector<std::unique_ptr<Viewer>> viewers_;
  std::vector<double> latency_ms_;
  std::vector<double> join_ms_;
};

}  // namespace

PassResult run_session(const WorkloadSpec& spec, std::uint64_t seed, int ticks,
                       Probe& probe) {
  SessionPass pass(spec, seed, probe);
  return pass.run(ticks);
}

}  // namespace perfbench
