// Shared types of the end-to-end benchmark: workload specs, the outside-in
// span probe, and the result of one session pass.
//
// Everything here times layers from the outside, around public calls of the
// library; nothing inside src/ is instrumented.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "image/geometry.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One named workload: desktop, shared window, painter, audience shape.
struct WorkloadSpec {
  std::string name;
  std::int64_t screen_w = 0;
  std::int64_t screen_h = 0;
  ads::Rect window;   ///< the one shared window, desktop coordinates
  std::string app;    ///< painter name for ads::make_app
  int ticks = 0;      ///< timed capture ticks per pass
  // Audience at set-up.
  int tcp_viewers = 0;        ///< direct TCP viewers
  int udp_viewers = 0;        ///< direct UDP viewers
  int child_relays = 0;       ///< relays under one root relay; 0 = no tree
  int viewers_per_relay = 0;  ///< UDP viewers on each child relay
  double relay_viewer_loss = 0;  ///< datagram loss on relay viewers' downlinks
  /// Viewers keep joining and leaving: the direct audience joins again
  /// every half second and each viewer leaves about 3 s after its join.
  /// Turns on the AH's snapshot service and liveness eviction.
  bool churn = false;
};

/// The three workloads by name; throws std::invalid_argument otherwise.
WorkloadSpec workload_by_name(const std::string& name);

/// Deterministic 64-bit mix of the benchmark seed with a stream index, so
/// every painter, link and schedule draws from its own seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);
/// derive_seed stream of the painter; the session and the shadow share it.
constexpr std::uint64_t kPainterStream = 1;
/// AppHostOptions::encode_threads of every session: set explicitly, never
/// the hardware_concurrency() default.
constexpr std::size_t kEncodeThreads = 2;

/// Layers timed from outside, around public calls.
enum class Layer : std::uint8_t {
  kTick,      ///< AppHost::tick
  kViewerRx,  ///< Participant::on_datagram / on_stream_bytes
  kRelayRx,   ///< RelayNode::on_upstream_datagram / on_leg_packet
  kUplink,    ///< AppHost::on_uplink_packet / on_uplink_stream
  kCount,
};

constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"core.tick", "participant.rx", "relay.rx", "core.uplink"};

/// Wall-clock totals per layer. With `keep_spans` set (the traced run) it
/// also keeps every span in memory; write_spans() dumps them at the end.
class Probe {
 public:
  struct Span {
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t tick = 0;  ///< capture tick the span belongs to
    Layer layer = Layer::kTick;
  };

  explicit Probe(bool keep_spans) : keep_spans_(keep_spans) {
    if (keep_spans_) spans_.reserve(1 << 20);
  }

  /// Run `f` inside a span of `layer`.
  template <class F>
  void time(Layer layer, F&& f) {
    const std::int64_t t0 = now_ns();
    f();
    record(layer, t0, now_ns());
  }

  void record(Layer layer, std::int64_t t0, std::int64_t t1) {
    const auto i = static_cast<std::size_t>(layer);
    total_ns_[i] += t1 - t0;
    ++calls_[i];
    if (keep_spans_) spans_.push_back({t0, t1, tick_, layer});
  }

  void set_tick(std::uint32_t tick) { tick_ = tick; }
  /// Zero the totals (spans are kept): called when the timed run starts.
  void reset_totals() {
    total_ns_.fill(0);
    calls_.fill(0);
  }

  double total_ms(Layer l) const {
    return static_cast<double>(total_ns_[static_cast<std::size_t>(l)]) / 1e6;
  }
  std::uint64_t calls(Layer l) const { return calls_[static_cast<std::size_t>(l)]; }
  bool traced() const { return keep_spans_; }

  /// Write every kept span as CSV (layer,tick,begin_ns,end_ns). Returns
  /// false when the file cannot be written.
  bool write_spans(const std::string& path) const;

 private:
  bool keep_spans_;
  std::uint32_t tick_ = 0;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> total_ns_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> calls_{};
  std::vector<Span> spans_;
};

/// Everything one session pass measured.
struct PassResult {
  // Wall clock.
  double setup_s = 0;
  double timed_wall_s = 0;
  std::vector<double> tick_ms;     ///< one per timed tick
  double viewer_rx_ms = 0;         ///< inside viewer downlink calls, timed run
  double relay_rx_ms = 0;          ///< traced run only
  std::uint64_t relay_rx_calls = 0;
  double uplink_ms = 0;            ///< traced run only
  std::uint64_t uplink_calls = 0;
  std::uint64_t viewer_rx_calls = 0;
  // Virtual clock (deterministic).
  double sim_s = 0;                ///< simulated length of the timed run
  double viewer_seconds = 0;       ///< live viewers x simulated seconds
  std::uint64_t viewer_bytes = 0;  ///< remoting bytes received, timed run
  std::vector<double> latency_ms;  ///< capture -> applied, per RegionUpdate
  std::vector<double> join_ms;     ///< join -> whole window covered
  int warmup_ticks = 0;            ///< set-up ticks before the timed run
  // Outcome.
  int live_viewers = 0;
  int failed_viewers = 0;
  int excused_viewers = 0;  ///< passed with decode errors its skipped gaps explain
  std::vector<std::string> failures;
  /// Counter deltas over the timed run plus drain (telemetry names).
  std::map<std::string, double> counters;
};

/// Run one whole session of `spec` on `seed`: set-up and warm-up, `ticks`
/// timed capture ticks, a 2 s drain, then the per-viewer correctness check.
PassResult run_session(const WorkloadSpec& spec, std::uint64_t seed, int ticks,
                       Probe& probe);

/// Per-layer numbers of the shadow AH pipeline (capture, scroll detect,
/// codec, fragmentation), each per timed tick unless named otherwise.
struct ShadowResult {
  double paint_ms = 0;
  double capture_ms = 0;        ///< composite plus damage, paint excluded
  double damage_px = 0;         ///< residual damage area after scrolls
  double scroll_detect_ms = 0;
  double encode_ms = 0;
  double encode_mb_s = 0;       ///< raw RGBA megabytes encoded per second
  double ratio = 0;             ///< raw bytes / encoded bytes
  double decode_ms = 0;
  double fragment_us = 0;
  double fragments = 0;
  bool decode_ok = true;
};

/// Replay the AH's capture side with the same painter seed, window layout
/// and ticks, timing each stage serially. Only the last `timed_ticks` of
/// `total_ticks` are timed, matching the session's timed run.
ShadowResult run_shadow(const WorkloadSpec& spec, std::uint64_t seed,
                        int total_ticks, int timed_ticks);

}  // namespace perfbench
