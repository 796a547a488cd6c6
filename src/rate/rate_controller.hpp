// Closed-loop per-participant rate & quality adaptation (draft §4.3 / §7).
//
// The static knobs the draft prescribes — a fixed token-bucket rate for UDP
// participants and a fixed send-buffer backlog limit for TCP participants —
// starve or flood a link whose capacity changes mid-session. This module
// closes the loop over the signals the session already collects:
//
//   * UDP: RTCP Receiver Report loss fraction and interarrival jitter
//     (RFC 3550 §6.4.2) drive an AIMD budget, TFRC-style in spirit but
//     deliberately simpler: multiplicative decrease on a lossy report,
//     additive increase on a clean one.
//   * TCP: the §7 select()-style send-buffer backlog (level and slope over
//     a sliding window) drives the same AIMD budget — a growing backlog is
//     this transport's loss signal.
//
// The budget maps to a discrete *operating point*: a token-bucket rate, a
// DCT quality rung (anchored to the E1b rate-distortion curve), and a
// frame-interval divisor. Degradation is ordered so fps is sacrificed
// before quality collapses to the bottom rung (RLM-style layered
// adjustment, applied to one stream).
//
// Everything is a pure function of the fed signals and the virtual clock:
// no wallclock, no randomness — a replayed session produces bit-identical
// adaptation traces, which is what lets the chaos convergence matrix assert
// on rate.* telemetry across seeds.
#pragma once

#include <cstdint>
#include <vector>

#include "net/event_loop.hpp"

namespace ads::rate {

/// One rung of the DCT quality ladder: a codec quality setting and the
/// bitrate it costs at the reference pixel rate (E1b: 320x240 @ 10 fps).
struct QualityRung {
  int dct_quality = 75;          ///< DctOptions::quality for this rung
  std::uint64_t ref_bps = 0;     ///< measured E1b rate at the reference load

  friend bool operator==(const QualityRung&, const QualityRung&) = default;
};

/// Tuning for the closed loop. Defaults follow classic AIMD practice
/// (decrease fast, probe slowly) with thresholds in RTCP wire units.
struct AdaptationOptions {
  /// Master switch: when false the AH keeps its static configuration and
  /// no controller state is updated.
  bool enabled = false;

  /// AIMD budget clamp (bits/s). The budget never leaves [min, max].
  std::uint64_t min_rate_bps = 200'000;
  std::uint64_t max_rate_bps = 20'000'000;
  /// Starting budget (clamped into [min, max]).
  std::uint64_t initial_rate_bps = 2'000'000;

  /// Additive increase applied per clean feedback interval.
  std::uint64_t additive_increase_bps = 100'000;
  /// Multiplicative decrease factor applied on a congestion signal (the
  /// signal thresholds are RateController constants).
  double multiplicative_decrease = 0.7;

  /// Minimum spacing between multiplicative decreases, so one congestion
  /// episode reported across several RRs is punished once per RTT-ish
  /// window rather than once per report.
  SimTime decrease_holdoff_us = 500'000;

  /// TCP: samples in the sliding backlog-trend window.
  int backlog_window = 8;

  /// Deepest frame-interval scaling the controller may pick (send every
  /// Nth capture tick). 1 disables fps degradation.
  int max_fps_divisor = 8;

  /// Demand scale relative to the E1b reference load (320x240 @ 10 fps):
  /// (width*height*fps) / (320*240*10). Lets one ladder serve any screen
  /// geometry and capture rate.
  double pixel_rate_scale = 1.0;
};

/// Transport family the controller adapts for — selects which signal path
/// (RR loss/jitter vs backlog trend) feeds the AIMD loop.
enum class Transport { kUdp, kTcp };

/// The controller's output: everything the AH needs to parameterise one
/// participant's encode + send path for the next tick.
struct OperatingPoint {
  std::uint64_t rate_bps = 0;  ///< token-bucket budget (UDP) / pacing hint
  int quality_step = 0;        ///< ladder index, 0 = best quality
  int dct_quality = 90;        ///< DctOptions::quality for photographic content
  int fps_divisor = 1;         ///< send frames every Nth capture tick

  /// The quality rung as it appears in encode-cache keys and shared-encode
  /// cohort keys: the clamped DCT quality for lossy codecs, 0 (= codec
  /// default) for lossless ones. Two participants whose quality_key (and
  /// codec and MTU) coincide can share one encode per band per tick.
  std::uint8_t quality_key(bool lossy_codec) const {
    if (!lossy_codec) return 0;
    const int q = dct_quality < 0 ? 0 : (dct_quality > 100 ? 100 : dct_quality);
    return static_cast<std::uint8_t>(q);
  }

  friend bool operator==(const OperatingPoint&, const OperatingPoint&) = default;
};

/// Adaptation event counts, for telemetry and tests.
struct ControllerStats {
  std::uint64_t increases = 0;        ///< additive increases applied
  std::uint64_t decreases = 0;        ///< multiplicative decreases applied
  std::uint64_t quality_changes = 0;  ///< operating-point quality-step moves
  std::uint64_t fps_changes = 0;      ///< operating-point fps-divisor moves
  std::uint64_t rr_consumed = 0;      ///< receiver reports fed to the loop
  std::uint64_t backlog_samples = 0;  ///< backlog samples fed to the loop
};

/// Deterministic per-participant AIMD controller. Feed signals as they
/// arrive (on_receiver_report / on_backlog_sample), then call update() once
/// per capture tick; the returned OperatingPoint is stable between ticks.
class RateController {
 public:
  /// RR fraction_lost (/256) at or above which the loop decreases (~5%).
  static constexpr std::uint8_t kLossDecreaseThreshold = 13;
  /// RR fraction_lost (/256) at or below which an interval counts as clean
  /// (~1%); between the two thresholds the budget holds.
  static constexpr std::uint8_t kLossCleanThreshold = 3;
  /// Interarrival jitter (RTP 90 kHz ticks) above which the loop treats the
  /// interval as congested even without loss (2700 ticks = 30 ms). Applies
  /// only while jitter is rising report-over-report: the RFC 3550 EWMA
  /// decays slowly after a queueing episode, and a decaying tail must not
  /// hold the budget at the floor.
  static constexpr std::uint32_t kJitterDecreaseTicks = 2700;
  /// TCP: backlog at or above this decreases the budget outright.
  static constexpr std::size_t kBacklogHighBytes = 32 * 1024;
  /// TCP: backlog at or below this (and not growing) counts as clean.
  static constexpr std::size_t kBacklogLowBytes = 2 * 1024;

  RateController(Transport transport, AdaptationOptions opts);

  /// Feed one RTCP Receiver Report block (UDP transports). fraction_lost is
  /// the RFC 3550 /256 fixed-point field; jitter is in RTP timestamp ticks.
  void on_receiver_report(std::uint8_t fraction_lost, std::uint32_t jitter_ticks,
                          SimTime now);

  /// Feed one send-buffer backlog observation (TCP transports) — the §7
  /// select()-style signal, sampled on the capture clock.
  void on_backlog_sample(std::size_t backlog_bytes, SimTime now);

  /// Run one control interval at virtual time `now`: consume any pending
  /// signals, apply AIMD, and re-derive the operating point.
  const OperatingPoint& update(SimTime now);

  /// The operating point chosen by the last update().
  const OperatingPoint& current() const { return op_; }

  /// The raw AIMD budget in bits/s (before ladder quantisation).
  std::uint64_t budget_bps() const { return static_cast<std::uint64_t>(budget_bps_); }

  /// Adaptation event counts since construction.
  const ControllerStats& stats() const { return stats_; }

  /// The built-in DCT quality ladder, best rung first — quality settings
  /// anchored to the measured E1b rate-distortion curve.
  static const std::vector<QualityRung>& default_ladder();

 private:
  void apply_decrease(SimTime now);
  void apply_increase();
  void choose_operating_point();

  Transport transport_;
  AdaptationOptions opts_;
  double budget_bps_;
  OperatingPoint op_;

  // Pending UDP feedback (latest report wins within one tick).
  bool rr_pending_ = false;
  std::uint8_t rr_fraction_lost_ = 0;
  std::uint32_t rr_jitter_ticks_ = 0;
  std::uint32_t prev_jitter_ticks_ = 0;  ///< jitter gates on its gradient

  // TCP backlog sliding window (ring buffer, oldest overwritten).
  std::vector<std::size_t> backlog_ring_;
  std::size_t backlog_next_ = 0;
  std::size_t backlog_count_ = 0;
  bool backlog_pending_ = false;

  SimTime last_decrease_us_ = 0;
  bool decreased_ever_ = false;
  ControllerStats stats_;
};

}  // namespace ads::rate
