// Deterministic fault injection for the simulated network: a FaultSchedule
// scripts virtual-clock-timed fault episodes onto existing UdpChannel /
// TcpChannel links — blackout windows, Gilbert–Elliott burst loss,
// bandwidth collapse, stall/resume, and hard connection drops. Every draw
// (episode layout, burst-state dwell times) comes from an explicitly seeded
// Prng, and loss inside an episode rides the channels' own set_loss()
// episode-reseeding contract, so a given (schedule seed, link seed) pair
// replays bit-identically regardless of how much traffic earlier phases
// carried. This is the harness behind the resilience invariant: after the
// last episode clears, every surviving participant must reconverge.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/event_loop.hpp"
#include "net/tcp_channel.hpp"
#include "net/udp_channel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/prng.hpp"

namespace ads::chaos {

/// Two-state Gilbert–Elliott loss process: the link alternates between a
/// good state (light loss) and a bad state (burst loss), with exponentially
/// distributed sojourn times. The schedule drives the state flips by
/// calling UdpChannel::set_loss() at the transition instants.
struct GilbertElliott {
  double loss_good = 0.0;
  double loss_bad = 0.9;
  SimTime mean_good_us = 200'000;  ///< mean sojourn in the good state
  SimTime mean_bad_us = 60'000;    ///< mean sojourn in the bad state
};

enum class FaultClass : std::uint8_t {
  kBlackout,           ///< 100% loss window (UDP)
  kBurstLoss,          ///< Gilbert–Elliott episode (UDP)
  kBandwidthCollapse,  ///< link rate collapses, then restores (UDP or TCP)
  kStall,              ///< send window closes: zero bytes accepted (TCP)
  kDrop,               ///< hard connection drop — permanent until reconnect
  kRelayCrash,         ///< relay node killed cold mid-tree (optional restart)
  kRelayStall,         ///< relay node wedged: forwards and reports nothing
  kJoinFlood,          ///< flash crowd: a wave of late joiners in one window
};

const char* fault_class_name(FaultClass c);

/// One scheduled episode, for introspection and convergence deadlines.
/// For kDrop (and a kRelayCrash scheduled without a restart),
/// end_us == start_us: the fault never clears by itself.
struct FaultEpisode {
  FaultClass kind = FaultClass::kBlackout;
  SimTime start_us = 0;
  SimTime end_us = 0;
};

/// Knobs for the seeded random-schedule generators. Episodes are laid out
/// sequentially (never overlapping on one link) between start_us and
/// horizon_us; every fault has cleared by horizon_us.
struct RandomScheduleOptions {
  SimTime start_us = 500'000;
  SimTime horizon_us = 4'000'000;
  int max_episodes = 4;
  SimTime min_gap_us = 200'000;   ///< healthy time between episodes
  SimTime max_gap_us = 600'000;
  SimTime min_duration_us = 80'000;
  SimTime max_duration_us = 700'000;
  std::uint64_t collapsed_bps = 400'000;  ///< rate during a collapse
};

class FaultSchedule {
 public:
  /// `seed` drives every stochastic choice the schedule makes. When `tel`
  /// is set, episode lifecycle lands in chaos.* counters and the
  /// chaos.active_episodes gauge.
  FaultSchedule(EventLoop& loop, std::uint64_t seed,
                telemetry::Telemetry* tel = nullptr);

  // ---- scripting API (absolute virtual-clock microseconds) ----
  /// 100% loss on `link` during [start, start+duration); loss returns to
  /// `restore_loss` when the window closes.
  void blackout(UdpChannel& link, SimTime start, SimTime duration,
                double restore_loss = 0.0);

  /// Gilbert–Elliott burst loss during [start, start+duration). Dwell times
  /// are drawn from this schedule's seed (one sub-stream per episode).
  void burst_loss(UdpChannel& link, SimTime start, SimTime duration,
                  GilbertElliott ge = {}, double restore_loss = 0.0);

  /// Link rate collapses to `collapsed_bps` during the window, then
  /// restores to `restore_bps`. A rate of 0 means unlimited, as on the
  /// channels; a dead link is blackout() (UDP) or stall() (TCP).
  void bandwidth_collapse(UdpChannel& link, SimTime start, SimTime duration,
                          std::uint64_t collapsed_bps, std::uint64_t restore_bps);
  void bandwidth_collapse(TcpChannel& link, SimTime start, SimTime duration,
                          std::uint64_t collapsed_bps, std::uint64_t restore_bps);

  /// TCP send window closes (zero bytes accepted) during the window.
  void stall(TcpChannel& link, SimTime start, SimTime duration);

  /// Hard connection drop at `at`: the channel goes down for good. Recovery
  /// is out of band (SharingSession::reconnect_tcp) — the episode never
  /// counts as cleared.
  void drop(TcpChannel& link, SimTime at);

  /// Kill a relay node cold at `at` and (when `restart` is set) bring it
  /// back `down_for` later. Callback-scripted — `kill` is typically
  /// SharingSession::crash_relay and `restart` restart_relay — so the
  /// chaos layer stays free of relay-tier dependencies. With no restart
  /// the crash is permanent and, like kDrop, never counts as cleared.
  void relay_crash(SimTime at, SimTime down_for, std::function<void()> kill,
                   std::function<void()> restart = nullptr);

  /// Wedge a relay node during [start, start+duration): `set_stalled(true)`
  /// at start and `(false)` at the end — typically bound to
  /// RelayNode::set_stalled. A stalled node drops ingest, forwards nothing
  /// and emits no feedback, so its subtree sees pure upstream silence.
  void relay_stall(SimTime start, SimTime duration,
                   std::function<void(bool)> set_stalled);

  /// Flash crowd (the E19 load pattern): `count` late joins scripted across
  /// [start, start+window). `admit(i)` is invoked once per joiner, in index
  /// order, at instants spread evenly over the window with a small seeded
  /// jitter — deterministic for a given schedule seed. Callback-scripted
  /// like relay_crash, so the chaos layer stays free of session/AH
  /// dependencies: `admit` typically adds a participant (or viewer leg) and
  /// sends its join PLI. The episode clears at the end of the window.
  void join_flood(SimTime start, SimTime window, std::size_t count,
                  std::function<void(std::size_t)> admit);

  // ---- seeded random schedules (the chaos-soak matrix entry point) ----
  /// Script a random sequence of blackout / burst / collapse episodes onto
  /// a UDP link.
  void script_random(UdpChannel& link, const RandomScheduleOptions& opts = {});
  /// Script a random sequence of stall / collapse episodes onto a TCP link.
  void script_random(TcpChannel& link, const RandomScheduleOptions& opts = {});

  // ---- introspection ----
  const std::vector<FaultEpisode>& episodes() const { return episodes_; }
  /// Instant by which every self-clearing episode has cleared (0 when
  /// nothing is scheduled). Drops never clear and are excluded.
  SimTime all_clear_at() const;
  std::size_t episodes_started() const { return started_; }
  std::size_t episodes_cleared() const { return cleared_; }
  std::size_t active_episodes() const { return active_; }

 private:
  std::size_t add_episode(FaultClass kind, SimTime start, SimTime end);
  void begin_episode(FaultClass kind);
  void end_episode();
  /// One Gilbert–Elliott state flip; reschedules itself until `end`.
  void burst_step(UdpChannel& link, std::shared_ptr<Prng> rng, SimTime end,
                  GilbertElliott ge, bool bad);

  EventLoop& loop_;
  std::uint64_t seed_;
  Prng rng_;
  telemetry::Telemetry* tel_;
  std::vector<FaultEpisode> episodes_;
  std::size_t started_ = 0;
  std::size_t cleared_ = 0;
  std::size_t active_ = 0;
};

}  // namespace ads::chaos
