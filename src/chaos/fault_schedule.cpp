#include "chaos/fault_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

namespace ads::chaos {
namespace {

// Per-episode sub-stream seed: splitmix64-style mix so episode N's dwell
// draws are independent of every other episode and of call order.
std::uint64_t episode_seed(std::uint64_t seed, std::size_t index) {
  return seed ^ (0x9E3779B97F4A7C15ull * (index + 1));
}

// Exponential dwell with the given mean, clamped away from zero so the
// burst chain always makes progress.
SimTime exp_dwell(Prng& rng, SimTime mean_us) {
  const double u = rng.next_double();
  const double d = -static_cast<double>(mean_us) * std::log(1.0 - u);
  return std::max<SimTime>(1'000, static_cast<SimTime>(d));
}

}  // namespace

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kBlackout: return "blackout";
    case FaultClass::kBurstLoss: return "burst_loss";
    case FaultClass::kBandwidthCollapse: return "bandwidth_collapse";
    case FaultClass::kStall: return "stall";
    case FaultClass::kDrop: return "drop";
    case FaultClass::kRelayCrash: return "relay_crash";
    case FaultClass::kRelayStall: return "relay_stall";
    case FaultClass::kJoinFlood: return "join_flood";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(EventLoop& loop, std::uint64_t seed,
                             telemetry::Telemetry* tel)
    : loop_(loop), seed_(seed), rng_(seed), tel_(tel) {}

std::size_t FaultSchedule::add_episode(FaultClass kind, SimTime start,
                                       SimTime end) {
  episodes_.push_back(FaultEpisode{kind, start, end});
  return episodes_.size() - 1;
}

void FaultSchedule::episode(FaultClass kind, SimTime start, SimTime duration,
                            std::function<void()> on, std::function<void()> off) {
  // Without `off` the fault never clears: end == start marks the episode
  // permanent (all_clear_at() skips it).
  add_episode(kind, start, off ? start + duration : start);
  loop_.at(start, [this, kind, on = std::move(on)] {
    begin_episode(kind);
    on();
  });
  if (!off) return;
  loop_.at(start + duration, [this, off = std::move(off)] {
    off();
    end_episode();
  });
}

void FaultSchedule::begin_episode(FaultClass kind) {
  ++started_;
  ++active_;
  if (tel_ != nullptr) {
    tel_->metrics.counter("chaos.episodes_started").add(1);
    tel_->metrics
        .counter(std::string("chaos.") + fault_class_name(kind) + "_episodes")
        .add(1);
    tel_->metrics.gauge("chaos.active_episodes")
        .set(static_cast<std::int64_t>(active_));
  }
}

void FaultSchedule::end_episode() {
  ++cleared_;
  if (active_ > 0) --active_;
  if (tel_ != nullptr) {
    tel_->metrics.counter("chaos.episodes_cleared").add(1);
    tel_->metrics.gauge("chaos.active_episodes")
        .set(static_cast<std::int64_t>(active_));
  }
}

SimTime FaultSchedule::all_clear_at() const {
  SimTime latest = 0;
  for (const FaultEpisode& e : episodes_) {
    if (e.kind == FaultClass::kDrop) continue;  // never clears by itself
    if (e.kind == FaultClass::kRelayCrash && e.end_us == e.start_us) {
      continue;  // permanent crash: recovery is out of band
    }
    latest = std::max(latest, e.end_us);
  }
  return latest;
}

void FaultSchedule::blackout(UdpChannel& link, SimTime start, SimTime duration,
                             double restore_loss) {
  episode(FaultClass::kBlackout, start, duration, [&link] { link.set_loss(1.0); },
          [&link, restore_loss] { link.set_loss(restore_loss); });
}

void FaultSchedule::burst_loss(UdpChannel& link, SimTime start, SimTime duration,
                               GilbertElliott ge, double restore_loss) {
  const SimTime end = start + duration;
  // Seeded by the index episode() records this episode under.
  auto chain_rng = std::make_shared<Prng>(episode_seed(seed_, episodes_.size()));
  episode(FaultClass::kBurstLoss, start, duration,
          [this, &link, chain_rng, end, ge] {
            burst_step(link, chain_rng, end, ge, /*bad=*/true);
          },
          [&link, restore_loss] { link.set_loss(restore_loss); });
}

void FaultSchedule::burst_step(UdpChannel& link, std::shared_ptr<Prng> rng,
                               SimTime end, GilbertElliott ge, bool bad) {
  // The end-of-episode restore was scheduled first, so at `end` it runs
  // before this flip; `>=` then retires the chain.
  if (loop_.now() >= end) return;
  link.set_loss(bad ? ge.loss_bad : ge.loss_good);
  const SimTime dwell =
      exp_dwell(*rng, bad ? ge.mean_bad_us : ge.mean_good_us);
  loop_.after(std::min(dwell, end - loop_.now()), [this, &link, rng, end, ge, bad] {
    burst_step(link, rng, end, ge, !bad);
  });
}

void FaultSchedule::bandwidth_collapse(UdpChannel& link, SimTime start,
                                       SimTime duration,
                                       std::uint64_t collapsed_bps,
                                       std::uint64_t restore_bps) {
  episode(FaultClass::kBandwidthCollapse, start, duration,
          [&link, collapsed_bps] { link.set_bandwidth(collapsed_bps); },
          [&link, restore_bps] { link.set_bandwidth(restore_bps); });
}

void FaultSchedule::bandwidth_collapse(TcpChannel& link, SimTime start,
                                       SimTime duration,
                                       std::uint64_t collapsed_bps,
                                       std::uint64_t restore_bps) {
  episode(FaultClass::kBandwidthCollapse, start, duration,
          [&link, collapsed_bps] { link.set_bandwidth(collapsed_bps); },
          [&link, restore_bps] { link.set_bandwidth(restore_bps); });
}

void FaultSchedule::stall(TcpChannel& link, SimTime start, SimTime duration) {
  episode(FaultClass::kStall, start, duration, [&link] { link.set_stalled(true); },
          [&link] { link.set_stalled(false); });
}

void FaultSchedule::drop(TcpChannel& link, SimTime at) {
  episode(FaultClass::kDrop, at, 0, [&link] { link.drop(); }, nullptr);
}

void FaultSchedule::relay_crash(SimTime at, SimTime down_for,
                                std::function<void()> kill,
                                std::function<void()> restart) {
  // Without a restart the node never comes back and the episode is
  // permanent, like kDrop.
  episode(FaultClass::kRelayCrash, at, down_for, std::move(kill),
          std::move(restart));
}

void FaultSchedule::relay_stall(SimTime start, SimTime duration,
                                std::function<void(bool)> set_stalled) {
  // One shared callable, so both edges reach the same (possibly stateful)
  // object.
  auto shared = std::make_shared<std::function<void(bool)>>(std::move(set_stalled));
  episode(FaultClass::kRelayStall, start, duration, [shared] { (*shared)(true); },
          [shared] { (*shared)(false); });
}

void FaultSchedule::join_flood(SimTime start, SimTime window, std::size_t count,
                               std::function<void(std::size_t)> admit) {
  if (count == 0) return;
  if (window <= 0) window = 1;
  const std::size_t idx =
      add_episode(FaultClass::kJoinFlood, start, start + window);
  loop_.at(start, [this] { begin_episode(FaultClass::kJoinFlood); });
  // Even spacing across the window plus a per-joiner seeded jitter of up to
  // half a slot, so arrivals are bursty-but-aperiodic like a real flash
  // crowd — and bit-identical for a given schedule seed.
  Prng rng(episode_seed(seed_, idx));
  const SimTime slot = std::max<SimTime>(1, window / static_cast<SimTime>(count));
  auto shared = std::make_shared<std::function<void(std::size_t)>>(std::move(admit));
  for (std::size_t i = 0; i < count; ++i) {
    const SimTime jitter =
        slot > 1 ? static_cast<SimTime>(rng.below(
                       static_cast<std::uint64_t>(slot / 2 + 1)))
                 : 0;
    const SimTime at = std::min<SimTime>(
        start + window - 1, start + static_cast<SimTime>(i) * slot + jitter);
    loop_.at(at, [shared, i] { (*shared)(i); });
  }
  loop_.at(start + window, [this] { end_episode(); });
}

void FaultSchedule::script_windows(
    const RandomScheduleOptions& opts,
    const std::function<void(SimTime, SimTime)>& place) {
  SimTime cursor = opts.start_us;
  for (int i = 0; i < opts.max_episodes; ++i) {
    const SimTime gap = opts.min_gap_us +
                        rng_.below(opts.max_gap_us - opts.min_gap_us + 1);
    const SimTime duration =
        opts.min_duration_us +
        rng_.below(opts.max_duration_us - opts.min_duration_us + 1);
    if (cursor + gap + duration > opts.horizon_us) break;
    cursor += gap;
    place(cursor, duration);
    cursor += duration;
  }
}

void FaultSchedule::script_random(UdpChannel& link,
                                  const RandomScheduleOptions& opts) {
  const std::uint64_t base_bps = link.bandwidth_bps();
  script_windows(opts, [&](SimTime start, SimTime duration) {
    const std::uint64_t kind = rng_.below(3);
    if (kind == 1) {
      burst_loss(link, start, duration);
    } else if (kind == 2 && base_bps > 0) {
      bandwidth_collapse(link, start, duration, opts.collapsed_bps, base_bps);
    } else {
      // A collapse on an unlimited link would be a no-op contract change;
      // it falls back to a blackout there.
      blackout(link, start, duration);
    }
  });
}

void FaultSchedule::script_random(TcpChannel& link,
                                  const RandomScheduleOptions& opts) {
  const std::uint64_t base_bps = link.bandwidth_bps();
  script_windows(opts, [&](SimTime start, SimTime duration) {
    if (rng_.below(2) == 0) {
      stall(link, start, duration);
    } else {
      bandwidth_collapse(link, start, duration, opts.collapsed_bps, base_bps);
    }
  });
}

}  // namespace ads::chaos
