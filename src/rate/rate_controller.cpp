#include "rate/rate_controller.hpp"

#include <algorithm>

namespace ads::rate {
namespace {

// Degradation schedule: which (quality rung, fps divisor) pairs the
// controller is allowed to occupy, ordered best-first. Quality drops to the
// mid rungs at full frame rate; the bottom rung is only reached after fps
// has already been halved twice — "graceful fps degradation before quality
// collapse". Divisors beyond 4 extend the tail for very deep collapses.
struct Candidate {
  int quality_step;
  int fps_divisor;
};

constexpr Candidate kSchedule[] = {
    {0, 1},  // q90 @ full rate
    {1, 1},  // q75
    {2, 1},  // q50
    {2, 2},  // q50 @ half rate
    {3, 2},  // q30 @ half rate
    {3, 4},  // q30 @ quarter rate
    {4, 4},  // q10 @ quarter rate
    {4, 8},  // q10 @ eighth rate — the floor
};

}  // namespace

const std::vector<QualityRung>& RateController::default_ladder() {
  // Anchored to the measured E1b rate-distortion curve (EXPERIMENTS.md):
  // q10 = 0.51, q50 = 2.0, q90 = 6.3 Mbit/s at 320x240 @ 10 fps; the q30
  // and q75 rungs are interpolated on the same monotone curve.
  static const std::vector<QualityRung> ladder = {
      {90, 6'300'000},
      {75, 4'200'000},
      {50, 2'000'000},
      {30, 1'200'000},
      {10, 510'000},
  };
  return ladder;
}

RateController::RateController(Transport transport, AdaptationOptions opts)
    : transport_(transport), opts_(opts) {
  if (opts_.min_rate_bps > opts_.max_rate_bps) {
    std::swap(opts_.min_rate_bps, opts_.max_rate_bps);
  }
  opts_.max_fps_divisor = std::max(1, opts_.max_fps_divisor);
  opts_.backlog_window = std::max(1, opts_.backlog_window);
  if (opts_.pixel_rate_scale <= 0.0) opts_.pixel_rate_scale = 1.0;
  budget_bps_ = static_cast<double>(
      std::clamp(opts_.initial_rate_bps, opts_.min_rate_bps, opts_.max_rate_bps));
  backlog_ring_.assign(static_cast<std::size_t>(opts_.backlog_window), 0);
  choose_operating_point();
  // Construction is not an adaptation event.
  stats_ = {};
}

void RateController::on_receiver_report(std::uint8_t fraction_lost,
                                        std::uint32_t jitter_ticks, SimTime now) {
  (void)now;
  if (!opts_.enabled || transport_ != Transport::kUdp) return;
  // Latest report wins inside one control interval; RR cadence (~1 s) is
  // slower than the tick clock, so coalescing loses nothing.
  rr_pending_ = true;
  rr_fraction_lost_ = fraction_lost;
  rr_jitter_ticks_ = jitter_ticks;
  ++stats_.rr_consumed;
}

void RateController::on_backlog_sample(std::size_t backlog_bytes, SimTime now) {
  (void)now;
  if (!opts_.enabled || transport_ != Transport::kTcp) return;
  backlog_ring_[backlog_next_] = backlog_bytes;
  backlog_next_ = (backlog_next_ + 1) % backlog_ring_.size();
  backlog_count_ = std::min(backlog_count_ + 1, backlog_ring_.size());
  backlog_pending_ = true;
  ++stats_.backlog_samples;
}

void RateController::apply_decrease(SimTime now) {
  if (decreased_ever_ && now - last_decrease_us_ < opts_.decrease_holdoff_us) {
    return;  // one punishment per congestion window
  }
  const double floor = static_cast<double>(opts_.min_rate_bps);
  const double next =
      std::max(floor, budget_bps_ * opts_.multiplicative_decrease);
  if (next < budget_bps_) {
    budget_bps_ = next;
    ++stats_.decreases;
  }
  last_decrease_us_ = now;
  decreased_ever_ = true;
}

void RateController::apply_increase() {
  const double ceil = static_cast<double>(opts_.max_rate_bps);
  const double next = std::min(
      ceil, budget_bps_ + static_cast<double>(opts_.additive_increase_bps));
  if (next > budget_bps_) {
    budget_bps_ = next;
    ++stats_.increases;
  }
}

const OperatingPoint& RateController::update(SimTime now) {
  if (!opts_.enabled) return op_;

  if (transport_ == Transport::kUdp && rr_pending_) {
    rr_pending_ = false;
    // Jitter counts as congestion only while it is still rising: the RFC
    // 3550 jitter EWMA decays at 15/16 per packet, so after a deep queueing
    // episode its absolute level stays above any threshold for many seconds
    // of perfectly clean air — gating on the gradient lets recovery start
    // as soon as the queue actually drains.
    const bool jitter_congested =
        rr_jitter_ticks_ >= kJitterDecreaseTicks &&
        rr_jitter_ticks_ >= prev_jitter_ticks_;
    prev_jitter_ticks_ = rr_jitter_ticks_;
    const bool congested =
        rr_fraction_lost_ >= kLossDecreaseThreshold || jitter_congested;
    if (congested) {
      apply_decrease(now);
    } else if (rr_fraction_lost_ <= kLossCleanThreshold) {
      apply_increase();
    }
    // Between the thresholds: hold — the link is lossy but not collapsing.
  }

  if (transport_ == Transport::kTcp && backlog_pending_) {
    backlog_pending_ = false;
    const std::size_t latest =
        backlog_ring_[(backlog_next_ + backlog_ring_.size() - 1) %
                      backlog_ring_.size()];
    const std::size_t oldest =
        backlog_count_ < backlog_ring_.size()
            ? backlog_ring_[0]
            : backlog_ring_[backlog_next_];
    const bool growing = latest > oldest;
    if (latest >= kBacklogHighBytes ||
        (growing && latest >= kBacklogHighBytes / 2)) {
      apply_decrease(now);
    } else if (latest <= kBacklogLowBytes && !growing) {
      apply_increase();
    }
  }

  choose_operating_point();
  return op_;
}

void RateController::choose_operating_point() {
  const std::vector<QualityRung>& ladder = default_ladder();
  OperatingPoint next = op_;
  next.rate_bps = budget_bps();

  // Walk the degradation schedule best-first and take the first candidate
  // whose demand fits the budget; a budget below even the floor candidate
  // still gets the floor (the token bucket then paces it further down).
  const Candidate* chosen = &kSchedule[std::size(kSchedule) - 1];
  for (const Candidate& c : kSchedule) {
    if (c.fps_divisor > opts_.max_fps_divisor) continue;
    const double demand =
        static_cast<double>(ladder[static_cast<std::size_t>(c.quality_step)].ref_bps) *
        opts_.pixel_rate_scale / static_cast<double>(c.fps_divisor);
    if (demand <= budget_bps_) {
      chosen = &c;
      break;
    }
  }
  // If max_fps_divisor filtered out the configured floor, fall back to the
  // deepest allowed candidate.
  if (chosen->fps_divisor > opts_.max_fps_divisor) {
    for (auto it = std::rbegin(kSchedule); it != std::rend(kSchedule); ++it) {
      if (it->fps_divisor <= opts_.max_fps_divisor) {
        chosen = &*it;
        break;
      }
    }
  }

  next.quality_step = chosen->quality_step;
  next.dct_quality =
      ladder[static_cast<std::size_t>(chosen->quality_step)].dct_quality;
  next.fps_divisor = chosen->fps_divisor;

  if (next.quality_step != op_.quality_step) ++stats_.quality_changes;
  if (next.fps_divisor != op_.fps_divisor) ++stats_.fps_changes;
  op_ = next;
}

}  // namespace ads::rate
