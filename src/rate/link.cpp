#include "rate/link.hpp"

#include <algorithm>

namespace ads::rate {

LinkOptions LinkOptions::validated(LinkOptions opts, std::size_t packet_bytes) {
  if (opts.rate_bps > 0 || opts.adaptation.enabled) {
    opts.burst_bytes = std::max(opts.burst_bytes, packet_bytes);
  }
  AdaptationOptions& a = opts.adaptation;
  if (a.min_rate_bps > a.max_rate_bps) std::swap(a.min_rate_bps, a.max_rate_bps);
  a.initial_rate_bps = std::clamp(a.initial_rate_bps, a.min_rate_bps, a.max_rate_bps);
  if (a.max_fps_divisor < 1) a.max_fps_divisor = 1;
  if (a.backlog_window < 1) a.backlog_window = 1;
  return opts;
}

Link::Link(Endpoint endpoint, const LinkOptions& opts)
    : egress_(std::move(endpoint)),
      backlog_limit_(opts.backlog_limit),
      adaptive_(opts.adaptation.enabled),
      ctrl_(tcp() ? Transport::kTcp : Transport::kUdp, opts.adaptation),
      bucket_(tcp() ? 0 : (adaptive_ ? ctrl_.budget_bps() : opts.rate_bps),
              opts.burst_bytes) {}

const OperatingPoint& Link::adapt(SimTime now) {
  if (!adaptive_) return ctrl_.current();
  if (tcp()) ctrl_.on_backlog_sample(backlog(), now);
  const OperatingPoint& op = ctrl_.update(now);
  if (!tcp()) bucket_.set_rate(op.rate_bps, now);
  return op;
}

}  // namespace ads::rate
