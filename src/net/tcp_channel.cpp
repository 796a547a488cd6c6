#include "net/tcp_channel.hpp"

#include <algorithm>

namespace ads {

TcpChannel::TcpChannel(EventLoop& loop, TcpChannelOptions opts)
    : loop_(loop), opts_(opts) {
  if (opts_.telemetry != nullptr) {
    backlog_hist_ = &opts_.telemetry->metrics.histogram(
        "net.tcp.backlog_bytes",
        {0, 1024, 4096, 16384, 65536, 262144, 1048576});
    backlog_gauge_ = &opts_.telemetry->metrics.gauge("net.tcp.backlog");
  }
}

TcpChannel::~TcpChannel() {
  // Withdraw this channel's share of the shared backlog gauge so snapshots
  // taken after teardown don't carry a dead link's bytes.
  if (backlog_gauge_ != nullptr && backlog_published_ != 0) {
    backlog_gauge_->add(-backlog_published_);
  }
}

std::size_t TcpChannel::backlog_bytes() const {
  // An unlimited link (0 bps) clocks every accepted byte out at once.
  if (down_ || opts_.bandwidth_bps == 0) return 0;
  // Sum of the not-yet-serialised suffix: a segment contributes while the
  // link has not finished clocking it out.
  const SimTime now = loop_.now();
  std::size_t backlog = 0;
  for (const Segment& s : in_flight_) {
    if (s.fully_serialised_at > now) {
      // Portion still unsent: proportional to remaining serialisation time.
      const SimTime remaining = s.fully_serialised_at - now;
      const std::uint64_t remaining_bytes =
          std::min<std::uint64_t>(s.bytes,
                                  remaining * opts_.bandwidth_bps / 8 / 1000000 + 1);
      backlog += remaining_bytes;
    }
  }
  return std::min(backlog, opts_.send_buffer_bytes);
}

void TcpChannel::publish_backlog_gauge() {
  if (backlog_gauge_ == nullptr) return;
  const std::int64_t current = static_cast<std::int64_t>(backlog_bytes());
  backlog_gauge_->add(current - backlog_published_);
  backlog_published_ = current;
}

void TcpChannel::drop() {
  if (down_) return;
  down_ = true;
  ++epoch_;  // scheduled deliveries check this and retire
  // Everything accepted but not yet delivered dies with the connection —
  // the unsent backlog and segments already propagating down the wire.
  stats_.bytes_lost_on_drop += stats_.bytes_accepted - stats_.bytes_delivered;
  in_flight_.clear();
  link_free_at_ = 0;
  publish_backlog_gauge();  // backlog_bytes() is 0 now: clears our share
}

std::size_t TcpChannel::send(BytesView data) {
  const BytesView parts[] = {data};
  return send_gather(parts);
}

std::size_t TcpChannel::send_gather(std::span<const BytesView> parts) {
  std::size_t total = 0;
  for (const BytesView& p : parts) total += p.size();

  stats_.bytes_offered += total;
  if (down_) return 0;
  if (backlog_hist_ != nullptr) backlog_hist_->observe(backlog_bytes());
  if (stalled_) {
    // Zero-window peer: nothing accepted, wire keeps draining.
    if (total != 0) ++stats_.partial_writes;
    publish_backlog_gauge();
    return 0;
  }

  // Garbage-collect segments that have fully serialised.
  const SimTime now = loop_.now();
  while (!in_flight_.empty() && in_flight_.front().fully_serialised_at <= now) {
    in_flight_.pop_front();
  }

  const std::size_t space = free_space();
  const std::size_t take = std::min(space, total);
  if (take < total) ++stats_.partial_writes;
  if (take == 0) {
    publish_backlog_gauge();
    return 0;
  }

  // In order: a write starts when the link has clocked out earlier ones,
  // even after the rate turned unlimited.
  const SimTime serialize_us =
      opts_.bandwidth_bps == 0 ? 0 : take * 8ull * 1000000ull / opts_.bandwidth_bps;
  const SimTime start = std::max(link_free_at_, now);
  link_free_at_ = start + serialize_us;

  Bytes data;
  data.reserve(take);
  std::size_t remaining = take;
  for (const BytesView& p : parts) {
    if (remaining == 0) break;
    const std::size_t n = std::min(remaining, p.size());
    data.insert(data.end(), p.begin(), p.begin() + static_cast<std::ptrdiff_t>(n));
    remaining -= n;
  }
  in_flight_.push_back({take, link_free_at_});
  const SimTime arrive = link_free_at_ + opts_.delay_us;

  stats_.bytes_accepted += take;
  loop_.at(arrive, [this, alive = std::weak_ptr<int>(alive_), epoch = epoch_,
                    d = std::move(data)]() mutable {
    if (alive.expired()) return;   // channel destroyed while in flight
    if (epoch != epoch_) return;   // connection dropped: data lost
    stats_.bytes_delivered += d.size();
    if (receiver_) receiver_(std::move(d));
  });
  publish_backlog_gauge();
  return take;
}

}  // namespace ads
