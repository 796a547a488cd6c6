#include "net/udp_channel.hpp"

#include <algorithm>

namespace ads {

UdpChannel::UdpChannel(EventLoop& loop, UdpChannelOptions opts)
    : loop_(loop), opts_(opts), rng_(opts.seed) {
  if (opts_.telemetry != nullptr) {
    queue_delay_us_ = &opts_.telemetry->metrics.histogram(
        "net.udp.queue_delay_us",
        {0, 1'000, 5'000, 10'000, 20'000, 50'000, 100'000, 250'000, 1'000'000});
  }
}

void UdpChannel::set_loss(double loss) {
  opts_.loss = loss;
  // Derive the episode seed with a splitmix64-style mix so consecutive
  // episodes of the same channel don't share correlated streams.
  ++loss_episode_;
  rng_ = Prng(opts_.seed + 0x9E3779B97F4A7C15ull * loss_episode_);
}

bool UdpChannel::admit(std::size_t size, SimTime& depart) {
  ++stats_.sent;

  depart = loop_.now();
  if (opts_.bandwidth_bps > 0) {
    // Bytes already queued ahead of this datagram.
    const SimTime backlog_us =
        link_free_at_ > loop_.now() ? link_free_at_ - loop_.now() : 0;
    const std::uint64_t backlog_bytes = backlog_us * opts_.bandwidth_bps / 8 / 1000000;
    if (backlog_bytes + size > opts_.queue_bytes) {
      ++stats_.queue_dropped;
      return false;
    }
    const SimTime serialize_us = size * 8ull * 1000000ull / opts_.bandwidth_bps;
    const SimTime start = std::max(link_free_at_, loop_.now());
    link_free_at_ = start + serialize_us;
    depart = link_free_at_;
  }
  if (queue_delay_us_ != nullptr) queue_delay_us_->observe(depart - loop_.now());
  return true;
}

template <class Materialise>
bool UdpChannel::transmit(std::size_t size, Materialise materialise) {
  SimTime depart = 0;
  if (!admit(size, depart)) return false;

  if (rng_.chance(opts_.loss)) {
    ++stats_.lost;
    return true;  // loss is silent; the queue accepted it
  }

  schedule_delivery(materialise(), depart);

  if (rng_.chance(opts_.duplicate)) {
    ++stats_.duplicated;
    schedule_delivery(materialise(), depart);
  }
  return true;
}

bool UdpChannel::send(BytesView datagram) {
  return transmit(datagram.size(),
                  [datagram] { return Bytes(datagram.begin(), datagram.end()); });
}

std::size_t UdpChannel::send_batch(std::span<const PacketView> pkts) {
  std::size_t accepted = 0;
  for (const PacketView& pkt : pkts) {
    if (transmit(pkt.wire_size(), [&pkt] { return pkt.serialize(); })) ++accepted;
  }
  return accepted;
}

void UdpChannel::schedule_delivery(Bytes datagram, SimTime depart) {
  const SimTime jitter = opts_.jitter_us ? rng_.below(opts_.jitter_us) : 0;
  const SimTime arrive = depart + opts_.delay_us + jitter;
  loop_.at(arrive, [this, alive = std::weak_ptr<int>(alive_),
                    d = std::move(datagram)]() mutable {
    if (alive.expired()) return;  // channel torn down while in flight
    ++stats_.delivered;
    stats_.bytes_delivered += d.size();
    if (receiver_) receiver_(std::move(d));
  });
}

}  // namespace ads
