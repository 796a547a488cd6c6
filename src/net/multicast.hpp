// Multicast fan-out model (draft §4.2/§4.3: the AH can serve "several
// multicast addresses in the same sharing session", each multicast session
// potentially at a different transmission rate).
//
// The AH sends each datagram once per group; the group replicates it onto
// per-member channels, so members experience independent loss, delay and
// jitter — exactly the property that makes multicast NACK handling (and
// NACK-storm avoidance) interesting.
#pragma once

#include <memory>
#include <vector>

#include "net/udp_channel.hpp"

namespace ads {

/// One send fanned out over per-member channels with independent loss.
class MulticastGroup {
 public:
  /// Construct an empty group on the session's event loop.
  explicit MulticastGroup(EventLoop& loop) : loop_(loop) {}

  /// Add a member with its own last-hop characteristics; returns the
  /// member's channel (attach the receiver to it).
  UdpChannel& add_member(UdpChannelOptions opts) {
    members_.push_back(std::make_unique<UdpChannel>(loop_, opts));
    return *members_.back();
  }

  /// Replicate one datagram to every member. Returns true if at least one
  /// member's queue accepted it.
  bool send(BytesView datagram) {
    ++datagrams_sent_;
    bool any = false;
    for (auto& member : members_) any |= member->send(datagram);
    return any;
  }

  /// Drain a TX batch to the whole group, in order: each packet is
  /// replicated to every member before the next, with the admission and
  /// loss behaviour of send() on its serialised bytes. Each member channel
  /// materialises only the datagrams it actually delivers. Returns how many
  /// packets at least one member's queue accepted.
  std::size_t send_batch(std::span<const PacketView> pkts) {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      ++datagrams_sent_;
      bool any = false;
      for (auto& member : members_) any |= member->send_batch(pkts.subspan(i, 1)) > 0;
      if (any) ++accepted;
    }
    return accepted;
  }

  /// Number of member channels.
  std::size_t member_count() const { return members_.size(); }
  /// Datagrams the AH has sent to the group (once each, pre-replication).
  std::uint64_t datagrams_sent() const { return datagrams_sent_; }

  /// The i-th member's last-hop channel (creation order).
  UdpChannel& member(std::size_t i) { return *members_[i]; }

 private:
  EventLoop& loop_;
  std::vector<std::unique_ptr<UdpChannel>> members_;
  std::uint64_t datagrams_sent_ = 0;
};

}  // namespace ads
