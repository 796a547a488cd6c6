// One peer's send path plus the policy that decides when it may send: the
// §7 backlog gate (TCP), the §4.3 token bucket (UDP) and the ads::rate loop
// that retargets the bucket. The AH holds one Link per participant and
// checks it per frame; a relay holds one per leg and checks it per packet.
// What a failed check costs (a skipped frame, a dropped packet) stays with
// the owner.
#pragma once

#include <optional>

#include "net/egress.hpp"
#include "net/rate_limiter.hpp"
#include "rate/rate_controller.hpp"
#include "rtp/rtcp.hpp"

namespace ads::rate {

/// The settable values of a link policy (AppHostOptions::link,
/// RelayOptions::link).
struct LinkOptions {
  /// §7: a TCP link may not send while its backlog, carry included, exceeds
  /// this many bytes. 0 disables the gate (the behaviour §7 warns against).
  std::size_t backlog_limit = 4096;
  /// §4.3: static token-bucket rate of a UDP link in bits/s (0 =
  /// unlimited); used only with adaptation off.
  std::uint64_t rate_bps = 0;
  /// Bucket depth (and initial fill) of a UDP link, bytes.
  std::size_t burst_bytes = 64 * 1024;
  /// Closed-loop adaptation: the bucket starts at the clamped
  /// initial_rate_bps and every adapt() retargets it.
  AdaptationOptions adaptation{};

  /// Clamp to the nearest workable value: order the rate bounds, clamp the
  /// initial rate into them, keep the fps divisor and backlog window >= 1,
  /// and raise a rate-limited or adaptive burst to one `packet_bytes`
  /// packet (a smaller bucket never passes the §4.3 check).
  static LinkOptions validated(LinkOptions opts, std::size_t packet_bytes);
};

/// One peer's Egress, token bucket, rate controller and last RR.
class Link {
 public:
  /// A TCP link is never rate-limited; a UDP link's bucket starts at the
  /// controller's clamped budget when adaptive, else at opts.rate_bps.
  Link(Endpoint endpoint, const LinkOptions& opts);

  /// The transport: control sends, flushes, the TCP carry.
  Egress& egress() { return egress_; }
  /// True for a stream (RFC 4571-framed) link.
  bool tcp() const { return egress_.tcp(); }
  /// The peer's send-buffer backlog plus the carry, in bytes.
  std::size_t backlog() const { return egress_.backlog(); }
  /// The bucket's rate in bits/s; 0 for unlimited and TCP links.
  std::uint64_t rate_bps() const { return bucket_.rate_bps(); }

  /// §7: a TCP link whose backlog exceeds the limit.
  bool backlogged() const {
    return tcp() && backlog_limit_ > 0 && backlog() > backlog_limit_;
  }
  /// §4.3: a rate-limited link whose bucket holds fewer than `bytes`.
  bool short_of(std::size_t bytes, SimTime now) {
    return !bucket_.unlimited() &&
           bucket_.available(now) < static_cast<double>(bytes);
  }
  /// §4.3: a rate-limited link whose bucket is empty or in deficit.
  bool exhausted(SimTime now) {
    return !bucket_.unlimited() && bucket_.available(now) <= 0;
  }

  /// Charge the bucket and send one media packet; returns bytes staged.
  std::size_t send(const PacketView& v, SimTime now) {
    bucket_.consume(v.wire_size(), now);
    return egress_.send(v);
  }
  /// Charge the bucket and send one repair now; returns bytes staged.
  std::size_t send_now(const PacketView& v, SimTime now) {
    bucket_.consume(v.wire_size(), now);
    return egress_.send_now(v);
  }

  /// Keep the peer's RR block; an adaptive UDP link's controller takes it.
  void on_report(const ReportBlock& block, SimTime now) {
    last_rr_ = block;
    ctrl_.on_receiver_report(block.fraction_lost, block.jitter, now);
  }
  /// One adaptation interval: backlog sample (TCP), AIMD step, bucket
  /// retarget (UDP). With adaptation off, the static operating point.
  const OperatingPoint& adapt(SimTime now);

  /// The operating point chosen by the last adapt().
  const OperatingPoint& operating_point() const { return ctrl_.current(); }
  /// The controller's adaptation event counts.
  const ControllerStats& controller_stats() const { return ctrl_.stats(); }
  /// The peer's last RR block (empty before the first).
  const std::optional<ReportBlock>& last_report() const { return last_rr_; }

 private:
  Egress egress_;
  std::size_t backlog_limit_;
  bool adaptive_;
  RateController ctrl_;
  TokenBucket bucket_;  ///< seeded from ctrl_, so declared after it
  std::optional<ReportBlock> last_rr_;
};

}  // namespace ads::rate
