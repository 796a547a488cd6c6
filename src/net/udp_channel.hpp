// Unidirectional UDP-like datagram channel: unreliable, unordered, rate-
// limited. Models the path an AH→participant remoting stream (or the
// reverse HIP stream) takes when the session uses UDP (§4.3): datagrams can
// be lost, duplicated and reordered (via jitter), and a finite interface
// queue tail-drops when the sender exceeds the link rate — which is why the
// AH "controls the transmission rate for participants using UDP".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "net/event_loop.hpp"
#include "rtp/packet_view.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/prng.hpp"

namespace ads {

/// Link characteristics of one simulated UDP path.
struct UdpChannelOptions {
  double loss = 0.0;               ///< independent datagram loss probability
  double duplicate = 0.0;          ///< duplication probability
  SimTime delay_us = 20000;        ///< one-way propagation delay
  SimTime jitter_us = 0;           ///< uniform extra delay (causes reordering)
  std::uint64_t bandwidth_bps = 0; ///< 0 = unlimited
  std::size_t queue_bytes = 256 * 1024;  ///< interface queue capacity
  std::uint64_t seed = 1;          ///< drives loss/jitter draws
  /// Optional session-wide telemetry sink. When set, the channel pushes the
  /// per-datagram interface-queue delay into the shared
  /// `net.udp.queue_delay_us` histogram (the §7 "backlog" signal for UDP).
  telemetry::Telemetry* telemetry = nullptr;
};

/// One unreliable, rate-limited, finite-queue datagram path.
class UdpChannel {
 public:
  using Receiver = std::function<void(Bytes)>;

  /// Construct the channel on the session's event loop.
  UdpChannel(EventLoop& loop, UdpChannelOptions opts);

  /// Install (or replace) the delivery callback.
  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  /// Enqueue one datagram. Returns false if the interface queue tail-dropped
  /// it (the datagram is gone; UDP gives no signal beyond this return).
  bool send(BytesView datagram);

  /// Enqueue header-plus-view packets in order: a turn's TX batch, or a
  /// batch of one. Each packet's admission, loss and timing match send() on
  /// its serialised bytes, and a tail drop does not stop the batch. A
  /// datagram is only materialised (header + shared payload gathered into
  /// one buffer) when it is scheduled for delivery — a tail-dropped or lost
  /// packet costs zero payload copies. Returns how many the interface queue
  /// accepted.
  std::size_t send_batch(std::span<const PacketView> pkts);

  /// Current random-loss probability.
  double loss() const { return opts_.loss; }
  /// Current link rate (0 = unlimited).
  std::uint64_t bandwidth_bps() const { return opts_.bandwidth_bps; }

  /// Change the link rate mid-run (fault injection: bandwidth collapse and
  /// recovery). Applies to subsequent sends; datagrams already queued keep
  /// their departure times.
  void set_bandwidth(std::uint64_t bps) { opts_.bandwidth_bps = bps; }

  /// Adjust the loss probability mid-run, beginning a new deterministic
  /// loss *episode*.
  ///
  /// Seeding contract: the channel's PRNG is re-seeded from
  /// (opts.seed, episode index) on every call, so the loss/jitter/duplicate
  /// draws of episode N are a pure function of the configured seed and N —
  /// independent of how many datagrams earlier episodes happened to carry.
  /// Episode 0 is the construction-time stream; the first set_loss() call
  /// starts episode 1, the second episode 2, and so on. Staged multi-phase
  /// tests and benchmarks therefore reproduce bit-identically even when an
  /// earlier phase's traffic volume changes.
  void set_loss(double loss);

  /// Lifetime datagram totals, by fate.
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;          ///< random loss
    std::uint64_t queue_dropped = 0; ///< tail drops
    std::uint64_t duplicated = 0;
    std::uint64_t bytes_delivered = 0;
  };
  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }
  /// Zero the stats — multi-phase benchmarks measure each loss episode
  /// separately. Does not touch the PRNG or the link state.
  void reset_stats() { stats_ = {}; }

 private:
  /// Run the shared admission path (sent counter, bandwidth backlog, queue
  /// tail-drop, queue-delay telemetry) for a datagram of `size` bytes.
  /// Returns false on tail drop; otherwise `depart` is the serialisation
  /// completion time.
  bool admit(std::size_t size, SimTime& depart);
  /// Admit a datagram of `size` bytes, draw its loss and duplication, and
  /// schedule each surviving copy, built by `materialise()` only then.
  /// Returns false on tail drop.
  template <class Materialise>
  bool transmit(std::size_t size, Materialise materialise);

  void schedule_delivery(Bytes datagram, SimTime depart);

  EventLoop& loop_;
  UdpChannelOptions opts_;
  Prng rng_;
  Receiver receiver_;
  SimTime link_free_at_ = 0;  ///< when the serialiser finishes current queue
  std::uint64_t loss_episode_ = 0;  ///< set_loss() calls so far
  telemetry::Histogram* queue_delay_us_ = nullptr;
  Stats stats_;
  /// Deliveries already scheduled on the loop hold a weak reference to this
  /// token, so tearing the channel down mid-flight (participant eviction,
  /// reconnect) silently cancels them instead of dereferencing a dead
  /// channel.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace ads
