// Unidirectional TCP-like byte stream: reliable, in-order, rate-limited,
// with a finite send buffer. The buffer occupancy is the observable the
// draft's §7 implementation note is about: "monitor the state of their TCP
// transmission buffers (through mechanisms such as the select() command)
// and only send the most recent screen data when there is no backlog."
// `backlog_bytes()` is that select()-style signal.
//
// Loss and retransmission are below the abstraction: a fluid model drains
// the buffer at the configured bandwidth and delivers each accepted write
// intact after it fully serialises plus the propagation delay.
//
// Fault hooks (driven by chaos::FaultSchedule): set_bandwidth() collapses
// or restores the link rate; set_stalled() closes the send window (zero
// bytes accepted, in-flight data still drains — a zero-window peer);
// drop() is a hard connection drop — in-flight data is lost, every later
// write is refused, and only a fresh channel (reconnect) recovers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>

#include "net/event_loop.hpp"
#include "telemetry/telemetry.hpp"
#include "util/bytes.hpp"

namespace ads {

/// Link characteristics of one simulated TCP stream.
struct TcpChannelOptions {
  /// Link rate; 0 = unlimited (a write serialises at once and adds no
  /// backlog).
  std::uint64_t bandwidth_bps = 10'000'000;
  SimTime delay_us = 20000;            ///< one-way propagation delay
  std::size_t send_buffer_bytes = 64 * 1024;
  /// Optional session-wide telemetry sink. When set, every send() pushes
  /// the pre-write backlog into the shared `net.tcp.backlog_bytes`
  /// histogram — the distribution the §7 skip policy reacts to — and
  /// maintains the shared `net.tcp.backlog` gauge (this channel's
  /// contribution is withdrawn on teardown/drop, so evicted or reconnected
  /// participants never pin stale backlog into snapshots).
  telemetry::Telemetry* telemetry = nullptr;
};

/// One reliable, in-order, finite-send-buffer byte stream.
class TcpChannel {
 public:
  using Receiver = std::function<void(Bytes)>;

  /// Construct the channel on the session's event loop.
  TcpChannel(EventLoop& loop, TcpChannelOptions opts);
  ~TcpChannel();

  /// Install (or replace) the delivery callback.
  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  /// Write bytes to the stream. Accepts up to the free send-buffer space
  /// and returns how many bytes were taken (a partial write, exactly like a
  /// non-blocking socket). Never blocks. Accepts nothing while stalled or
  /// after drop().
  std::size_t send(BytesView data);

  /// Gather-write: offer the concatenation of `parts` as one send() without
  /// the caller having to build that concatenation. Acceptance, segmentation
  /// and stats are byte-for-byte identical to send() on the joined bytes;
  /// only the accepted prefix is copied (once, into the wire segment). The
  /// accepted prefix may end mid-part — the caller re-offers the remainder
  /// later, exactly as with a partial send().
  std::size_t send_gather(std::span<const BytesView> parts);

  /// Bytes accepted but not yet serialised onto the wire — the §7 backlog
  /// signal. Zero means a write of at least one byte would succeed
  /// immediately (unless the channel is stalled or down).
  std::size_t backlog_bytes() const;

  /// Send-buffer bytes a write could take right now.
  std::size_t free_space() const { return opts_.send_buffer_bytes - backlog_bytes(); }

  /// Current link rate (0 = unlimited).
  std::uint64_t bandwidth_bps() const { return opts_.bandwidth_bps; }
  /// Change the link rate mid-run (fault injection). Applies to subsequent
  /// sends; segments already serialising keep their delivery times, and
  /// later writes still arrive after them.
  void set_bandwidth(std::uint64_t bps) { opts_.bandwidth_bps = bps; }

  /// Close (true) or reopen (false) the send window: while stalled, send()
  /// accepts zero bytes. Data already accepted keeps draining.
  void set_stalled(bool stalled) { stalled_ = stalled; }
  /// True while the send window is closed.
  bool stalled() const { return stalled_; }

  /// Hard connection drop: in-flight segments are lost, the backlog gauge
  /// contribution is withdrawn, and every later send() is refused. There is
  /// no undo — reconnection means a fresh channel.
  void drop();
  /// True once drop() has been called.
  bool down() const { return down_; }

  /// Lifetime byte totals, by fate.
  struct Stats {
    std::uint64_t bytes_offered = 0;
    std::uint64_t bytes_accepted = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t partial_writes = 0;  ///< sends that could not take all bytes
    std::uint64_t bytes_lost_on_drop = 0;  ///< in flight when drop() hit
  };
  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  /// An accepted write, as the backlog math sees it (its bytes travel in
  /// the delivery event).
  struct Segment {
    std::size_t bytes;
    SimTime fully_serialised_at;
  };

  /// Publish the current backlog into the shared gauge as a delta against
  /// what this channel last published.
  void publish_backlog_gauge();

  EventLoop& loop_;
  TcpChannelOptions opts_;
  Receiver receiver_;
  SimTime link_free_at_ = 0;
  std::deque<Segment> in_flight_;  ///< serialised order, for backlog math
  bool stalled_ = false;
  bool down_ = false;
  std::uint64_t epoch_ = 0;  ///< bumped by drop(): cancels scheduled deliveries
  telemetry::Histogram* backlog_hist_ = nullptr;
  telemetry::Gauge* backlog_gauge_ = nullptr;
  std::int64_t backlog_published_ = 0;  ///< this channel's share of the gauge
  Stats stats_;
  /// Deliveries already scheduled on the loop hold a weak reference to this
  /// token, so destroying the channel mid-flight (eviction, reconnect)
  /// silently cancels them.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace ads
