// Participant: "the computer which receives screen updates from AH and
// sends human interface events back to the AH. Participants do not need to
// store or run the shared application." (§1)
//
// Receives the remoting RTP stream (over UDP with reorder/NACK/PLI
// handling, or over RFC 4571-framed TCP), maintains a replica of the shared
// screen region plus the window records from WindowManagerInfo, and
// originates HIP events and BFCP floor requests.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "bfcp/bfcp_message.hpp"
#include "codec/registry.hpp"
#include "rtp/packet_classify.hpp"
#include "hip/messages.hpp"
#include "image/image.hpp"
#include "net/event_loop.hpp"
#include "remoting/message.hpp"
#include "rtp/framing.hpp"
#include "rtp/reorder_buffer.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_session.hpp"

namespace ads {

/// Every knob of a participant: replica geometry, feedback cadences, the
/// reorder hold bound and BFCP identity. How long a lost packet is waited
/// for is measured, not configured (see Participant).
struct ParticipantOptions {
  /// Transport family of the downlink this participant receives on.
  enum class Transport { kUdp, kTcp };
  Transport transport = Transport::kUdp;
  std::int64_t screen_width = 1280;   ///< replica buffer dimensions
  std::int64_t screen_height = 1024;
  /// Send Generic NACKs for missing packets (§5.3.2); pointless when the
  /// AH's SDP said retransmissions=no. Without them a lost packet is given
  /// up at Participant::kBlackoutCapUs (a group-mate's NACK may still
  /// repair it before then).
  bool send_nacks = true;
  /// Random extra NACK delay drawn per round — multicast NACK-storm
  /// avoidance (§5.3.2: "waiting random amount of time before sending a
  /// 'NACK Request'"). If a group-mate's NACK triggers a repair first, the
  /// pending NACK is suppressed.
  SimTime nack_jitter_us = 0;
  /// RTCP Receiver Report cadence (0 = no RRs).
  SimTime rr_interval_us = 1'000'000;
  /// Give up on every open gap, and request a PLI full refresh, when more
  /// than this many packets wait behind one. It holds one photo tick's
  /// burst (about 150 packets) plus two 160 ms repair rounds at 1,500
  /// packets/s, so a lost repair can be asked for again.
  std::size_t reorder_max_hold = 1024;
  /// Starvation watchdog (escalation ladder, last rung): when no remoting
  /// media has arrived for this long after the stream started (or after
  /// join()), request a PLI full refresh. Repeated starvation doubles the
  /// delay up to Participant::kStarvationBackoffMaxUs, with uniform random
  /// jitter of Participant::kStarvationJitter × delay added to decorrelate
  /// refresh storms across participants. Any arriving media resets the
  /// ladder. 0 disables.
  SimTime starvation_timeout_us = 2'000'000;
  std::uint16_t user_id = 0;  ///< BFCP identity (the AH-side ParticipantId)
  std::uint64_t seed = 7;
};

/// A sharing participant: replicates the AH screen from the remoting
/// stream and originates HIP input and BFCP floor requests.
///
/// UDP loss repair (§5.3.1–5.3.2) gives every missing sequence one
/// deadline. It is NACKed once it has been missing twice as long as the
/// largest reordering delay the stream has shown (how late a gap-filling
/// packet that was not a repair arrived), and re-requested each time half
/// again the largest measured NACK→repair time passes without a repair.
/// The first arrival of a sequence NACKed once is the repair unless the
/// repair follows it as a duplicate; until that shows, an arrival too soon
/// to be a repair counts as reordering. After kNackRounds rounds, or
/// kBlackoutCapUs after it went missing, the sequence is given up: every
/// open gap is abandoned and one PLI asks for a full refresh.
class Participant {
 public:
  /// NACK rounds a lost sequence gets; one repair time after the last, it
  /// is given up.
  static constexpr int kNackRounds = 3;
  /// Blackout cap: a sequence missing this long is given up whatever its
  /// rounds. Until a repair time is measured it is also the wait after a
  /// NACK, and without NACKs it is the whole wait.
  static constexpr SimTime kBlackoutCapUs = 500'000;
  /// Cap of the starvation watchdog's doubling back-off.
  static constexpr SimTime kStarvationBackoffMaxUs = 30'000'000;
  /// Uniform random jitter added to each starvation back-off, as a
  /// fraction of the delay.
  static constexpr double kStarvationJitter = 0.25;
  /// Delivery records kept between drains; past it the oldest is dropped
  /// (Stats::deliveries_dropped), so an undrained viewer stays bounded.
  static constexpr std::size_t kMaxDeliveries = 4096;

  Participant(EventLoop& loop, ParticipantOptions opts = {});

  // ---- downlink (AH → participant) ----
  /// One UDP datagram (remoting RTP, or BFCP/RTCP from the AH).
  void on_datagram(BytesView data);
  /// TCP stream bytes (RFC 4571 frames).
  void on_stream_bytes(BytesView data);

  // ---- uplink (participant → AH) ----
  /// Packet-oriented transmit hook; the session layer adds RFC 4571
  /// framing for TCP transports.
  void set_uplink(std::function<void(BytesView)> send) { uplink_ = std::move(send); }

  /// §4.3: late joiners request the window state + full screen via PLI.
  /// Also arms the starvation watchdog, so a join PLI lost to a blackout is
  /// retried instead of waiting forever.
  void join();
  void request_refresh();  ///< send a PLI now

  /// The transport below was torn down and replaced (TCP reconnect): drop
  /// any partially received RFC 4571 frame and partial message reassembly,
  /// and reset the loss/NACK machinery. Replicated state (screen, windows)
  /// is kept — the AH resyncs it via the late-join WMI + full-refresh path.
  void on_transport_reset();

  // ---- floor control ----
  /// Adopt a new BFCP identity (the AH re-issued this participant's id,
  /// e.g. on reconnect). Floor state held under the old id is dropped.
  void set_user_id(std::uint16_t id);
  /// Queue a BFCP FloorRequest for the input floor.
  void request_floor();
  /// Release a held (or pending) floor.
  void release_floor();
  /// True while the AH has granted this participant the floor.
  bool has_floor() const { return has_floor_; }
  /// True while a floor request is queued but not yet granted.
  bool floor_pending() const { return floor_pending_; }
  /// Last HID status received from the floor server (Figure 20).
  HidStatus hid_status() const { return hid_status_; }

  // ---- HIP event sources ----
  /// Send a MouseMoved HIP event at absolute coordinates.
  void mouse_move(std::uint32_t x, std::uint32_t y);
  /// Send a MousePressed HIP event.
  void mouse_press(std::uint32_t x, std::uint32_t y, MouseButton b);
  /// Send a MouseReleased HIP event.
  void mouse_release(std::uint32_t x, std::uint32_t y, MouseButton b);
  /// Send a MouseWheelMoved HIP event (two's-complement distance, §6.5).
  void mouse_wheel(std::uint32_t x, std::uint32_t y, std::int32_t distance);
  /// Send a KeyPressed HIP event.
  void key_press(vk::KeyCode code);
  /// Send a KeyReleased HIP event.
  void key_release(vk::KeyCode code);
  /// Splits into multiple KeyTyped messages when needed (§6.8).
  void key_type(const std::string& utf8);

  // ---- replicated state ----
  /// The replica framebuffer this participant has reconstructed.
  const Image& screen() const { return replica_; }
  /// Window records from the last WindowManagerInfo, by window id.
  const std::map<std::uint16_t, WindowRecord>& windows() const { return windows_; }
  /// Last pointer position received via MousePointerInfo.
  Point pointer() const { return pointer_; }
  /// Last pointer icon received (empty when the AH never sent one).
  const Image& pointer_icon() const { return pointer_icon_; }

  /// Window that currently has "focus" for HIP WindowID stamping: topmost
  /// record containing the last mouse position (0 when none).
  std::uint16_t focus_window() const { return focus_window_; }

  /// One completed RegionUpdate delivery (for latency measurements).
  struct DeliveryRecord {
    SimTime arrived_us = 0;
    std::uint32_t rtp_timestamp = 0;
    std::size_t content_bytes = 0;
    Rect region;
  };

  /// Lifetime totals for everything received, repaired and sent.
  struct Stats {
    std::uint64_t rtp_packets = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t region_updates = 0;
    std::uint64_t move_rectangles = 0;
    std::uint64_t wmi_received = 0;
    std::uint64_t pointer_updates = 0;
    std::uint64_t decode_errors = 0;      ///< malformed or undecodable payloads
    std::uint64_t orphan_fragments = 0;   ///< continuations whose start was lost
    std::uint64_t nacks_sent = 0;
    std::uint64_t plis_sent = 0;
    std::uint64_t gaps_skipped = 0;
    std::uint64_t hip_sent = 0;
    std::uint64_t rrs_sent = 0;
    std::uint64_t srs_received = 0;
    std::uint64_t nack_escalations = 0;   ///< repair deadlines run out → PLI
    std::uint64_t starvation_plis = 0;    ///< watchdog-triggered refreshes
    std::uint64_t transport_resets = 0;   ///< reconnects survived
    std::uint64_t deliveries_dropped = 0; ///< records over kMaxDeliveries
  };
  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }

  /// Completed RegionUpdate deliveries since the last drain, oldest first
  /// (for latency benchmarks): the newest kMaxDeliveries of them.
  std::vector<DeliveryRecord> drain_deliveries();

 private:
  void send_packet(BytesView packet);
  void send_hip(const HipMessage& msg);
  void send_floor_message(BfcpPrimitive primitive);
  void handle_packet(BytesView packet);
  void handle_rtp(RtpPacket pkt);
  /// Delivers packets in order, resetting the demux at any sequence hole.
  void deliver_run(const std::vector<RtpPacket>& run);
  void deliver(const RtpPacket& pkt);
  void apply(RemotingMessage msg, const RtpPacket& pkt);
  void apply_wmi(const WindowManagerInfo& msg);
  void apply_region_update(const RegionUpdate& msg, const RtpPacket& pkt);
  void apply_move_rectangle(const MoveRectangle& msg);
  void apply_pointer(const MousePointerInfo& msg);
  void handle_bfcp(BytesView packet);
  void handle_rtcp_downlink(BytesView packet);
  /// One lost sequence's repair state.
  struct Loss {
    SimTime since = 0;   ///< when it was first seen missing
    SimTime asked = 0;   ///< when it was last NACKed
    SimTime due = 0;     ///< next NACK round or give-up
    SimTime filled = 0;  ///< arrival after a NACK, kept to spot its duplicate
    int rounds = 0;      ///< NACK rounds so far
  };
  void on_sender_report(const SenderReport& sr);
  void track_losses(std::uint16_t seq, std::uint16_t highest_before);
  /// Sequences after `after` through `last` went missing now.
  void add_losses(std::uint16_t after, std::uint16_t last);
  void on_duplicate(std::uint16_t seq);
  /// Samples the repair (and maybe reordering) time of a sequence NACKed
  /// once and since filled; `duplicate_at` is when it arrived again.
  void learn_from_repair(const Loss& loss, std::optional<SimTime> duplicate_at);
  /// Wait after a gap opens before its first NACK.
  SimTime nack_wait() const;
  /// Wait after a NACK before asking again.
  SimTime repair_wait() const;
  SimTime nack_jitter();
  void arm_repair_timer(SimTime at);
  void on_repair_deadline();
  void give_up();
  void schedule_rr();
  void arm_watchdog(SimTime delay);
  void on_media_activity();

  EventLoop& loop_;
  ParticipantOptions opts_;
  CodecRegistry codecs_;
  std::function<void(BytesView)> uplink_;

  RtpSender hip_sender_;
  RtpReceiver receiver_;
  ReorderBuffer reorder_;
  RemotingDemux demux_;
  StreamDeframer deframer_;
  std::uint32_t remoting_ssrc_ = 0;  ///< learned from the first packet
  bool rr_timer_armed_ = false;
  std::map<std::uint16_t, Loss> losses_;
  /// Largest delay after which a gap filled without being repaired.
  SimTime reorder_us_ = 0;
  /// Largest NACK→repair time measured on sequences NACKed once (Karn's
  /// rule); 0 until the first.
  SimTime repair_us_ = 0;
  std::optional<SimTime> repair_timer_at_;  ///< the armed deadline timer
  // Starvation watchdog state.
  bool watchdog_armed_ = false;
  SimTime watchdog_delay_us_ = 0;   ///< current (backed-off) timeout
  SimTime last_media_us_ = 0;
  Prng rng_;

 public:
  /// Receiver-side link statistics (jitter in RTP ticks, cumulative loss).
  const RtpReceiver& receiver() const { return receiver_; }

 private:

  Image replica_;
  std::map<std::uint16_t, WindowRecord> windows_;
  Point pointer_{0, 0};
  Image pointer_icon_;
  Point last_mouse_{0, 0};
  std::uint16_t focus_window_ = 0;

  bool has_floor_ = false;
  bool floor_pending_ = false;
  HidStatus hid_status_ = HidStatus::kNotAllowed;
  std::uint16_t next_transaction_ = 1;

  Stats stats_;
  std::deque<DeliveryRecord> deliveries_;
};

}  // namespace ads
