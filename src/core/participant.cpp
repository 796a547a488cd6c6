#include "core/participant.hpp"

#include <algorithm>

#include "hip/utf8.hpp"
#include "util/logging.hpp"

namespace ads {

Participant::Participant(EventLoop& loop, ParticipantOptions opts)
    : loop_(loop),
      opts_(opts),
      codecs_(CodecRegistry::with_defaults()),
      hip_sender_(kHipPayloadType, opts.seed),
      reorder_(opts.reorder_max_hold),
      rng_(opts.seed ^ 0x5EEDu),
      replica_(opts.screen_width, opts.screen_height, kBlack),
      pointer_icon_(8, 12, kWhite) {}

void Participant::send_packet(BytesView packet) {
  if (uplink_) uplink_(packet);
}

void Participant::join() {
  // §4.3 (UDP) — and harmless for TCP, where §5.3.1 allows PLI too.
  request_refresh();
  // Arm the starvation watchdog: if the join PLI (or everything after it)
  // is lost to a fault, the request is retried with backoff instead of
  // waiting on a screen that never arrives.
  last_media_us_ = loop_.now();
  watchdog_delay_us_ = opts_.starvation_timeout_us;
  arm_watchdog(watchdog_delay_us_);
}

void Participant::request_refresh() {
  PictureLossIndication pli;
  pli.sender_ssrc = hip_sender_.ssrc();
  pli.media_ssrc = remoting_ssrc_;
  ++stats_.plis_sent;
  send_packet(pli.serialize());
}

void Participant::set_user_id(std::uint16_t id) {
  if (id == opts_.user_id) return;
  opts_.user_id = id;
  has_floor_ = false;
  floor_pending_ = false;
  hid_status_ = HidStatus::kNotAllowed;
}

void Participant::request_floor() {
  floor_pending_ = true;
  send_floor_message(BfcpPrimitive::kFloorRequest);
}

void Participant::release_floor() {
  send_floor_message(BfcpPrimitive::kFloorRelease);
}

void Participant::send_floor_message(BfcpPrimitive primitive) {
  BfcpMessage msg;
  msg.primitive = primitive;
  msg.conference_id = 1;
  msg.transaction_id = next_transaction_++;
  msg.user_id = opts_.user_id;
  msg.floor_id = 0;
  send_packet(msg.serialize());
}

void Participant::send_hip(const HipMessage& msg) {
  RtpPacket pkt =
      hip_sender_.make_packet(serialize_hip(msg), /*marker=*/false, loop_.now());
  ++stats_.hip_sent;
  send_packet(pkt.serialize());
}

void Participant::mouse_move(std::uint32_t x, std::uint32_t y) {
  last_mouse_ = {x, y};
  focus_window_ = 0;
  // Topmost record containing the point gives the HIP WindowID (§6.1.2).
  for (const auto& [id, rec] : windows_) {
    if (rec.rect().contains(last_mouse_)) focus_window_ = id;
  }
  send_hip(MouseMoved{focus_window_, x, y});
}

void Participant::mouse_press(std::uint32_t x, std::uint32_t y, MouseButton b) {
  send_hip(MousePressed{focus_window_, b, x, y});
}

void Participant::mouse_release(std::uint32_t x, std::uint32_t y, MouseButton b) {
  send_hip(MouseReleased{focus_window_, b, x, y});
}

void Participant::mouse_wheel(std::uint32_t x, std::uint32_t y,
                              std::int32_t distance) {
  send_hip(MouseWheelMoved{focus_window_, x, y, distance});
}

void Participant::key_press(vk::KeyCode code) {
  send_hip(KeyPressed{focus_window_, code});
}

void Participant::key_release(vk::KeyCode code) {
  send_hip(KeyReleased{focus_window_, code});
}

void Participant::key_type(const std::string& utf8) {
  // "The participant MUST send more than one KeyTyped message if the
  // string does not fit into a single KeyTyped packet." (§6.8)
  constexpr std::size_t kMaxChunk = 1024;
  for (const std::string& chunk : split_utf8(utf8, kMaxChunk)) {
    send_hip(KeyTyped{focus_window_, chunk});
  }
}

void Participant::on_datagram(BytesView data) { handle_packet(data); }

void Participant::on_stream_bytes(BytesView data) {
  deframer_.feed(data);
  while (auto packet = deframer_.next()) handle_packet(*packet);
}

void Participant::handle_packet(BytesView packet) {
  switch (classify_packet(packet)) {
    case PacketKind::kRtp: {
      auto pkt = RtpPacket::parse(packet);
      if (!pkt.ok()) {
        ++stats_.decode_errors;
        return;
      }
      if (pkt->payload_type != kRemotingPayloadType) return;
      handle_rtp(std::move(*pkt));
      break;
    }
    case PacketKind::kBfcp:
      handle_bfcp(packet);
      break;
    case PacketKind::kRtcp:
      handle_rtcp_downlink(packet);
      break;
    case PacketKind::kUnknown:
      break;
  }
}

void Participant::handle_rtcp_downlink(BytesView packet) {
  // Behind a relay the downlink may carry compound RTCP (the relay forwards
  // upstream control traffic verbatim); a plain SR parses as a compound of
  // one, so both shapes share this loop.
  auto msgs = parse_rtcp_compound(packet);
  if (!msgs.ok()) return;
  for (const RtcpMessage& msg : *msgs) {
    if (std::holds_alternative<SenderReport>(msg)) {
      ++stats_.srs_received;
      receiver_.on_sender_report(std::get<SenderReport>(msg), loop_.now());
    }
  }
}

void Participant::schedule_rr() {
  if (rr_timer_armed_ || opts_.rr_interval_us == 0) return;
  rr_timer_armed_ = true;
  loop_.after(opts_.rr_interval_us, [this] {
    rr_timer_armed_ = false;
    if (!receiver_.started() &&
        opts_.transport != ParticipantOptions::Transport::kTcp) {
      return;
    }
    ReceiverReport rr;
    rr.ssrc = hip_sender_.ssrc();
    rr.blocks.push_back(receiver_.snapshot(remoting_ssrc_, loop_.now()));
    ++stats_.rrs_sent;
    send_packet(rr.serialize());
    schedule_rr();
  });
}

void Participant::handle_rtp(RtpPacket pkt) {
  ++stats_.rtp_packets;
  stats_.bytes_received += pkt.wire_size();
  remoting_ssrc_ = pkt.ssrc;
  schedule_rr();
  on_media_activity();

  if (opts_.transport == ParticipantOptions::Transport::kTcp) {
    // TCP is reliable and ordered; bypass reorder/loss machinery.
    deliver(pkt);
    return;
  }

  if (!receiver_.on_packet(pkt, loop_.now())) return;  // duplicate

  const std::uint64_t gaps_before = reorder_.gaps_skipped();
  auto ready = reorder_.push(std::move(pkt), loop_.now());
  if (loop_.now() > kReorderMaxAgeUs) {
    // Age bound: a head gap cannot hold delivery hostage forever just
    // because too few newer packets arrived to trip the count bound (e.g.
    // a low-rate stream, or a gap straddling the 16-bit sequence wrap).
    auto expired = reorder_.expire_older_than(loop_.now() - kReorderMaxAgeUs);
    stats_.reorder_expired += expired.size();
    ready.insert(ready.end(), std::make_move_iterator(expired.begin()),
                 std::make_move_iterator(expired.end()));
  }
  if (reorder_.gaps_skipped() != gaps_before) {
    // A gap was abandoned: fragments are gone for good. Reset reassembly
    // and fall back to a full refresh (§5.3.1).
    stats_.gaps_skipped += reorder_.gaps_skipped() - gaps_before;
    demux_.reset();
    request_refresh();
  }
  for (RtpPacket& p : ready) deliver(p);

  if (!receiver_.missing(1).empty()) {
    if (opts_.send_nacks) schedule_nack();
    schedule_loss_recovery();
  }
}

void Participant::schedule_loss_recovery() {
  if (recovery_timer_armed_) return;
  recovery_timer_armed_ = true;
  loop_.after(opts_.loss_recovery_delay_us, [this] {
    recovery_timer_armed_ = false;
    if (receiver_.missing(1).empty()) return;
    recover_from_loss();
  });
}

void Participant::recover_from_loss() {
  // Fragments behind the gap are unrecoverable: flush what is buffered,
  // jump the delivery cursor past everything seen so far, drop partial
  // reassembly state, and ask for a full refresh (§5.3.1).
  auto flushed = reorder_.flush_all();
  stats_.gaps_skipped += 1;
  // Nothing from before the head gap may be stitched to the flushed run.
  demux_.reset();
  for (RtpPacket& p : flushed) deliver(p);
  reorder_.reset_to(static_cast<std::uint16_t>(receiver_.highest_sequence() + 1));
  receiver_.reset_losses();
  nack_rounds_ = 0;
  nack_attempts_.clear();
  // The flush skips gaps inside the held run too: a message it opened may
  // be missing a chunk, so nothing after recovery may complete it.
  demux_.reset();
  request_refresh();
}

void Participant::on_transport_reset() {
  ++stats_.transport_resets;
  // The byte stream was replaced: a frame torn mid-length-prefix must not
  // prefix the new stream, and half-reassembled messages are unfinishable.
  deframer_.reset();
  demux_.reset();
  // Loss bookkeeping referred to the dead transport.
  reorder_.flush_all();  // discard — stale pre-reconnect packets
  receiver_.reset_losses();
  nack_rounds_ = 0;
  nack_attempts_.clear();
  // Replicated screen/window state is kept; the AH resyncs it through the
  // late-join path (WMI + full refresh). Ask explicitly anyway so recovery
  // does not depend on the AH remembering to refresh us.
  request_refresh();
  // Restart the starvation ladder from its base timeout.
  last_media_us_ = loop_.now();
  watchdog_delay_us_ = opts_.starvation_timeout_us;
  arm_watchdog(watchdog_delay_us_);
}

void Participant::on_media_activity() {
  last_media_us_ = loop_.now();
  media_seen_ = true;
  // Any media resets the escalation ladder to its base timeout.
  watchdog_delay_us_ = opts_.starvation_timeout_us;
  arm_watchdog(watchdog_delay_us_);
}

void Participant::arm_watchdog(SimTime delay) {
  if (watchdog_armed_ || opts_.starvation_timeout_us == 0) return;
  watchdog_armed_ = true;
  loop_.after(delay, [this] {
    watchdog_armed_ = false;
    const SimTime idle = loop_.now() - last_media_us_;
    if (idle < watchdog_delay_us_) {
      // Media arrived since this timer was set: sleep out the remainder.
      arm_watchdog(watchdog_delay_us_ - idle);
      return;
    }
    // Starved: last rung of the escalation ladder — request a full
    // refresh, then back off exponentially (capped) with jitter so a
    // roomful of starved participants does not PLI in lockstep. The
    // jitter draw happens only on escalation, keeping fault-free runs
    // bit-identical.
    ++stats_.starvation_plis;
    request_refresh();
    watchdog_delay_us_ =
        std::min(watchdog_delay_us_ * 2, kStarvationBackoffMaxUs);
    SimTime jitter = 0;
    const auto span = static_cast<std::uint64_t>(
        static_cast<double>(watchdog_delay_us_) * kStarvationJitter);
    if (span > 0) jitter = rng_.below(span);
    last_media_us_ = loop_.now();
    arm_watchdog(watchdog_delay_us_ + jitter);
  });
}

void Participant::schedule_nack() {
  if (nack_timer_armed_) return;
  nack_timer_armed_ = true;
  const SimTime jitter =
      opts_.nack_jitter_us ? rng_.below(opts_.nack_jitter_us) : 0;
  loop_.after(opts_.nack_delay_us + jitter, [this] {
    nack_timer_armed_ = false;
    const auto missing = receiver_.missing();
    if (missing.empty()) {
      nack_rounds_ = 0;
      nack_attempts_.clear();
      return;
    }
    if (++nack_rounds_ > opts_.max_nack_rounds) {
      // The AH is evidently not retransmitting; stop asking and repair via
      // a full refresh instead.
      recover_from_loss();
      return;
    }
    // Per-sequence retry budget: prune bookkeeping for repaired sequences,
    // then check whether any still-missing one has exhausted its retries.
    // Under a blackout every NACK (or its repair) is lost, so without this
    // cap the timer would re-ask for the same sequences indefinitely.
    for (auto it = nack_attempts_.begin(); it != nack_attempts_.end();) {
      if (!std::binary_search(missing.begin(), missing.end(), it->first)) {
        it = nack_attempts_.erase(it);
      } else {
        ++it;
      }
    }
    bool exhausted = false;
    for (std::uint16_t seq : missing) {
      if (++nack_attempts_[seq] > opts_.max_nack_per_seq) exhausted = true;
    }
    if (exhausted) {
      // Retransmission is evidently not working for at least one sequence;
      // climb the ladder: give up on NACKs and repair via full refresh.
      ++stats_.nack_escalations;
      recover_from_loss();
      return;
    }
    GenericNack nack = GenericNack::for_sequences(hip_sender_.ssrc(),
                                                  remoting_ssrc_, missing);
    ++stats_.nacks_sent;
    send_packet(nack.serialize());
    // Re-arm: if the retransmissions do not arrive, ask again.
    schedule_nack();
  });
}

void Participant::deliver(const RtpPacket& pkt) {
  auto msg = demux_.feed(pkt.payload, pkt.marker);
  if (!msg.ok()) {
    // A continuation whose first fragment was lost (or dropped by a demux
    // reset after a skipped gap) is loss fallout, not a malformed payload.
    if (msg.error() == ParseError::kBadState) {
      ++stats_.orphan_fragments;
    } else {
      ++stats_.decode_errors;
    }
    return;
  }
  if (msg->has_value()) apply(std::move(**msg), pkt);
}

void Participant::apply(RemotingMessage msg, const RtpPacket& pkt) {
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, WindowManagerInfo>) {
          apply_wmi(m);
        } else if constexpr (std::is_same_v<T, RegionUpdate>) {
          apply_region_update(m, pkt);
        } else if constexpr (std::is_same_v<T, MoveRectangle>) {
          apply_move_rectangle(m);
        } else if constexpr (std::is_same_v<T, MousePointerInfo>) {
          apply_pointer(m);
        }
      },
      msg);
}

void Participant::apply_wmi(const WindowManagerInfo& msg) {
  ++stats_.wmi_received;
  // "The participant MUST create a window for each new WindowID and MUST
  // close this window after receiving a WindowManagerInfo message which
  // does not contain this WindowID." — the map mirrors exactly the message
  // content; the replica pixels persist ("MUST keep the existing window
  // image after a resize and relocation").
  std::map<std::uint16_t, WindowRecord> next;
  for (const WindowRecord& rec : msg.records) next[rec.window_id] = rec;
  windows_ = std::move(next);
}

void Participant::apply_region_update(const RegionUpdate& msg, const RtpPacket& pkt) {
  const ImageCodec* codec = codecs_.find(msg.content_pt);
  if (codec == nullptr) {
    ++stats_.decode_errors;
    return;
  }
  auto img = codec->decode(msg.content);
  if (!img.ok()) {
    ++stats_.decode_errors;
    return;
  }
  replica_.blit(*img, img->bounds(),
                {static_cast<std::int64_t>(msg.left),
                 static_cast<std::int64_t>(msg.top)});
  ++stats_.region_updates;
  deliveries_.push_back(DeliveryRecord{
      loop_.now(), pkt.timestamp, msg.content.size(),
      Rect{static_cast<std::int64_t>(msg.left), static_cast<std::int64_t>(msg.top),
           img->width(), img->height()}});
}

void Participant::apply_move_rectangle(const MoveRectangle& msg) {
  ++stats_.move_rectangles;
  const Rect dest = msg.dest();
  replica_.move_rect(msg.source(), {dest.left, dest.top});
}

void Participant::apply_pointer(const MousePointerInfo& msg) {
  ++stats_.pointer_updates;
  pointer_ = {static_cast<std::int64_t>(msg.left), static_cast<std::int64_t>(msg.top)};
  if (msg.has_icon()) {
    const ImageCodec* codec = codecs_.find(msg.content_pt);
    if (codec != nullptr) {
      auto icon = codec->decode(msg.icon);
      if (icon.ok()) {
        // "The participant MUST store and use this image until a new image
        // arrives from the AH."
        pointer_icon_ = std::move(*icon);
      } else {
        ++stats_.decode_errors;
      }
    }
  }
}

void Participant::handle_bfcp(BytesView packet) {
  auto msg = BfcpMessage::parse(packet);
  if (!msg.ok()) return;
  if (msg->primitive != BfcpPrimitive::kFloorRequestStatus || !msg->request_status)
    return;
  // On a multicast downlink every member sees every status message; only
  // the addressed user reacts.
  if (msg->user_id != opts_.user_id) return;
  switch (*msg->request_status) {
    case RequestStatus::kGranted:
      has_floor_ = true;
      floor_pending_ = false;
      hid_status_ = msg->hid_status.value_or(HidStatus::kAllAllowed);
      break;
    case RequestStatus::kPending:
    case RequestStatus::kAccepted:
      floor_pending_ = true;
      break;
    case RequestStatus::kReleased:
    case RequestStatus::kRevoked:
    case RequestStatus::kCancelled:
    case RequestStatus::kDenied:
      has_floor_ = false;
      floor_pending_ = false;
      hid_status_ = HidStatus::kNotAllowed;
      break;
  }
}

std::vector<Participant::DeliveryRecord> Participant::drain_deliveries() {
  std::vector<DeliveryRecord> out;
  out.swap(deliveries_);
  return out;
}

}  // namespace ads
