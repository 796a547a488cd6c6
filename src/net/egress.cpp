#include "net/egress.hpp"

#include <algorithm>
#include <array>

#include "util/logging.hpp"

namespace ads {

std::size_t Egress::send(const PacketView& v) {
  if (!tcp()) {
    queue_.push_back(v);  // refcount bump; drained by flush()
    return 0;
  }
  return write_frame(v.wire_size(), v.framed_header(), v.payload());
}

std::size_t Egress::flush() {
  std::size_t staged = 0;
  if (queue_.empty()) return staged;
  if (ep_.send_packet_batch) {
    ep_.send_packet_batch(queue_);
  } else if (ep_.send_packet) {
    for (const PacketView& v : queue_) ep_.send_packet(v);
  } else if (ep_.send_datagram) {
    // View-unaware endpoint: materialise here and count the copies.
    for (const PacketView& v : queue_) {
      const Bytes wire = v.serialize();
      staged += wire.size();
      ep_.send_datagram(wire);
    }
  }
  queue_.clear();
  return staged;
}

std::size_t Egress::send_control(BytesView packet) {
  if (!tcp()) {
    if (ep_.send_datagram) ep_.send_datagram(packet);
    return 0;
  }
  const std::array<std::uint8_t, PacketView::kFramePrefixSize> prefix{
      static_cast<std::uint8_t>(packet.size() >> 8),
      static_cast<std::uint8_t>(packet.size() & 0xFF)};
  return write_frame(packet.size(), prefix, packet);
}

std::size_t Egress::send_now(const PacketView& v) {
  if (tcp()) return send(v);
  if (ep_.send_packet) {
    ep_.send_packet(v);
    return 0;
  }
  if (!ep_.send_datagram) return 0;
  const Bytes wire = v.serialize();
  ep_.send_datagram(wire);
  return wire.size();
}

void Egress::drain_carry() {
  if (carry_.empty()) return;
  std::size_t wrote = 0;
  if (ep_.write_stream) {
    wrote = ep_.write_stream(carry_);
  } else if (ep_.write_gather) {
    const BytesView part(carry_);
    wrote = ep_.write_gather(std::span<const BytesView>(&part, 1));
  }
  carry_.erase(carry_.begin(), carry_.begin() + static_cast<std::ptrdiff_t>(wrote));
}

std::size_t Egress::backlog() const {
  return (ep_.backlog ? ep_.backlog() : 0) + carry_.size();
}

void Egress::clear() {
  carry_.clear();
  queue_.clear();
}

std::size_t Egress::write_frame(std::size_t length, BytesView head, BytesView body) {
  if (length > 0xFFFF) {
    ADS_LOG(kWarn) << "packet too large for RFC 4571 framing: " << length;
    return 0;
  }
  if (!ep_.write_gather) {
    // Staged fallback: append the frame to the carry and write that.
    carry_.insert(carry_.end(), head.begin(), head.end());
    carry_.insert(carry_.end(), body.begin(), body.end());
    drain_carry();
    return head.size() + body.size();
  }
  // Gather path: carry + frame go to the transport as one offer — the same
  // bytes, in the same single write, as the staged fallback, so
  // segmentation matches byte for byte. Only the unaccepted suffix is
  // re-staged.
  std::array<BytesView, 3> parts;
  std::size_t n = 0;
  if (!carry_.empty()) parts[n++] = BytesView(carry_);
  parts[n++] = head;
  parts[n++] = body;
  const std::span<const BytesView> offer(parts.data(), n);
  std::size_t wrote = ep_.write_gather(offer);
  Bytes rest;
  for (const BytesView& part : offer) {
    const std::size_t taken = std::min(wrote, part.size());
    wrote -= taken;
    rest.insert(rest.end(), part.begin() + static_cast<std::ptrdiff_t>(taken),
                part.end());
  }
  carry_ = std::move(rest);
  return carry_.size();
}

}  // namespace ads
