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

void Egress::flush() {
  if (queue_.empty()) return;
  if (ep_.send_packet_batch) ep_.send_packet_batch(queue_);
  queue_.clear();
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
  if (ep_.send_packet_batch) ep_.send_packet_batch(std::span<const PacketView>(&v, 1));
  return 0;
}

void Egress::drain_carry() {
  if (!carry_.empty()) write({});
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
  const std::array<BytesView, 2> frame{head, body};
  return write(frame);
}

std::size_t Egress::write(std::span<const BytesView> frame) {
  std::array<BytesView, 3> parts;
  std::size_t n = 0;
  if (!carry_.empty()) parts[n++] = BytesView(carry_);
  for (const BytesView& part : frame) parts[n++] = part;
  const std::span<const BytesView> offer(parts.data(), n);
  std::size_t wrote = ep_.write_gather ? ep_.write_gather(offer) : 0;
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
