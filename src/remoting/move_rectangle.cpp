#include "remoting/move_rectangle.hpp"

namespace ads {

MoveRectangle MoveRectangle::from(std::uint16_t window_id, const Rect& source,
                                  Point dest) {
  return {window_id,
          static_cast<std::uint32_t>(source.left),
          static_cast<std::uint32_t>(source.top),
          static_cast<std::uint32_t>(source.width),
          static_cast<std::uint32_t>(source.height),
          static_cast<std::uint32_t>(dest.x),
          static_cast<std::uint32_t>(dest.y)};
}

Bytes MoveRectangle::serialize() const {
  ByteWriter out(CommonHeader::kSize + 24);
  CommonHeader header;
  header.msg_type = static_cast<std::uint8_t>(RemotingType::kMoveRectangle);
  header.parameter = 0;
  header.window_id = window_id;
  header.write(out);
  out.u32(source_left);
  out.u32(source_top);
  out.u32(width);
  out.u32(height);
  out.u32(dest_left);
  out.u32(dest_top);
  return out.take();
}

Result<MoveRectangle> MoveRectangle::parse(BytesView payload) {
  ByteReader in(payload);
  auto header = CommonHeader::read(in);
  if (!header) return header.error();
  if (header->msg_type != static_cast<std::uint8_t>(RemotingType::kMoveRectangle))
    return ParseError::kBadValue;
  return parse_body(in, header->window_id);
}

Result<MoveRectangle> MoveRectangle::parse_body(ByteReader& in,
                                                std::uint16_t window_id) {
  MoveRectangle msg;
  msg.window_id = window_id;
  auto sl = in.u32();
  auto st = in.u32();
  auto w = in.u32();
  auto h = in.u32();
  auto dl = in.u32();
  auto dt = in.u32();
  if (!sl || !st || !w || !h || !dl || !dt) return ParseError::kTruncated;
  if (!in.at_end()) return ParseError::kBadValue;
  msg.source_left = *sl;
  msg.source_top = *st;
  msg.width = *w;
  msg.height = *h;
  msg.dest_left = *dl;
  msg.dest_top = *dt;
  return msg;
}

}  // namespace ads
