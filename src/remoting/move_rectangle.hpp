// MoveRectangle message (draft §5.2.3, Figure 12): instructs the
// participant to copy a source rectangle of a window to a destination
// position — "efficient for some drawing operations like scrolls". Source
// and destination may overlap.
#pragma once

#include "image/geometry.hpp"
#include "remoting/header.hpp"
#include "util/bytes.hpp"

namespace ads {

struct MoveRectangle {
  std::uint16_t window_id = 0;
  std::uint32_t source_left = 0;
  std::uint32_t source_top = 0;
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::uint32_t dest_left = 0;
  std::uint32_t dest_top = 0;

  /// The move of `window_id`'s `source` rectangle to top-left corner `dest`,
  /// narrowed to the wire's unsigned 32-bit fields.
  static MoveRectangle from(std::uint16_t window_id, const Rect& source, Point dest);
  /// The rectangle the move copies from.
  Rect source() const { return {source_left, source_top, width, height}; }
  /// The rectangle the move copies to: source()'s extent at the destination.
  Rect dest() const { return {dest_left, dest_top, width, height}; }

  /// Serialise including the common remoting/HIP header.
  Bytes serialize() const;
  static Result<MoveRectangle> parse(BytesView payload);
  static Result<MoveRectangle> parse_body(ByteReader& in, std::uint16_t window_id);

  friend bool operator==(const MoveRectangle&, const MoveRectangle&) = default;
};

}  // namespace ads
