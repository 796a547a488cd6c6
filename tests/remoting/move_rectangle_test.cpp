#include "remoting/move_rectangle.hpp"

#include <gtest/gtest.h>

namespace ads {
namespace {

MoveRectangle sample() {
  return MoveRectangle{/*window_id=*/3, /*source_left=*/100, /*source_top=*/200,
                       /*width=*/50, /*height=*/60, /*dest_left=*/100,
                       /*dest_top=*/150};
}

TEST(MoveRectangle, WireLayoutMatchesFigure12) {
  const Bytes wire = sample().serialize();
  // Common header (4) + six u32 fields (24).
  ASSERT_EQ(wire.size(), 28u);
  EXPECT_EQ(wire[0], 3);  // Msg Type = MoveRectangle
  EXPECT_EQ(wire[3], 3);  // WindowID low byte
  // Source Left = 100 at offset 4..7.
  EXPECT_EQ(wire[7], 100);
  // Source Top = 200 at offset 8..11.
  EXPECT_EQ(wire[11], 200);
  // Width = 50 at 12..15, Height = 60 at 16..19.
  EXPECT_EQ(wire[15], 50);
  EXPECT_EQ(wire[19], 60);
  // Destination Left/Top at 20..27.
  EXPECT_EQ(wire[23], 100);
  EXPECT_EQ(wire[27], 150);
}

TEST(MoveRectangle, RoundTrip) {
  auto parsed = MoveRectangle::parse(sample().serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, sample());
  // The geometry a receiver replays: the source rect and the same-size
  // destination rect.
  EXPECT_EQ(parsed->source(), (Rect{100, 200, 50, 60}));
  EXPECT_EQ(parsed->dest(), (Rect{100, 150, 50, 60}));
  // The factory builds the same message from that geometry.
  EXPECT_EQ(MoveRectangle::from(3, parsed->source(), Point{100, 150}), sample());
  EXPECT_EQ(MoveRectangle::from(3, Rect{1, 2, 3, 4}, Point{5, 6}),
            (MoveRectangle{3, 1, 2, 3, 4, 5, 6}));
}

TEST(MoveRectangle, OverlappingMoveIsLegal) {
  // §5.2.3: "Source and destination rectangles may overlap."
  MoveRectangle mr = sample();
  mr.dest_left = mr.source_left + 10;
  mr.dest_top = mr.source_top;
  auto parsed = MoveRectangle::parse(mr.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, mr);
}

TEST(MoveRectangle, WrongTypeRejected) {
  Bytes wire = sample().serialize();
  wire[0] = 2;
  EXPECT_FALSE(MoveRectangle::parse(wire).ok());
}

TEST(MoveRectangle, TruncatedRejected) {
  const Bytes wire = sample().serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(MoveRectangle::parse(BytesView(wire).subspan(0, len)).ok()) << len;
  }
}

TEST(MoveRectangle, TrailingBytesRejected) {
  Bytes wire = sample().serialize();
  wire.push_back(0);
  EXPECT_FALSE(MoveRectangle::parse(wire).ok());
}

TEST(MoveRectangle, MaxCoordinates) {
  MoveRectangle mr;
  mr.window_id = 0xFFFF;
  mr.source_left = mr.source_top = mr.width = mr.height = 0xFFFFFFFF;
  mr.dest_left = mr.dest_top = 0xFFFFFFFF;
  auto parsed = MoveRectangle::parse(mr.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, mr);
}

}  // namespace
}  // namespace ads
