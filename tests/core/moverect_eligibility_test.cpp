// §5.2.2 MoveRectangle eligibility: "Before moving image of the source
// region, it is important that the contents of the source region are
// up-to-date" — a participant that missed an update overlapping the scroll
// source must NOT receive the MoveRectangle, or it replays the move from
// stale pixels and its replica diverges.
//
// Regression scenario (failed under the old area-comparison predicate):
// a lagging participant's only stale region is re-damaged by the very tick
// that scrolls, so its pending area equals this tick's damage area and it
// was misclassified as caught-up.
#include <gtest/gtest.h>

#include <memory>

#include "core/app_host.hpp"
#include "core/participant.hpp"
#include "image/metrics.hpp"

namespace ads {
namespace {

constexpr std::int64_t kW = 200;
constexpr std::int64_t kH = 192;  // six 32-row damage tiles

/// Row-unique stripe so vertical displacement is unambiguous to the scroll
/// detector.
Pixel row_pixel(std::int64_t y, std::uint8_t base) {
  return Pixel{static_cast<std::uint8_t>(base + y * 3),
               static_cast<std::uint8_t>(y * 7), base, 255};
}

/// Externally scripted content: the test sets `phase` before each AH tick.
///  phase 0 — static.
///  phase 1 — new content appears in the bottom tile (rows 160..191).
///  phase 2 — everything scrolls up 40 px; the exposed strip (rows
///            152..191) is repainted. The bottom tile is thus re-damaged
///            on the same tick that produces the MoveRectangle, while the
///            scroll source still covers it.
class ScriptedScroller : public AppPainter {
 public:
  explicit ScriptedScroller(const int* phase)
      : AppPainter(kW, kH, Pixel{0, 0, 0, 255}), phase_(phase) {
    for (std::int64_t y = 0; y < kH; ++y) {
      content_.fill_rect({0, y, kW, 1}, row_pixel(y, 40));
    }
  }

  void tick(std::uint64_t) override {
    if (*phase_ == 1) {
      for (std::int64_t y = 160; y < 192; ++y) {
        content_.fill_rect({0, y, kW, 1}, row_pixel(y, 160));
      }
    } else if (*phase_ == 2) {
      content_.move_rect({0, 40, kW, kH - 40}, {0, 0});
      for (std::int64_t y = 152; y < 192; ++y) {
        content_.fill_rect({0, y, kW, 1}, row_pixel(y, 220));
      }
    }
  }

  std::string_view name() const override { return "scripted-scroller"; }

 private:
  const int* phase_;
};

struct TcpViewer {
  explicit TcpViewer(EventLoop& loop)
      : participant(loop, [] {
          ParticipantOptions o;
          o.transport = ParticipantOptions::Transport::kTcp;
          o.screen_width = kW;
          o.screen_height = kH;
          return o;
        }()) {}

  Participant participant;
  std::size_t backlog = 0;

  Endpoint endpoint() {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kTcp;
    ep.write_gather = [this](std::span<const BytesView> parts) {
      std::size_t n = 0;
      for (const BytesView& data : parts) {
        participant.on_stream_bytes(data);
        n += data.size();
      }
      return n;
    };
    ep.backlog = [this] { return backlog; };
    return ep;
  }
};

TEST(MoveRectEligibility, LaggingParticipantWithRedamagedRegionGetsNoStaleMove) {
  EventLoop loop;
  AppHostOptions opts;
  opts.screen_width = kW;
  opts.screen_height = kH;
  opts.pointer_messages = false;
  opts.use_move_rectangle = true;
  AppHost host(loop, opts);

  int phase = 0;
  const WindowId w = host.wm().create({0, 0, kW, kH});
  host.capturer().attach(w, std::make_unique<ScriptedScroller>(&phase));

  TcpViewer fast(loop);
  TcpViewer lag(loop);
  host.add_participant(fast.endpoint());
  host.add_participant(lag.endpoint());

  // Converge both replicas on the initial content.
  host.tick();
  host.tick();
  const Image& truth0 = host.capturer().last_frame();
  ASSERT_EQ(diff_pixel_count(lag.participant.screen().crop(truth0.bounds()),
                             truth0),
            0);

  // The bottom tile changes while the §7 gate holds `lag` back.
  phase = 1;
  lag.backlog = opts.link.backlog_limit + 1;
  host.tick();
  const std::uint64_t skips = host.stats().frames_skipped_backlog;
  ASSERT_GE(skips, 1u);

  // The scroll tick: `lag` has drained, its stale tile is re-damaged, and
  // the scroll source covers that stale tile.
  phase = 2;
  lag.backlog = 0;
  host.tick();
  ASSERT_GE(host.stats().move_rectangles_sent, 1u);  // the scroll was found
  // Only the caught-up participant may replay the move.
  EXPECT_EQ(lag.participant.stats().move_rectangles, 0u);
  EXPECT_GE(fast.participant.stats().move_rectangles, 1u);

  // Settle and compare: a stale replay would leave rows 120..127 (the red
  // strip's new position outside the re-damaged tiles) permanently wrong.
  phase = 0;
  host.tick();
  host.tick();
  const Image& truth = host.capturer().last_frame();
  EXPECT_EQ(diff_pixel_count(fast.participant.screen().crop(truth.bounds()),
                             truth),
            0);
  EXPECT_EQ(diff_pixel_count(lag.participant.screen().crop(truth.bounds()),
                             truth),
            0);
}

}  // namespace
}  // namespace ads
