#include "capture/screen_capturer.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "image/damage.hpp"
#include "image/scroll_detect.hpp"

namespace ads {
namespace {

bool covers(const std::vector<Rect>& rects, Point p) {
  for (const Rect& r : rects) {
    if (r.contains(p)) return true;
  }
  return false;
}

struct CapturerTest : ::testing::Test {
  WindowManager wm;
};

TEST_F(CapturerTest, FirstCaptureReportsFullDamage) {
  ScreenCapturer cap(wm, 320, 240);
  wm.create({10, 10, 100, 100}, 1);
  cap.capture();
  const auto damage = cap.damage();
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0], (Rect{0, 0, 320, 240}));
}

TEST_F(CapturerTest, FirstFrameIsFullyDamaged) {
  // A view that is not a tile multiple: the first damage is the exact view,
  // not rounded up to whole tiles, and is reported only once.
  wm.create({10, 10, 50, 40}, 1);
  ScreenCapturer cap(wm, 100, 80, 32);
  cap.capture();
  EXPECT_EQ(cap.damage(), (std::vector<Rect>{{0, 0, 100, 80}}));
  cap.capture();
  EXPECT_TRUE(cap.damage().empty());
}

TEST_F(CapturerTest, StaticSceneProducesNoDamage) {
  ScreenCapturer cap(wm, 320, 240);
  wm.create({10, 10, 100, 100}, 1);  // no app attached: static grey fill
  cap.capture();
  cap.damage();
  cap.capture();
  EXPECT_TRUE(cap.damage().empty());
}

TEST_F(CapturerTest, AppActivityProducesDamageInsideWindow) {
  const WindowId w = wm.create({50, 60, 128, 96}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<PaintApp>(128, 96, 5));
  cap.capture();
  cap.damage();
  cap.capture();
  const auto damage = cap.damage();
  ASSERT_FALSE(damage.empty());
  // Damage is tile-granular, so rectangles may overhang the window by up to
  // one tile — but every damage rect must at least intersect it.
  const Rect window{50, 60, 128, 96};
  const Rect tile_padded{50 - 32, 60 - 32, 128 + 64, 96 + 64};
  for (const Rect& r : damage) {
    EXPECT_TRUE(overlaps(window, r)) << to_string(r);
    EXPECT_TRUE(tile_padded.contains(r)) << to_string(r);
  }
}

TEST_F(CapturerTest, SharedViewBlanksDesktopBackground) {
  const WindowId w = wm.create({50, 60, 64, 64}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<SlideshowApp>(64, 64, 3));
  cap.capture();
  const Image& view = cap.last_frame();
  // Outside every window: black.
  EXPECT_EQ(view.at(0, 0), kBlack);
  EXPECT_EQ(view.at(300, 200), kBlack);
  // Inside the shared window: app content (slideshow never paints black).
  EXPECT_NE(view.at(60, 70), kBlack);
}

TEST_F(CapturerTest, NonSharedWindowsAreBlanked) {
  const WindowId shared = wm.create({0, 0, 100, 100}, 1);
  const WindowId secret = wm.create({150, 0, 100, 100}, 2);
  wm.share_group(1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(shared, std::make_unique<SlideshowApp>(100, 100, 3));
  cap.attach(secret, std::make_unique<SlideshowApp>(100, 100, 4));
  cap.capture();
  const Image& view = cap.last_frame();
  EXPECT_NE(view.at(50, 50), kBlack);   // shared content visible
  EXPECT_EQ(view.at(200, 50), kBlack);  // secret window blanked
  // The AH user still sees the secret window on their own desktop.
  EXPECT_NE(cap.desktop().at(200, 50), Pixel(40, 44, 52, 255));
}

TEST_F(CapturerTest, NonSharedWindowOnTopBlanksOverlap) {
  const WindowId shared = wm.create({0, 0, 200, 200}, 1);
  const WindowId secret = wm.create({50, 50, 100, 100}, 2);  // on top
  wm.share_group(1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(shared, std::make_unique<SlideshowApp>(200, 200, 3));
  cap.attach(secret, std::make_unique<SlideshowApp>(100, 100, 4));
  cap.capture();
  const Image& view = cap.last_frame();
  EXPECT_NE(view.at(10, 10), kBlack);    // uncovered shared area
  EXPECT_EQ(view.at(100, 100), kBlack);  // covered by secret window
}

TEST_F(CapturerTest, WindowMoveCausesDamageAtBothPositions) {
  const WindowId w = wm.create({0, 0, 64, 64}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<SlideshowApp>(64, 64, 3));
  cap.capture();
  cap.damage();
  cap.capture();  // settle
  cap.damage();
  wm.move(w, {128, 128});
  cap.capture();
  const auto damage = cap.damage();
  EXPECT_TRUE(covers(damage, {10, 10}));     // old position cleared
  EXPECT_TRUE(covers(damage, {140, 140}));   // new position painted
}

TEST_F(CapturerTest, DamageAfterResizeReportsWholeView) {
  wm.create({10, 10, 100, 100}, 1);  // static scene: only resizes damage
  ScreenCapturer cap(wm, 320, 240);
  cap.capture();
  cap.damage();

  cap.set_screen_size(400, 240);
  cap.capture();
  EXPECT_EQ(cap.damage(), (std::vector<Rect>{{0, 0, 400, 240}}));

  // Shrinking reports the new view, not diff_rects' union bound.
  cap.set_screen_size(200, 120);
  cap.capture();
  EXPECT_EQ(cap.damage(), (std::vector<Rect>{{0, 0, 200, 120}}));
  cap.capture();
  EXPECT_TRUE(cap.damage().empty());
}

TEST_F(CapturerTest, DetectMovesNeedsAReferenceOfTheViewSize) {
  const WindowId w = wm.create({0, 0, 200, 200}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<DocumentApp>(200, 200, 3, 16));
  cap.capture();
  EXPECT_TRUE(cap.detect_moves().empty());  // first tick: no reference
  cap.damage();
  cap.capture();
  const auto moves = cap.detect_moves();
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].window, w);
  EXPECT_EQ(moves[0].dest.y - moves[0].source.top, -16);
  // The move is applied to the reference: only the exposed strip is damage.
  std::int64_t area = 0;
  for (const Rect& r : cap.damage()) area += r.area();
  EXPECT_LT(area, 200 * 64);

  cap.set_screen_size(300, 240);
  cap.capture();
  EXPECT_TRUE(cap.detect_moves().empty());  // reference is the old size
}

TEST_F(CapturerTest, ResizeReshapesAppBackingStore) {
  const WindowId w = wm.create({0, 0, 64, 64}, 1);
  ScreenCapturer cap(wm, 320, 240);
  cap.attach(w, std::make_unique<TerminalApp>(64, 64, 3));
  cap.capture();
  wm.resize(w, 128, 96);
  cap.capture();
  EXPECT_EQ(cap.app(w)->content().width(), 128);
  EXPECT_EQ(cap.app(w)->content().height(), 96);
}

TEST_F(CapturerTest, TickCounterAdvances) {
  ScreenCapturer cap(wm, 64, 64);
  EXPECT_EQ(cap.ticks(), 0u);
  cap.capture();
  cap.capture();
  EXPECT_EQ(cap.ticks(), 2u);
}

// Differential check of the capturer's frame differencing against the
// AppHost::tick() block it replaced: the oracle keeps its own previous
// frame, replays each scroll on a copy, verifies the replay by hash and
// diffs the result.
class TickOracle {
 public:
  struct Result {
    std::vector<ScrollMove> moves;
    std::vector<Rect> damage;
  };

  Result tick(const WindowManager& wm, const Image& frame, bool use_moves,
              std::int64_t tile) {
    Result out;
    const bool have_previous = !previous_.empty() &&
                               previous_.width() == frame.width() &&
                               previous_.height() == frame.height();
    if (use_moves && have_previous) {
      for (const Window& w : wm.shared_windows()) {
        const Rect area = intersect(w.frame, frame.bounds());
        auto match = detect_scroll(previous_, frame, area);
        if (!match) continue;
        const Rect dest = match->source.translated(0, match->dy);
        Image replay = previous_;
        replay.move_rect(match->source, {dest.left, dest.top});
        if (hash_rect(replay, dest) != hash_rect(frame, dest)) continue;
        out.moves.push_back(ScrollMove{w.id, match->source, {dest.left, dest.top}});
        previous_ = std::move(replay);
      }
    }
    if (have_previous) {
      out.damage = diff_rects(previous_, frame, tile);
    } else if (!frame.empty()) {
      out.damage = {frame.bounds()};
    }
    previous_ = frame;
    return out;
  }

 private:
  Image previous_;
};

struct DiffCase {
  std::string app;
  std::int64_t scroll_px = 0;  ///< document only
  bool use_moves = true;
};

std::string case_name(const DiffCase& c) {
  return c.app + (c.scroll_px > 0 ? std::to_string(c.scroll_px) : "") +
         (c.use_moves ? "" : "_no_moves");
}

void PrintTo(const DiffCase& c, std::ostream* os) { *os << case_name(c); }

std::unique_ptr<AppPainter> make_painter(const DiffCase& c, std::int64_t w,
                                         std::int64_t h) {
  if (c.app == "document") return std::make_unique<DocumentApp>(w, h, 3, c.scroll_px);
  if (c.app == "terminal") return std::make_unique<TerminalApp>(w, h, 3);
  return std::make_unique<WebPageApp>(w, h, 3);
}

class CapturerDifferential : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CapturerDifferential, MovesAndDamageMatchTheTickOracle) {
  const DiffCase& c = GetParam();
  constexpr std::int64_t kTile = 32;
  WindowManager wm;
  // Two overlapping shared windows, the case under test on top, and a
  // non-shared window over the lower one.
  const WindowId lower = wm.create({16, 16, 360, 300}, 1);
  const WindowId upper = wm.create({260, 140, 360, 320}, 1);
  wm.create({40, 60, 160, 100}, 2);
  wm.share_group(1);
  ScreenCapturer cap(wm, 640, 480, kTile);
  cap.attach(lower, std::make_unique<DocumentApp>(360, 300, 5, 8));
  cap.attach(upper, make_painter(c, 360, 320));

  TickOracle oracle;
  std::size_t moves = 0;
  for (int tick = 0; tick < 70; ++tick) {
    if (tick == 25) cap.set_screen_size(600, 440);  // clips the upper window
    if (tick == 45) cap.set_screen_size(640, 480);
    cap.capture();
    const auto want = oracle.tick(wm, cap.last_frame(), c.use_moves, kTile);
    const std::vector<ScrollMove> got =
        c.use_moves ? cap.detect_moves() : std::vector<ScrollMove>{};
    ASSERT_EQ(got, want.moves) << "tick " << tick;
    ASSERT_EQ(cap.damage(), want.damage) << "tick " << tick;
    moves += got.size();
  }
  if (c.app == "document" && c.use_moves) {
    EXPECT_GT(moves, 30u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CapturerDifferential,
    ::testing::Values(DiffCase{"document", 4}, DiffCase{"document", 8},
                      DiffCase{"document", 16}, DiffCase{"document", 32},
                      DiffCase{"document", 64}, DiffCase{"terminal"},
                      DiffCase{"webpage"}, DiffCase{"document", 16, false}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace ads
