#include "capture/screen_capturer.hpp"

#include <cstring>

#include "image/damage.hpp"
#include "image/scroll_detect.hpp"

namespace ads {
namespace {

/// True when `a`'s pixels in `src` equal `b`'s pixels in `src` moved to
/// `dst`. Both rectangles lie inside their images.
bool same_pixels(const Image& a, const Rect& src, const Image& b, Point dst) {
  const std::size_t bytes = static_cast<std::size_t>(src.width) * sizeof(Pixel);
  for (std::int64_t y = 0; y < src.height; ++y) {
    if (std::memcmp(a.row(src.top + y).data() + src.left,
                    b.row(dst.y + y).data() + dst.x, bytes) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

ScreenCapturer::ScreenCapturer(WindowManager& wm, std::int64_t width,
                               std::int64_t height, std::int64_t damage_tile)
    : wm_(wm),
      desktop_(width, height, Pixel{40, 44, 52, 255}),
      shared_view_(width, height, kBlack),
      damage_tile_(damage_tile) {}

void ScreenCapturer::attach(WindowId id, std::unique_ptr<AppPainter> app) {
  if (const Window* w = wm_.find(id)) {
    if (app->content().width() != w->frame.width ||
        app->content().height() != w->frame.height) {
      app->resize(w->frame.width, w->frame.height);
    }
  }
  apps_[id] = std::move(app);
}

AppPainter* ScreenCapturer::app(WindowId id) {
  auto it = apps_.find(id);
  return it == apps_.end() ? nullptr : it->second.get();
}

void ScreenCapturer::set_screen_size(std::int64_t width, std::int64_t height) {
  if (width <= 0 || height <= 0) return;
  if (width == desktop_.width() && height == desktop_.height()) return;
  desktop_ = Image(width, height, Pixel{40, 44, 52, 255});
  shared_view_ = Image(width, height, kBlack);
}

void ScreenCapturer::composite() {
  desktop_.fill(Pixel{40, 44, 52, 255});
  for (const Window& w : wm_.stacking_order()) {
    auto it = apps_.find(w.id);
    if (it == apps_.end()) {
      desktop_.fill_rect(w.frame, Pixel{90, 90, 90, 255});
      continue;
    }
    AppPainter& app = *it->second;
    if (app.content().width() != w.frame.width ||
        app.content().height() != w.frame.height) {
      app.resize(w.frame.width, w.frame.height);
    }
    desktop_.blit(app.content(), app.content().bounds(), {w.frame.left, w.frame.top});
  }

  // Export view: black except the visible parts of shared windows.
  shared_view_.fill(kBlack);
  const Region shared_region = wm_.visible_shared_region();
  for (const Rect& r : shared_region.rects()) {
    const Rect clipped = intersect(r, desktop_.bounds());
    shared_view_.blit(desktop_, clipped, {clipped.left, clipped.top});
  }
}

CaptureResult ScreenCapturer::capture() {
  for (auto& [id, app] : apps_) {
    if (wm_.exists(id)) app->tick(tick_);
  }
  ++tick_;
  composite();
  return CaptureResult{&shared_view_};
}

bool ScreenCapturer::have_reference() const {
  return !reference_.empty() && reference_.width() == shared_view_.width() &&
         reference_.height() == shared_view_.height();
}

std::vector<ScrollMove> ScreenCapturer::detect_moves() {
  std::vector<ScrollMove> moves;
  if (!have_reference()) return moves;
  for (const Window& w : wm_.shared_windows()) {
    const Rect area = intersect(w.frame, shared_view_.bounds());
    const auto match = detect_scroll(reference_, shared_view_, area);
    if (!match) continue;
    const Point dest{match->source.left, match->source.top + match->dy};
    if (!same_pixels(reference_, match->source, shared_view_, dest)) continue;
    reference_.move_rect(match->source, dest);
    moves.push_back(ScrollMove{w.id, match->source, dest});
  }
  return moves;
}

std::vector<Rect> ScreenCapturer::damage() {
  std::vector<Rect> rects;
  if (have_reference()) {
    rects = diff_rects(reference_, shared_view_, damage_tile_);
  } else if (!shared_view_.empty()) {
    rects = {shared_view_.bounds()};
  }
  reference_ = shared_view_;
  return rects;
}

}  // namespace ads
