#include "capture/screen_capturer.hpp"

#include <algorithm>
#include <cstring>

#include "image/damage.hpp"

namespace ads {
namespace {

constexpr Pixel kDesktopBackground{40, 44, 52, 255};
constexpr Pixel kUnpaintedWindow{90, 90, 90, 255};

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
      width_(width),
      height_(height),
      frames_{Image(width, height, kBlack), Image()},
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
  if (width == width_ && height == height_) return;
  width_ = width;
  height_ = height;
  // The reference keeps its old size, so there is no reference until the
  // next damage(); the kept row hashes describe the old view.
  if (view_ == reference_) view_ = 1 - view_;
  frames_[view_] = Image(width, height, kBlack);
  rows_.clear();
}

void ScreenCapturer::composite() {
  Image& view = frames_[view_];
  if (view.width() != width_ || view.height() != height_) {
    view = Image(width_, height_, kBlack);
  }
  // Visible regions of distinct windows are disjoint, so each view pixel is
  // written once: by its shared window, or black.
  Region blank(view.bounds());
  for (const Window& w : wm_.stacking_order()) {
    AppPainter* painter = app(w.id);
    if (painter && (painter->content().width() != w.frame.width ||
                    painter->content().height() != w.frame.height)) {
      painter->resize(w.frame.width, w.frame.height);
    }
    if (!wm_.is_shared(w)) continue;
    const Region visible = wm_.visible_region(w.id);
    for (const Rect& r : visible.rects()) {
      const Rect c = intersect(r, view.bounds());
      if (c.empty()) continue;
      if (painter) {
        view.blit(painter->content(), c.translated(-w.frame.left, -w.frame.top),
                  {c.left, c.top});
      } else {
        view.fill_rect(c, kUnpaintedWindow);
      }
      blank.subtract_rect(c);
    }
  }
  for (const Rect& r : blank.rects()) view.fill_rect(r, kBlack);
}

CaptureResult ScreenCapturer::capture() {
  for (auto& [id, app] : apps_) {
    if (wm_.exists(id)) app->tick(tick_);
  }
  ++tick_;
  if (view_ == reference_) view_ = 1 - view_;
  composite();
  return CaptureResult{&frames_[view_]};
}

const Image& ScreenCapturer::desktop() {
  desktop_ = Image(width_, height_, kDesktopBackground);
  for (const Window& w : wm_.stacking_order()) {
    if (const AppPainter* painter = app(w.id)) {
      desktop_.blit(painter->content(), painter->content().bounds(),
                    {w.frame.left, w.frame.top});
    } else {
      desktop_.fill_rect(w.frame, kUnpaintedWindow);
    }
  }
  return desktop_;
}

bool ScreenCapturer::have_reference() const {
  if (reference_ < 0) return false;
  const Image& reference = frames_[reference_];
  return !reference.empty() && reference.width() == frames_[view_].width() &&
         reference.height() == frames_[view_].height();
}

std::vector<ScrollMove> ScreenCapturer::detect_moves() {
  std::vector<ScrollMove> moves;
  if (!have_reference()) return moves;
  Image& reference = frames_[reference_];
  const Image& view = frames_[view_];
  std::vector<WindowRows> rows;
  for (const Window& w : wm_.shared_windows()) {
    const Rect area = intersect(w.frame, view.bounds());
    WindowRows& now = rows.emplace_back(WindowRows{w.id, area, tick_, {}});
    hash_rows(view, area, now.hashes);

    // The view hashes kept from the reference's tick are the reference's
    // own, unless a move accepted above rewrote rows inside the area.
    const auto kept = std::find_if(rows_.begin(), rows_.end(), [&](const WindowRows& r) {
      return r.window == w.id;
    });
    const bool rewritten = std::any_of(moves.begin(), moves.end(), [&](const ScrollMove& m) {
      return overlaps(Rect{m.dest.x, m.dest.y, m.source.width, m.source.height}, area);
    });
    const bool reuse = kept != rows_.end() && kept->tick == reference_tick_ &&
                       kept->area == area && !rewritten;
    if (!reuse) hash_rows(reference, area, reference_rows_);

    const auto match = voter_.vote(reuse ? kept->hashes : reference_rows_, now.hashes, area);
    if (!match) continue;
    const Point dest{match->source.left, match->source.top + match->dy};
    if (!same_pixels(reference, match->source, view, dest)) continue;
    reference.move_rect(match->source, dest);
    moves.push_back(ScrollMove{w.id, match->source, dest});
  }
  rows_ = std::move(rows);
  return moves;
}

std::vector<Rect> ScreenCapturer::damage() {
  std::vector<Rect> rects;
  const Image& view = frames_[view_];
  if (have_reference()) {
    rects = diff_rects(frames_[reference_], view, damage_tile_);
  } else if (!view.empty()) {
    rects = {view.bounds()};
  }
  reference_ = view_;
  reference_tick_ = tick_;
  return rects;
}

}  // namespace ads
