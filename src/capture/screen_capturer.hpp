// Screen capture substitute: composites the window manager's windows (each
// backed by an AppPainter) into a desktop framebuffer, blanks everything
// outside the visible shared region ("must blank all the nonshared
// windows", §2), and reports what changed since the previous tick as
// scroll moves and tile damage — the move and dirty rectangles a real AH
// gets from the OS.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "capture/apps.hpp"
#include "image/image.hpp"
#include "wm/window_manager.hpp"

namespace ads {

struct CaptureResult {
  /// The shared view: desktop-sized, non-shared areas blanked.
  const Image* frame = nullptr;
};

/// A vertical scroll inside one shared window (§5.2.3): the reference's
/// pixels in `source` reappear unchanged at `dest` in the current view.
struct ScrollMove {
  WindowId window = 0;
  Rect source;
  Point dest;

  friend bool operator==(const ScrollMove&, const ScrollMove&) = default;
};

/// Each tick runs capture(), then optionally detect_moves(), then damage().
/// Both compare the shared view against a reference: the view as of the
/// last damage() call, with the moves found since then applied.
class ScreenCapturer {
 public:
  ScreenCapturer(WindowManager& wm, std::int64_t width, std::int64_t height,
                 std::int64_t damage_tile = 32);

  /// Attach a content source to a window. The painter is resized to the
  /// window's current frame.
  void attach(WindowId id, std::unique_ptr<AppPainter> app);
  AppPainter* app(WindowId id);

  /// Advance all attached applications one tick and recomposite.
  CaptureResult capture();

  /// Find each shared window's vertical scroll against the reference. A
  /// scroll is kept only when the reference's source rows equal the view's
  /// destination rows; each kept move is applied to the reference, so
  /// later windows and damage() see it. Finds nothing when there is no
  /// reference of the view's size.
  std::vector<ScrollMove> detect_moves();

  /// The view's changed areas against the reference at `damage_tile`
  /// granularity, or the whole view when there is no reference of its size
  /// (first call, after a resize). Then makes the view the reference.
  std::vector<Rect> damage();

  /// Resize the host desktop (display-mode change). Both framebuffers are
  /// reallocated, so the next damage() reports the whole new view. No-op
  /// on a non-positive or unchanged size.
  void set_screen_size(std::int64_t width, std::int64_t height);

  const Image& last_frame() const { return shared_view_; }
  const Image& desktop() const { return desktop_; }
  std::int64_t width() const { return desktop_.width(); }
  std::int64_t height() const { return desktop_.height(); }
  std::uint64_t ticks() const { return tick_; }

 private:
  void composite();
  bool have_reference() const;

  WindowManager& wm_;
  std::map<WindowId, std::unique_ptr<AppPainter>> apps_;
  Image desktop_;      ///< all windows, as the AH user sees them
  Image shared_view_;  ///< blanked view exported to participants
  Image reference_;    ///< what participants hold; see the class comment
  std::int64_t damage_tile_;
  std::uint64_t tick_ = 0;
};

}  // namespace ads
