// Screen capture substitute: composites the visible parts of the window
// manager's shared windows (each backed by an AppPainter) into the shared
// view, blanks everything else ("must blank all the nonshared windows",
// §2), and reports what changed since the previous tick as scroll moves
// and tile damage — the move and dirty rectangles a real AH gets from the
// OS. Each tick composites the view once, never copies the reference, and
// hashes each shared window's rows once: they serve again as the next
// tick's reference row hashes.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "capture/apps.hpp"
#include "image/image.hpp"
#include "image/scroll_detect.hpp"
#include "wm/window_manager.hpp"

namespace ads {

/// What one capture() produced.
struct CaptureResult {
  /// The shared view: desktop-sized, non-shared areas blanked. Valid as
  /// the view until the next capture(); see ScreenCapturer.
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
///
/// View and reference are two buffers that swap roles. capture()
/// composites into the buffer that is not the reference; damage() makes
/// the view the reference without copying it, so from damage() until the
/// next capture() both are the same buffer. An image reference taken from
/// last_frame() or CaptureResult::frame therefore shows the current view
/// only until the next capture(): from then on it shows the reference, to
/// which detect_moves() applies moves, and the capture after that
/// overwrites it.
class ScreenCapturer {
 public:
  ScreenCapturer(WindowManager& wm, std::int64_t width, std::int64_t height,
                 std::int64_t damage_tile = 32);

  /// Attach a content source to a window. The painter is resized to the
  /// window's current frame.
  void attach(WindowId id, std::unique_ptr<AppPainter> app);
  /// The painter attached to `id`, or nullptr.
  AppPainter* app(WindowId id);

  /// Advance all attached applications one tick and composite the shared
  /// view: each shared window's visible rectangles from its painter's
  /// content (grey for a window without one), black everywhere else.
  CaptureResult capture();

  /// Find each shared window's vertical scroll against the reference. A
  /// scroll is kept only when the reference's source rows equal the view's
  /// destination rows; each kept move is applied to the reference, so
  /// later windows and damage() see it. A window area whose rows are all
  /// unchanged reports no scroll. Finds nothing when there is no reference
  /// of the view's size.
  std::vector<ScrollMove> detect_moves();

  /// The view's changed areas against the reference at `damage_tile`
  /// granularity, or the whole view when there is no reference of its size
  /// (first call, after a resize). Then makes the view the reference.
  std::vector<Rect> damage();

  /// Resize the host desktop (display-mode change). The view is
  /// reallocated black at the new size, so the next damage() reports the
  /// whole new view. No-op on a non-positive or unchanged size.
  void set_screen_size(std::int64_t width, std::int64_t height);

  /// The shared view of the last capture() (see the class comment for how
  /// long the reference stays the view).
  const Image& last_frame() const { return frames_[view_]; }
  /// The whole desktop as the AH user sees it, non-shared windows included,
  /// composited on each call from the current window layout and the
  /// painters' content as of the last capture().
  const Image& desktop();
  /// Desktop width in pixels.
  std::int64_t width() const { return width_; }
  /// Desktop height in pixels.
  std::int64_t height() const { return height_; }
  /// Number of capture() calls so far.
  std::uint64_t ticks() const { return tick_; }

 private:
  /// One shared window's row hashes of the view of tick `tick`, kept to
  /// serve as that area's reference row hashes on the next tick.
  struct WindowRows {
    WindowId window = 0;
    Rect area;
    std::uint64_t tick = 0;
    std::vector<std::uint64_t> hashes;
  };

  void composite();
  bool have_reference() const;

  WindowManager& wm_;
  std::map<WindowId, std::unique_ptr<AppPainter>> apps_;
  std::int64_t width_;
  std::int64_t height_;
  Image frames_[2];       ///< the view and the reference; see the class comment
  int view_ = 0;          ///< index of the view in frames_
  int reference_ = -1;    ///< index of the reference in frames_, -1 for none
  std::uint64_t reference_tick_ = 0;  ///< tick whose view is the reference
  std::vector<WindowRows> rows_;      ///< last detect_moves()' view hashes
  std::vector<std::uint64_t> reference_rows_;  ///< rehash scratch
  ScrollVoter voter_;
  Image desktop_;  ///< desktop() output, composited on demand
  std::int64_t damage_tile_;
  std::uint64_t tick_ = 0;
};

}  // namespace ads
