// Scripted application painters — the workload generators that substitute
// for real applications on the AH. Each one reproduces a content class the
// draft's §4.2 discusses when motivating codec choice:
//   * TerminalApp   — computer-generated text, small localised updates
//   * SlideshowApp  — large flat areas, rare full-window transitions
//   * DocumentApp   — text page that scrolls (MoveRectangle workload)
//   * VideoApp      — photographic, every-pixel-changes content
//   * PaintApp      — sparse interactive strokes
//   * WebPageApp    — tiled incremental page loads (bursty, tile-aligned)
//   * EditingApp    — multi-presenter editing with rotating turns (the
//                     BFCP floor-handoff workload)
// Painters are deterministic functions of (seed, tick).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "image/image.hpp"
#include "util/prng.hpp"

namespace ads {

/// A window's content source: a width x height image that tick() advances.
class AppPainter {
 public:
  /// Content of the given size, filled with `background`.
  AppPainter(std::int64_t width, std::int64_t height, Pixel background)
      : content_(width, height, background) {}
  /// Painters are owned and destroyed through this base.
  virtual ~AppPainter() = default;

  /// Advance the application by one frame tick, mutating content().
  virtual void tick(std::uint64_t tick_index) = 0;

  /// Identifier used in benchmark output rows.
  virtual std::string_view name() const = 0;

  /// The current frame of the application.
  const Image& content() const { return content_; }

  /// React to a window resize: default reallocates and repaints nothing.
  virtual void resize(std::int64_t width, std::int64_t height);

 protected:
  Image content_;
};

/// Terminal emulator: dark background, characters appear cell by cell;
/// scrolls one line when the cursor passes the last row. Besides its
/// self-typing workload mode, it accepts injected input — the AH-side
/// "regenerate human interface events" hook (§1): wire AppHost's input
/// sink to inject_utf8()/inject_key() and participants literally type into
/// the shared terminal.
class TerminalApp final : public AppPainter {
 public:
  TerminalApp(std::int64_t width, std::int64_t height, std::uint64_t seed,
              int chars_per_tick = 8);
  /// Type this tick's characters (injected input first).
  void tick(std::uint64_t tick_index) override;
  /// "terminal".
  std::string_view name() const override { return "terminal"; }

  /// Queue text to be "typed" on upcoming ticks (ASCII subset rendered;
  /// other code points show as a block glyph).
  void inject_utf8(std::string_view utf8);
  /// Queue a key event; Enter maps to newline, Backspace erases.
  void inject_key(std::uint32_t java_keycode);

  /// Injected characters rendered so far.
  std::uint64_t injected_chars() const { return injected_chars_; }

 private:
  void put_char(std::uint8_t glyph);
  void backspace();
  void newline();

  Prng rng_;
  int chars_per_tick_;
  std::int64_t cell_w_ = 8;
  std::int64_t cell_h_ = 16;
  std::int64_t cursor_col_ = 0;
  std::int64_t cursor_row_ = 0;
  std::string pending_input_;
  std::uint64_t injected_chars_ = 0;
};

/// Slide deck: every `ticks_per_slide` ticks the whole window repaints with
/// a new computer-generated layout; otherwise nothing changes.
class SlideshowApp final : public AppPainter {
 public:
  SlideshowApp(std::int64_t width, std::int64_t height, std::uint64_t seed,
               int ticks_per_slide = 30);
  /// Repaint the slide every `ticks_per_slide` ticks.
  void tick(std::uint64_t tick_index) override;
  /// "slideshow".
  std::string_view name() const override { return "slideshow"; }

 private:
  void paint_slide();

  Prng rng_;
  int ticks_per_slide_;
};

/// Document viewer: a long synthetic text page scrolled by `pixels_per_tick`
/// each tick — the canonical MoveRectangle workload (§5.2.3).
class DocumentApp final : public AppPainter {
 public:
  DocumentApp(std::int64_t width, std::int64_t height, std::uint64_t seed,
              std::int64_t pixels_per_tick = 16);
  /// Scroll the page by `pixels_per_tick`.
  void tick(std::uint64_t tick_index) override;
  /// "document".
  std::string_view name() const override { return "document"; }

  /// Rows the page scrolls each tick.
  std::int64_t scroll_per_tick() const { return pixels_per_tick_; }

 private:
  void render_viewport();

  Prng rng_;
  std::int64_t pixels_per_tick_;
  std::int64_t scroll_offset_ = 0;
  Image page_;  ///< the full document, taller than the window
};

/// Movie pane: smooth moving gradients plus per-pixel noise; every pixel
/// changes every tick (the content class "rendering the output of a modern
/// computer-generated animation application ... blurs the distinction").
class VideoApp final : public AppPainter {
 public:
  VideoApp(std::int64_t width, std::int64_t height, std::uint64_t seed);
  /// Repaint every pixel.
  void tick(std::uint64_t tick_index) override;
  /// "video".
  std::string_view name() const override { return "video"; }

 private:
  Prng rng_;
  double phase_ = 0.0;
};

/// Whiteboard: each tick draws a short stroke segment at a wandering
/// position — small, scattered damage.
class PaintApp final : public AppPainter {
 public:
  PaintApp(std::int64_t width, std::int64_t height, std::uint64_t seed);
  /// Draw the next stroke segment.
  void tick(std::uint64_t tick_index) override;
  /// "paint".
  std::string_view name() const override { return "paint"; }

 private:
  Prng rng_;
  Point brush_;
  Pixel colour_;
};

/// Web browser: tiled incremental page loads. A navigation repaints the
/// window with the new page's skeleton (header band, sidebar, grey text
/// placeholders); the following ticks pop content tiles in a few at a time
/// in raster order — image tiles as gradients, text tiles as typeset lines
/// — until the page is loaded, then the page idles before the next
/// navigation. Damage is bursty and tile-aligned: many small distinct
/// rects per tick, the shape that exercises per-band cohort encode and the
/// E20 downscale rungs (a quarter-res viewer pays ~1/16 of each tile).
class WebPageApp final : public AppPainter {
 public:
  WebPageApp(std::int64_t width, std::int64_t height, std::uint64_t seed,
             int tiles_per_tick = 3, int idle_ticks = 12);
  /// Load the next tiles, idle, or navigate.
  void tick(std::uint64_t tick_index) override;
  /// "webpage".
  std::string_view name() const override { return "webpage"; }

  /// Completed navigations (full skeleton repaints) so far.
  std::uint64_t navigations() const { return navigations_; }

 private:
  void navigate();
  void load_tile(std::int64_t index);

  Prng rng_;
  int tiles_per_tick_;
  int idle_ticks_;
  std::int64_t tile_w_ = 96;
  std::int64_t tile_h_ = 64;
  std::int64_t cols_ = 0;
  std::int64_t rows_ = 0;
  std::int64_t next_tile_ = 0;  ///< raster-order load cursor
  int idle_left_ = 0;
  std::uint64_t navigations_ = 0;
  Pixel theme_{255, 255, 255, 255};
};

/// Collaborative editor: `presenters` authors share one canvas, each
/// owning a vertical strip. Every `ticks_per_turn` ticks the edit turn
/// rotates to the next presenter — the new owner's strip gets a coloured
/// focus border and subsequent edits (typeset lines at that presenter's
/// caret) land only there. Session harnesses mirror each rotation as a
/// BFCP floor release/grant pair (active_presenter() names who should hold
/// the floor), so the paper's Appendix A floor-control gate sees a
/// realistic multi-presenter handoff cadence.
class EditingApp final : public AppPainter {
 public:
  EditingApp(std::int64_t width, std::int64_t height, std::uint64_t seed,
             int presenters = 3, int ticks_per_turn = 20);
  /// Edit the active strip; rotate the turn every `ticks_per_turn` ticks.
  void tick(std::uint64_t tick_index) override;
  /// "editing".
  std::string_view name() const override { return "editing"; }

  /// Whose turn it is (0-based strip index).
  int active_presenter() const { return active_; }
  /// Completed turn rotations — the floor-handoff count a BFCP-driving
  /// harness should mirror.
  std::uint64_t handoffs() const { return handoffs_; }
  /// Number of presenter strips.
  int presenters() const { return presenters_; }

 private:
  Rect strip(int presenter) const;
  void mark_active();

  Prng rng_;
  int presenters_;
  int ticks_per_turn_;
  int active_ = 0;
  std::uint64_t ticks_seen_ = 0;
  std::uint64_t handoffs_ = 0;
  std::vector<Point> carets_;  ///< per-presenter edit position
};

/// Factory by workload name ("terminal", "slideshow", "document", "video",
/// "paint", "webpage", "editing"); nullptr for unknown names.
std::unique_ptr<AppPainter> make_app(std::string_view name, std::int64_t width,
                                     std::int64_t height, std::uint64_t seed);

}  // namespace ads
