// RGBA8 raster image. This is the single pixel representation used across
// capture, codecs, and the participant-side screen reconstruction; codecs
// convert to/from their wire formats at the edges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "image/geometry.hpp"

namespace ads {

/// One pixel, 8 bits per channel.
struct Pixel {
  std::uint8_t r = 0;
  std::uint8_t g = 0;
  std::uint8_t b = 0;
  std::uint8_t a = 255;

  friend bool operator==(const Pixel&, const Pixel&) = default;
};

constexpr Pixel kBlack{0, 0, 0, 255};
constexpr Pixel kWhite{255, 255, 255, 255};

/// A width x height raster of RGBA pixels, stored row-major.
class Image {
 public:
  /// The empty 0x0 image.
  Image() = default;
  /// A width x height image with every pixel set to `fill`.
  Image(std::int64_t width, std::int64_t height, Pixel fill = kBlack);

  /// Width in pixels.
  std::int64_t width() const { return width_; }
  /// Height in pixels.
  std::int64_t height() const { return height_; }
  /// The rectangle (0, 0, width, height).
  Rect bounds() const { return {0, 0, width_, height_}; }
  /// True when the image has no pixel.
  bool empty() const { return width_ == 0 || height_ == 0; }

  /// The pixel at (x, y), which must lie inside.
  Pixel at(std::int64_t x, std::int64_t y) const { return pixels_[index(x, y)]; }
  /// Overwrite the pixel at (x, y), which must lie inside.
  void set(std::int64_t x, std::int64_t y, Pixel p) { pixels_[index(x, y)] = p; }

  /// Row-major pixel storage (size = width * height).
  std::span<const Pixel> pixels() const { return pixels_; }
  /// Row-major pixel storage (size = width * height), writable.
  std::span<Pixel> pixels() { return pixels_; }
  /// The `width` pixels of row `y`, which must lie inside.
  std::span<const Pixel> row(std::int64_t y) const {
    return std::span<const Pixel>(pixels_).subspan(static_cast<std::size_t>(y * width_),
                                                   static_cast<std::size_t>(width_));
  }

  /// Set every pixel to `p`.
  void fill(Pixel p);
  /// Set every pixel of `r`, clipped to the image, to `p`.
  void fill_rect(const Rect& r, Pixel p);

  /// Copy `src_rect` from `src` to position `dst` in this image. Both source
  /// and destination are clipped to their image bounds.
  void blit(const Image& src, const Rect& src_rect, Point dst);

  /// In-place copy of `src_rect` to `dst` within this image, handling
  /// overlap correctly — the participant-side MoveRectangle primitive
  /// (draft §5.2.3: "Source and destination rectangles may overlap").
  void move_rect(const Rect& src_rect, Point dst);

  /// Extract a sub-image (clipped to bounds).
  Image crop(const Rect& r) const;

  /// As crop, but reuses `out`'s pixel storage when the capacity fits — the
  /// per-band staging path of the encode pipeline calls this once per band.
  void crop_into(const Rect& r, Image& out) const;

  friend bool operator==(const Image&, const Image&) = default;

 private:
  std::size_t index(std::int64_t x, std::int64_t y) const {
    return static_cast<std::size_t>(y * width_ + x);
  }

  std::int64_t width_ = 0;
  std::int64_t height_ = 0;
  std::vector<Pixel> pixels_;
};

}  // namespace ads
