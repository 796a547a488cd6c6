// Pixel geometry. The draft's coordinate system (§4.1): origin (0,0) at the
// upper-left corner, absolute pixel coordinates, unsigned 32-bit left / top /
// width / height fields on the wire. Internally we use signed 64-bit maths so
// intermediate offsets (e.g. participant layout shifts, Figure 4) cannot
// overflow, and clamp at the wire boundary.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

namespace ads {

/// A pixel position: x grows rightwards, y downwards.
struct Point {
  std::int64_t x = 0;
  std::int64_t y = 0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// Axis-aligned rectangle; `left/top` inclusive, extent `width x height`.
/// Empty (width or height == 0) rectangles are valid and contain nothing.
struct Rect {
  std::int64_t left = 0;
  std::int64_t top = 0;
  std::int64_t width = 0;
  std::int64_t height = 0;

  std::int64_t right() const { return left + width; }    ///< exclusive
  std::int64_t bottom() const { return top + height; }   ///< exclusive
  std::int64_t area() const { return width * height; }
  /// True when the rectangle covers no pixel.
  bool empty() const { return width <= 0 || height <= 0; }

  /// True when `p` lies inside.
  bool contains(Point p) const {
    return p.x >= left && p.x < right() && p.y >= top && p.y < bottom();
  }
  /// True when every pixel of `other` lies inside (always for an empty one).
  bool contains(const Rect& other) const {
    return other.empty() ||
           (other.left >= left && other.top >= top && other.right() <= right() &&
            other.bottom() <= bottom());
  }

  /// The same rectangle shifted by (dx, dy).
  Rect translated(std::int64_t dx, std::int64_t dy) const {
    return {left + dx, top + dy, width, height};
  }

  friend bool operator==(const Rect&, const Rect&) = default;
  /// Lexicographic on (left, top, width, height), so rects can key maps.
  friend auto operator<=>(const Rect&, const Rect&) = default;
};

/// Intersection; empty Rect when disjoint.
Rect intersect(const Rect& a, const Rect& b);

/// Smallest rectangle containing both (empty inputs are ignored).
Rect bounding_union(const Rect& a, const Rect& b);

bool overlaps(const Rect& a, const Rect& b);

/// `a` minus `b`, expressed as up to four disjoint rectangles.
std::vector<Rect> subtract(const Rect& a, const Rect& b);

/// A set of disjoint rectangles with union/subtract operations. Used for
/// damage accumulation and for computing the visible portion of a window
/// under the windows stacked above it.
class Region {
 public:
  /// The empty region.
  Region() = default;
  /// The region covering `r` (empty when `r` is).
  explicit Region(const Rect& r) {
    if (!r.empty()) rects_.push_back(r);
  }

  /// Union with `r`, keeping the rectangles disjoint.
  void add(const Rect& r);
  /// Remove `r`'s pixels, splitting rectangles it overlaps.
  void subtract_rect(const Rect& r);
  /// Remove every rectangle.
  void clear() { rects_.clear(); }

  /// True when the region covers no pixel.
  bool empty() const { return rects_.empty(); }
  /// Number of pixels covered.
  std::int64_t area() const;
  /// Smallest rectangle containing the region.
  Rect bounds() const;
  /// True when `p` lies in some rectangle.
  bool contains(Point p) const;

  /// The disjoint rectangles, in insertion order.
  const std::vector<Rect>& rects() const { return rects_; }

  /// Greedy merge of adjacent rectangles to reduce fragment count.
  void simplify();

 private:
  std::vector<Rect> rects_;
};

std::string to_string(const Rect& r);

}  // namespace ads
