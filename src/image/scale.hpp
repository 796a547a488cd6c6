// Image scaling — the draft's §4.2 optional enhancement: "participant-side
// scaling can be used to optimize transmission of data to participants with
// a small screen." Participants scale received window content locally;
// nothing changes on the wire.
#pragma once

#include "image/image.hpp"

namespace ads {

/// Resampling kernel for scale_image().
enum class ScaleFilter {
  kNearest,   ///< fast, blocky
  kBilinear,  ///< smooth, the default for screen content
};

/// Resample `src` to `width` x `height`. Degenerate targets (<=0) return an
/// empty image; identity dimensions return a copy.
Image scale_image(const Image& src, std::int64_t width, std::int64_t height,
                  ScaleFilter filter = ScaleFilter::kBilinear);

}  // namespace ads
