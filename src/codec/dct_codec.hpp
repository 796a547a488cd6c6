// Lossy DCT codec — the "JPEG-like" alternative the draft names for
// photographic content (§4.2). JPEG-style pipeline: RGB→YCbCr, 8×8 DCT-II
// per channel, quality-scaled quantisation with the standard JPEG example
// tables, zig-zag ordering, DC delta coding, then our DEFLATE as the entropy
// stage (instead of JPEG's arithmetic/Huffman coder — the rate/distortion
// behaviour relevant to experiment E1 is preserved).
// Layout: u32 width | u32 height | u8 quality | zlib(coefficient stream).
#pragma once

#include "codec/video_codec.hpp"

namespace ads {

struct DctOptions {
  int quality = 75;  ///< 1 (worst) .. 100 (near-lossless)
};

Bytes dct_encode(const Image& img, const DctOptions& opts = {});
/// As dct_encode, but writes into `out` (cleared first, capacity kept) and
/// reuses `scratch` for the channel planes, coefficient stream, and entropy
/// stage. Output bytes are identical to dct_encode.
void dct_encode_into(const Image& img, const DctOptions& opts, Bytes& out,
                     EncodeScratch& scratch);
Result<Image> dct_decode(BytesView data);

class DctCodec final : public ImageCodec {
 public:
  explicit DctCodec(DctOptions opts = {}) : opts_(opts) {}

  ContentPt payload_type() const override { return ContentPt::kDct; }
  std::string_view name() const override { return "dct"; }
  bool lossless() const override { return false; }
  Result<Image> decode(BytesView data) const override { return dct_decode(data); }

 private:
  /// params.dct_quality (when non-zero) overrides the construction-time
  /// quality — the ads::rate ladder's hook.
  void encode_with(const Image& img, Bytes& out, EncodeScratch& scratch,
                   const EncodeParams& params) const override {
    DctOptions opts = opts_;
    if (params.dct_quality > 0) opts.quality = params.dct_quality;
    dct_encode_into(img, opts, out, scratch);
  }

  DctOptions opts_;
};

}  // namespace ads
