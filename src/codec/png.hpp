// PNG encoder/decoder (subset of RFC 2083 sufficient for screen remoting):
// 8-bit RGB and RGBA, filters 0-4 with per-row minimum-sum-of-absolute-
// differences selection, single IDAT, no interlacing. Built on our own
// zlib/DEFLATE implementation.
#pragma once

#include "codec/deflate.hpp"
#include "codec/video_codec.hpp"

namespace ads {

struct PngOptions {
  DeflateOptions deflate;
  bool rgba = true;  ///< false = strip alpha, write colour type 2 (RGB)
  /// Disable the adaptive filter pass (ablation for bench E9); all rows use
  /// filter 0 (None).
  bool adaptive_filters = true;
};

Bytes png_encode(const Image& img, const PngOptions& opts = {});
/// As png_encode, but writes into `out` (cleared first, capacity kept) and
/// reuses `scratch` for the raster/filter/deflate working buffers. Output
/// bytes are identical to png_encode.
void png_encode_into(const Image& img, const PngOptions& opts, Bytes& out,
                     EncodeScratch& scratch);
Result<Image> png_decode(BytesView data);

class PngCodec final : public ImageCodec {
 public:
  explicit PngCodec(PngOptions opts = {}) : opts_(opts) {}

  ContentPt payload_type() const override { return ContentPt::kPng; }
  std::string_view name() const override { return "png"; }
  bool lossless() const override { return true; }
  Result<Image> decode(BytesView data) const override { return png_decode(data); }

 private:
  void encode_with(const Image& img, Bytes& out, EncodeScratch& scratch,
                   const EncodeParams&) const override {
    png_encode_into(img, opts_, out, scratch);
  }

  PngOptions opts_;
};

}  // namespace ads
