// PNG encoder/decoder (subset of RFC 2083 sufficient for screen remoting):
// 8-bit RGB and RGBA, filters 0-4 with per-row minimum-sum-of-absolute-
// differences selection, single IDAT, no interlacing (the decoder also
// joins split IDATs). Built on our own zlib/DEFLATE implementation.
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
/// Decode a PNG stream into a new image sized from its IHDR. The same
/// decoder as PngCodec::decode_into, at (0, 0) of that image.
Result<Image> png_decode(BytesView data);

class PngCodec final : public ImageCodec {
 public:
  explicit PngCodec(PngOptions opts = {}) : opts_(opts) {}

  ContentPt payload_type() const override { return ContentPt::kPng; }
  std::string_view name() const override { return "png"; }
  bool lossless() const override { return true; }
  Result<Image> decode(BytesView data) const override { return png_decode(data); }
  /// Checks the whole stream (chunk CRCs, Adler-32, size, filter bytes)
  /// before it writes a pixel, then unfilters each row straight into
  /// `dst` where the band fits inside it.
  Result<Rect> decode_into(BytesView data, Image& dst, Point at,
                           DecodeScratch& scratch) const override;

 private:
  void encode_with(const Image& img, Bytes& out, EncodeScratch& scratch,
                   const EncodeParams&) const override {
    png_encode_into(img, opts_, out, scratch);
  }

  PngOptions opts_;
};

}  // namespace ads
