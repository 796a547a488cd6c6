// Uncompressed RGBA codec: the bandwidth baseline for the E1 benchmark and
// the simplest possible RegionUpdate payload.
// Layout: u32 width | u32 height | width*height*4 bytes RGBA.
#pragma once

#include "codec/video_codec.hpp"

namespace ads {

Bytes raw_encode(const Image& img);
/// As raw_encode into `out` (cleared first, capacity kept).
void raw_encode_into(const Image& img, Bytes& out);
Result<Image> raw_decode(BytesView data);

class RawCodec final : public ImageCodec {
 public:
  ContentPt payload_type() const override { return ContentPt::kRaw; }
  std::string_view name() const override { return "raw"; }
  bool lossless() const override { return true; }
  Result<Image> decode(BytesView data) const override { return raw_decode(data); }

 private:
  void encode_with(const Image& img, Bytes& out, EncodeScratch&,
                   const EncodeParams&) const override {
    raw_encode_into(img, out);
  }
};

}  // namespace ads
