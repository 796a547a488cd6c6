// Run-length codec: cheap lossless compression exploiting the draft's
// observation that screen content has "large areas ... that remain
// unchanged" — flat colour runs dominate computer-generated imagery.
// Layout: u32 width | u32 height | repeated (u16 run_length, 4-byte RGBA).
#pragma once

#include "codec/video_codec.hpp"

namespace ads {

Bytes rle_encode(const Image& img);
/// As rle_encode into `out` (cleared first, capacity kept) — the run-length
/// pass needs no working state beyond the output buffer itself.
void rle_encode_into(const Image& img, Bytes& out);
Result<Image> rle_decode(BytesView data);

class RleCodec final : public ImageCodec {
 public:
  ContentPt payload_type() const override { return ContentPt::kRle; }
  std::string_view name() const override { return "rle"; }
  bool lossless() const override { return true; }
  Result<Image> decode(BytesView data) const override { return rle_decode(data); }

 private:
  void encode_with(const Image& img, Bytes& out, EncodeScratch&,
                   const EncodeParams&) const override {
    rle_encode_into(img, out);
  }
};

}  // namespace ads
