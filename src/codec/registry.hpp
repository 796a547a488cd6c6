// Codec registry: maps the RegionUpdate PT field to an ImageCodec instance.
// The AH and participant each hold a registry; §5.2.2 requires them to
// negotiate supported media types during session establishment, which the
// SDP module drives by enumerating a registry's payload types.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "codec/video_codec.hpp"

namespace ads {

class CodecRegistry {
 public:
  /// Registry with all built-in codecs (raw, rle, png, dct@quality-75).
  static CodecRegistry with_defaults();

  void add(std::unique_ptr<ImageCodec> codec);

  /// nullptr when the payload type is unknown.
  const ImageCodec* find(ContentPt pt) const;
  const ImageCodec* find(std::uint8_t pt) const;

  /// Encode `img` with the codec for `pt` into `out` (cleared first),
  /// reusing `scratch` and honouring `params` (the ads::rate quality
  /// ladder's path into the DCT codec; lossless codecs ignore them).
  /// Returns false (out untouched) for unknown payload types. This is the
  /// scratch-threaded entry the AH encode workers use.
  bool encode_into(ContentPt pt, const Image& img, Bytes& out,
                   EncodeScratch& scratch, const EncodeParams& params = {}) const;

  std::vector<ContentPt> payload_types() const;

 private:
  std::map<std::uint8_t, std::unique_ptr<ImageCodec>> codecs_;
};

}  // namespace ads
