// Content codec abstraction behind RegionUpdate's 7-bit PT field.
//
// Draft §5.2.2: "The 7 bit PT field carries the actual payload type of the
// content which can be PNG, JPEG, Theora, or any other media type which has
// an RTP payload specification. All AH and participant software
// implementations MUST support PNG images."
//
// Each codec turns an Image into self-describing bytes (dimensions are
// carried inside the payload, matching the draft's note that RegionUpdate
// width/height "is not transmitted explicitly by this protocol") and back.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "codec/deflate.hpp"
#include "image/image.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ads {

/// Reusable per-thread working buffers for the encode hot path. One scratch
/// per encoding thread (never shared concurrently): after warm-up, encoding
/// a band reuses these arenas instead of allocating, which is what lets the
/// AH's parallel band pipeline run allocation-free in steady state.
struct EncodeScratch {
  DeflateScratch deflate;
  Bytes staging;     ///< RGB raster rows (PNG) / coefficient stream (DCT)
  Bytes filtered;    ///< PNG filtered scanlines
  Bytes row;         ///< PNG per-row filter trial buffer
  Bytes compressed;  ///< zlib/deflate output staging
  std::vector<double> planes[3];  ///< DCT channel planes
};

/// Reusable working buffers for the decode path: one per decoding thread
/// (participants share their thread's; a replayer owns one), never shared
/// concurrently. Each buffer only grows, so after the largest band has
/// been seen decoding allocates nothing.
struct DecodeScratch {
  Bytes idat;      ///< PNG IDAT payloads joined, when a stream splits them
  Bytes inflated;  ///< PNG filtered scanlines (inflate_into's buffer)
  Bytes zero_row;  ///< all zeros: the PNG predictor's row above the first
};

/// Dynamic RTP payload type numbers assigned to content codecs in this
/// implementation's SDP (range 96-127).
enum class ContentPt : std::uint8_t {
  kRaw = 96,   ///< uncompressed RGBA, baseline for benchmarks
  kRle = 97,   ///< run-length encoding, cheap lossless
  kPng = 98,   ///< PNG (mandatory-to-implement per the draft)
  kDct = 102,  ///< lossy 8x8 DCT codec (the "JPEG-like" alternative)
};

/// Per-call encode parameters. Lossless codecs ignore them; the DCT codec
/// maps `dct_quality` onto its quantisation tables, which is how the
/// ads::rate quality ladder steers one shared codec instance to different
/// operating points per participant.
struct EncodeParams {
  /// 1..100 selects an explicit DCT quality; 0 keeps the codec's default.
  int dct_quality = 0;

  friend bool operator==(const EncodeParams&, const EncodeParams&) = default;
};

/// Interface every content codec implements: payload-type identity plus
/// encode/decode between Image and self-describing bytes.
class ImageCodec {
 public:
  virtual ~ImageCodec() = default;

  /// RTP payload type this codec serialises as.
  virtual ContentPt payload_type() const = 0;
  /// Short human-readable codec name ("png", "dct", ...).
  virtual std::string_view name() const = 0;
  /// True when decode(encode(img)) reproduces img bit-exactly.
  virtual bool lossless() const = 0;

  /// Serialise `img` (dimensions included in the payload) with the codec's
  /// default parameters and a fresh scratch.
  Bytes encode(const Image& img) const {
    Bytes out;
    EncodeScratch scratch;
    encode_with(img, out, scratch, {});
    return out;
  }

  /// Serialise `img` into `out` (cleared first, capacity kept), reusing
  /// `scratch` for working state and honouring per-call `params` (lossless
  /// codecs ignore them). With default params the bytes equal encode()'s.
  void encode_into(const Image& img, Bytes& out, EncodeScratch& scratch,
                   const EncodeParams& params = {}) const {
    encode_with(img, out, scratch, params);
  }

  /// Parse a payload previously produced by encode() (or, for PNG, any
  /// conformant 8-bit RGB/RGBA PNG stream).
  virtual Result<Image> decode(BytesView data) const = 0;

  /// Decode a payload and paint it into `dst` with its top-left corner at
  /// `at`, clipped to `dst` exactly as Image::blit clips. Returns the
  /// decoded image's unclipped rect at `at`; on error `dst` is unchanged.
  /// `scratch` carries working buffers from call to call. This default
  /// decodes into a fresh Image and blits it.
  virtual Result<Rect> decode_into(BytesView data, Image& dst, Point at,
                                   DecodeScratch& /*scratch*/) const {
    auto img = decode(data);
    if (!img) return img.error();
    dst.blit(*img, img->bounds(), at);
    return Rect{at.x, at.y, img->width(), img->height()};
  }

 private:
  /// The one encode each codec implements; encode() and encode_into() both
  /// land here.
  virtual void encode_with(const Image& img, Bytes& out, EncodeScratch& scratch,
                           const EncodeParams& params) const = 0;
};

}  // namespace ads
