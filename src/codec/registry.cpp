#include "codec/registry.hpp"

#include "codec/dct_codec.hpp"
#include "codec/png.hpp"
#include "codec/raw_codec.hpp"
#include "codec/rle_codec.hpp"

namespace ads {

CodecRegistry CodecRegistry::with_defaults() {
  CodecRegistry r;
  r.add(std::make_unique<RawCodec>());
  r.add(std::make_unique<RleCodec>());
  r.add(std::make_unique<PngCodec>());
  r.add(std::make_unique<DctCodec>());
  return r;
}

void CodecRegistry::add(std::unique_ptr<ImageCodec> codec) {
  const auto pt = static_cast<std::uint8_t>(codec->payload_type());
  codecs_[pt] = std::move(codec);
}

const ImageCodec* CodecRegistry::find(ContentPt pt) const {
  return find(static_cast<std::uint8_t>(pt));
}

const ImageCodec* CodecRegistry::find(std::uint8_t pt) const {
  auto it = codecs_.find(pt);
  return it == codecs_.end() ? nullptr : it->second.get();
}

bool CodecRegistry::encode_into(ContentPt pt, const Image& img, Bytes& out,
                                EncodeScratch& scratch,
                                const EncodeParams& params) const {
  const ImageCodec* codec = find(pt);
  if (codec == nullptr) return false;
  codec->encode_into(img, out, scratch, params);
  return true;
}

std::vector<ContentPt> CodecRegistry::payload_types() const {
  std::vector<ContentPt> out;
  out.reserve(codecs_.size());
  for (const auto& [pt, codec] : codecs_) out.push_back(static_cast<ContentPt>(pt));
  return out;
}

}  // namespace ads
