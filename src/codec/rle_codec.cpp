#include "codec/rle_codec.hpp"

namespace ads {

Bytes rle_encode(const Image& img) {
  Bytes out;
  rle_encode_into(img, out);
  return out;
}

void rle_encode_into(const Image& img, Bytes& dest) {
  ByteWriter out(std::move(dest));
  out.u32(static_cast<std::uint32_t>(img.width()));
  out.u32(static_cast<std::uint32_t>(img.height()));
  const auto px = img.pixels();
  std::size_t i = 0;
  while (i < px.size()) {
    std::size_t run = 1;
    while (i + run < px.size() && run < 65535 && px[i + run] == px[i]) ++run;
    out.u16(static_cast<std::uint16_t>(run));
    out.u8(px[i].r);
    out.u8(px[i].g);
    out.u8(px[i].b);
    out.u8(px[i].a);
    i += run;
  }
  dest = out.take();
}

Result<Image> rle_decode(BytesView data) {
  ByteReader in(data);
  auto w = in.u32();
  auto h = in.u32();
  if (!w || !h) return ParseError::kTruncated;
  const std::uint64_t count = static_cast<std::uint64_t>(*w) * *h;
  if (count * 4 > (1ull << 30)) return ParseError::kOverflow;
  // A 6-byte run covers at most 65535 pixels: refuse a raster the payload
  // cannot fill before allocating it.
  if (count > in.remaining() / 6 * 65535) return ParseError::kTruncated;
  Image img(*w, *h);
  auto px = img.pixels();
  std::uint64_t filled = 0;
  while (filled < count) {
    auto run = in.u16();
    if (!run) return run.error();
    auto rgba = in.bytes(4);
    if (!rgba) return rgba.error();
    if (*run == 0 || filled + *run > count) return ParseError::kBadValue;
    const Pixel p{(*rgba)[0], (*rgba)[1], (*rgba)[2], (*rgba)[3]};
    for (std::uint16_t k = 0; k < *run; ++k) px[filled++] = p;
  }
  if (!in.at_end()) return ParseError::kBadValue;
  return img;
}

}  // namespace ads
