// Parser robustness sweep: every wire parser in the system is fed random
// bytes and randomly mutated valid messages. The property under test is
// uniform — parsers return a value or a ParseError; they never crash,
// never read out of bounds (ASAN-visible), never loop forever, and never
// allocate far beyond what their input can describe.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <new>
#include <string>

#include "bfcp/bfcp_message.hpp"
#include "codec/dct_codec.hpp"
#include "codec/png.hpp"
#include "codec/raw_codec.hpp"
#include "codec/rle_codec.hpp"
#include "codec/zlib.hpp"
#include "hip/messages.hpp"
#include "remoting/message.hpp"
#include "rtp/framing.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"
#include "sdp/sdp.hpp"
#include "snapshot/record.hpp"
#include "transcode/transcode.hpp"
#include "util/prng.hpp"
#include "../codec/png_stream.hpp"

// The largest single operator new request since the last reset.
namespace {
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_allocation.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler does not pair an inlined free() with new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace ads {
namespace {

Bytes random_bytes(Prng& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

/// Flip a few random bytes/bits of a valid message.
Bytes mutate(Prng& rng, Bytes data) {
  if (data.empty()) return data;
  const int edits = 1 + static_cast<int>(rng.below(5));
  for (int i = 0; i < edits; ++i) {
    const std::size_t pos = rng.below(data.size());
    switch (rng.below(3)) {
      case 0: data[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8)); break;
      case 1: data[pos] = static_cast<std::uint8_t>(rng.next_u32()); break;
      default:
        data.resize(pos);  // truncate
        if (data.empty()) return data;
        break;
    }
  }
  return data;
}

constexpr int kRandomIterations = 3000;
constexpr int kMutationIterations = 1000;

TEST(ParserRobustness, RtpPacketRandomBytes) {
  Prng rng(1);
  for (int i = 0; i < kRandomIterations; ++i) {
    auto result = RtpPacket::parse(random_bytes(rng, 100));
    (void)result;
  }
}

TEST(ParserRobustness, RtcpRandomBytes) {
  Prng rng(2);
  for (int i = 0; i < kRandomIterations; ++i) {
    (void)parse_rtcp(random_bytes(rng, 120));
    (void)RtcpFeedback::parse(random_bytes(rng, 120));
  }
}

TEST(ParserRobustness, RemotingDemuxRandomBytes) {
  Prng rng(3);
  RemotingDemux demux;
  for (int i = 0; i < kRandomIterations; ++i) {
    (void)demux.feed(random_bytes(rng, 200), rng.chance(0.5));
  }
}

TEST(ParserRobustness, RemotingDemuxMutatedMessages) {
  Prng rng(4);
  WindowManagerInfo wmi;
  wmi.records = {{1, 1, 10, 10, 100, 100}, {2, 0, 50, 50, 30, 30}};
  RegionUpdate ru;
  ru.window_id = 1;
  ru.content_pt = 98;
  ru.content = random_bytes(rng, 3000);
  MoveRectangle mr{1, 0, 0, 10, 10, 5, 5};

  std::vector<Bytes> corpus;
  corpus.push_back(wmi.serialize());
  for (const auto& frag : fragment_region_update(ru, 400)) {
    corpus.push_back(frag.payload);
  }
  corpus.push_back(mr.serialize());

  RemotingDemux demux;
  for (int i = 0; i < kMutationIterations; ++i) {
    const Bytes& base = corpus[rng.below(corpus.size())];
    (void)demux.feed(mutate(rng, base), rng.chance(0.5));
  }
}

TEST(ParserRobustness, HipRandomAndMutated) {
  Prng rng(5);
  for (int i = 0; i < kRandomIterations; ++i) {
    (void)parse_hip(random_bytes(rng, 64));
  }
  const Bytes valid = serialize_hip(MouseWheelMoved{3, 100, 200, -360});
  for (int i = 0; i < kMutationIterations; ++i) {
    (void)parse_hip(mutate(rng, valid));
  }
}

TEST(ParserRobustness, BfcpRandomAndMutated) {
  Prng rng(6);
  for (int i = 0; i < kRandomIterations; ++i) {
    (void)BfcpMessage::parse(random_bytes(rng, 80));
  }
  BfcpMessage msg;
  msg.primitive = BfcpPrimitive::kFloorRequestStatus;
  msg.floor_id = 0;
  msg.request_status = RequestStatus::kGranted;
  msg.hid_status = HidStatus::kAllAllowed;
  const Bytes valid = msg.serialize();
  for (int i = 0; i < kMutationIterations; ++i) {
    (void)BfcpMessage::parse(mutate(rng, valid));
  }
}

/// Decode `data` with `codec` both ways: decode(), and decode_into a 64x64
/// replica at a random offset, where the band may cross any edge. On error
/// the replica must be unchanged and the error decode()'s; on success the
/// replica must equal decode() + blit. Returns the largest allocation
/// decode_into made.
std::size_t check_decode_into(const ImageCodec& codec, BytesView data, Prng& where,
                              DecodeScratch& scratch) {
  static const Image base = [] {
    Image img(64, 64);
    for (std::int64_t y = 0; y < 64; ++y) {
      for (std::int64_t x = 0; x < 64; ++x) {
        img.set(x, y, Pixel{static_cast<std::uint8_t>(4 * x), static_cast<std::uint8_t>(4 * y),
                            static_cast<std::uint8_t>(x ^ y), 255});
      }
    }
    return img;
  }();
  const Point at{where.range(-40, 70), where.range(-40, 70)};
  Image replica = base;
  g_largest_allocation = 0;
  auto rect = codec.decode_into(data, replica, at, scratch);
  const std::size_t largest = g_largest_allocation.load();
  auto decoded = codec.decode(data);
  EXPECT_EQ(rect.ok(), decoded.ok());
  if (!rect.ok() || !decoded.ok()) {
    if (!rect.ok() && !decoded.ok()) {
      EXPECT_EQ(rect.error(), decoded.error());
    }
    EXPECT_TRUE(replica == base) << codec.name() << " painted a failed decode";
    return largest;
  }
  EXPECT_EQ(*rect, (Rect{at.x, at.y, decoded->width(), decoded->height()}));
  Image want = base;
  want.blit(*decoded, decoded->bounds(), at);
  EXPECT_TRUE(replica == want) << codec.name() << " at (" << at.x << ", " << at.y << ")";
  return largest;
}

TEST(ParserRobustness, CodecsRandomBytes) {
  Prng rng(7);
  Prng where(17);
  const PngCodec png;
  const RleCodec rle;
  const RawCodec raw;
  const DctCodec dct;
  DecodeScratch scratch;
  for (int i = 0; i < 500; ++i) {
    const Bytes png_bytes = random_bytes(rng, 300);
    check_decode_into(png, png_bytes, where, scratch);
    const Bytes rle_bytes = random_bytes(rng, 300);
    check_decode_into(rle, rle_bytes, where, scratch);
    const Bytes raw_bytes = random_bytes(rng, 300);
    check_decode_into(raw, raw_bytes, where, scratch);
    const Bytes dct_bytes = random_bytes(rng, 300);
    check_decode_into(dct, dct_bytes, where, scratch);
    (void)zlib_decompress(random_bytes(rng, 300), {.max_output = 1 << 20});
  }
}

TEST(ParserRobustness, CodecsMutatedStreams) {
  Prng rng(8);
  Prng where(18);
  Image img(24, 18);
  for (auto& p : img.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()),
              static_cast<std::uint8_t>(rng.next_u32()), 255};
  }
  const Bytes png = png_encode(img);
  const Bytes rle = rle_encode(img);
  const Bytes dct = dct_encode(img);
  const PngCodec png_codec;
  const RleCodec rle_codec;
  const DctCodec dct_codec;
  DecodeScratch scratch;
  // The inflate buffer starts at 64 KiB and then grows to at most four
  // times what the stream has produced, and DEFLATE expands at most 1032:1,
  // so no PNG decode may allocate more than this for `n` input bytes.
  const auto png_bound = [](std::size_t n) { return (std::size_t{64} << 10) + 4 * 1032 * n; };
  const Bytes idat = png_stream::idat_of(png);
  ASSERT_EQ(png_stream::build(24, 18, true, idat), png);
  const Bytes lines = zlib_decompress(idat).value();
  int decoded_lines = 0;
  for (int i = 0; i < kMutationIterations; ++i) {
    const Bytes png_mutant = mutate(rng, png);
    ASSERT_LE(check_decode_into(png_codec, png_mutant, where, scratch),
              png_bound(png_mutant.size()))
        << "mutant " << i;
    const Bytes rle_mutant = mutate(rng, rle);
    check_decode_into(rle_codec, rle_mutant, where, scratch);
    const Bytes dct_mutant = mutate(rng, dct);
    check_decode_into(dct_codec, dct_mutant, where, scratch);
    // The same stream under a random IHDR size, from 1 x 1 to past the
    // 1 GiB raster guard: only the 1,746 bytes the stream holds may be
    // inflated, whatever the header claims.
    const auto width = static_cast<std::uint32_t>(1 + where.below(1u << where.range(1, 16)));
    const auto height = static_cast<std::uint32_t>(1 + where.below(1u << where.range(1, 16)));
    const Bytes resized = png_stream::build(width, height, true, idat);
    ASSERT_LE(check_decode_into(png_codec, resized, where, scratch), png_bound(resized.size()))
        << "resized " << i;
    // Mutants that keep every chunk CRC: a mutated zlib stream reaches
    // inflate and the Adler-32; mutated scanlines, recompressed, reach the
    // size and filter-byte checks and otherwise decode, at any offset.
    const Bytes zlib_mutant = png_stream::build(24, 18, true, mutate(where, idat));
    ASSERT_LE(check_decode_into(png_codec, zlib_mutant, where, scratch),
              png_bound(zlib_mutant.size()))
        << "zlib mutant " << i;
    const Bytes lines_mutant =
        png_stream::build(24, 18, true, zlib_compress(mutate(where, lines)));
    check_decode_into(png_codec, lines_mutant, where, scratch);
    decoded_lines += png_decode(lines_mutant).ok();
  }
  EXPECT_GT(decoded_lines, kMutationIterations / 4);
  // Hostile sizes with a tiny IDAT: 30000 x 30000 fails the raster guard,
  // the others pass it (up to 1 GiB); none may grow a buffer past the
  // 64 KiB first step, because the stream delivers 68 bytes.
  const Bytes tiny = png_stream::idat_of(png_encode(Image(4, 4, kWhite)));
  for (const auto& [w, h] : {std::pair<std::uint32_t, std::uint32_t>{30000, 30000},
                             {16384, 16383}, {1, 268435455}, {268435455, 1}}) {
    const Bytes hostile = png_stream::build(w, h, true, tiny);
    g_largest_allocation = 0;
    auto decoded = png_decode(hostile);
    ASSERT_FALSE(decoded.ok()) << w << "x" << h;
    EXPECT_EQ(decoded.error(), w == 30000 ? ParseError::kOverflow : ParseError::kBadValue);
    EXPECT_LE(g_largest_allocation.load(), std::size_t{64} << 10) << w << "x" << h;
    EXPECT_LE(check_decode_into(png_codec, hostile, where, scratch), std::size_t{64} << 10);
  }
}

TEST(ParserRobustness, DctZeroSizedHeaderInflatesNothing) {
  // A DCT header with zero width or height expects no coefficients, so the
  // zlib stream after it may inflate nothing: a 4 MiB run of zeros, which
  // compresses to a few KiB, must fail without growing a buffer for it.
  const Bytes zeros(std::size_t{4} << 20, 0);
  const Bytes coeffs = zlib_compress(zeros);
  const DctCodec dct;
  DecodeScratch scratch;
  Prng where(19);
  for (const auto& [w, h] : {std::pair<std::uint32_t, std::uint32_t>{0, 16}, {16, 0}, {0, 0}}) {
    ByteWriter out;
    out.u32(w);
    out.u32(h);
    out.u8(50);
    out.bytes(coeffs);
    const Bytes hostile = out.take();
    g_largest_allocation = 0;
    auto decoded = dct_decode(hostile);
    EXPECT_FALSE(decoded.ok()) << w << "x" << h;
    EXPECT_LE(g_largest_allocation.load(), std::size_t{64} << 10) << w << "x" << h;
    EXPECT_LE(check_decode_into(dct, hostile, where, scratch), std::size_t{64} << 10);
  }
}

TEST(ParserRobustness, RtcpCompoundRandomAndMutated) {
  Prng rng(11);
  g_largest_allocation = 0;
  for (int i = 0; i < kRandomIterations; ++i) {
    (void)parse_rtcp_compound(random_bytes(rng, 200));
  }

  SenderReport sr;
  sr.ssrc = 0x1111;
  sr.ntp_timestamp = 0x0123456789ABCDEFull;
  sr.rtp_timestamp = 90000;
  sr.packet_count = 77;
  sr.octet_count = 88000;
  sr.blocks = {ReportBlock{0x2222, 12, 34, 0x10005, 7, 0xABCD, 655}};
  ReceiverReport rr;
  rr.ssrc = 0x3333;
  rr.blocks = {ReportBlock{0x1111, 1, 2, 3, 4, 5, 6}, ReportBlock{0x4444, 9, 8, 7, 6, 5, 4}};
  const GenericNack nack = GenericNack::for_sequences(0x3333, 0x1111, {5, 6, 9, 40, 41, 65530});
  const PictureLossIndication pli{0x3333, 0x1111};
  const Bytes valid = serialize_rtcp_compound({sr, rr, nack, pli});
  auto parsed = parse_rtcp_compound(valid);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 4u);

  // Offsets of each sub-packet's 16-bit length field.
  std::vector<std::size_t> length_fields;
  for (std::size_t at = 0; at + 4 <= valid.size();
       at += (static_cast<std::size_t>(valid[at + 2]) << 8 | valid[at + 3]) * 4 + 4) {
    length_fields.push_back(at + 2);
  }
  ASSERT_EQ(length_fields.size(), 4u);
  for (int i = 0; i < kMutationIterations; ++i) {
    Bytes data = valid;
    if (rng.chance(0.5)) {
      const std::size_t field = length_fields[rng.below(length_fields.size())];
      const std::uint32_t words = rng.chance(0.5) ? rng.next_u32() & 0xFFFF : rng.below(16);
      data[field] = static_cast<std::uint8_t>(words >> 8);
      data[field + 1] = static_cast<std::uint8_t>(words);
    }
    (void)parse_rtcp_compound(mutate(rng, std::move(data)));
  }
  // Datagrams of at most a few hundred bytes parse into small vectors.
  EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 16);
}

/// Read a whole file.
Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()), static_cast<std::streamsize>(data.size()));
}

TEST(ParserRobustness, SessionReplayerMutatedRecordings) {
  // A short ADSREC01 recording: a checkpoint, a PNG band, an RLE band, a
  // scroll, a window-manager change and a pointer move. Mutants flip bytes,
  // rewrite record lengths, inner lengths and the RLE band's dimensions,
  // and cut the tail; each replays.
  const std::string path = testing::TempDir() + "ads_fuzz_replay.adsrec";
  Prng rng(12);
  {
    snapshot::SessionRecorder rec(path);
    ASSERT_TRUE(rec.ok());
    Image frame(48, 32, Pixel{10, 20, 30, 255});
    WindowManagerInfo wmi;
    wmi.records = {{1, 0, 0, 0, 48, 32}};
    rec.checkpoint(1'000, frame, wmi, Point{3, 4});
    Image noise(16, 8);
    for (auto& p : noise.pixels()) {
      p = Pixel{static_cast<std::uint8_t>(rng.next_u32()),
                static_cast<std::uint8_t>(rng.next_u32()), 7, 255};
    }
    rec.region_update(2'000, Rect{0, 0, 16, 8}, ContentPt::kPng, png_encode(noise));
    Image flat(16, 8, Pixel{200, 100, 50, 255});
    flat.fill_rect(Rect{0, 4, 16, 4}, Pixel{1, 2, 3, 255});
    rec.region_update(3'000, Rect{16, 8, 16, 8}, ContentPt::kRle, rle_encode(flat));
    rec.move_rect(4'000, MoveRectangle{1, 0, 0, 16, 8, 8, 16});
    wmi.records.push_back({2, 0, 8, 8, 16, 16});
    rec.wmi(5'000, wmi);
    rec.pointer(6'000, Point{9, 9});
    rec.finish();
    ASSERT_TRUE(rec.ok());
  }
  const Bytes valid = read_file(path);
  {
    snapshot::SessionReplayer rep(path);
    ASSERT_TRUE(rep.ok());
    ASSERT_TRUE(rep.replay());
    EXPECT_EQ(rep.stats().region_updates_applied, 2u);
  }

  // Record framing: magic, then type u8 | t u64 | len u32 | payload.
  std::vector<std::size_t> length_fields;
  for (std::size_t at = 8; at + 13 <= valid.size();) {
    length_fields.push_back(at + 9);
    at += 13 + (static_cast<std::size_t>(valid[at + 9]) << 24 |
                static_cast<std::size_t>(valid[at + 10]) << 16 |
                static_cast<std::size_t>(valid[at + 11]) << 8 | valid[at + 12]);
  }
  ASSERT_EQ(length_fields.size(), 7u);  // six records and the end marker
  // The checkpoint's inner PNG length follows its header, and the RLE
  // band's width and height follow left u32 | top u32 | content_pt u8.
  length_fields.push_back(8 + 13);
  const std::size_t rle_payload = length_fields[2] + 4;
  length_fields.push_back(rle_payload + 9);
  length_fields.push_back(rle_payload + 13);

  // An RLE payload may claim 65535 pixels per 6-byte run, so no raster may
  // exceed that many pixels for every 6 bytes of the file; anything else
  // stays under 1 MiB.
  const std::size_t bound = valid.size() / 6 * 65535 * sizeof(Pixel) + (std::size_t{1} << 20);
  const std::string mutant_path = testing::TempDir() + "ads_fuzz_replay_mutant.adsrec";
  for (int i = 0; i < kMutationIterations; ++i) {
    Bytes data = valid;
    switch (rng.below(3)) {
      case 0: data = mutate(rng, std::move(data)); break;
      case 1: {
        const std::size_t field = length_fields[rng.below(length_fields.size())];
        // Any value, a small one, or one that passes the decoders' 1 GiB
        // raster guards.
        const std::uint32_t picks[] = {rng.next_u32(), static_cast<std::uint32_t>(rng.below(2048)),
                                       static_cast<std::uint32_t>(rng.range(1 << 16, 1 << 24))};
        const std::uint32_t len = picks[rng.below(3)];
        for (int k = 0; k < 4; ++k) data[field + k] = static_cast<std::uint8_t>(len >> (24 - 8 * k));
        break;
      }
      default: data.resize(rng.below(data.size())); break;
    }
    write_file(mutant_path, data);
    g_largest_allocation = 0;
    snapshot::SessionReplayer rep(mutant_path);
    if (rep.ok()) (void)rep.replay();
    ASSERT_LE(g_largest_allocation.load(), bound) << "mutant " << i;
  }
  std::remove(path.c_str());
  std::remove(mutant_path.c_str());
}

TEST(ParserRobustness, SdpRandomText) {
  Prng rng(9);
  for (int i = 0; i < 800; ++i) {
    const Bytes raw = random_bytes(rng, 300);
    std::string text(raw.begin(), raw.end());
    (void)SessionDescription::parse(text);
  }
}

TEST(ParserRobustness, SdpMutatedOffer) {
  Prng rng(10);
  SessionDescription offer;
  MediaSection m;
  m.media = "application";
  m.port = 6000;
  m.protocol = "RTP/AVP";
  m.formats = {"99"};
  m.attributes = {{"rtpmap", "99 remoting/90000"}};
  offer.media.push_back(m);
  const std::string base = offer.to_string();
  for (int i = 0; i < kMutationIterations; ++i) {
    Bytes data(base.begin(), base.end());
    data = mutate(rng, std::move(data));
    (void)SessionDescription::parse(std::string(data.begin(), data.end()));
  }
}

// RFC 4571 deframing of a TCP byte stream whose length prefixes are hostile:
// empty frames, 65535-byte frames and random lengths, cut into random
// chunks, truncated and reset mid-frame. Every complete frame pops out
// intact and in order, and what stays buffered is at most one partial
// frame (2 + 65535 - 1 bytes) however long the stream runs.
TEST(ParserRobustness, StreamDeframerHostileLengthPrefixes) {
  constexpr std::size_t kMaxPending = 2 + 0xFFFF - 1;
  Prng rng(11);
  std::vector<Bytes> frames;
  Bytes stream;
  for (int i = 0; i < 96; ++i) {
    const std::size_t len = rng.below(4) == 0   ? 0
                            : rng.below(3) == 0 ? 0xFFFF
                                                : rng.below(3000);
    Bytes payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u32());
    const auto framed = frame_packet(payload);
    ASSERT_TRUE(framed.ok());
    stream.insert(stream.end(), framed->begin(), framed->end());
    frames.push_back(std::move(payload));
  }

  // Feeds stream[from, to) in random chunks, draining after each one.
  const auto feed_chunked = [&](StreamDeframer& d, std::size_t from, std::size_t to,
                                std::vector<Bytes>& popped) {
    while (from < to) {
      const std::size_t n = std::min<std::size_t>(
          to - from, rng.below(2) == 0 ? rng.below(4) : rng.below(8192));
      d.feed(BytesView(stream.data() + from, n));
      from += n;
      while (auto pkt = d.next()) popped.push_back(std::move(*pkt));
      ASSERT_LE(d.pending_bytes(), kMaxPending);
    }
  };

  // The whole stream, chunked: every frame, in order, and nothing left.
  // The buffer is compacted as it goes, so no allocation comes near the
  // stream's size.
  g_largest_allocation = 0;
  {
    StreamDeframer d;
    std::vector<Bytes> popped;
    feed_chunked(d, 0, stream.size(), popped);
    EXPECT_TRUE(popped == frames);
    EXPECT_EQ(d.pending_bytes(), 0u);
  }
  EXPECT_LT(g_largest_allocation.load(), std::size_t{1} << 19);
  ASSERT_GT(stream.size(), std::size_t{1} << 20);

  for (int i = 0; i < 40; ++i) {
    // A truncated tail: a prefix of the frames pops, the rest stays
    // pending; reset() there drops it, and the full stream then decodes
    // from the start with no stale bytes in front.
    const std::size_t cut = rng.below(stream.size());
    StreamDeframer d;
    std::vector<Bytes> popped;
    feed_chunked(d, 0, cut, popped);
    ASSERT_LE(popped.size(), frames.size());
    EXPECT_TRUE(std::equal(popped.begin(), popped.end(), frames.begin()));
    std::size_t framed_bytes = 0;
    for (const Bytes& f : popped) framed_bytes += 2 + f.size();
    EXPECT_EQ(d.pending_bytes(), cut - framed_bytes);
    d.reset();
    EXPECT_EQ(d.pending_bytes(), 0u);
    popped.clear();
    feed_chunked(d, 0, stream.size(), popped);
    EXPECT_TRUE(popped == frames) << "after reset at byte " << cut;
  }

  // Random bytes read as length prefixes.
  StreamDeframer d;
  for (int i = 0; i < kMutationIterations; ++i) {
    d.feed(random_bytes(rng, 4096));
    while (d.next()) {
    }
    ASSERT_LE(d.pending_bytes(), kMaxPending);
  }
}

// The a=geometry answer token (transcode::parse_token) on random text and
// mutated valid tokens. Whatever parses stays inside the parser's bounds,
// serialises back to a token that parses to the same geometry, and
// resolves against a frame without overflowing a viewport edge; valid
// tokens round-trip exactly.
TEST(ParserRobustness, GeometryTokenRandomAndMutated) {
  Prng rng(12);
  const Rect frame{0, 0, 1280, 1024};
  const auto check = [&](const std::string& token) {
    const auto g = transcode::parse_token(token);
    if (!g) return;
    EXPECT_LE(g->scale_shift, transcode::kMaxScaleShift) << token;
    EXPECT_EQ(transcode::parse_token(transcode::to_token(*g)), g) << token;
    if (!g->viewport.empty()) {
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      EXPECT_LE(g->viewport.left, kMax - g->viewport.width) << token;
      EXPECT_LE(g->viewport.top, kMax - g->viewport.height) << token;
    }
    EXPECT_TRUE(frame.contains(transcode::source_rect(*g, frame))) << token;
  };

  static constexpr std::string_view kAlphabet = "s0123456789;vf,-+ ";
  for (int i = 0; i < kRandomIterations; ++i) {
    std::string token;
    const std::size_t len = rng.below(32);
    for (std::size_t k = 0; k < len; ++k) {
      token += rng.below(8) == 0 ? static_cast<char>(rng.next_u32())
                                 : kAlphabet[rng.below(kAlphabet.size())];
    }
    check(token);
  }

  for (int i = 0; i < kMutationIterations; ++i) {
    transcode::OutputGeometry g;
    g.scale_shift = static_cast<std::uint8_t>(rng.below(transcode::kMaxScaleShift + 1));
    if (rng.below(2) == 0) {
      g.viewport = Rect{static_cast<std::int64_t>(rng.below(4096)),
                        static_cast<std::int64_t>(rng.below(4096)),
                        1 + static_cast<std::int64_t>(rng.below(4096)),
                        1 + static_cast<std::int64_t>(rng.below(4096))};
    }
    g.follow = rng.below(2) == 0;
    const std::string token = transcode::to_token(g);
    ASSERT_EQ(transcode::parse_token(token), g) << token;
    const Bytes mutant = mutate(rng, Bytes(token.begin(), token.end()));
    check(std::string(mutant.begin(), mutant.end()));
  }

  for (const std::string token :
       {"", "s", "s7", "s-1", "s99999999999999999999", "s0;", "s0;;f", "s0;x",
        "s0;v1,1,0,5", "s0;v-1,0,5,5", "s0;v0,0,5", "s0;v0,0,5,5,", "s0;v0,0,5,5;f",
        "s0;v9223372036854775807,0,1,1", "s0;v0,9223372036854775800,1,100",
        "s0;v0,0,9223372036854775807,9223372036854775807"}) {
    check(token);
  }
}

}  // namespace
}  // namespace ads
