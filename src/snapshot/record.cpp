#include "snapshot/record.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace ads::snapshot {
namespace {

constexpr char kMagic[8] = {'A', 'D', 'S', 'R', 'E', 'C', '0', '1'};

}  // namespace

// ----- SessionRecorder --------------------------------------------------

SessionRecorder::SessionRecorder(const std::string& path)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_.is_open()) return;
  out_.write(kMagic, sizeof(kMagic));
  ok_ = out_.good();
  if (ok_) stats_.bytes_written += sizeof(kMagic);
}

SessionRecorder::~SessionRecorder() { finish(); }

void SessionRecorder::write_record(RecordType type, SimTime t,
                                   BytesView payload) {
  if (!ok_) return;
  ByteWriter w(13 + payload.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(static_cast<std::uint64_t>(t));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  out_.write(reinterpret_cast<const char*>(w.view().data()),
             static_cast<std::streamsize>(w.size()));
  if (!out_.good()) {
    ok_ = false;
    return;
  }
  stats_.bytes_written += w.size();
}

void SessionRecorder::checkpoint(SimTime t, const Image& frame,
                                 const WindowManagerInfo& wmi, Point pointer) {
  if (!ok_) return;
  const Bytes frame_png = codecs_.find(ContentPt::kPng)->encode(frame);
  const Bytes wmi_bytes = wmi.serialize();
  ByteWriter w(frame_png.size() + wmi_bytes.size() + 16);
  w.u32(static_cast<std::uint32_t>(frame_png.size()));
  w.bytes(frame_png);
  w.u32(static_cast<std::uint32_t>(wmi_bytes.size()));
  w.bytes(wmi_bytes);
  w.u32(static_cast<std::uint32_t>(std::max<std::int64_t>(0, pointer.x)));
  w.u32(static_cast<std::uint32_t>(std::max<std::int64_t>(0, pointer.y)));
  write_record(RecordType::kCheckpoint, t, w.view());
  if (ok_) ++stats_.checkpoints;
}

void SessionRecorder::region_update(SimTime t, const Rect& r, ContentPt pt,
                                    BytesView content) {
  if (!ok_) return;
  ByteWriter w(content.size() + 9);
  w.u32(static_cast<std::uint32_t>(std::max<std::int64_t>(0, r.left)));
  w.u32(static_cast<std::uint32_t>(std::max<std::int64_t>(0, r.top)));
  w.u8(static_cast<std::uint8_t>(pt));
  w.bytes(content);
  write_record(RecordType::kRegionUpdate, t, w.view());
  if (ok_) ++stats_.region_updates;
}

void SessionRecorder::move_rect(SimTime t, const MoveRectangle& mr) {
  if (!ok_) return;
  write_record(RecordType::kMoveRect, t, mr.serialize());
  if (ok_) ++stats_.move_rects;
}

void SessionRecorder::wmi(SimTime t, const WindowManagerInfo& msg) {
  if (!ok_) return;
  write_record(RecordType::kWmi, t, msg.serialize());
  if (ok_) ++stats_.wmi_records;
}

void SessionRecorder::pointer(SimTime t, Point p) {
  if (!ok_) return;
  ByteWriter w(8);
  w.u32(static_cast<std::uint32_t>(std::max<std::int64_t>(0, p.x)));
  w.u32(static_cast<std::uint32_t>(std::max<std::int64_t>(0, p.y)));
  write_record(RecordType::kPointer, t, w.view());
  if (ok_) ++stats_.pointer_records;
}

void SessionRecorder::finish() {
  if (finished_ || !ok_) {
    finished_ = true;
    return;
  }
  finished_ = true;
  write_record(RecordType::kEnd, 0, {});
  out_.flush();
  if (!out_.good()) ok_ = false;
}

// ----- SessionReplayer --------------------------------------------------

SessionReplayer::SessionReplayer(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return;
  }
  ByteReader r(BytesView(data).subspan(sizeof(kMagic)));
  while (!r.at_end()) {
    auto type = r.u8();
    auto t = r.u64();
    auto len = r.u32();
    if (!type.ok() || !t.ok() || !len.ok()) return;
    auto payload = r.bytes(*len);
    if (!payload.ok()) return;
    RawRecord rec;
    rec.type = static_cast<RecordType>(*type);
    rec.t = static_cast<SimTime>(*t);
    rec.payload.assign(payload->begin(), payload->end());
    if (rec.type == RecordType::kCheckpoint) {
      last_checkpoint_ = records_.size();
      have_checkpoint_ = true;
      ++stats_.checkpoints_seen;
    }
    records_.push_back(std::move(rec));
    ++stats_.records_total;
    if (records_.back().type == RecordType::kEnd) break;
  }
  ok_ = true;
}

bool SessionReplayer::apply(const RawRecord& rec) {
  ByteReader r(rec.payload);
  switch (rec.type) {
    case RecordType::kCheckpoint: {
      auto frame_len = r.u32();
      if (!frame_len.ok()) return false;
      auto frame_bytes = r.bytes(*frame_len);
      if (!frame_bytes.ok()) return false;
      auto img = codecs_.find(ContentPt::kPng)->decode(*frame_bytes);
      if (!img.ok()) {
        ++stats_.decode_errors;
        return false;
      }
      frame_ = std::move(*img);
      auto wmi_len = r.u32();
      if (!wmi_len.ok()) return false;
      auto wmi_bytes = r.bytes(*wmi_len);
      if (!wmi_bytes.ok()) return false;
      auto wmi = WindowManagerInfo::parse(*wmi_bytes);
      if (!wmi.ok()) return false;
      wmi_ = std::move(*wmi);
      auto x = r.u32();
      auto y = r.u32();
      if (!x.ok() || !y.ok()) return false;
      pointer_ = Point{static_cast<std::int64_t>(*x),
                       static_cast<std::int64_t>(*y)};
      return true;
    }
    case RecordType::kRegionUpdate: {
      auto left = r.u32();
      auto top = r.u32();
      auto pt = r.u8();
      if (!left.ok() || !top.ok() || !pt.ok()) return false;
      const ImageCodec* codec = codecs_.find(*pt);
      if (codec == nullptr) {
        ++stats_.decode_errors;
        return false;
      }
      auto img = codec->decode(r.rest());
      if (!img.ok()) {
        ++stats_.decode_errors;
        return false;
      }
      frame_.blit(*img, img->bounds(),
                  Point{static_cast<std::int64_t>(*left),
                        static_cast<std::int64_t>(*top)});
      ++stats_.region_updates_applied;
      return true;
    }
    case RecordType::kMoveRect: {
      auto mr = MoveRectangle::parse(rec.payload);
      if (!mr.ok()) return false;
      const Rect dest = mr->dest();
      frame_.move_rect(mr->source(), {dest.left, dest.top});
      ++stats_.move_rects_applied;
      return true;
    }
    case RecordType::kWmi: {
      auto wmi = WindowManagerInfo::parse(rec.payload);
      if (!wmi.ok()) return false;
      wmi_ = std::move(*wmi);
      return true;
    }
    case RecordType::kPointer: {
      auto x = r.u32();
      auto y = r.u32();
      if (!x.ok() || !y.ok()) return false;
      pointer_ = Point{static_cast<std::int64_t>(*x),
                       static_cast<std::int64_t>(*y)};
      return true;
    }
    case RecordType::kEnd:
      return true;
  }
  return false;
}

bool SessionReplayer::replay() {
  if (!ok_ || !have_checkpoint_) return false;
  for (std::size_t i = last_checkpoint_; i < records_.size(); ++i) {
    if (!apply(records_[i])) return false;
    if (records_[i].type != RecordType::kEnd) last_time_us_ = records_[i].t;
  }
  return true;
}

}  // namespace ads::snapshot
