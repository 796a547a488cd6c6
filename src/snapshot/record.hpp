// Deterministic session record/replay on the checkpoint substrate
// (ROADMAP item 3: "write the checkpoint + update stream to disk;
// deterministic replay is free given the virtual clock").
//
// File format (all integers big-endian, see docs/LATEJOIN.md §5):
//
//   magic   "ADSREC01"                                      (8 bytes)
//   record  type u8 | t u64 (virtual-clock µs) | len u32 | payload[len]
//   ...
//   record  kEnd (len 0)
//
// Record payloads:
//   kCheckpoint   frame_len u32 | PNG frame | wmi_len u32 | serialized
//                 WindowManagerInfo | pointer_x u32 | pointer_y u32
//   kRegionUpdate left u32 | top u32 | content_pt u8 | encoded content
//   kMoveRect     serialized MoveRectangle (§5.2.3 wire format)
//   kWmi          serialized WindowManagerInfo (§5.2.1 wire format)
//   kPointer      x u32 | y u32
//
// The recorder always encodes with PNG (the draft's mandatory codec,
// lossless) regardless of the session's distribution codec, so replay is
// bit-exact even for lossy DCT sessions. A replayer seeks to the LAST
// checkpoint and applies the update stream from there — which is exactly
// the late-join bundle semantics, applied to disk instead of the wire.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "codec/registry.hpp"
#include "image/image.hpp"
#include "net/event_loop.hpp"
#include "remoting/move_rectangle.hpp"
#include "remoting/window_manager_info.hpp"
#include "util/bytes.hpp"

namespace ads::snapshot {

/// Record types of the checkpoint + update stream.
enum class RecordType : std::uint8_t {
  kCheckpoint = 1,    ///< full-frame PNG + WMI + pointer (replay anchor)
  kRegionUpdate = 2,  ///< one encoded damage band
  kMoveRect = 3,      ///< one verified scroll (§5.2.3)
  kWmi = 4,           ///< window-manager state change (§5.2.1)
  kPointer = 5,       ///< AH pointer position (§5.2.4)
  kEnd = 6,           ///< clean end-of-stream marker
};

/// Streams one session's checkpoint + update records to disk. All writes
/// happen on the tick thread; failures latch ok() false and subsequent
/// writes no-op (recording must never take the session down).
class SessionRecorder {
 public:
  /// Opens (truncates) `path` and writes the magic. Check ok().
  explicit SessionRecorder(const std::string& path);
  ~SessionRecorder();

  /// True while the stream is healthy (open succeeded, no write failed).
  bool ok() const { return ok_; }

  /// Write a replay anchor: the full frame (PNG), the complete WMI and the
  /// pointer position at virtual time `t`.
  void checkpoint(SimTime t, const Image& frame, const WindowManagerInfo& wmi,
                  Point pointer);
  /// Write one encoded damage band (already-compressed content bytes).
  void region_update(SimTime t, const Rect& r, ContentPt pt, BytesView content);
  /// Write one verified scroll.
  void move_rect(SimTime t, const MoveRectangle& mr);
  /// Write a window-manager state change.
  void wmi(SimTime t, const WindowManagerInfo& msg);
  /// Write a pointer move.
  void pointer(SimTime t, Point p);
  /// Write the end marker and flush. Idempotent; the destructor calls it.
  void finish();

  /// Lifetime totals for everything recorded.
  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t region_updates = 0;
    std::uint64_t move_rects = 0;
    std::uint64_t wmi_records = 0;
    std::uint64_t pointer_records = 0;
    std::uint64_t bytes_written = 0;  ///< payload + framing, magic included
  };
  /// Lifetime counters (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  /// Frame and write one record; latches ok_ false on stream failure.
  void write_record(RecordType type, SimTime t, BytesView payload);

  std::ofstream out_;
  CodecRegistry codecs_ = CodecRegistry::with_defaults();
  bool ok_ = false;
  bool finished_ = false;
  Stats stats_;
};

/// Reconstructs a recorded session's frame/WMI/pointer state from disk.
/// Replay is deterministic: the same file yields the same frame bytes on
/// any machine (PNG is lossless and the virtual clock is in the records).
class SessionReplayer {
 public:
  /// Reads and parses `path` in full. Check ok() before replay().
  explicit SessionReplayer(const std::string& path);

  /// True when the file opened, the magic matched and framing was sound.
  bool ok() const { return ok_; }

  /// Apply the record stream from the LAST checkpoint to the end (the
  /// checkpoint-seek that makes long recordings cheap to resume). Returns
  /// false when the stream contains no checkpoint or a record fails to
  /// decode.
  bool replay();

  /// The reconstructed frame after replay().
  const Image& frame() const { return frame_; }
  /// The last WindowManagerInfo applied (empty before one is seen).
  const WindowManagerInfo& windows() const { return wmi_; }
  /// The last pointer position applied.
  Point pointer() const { return pointer_; }
  /// Virtual-clock time of the last applied record.
  SimTime last_time_us() const { return last_time_us_; }

  /// Replay totals (records applied from the seek point onward).
  struct Stats {
    std::uint64_t checkpoints_seen = 0;   ///< in the whole file
    std::uint64_t records_total = 0;      ///< in the whole file (incl. kEnd)
    std::uint64_t region_updates_applied = 0;
    std::uint64_t move_rects_applied = 0;
    std::uint64_t decode_errors = 0;
  };
  /// Replay counters (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  struct RawRecord {
    RecordType type = RecordType::kEnd;
    SimTime t = 0;
    Bytes payload;
  };

  bool apply(const RawRecord& rec);

  std::vector<RawRecord> records_;
  std::size_t last_checkpoint_ = 0;  ///< index into records_
  bool have_checkpoint_ = false;
  bool ok_ = false;
  CodecRegistry codecs_ = CodecRegistry::with_defaults();
  DecodeScratch decode_scratch_;
  Image frame_;
  WindowManagerInfo wmi_;
  Point pointer_{0, 0};
  SimTime last_time_us_ = 0;
  Stats stats_;
};

}  // namespace ads::snapshot
