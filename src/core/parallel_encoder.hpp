// Parallel band-encoding stage of the AH frame pipeline.
//
// The AH splits each frame's damage into horizontal bands; this component
// encodes those bands concurrently on a fixed worker pool and the calling
// (tick) thread while preserving the serial path's exact wire bytes:
//   * the pool's workers and the caller claim bands from one shared cursor,
//     each band's payload lands in the slot of its sequence index, and the
//     results are returned in index order, so downstream framing sees the
//     same payloads in the same order regardless of thread count;
//   * each worker and the caller own a private EncodeScratch arena, so
//     steady-state encoding performs no per-band heap allocations and no
//     locking;
//   * an EncodedRegionCache is consulted (keyed by pixel hash + geometry +
//     codec) before any band is compressed, and populated afterwards — the
//     cache lookup happens on the submitting thread, deterministically.
//
// With threads == 0 everything runs inline on the caller's thread through
// the identical cache/scratch code path, which is what makes the
// serial-vs-parallel golden test meaningful.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/registry.hpp"
#include "core/encoded_region_cache.hpp"
#include "image/geometry.hpp"
#include "image/image.hpp"
#include "util/thread_pool.hpp"

namespace ads {

/// Sizing for the band-encode stage: pool width and cache budget.
struct ParallelEncoderOptions {
  /// Pool worker threads for band encoding. The caller encodes bands
  /// next to them, so up to threads + 1 bands encode at once; 0 = encode
  /// inline on the caller.
  std::size_t threads = 0;
  /// Byte budget for the encoded-region cache; 0 disables it.
  std::size_t cache_bytes = 0;
};

/// Encodes damage bands on a worker pool with deterministic output order
/// and an encoded-region cache in front of the codecs.
class ParallelEncoder {
 public:
  /// `registry` must outlive the encoder; its codecs are shared by all
  /// workers (they are stateless — per-call state lives in the scratches).
  ParallelEncoder(const CodecRegistry& registry, ParallelEncoderOptions opts);

  /// Encode frame.crop(r) for every rect with codec `pt` under per-call
  /// `params` (the ads::rate quality step rides in here; the cache key
  /// includes it). Results are in input order and byte-identical to
  /// encoding each band serially. Unknown payload types yield empty
  /// payloads.
  std::vector<Bytes> encode_regions(const Image& frame, const std::vector<Rect>& rects,
                                    ContentPt pt, const EncodeParams& params = {});

  /// Worker-pool width (0 = serial mode).
  std::size_t threads() const { return pool_ ? pool_->size() : 0; }
  /// The encoded-region cache in front of the codecs.
  EncodedRegionCache& cache() { return cache_; }

  /// Stage totals: band counts, cache effectiveness, queue depth.
  struct Stats {
    std::uint64_t bands_requested = 0;  ///< bands passed to encode_regions
    std::uint64_t bands_encoded = 0;    ///< bands that ran a codec
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;   ///< lookups that fell through (cache on)
    std::uint64_t cache_hit_bytes = 0;  ///< payload bytes served from cache
    std::uint64_t encode_calls = 0;     ///< encode_regions invocations
    std::uint64_t peak_queue_depth = 0; ///< most bands queued in one call
    friend bool operator==(const Stats&, const Stats&) = default;
  };
  /// Stage totals (see Stats).
  const Stats& stats() const { return stats_; }

 private:
  const CodecRegistry& registry_;
  std::unique_ptr<ThreadPool> pool_;  ///< null in serial mode
  std::vector<EncodeScratch> scratch_;  ///< one per worker; [pool size] = caller's
  std::vector<Image> crop_;             ///< per-worker band staging, same layout
  EncodedRegionCache cache_;
  Stats stats_;
};

}  // namespace ads
