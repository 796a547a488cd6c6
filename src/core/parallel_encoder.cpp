#include "core/parallel_encoder.hpp"

#include <algorithm>
#include <atomic>

#include "image/damage.hpp"

namespace ads {

ParallelEncoder::ParallelEncoder(const CodecRegistry& registry,
                                 ParallelEncoderOptions opts)
    : registry_(registry), cache_(opts.cache_bytes) {
  if (opts.threads > 0) pool_ = std::make_unique<ThreadPool>(opts.threads);
  // One scratch per worker plus one for the submitting thread (serial mode,
  // a lone miss and its share of a parallel encode all run there).
  scratch_.resize((pool_ ? pool_->size() : 0) + 1);
  crop_.resize(scratch_.size());
}

std::vector<Bytes> ParallelEncoder::encode_regions(const Image& frame,
                                                   const std::vector<Rect>& rects,
                                                   ContentPt pt,
                                                   const EncodeParams& params) {
  std::vector<Bytes> results(rects.size());
  const bool use_cache = cache_.max_bytes() > 0;
  ++stats_.encode_calls;
  stats_.bands_requested += rects.size();

  // Pass 1 (submitting thread, deterministic order): cache lookups. Misses
  // are queued for encoding; their keys are kept so pass 3 can fill the
  // cache in submission order, keeping LRU state independent of thread
  // interleaving.
  std::vector<std::size_t> pending;
  std::vector<EncodedRegionKey> keys(rects.size());
  pending.reserve(rects.size());
  for (std::size_t i = 0; i < rects.size(); ++i) {
    if (use_cache) {
      keys[i] = EncodedRegionKey{hash_rect(frame, rects[i]),
                                 static_cast<std::uint8_t>(pt),
                                 static_cast<std::uint8_t>(
                                     std::clamp(params.dct_quality, 0, 100)),
                                 static_cast<std::uint32_t>(rects[i].width),
                                 static_cast<std::uint32_t>(rects[i].height)};
      // Copy-out lookup: hits never escape the cache as references, so
      // the pass-3 inserts cannot invalidate them.
      if (cache_.find(keys[i], results[i])) {
        ++stats_.cache_hits;
        stats_.cache_hit_bytes += results[i].size();
        continue;
      }
      ++stats_.cache_misses;
    }
    pending.push_back(i);
  }

  // Pass 2: encode the misses. Up to pending - 1 workers and this thread
  // take bands from one shared cursor, so the tick thread encodes while
  // the pool does; with no pool or a single miss it encodes them all
  // inline. Each encoder touches only its own scratch slot (this thread's
  // is the last) and the result slots it claimed.
  std::atomic<std::size_t> cursor{0};
  const auto encode_claimed = [&](std::size_t slot) {
    for (std::size_t k = cursor++; k < pending.size(); k = cursor++) {
      const std::size_t i = pending[k];
      frame.crop_into(rects[i], crop_[slot]);
      registry_.encode_into(pt, crop_[slot], results[i], scratch_[slot], params);
    }
  };
  {
    // The workers read this call's locals, so every way out of this block,
    // a throw included, waits for them; wait_idle() also publishes their
    // writes back to this thread.
    struct Join {
      ThreadPool* pool;
      ~Join() {
        if (pool != nullptr) pool->wait_idle();
      }
    } join{pool_ && pending.size() > 1 ? pool_.get() : nullptr};
    const std::size_t helpers = join.pool ? std::min(pool_->size(), pending.size() - 1) : 0;
    for (std::size_t h = 0; h < helpers; ++h) pool_->submit(encode_claimed);
    encode_claimed(scratch_.size() - 1);
  }
  stats_.bands_encoded += pending.size();
  stats_.peak_queue_depth = std::max<std::uint64_t>(stats_.peak_queue_depth,
                                                    pending.size());

  // Pass 3 (submitting thread): populate the cache in submission order.
  if (use_cache) {
    for (const std::size_t i : pending) cache_.insert(keys[i], results[i]);
  }
  return results;
}

}  // namespace ads
