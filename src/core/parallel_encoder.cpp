#include "core/parallel_encoder.hpp"

#include <algorithm>

#include "image/damage.hpp"

namespace ads {

ParallelEncoder::ParallelEncoder(const CodecRegistry& registry,
                                 ParallelEncoderOptions opts)
    : registry_(registry), cache_(opts.cache_bytes) {
  if (opts.threads > 0) pool_ = std::make_unique<ThreadPool>(opts.threads);
  // One scratch per worker plus one for the submitting thread (serial mode
  // and cache-miss bookkeeping both run there).
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

  // Pass 2: encode the misses — fanned out when a pool exists, inline
  // otherwise. Workers only touch their own scratch and their own result
  // slots; wait_idle() publishes the writes back to this thread.
  if (pool_ && pending.size() > 1) {
    for (const std::size_t i : pending) {
      pool_->submit([this, &frame, &rects, &results, pt, params, i](std::size_t worker) {
        frame.crop_into(rects[i], crop_[worker]);
        registry_.encode_into(pt, crop_[worker], results[i], scratch_[worker], params);
      });
    }
    pool_->wait_idle();
  } else {
    for (const std::size_t i : pending) {
      frame.crop_into(rects[i], crop_.back());
      registry_.encode_into(pt, crop_.back(), results[i], scratch_.back(), params);
    }
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
