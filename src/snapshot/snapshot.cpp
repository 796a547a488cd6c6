#include "snapshot/snapshot.hpp"

#include <stdexcept>

namespace ads::snapshot {

SnapshotOptions SnapshotService::validated(SnapshotOptions opts) {
  if (opts.enabled && opts.refresh_interval_us <= 0) {
    throw std::invalid_argument(
        "SnapshotOptions: refresh_interval_us must be > 0 when enabled");
  }
  if (opts.max_bundles == 0) opts.max_bundles = 1;
  if (opts.max_delta_fraction <= 0.0 || opts.max_delta_fraction > 1.0) {
    opts.max_delta_fraction = 0.5;
  }
  return opts;
}

SnapshotService::SnapshotService(SnapshotOptions opts)
    : opts_(validated(std::move(opts))) {}

void SnapshotService::drop_bundles() { bundles_.clear(); }

void SnapshotService::begin_tick(SimTime now) {
  if (!opts_.enabled) return;
  // The window is anchored at the *finalisation* instant of the most recent
  // bundle (admit() re-anchors), not at the open instant. Anchoring at open
  // time would close the window one tick early relative to the bundle: a
  // PLI arriving in the same tick the bundle was finalised would then find
  // the bundle already dropped at the next tick and force a second encode —
  // the refresh-storm regression tests/core/latejoin_cohort_test.cpp pins.
  if (window_open_ && now - window_anchor_us_ >= opts_.refresh_interval_us) {
    window_open_ = false;
    ++stats_.windows_closed;
    drop_bundles();
  }
  // A bundle whose delta outgrew its own area is worse than a fresh
  // refresh: serving it costs checkpoint + delta. Evict it; the next
  // admission of that operating point rebuilds from the live frame.
  for (auto it = bundles_.begin(); it != bundles_.end();) {
    // Bands live in output space but the delta accumulates host-space
    // damage, so the budget base is the key's host-space source rect; a
    // key without one falls back to the band union.
    const Rect b = !it->second.key.source.empty() ? it->second.key.source
                   : it->second.bands.empty() ? Rect{}
                                              : [&] {
                                                  Rect all = it->second.bands.front();
                                                  for (const Rect& r :
                                                       it->second.bands)
                                                    all = bounding_union(all, r);
                                                  return all;
                                                }();
    const double budget =
        static_cast<double>(b.area()) * opts_.max_delta_fraction;
    if (!b.empty() && static_cast<double>(it->second.delta.area()) > budget) {
      it = bundles_.erase(it);
      ++stats_.delta_evictions;
    } else {
      ++it;
    }
  }
}

bool SnapshotService::note_demand(SimTime now) {
  if (!opts_.enabled) return false;
  if (window_open_) {
    ++stats_.plis_absorbed;
    return true;
  }
  window_open_ = true;
  window_anchor_us_ = now;
  ++stats_.windows_opened;
  return false;
}

RefreshBundle* SnapshotService::admit(const OperatingPointKey& key,
                                      SimTime now, const BuildFn& build) {
  if (!opts_.enabled) return nullptr;
  if (!window_open_) {
    // Demand that reaches admission without a recorded PLI (e.g. a TCP
    // joiner registered mid-tick) opens the window here.
    window_open_ = true;
    window_anchor_us_ = now;
    ++stats_.windows_opened;
  }
  auto it = bundles_.find(key);
  if (it != bundles_.end()) {
    RefreshBundle& b = it->second;
    ++b.serves;
    ++stats_.bundles_served;
    stats_.encodes_saved += b.bands.size();
    return &b;
  }
  if (bundles_.size() >= opts_.max_bundles) {
    ++stats_.budget_rejections;
    return nullptr;
  }
  RefreshBundle bundle;
  bundle.key = key;
  if (!build || !build(bundle) || bundle.bands.empty() ||
      bundle.streams.size() != bundle.bands.size()) {
    ++stats_.build_failures;
    return nullptr;
  }
  bundle.built_at_us = now;
  bundle.checkpoint = next_checkpoint_++;
  // Re-anchor the window at finalisation so same-tick (and same-interval)
  // demand is absorbed by this bundle instead of expiring it early.
  window_anchor_us_ = now;
  ++stats_.bundles_built;
  stats_.bundle_bands += bundle.bands.size();
  auto [pos, inserted] = bundles_.emplace(key, std::move(bundle));
  RefreshBundle& b = pos->second;
  ++b.serves;
  ++stats_.bundles_served;
  return &b;
}

void SnapshotService::add_delta(const Rect& r) {
  if (!opts_.enabled || r.empty() || bundles_.empty()) return;
  for (auto& [key, b] : bundles_) b.delta.add(r);
  ++stats_.delta_rects;
}

void SnapshotService::invalidate() {
  if (bundles_.empty() && !window_open_) return;
  if (window_open_) {
    window_open_ = false;
    ++stats_.windows_closed;
  }
  drop_bundles();
  ++stats_.invalidations;
}

}  // namespace ads::snapshot
