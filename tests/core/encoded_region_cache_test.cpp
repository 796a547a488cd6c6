// EncodedRegionCache lookup contract: find() copies a hit out, so what a
// caller holds survives every later insert()/clear(). The shared fan-out's
// cohort loop interleaves lookups with inserts; these tests pin the copy
// path, including under ASan.
#include "core/encoded_region_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ads {
namespace {

EncodedRegionKey key(std::uint64_t hash, std::uint32_t w = 16,
                     std::uint32_t h = 16) {
  return EncodedRegionKey{hash, 1, 0, w, h};
}

Bytes payload_of(std::size_t n, std::uint8_t fill) { return Bytes(n, fill); }

TEST(EncodedRegionCache, LookupsSeeReplacementsAndClear) {
  EncodedRegionCache cache(1024);
  Bytes out;
  EXPECT_FALSE(cache.find(key(1), out));

  cache.insert(key(1), payload_of(8, 0xAA));
  EXPECT_TRUE(cache.find(key(1), out));
  EXPECT_EQ(out, payload_of(8, 0xAA));

  // Replacing an existing entry: the next lookup sees the new payload.
  cache.insert(key(1), payload_of(8, 0xBB));
  EXPECT_TRUE(cache.find(key(1), out));
  EXPECT_EQ(out, payload_of(8, 0xBB));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 8u);

  // A miss leaves the caller's buffer alone.
  cache.clear();
  EXPECT_FALSE(cache.find(key(1), out));
  EXPECT_EQ(out, payload_of(8, 0xBB));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(EncodedRegionCache, FoundCopySurvivesEvictionByLaterInsert) {
  EncodedRegionCache cache(32);  // tiny budget: inserts evict aggressively
  const Bytes original = payload_of(24, 0x11);
  cache.insert(key(1), original);

  Bytes safe;
  ASSERT_TRUE(cache.find(key(1), safe));

  // This insert evicts key(1) to honour the 32-byte budget; under ASan any
  // aliasing of the evicted storage by `safe` would fire here.
  cache.insert(key(2), payload_of(24, 0x22));
  Bytes gone;
  EXPECT_FALSE(cache.find(key(1), gone));  // evicted
  EXPECT_GE(cache.evictions(), 1u);

  // The copy taken through find() is untouched by the eviction.
  EXPECT_EQ(safe, original);
}

TEST(EncodedRegionCache, CohortLoopPatternInterleavesLookupsAndInserts) {
  // The shared fan-out's access shape: per cohort, look bands up and
  // insert fresh encodes while earlier hits are still in use. With copies
  // the results stay valid across every eviction; under ASan any internal
  // aliasing of evicted storage would be caught here.
  EncodedRegionCache cache(64);  // holds at most four 16-byte payloads
  std::vector<Bytes> held;
  for (std::uint64_t i = 0; i < 32; ++i) {
    cache.insert(key(i), payload_of(16, static_cast<std::uint8_t>(i)));
    Bytes out;
    ASSERT_TRUE(cache.find(key(i), out));
    held.push_back(std::move(out));
  }
  for (std::uint64_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i], payload_of(16, static_cast<std::uint8_t>(i)));
  }
  EXPECT_LE(cache.bytes(), 64u);
  EXPECT_GE(cache.evictions(), 28u);
}

}  // namespace
}  // namespace ads
