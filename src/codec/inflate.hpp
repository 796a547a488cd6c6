// DEFLATE decompressor (RFC 1951). Tolerant of any conformant stream, not
// just our own encoder's output; all failures are reported as ParseError
// (untrusted network data must never crash the participant).
#pragma once

#include <cstddef>

#include "util/bytes.hpp"

namespace ads {

struct InflateLimits {
  /// Refuse to expand beyond this many bytes (zip-bomb guard for data
  /// arriving from the network). 0 means unlimited.
  std::size_t max_output = 0;
};

/// Decompress a raw DEFLATE stream into the front of `out` and return the
/// number of bytes produced. `out` is a grow-only working buffer: its size
/// is capacity that later calls reuse, it is never shrunk, and it grows
/// only as the stream delivers bytes (never straight to `max_output`). On
/// error its contents are unspecified.
Result<std::size_t> inflate_into(BytesView input, const InflateLimits& limits, Bytes& out);

/// Decompress a raw DEFLATE stream (inflate_into with a fresh buffer).
Result<Bytes> inflate(BytesView input, const InflateLimits& limits = {});

}  // namespace ads
