// zlib stream wrapper (RFC 1950): 2-byte CMF/FLG header around a DEFLATE
// body, followed by the Adler-32 of the uncompressed data. This is the
// container PNG's IDAT chunks require.
#pragma once

#include "codec/deflate.hpp"
#include "codec/inflate.hpp"
#include "util/bytes.hpp"

namespace ads {

/// Compress into a zlib stream.
Bytes zlib_compress(BytesView input, const DeflateOptions& opts = {});

/// As zlib_compress, but writes into `out` (cleared first, capacity kept)
/// and reuses `scratch`. Output bytes are identical to zlib_compress.
void zlib_compress_into(BytesView input, const DeflateOptions& opts, Bytes& out,
                        DeflateScratch& scratch);

/// Decompress a zlib stream into the front of the grow-only buffer `out`
/// (see inflate_into), verifying header and Adler-32; returns the number
/// of bytes produced.
Result<std::size_t> zlib_decompress_into(BytesView input, const InflateLimits& limits,
                                         Bytes& out);

/// Decompress a zlib stream, verifying header and Adler-32.
Result<Bytes> zlib_decompress(BytesView input, const InflateLimits& limits = {});

}  // namespace ads
