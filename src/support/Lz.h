//===- support/Lz.h - Dependency-free LZ77 block codec ----------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small LZ77-style block codec for event-stream chunk payloads. The
/// design goals, in order: no external dependency, a decoder that can
/// never read or write out of bounds on hostile input, and enough
/// compression on varint-dense .jdev chunks to make the bytes-on-disk /
/// bytes-on-wire win worth one memcpy-speed pass per chunk.
///
/// Block format:
///
///   [uvarint RawLen] [sequence]*
///
/// where each sequence is an LZ4-style token:
///
///   token byte: high nibble = literal run length (15 => extension bytes,
///               each 0xFF adds 255, a terminating byte < 0xFF adds its
///               value), low nibble = match length - MinMatch (15 =>
///               same extension scheme)
///   [literal bytes]
///   [2-byte little-endian match offset, 1..65535]  (absent in the final
///               sequence, which is literals-only and has low nibble 0)
///
/// Matches are found with a hash-table matcher over 4-byte prefixes
/// (bounded chain walk, tuned to a single head probe by default, with
/// backward extension into pending literals); the window is the offset
/// range (64 KiB). The matcher's tables belong to an LzEncoder, one per
/// compressed stream, and carry over from one block of that stream to
/// the next; the encoded bytes therefore depend only on the blocks the
/// stream has compressed so far, never on the thread or on any other
/// stream.
/// compress() returns an empty vector whenever the encoded block would
/// be >= the input -- the caller stores the chunk raw and clears the
/// compressed flag, so an incompressible chunk costs zero bytes of
/// overhead on the wire.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_SUPPORT_LZ_H
#define JDRAG_SUPPORT_LZ_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace jdrag::support {

/// Minimum match length the encoder emits; shorter repeats are cheaper
/// as literals (token + 2-byte offset = 3 bytes).
constexpr std::size_t LzMinMatch = 4;

/// Match offsets are 16-bit, so the effective window is 64 KiB - 1.
constexpr std::size_t LzMaxOffset = 65535;

/// The compressing side of one stream: owns the match tables, which
/// start empty and persist across compress() calls. Each block still
/// decodes on its own (matches never reach outside the block); the
/// carried-over tables only decide which in-block candidate a probe
/// finds first.
class LzEncoder {
public:
  LzEncoder();
  ~LzEncoder();
  LzEncoder(LzEncoder &&) noexcept;
  LzEncoder &operator=(LzEncoder &&) noexcept;

  /// Compress \p Size bytes at \p Data. Returns the encoded block
  /// ([uvarint RawLen][token stream]), or an EMPTY vector when the
  /// input is incompressible (encoded size would be >= Size) -- the
  /// caller must then store the payload raw. An empty input is
  /// "incompressible" by this rule (the uvarint prefix alone is one
  /// byte).
  std::vector<std::uint8_t> compress(const void *Data, std::size_t Size);

private:
  struct MatchTables;
  std::unique_ptr<MatchTables> Tables; ///< allocated on first use
};

/// One-shot compression: LzEncoder().compress(Data, Size), i.e. from
/// empty match tables, so the result depends on the input alone.
std::vector<std::uint8_t> lzCompress(const void *Data, std::size_t Size);

/// Decompress an encoded block of \p Size bytes at \p Data into \p Out.
/// \p MaxRawLen bounds the decoded size: a block whose RawLen prefix
/// exceeds it is rejected before any token is read. On success Out
/// holds exactly RawLen bytes and true is returned; on any malformed
/// input (truncated token, offset past the start of the output, RawLen
/// lying about the token stream's extent) Out is left cleared and false
/// is returned. The decoder never reads outside [Data, Data+Size) and
/// never writes outside Out's RawLen reservation.
bool lzDecompress(const void *Data, std::size_t Size,
                  std::vector<std::uint8_t> &Out, std::size_t MaxRawLen);

} // namespace jdrag::support

#endif // JDRAG_SUPPORT_LZ_H
