//===- profiler/EventStream.h - Binary instrumentation events ---*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-stream pipeline decouples the instrumented VM (phase 1) from
/// the drag profiler (phase 2), the way the paper's two-phase tool and
/// production heap profilers (heapprofd-style) are structured: the VM does
/// minimal in-line work -- it appends compact binary events to a chunked
/// EventBuffer -- and a pluggable EventSink decides where the bytes go:
///
///   DispatchSink       decode chunks as they are flushed and feed an
///                      EventConsumer (attached / live profiling)
///   FileEventSink      write a `.jdev` recording for detached analysis
///   SocketEventSink    stream chunks to an out-of-process jdragd
///                      collector, degrading to a local spool file when
///                      the daemon is unreachable (SocketEventSink.h)
///   AsyncEventSink     hand chunks to a background writer thread
///                      (profiler/AsyncEventSink.h)
///   MemorySink         keep the raw stream in memory (tests, tooling)
///   TeeSink            both at once
///   NullSink           discard (overhead measurement)
///   FaultInjectionSink wrap another sink and fail on a schedule (tests)
///
/// Call chains are NOT carried per event: the VM interns each unique
/// nested site once, emits a single DefineSite record with the frames,
/// and every subsequent event refers to the 4-byte SiteId. A recording
/// is therefore self-contained: replaying a `.jdev` through the same
/// consumer rebuilds a bit-identical ProfileLog.
///
/// Wire format (native-endian; a recording is consumed on the machine
/// that produced it): the stream is a sequence of *framed chunks*, each
/// a 16-byte ChunkHeader (magic, sequence number, payload length,
/// CRC-32C of the payload) followed by the payload. Payloads concatenate
/// into the record stream. Two record encodings exist (WireFormat):
///
///   v2  every record is a fixed 40-byte EventRecord; DefineSite records
///       are followed by FrameCount 12-byte WireFrames;
///   v3  per-kind variable-length records: a tag byte (kind + inline
///       flags) followed by LEB128 varint fields, with timestamps
///       encoded as zigzag deltas against the previous record -- the
///       dominant Use/Collect events shrink from 40 to ~4-8 bytes.
///
/// Records may straddle chunk boundaries in both encodings --
/// FrameDecoder verifies and strips the frames, StreamDecoder
/// reassembles records. The framing is what makes a damaged recording
/// *salvageable*: a decoder can verify each chunk independently, detect
/// exactly where corruption or truncation begins, and recover every
/// complete record before it (see profiler/StreamSalvage.h).
///
///   v4  v3's record encoding made *shard-decodable*: every chunk is
///       self-contained (the time-delta chain restarts at zero in each
///       chunk, so the first timed record carries its absolute time as
///       the chunk's delta baseline; records never straddle chunk
///       boundaries) and the stream ends with a chunk index footer --
///       a specially-magic'd terminal frame listing every chunk's
///       offset, sequence, CRC, record count and first/last time -- so
///       a reader can fan chunk ranges out to N decode threads without
///       scanning the file first (profiler/ParallelReplay.h). Readers
///       rebuild a missing or untrusted index with one sequential pass
///       (rebuildChunkIndex), which also serves v2/v3 streams.
///
/// The producer side degrades gracefully instead of failing silently:
/// when a sink write fails, EventBuffer keeps accepting events, accounts
/// every dropped chunk and byte in a StreamHealth struct, and warns once
/// on stderr -- a long run that hits ENOSPC ends with a salvageable
/// prefix plus an exact accounting of the loss, not an empty file.
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_EVENTSTREAM_H
#define JDRAG_PROFILER_EVENTSTREAM_H

#include "profiler/SiteTable.h"
#include "support/Lz.h"
#include "support/Units.h"
#include "vm/Value.h"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace jdrag::profiler {

/// The event set of the paper's instrumented JVM (section 2.1.1), plus
/// the DefineSite metadata record that makes streams self-contained.
enum class EventKind : std::uint8_t {
  DefineSite, ///< first sighting of an interned nested site
  Alloc,      ///< object allocated (before its constructor runs)
  Use,        ///< one of the paper's object-use kinds
  GCEnd,      ///< a GC cycle finished (reachable-heap sample)
  DeepGCEnd,  ///< GC + finalization + GC finished
  Collect,    ///< object found unreachable, being reclaimed
  Survivor,   ///< object survived the final deep GC
  Terminate,  ///< program (including final deep GC) done
};
inline constexpr std::size_t NumEventKinds = 8;

const char *eventKindName(EventKind K);

/// Record-layer encoding of a stream (the `.jdev` header version). The
/// chunk framing is identical in both; only the record bytes differ.
enum class WireFormat : std::uint8_t {
  V2 = 2, ///< fixed 40-byte EventRecords (legacy; still replayable)
  V3 = 3, ///< per-kind varint records with byte-clock time deltas
  V4 = 4, ///< v3 records, but chunk-self-contained + chunk index footer
  V5 = 5, ///< v4 chunks/records/footer + sampling params in the header
  V6 = 6, ///< v5 header + per-chunk transparent LZ compression: a chunk
          ///< frame may carry an LZ-compressed payload, flagged in bit
          ///< 31 of ChunkHeader::PayloadBytes, with the CRC still
          ///< computed over the *uncompressed* payload bytes
};

/// What new streams are written as (decoders accept all versions).
/// Sampled recordings upgrade to V5 (effectiveFormat below) because
/// their header must carry the SamplingParams; exact recordings stay V4
/// so `--sample-bytes 0` streams are byte-identical to pre-sampling
/// ones.
inline constexpr WireFormat DefaultWireFormat = WireFormat::V4;

/// v4 introduced chunk-self-contained framing (per-chunk time baseline,
/// record-aligned flushes, terminal index footer); v5 keeps all of it
/// and only extends the file header. Every framing decision keys on
/// this predicate, not on an exact version compare.
inline constexpr bool chunkSelfContained(WireFormat F) {
  return F >= WireFormat::V4;
}

/// Byte-interval allocation sampling parameters, carried in the v5 file
/// header so a recording is self-describing: SampleBytes is the mean of
/// the geometric inter-sample gap on the byte clock (heapprofd-style
/// size-weighted sampling -- an allocation of s bytes is sampled with
/// probability 1 - exp(-s/SampleBytes)); SampleSeed seeds the
/// deterministic PRNG so a recording is reproducible. SampleBytes == 0
/// means exact (every allocation tracked), the pre-v5 behaviour.
struct SamplingParams {
  std::uint64_t SampleBytes = 0;
  std::uint64_t SampleSeed = 0x6a64726167ULL; // "jdrag"
  constexpr bool enabled() const { return SampleBytes != 0; }
};

/// Default byte interval for sampled recordings (`--sample-bytes` with
/// no explicit rate): small enough that the paper's workloads keep a
/// statistically useful sample, large enough that almost every
/// allocation takes the unsampled fast path.
inline constexpr std::uint64_t DefaultSampleBytes = 64 * 1024;

/// The format a recording must be written as given the requested format
/// and sampling: sampling upgrades v4 to v5 (the header must carry the
/// params); exact recordings keep the requested format. Sampling under
/// v2/v3 has no header slot for the params -- callers reject that
/// combination (jdrag does) rather than record an unscalable stream.
inline constexpr WireFormat effectiveFormat(WireFormat F,
                                            const SamplingParams &S) {
  return S.enabled() && F == WireFormat::V4 ? WireFormat::V5 : F;
}

/// effectiveFormat with chunk compression in the picture: compression
/// upgrades v4/v5 to v6 (the header version is what tells a reader that
/// chunk frames may carry the compressed-payload flag); with
/// compression off the sampling-only rule above applies, so
/// `--compress=off` recordings stay byte-identical to pre-v6 ones.
/// Compression under v2/v3 framing is rejected by callers (jdrag does)
/// -- those readers have no flag bit to honour.
inline constexpr WireFormat effectiveFormat(WireFormat F,
                                            const SamplingParams &S,
                                            bool Compress) {
  WireFormat E = effectiveFormat(F, S);
  return Compress && (E == WireFormat::V4 || E == WireFormat::V5)
             ? WireFormat::V6
             : E;
}

/// Size of the `.jdev` file header for format \p F: 16 bytes (magic,
/// version, reserved) through v4; v5 and v6 append u64 SampleBytes +
/// u64 SampleSeed for 32.
inline constexpr std::size_t streamHeaderBytes(WireFormat F) {
  return F >= WireFormat::V5 ? 32 : 16;
}

/// One decoded event. This is the *in-memory* record every consumer
/// sees regardless of wire format; it is also, verbatim, the v2 wire
/// encoding. Field meaning depends on Kind:
///
///   Kind        Time  Id      Arg0            Arg1           Site  Sub    Flags
///   DefineSite  -     -       frame count     -              id    -      -
///   Alloc       clock object  accounted bytes class index    alloc akind  bit0=isArray
///   Use         clock object  -               -              use   kind   bit0=duringInit
///   GCEnd       clock -       reachable bytes reachable objs -     -      -
///   DeepGCEnd   clock -       -               -              -     -      -
///   Collect     clock object  -               -              -     -      -
///   Survivor    clock object  -               -              -     -      -
///   Terminate   clock -       -               -              -     -      -
struct EventRecord {
  ByteTime Time = 0;
  vm::ObjectId Id = 0;
  std::uint64_t Arg0 = 0;
  std::uint64_t Arg1 = 0;
  SiteId Site = InvalidSite;
  std::uint8_t Kind = 0;
  std::uint8_t Sub = 0;
  std::uint8_t Flags = 0;
  std::uint8_t Reserved = 0;

  EventKind kind() const { return static_cast<EventKind>(Kind); }
};
static_assert(sizeof(EventRecord) == 40, "v2 wire format is fixed-width");
static_assert(std::is_trivially_copyable_v<EventRecord>);

/// One frame of a v2 DefineSite payload (v3 encodes frames as varints).
struct WireFrame {
  std::uint32_t Method = 0;
  std::uint32_t Pc = 0;
  std::uint32_t Line = 0;
};
static_assert(sizeof(WireFrame) == 12);

/// Upper bound on DefineSite frame counts; a decoder rejects anything
/// larger as corruption (matches ProfileLog's chain limit).
inline constexpr std::uint64_t MaxWireFrames = 1024;

/// `.jdev` file magic ("jdevstr1"): 8 bytes, followed by a u32 format
/// version (the stream's WireFormat) and a u32 reserved field.
inline constexpr std::uint64_t StreamFileMagic = 0x6a64657673747231ULL;

//===----------------------------------------------------------------------===//
// Chunk framing
//===----------------------------------------------------------------------===//

/// Frame header preceding every chunk payload in the stream. The magic
/// lets a salvage scan resynchronize at the next chunk boundary after
/// damage; Seq makes dropped or reordered chunks detectable; Crc
/// (CRC-32C of the payload) makes bit flips detectable.
struct ChunkHeader {
  std::uint32_t Magic = 0;
  std::uint32_t Seq = 0;
  std::uint32_t PayloadBytes = 0;
  std::uint32_t Crc = 0;
};
static_assert(sizeof(ChunkHeader) == 16, "wire format is fixed-width");
static_assert(std::is_trivially_copyable_v<ChunkHeader>);

/// "jdCk", little-endian.
inline constexpr std::uint32_t ChunkMagic = 0x6b43646a;

/// Sanity bound on chunk payloads; a decoder rejects larger length
/// fields as corruption instead of attempting a giant buffer.
inline constexpr std::uint32_t MaxChunkPayload = 64u << 20;

/// v6: bit 31 of ChunkHeader::PayloadBytes flags an LZ-compressed
/// payload; the low 31 bits are then the *on-wire* (compressed) byte
/// count and Crc stays the CRC-32C of the uncompressed payload, so
/// integrity and salvage semantics are unchanged. Pre-v6 readers
/// reject a flagged frame outright: the raw field exceeds
/// MaxChunkPayload (64 MiB < 2^31), which is exactly the clean refusal
/// the version bump is for.
inline constexpr std::uint32_t ChunkCompressedBit = 0x80000000u;

/// On-wire payload bytes of a frame whose PayloadBytes field is
/// \p Field (masks off the compressed flag).
inline constexpr std::uint32_t chunkWireBytes(std::uint32_t Field) {
  return Field & ~ChunkCompressedBit;
}

/// True when \p Field flags a compressed payload.
inline constexpr bool chunkCompressed(std::uint32_t Field) {
  return (Field & ChunkCompressedBit) != 0;
}

/// Decompresses a flagged chunk payload. \p H is the frame header,
/// \p Payload its chunkWireBytes(H.PayloadBytes) on-wire bytes. On
/// success \p Out refers to the uncompressed payload -- the input span
/// itself for a raw chunk, \p Scratch for a compressed one -- and true
/// is returned. Returns false when a flagged payload is malformed
/// (truncated token stream, out-of-range offsets, a declared length
/// over MaxChunkPayload). Does NOT check the CRC; callers verify
/// crc32c over \p Out against H.Crc.
bool chunkPayloadBytes(const ChunkHeader &H, const std::byte *Payload,
                       std::vector<std::uint8_t> &Scratch,
                       std::span<const std::byte> &Out);

//===----------------------------------------------------------------------===//
// Chunk index footer (v4)
//===----------------------------------------------------------------------===//

/// "jdIx", little-endian: the ChunkHeader magic of the terminal chunk
/// index footer frame a v4 stream ends with. Pre-v4 readers that walk
/// frames strictly reject it as an unknown chunk, which is the intended
/// compatibility break: v4 bumped the header version precisely so old
/// readers refuse cleanly instead of mis-decoding.
inline constexpr std::uint32_t FooterMagic = 0x7849646aU;

/// "jdFt", little-endian: the trailing 4 bytes of the footer block. A
/// reader finds the footer by reading the last 8 bytes of the stream
/// (u32 block size, u32 this magic) -- no forward scan needed.
inline constexpr std::uint32_t FooterTailMagic = 0x7446646aU;

/// One chunk's entry in the index. The first five fields are what the
/// footer serializes (48 bytes each on the wire, after a u64 record
/// total); HeadSkip and TimeBase only exist for *rebuilt* indexes of
/// v2/v3 streams, where records straddle chunks and time deltas chain
/// across them -- both are structurally zero in v4 streams.
struct ChunkIndexEntry {
  std::uint64_t Offset = 0;      ///< stream offset of the ChunkHeader
                                 ///< (first chunk = 0; file readers add
                                 ///< the 16-byte .jdev header)
  std::uint32_t Seq = 0;         ///< chunk sequence number
  std::uint32_t PayloadBytes = 0;
  std::uint32_t Crc = 0;         ///< CRC-32C of the payload
  std::uint32_t RecordCount = 0; ///< records *starting* in this chunk
  ByteTime FirstTime = 0;        ///< first timed record starting here
                                 ///< (0 if none)
  ByteTime LastTime = 0;         ///< last timed record starting here
  std::uint64_t FirstRecord = 0; ///< global index of the first record
                                 ///< starting in this chunk
  // Rebuild-only fields (never serialized; zero for v4 streams):
  std::uint32_t HeadSkip = 0; ///< leading payload bytes that belong to
                              ///< a record begun in an earlier chunk
  ByteTime TimeBase = 0;      ///< decoder time-delta seed at the first
                              ///< record starting in this chunk
};

/// A stream's chunk map: either parsed from a v4 footer or rebuilt by
/// one sequential pass. Chunk ranges from it can be decoded by
/// independent workers (profiler/ParallelReplay.h).
struct ChunkIndex {
  std::vector<ChunkIndexEntry> Entries;
  std::uint64_t TotalRecords = 0;
  bool FromFooter = false; ///< parsed from a footer (i.e. unverified
                           ///< producer claims) vs rebuilt from bytes
};

/// Serializes a footer block: ChunkHeader{FooterMagic, entry count,
/// payload length, payload CRC} + payload (u64 total records, then one
/// 48-byte entry per chunk) + u32 block size + u32 FooterTailMagic.
std::vector<std::byte> encodeChunkIndexFooter(
    std::span<const ChunkIndexEntry> Entries, std::uint64_t TotalRecords);

/// Byte size of the structurally plausible footer block at the tail of
/// \p Stream (raw framed bytes, no file header), or 0 if there is none.
/// Checks shape only (tail magic, size bounds, header magic) -- use
/// readChunkIndexFooter for CRC-verified contents.
std::size_t footerBlockSize(std::span<const std::byte> Stream);

/// Parses and CRC-verifies the footer at the tail of \p Stream into
/// \p Out (FromFooter = true). Returns false if absent or invalid --
/// callers fall back to rebuildChunkIndex.
bool readChunkIndexFooter(std::span<const std::byte> Stream, ChunkIndex &Out);

/// Like readChunkIndexFooter, but \p Tail is only a *suffix* of the
/// framed stream (it must end where the stream ends), so the one check
/// that needs the full extent -- entries tiling the data region exactly
/// up to the footer -- is skipped. Everything else (tail magic, header,
/// payload CRC, per-entry offset chain) is verified. This lets a reader
/// peek footer metadata (e.g. the stream's end time, max of the entries'
/// LastTime) from the last few KB of a file without loading it; the
/// claims are still a producer's, so consumers must cross-check them
/// against what an actual decode observes.
bool peekChunkIndexFooterTail(std::span<const std::byte> Tail,
                              ChunkIndex &Out);

/// Rebuilds the chunk index with one strict sequential pass over
/// \p Stream (raw framed bytes): walks every frame and record, filling
/// per-chunk record counts, times, straddle skips and time-delta seeds.
/// Serves v2/v3 streams (which never have a footer), v4 streams whose
/// footer is missing or untrusted, and footer-vs-reality audits.
/// Returns false with \p Err on structural damage (truncation, bad
/// magic/sequence, malformed records) -- CRCs are NOT checked here;
/// consumers verify payload CRCs when they decode.
bool rebuildChunkIndex(std::span<const std::byte> Stream, WireFormat F,
                       ChunkIndex &Out, std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// Chunk compression (v6)
//===----------------------------------------------------------------------===//

/// Rewrites a framed chunk stream into its v6 compressed form, one
/// frame at a time -- the shared engine behind FileEventSink's
/// `Compress` option and SocketEventSink's pre-send compression, so the
/// transform runs off the VM's critical path (on the file sink /
/// background writer / sender, never in EventBuffer::flush).
///
/// Data chunks get their payload LZ-compressed by the compressor's own
/// LzEncoder (stored raw, flag clear, when incompressible -- the
/// encoder's >= rule guarantees a compressed frame is strictly
/// smaller), so a stream's bytes depend on that stream alone, not on
/// what else its thread compressed before; Seq, Magic and Crc are
/// preserved, Crc still covering the uncompressed payload. The
/// terminal chunk index footer passes through uncompressed but has its
/// entries rewritten -- Offset and PayloadBytes replaced with the
/// actual on-wire values this compressor produced, payload CRC
/// recomputed -- so footer offsets index the *compressed* chunks and
/// sharded replay seeks correctly. Entries whose Seq this compressor
/// never saw (e.g. chunks shed before a spool opened) keep their
/// producer values; readers detect the mismatch and rebuild, exactly
/// as they do for loss today.
class ChunkCompressor {
public:
  /// Transforms one framed chunk (16-byte ChunkHeader + payload; footer
  /// frames carry 8 tail bytes). Returns the frame to put on the wire:
  /// the input span itself when it passes through unchanged, or an
  /// internally-owned scratch buffer (valid until the next call)
  /// holding the compressed frame / rewritten footer. Returns an empty
  /// span on a structurally invalid input frame.
  std::span<const std::byte> transform(const std::byte *Data,
                                       std::size_t Size);

  /// Uncompressed payload bytes that entered / on-wire payload bytes
  /// that left (the compression ratio numerator/denominator).
  std::uint64_t rawPayloadBytes() const { return RawBytes; }
  std::uint64_t wirePayloadBytes() const { return WireBytes; }

private:
  struct WireRecord {
    std::uint32_t Seq = 0;
    std::uint64_t Offset = 0;     ///< on-wire stream offset of the frame
    std::uint32_t Field = 0;      ///< on-wire PayloadBytes field
  };
  std::vector<WireRecord> Wire;
  support::LzEncoder Enc;           ///< this stream's match state
  std::vector<std::uint8_t> Lz;     ///< Enc.compress output scratch
  std::vector<std::byte> Scratch;   ///< rewritten frame scratch
  std::uint64_t Offset = 0;         ///< on-wire offset of the next frame
  std::uint64_t RawBytes = 0;
  std::uint64_t WireBytes = 0;
};

/// Retry/backoff schedule shared by every sink that retries transient
/// failures (FileEventSink write errors, SocketEventSink connects and
/// sends). Delay for attempt N is BaseDelayMicros << min(N, MaxDelayShift),
/// optionally spread by deterministic jitter so a fleet of VMs does not
/// reconnect in lockstep.
struct BackoffPolicy {
  /// Retry budget for one operation (a chunk write, a reconnect round).
  std::uint32_t MaxRetries = 8;
  /// First retry delay; doubles per attempt.
  std::uint32_t BaseDelayMicros = 100;
  /// Cap: the delay stops doubling after this many attempts.
  std::uint32_t MaxDelayShift = 7;
  /// Subtract a deterministic pseudo-random slice (up to half the delay,
  /// keyed on \p Salt) so concurrent clients desynchronise.
  bool Jitter = false;
};

/// Delay before retry attempt \p Attempt (0-based) under \p P, with the
/// jitter keyed on \p Salt (e.g. pid ^ attempt).
std::uint32_t backoffDelayMicros(const BackoffPolicy &P, std::uint32_t Attempt,
                                 std::uint32_t Salt = 0);

/// Producer-side accounting of stream integrity. Every byte handed to a
/// failing sink is counted, never silently discarded: after a run,
/// `intact()` says whether the recording is complete and the counters
/// say exactly how much was lost and why (last errno, retries spent).
/// Spooled chunks are NOT drops: they reached a durable local file
/// instead of the remote collector and can be forwarded later
/// (`jdrag send`), so intact() stays true for a fully-spooled stream.
struct StreamHealth {
  std::uint64_t ChunksWritten = 0; ///< chunks accepted by the sink
  std::uint64_t ChunksDropped = 0; ///< chunks the sink refused or shed
  std::uint64_t BytesWritten = 0;  ///< frame bytes accepted (header+payload)
  std::uint64_t BytesDropped = 0;  ///< frame bytes refused or shed
  std::uint64_t SpooledChunks = 0; ///< chunks diverted to a local spool
  std::uint64_t SpooledBytes = 0;  ///< frame bytes diverted to the spool
  std::uint32_t Failovers = 0;     ///< remote-to-spool failover events
  std::uint32_t Retries = 0;       ///< transient-error retries in the sink
  int LastErrno = 0;               ///< errno of the last sink failure

  bool intact() const { return ChunksDropped == 0; }
};

/// Where flushed chunks go. Implementations must tolerate any chunk
/// sizes; each writeChunk call carries exactly one framed chunk (header
/// plus payload), but record boundaries do NOT align with chunk
/// boundaries.
class EventSink {
public:
  virtual ~EventSink();
  /// Receives the next \p Size bytes of the stream. Returns false on
  /// unrecoverable error (the producer stops handing chunks to this
  /// sink and accounts further chunks as dropped).
  virtual bool writeChunk(const std::byte *Data, std::size_t Size) = 0;
  /// Stream complete (all chunks flushed). Default: no-op.
  virtual bool finish() { return true; }
  /// errno of the most recent failure, 0 if none (for StreamHealth).
  virtual int lastErrno() const { return 0; }
  /// Transient-error retries performed so far (for StreamHealth).
  virtual std::uint32_t retries() const { return 0; }
  /// Chunks/bytes this sink *accepted* (writeChunk returned true) but
  /// had to discard later -- an async queue shedding load, a background
  /// write failing. EventBuffer::health() folds these into the drop
  /// accounting so StreamHealth::intact() stays an end-to-end truth.
  virtual std::uint64_t droppedChunks() const { return 0; }
  virtual std::uint64_t droppedBytes() const { return 0; }
  /// Chunks/bytes this sink accepted but diverted to a durable local
  /// spool instead of their primary destination (SocketEventSink when
  /// the daemon is unreachable), and how many failover transitions
  /// happened. Spooled data is recoverable, so it is accounted apart
  /// from drops.
  virtual std::uint64_t spooledChunks() const { return 0; }
  virtual std::uint64_t spooledBytes() const { return 0; }
  virtual std::uint32_t failovers() const { return 0; }
};

/// Keeps the raw stream in memory.
class MemorySink : public EventSink {
public:
  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    // Geometric growth up front: one reserve doubles the buffer instead
    // of letting insert() reallocate mid-copy on the hot path.
    if (Buf.capacity() - Buf.size() < Size)
      Buf.reserve(std::max(Buf.capacity() * 2, Buf.size() + Size));
    Buf.insert(Buf.end(), Data, Data + Size);
    return true;
  }
  std::span<const std::byte> bytes() const { return Buf; }

private:
  std::vector<std::byte> Buf;
};

/// Discards the stream (the "null sink" overhead baseline).
class NullSink : public EventSink {
public:
  bool writeChunk(const std::byte *, std::size_t Size) override {
    Bytes += Size;
    return true;
  }
  std::uint64_t bytesDiscarded() const { return Bytes; }

private:
  std::uint64_t Bytes = 0;
};

/// Duplicates the stream into two sinks (e.g. live consumer + file).
class TeeSink : public EventSink {
public:
  TeeSink(EventSink &A, EventSink &B) : A(A), B(B) {}
  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    bool OkA = A.writeChunk(Data, Size);
    bool OkB = B.writeChunk(Data, Size);
    return OkA && OkB;
  }
  bool finish() override {
    bool OkA = A.finish();
    bool OkB = B.finish();
    return OkA && OkB;
  }
  int lastErrno() const override {
    return A.lastErrno() ? A.lastErrno() : B.lastErrno();
  }
  std::uint32_t retries() const override {
    return A.retries() + B.retries();
  }
  std::uint64_t droppedChunks() const override {
    return A.droppedChunks() + B.droppedChunks();
  }
  std::uint64_t droppedBytes() const override {
    return A.droppedBytes() + B.droppedBytes();
  }
  std::uint64_t spooledChunks() const override {
    return A.spooledChunks() + B.spooledChunks();
  }
  std::uint64_t spooledBytes() const override {
    return A.spooledBytes() + B.spooledBytes();
  }
  std::uint32_t failovers() const override {
    return A.failovers() + B.failovers();
  }

private:
  EventSink &A;
  EventSink &B;
};

/// Wraps another sink and fails on a deterministic schedule -- the test
/// harness for the pipeline's crash/ENOSPC behaviour. Passes bytes
/// through until \p FailAfterBytes total bytes, then (optionally) short-
/// writes the first \p ShortWriteBytes bytes of the failing chunk before
/// refusing it and everything after -- simulating a crash or full disk
/// that truncates the recording mid-frame.
class FaultInjectionSink : public EventSink {
public:
  struct Plan {
    /// Total bytes to pass through before the permanent failure.
    std::uint64_t FailAfterBytes = ~0ull;
    /// Bytes of the failing chunk still written (a short write that
    /// truncates the stream mid-frame). 0 = the failing chunk is lost
    /// whole, leaving a clean chunk-boundary prefix.
    std::size_t ShortWriteBytes = 0;
    /// errno reported for the injected failure.
    int Errno = ENOSPC;
  };

  FaultInjectionSink(EventSink &Inner, Plan P) : Inner(Inner), P(P) {}

  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    if (Tripped)
      return false;
    if (Written + Size <= P.FailAfterBytes) {
      Written += Size;
      return Inner.writeChunk(Data, Size);
    }
    Tripped = true;
    if (P.ShortWriteBytes && P.ShortWriteBytes < Size)
      Inner.writeChunk(Data, P.ShortWriteBytes);
    return false;
  }
  bool finish() override { return Inner.finish() && !Tripped; }
  int lastErrno() const override { return Tripped ? P.Errno : 0; }
  std::uint32_t retries() const override { return Inner.retries(); }
  std::uint64_t droppedChunks() const override {
    return Inner.droppedChunks();
  }
  std::uint64_t droppedBytes() const override { return Inner.droppedBytes(); }

  bool tripped() const { return Tripped; }

private:
  EventSink &Inner;
  Plan P;
  std::uint64_t Written = 0;
  bool Tripped = false;
};

/// Writes a `.jdev` recording: a 16-byte file header (magic, version)
/// followed by the framed chunk stream. Transient write errors (EINTR,
/// EAGAIN, short writes) are retried with bounded backoff; genuine
/// failures (ENOSPC, EIO) mark the sink failed and are surfaced through
/// lastErrno()/retries(). An optional fsync cadence bounds how much a
/// crash of the *recording process* can lose.
class FileEventSink : public EventSink {
public:
  /// The newest `.jdev` version this sink writes (and the default).
  static constexpr std::uint32_t FormatVersion =
      static_cast<std::uint32_t>(DefaultWireFormat);

  struct Options {
    /// Retry schedule for transient errors on one chunk (the same
    /// policy type SocketEventSink uses for reconnects).
    BackoffPolicy Backoff;
    /// fsync the file every N accepted chunks (0 = never). With N=1
    /// every flushed chunk is durable before the VM continues.
    std::uint32_t FsyncEveryChunks = 0;
    /// Header version stamped on the file. Must match the WireFormat of
    /// the EventBuffer producing the chunks.
    WireFormat Format = DefaultWireFormat;
    /// Sampling parameters stamped into a v5/v6 header (ignored for
    /// older formats, whose headers have no slot for them).
    SamplingParams Sampling;
    /// Compress chunk payloads before they hit the disk (v6). Requires
    /// Format == V6; incoming frames that are already compressed (the
    /// daemon recording what a v6 client sent, `jdrag send` forwarding
    /// a spool) are written verbatim, never re-compressed.
    bool Compress = false;
  };

  FileEventSink() = default;
  ~FileEventSink() override;
  FileEventSink(const FileEventSink &) = delete;
  FileEventSink &operator=(const FileEventSink &) = delete;

  /// Opens \p Path and writes the header. Returns false on I/O error,
  /// or if this sink is already open (the first stream stays usable).
  bool open(const std::string &Path, Options Opt);
  bool open(const std::string &Path) { return open(Path, Options()); }
  bool writeChunk(const std::byte *Data, std::size_t Size) override;
  /// Flushes and closes. Returns false if any write failed.
  bool finish() override;

  std::uint64_t bytesWritten() const { return Bytes; }
  int lastErrno() const override { return LastErr; }
  std::uint32_t retries() const override { return Retries; }
  /// Compression accounting (zero unless Options::Compress): payload
  /// bytes before / after the chunk compressor.
  std::uint64_t rawPayloadBytes() const {
    return Comp ? Comp->rawPayloadBytes() : 0;
  }
  std::uint64_t wirePayloadBytes() const {
    return Comp ? Comp->wirePayloadBytes() : 0;
  }

protected:
  /// Write seam: returns bytes actually written, setting errno on a
  /// failure or short write. Tests override this to inject transient
  /// faults and exercise the retry loop.
  virtual std::size_t rawWrite(const std::byte *Data, std::size_t Size);

private:
  bool durableFlush();
  bool writeFrame(const std::byte *Data, std::size_t Size);

  std::FILE *F = nullptr;
  std::unique_ptr<ChunkCompressor> Comp; ///< non-null when compressing
  Options Opt;
  std::uint64_t Bytes = 0;
  std::uint64_t Chunks = 0;
  std::uint32_t Retries = 0;
  int LastErr = 0;
  bool Ok = true;
};

/// Chunked accumulator between the emitting VM and a sink. Events are
/// encoded (v2 fixed-width or v3/v4 compact, per the constructor's
/// WireFormat) into the current chunk; a full chunk is framed
/// (ChunkHeader + payload) and handed to the sink, and writing continues
/// in the next chunk. In v2/v3 records freely straddle chunk payload
/// boundaries; in v4 every chunk is flushed at a record boundary (a
/// record that will not fit starts the next chunk; one bigger than the
/// chunk budget gets an oversized chunk of its own), the time-delta
/// chain restarts per chunk, and finishStream() appends the chunk index
/// footer.
///
/// A sink failure does not stop event production: the buffer keeps
/// accepting events, accounts every refused chunk in health(), and
/// warns once on stderr. The recording then holds a valid prefix that
/// StreamSalvage can recover.
class EventBuffer {
public:
  static constexpr std::size_t DefaultChunkBytes = 64 * 1024;

  /// \p Checksum = false skips the CRC computation and stamps 0 into
  /// the frame headers. Decoders reject such frames -- the switch
  /// exists ONLY to measure the integrity overhead (bench/) and must
  /// never be used for real recordings.
  explicit EventBuffer(EventSink &Sink,
                       std::size_t ChunkBytes = DefaultChunkBytes,
                       bool Checksum = true,
                       WireFormat Format = DefaultWireFormat);

  void writeEvent(const EventRecord &E);
  /// Emits a DefineSite record for \p Id with \p Frames.
  void writeSite(SiteId Id, std::span<const SiteFrame> Frames);
  /// Frames the current partial chunk and hands it to the sink.
  /// Returns false if the chunk was dropped (accounted in health()).
  bool flush();
  /// End-of-stream: flushes and, for v4, appends the chunk index
  /// footer frame (skipped when the stream is already known damaged --
  /// a footer must only describe chunks that were actually written).
  /// For v2/v3 this is exactly flush(). Idempotent.
  bool finishStream();
  /// True while no sink write has failed.
  bool ok() const { return !SinkFailed; }
  /// Integrity accounting, including the sink's errno/retry counters
  /// and any chunks the sink accepted but later shed (droppedChunks()).
  StreamHealth health() const;
  std::uint64_t eventsWritten() const { return Events; }
  WireFormat wireFormat() const { return Format; }
  /// The v4 chunk index accumulated so far (what finishStream writes).
  const std::vector<ChunkIndexEntry> &chunkIndex() const { return Index; }

private:
  void writeBytes(const void *Data, std::size_t Size);
  void writeEventV3(const EventRecord &E);
  void appendRecordV4(const void *Data, std::size_t Size, bool Timed,
                      ByteTime Time);
  void beginChunk();

  EventSink &Sink;
  std::vector<std::byte> Chunk; ///< ChunkHeader placeholder + payload
  std::size_t ChunkBytes;
  std::uint64_t Events = 0;
  std::uint32_t NextSeq = 0;
  ByteTime LastTime = 0; ///< v3/v4 time-delta chain (v4: per chunk)
  StreamHealth Health;
  WireFormat Format;
  bool Checksum = true;
  bool SinkFailed = false;
  bool Warned = false;
  // v4 chunk-index bookkeeping (empty/idle for v2/v3).
  std::vector<ChunkIndexEntry> Index;
  std::vector<std::byte> SiteScratch; ///< whole-record staging for v4
  std::uint64_t StreamOffset = 0;     ///< offset of the next chunk
  std::uint64_t ChunkFirstRecord = 0;
  std::uint32_t ChunkRecords = 0;
  ByteTime ChunkFirstTime = 0;
  ByteTime ChunkLastTime = 0;
  bool ChunkHasTime = false;
  bool FooterWritten = false;
};

/// Receiver of decoded events. DefineSite records arrive through
/// onSite() in stream order, so interning the frames in arrival order
/// reproduces the producer's SiteTable ids.
class EventConsumer {
public:
  virtual ~EventConsumer();
  virtual void onSite(SiteId Id, std::span<const SiteFrame> Frames) = 0;
  virtual void onEvent(const EventRecord &E) = 0;
};

/// Incremental *record-layer* decoder: feed() payload byte slices (whole
/// chunks, single bytes) and complete records are dispatched to the
/// consumer; partial tail bytes are buffered until the next feed. Does
/// not know about chunk frames -- FrameDecoder strips those first.
class StreamDecoder {
public:
  explicit StreamDecoder(EventConsumer &C,
                         WireFormat Format = DefaultWireFormat)
      : C(C), Format(Format) {}

  /// Selects the record encoding. Only valid before the first feed().
  void setWireFormat(WireFormat F) { Format = F; }

  /// Seeds or resets the v3/v4 time-delta chain. v4 framing resets it
  /// to 0 at every chunk boundary (FrameDecoder does this); sharded
  /// replay of v2/v3 streams seeds a worker's decoder with the chunk's
  /// TimeBase from the rebuilt index. Only valid at a record boundary.
  void resetTimeBase(ByteTime T = 0) { LastTime = T; }

  /// Toggles the batch fast path: when enough contiguous bytes remain
  /// to hold any non-site record, varints are decoded without per-byte
  /// bounds checks. On by default; off exists only so the decode bench
  /// can measure the gap (BM_ReplayDecodeNoBatch).
  void setBatchDecode(bool On) { Batch = On; }

  /// Decodes as much as possible. Returns false (sticky) on malformed
  /// input; error() describes the problem.
  bool feed(const std::byte *Data, std::size_t Size);

  /// True when no partial record is pending -- i.e. the stream so far is
  /// well-formed and complete up to a record boundary.
  bool atRecordBoundary() const { return Pending.empty() && !Failed; }

  std::uint64_t eventsDecoded() const { return Events; }
  /// Bytes of the buffered partial record (0 at a record boundary).
  std::size_t pendingBytes() const { return Pending.size(); }
  const std::string &error() const { return Error; }

private:
  bool fail(std::string Msg);
  /// Decodes records from [Cur, Cur+Avail), advancing \p Off past every
  /// complete record. Returns false on malformed input (sticky).
  bool decodeV2(const std::byte *Cur, std::size_t Avail, std::size_t &Off);
  bool decodeV3(const std::byte *Cur, std::size_t Avail, std::size_t &Off);

  EventConsumer &C;
  WireFormat Format;
  std::vector<std::byte> Pending;
  std::vector<SiteFrame> FrameScratch;
  std::uint64_t Events = 0;
  ByteTime LastTime = 0; ///< v3/v4 time-delta chain
  std::string Error;
  bool Failed = false;
  bool Batch = true;
};

/// Incremental *chunk-layer* decoder: feed() arbitrary byte slices of a
/// framed stream; it validates each ChunkHeader (magic, sequence,
/// length, CRC-32C of the payload) and passes verified payloads to the
/// record layer. Any integrity violation fails sticky with a precise
/// error naming the chunk -- use StreamSalvage to recover what precedes
/// the damage.
class FrameDecoder {
public:
  explicit FrameDecoder(EventConsumer &C,
                        WireFormat Format = DefaultWireFormat)
      : Records(C, Format), Format(Format) {}

  /// Selects the record encoding. Only valid before the first feed().
  void setWireFormat(WireFormat F) {
    Records.setWireFormat(F);
    Format = F;
  }

  /// Forwarded to the record layer (bench knob; see StreamDecoder).
  void setBatchDecode(bool On) { Records.setBatchDecode(On); }

  bool feed(const std::byte *Data, std::size_t Size);

  /// True when the stream so far ends exactly at a chunk boundary that
  /// is also a record boundary -- i.e. a complete, undamaged stream.
  /// (A v4 stream whose footer frame has not arrived still qualifies:
  /// the footer is an index, not data, and readers rebuild missing
  /// ones.)
  bool atRecordBoundary() const {
    return !Failed && Pending.empty() && Records.atRecordBoundary();
  }

  std::uint64_t eventsDecoded() const { return Records.eventsDecoded(); }
  std::uint64_t chunksDecoded() const { return Chunks; }
  /// True once the terminal v4 chunk index footer was seen and
  /// CRC-verified.
  bool footerSeen() const { return FooterSeen; }
  const std::string &error() const {
    return Error.empty() ? Records.error() : Error;
  }

private:
  bool fail(std::string Msg);

  StreamDecoder Records;
  std::vector<std::byte> Pending;
  std::vector<std::uint8_t> Inflate; ///< v6 per-chunk decompress scratch
  std::uint64_t Chunks = 0;
  std::uint32_t NextSeq = 0;
  std::string Error;
  WireFormat Format;
  bool Failed = false;
  bool FooterSeen = false;
};

/// A sink that decodes inline and feeds a consumer -- attached (live)
/// profiling: the VM flushes chunks, the consumer sees decoded events.
/// The decoder's wire format must match the emitting EventBuffer's
/// (DragProfiler::attachTo aligns it with the VMOptions).
class DispatchSink : public EventSink {
public:
  explicit DispatchSink(EventConsumer &C,
                        WireFormat Format = DefaultWireFormat)
      : Decoder(C, Format) {}
  void setWireFormat(WireFormat F) { Decoder.setWireFormat(F); }
  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    return Decoder.feed(Data, Size);
  }
  bool finish() override { return Decoder.atRecordBoundary(); }
  const FrameDecoder &decoder() const { return Decoder; }

private:
  FrameDecoder Decoder;
};

/// Replays raw framed stream bytes (no file header) into \p C. Returns
/// false and sets \p Err on malformed or truncated input.
bool replayBytes(std::span<const std::byte> Bytes, EventConsumer &C,
                 std::string *Err = nullptr,
                 WireFormat Format = DefaultWireFormat);

/// Replays a `.jdev` recording into \p C, validating the file header,
/// every chunk frame (sequence + CRC), and record completeness. v2
/// through v6 recordings are accepted (the header version selects the
/// record decoder; v6 chunk payloads are decompressed transparently). A header-only file (zero events) replays
/// successfully. Damaged files fail with a precise error;
/// `jdrag salvage` recovers their prefix. When \p Info is non-null it
/// receives the header's format and sampling params (exact defaults for
/// pre-v5 files).
struct StreamHeaderInfo {
  WireFormat Format = DefaultWireFormat;
  SamplingParams Sampling;
  /// True for a v6 header: chunk frames in this stream may carry
  /// compressed payloads.
  bool Compressed = false;
};
bool replayFile(const std::string &Path, EventConsumer &C,
                std::string *Err = nullptr,
                StreamHeaderInfo *Info = nullptr);

/// Reads and validates just the `.jdev` file header at \p Path into
/// \p Info. Returns false (with \p Err) on an unreadable file, bad
/// magic, or unknown version.
bool readStreamHeader(const std::string &Path, StreamHeaderInfo &Info,
                      std::string *Err = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_EVENTSTREAM_H
