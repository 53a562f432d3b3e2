//===- profiler/EventStream.cpp -------------------------------------------===//

#include "profiler/EventStream.h"

#include "support/Crc32c.h"
#include "support/Lz.h"

#include <chrono>
#include <cstring>
#include <thread>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace jdrag;
using namespace jdrag::profiler;

EventSink::~EventSink() = default;
EventConsumer::~EventConsumer() = default;

std::uint32_t jdrag::profiler::backoffDelayMicros(const BackoffPolicy &P,
                                                  std::uint32_t Attempt,
                                                  std::uint32_t Salt) {
  std::uint32_t Shift = Attempt < P.MaxDelayShift ? Attempt : P.MaxDelayShift;
  std::uint32_t Delay = P.BaseDelayMicros << Shift;
  if (P.Jitter && Delay > 1) {
    // Deterministic (seedless) jitter: a Weyl-style hash of the salt
    // spreads a fleet of clients across [Delay/2, Delay] without
    // consulting a clock or RNG, keeping retry schedules reproducible.
    std::uint32_t H = (Salt + 1) * 2654435761u;
    Delay -= H % (Delay / 2 + 1);
  }
  return Delay;
}

namespace {
constexpr const char *EventKindNames[] = {
    "define-site", "alloc",   "use",      "gc-end",
    "deep-gc-end", "collect", "survivor", "terminate",
};
static_assert(std::size(EventKindNames) == NumEventKinds,
              "name every EventKind");

// .jdev header: 8-byte StreamFileMagic, u32 version, u32 reserved.
constexpr std::uint64_t StreamMagic = StreamFileMagic;

//===----------------------------------------------------------------------===//
// v3 varint primitives
//===----------------------------------------------------------------------===//
//
// LEB128 unsigned varints, at most 10 bytes for a u64. Timestamps are
// zigzag-mapped signed *deltas* against the previous record's time (the
// byte clock is monotonic, so deltas are small), every other field is an
// unsigned varint of its value. SiteIds are biased by +1 so the common
// InvalidSite (~0u) costs one byte instead of five.

constexpr std::size_t MaxVarintBytes = 10;

/// Appends V as a LEB128 varint; returns bytes written (<= 10).
inline std::size_t putUvar(std::uint8_t *P, std::uint64_t V) {
  std::size_t N = 0;
  do {
    std::uint8_t B = V & 0x7F;
    V >>= 7;
    if (V)
      B |= 0x80;
    P[N++] = B;
  } while (V);
  return N;
}

inline std::uint64_t zigzagEncode(std::int64_t V) {
  return (static_cast<std::uint64_t>(V) << 1) ^
         static_cast<std::uint64_t>(V >> 63);
}

inline std::int64_t zigzagDecode(std::uint64_t V) {
  return static_cast<std::int64_t>(V >> 1) ^
         -static_cast<std::int64_t>(V & 1);
}

inline std::size_t putSvar(std::uint8_t *P, std::int64_t V) {
  return putUvar(P, zigzagEncode(V));
}

/// The +1 site bias, in u32 arithmetic so InvalidSite wraps to 0.
inline std::uint64_t biasSite(SiteId S) {
  return static_cast<std::uint32_t>(S + 1);
}

/// Bounded varint reader over one contiguous span. Distinguishes "ran
/// out of bytes" (Short: the record straddles the feed boundary, wait
/// for more) from "malformed" (Bad: overlong varint or u64 overflow,
/// the stream is corrupt).
struct VarReader {
  const std::byte *P;
  std::size_t N;
  std::size_t Off = 0;
  bool Short = false;
  bool Bad = false;

  bool byte(std::uint8_t &B) {
    if (Off == N) {
      Short = true;
      return false;
    }
    B = std::to_integer<std::uint8_t>(P[Off++]);
    return true;
  }

  std::uint64_t uvar() {
    std::uint64_t V = 0;
    for (std::size_t I = 0; I != MaxVarintBytes; ++I) {
      std::uint8_t B;
      if (!byte(B))
        return 0;
      V |= static_cast<std::uint64_t>(B & 0x7F) << (7 * I);
      if (!(B & 0x80)) {
        if (I == MaxVarintBytes - 1 && B > 1)
          Bad = true; // 10th byte may only carry bit 64's remainder
        return V;
      }
    }
    Bad = true; // continuation bit set past the 10-byte limit
    return 0;
  }

  std::int64_t svar() { return zigzagDecode(uvar()); }

  /// uvar that must fit a u32 (site ids, frame fields).
  std::uint32_t uvar32() {
    std::uint64_t V = uvar();
    if (V > 0xFFFFFFFFull)
      Bad = true;
    return static_cast<std::uint32_t>(V);
  }
};

// v3 tag byte: bits 0-2 = EventKind, bits 3-7 = kind-specific inline
// flags. Spare bits MUST be zero -- a set spare bit fails the decode,
// preserving the corruption detection the fixed format got for free.
constexpr std::uint8_t TagKindMask = 0x07;
constexpr std::uint8_t AllocIsArrayBit = 0x08;  // Flags bit0
constexpr std::uint8_t AllocKindShift = 4;      // Sub (ArrayKind, 2 bits)
constexpr std::uint8_t AllocSpareMask = 0xC0;   // bits 6-7
constexpr std::uint8_t UseDuringInitBit = 0x08; // Flags bit0
constexpr std::uint8_t UseKindShift = 4;        // Sub (UseKind, 3 bits)
constexpr std::uint8_t UseSpareMask = 0x80;     // bit 7

/// Upper bound on any encoded non-site v3/v4 record: tag + 5 varints.
/// With at least this much contiguous input left, a record decode can
/// skip every per-byte bounds check (the batch fast path).
constexpr std::size_t MaxV3EventBytes = 1 + 5 * MaxVarintBytes;

/// VarReader without bounds checks, for spans proven long enough to
/// hold the whole record. Still detects overlong varints (Bad) -- only
/// the Short machinery is gone.
struct FastVarReader {
  const std::byte *P;
  std::size_t Off = 0;
  bool Bad = false;

  std::uint64_t uvar() {
    std::uint64_t V = 0;
    for (std::size_t I = 0; I != MaxVarintBytes; ++I) {
      auto B = std::to_integer<std::uint8_t>(P[Off++]);
      V |= static_cast<std::uint64_t>(B & 0x7F) << (7 * I);
      if (!(B & 0x80)) {
        if (I == MaxVarintBytes - 1 && B > 1)
          Bad = true; // 10th byte may only carry bit 64's remainder
        return V;
      }
    }
    Bad = true; // continuation bit set past the 10-byte limit
    return 0;
  }

  std::int64_t svar() { return zigzagDecode(uvar()); }

  std::uint32_t uvar32() {
    std::uint64_t V = uvar();
    if (V > 0xFFFFFFFFull)
      Bad = true;
    return static_cast<std::uint32_t>(V);
  }
};

/// The footer's on-wire per-chunk entry (48 bytes, native-endian like
/// the rest of the stream).
struct WireIndexEntry {
  std::uint64_t Offset;
  std::uint32_t Seq;
  std::uint32_t PayloadBytes;
  std::uint32_t Crc;
  std::uint32_t RecordCount;
  std::uint64_t FirstTime;
  std::uint64_t LastTime;
  std::uint64_t FirstRecord;
};
static_assert(sizeof(WireIndexEntry) == 48, "footer wire format");
static_assert(std::is_trivially_copyable_v<WireIndexEntry>);

/// Result of measuring one record without dispatching it (the index
/// rebuild scan): Len = 0 means the record straddles past the end of
/// the span.
struct WalkResult {
  std::size_t Len = 0;
  bool Malformed = false;
  bool Timed = false;
  ByteTime Time = 0;
};

WalkResult walkRecordV2(const std::byte *P, std::size_t N) {
  WalkResult R;
  if (N < sizeof(EventRecord))
    return R;
  EventRecord E;
  std::memcpy(&E, P, sizeof(E));
  if (E.Kind >= NumEventKinds) {
    R.Malformed = true;
    return R;
  }
  if (E.kind() == EventKind::DefineSite) {
    if (E.Arg0 > MaxWireFrames) {
      R.Malformed = true;
      return R;
    }
    std::size_t Len = sizeof(EventRecord) +
                      static_cast<std::size_t>(E.Arg0) * sizeof(WireFrame);
    if (N < Len)
      return R;
    R.Len = Len;
    return R;
  }
  R.Len = sizeof(EventRecord);
  R.Timed = true;
  R.Time = E.Time;
  return R;
}

WalkResult walkRecordV3(const std::byte *P, std::size_t N,
                        ByteTime LastTime) {
  WalkResult R;
  VarReader V{P, N};
  std::uint8_t Tag;
  if (!V.byte(Tag))
    return R;
  auto Kind = static_cast<EventKind>(Tag & TagKindMask);
  if (Kind == EventKind::DefineSite) {
    if (Tag & ~TagKindMask) {
      R.Malformed = true;
      return R;
    }
    V.uvar32(); // site id
    std::uint64_t FrameCount = V.uvar();
    if (!V.Short && !V.Bad && FrameCount > MaxWireFrames) {
      R.Malformed = true;
      return R;
    }
    for (std::uint64_t I = 0; I != FrameCount && !V.Short && !V.Bad; ++I) {
      V.uvar32();
      V.uvar32();
      V.uvar32();
    }
  } else {
    std::int64_t Delta = V.svar();
    R.Timed = true;
    R.Time = LastTime + static_cast<std::uint64_t>(Delta);
    std::uint8_t SpareMask = ~TagKindMask;
    switch (Kind) {
    case EventKind::Alloc:
      SpareMask = AllocSpareMask;
      V.uvar();
      V.uvar();
      V.uvar();
      V.uvar32();
      break;
    case EventKind::Use:
      SpareMask = UseSpareMask;
      if (!V.Short && ((Tag >> UseKindShift) & 0x7) == 7) {
        R.Malformed = true;
        return R;
      }
      V.uvar();
      V.uvar32();
      break;
    case EventKind::GCEnd:
      V.uvar();
      V.uvar();
      break;
    case EventKind::Collect:
    case EventKind::Survivor:
      V.uvar();
      break;
    case EventKind::DeepGCEnd:
    case EventKind::Terminate:
      break;
    case EventKind::DefineSite:
      break; // unreachable: handled above
    }
    if (Tag & SpareMask) {
      R.Malformed = true;
      return R;
    }
  }
  if (V.Bad) {
    R.Malformed = true;
    return R;
  }
  if (V.Short) {
    R.Timed = false;
    return R;
  }
  R.Len = V.Off;
  return R;
}

} // namespace

const char *jdrag::profiler::eventKindName(EventKind K) {
  auto I = static_cast<std::size_t>(K);
  return I < NumEventKinds ? EventKindNames[I] : "?";
}

//===----------------------------------------------------------------------===//
// Chunk compression (v6)
//===----------------------------------------------------------------------===//

bool jdrag::profiler::chunkPayloadBytes(const ChunkHeader &H,
                                        const std::byte *Payload,
                                        std::vector<std::uint8_t> &Scratch,
                                        std::span<const std::byte> &Out) {
  std::uint32_t Wire = chunkWireBytes(H.PayloadBytes);
  if (!chunkCompressed(H.PayloadBytes)) {
    Out = {Payload, Wire};
    return true;
  }
  if (!support::lzDecompress(Payload, Wire, Scratch, MaxChunkPayload))
    return false;
  Out = {reinterpret_cast<const std::byte *>(Scratch.data()),
         Scratch.size()};
  return true;
}

std::span<const std::byte>
ChunkCompressor::transform(const std::byte *Data, std::size_t Size) {
  if (Size < sizeof(ChunkHeader))
    return {};
  ChunkHeader H;
  std::memcpy(&H, Data, sizeof(H));

  if (H.Magic == FooterMagic) {
    // The footer frame itself stays uncompressed (it is small, and
    // salvage resynchronizes on its magic), but its entries must index
    // the stream this compressor actually produced: rewrite Offset and
    // PayloadBytes from the per-chunk wire records, recompute the
    // payload CRC, and leave everything else (Seq = entry count, times,
    // per-chunk payload CRCs over the *uncompressed* bytes) alone.
    if (H.PayloadBytes < 8 || H.PayloadBytes > MaxChunkPayload ||
        Size != sizeof(ChunkHeader) + H.PayloadBytes + 8 ||
        (H.PayloadBytes - 8) % sizeof(WireIndexEntry) != 0)
      return {};
    Scratch.assign(Data, Data + Size);
    std::byte *Body = Scratch.data() + sizeof(ChunkHeader);
    std::size_t Count = (H.PayloadBytes - 8) / sizeof(WireIndexEntry);
    std::size_t Wi = 0;
    for (std::size_t I = 0; I != Count; ++I) {
      WireIndexEntry W;
      std::memcpy(&W, Body + 8 + I * sizeof(W), sizeof(W));
      // Both lists are in ascending Seq order; entries for chunks this
      // compressor never saw (shed upstream, pre-spool) keep their
      // producer values -- readers catch the mismatch and rebuild.
      while (Wi < Wire.size() && Wire[Wi].Seq < W.Seq)
        ++Wi;
      if (Wi < Wire.size() && Wire[Wi].Seq == W.Seq) {
        W.Offset = Wire[Wi].Offset;
        W.PayloadBytes = Wire[Wi].Field;
        std::memcpy(Body + 8 + I * sizeof(W), &W, sizeof(W));
      }
    }
    H.Crc = support::crc32c(Body, H.PayloadBytes);
    std::memcpy(Scratch.data(), &H, sizeof(H));
    Offset += Size;
    return Scratch;
  }

  if (H.Magic != ChunkMagic)
    return {};
  std::uint32_t WireLen = chunkWireBytes(H.PayloadBytes);
  if (WireLen == 0 || WireLen > MaxChunkPayload ||
      Size != sizeof(ChunkHeader) + WireLen)
    return {};
  const std::byte *Payload = Data + sizeof(ChunkHeader);
  std::uint32_t NewField = H.PayloadBytes;
  std::span<const std::byte> Frame(Data, Size);
  if (!chunkCompressed(H.PayloadBytes)) {
    RawBytes += WireLen;
    Lz = Enc.compress(Payload, WireLen);
    if (!Lz.empty()) {
      // The encoder only returns a block strictly smaller than the
      // input, so the flag bit never collides with the length bits.
      NewField = static_cast<std::uint32_t>(Lz.size()) | ChunkCompressedBit;
      Scratch.resize(sizeof(ChunkHeader) + Lz.size());
      ChunkHeader NH = H;
      NH.PayloadBytes = NewField;
      std::memcpy(Scratch.data(), &NH, sizeof(NH));
      std::memcpy(Scratch.data() + sizeof(NH), Lz.data(), Lz.size());
      Frame = Scratch;
    }
  } else {
    // Already-compressed input (a pre-compressed frame passing through,
    // e.g. a spool being re-sunk): forward verbatim.
    RawBytes += WireLen;
  }
  Wire.push_back({H.Seq, Offset, NewField});
  WireBytes += chunkWireBytes(NewField);
  Offset += Frame.size();
  return Frame;
}

//===----------------------------------------------------------------------===//
// FileEventSink
//===----------------------------------------------------------------------===//

FileEventSink::~FileEventSink() {
  if (F)
    std::fclose(F);
}

bool FileEventSink::open(const std::string &Path, Options O) {
  if (F)
    return false; // double-open: reject; the first stream stays usable
  Opt = O;
  F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    LastErr = errno;
    return Ok = false;
  }
  std::uint32_t Version = static_cast<std::uint32_t>(Opt.Format);
  std::uint32_t Reserved = 0;
  Ok = std::fwrite(&StreamMagic, sizeof(StreamMagic), 1, F) == 1 &&
       std::fwrite(&Version, sizeof(Version), 1, F) == 1 &&
       std::fwrite(&Reserved, sizeof(Reserved), 1, F) == 1;
  // v5+ header extension: the sampling params that scale this stream.
  if (Ok && Opt.Format >= WireFormat::V5)
    Ok = std::fwrite(&Opt.Sampling.SampleBytes, 8, 1, F) == 1 &&
         std::fwrite(&Opt.Sampling.SampleSeed, 8, 1, F) == 1;
  if (!Ok)
    LastErr = errno;
  if (Ok && Opt.Compress && Opt.Format >= WireFormat::V6)
    Comp = std::make_unique<ChunkCompressor>();
  return Ok;
}

std::size_t FileEventSink::rawWrite(const std::byte *Data, std::size_t Size) {
  return std::fwrite(Data, 1, Size, F);
}

bool FileEventSink::durableFlush() {
  if (std::fflush(F) != 0) {
    LastErr = errno;
    return false;
  }
#ifndef _WIN32
  if (fsync(fileno(F)) != 0) {
    LastErr = errno;
    return false;
  }
#endif
  return true;
}

bool FileEventSink::writeChunk(const std::byte *Data, std::size_t Size) {
  if (!F || !Ok)
    return false;
  if (Comp) {
    // Compress here, not in EventBuffer::flush: under AsyncEventSink
    // this runs on the background writer thread, keeping the transform
    // off the VM's critical path.
    std::span<const std::byte> T = Comp->transform(Data, Size);
    if (T.empty()) {
      LastErr = EINVAL; // structurally invalid frame; never expected
      return Ok = false;
    }
    return writeFrame(T.data(), T.size());
  }
  return writeFrame(Data, Size);
}

bool FileEventSink::writeFrame(const std::byte *Data, std::size_t Size) {
  std::size_t Off = 0;
  std::uint32_t Attempts = 0;
  while (Off < Size) {
    errno = 0;
    std::size_t N = rawWrite(Data + Off, Size - Off);
    Off += N;
    if (Off == Size)
      break;
    int E = errno;
    LastErr = E;
    // A short write that made progress is always worth continuing;
    // EINTR/EAGAIN without progress is transient up to the retry
    // budget. Anything else (ENOSPC, EIO) is fatal for this sink.
    bool Transient = N > 0 || E == EINTR || E == EAGAIN || E == EWOULDBLOCK;
    if (N > 0) {
      Attempts = 0;
      continue;
    }
    if (!Transient || Attempts >= Opt.Backoff.MaxRetries)
      return Ok = false;
    ++Attempts;
    ++Retries;
    std::clearerr(F);
    // Exponential backoff, capped well under human-visible latency.
    std::this_thread::sleep_for(std::chrono::microseconds(
        backoffDelayMicros(Opt.Backoff, Attempts, Retries)));
  }
  Bytes += Size;
  ++Chunks;
  if (Opt.FsyncEveryChunks && Chunks % Opt.FsyncEveryChunks == 0 &&
      !durableFlush())
    return Ok = false;
  return true;
}

bool FileEventSink::finish() {
  if (!F)
    return Ok;
  if (Ok && !durableFlush())
    Ok = false;
  std::fclose(F);
  F = nullptr;
  return Ok;
}

//===----------------------------------------------------------------------===//
// EventBuffer
//===----------------------------------------------------------------------===//

EventBuffer::EventBuffer(EventSink &Sink, std::size_t ChunkBytes,
                         bool Checksum, WireFormat Format)
    : Sink(Sink), ChunkBytes(ChunkBytes ? ChunkBytes : DefaultChunkBytes),
      Format(Format), Checksum(Checksum) {
  Chunk.reserve(sizeof(ChunkHeader) + this->ChunkBytes);
  beginChunk();
}

void EventBuffer::beginChunk() {
  Chunk.clear();
  Chunk.resize(sizeof(ChunkHeader)); // placeholder, filled at flush
  if (chunkSelfContained(Format)) {
    // Every v4/v5 chunk is self-contained: the delta chain restarts, so
    // the first timed record carries its absolute time.
    LastTime = 0;
    ChunkRecords = 0;
    ChunkHasTime = false;
    ChunkFirstTime = ChunkLastTime = 0;
    ChunkFirstRecord = Events;
  }
}

void EventBuffer::writeBytes(const void *Data, std::size_t Size) {
  const auto *Src = static_cast<const std::byte *>(Data);
  std::size_t Cap = sizeof(ChunkHeader) + ChunkBytes;
  while (Size) {
    std::size_t Room = Cap - Chunk.size();
    std::size_t N = Size < Room ? Size : Room;
    Chunk.insert(Chunk.end(), Src, Src + N);
    Src += N;
    Size -= N;
    if (Chunk.size() == Cap)
      flush(); // dropped chunks are accounted; keep emitting regardless
  }
}

void EventBuffer::writeEventV3(const EventRecord &E) {
  // Largest non-site record: tag + 5 varints -- comfortably under 64.
  std::uint8_t Buf[1 + 5 * MaxVarintBytes];
  std::size_t N = 0;
  std::uint8_t Tag = E.Kind;
  auto Kind = E.kind();

  // v4/v5 keep chunks record-aligned, and the delta below depends on
  // which chunk the record lands in (the chain restarts per chunk) --
  // so the chunk decision comes first: if the worst-case record might
  // not fit, flush now and encode against the fresh chunk's zero base.
  // Costs at most 50 slack bytes per chunk.
  if (chunkSelfContained(Format) && Chunk.size() > sizeof(ChunkHeader) &&
      sizeof(ChunkHeader) + ChunkBytes - Chunk.size() < sizeof(Buf))
    flush();

  // Every timed record carries a zigzag delta against the previous one.
  std::int64_t Delta = static_cast<std::int64_t>(E.Time - LastTime);
  LastTime = E.Time;

  switch (Kind) {
  case EventKind::Alloc:
    Tag |= (E.Flags & 1) ? AllocIsArrayBit : 0;
    Tag |= static_cast<std::uint8_t>(E.Sub << AllocKindShift);
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    N += putUvar(Buf + N, E.Id);
    N += putUvar(Buf + N, E.Arg0);
    N += putUvar(Buf + N, E.Arg1);
    N += putUvar(Buf + N, biasSite(E.Site));
    break;
  case EventKind::Use:
    Tag |= (E.Flags & 1) ? UseDuringInitBit : 0;
    Tag |= static_cast<std::uint8_t>(E.Sub << UseKindShift);
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    N += putUvar(Buf + N, E.Id);
    N += putUvar(Buf + N, biasSite(E.Site));
    break;
  case EventKind::GCEnd:
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    N += putUvar(Buf + N, E.Arg0);
    N += putUvar(Buf + N, E.Arg1);
    break;
  case EventKind::Collect:
  case EventKind::Survivor:
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    N += putUvar(Buf + N, E.Id);
    break;
  case EventKind::DeepGCEnd:
  case EventKind::Terminate:
    Buf[N++] = Tag;
    N += putSvar(Buf + N, Delta);
    break;
  case EventKind::DefineSite:
    // DefineSite goes through writeSite(); never reaches here.
    return;
  }
  if (chunkSelfContained(Format))
    appendRecordV4(Buf, N, /*Timed=*/true, E.Time);
  else
    writeBytes(Buf, N);
}

void EventBuffer::appendRecordV4(const void *Data, std::size_t Size,
                                 bool Timed, ByteTime Time) {
  // Timed records already secured their room in writeEventV3 (the
  // chunk decision had to precede the delta encoding); untimed site
  // records are placement-independent, so they flush-on-demand here.
  std::size_t Cap = sizeof(ChunkHeader) + ChunkBytes;
  if (!Timed && Chunk.size() > sizeof(ChunkHeader) &&
      Chunk.size() + Size > Cap)
    flush();
  if (ChunkRecords == 0)
    ChunkFirstRecord = Events; // Events is this record's global index
  ++ChunkRecords;
  if (Timed) {
    if (!ChunkHasTime) {
      ChunkHasTime = true;
      ChunkFirstTime = Time;
    }
    ChunkLastTime = Time;
  }
  const auto *Src = static_cast<const std::byte *>(Data);
  Chunk.insert(Chunk.end(), Src, Src + Size);
  // A record bigger than the budget gets an oversized chunk of its
  // own; either way the chunk ends at a record boundary.
  if (Chunk.size() >= Cap)
    flush();
}

void EventBuffer::writeEvent(const EventRecord &E) {
  if (Format == WireFormat::V2)
    writeBytes(&E, sizeof(E));
  else
    writeEventV3(E);
  ++Events;
}

void EventBuffer::writeSite(SiteId Id, std::span<const SiteFrame> Frames) {
  if (Format == WireFormat::V2) {
    EventRecord E;
    E.Kind = static_cast<std::uint8_t>(EventKind::DefineSite);
    E.Site = Id;
    E.Arg0 = Frames.size();
    writeBytes(&E, sizeof(E));
    for (const SiteFrame &F : Frames) {
      WireFrame W{F.Method.Index, F.Pc, F.Line};
      writeBytes(&W, sizeof(W));
    }
  } else if (Format == WireFormat::V3) {
    // DefineSite is untimed (Time is always 0) and does NOT participate
    // in the time-delta chain: sites intern lazily, so their position
    // in the stream is not meaningful to the clock.
    std::uint8_t Buf[1 + 2 * MaxVarintBytes];
    std::size_t N = 0;
    Buf[N++] = static_cast<std::uint8_t>(EventKind::DefineSite);
    N += putUvar(Buf + N, Id);
    N += putUvar(Buf + N, Frames.size());
    writeBytes(Buf, N);
    for (const SiteFrame &F : Frames) {
      std::uint8_t FB[3 * MaxVarintBytes];
      std::size_t FN = 0;
      FN += putUvar(FB + FN, F.Method.Index);
      FN += putUvar(FB + FN, F.Pc);
      FN += putUvar(FB + FN, F.Line);
      writeBytes(FB, FN);
    }
  } else {
    // v4: same bytes as v3, but staged whole so the record lands in
    // exactly one chunk.
    SiteScratch.clear();
    auto Put = [&](const std::uint8_t *P, std::size_t N) {
      SiteScratch.insert(SiteScratch.end(),
                         reinterpret_cast<const std::byte *>(P),
                         reinterpret_cast<const std::byte *>(P) + N);
    };
    std::uint8_t Buf[1 + 2 * MaxVarintBytes];
    std::size_t N = 0;
    Buf[N++] = static_cast<std::uint8_t>(EventKind::DefineSite);
    N += putUvar(Buf + N, Id);
    N += putUvar(Buf + N, Frames.size());
    Put(Buf, N);
    for (const SiteFrame &F : Frames) {
      std::uint8_t FB[3 * MaxVarintBytes];
      std::size_t FN = 0;
      FN += putUvar(FB + FN, F.Method.Index);
      FN += putUvar(FB + FN, F.Pc);
      FN += putUvar(FB + FN, F.Line);
      Put(FB, FN);
    }
    appendRecordV4(SiteScratch.data(), SiteScratch.size(), /*Timed=*/false,
                   0);
  }
  ++Events;
}

bool EventBuffer::flush() {
  std::size_t Payload = Chunk.size() - sizeof(ChunkHeader);
  if (!Payload)
    return !SinkFailed;

  ChunkHeader H;
  H.Magic = ChunkMagic;
  H.Seq = NextSeq++;
  H.PayloadBytes = static_cast<std::uint32_t>(Payload);
  H.Crc = Checksum
              ? support::crc32c(Chunk.data() + sizeof(ChunkHeader), Payload)
              : 0;
  std::memcpy(Chunk.data(), &H, sizeof(H));

  bool Accepted =
      !SinkFailed && Sink.writeChunk(Chunk.data(), Chunk.size());
  if (Accepted) {
    ++Health.ChunksWritten;
    Health.BytesWritten += Chunk.size();
    if (chunkSelfContained(Format)) {
      ChunkIndexEntry E;
      E.Offset = StreamOffset;
      E.Seq = H.Seq;
      E.PayloadBytes = H.PayloadBytes;
      E.Crc = H.Crc;
      E.RecordCount = ChunkRecords;
      E.FirstTime = ChunkHasTime ? ChunkFirstTime : 0;
      E.LastTime = ChunkHasTime ? ChunkLastTime : 0;
      E.FirstRecord = ChunkFirstRecord;
      Index.push_back(E);
      StreamOffset += Chunk.size();
    }
  } else {
    ++Health.ChunksDropped;
    Health.BytesDropped += Chunk.size();
    if (!SinkFailed) {
      SinkFailed = true;
      if (!Warned) {
        Warned = true;
        int E = Sink.lastErrno();
        std::fprintf(stderr,
                     "jdrag: warning: event-stream sink write failed%s%s; "
                     "continuing with drop accounting, the recording will "
                     "be incomplete\n",
                     E ? ": " : "", E ? std::strerror(E) : "");
      }
    }
  }
  beginChunk();
  return Accepted;
}

bool EventBuffer::finishStream() {
  bool FlushOk = flush();
  if (!chunkSelfContained(Format) || FooterWritten)
    return FlushOk;
  FooterWritten = true;
  // A footer asserts "these chunks are all in the stream, here" -- on a
  // stream that already lost chunks that would be a lie, so a damaged
  // stream simply ends footerless (readers rebuild the index; salvage
  // re-emits one).
  if (SinkFailed || !health().intact())
    return FlushOk;
  std::vector<std::byte> Footer = encodeChunkIndexFooter(Index, Events);
  bool Accepted = Sink.writeChunk(Footer.data(), Footer.size());
  if (Accepted) {
    ++Health.ChunksWritten;
    Health.BytesWritten += Footer.size();
  } else {
    ++Health.ChunksDropped;
    Health.BytesDropped += Footer.size();
    SinkFailed = true;
  }
  return FlushOk && Accepted;
}

StreamHealth EventBuffer::health() const {
  StreamHealth H = Health;
  H.Retries = Sink.retries();
  H.LastErrno = Sink.lastErrno();
  H.SpooledChunks = Sink.spooledChunks();
  H.SpooledBytes = Sink.spooledBytes();
  H.Failovers = Sink.failovers();
  // Chunks a sink accepted but later shed (async queue under drop
  // policy, background write failure) count as dropped end-to-end.
  H.ChunksDropped += Sink.droppedChunks();
  H.BytesDropped += Sink.droppedBytes();
  std::uint64_t DC = Sink.droppedChunks();
  std::uint64_t DB = Sink.droppedBytes();
  H.ChunksWritten -= DC < H.ChunksWritten ? DC : H.ChunksWritten;
  H.BytesWritten -= DB < H.BytesWritten ? DB : H.BytesWritten;
  return H;
}

//===----------------------------------------------------------------------===//
// StreamDecoder (record layer)
//===----------------------------------------------------------------------===//

bool StreamDecoder::fail(std::string Msg) {
  Failed = true;
  if (Error.empty())
    Error = std::move(Msg);
  return false;
}

bool StreamDecoder::decodeV2(const std::byte *Cur, std::size_t Avail,
                             std::size_t &Off) {
  while (true) {
    if (Avail - Off < sizeof(EventRecord))
      break;
    EventRecord E;
    std::memcpy(&E, Cur + Off, sizeof(E));
    if (E.Kind >= NumEventKinds)
      return fail("malformed event stream: unknown event kind " +
                  std::to_string(E.Kind));
    if (E.kind() == EventKind::DefineSite) {
      if (E.Arg0 > MaxWireFrames)
        return fail("malformed event stream: site with " +
                    std::to_string(E.Arg0) + " frames");
      std::size_t Payload =
          static_cast<std::size_t>(E.Arg0) * sizeof(WireFrame);
      if (Avail - Off < sizeof(EventRecord) + Payload)
        break;
      FrameScratch.clear();
      const std::byte *P = Cur + Off + sizeof(EventRecord);
      for (std::uint64_t I = 0; I != E.Arg0; ++I) {
        WireFrame W;
        std::memcpy(&W, P + I * sizeof(WireFrame), sizeof(W));
        FrameScratch.push_back({ir::MethodId(W.Method), W.Pc, W.Line});
      }
      C.onSite(E.Site, FrameScratch);
      Off += sizeof(EventRecord) + Payload;
    } else {
      C.onEvent(E);
      Off += sizeof(EventRecord);
    }
    ++Events;
  }
  return true;
}

bool StreamDecoder::decodeV3(const std::byte *Cur, std::size_t Avail,
                             std::size_t &Off) {
  while (Off < Avail) {
    // Batch fast path: with room for any complete non-site record, the
    // varints decode without per-byte bounds checks -- the Short
    // machinery below only matters near the end of the input.
    if (Batch && Avail - Off >= MaxV3EventBytes) {
      std::uint8_t Tag = std::to_integer<std::uint8_t>(Cur[Off]);
      std::uint8_t KindBits = Tag & TagKindMask;
      auto Kind = static_cast<EventKind>(KindBits);
      if (Kind != EventKind::DefineSite) {
        FastVarReader R{Cur + Off + 1};
        EventRecord E;
        E.Kind = KindBits;
        E.Time = LastTime + static_cast<std::uint64_t>(R.svar());
        switch (Kind) {
        case EventKind::Alloc:
          if (Tag & AllocSpareMask)
            return fail("malformed event stream: spare tag bits set on "
                        "alloc record");
          E.Flags = (Tag & AllocIsArrayBit) ? 1 : 0;
          E.Sub = static_cast<std::uint8_t>((Tag >> AllocKindShift) & 0x3);
          E.Id = R.uvar();
          E.Arg0 = R.uvar();
          E.Arg1 = R.uvar();
          E.Site = static_cast<SiteId>(R.uvar32() - 1);
          break;
        case EventKind::Use:
          if (Tag & UseSpareMask)
            return fail("malformed event stream: spare tag bits set on "
                        "use record");
          E.Flags = (Tag & UseDuringInitBit) ? 1 : 0;
          E.Sub = static_cast<std::uint8_t>((Tag >> UseKindShift) & 0x7);
          if (E.Sub == 7)
            return fail("malformed event stream: unknown use kind 7");
          E.Id = R.uvar();
          E.Site = static_cast<SiteId>(R.uvar32() - 1);
          break;
        case EventKind::GCEnd:
          if (Tag & ~TagKindMask)
            return fail("malformed event stream: spare tag bits set on "
                        "gc-end record");
          E.Arg0 = R.uvar();
          E.Arg1 = R.uvar();
          break;
        case EventKind::Collect:
        case EventKind::Survivor:
          if (Tag & ~TagKindMask)
            return fail("malformed event stream: spare tag bits set on " +
                        std::string(eventKindName(Kind)) + " record");
          E.Id = R.uvar();
          break;
        case EventKind::DeepGCEnd:
        case EventKind::Terminate:
          if (Tag & ~TagKindMask)
            return fail("malformed event stream: spare tag bits set on " +
                        std::string(eventKindName(Kind)) + " record");
          break;
        case EventKind::DefineSite:
          break; // unreachable: filtered above
        }
        if (R.Bad)
          return fail("malformed event stream: bad varint in " +
                      std::string(eventKindName(Kind)) + " record");
        LastTime = E.Time;
        C.onEvent(E);
        ++Events;
        Off += 1 + R.Off;
        continue;
      }
    }

    VarReader R{Cur + Off, Avail - Off};
    std::uint8_t Tag;
    R.byte(Tag);
    std::uint8_t KindBits = Tag & TagKindMask;
    auto Kind = static_cast<EventKind>(KindBits);

    EventRecord E;
    E.Kind = KindBits;
    ByteTime NewLast = LastTime;

    // Decode the whole record before committing anything: if the reader
    // runs short the record straddles the feed boundary and we retry it
    // once more bytes arrive, so no state (LastTime, Events, consumer
    // dispatch) may change until the record is complete.
    bool IsSite = Kind == EventKind::DefineSite;
    SiteId SiteDef = InvalidSite;
    std::uint64_t FrameCount = 0;

    if (IsSite) {
      if (Tag & ~TagKindMask)
        return fail("malformed event stream: spare tag bits set on "
                    "define-site record");
      SiteDef = R.uvar32();
      FrameCount = R.uvar();
      if (!R.Short && !R.Bad && FrameCount > MaxWireFrames)
        return fail("malformed event stream: site with " +
                    std::to_string(FrameCount) + " frames");
      FrameScratch.clear();
      for (std::uint64_t I = 0; I != FrameCount && !R.Short && !R.Bad; ++I) {
        std::uint32_t Method = R.uvar32();
        std::uint32_t Pc = R.uvar32();
        std::uint32_t Line = R.uvar32();
        FrameScratch.push_back({ir::MethodId(Method), Pc, Line});
      }
    } else {
      std::int64_t Delta = R.svar();
      NewLast = LastTime + static_cast<std::uint64_t>(Delta);
      E.Time = NewLast;
      switch (Kind) {
      case EventKind::Alloc:
        if (Tag & AllocSpareMask)
          return fail("malformed event stream: spare tag bits set on "
                      "alloc record");
        E.Flags = (Tag & AllocIsArrayBit) ? 1 : 0;
        E.Sub = static_cast<std::uint8_t>((Tag >> AllocKindShift) & 0x3);
        E.Id = R.uvar();
        E.Arg0 = R.uvar();
        E.Arg1 = R.uvar();
        E.Site = static_cast<SiteId>(R.uvar32() - 1);
        break;
      case EventKind::Use:
        if (Tag & UseSpareMask)
          return fail("malformed event stream: spare tag bits set on "
                      "use record");
        E.Flags = (Tag & UseDuringInitBit) ? 1 : 0;
        E.Sub = static_cast<std::uint8_t>((Tag >> UseKindShift) & 0x7);
        if (E.Sub == 7 && !R.Short)
          return fail("malformed event stream: unknown use kind 7");
        E.Id = R.uvar();
        E.Site = static_cast<SiteId>(R.uvar32() - 1);
        break;
      case EventKind::GCEnd:
        if (Tag & ~TagKindMask)
          return fail("malformed event stream: spare tag bits set on "
                      "gc-end record");
        E.Arg0 = R.uvar();
        E.Arg1 = R.uvar();
        break;
      case EventKind::Collect:
      case EventKind::Survivor:
        if (Tag & ~TagKindMask)
          return fail("malformed event stream: spare tag bits set on " +
                      std::string(eventKindName(Kind)) + " record");
        E.Id = R.uvar();
        break;
      case EventKind::DeepGCEnd:
      case EventKind::Terminate:
        if (Tag & ~TagKindMask)
          return fail("malformed event stream: spare tag bits set on " +
                      std::string(eventKindName(Kind)) + " record");
        break;
      case EventKind::DefineSite:
        break; // unreachable: handled above
      }
    }

    // Malformation wins over shortness: Bad never depends on bytes
    // that have not arrived yet (a reader that ran short after hitting
    // an overlong varint is still malformed, not merely incomplete).
    if (R.Bad)
      return fail("malformed event stream: bad varint in " +
                  std::string(eventKindName(Kind)) + " record");
    if (R.Short)
      break; // partial record at feed boundary: wait for more bytes

    // Commit.
    if (IsSite) {
      C.onSite(SiteDef, FrameScratch);
    } else {
      LastTime = NewLast;
      C.onEvent(E);
    }
    ++Events;
    Off += R.Off;
  }
  return true;
}

bool StreamDecoder::feed(const std::byte *Data, std::size_t Size) {
  if (Failed)
    return false;

  // Work over the concatenation of leftover bytes and the new slice
  // without copying the new slice unless a record straddles its end.
  const std::byte *Cur = Data;
  std::size_t Avail = Size;
  if (!Pending.empty()) {
    Pending.insert(Pending.end(), Data, Data + Size);
    Cur = Pending.data();
    Avail = Pending.size();
  }

  std::size_t Off = 0;
  if (!(Format == WireFormat::V2 ? decodeV2(Cur, Avail, Off)
                                 : decodeV3(Cur, Avail, Off)))
    return false;

  // Stash the incomplete tail for the next feed.
  if (!Pending.empty()) {
    Pending.erase(Pending.begin(),
                  Pending.begin() + static_cast<std::ptrdiff_t>(Off));
  } else if (Off < Avail) {
    Pending.assign(Cur + Off, Cur + Avail);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// FrameDecoder (chunk layer)
//===----------------------------------------------------------------------===//

bool FrameDecoder::fail(std::string Msg) {
  Failed = true;
  if (Error.empty())
    Error = std::move(Msg);
  return false;
}

bool FrameDecoder::feed(const std::byte *Data, std::size_t Size) {
  if (Failed)
    return false;

  // Same zero-copy-unless-straddling strategy as the record layer; on
  // the live path each feed is exactly one whole frame, so Pending
  // normally stays empty.
  const std::byte *Cur = Data;
  std::size_t Avail = Size;
  if (!Pending.empty()) {
    Pending.insert(Pending.end(), Data, Data + Size);
    Cur = Pending.data();
    Avail = Pending.size();
  }

  std::size_t Off = 0;
  while (Avail - Off >= sizeof(ChunkHeader)) {
    ChunkHeader H;
    std::memcpy(&H, Cur + Off, sizeof(H));
    if (chunkSelfContained(Format) && H.Magic == FooterMagic) {
      // Terminal chunk index footer: CRC-verify and swallow it -- its
      // contents are a seek index, not stream data.
      if (H.PayloadBytes > MaxChunkPayload)
        return fail("corrupt event stream: implausible chunk index "
                    "footer length");
      if (H.Seq != NextSeq)
        return fail("corrupt event stream: chunk index footer sequence "
                    "mismatch");
      std::size_t Block = sizeof(ChunkHeader) + H.PayloadBytes + 8;
      if (Avail - Off < Block)
        break; // partial footer: wait for more bytes
      const std::byte *Payload = Cur + Off + sizeof(ChunkHeader);
      std::uint32_t Crc = support::crc32c(Payload, H.PayloadBytes);
      std::uint32_t Bytes = 0, Tail = 0;
      std::memcpy(&Bytes, Payload + H.PayloadBytes, 4);
      std::memcpy(&Tail, Payload + H.PayloadBytes + 4, 4);
      if (Crc != H.Crc || Tail != FooterTailMagic || Bytes != Block)
        return fail("corrupt event stream: damaged chunk index footer");
      FooterSeen = true;
      Off += Block;
      continue;
    }
    if (FooterSeen)
      return fail("corrupt event stream: data after the chunk index "
                  "footer");
    if (H.Magic != ChunkMagic)
      return fail("corrupt event stream: bad chunk magic at chunk " +
                  std::to_string(NextSeq));
    // v6: bit 31 of the length field flags a compressed payload and the
    // low bits are the on-wire byte count. In pre-v6 streams the raw
    // field is the length, so a flagged frame fails the bound below --
    // the intended clean refusal of old readers.
    bool Compressed =
        Format >= WireFormat::V6 && chunkCompressed(H.PayloadBytes);
    std::uint32_t WireLen =
        Compressed ? chunkWireBytes(H.PayloadBytes) : H.PayloadBytes;
    if (WireLen == 0 || WireLen > MaxChunkPayload)
      return fail("corrupt event stream: chunk " + std::to_string(NextSeq) +
                  " has implausible payload length " +
                  std::to_string(H.PayloadBytes));
    if (H.Seq != NextSeq)
      return fail("corrupt event stream: chunk sequence jumped from " +
                  std::to_string(NextSeq) + " to " + std::to_string(H.Seq) +
                  " (dropped or reordered chunks)");
    if (Avail - Off < sizeof(ChunkHeader) + WireLen)
      break; // partial payload: wait for more bytes
    const std::byte *Payload = Cur + Off + sizeof(ChunkHeader);
    // Decompress once, at chunk granularity, before the CRC: the CRC
    // covers the *uncompressed* payload, so integrity semantics (and
    // every salvage verdict built on them) are unchanged by v6.
    std::span<const std::byte> Body(Payload, WireLen);
    if (Compressed && !chunkPayloadBytes(H, Payload, Inflate, Body))
      return fail("corrupt event stream: chunk " + std::to_string(NextSeq) +
                  " has a malformed compressed payload");
    std::uint32_t Crc = support::crc32c(Body.data(), Body.size());
    if (Crc != H.Crc)
      return fail("corrupt event stream: chunk " + std::to_string(NextSeq) +
                  " CRC mismatch (stored " + std::to_string(H.Crc) +
                  ", computed " + std::to_string(Crc) + ")");
    if (chunkSelfContained(Format))
      Records.resetTimeBase(); // every v4+ chunk is self-contained
    if (!Records.feed(Body.data(), Body.size())) {
      Failed = true;
      return false; // record-layer error() is surfaced by error()
    }
    if (chunkSelfContained(Format) && !Records.atRecordBoundary())
      return fail("corrupt event stream: record straddles a chunk "
                  "boundary in self-contained chunk " +
                  std::to_string(NextSeq));
    ++Chunks;
    ++NextSeq;
    Off += sizeof(ChunkHeader) + WireLen;
  }

  if (!Pending.empty()) {
    Pending.erase(Pending.begin(),
                  Pending.begin() + static_cast<std::ptrdiff_t>(Off));
  } else if (Off < Avail) {
    Pending.assign(Cur + Off, Cur + Avail);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Chunk index footer
//===----------------------------------------------------------------------===//

std::vector<std::byte> jdrag::profiler::encodeChunkIndexFooter(
    std::span<const ChunkIndexEntry> Entries, std::uint64_t TotalRecords) {
  std::size_t Payload = 8 + Entries.size() * sizeof(WireIndexEntry);
  std::vector<std::byte> Out(sizeof(ChunkHeader) + Payload + 8);
  std::byte *Body = Out.data() + sizeof(ChunkHeader);
  std::memcpy(Body, &TotalRecords, 8);
  std::size_t O = 8;
  for (const ChunkIndexEntry &E : Entries) {
    WireIndexEntry W;
    W.Offset = E.Offset;
    W.Seq = E.Seq;
    W.PayloadBytes = E.PayloadBytes;
    W.Crc = E.Crc;
    W.RecordCount = E.RecordCount;
    W.FirstTime = E.FirstTime;
    W.LastTime = E.LastTime;
    W.FirstRecord = E.FirstRecord;
    std::memcpy(Body + O, &W, sizeof(W));
    O += sizeof(W);
  }
  ChunkHeader H;
  H.Magic = FooterMagic;
  H.Seq = static_cast<std::uint32_t>(Entries.size());
  H.PayloadBytes = static_cast<std::uint32_t>(Payload);
  H.Crc = support::crc32c(Body, Payload);
  std::memcpy(Out.data(), &H, sizeof(H));
  std::uint32_t Bytes = static_cast<std::uint32_t>(Out.size());
  std::uint32_t Tail = FooterTailMagic;
  std::memcpy(Out.data() + Out.size() - 8, &Bytes, 4);
  std::memcpy(Out.data() + Out.size() - 4, &Tail, 4);
  return Out;
}

std::size_t
jdrag::profiler::footerBlockSize(std::span<const std::byte> Stream) {
  constexpr std::size_t MinBlock = sizeof(ChunkHeader) + 8 + 8;
  if (Stream.size() < MinBlock)
    return 0;
  std::uint32_t Bytes = 0, Tail = 0;
  std::memcpy(&Bytes, Stream.data() + Stream.size() - 8, 4);
  std::memcpy(&Tail, Stream.data() + Stream.size() - 4, 4);
  if (Tail != FooterTailMagic || Bytes < MinBlock || Bytes > Stream.size())
    return 0;
  ChunkHeader H;
  std::memcpy(&H, Stream.data() + (Stream.size() - Bytes), sizeof(H));
  if (H.Magic != FooterMagic)
    return 0;
  if (sizeof(ChunkHeader) + H.PayloadBytes + 8 != Bytes)
    return 0;
  return Bytes;
}

namespace {

/// Parses and CRC-verifies one footer block into \p Idx; \p DataEnd
/// receives the on-wire offset just past the last indexed chunk (the
/// sum of the entries' extents, which callers with the full stream in
/// hand check against the footer's actual start). The block's size was
/// already validated against its header by footerBlockSize.
bool parseFooterBlock(const std::byte *Block, ChunkIndex &Idx,
                      std::uint64_t &DataEnd) {
  ChunkHeader H;
  std::memcpy(&H, Block, sizeof(H));
  const std::byte *Body = Block + sizeof(ChunkHeader);
  if (support::crc32c(Body, H.PayloadBytes) != H.Crc)
    return false;
  if (H.PayloadBytes < 8 ||
      (H.PayloadBytes - 8) % sizeof(WireIndexEntry) != 0)
    return false;
  std::size_t Count = (H.PayloadBytes - 8) / sizeof(WireIndexEntry);
  if (Count != H.Seq)
    return false;

  Idx.FromFooter = true;
  std::memcpy(&Idx.TotalRecords, Body, 8);
  Idx.Entries.reserve(Count);
  // Structural validation up front: entries must tile the data region
  // exactly (contiguous, in sequence, plausible sizes), so readers can
  // index the stream through them without further bounds checks. A
  // footer can still lie about chunk *contents* (counts, times, CRCs);
  // decoding verifies those and falls back to a rebuilt index.
  std::uint64_t Off = 0;
  for (std::size_t I = 0; I != Count; ++I) {
    WireIndexEntry W;
    std::memcpy(&W, Body + 8 + I * sizeof(W), sizeof(W));
    // v6 entries carry the on-wire field (compressed flag + compressed
    // length); the tiling below is over on-wire bytes either way.
    std::uint32_t WireLen = chunkWireBytes(W.PayloadBytes);
    if (W.Offset != Off || W.Seq != I || WireLen == 0 ||
        WireLen > MaxChunkPayload)
      return false;
    Off += sizeof(ChunkHeader) + WireLen;
    ChunkIndexEntry E;
    E.Offset = W.Offset;
    E.Seq = W.Seq;
    E.PayloadBytes = W.PayloadBytes;
    E.Crc = W.Crc;
    E.RecordCount = W.RecordCount;
    E.FirstTime = W.FirstTime;
    E.LastTime = W.LastTime;
    E.FirstRecord = W.FirstRecord;
    Idx.Entries.push_back(E);
  }
  DataEnd = Off;
  return true;
}

} // namespace

bool jdrag::profiler::readChunkIndexFooter(std::span<const std::byte> Stream,
                                           ChunkIndex &Out) {
  std::size_t Bytes = footerBlockSize(Stream);
  if (!Bytes)
    return false;
  std::size_t FooterStart = Stream.size() - Bytes;
  ChunkIndex Idx;
  std::uint64_t DataEnd = 0;
  if (!parseFooterBlock(Stream.data() + FooterStart, Idx, DataEnd))
    return false;
  if (DataEnd != FooterStart)
    return false;
  Out = std::move(Idx);
  return true;
}

bool jdrag::profiler::peekChunkIndexFooterTail(std::span<const std::byte> Tail,
                                               ChunkIndex &Out) {
  // footerBlockSize only looks at the last `Bytes` bytes, so running it
  // on a suffix is sound; what a suffix cannot support is the tiling
  // check against the footer's absolute start, which is why this is a
  // "peek" -- the entries are verified internally consistent, not
  // consistent with the data region.
  std::size_t Bytes = footerBlockSize(Tail);
  if (!Bytes)
    return false;
  ChunkIndex Idx;
  std::uint64_t DataEnd = 0;
  if (!parseFooterBlock(Tail.data() + (Tail.size() - Bytes), Idx, DataEnd))
    return false;
  Out = std::move(Idx);
  return true;
}

bool jdrag::profiler::rebuildChunkIndex(std::span<const std::byte> Stream,
                                        WireFormat F, ChunkIndex &Out,
                                        std::string *Err) {
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    return false;
  };
  Out.Entries.clear();
  Out.TotalRecords = 0;
  Out.FromFooter = false;

  // Pass 1: walk the chunk frames (structure only -- payload CRCs are
  // verified by whoever decodes the payloads).
  std::size_t End = Stream.size();
  std::size_t Off = 0;
  std::uint32_t NextSeq = 0;
  std::size_t PayloadTotal = 0;
  while (Off < End) {
    if (End - Off < sizeof(ChunkHeader))
      return Fail("truncated chunk header at offset " + std::to_string(Off));
    ChunkHeader H;
    std::memcpy(&H, Stream.data() + Off, sizeof(H));
    if (H.Magic == FooterMagic) {
      // A footer is only legal as the terminal block; its contents are
      // exactly what this rebuild replaces, so skip it unvalidated.
      if (H.PayloadBytes > MaxChunkPayload ||
          End - Off != sizeof(ChunkHeader) + H.PayloadBytes + 8)
        return Fail("malformed chunk index footer");
      break;
    }
    if (H.Magic != ChunkMagic)
      return Fail("bad chunk magic at chunk " + std::to_string(NextSeq));
    // v6 frames may flag a compressed payload; the structural walk is
    // over on-wire bytes. Pre-v6 formats have no flag bit, so a set bit
    // 31 keeps failing the length bound below.
    bool Compressed = F >= WireFormat::V6 && chunkCompressed(H.PayloadBytes);
    std::uint32_t WireLen =
        Compressed ? chunkWireBytes(H.PayloadBytes) : H.PayloadBytes;
    if (WireLen == 0 || WireLen > MaxChunkPayload)
      return Fail("chunk " + std::to_string(NextSeq) +
                  " has implausible payload length " +
                  std::to_string(H.PayloadBytes));
    if (H.Seq != NextSeq)
      return Fail("chunk sequence jumped from " + std::to_string(NextSeq) +
                  " to " + std::to_string(H.Seq));
    if (End - Off < sizeof(ChunkHeader) + WireLen)
      return Fail("truncated chunk payload in chunk " +
                  std::to_string(NextSeq));
    ChunkIndexEntry E;
    E.Offset = Off;
    E.Seq = H.Seq;
    E.PayloadBytes = H.PayloadBytes; // on-wire field, flag included
    E.Crc = H.Crc;
    E.HeadSkip = WireLen; // overwritten if a record starts here
    Out.Entries.push_back(E);
    PayloadTotal += WireLen;
    ++NextSeq;
    Off += sizeof(ChunkHeader) + WireLen;
  }

  if (Out.Entries.empty())
    return true;

  // Pass 2: walk the records over the concatenated payloads (records
  // straddle chunks in v2/v3), attributing each record to the chunk
  // its first byte lands in and tracking the decoder state (time-delta
  // seed, straddle skip) a shard worker needs to start there.
  std::vector<std::byte> Buf;
  Buf.reserve(PayloadTotal);
  std::vector<std::size_t> Starts(Out.Entries.size());
  std::vector<std::uint8_t> Inflate;
  for (std::size_t I = 0; I != Out.Entries.size(); ++I) {
    Starts[I] = Buf.size();
    ChunkIndexEntry &E = Out.Entries[I];
    const std::byte *P = Stream.data() + E.Offset + sizeof(ChunkHeader);
    // The record walk needs uncompressed bytes; a v6 chunk whose
    // compressed payload does not decode is structural damage, same
    // class as a truncated frame. (CRCs are still not checked here.)
    ChunkHeader H;
    H.PayloadBytes = E.PayloadBytes;
    std::span<const std::byte> Body;
    if (!chunkPayloadBytes(H, P, Inflate, Body))
      return Fail("corrupt compressed payload in chunk " +
                  std::to_string(E.Seq));
    Buf.insert(Buf.end(), Body.begin(), Body.end());
  }

  std::size_t Pos = 0;
  std::size_t Cur = 0;
  ByteTime LastTime = 0;
  bool CurHasTime = false;
  std::uint64_t Records = 0;
  while (Pos < Buf.size()) {
    std::size_t Prev = Cur;
    while (Cur + 1 < Starts.size() && Pos >= Starts[Cur + 1])
      ++Cur;
    if (Cur != Prev) {
      CurHasTime = false;
      if (chunkSelfContained(F))
        LastTime = 0; // the v4/v5 delta chain restarts per chunk
    }
    ChunkIndexEntry &E = Out.Entries[Cur];
    WalkResult W =
        F == WireFormat::V2
            ? walkRecordV2(Buf.data() + Pos, Buf.size() - Pos)
            : walkRecordV3(Buf.data() + Pos, Buf.size() - Pos, LastTime);
    if (W.Malformed)
      return Fail("malformed record in chunk " + std::to_string(E.Seq));
    if (W.Len == 0)
      return Fail("truncated event stream: partial trailing record");
    // Chunk extents in Buf come from Starts, not E.PayloadBytes: for a
    // compressed chunk the entry holds the on-wire field, while Buf
    // holds the decompressed payload.
    std::size_t CurEnd =
        Cur + 1 < Starts.size() ? Starts[Cur + 1] : Buf.size();
    if (chunkSelfContained(F) && Pos + W.Len > CurEnd)
      return Fail("record straddles a chunk boundary in v4 chunk " +
                  std::to_string(E.Seq));
    if (E.RecordCount == 0) {
      E.HeadSkip = static_cast<std::uint32_t>(Pos - Starts[Cur]);
      E.TimeBase = F == WireFormat::V2 ? 0 : LastTime;
      E.FirstRecord = Records;
    }
    ++E.RecordCount;
    if (W.Timed) {
      if (!CurHasTime) {
        CurHasTime = true;
        E.FirstTime = W.Time;
      }
      E.LastTime = W.Time;
      LastTime = W.Time;
    }
    ++Records;
    Pos += W.Len;
  }
  Out.TotalRecords = Records;
  return true;
}

//===----------------------------------------------------------------------===//
// Replay
//===----------------------------------------------------------------------===//

bool jdrag::profiler::replayBytes(std::span<const std::byte> Bytes,
                                  EventConsumer &C, std::string *Err,
                                  WireFormat Format) {
  FrameDecoder D(C, Format);
  if (!D.feed(Bytes.data(), Bytes.size())) {
    if (Err)
      *Err = D.error();
    return false;
  }
  if (!D.atRecordBoundary()) {
    if (Err)
      *Err = "truncated event stream: partial trailing chunk or record";
    return false;
  }
  return true;
}

namespace {

/// The one place the `.jdev` header is parsed: magic, version range,
/// and the v5+ sampling extension. \p F must be positioned at byte 0;
/// on success it is left at the first chunk frame and \p Info is
/// filled. replayFile and readStreamHeader both go through here, so a
/// format bump (like v6) lands exactly once.
bool readHeaderFrom(std::FILE *F, const std::string &Path,
                    StreamHeaderInfo &Info, std::string &Err) {
  std::uint64_t Magic = 0;
  std::uint32_t Version = 0, Reserved = 0;
  if (std::fread(&Magic, sizeof(Magic), 1, F) != 1 || Magic != StreamMagic) {
    Err = Path + ": not a .jdev event stream (bad magic)";
    return false;
  }
  if (std::fread(&Version, sizeof(Version), 1, F) != 1 ||
      std::fread(&Reserved, sizeof(Reserved), 1, F) != 1 ||
      Version < static_cast<std::uint32_t>(WireFormat::V2) ||
      Version > static_cast<std::uint32_t>(WireFormat::V6)) {
    Err = Path + ": unsupported .jdev version " + std::to_string(Version);
    return false;
  }
  Info.Format = static_cast<WireFormat>(Version);
  Info.Sampling = SamplingParams{};
  Info.Compressed = Info.Format >= WireFormat::V6;
  if (Info.Format >= WireFormat::V5 &&
      (std::fread(&Info.Sampling.SampleBytes, 8, 1, F) != 1 ||
       std::fread(&Info.Sampling.SampleSeed, 8, 1, F) != 1)) {
    Err = Path + ": truncated v" + std::to_string(Version) +
          " stream header";
    return false;
  }
  return true;
}

} // namespace

bool jdrag::profiler::replayFile(const std::string &Path, EventConsumer &C,
                                 std::string *Err, StreamHeaderInfo *Info) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Fail("cannot open " + Path);

  StreamHeaderInfo Hdr;
  std::string HdrErr;
  if (!readHeaderFrom(F, Path, Hdr, HdrErr)) {
    std::fclose(F);
    return Fail(HdrErr);
  }
  if (Info)
    *Info = Hdr;

  FrameDecoder D(C, Hdr.Format);
  std::byte Buf[64 * 1024];
  bool Ok = true;
  while (true) {
    std::size_t N = std::fread(Buf, 1, sizeof(Buf), F);
    if (N == 0)
      break;
    if (!D.feed(Buf, N)) {
      Ok = false;
      break;
    }
  }
  bool ReadError = std::ferror(F) != 0;
  std::fclose(F);
  if (!Ok)
    return Fail(D.error());
  if (ReadError)
    return Fail(Path + ": read error");
  if (!D.atRecordBoundary())
    return Fail(Path +
                ": truncated event stream (partial trailing chunk or "
                "record); try `jdrag salvage`");
  return true;
}

bool jdrag::profiler::readStreamHeader(const std::string &Path,
                                       StreamHeaderInfo &Info,
                                       std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Fail("cannot open " + Path);
  std::string HdrErr;
  if (!readHeaderFrom(F, Path, Info, HdrErr)) {
    std::fclose(F);
    return Fail(HdrErr);
  }
  std::fclose(F);
  return true;
}
