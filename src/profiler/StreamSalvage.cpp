//===- profiler/StreamSalvage.cpp -----------------------------------------===//

#include "profiler/StreamSalvage.h"

#include "support/Format.h"

#include <atomic>
#include <cstring>

using namespace jdrag;
using namespace jdrag::profiler;

std::uint64_t SalvageReport::chunksOk() const {
  std::uint64_t N = 0;
  for (const ChunkVerdict &V : Chunks)
    N += V.ok();
  return N;
}

std::uint64_t SalvageReport::chunksDamaged() const {
  return Chunks.size() - chunksOk();
}

std::string SalvageReport::summary(const std::string &Path) const {
  if (!readable())
    return Path + ": " + FileError + "\n";
  std::string Out = formatString(
      "%s: jdev v%u, %llu bytes, %zu chunks: %llu ok, %llu damaged\n",
      Path.c_str(), Version, static_cast<unsigned long long>(FileBytes),
      Chunks.size(), static_cast<unsigned long long>(chunksOk()),
      static_cast<unsigned long long>(chunksDamaged()));
  if (Sampling.enabled())
    Out += formatString(
        "sampling: interval %llu bytes, seed 0x%llx (estimates are "
        "inverse-probability scaled)\n",
        static_cast<unsigned long long>(Sampling.SampleBytes),
        static_cast<unsigned long long>(Sampling.SampleSeed));
  else
    Out += "sampling: exact (every allocation recorded)\n";
  if (Compressed) {
    double Ratio = WirePayloadBytes
                       ? static_cast<double>(RawPayloadBytes) /
                             static_cast<double>(WirePayloadBytes)
                       : 1.0;
    Out += formatString(
        "compression: %llu bytes on disk <- %llu uncompressed "
        "(%.2fx ratio)\n",
        static_cast<unsigned long long>(WirePayloadBytes),
        static_cast<unsigned long long>(RawPayloadBytes), Ratio);
  }
  for (const ChunkVerdict &V : Chunks)
    if (!V.ok())
      Out += formatString(
          "  chunk %u @ offset %llu: %s (%u-byte payload)\n", V.Seq,
          static_cast<unsigned long long>(V.Offset),
          chunkStatusName(V.Status), V.PayloadBytes);
  if (FooterPresent)
    Out += formatString("chunk index footer: %s\n",
                        FooterOk ? "ok" : "DAMAGED (readers rebuild the "
                                          "index; salvage re-emits one)");
  Out += formatString(
      "recoverable prefix: %llu events, %llu payload bytes%s\n",
      static_cast<unsigned long long>(EventsRecovered),
      static_cast<unsigned long long>(BytesRecovered),
      TailPartialRecord ? " (partial trailing record dropped)" : "");
  return Out;
}

namespace {

/// Byte-wise search for the next chunk magic at or after file offset
/// \p From, reading the file a window at a time.
std::uint64_t findMagic(const ChunkReader &R, std::uint64_t From) {
  std::uint32_t M = ChunkMagic;
  std::byte Pat[sizeof(M)];
  std::memcpy(Pat, &M, sizeof(M));
  std::vector<std::byte> Window;
  constexpr std::size_t WindowBytes = 64 * 1024;
  for (std::uint64_t Off = From; Off + sizeof(M) <= R.fileBytes();
       Off += WindowBytes - (sizeof(M) - 1)) {
    if (!R.read(Off, WindowBytes, Window) || Window.size() < sizeof(M))
      break;
    for (std::size_t I = 0; I + sizeof(M) <= Window.size(); ++I)
      if (std::memcmp(Window.data() + I, Pat, sizeof(M)) == 0)
        return Off + I;
  }
  return SalvageReport::npos;
}

/// Counts decoded records, site definitions included (the prefix scan
/// discards them; the parallel scan reports their total).
class CountingConsumer : public EventConsumer {
public:
  void onSite(SiteId, std::span<const SiteFrame>) override { ++Records; }
  void onEvent(const EventRecord &) override { ++Records; }
  std::uint64_t Records = 0;
};

/// Re-encodes the recovered prefix through a fresh EventBuffer; site
/// ids pass through unchanged, so the salvaged recording replays with
/// the producer's original ids.
class ReencodeConsumer : public EventConsumer {
public:
  explicit ReencodeConsumer(EventBuffer &Buf) : Buf(Buf) {}
  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    Buf.writeSite(Id, Frames);
  }
  void onEvent(const EventRecord &E) override { Buf.writeEvent(E); }

private:
  EventBuffer &Buf;
};

} // namespace

SalvageReport jdrag::profiler::scanEventFile(const std::string &Path,
                                             EventConsumer *C) {
  SalvageReport Rep;
  ChunkReader R;
  HeaderStatus HS = R.open(Path);
  if (HS == HeaderStatus::CannotOpen) {
    Rep.FileError = "cannot read file";
    return Rep;
  }
  Rep.FileBytes = R.fileBytes();
  if (R.fileBytes() < 16) {
    Rep.FileError = "not a .jdev event stream (too short)";
    return Rep;
  }
  if (HS == HeaderStatus::BadMagic) {
    Rep.FileError = "not a .jdev event stream (bad magic)";
    return Rep;
  }
  Rep.Version = R.version();
  if (HS == HeaderStatus::BadVersion) {
    Rep.FileError =
        "unsupported .jdev version " + std::to_string(Rep.Version);
    return Rep;
  }
  if (HS == HeaderStatus::Truncated) {
    Rep.FileError = "truncated stream header";
    return Rep;
  }
  WireFormat Format = R.header().Format;
  bool SelfContained = chunkSelfContained(Format);
  Rep.Sampling = R.header().Sampling;
  Rep.Compressed = R.header().Compressed;

  // A v4+ file may end with a chunk index footer block: it is judged
  // separately (it is an index, not data) and the chunk walk stops where
  // it starts.
  if (R.footerPresent()) {
    Rep.FooterPresent = true;
    ChunkIndex Idx;
    Rep.FooterOk = R.readFooter(Idx);
  }

  CountingConsumer Discard;
  StreamDecoder Records(C ? *C : static_cast<EventConsumer &>(Discard),
                        Format);
  std::uint64_t Off = R.dataBegin();
  std::uint32_t ExpectedSeq = 0;
  bool Damaged = false;
  std::uint64_t FedBytes = 0;
  ChunkBuffer Chunk;

  while (Off < R.dataEnd()) {
    ChunkVerdict V;
    V.Offset = Off;
    // The sequence is only meaningful before the first damage; after a
    // resync it is whatever the surviving chunks say.
    V.Status = R.readChunk(
        Off, Damaged ? std::nullopt : std::optional(ExpectedSeq), Chunk);
    const ChunkHeader &H = Chunk.H;
    if (V.Status != ChunkStatus::TruncatedHeader) {
      V.Seq = H.Seq;
      V.PayloadBytes = frameWireBytes(H, Format);
    }
    if (V.Status == ChunkStatus::Ok) {
      Rep.WirePayloadBytes += V.PayloadBytes;
      Rep.RawPayloadBytes += Chunk.Body.size();
      // Valid chunks after damage are judged but not replayed: a
      // straddling record or missing site definition poisons them.
      if (!Damaged) {
        if (SelfContained)
          Records.resetTimeBase(); // every v4+ chunk is self-contained
        if (Records.feed(Chunk.Body.data(), Chunk.Body.size())) {
          FedBytes += Chunk.Body.size();
          // v4+ chunks must end at a record boundary; a straddling
          // record means the producer (or the bytes) lied.
          if (SelfContained && Records.pendingBytes() != 0)
            V.Status = ChunkStatus::BadRecords;
        } else {
          V.Status = ChunkStatus::BadRecords;
        }
      }
    }
    if (!V.ok() && Rep.FirstDamaged == SalvageReport::npos)
      Rep.FirstDamaged = Rep.Chunks.size();
    Rep.Chunks.push_back(V);
    Damaged |= !V.ok();

    if (V.Status == ChunkStatus::TruncatedHeader ||
        V.Status == ChunkStatus::TruncatedPayload)
      break; // nothing beyond EOF to resynchronize on
    if (V.Status == ChunkStatus::BadMagic ||
        V.Status == ChunkStatus::OversizedPayload) {
      // The header itself is untrustworthy; hunt for the next magic.
      Off = findMagic(R, Off + 1);
      if (Off == SalvageReport::npos)
        break;
    } else {
      Off += sizeof(ChunkHeader) + V.PayloadBytes;
      ExpectedSeq = H.Seq + 1;
    }
  }

  Rep.EventsRecovered = Records.eventsDecoded();
  Rep.TailPartialRecord = Records.pendingBytes() != 0;
  Rep.BytesRecovered = FedBytes - Records.pendingBytes();
  return Rep;
}

SalvageReport jdrag::profiler::scanEventFileParallel(const std::string &Path,
                                                     unsigned Jobs) {
  // The parallel scan only handles the common case -- a clean file -- and
  // hands anything suspicious to the sequential scan, whose
  // resynchronizing walk produces the authoritative verdicts. That keeps
  // the two paths' reports identical by construction: this one only ever
  // reports "all clean".
  auto Sequential = [&] { return scanEventFile(Path, nullptr); };
  ChunkReader R;
  ChunkIndex Idx;
  if (Jobs <= 1 || R.open(Path) != HeaderStatus::Ok || !R.index(Idx))
    return Sequential();
  // A rebuilt index stops at a trailing footer frame that the footer
  // locator rejected; the sequential scan judges that frame as damage.
  std::uint64_t Indexed = 0;
  if (!Idx.Entries.empty())
    Indexed = Idx.Entries.back().Offset + sizeof(ChunkHeader) +
              chunkWireBytes(Idx.Entries.back().PayloadBytes);
  if (R.dataBegin() + Indexed != R.dataEnd())
    return Sequential();

  std::size_t Shards = std::min<std::size_t>(Jobs, Idx.Entries.size());
  std::vector<std::uint64_t> Events(Shards, 0), Raw(Shards, 0);
  std::atomic<bool> Clean{true};
  forEachShard(Idx, Jobs, [&](unsigned K, std::size_t B, std::size_t E) {
    CountingConsumer Count;
    std::string Err;
    if (!decodeChunkRange(R, Idx, B, E, Count, Err, &Raw[K]))
      Clean.store(false);
    Events[K] = Count.Records;
  });
  if (!Clean.load())
    return Sequential();

  SalvageReport Rep;
  Rep.Version = R.version();
  Rep.Sampling = R.header().Sampling;
  Rep.Compressed = R.header().Compressed;
  Rep.FileBytes = R.fileBytes();
  Rep.FooterPresent = R.footerPresent();
  Rep.FooterOk = R.footerPresent();
  for (const ChunkIndexEntry &En : Idx.Entries) {
    ChunkVerdict V;
    V.Offset = R.dataBegin() + En.Offset;
    V.Seq = En.Seq;
    V.PayloadBytes = chunkWireBytes(En.PayloadBytes);
    Rep.Chunks.push_back(V);
    Rep.WirePayloadBytes += V.PayloadBytes;
  }
  for (std::size_t K = 0; K != Shards; ++K) {
    Rep.EventsRecovered += Events[K];
    Rep.RawPayloadBytes += Raw[K];
  }
  Rep.BytesRecovered = Rep.RawPayloadBytes;
  return Rep;
}

bool jdrag::profiler::salvageEventFile(const std::string &In,
                                       const std::string &Out,
                                       SalvageReport *Rep, std::string *Err,
                                       unsigned Jobs) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };

  // First pass judges readability without touching the output path.
  SalvageReport Probe = scanEventFileParallel(In, Jobs);
  if (Rep)
    *Rep = Probe;
  if (!Probe.readable())
    return Fail(In + ": " + Probe.FileError);

  FileEventSink Sink;
  FileEventSink::Options FO;
  // A sampled input stays sampled and a compressed input stays
  // compressed: carry both into the salvage output's header (which
  // upgrades it to v5/v6) so replay still scales and the recovered
  // recording keeps its space savings.
  FO.Sampling = Probe.Sampling;
  FO.Compress = Probe.Compressed;
  FO.Format = effectiveFormat(FO.Format, FO.Sampling, FO.Compress);
  if (!Sink.open(Out, FO))
    return Fail("cannot write " + Out);
  EventBuffer Buf(Sink, /*ChunkBytes=*/0, /*Checksum=*/true, FO.Format);
  ReencodeConsumer Re(Buf);
  scanEventFile(In, &Re);
  // finishStream() appends the chunk index footer: salvage output is
  // always current-format, so a recovered recording is also seekable.
  Buf.finishStream();
  if (!Buf.ok() || !Sink.finish())
    return Fail("cannot write " + Out);
  return true;
}
