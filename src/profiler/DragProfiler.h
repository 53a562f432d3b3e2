//===- profiler/DragProfiler.h - Phase-1 instrumentation --------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DragProfiler implements the paper's instrumented-JVM phase as an
/// *event-stream consumer*: it keeps a trailer per live object (in a side
/// table keyed by immortal object id, so the heap's byte accounting
/// excludes the trailer exactly as the paper specifies), timestamps every
/// use on the byte clock (optionally snapped to the start of the current
/// deep-GC interval, mirroring the paper's "all uses ... are performed at
/// the beginning of the interval" assumption), records nested allocation
/// and last-use sites, and logs a record when the object is reclaimed or
/// survives termination.
///
/// Because its only input is the binary event stream, the same profiler
/// runs in two modes:
///
///  - attached (live): attachTo() installs its dispatch sink in the
///    VMOptions and it consumes events as the VM flushes them;
///  - detached: replayProfile() (or profiler::replayFile with the
///    profiler as consumer) rebuilds an identical ProfileLog from a
///    recorded `.jdev` file, with no VM at all -- the paper's genuinely
///    separable phase 2.
///
/// Usage (attached):
/// \code
///   DragProfiler Prof(Program, ProfilerConfig());
///   VMOptions Opts;
///   Opts.DeepGCIntervalBytes = 100 * KB; // the paper's interval
///   Prof.attachTo(Opts);
///   VirtualMachine VM(Program, Opts);
///   VM.run();
///   const ProfileLog &Log = Prof.log();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PROFILER_DRAGPROFILER_H
#define JDRAG_PROFILER_DRAGPROFILER_H

#include "profiler/EventStream.h"
#include "profiler/ProfileLog.h"
#include "vm/VirtualMachine.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

namespace jdrag::profiler {

/// Tuning knobs for phase 1.
struct ProfilerConfig {
  /// Nesting level of recorded call chains ("the level of nesting can be
  /// set in order to tradeoff more accurate information and speed").
  /// Enforced by the VM-side emitter; attachTo() wires it through.
  std::uint32_t SiteDepth = 4;
  /// Snap use timestamps to the last deep-GC boundary (paper behaviour).
  /// Disable for exact timestamps (ablation).
  bool SnapUseTimes = true;
  /// Classes whose instances are excluded from the log, mirroring the
  /// paper's exclusion of Class objects and class-reachable specials.
  std::vector<ir::ClassId> ExcludedClasses;
  /// Keep trailers in a paged dense array indexed by object id (object
  /// ids are dense and monotonic) instead of a hash map -- no hashing on
  /// the per-Use hot path. The map fallback exists so the bench ladder
  /// can measure the difference.
  bool UseDenseTrailers = true;
};

/// Receives finished object records as the profiler emits them, instead
/// of having them appended to ProfileLog::Records. The streaming
/// analysis engine (analysis/StreamingAnalysis.h) registers one so
/// phase 2 runs in O(live sites) memory: records are folded the moment
/// the object dies and never stored.
class RecordSink {
public:
  virtual ~RecordSink() = default;
  virtual void onRecord(const ObjectRecord &R) = 0;
};

/// The phase-1 profiler. Attach to a VirtualMachine (attachTo) or replay
/// a recorded stream over it, then take the log.
class DragProfiler : public EventConsumer {
public:
  explicit DragProfiler(const ir::Program &P,
                        ProfilerConfig Config = ProfilerConfig());

  /// Configures \p Opts for live profiling: installs this profiler's
  /// dispatch sink and its site depth, and aligns the sink's decoder
  /// with the VM's wire format -- set Opts.EventFormat and the sampling
  /// knobs (if non-default) *before* calling this. Active sampling
  /// upgrades the decode format to v5 (matching the VM's emitter) and
  /// stamps the params into the log so reports scale estimates.
  void attachTo(vm::VMOptions &Opts) {
    Opts.Sink = &Sink;
    Opts.SiteDepth = Config.SiteDepth;
    SamplingParams S;
    S.SampleBytes = Opts.SampleBytes;
    S.SampleSeed = Opts.SampleSeed;
    Sink.setWireFormat(effectiveFormat(Opts.EventFormat, S));
    Log.SampleRate = S.SampleBytes;
    // Exact logs keep the canonical {0, 0}: the seed means nothing
    // without a rate, and exact logs must be bit-identical whether the
    // profiler ran attached, detached, or was fed a raw stream.
    Log.SampleSeed = S.enabled() ? S.SampleSeed : 0;
  }

  /// The sink feeding this profiler (for manual wiring, e.g. a TeeSink
  /// that both records to file and profiles live).
  EventSink &sink() { return Sink; }

  // EventConsumer: decoded stream input.
  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override;
  void onEvent(const EventRecord &E) override;

  const ProfileLog &log() const { return Log; }
  ProfileLog takeLog() { return std::move(Log); }

  /// Stamps the recording's delivery accounting into the log. Call after
  /// the run with the VM's streamHealth(); a lossy stream marks the log
  /// incomplete so every report over it carries the warning.
  void noteStreamHealth(const StreamHealth &H) {
    Log.Complete = H.intact();
    Log.DroppedChunks = H.ChunksDropped;
    Log.DroppedBytes = H.BytesDropped;
    Log.Retries = H.Retries;
    Log.LastErrno = H.LastErrno;
  }

  /// Live (not yet logged) object count -- should be 0 after a run.
  std::size_t liveTrailers() const {
    return Config.UseDenseTrailers ? Dense.size() : Trailers.size();
  }

  /// High-water mark of liveTrailers() over the run: the O(live objects)
  /// part of the streaming engine's resident state (BENCH_9).
  std::size_t peakLiveTrailers() const { return PeakLive; }

  /// Trailer pages resident now, and their high-water mark over the run
  /// (dense table only; 0 on the hash-map fallback). Every resident page
  /// but the allocation frontier holds a live trailer, so the peak never
  /// exceeds peakLiveTrailers() + 1.
  std::size_t residentTrailerPages() const { return Dense.residentPages(); }
  std::size_t peakResidentTrailerPages() const {
    return Dense.peakResidentPages();
  }

  /// Diverts finished records to \p S; the log keeps everything else
  /// (sites, GC samples, end time, health) and Log.Records stays empty.
  /// Pass nullptr to restore the default materializing behaviour.
  void setRecordSink(RecordSink *S) { RecSink = S; }

private:
  struct Trailer {
    ir::ClassId Class;
    ir::ArrayKind AKind = ir::ArrayKind::Int;
    bool IsArray = false;
    std::uint32_t Bytes = 0;
    ByteTime AllocTime = 0;
    ByteTime FirstUseTime = 0;
    ByteTime LastUseTime = 0;
    SiteId AllocSite = InvalidSite;
    SiteId LastUseSite = InvalidSite;
    std::uint32_t UseCount = 0;
    bool UsedOutsideInit = false;
    bool Excluded = false;
  };

  /// Paged dense trailer store indexed by object id. The heap hands out
  /// object ids densely and monotonically, so id -> slot is a shift and
  /// a mask with no hashing on the per-Use hot path; the per-slot Live
  /// flag is the free-slot check (a stale or VM-internal id hits a dead
  /// slot, never a neighbour's trailer). A page whose live count drains
  /// to zero behind the allocation frontier is released at once, and a
  /// drained frontier page when the frontier moves past it, so every
  /// resident page but the frontier holds a live trailer: resident
  /// memory tracks the live-object population, not the total number of
  /// objects ever allocated -- nor, for a sampled stream's sparse ids,
  /// the number of pages they were spread over.
  class TrailerTable {
  public:
    Trailer &insert(vm::ObjectId Id) {
      std::size_t Pi = static_cast<std::size_t>(Id) / PageSize;
      std::size_t Si = static_cast<std::size_t>(Id) % PageSize;
      if (Pi >= Pages.size())
        Pages.resize(Pi + 1);
      if (Pi > Frontier) {
        // The old frontier page is never revisited once allocation has
        // moved past it, so if it drained while it was the frontier it
        // is released now (erase() only releases pages behind it).
        // Sparse (sampled) id streams hit this on almost every page.
        if (Pages[Frontier] && Pages[Frontier]->LiveCount == 0)
          releasePage(Frontier);
        Frontier = Pi;
      }
      if (!Pages[Pi]) {
        Pages[Pi] = std::make_unique<Page>();
        PeakResident = std::max(PeakResident, ++Resident);
      }
      Page &Pg = *Pages[Pi];
      if (!Pg.Live[Si]) {
        Pg.Live[Si] = true;
        ++Pg.LiveCount;
        ++LiveTotal;
      }
      Pg.Slots[Si] = Trailer();
      return Pg.Slots[Si];
    }
    Trailer *find(vm::ObjectId Id) {
      std::size_t Pi = static_cast<std::size_t>(Id) / PageSize;
      if (Pi >= Pages.size() || !Pages[Pi])
        return nullptr;
      Page &Pg = *Pages[Pi];
      std::size_t Si = static_cast<std::size_t>(Id) % PageSize;
      return Pg.Live[Si] ? &Pg.Slots[Si] : nullptr;
    }
    void erase(vm::ObjectId Id) {
      std::size_t Pi = static_cast<std::size_t>(Id) / PageSize;
      if (Pi >= Pages.size() || !Pages[Pi])
        return;
      Page &Pg = *Pages[Pi];
      std::size_t Si = static_cast<std::size_t>(Id) % PageSize;
      if (!Pg.Live[Si])
        return;
      Pg.Live[Si] = false;
      --Pg.LiveCount;
      --LiveTotal;
      // Keep the frontier page even when briefly empty: allocation is
      // still filling it and releasing would just recreate it.
      if (Pg.LiveCount == 0 && Pi < Frontier)
        releasePage(Pi);
    }
    std::size_t size() const { return LiveTotal; }
    std::size_t residentPages() const { return Resident; }
    std::size_t peakResidentPages() const { return PeakResident; }

  private:
    static constexpr std::size_t PageSize = 4096;
    struct Page {
      Trailer Slots[PageSize];
      bool Live[PageSize] = {};
      std::size_t LiveCount = 0;
    };
    void releasePage(std::size_t Pi) {
      Pages[Pi].reset();
      --Resident;
    }
    std::vector<std::unique_ptr<Page>> Pages;
    std::size_t Frontier = 0;
    std::size_t LiveTotal = 0;
    std::size_t Resident = 0;
    std::size_t PeakResident = 0;
  };

  Trailer *findTrailer(vm::ObjectId Id);
  void eraseTrailer(vm::ObjectId Id);
  void emitRecord(vm::ObjectId Id, const Trailer &T, ByteTime Now,
                  bool Survived);
  SiteId localSite(SiteId StreamId) const {
    return StreamId < SiteMap.size() ? SiteMap[StreamId] : InvalidSite;
  }

  const ir::Program &P;
  ProfilerConfig Config;
  ProfileLog Log;
  DispatchSink Sink{*this};
  /// Stream site id -> id in Log.Sites. Stream ids are dense and arrive
  /// in order, so in practice this is the identity map.
  std::vector<SiteId> SiteMap;
  TrailerTable Dense;
  /// Hash-map fallback (Config.UseDenseTrailers = false), kept so the
  /// bench ladder can measure the dense table's win.
  std::unordered_map<vm::ObjectId, Trailer> Trailers;
  std::unordered_set<std::uint32_t> Excluded; ///< class indices
  ByteTime IntervalStart = 0; ///< last deep-GC boundary on the byte clock
  RecordSink *RecSink = nullptr;
  std::size_t PeakLive = 0;
};

/// Detached phase 2: replays the `.jdev` recording at \p Path through a
/// fresh DragProfiler and moves its log into \p Out. Returns false and
/// sets \p Err on a malformed or truncated recording.
bool replayProfile(const std::string &Path, const ir::Program &P,
                   ProfilerConfig Config, ProfileLog &Out,
                   std::string *Err = nullptr);

/// Streaming phase 2: replays the recording at \p Path, delivering every
/// finished record to \p Sink instead of materializing it. \p ShellOut
/// receives the record-free log shell (sites, GC samples, end time,
/// sampling params) -- everything a report needs except Records, which
/// stays empty. \p PeakTrailers (optional) receives the trailer-table
/// high-water mark.
bool replayProfileTo(const std::string &Path, const ir::Program &P,
                     ProfilerConfig Config, RecordSink &Sink,
                     ProfileLog &ShellOut, std::string *Err = nullptr,
                     std::size_t *PeakTrailers = nullptr);

} // namespace jdrag::profiler

#endif // JDRAG_PROFILER_DRAGPROFILER_H
