//===- profiler/ParallelReplay.cpp ----------------------------------------===//

#include "profiler/ParallelReplay.h"

#include <thread>
#include <unordered_set>
#include <utility>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::vm;

namespace {

/// One shard's knowledge about one object. Times that depend on the
/// deep-GC interval boundary are split into *known* values (the shard
/// saw the boundary locally) and *symbolic prefix* markers (the use
/// happened before the shard's first DeepGCEnd, so its snapped time is
/// the previous shard's exit boundary -- resolved at merge time).
struct PartialTrailer {
  enum class First : std::uint8_t { None, Prefix, Known };

  ir::ClassId Class;
  ir::ArrayKind AKind = ir::ArrayKind::Int;
  bool IsArray = false;
  bool HasAlloc = false;
  bool PrefixUse = false;   ///< some use snapped to the entry boundary
  bool HasKnownMax = false; ///< KnownMax holds a resolved use time
  First FirstNonInit = First::None;
  std::uint32_t Bytes = 0;
  std::uint32_t UseCount = 0;
  ByteTime AllocTime = 0;
  ByteTime FirstNonInitTime = 0; ///< valid when FirstNonInit == Known
  ByteTime KnownMax = 0;         ///< max resolved use time in this shard
  SiteId AllocSiteStream = InvalidSite; ///< stream id; mapped at merge
  SiteId LastUseSiteStream = InvalidSite;
};

/// The fold of all shards' partials for one object, with interval
/// symbolics already resolved (fields are raw stream-clock times; the
/// final max against AllocTime happens at emission).
struct MergedTrailer {
  ir::ClassId Class;
  ir::ArrayKind AKind = ir::ArrayKind::Int;
  bool IsArray = false;
  bool HasAlloc = false;
  bool Ended = false; ///< an end event already consumed this object
  bool HasFirstNonInit = false;
  bool HasUseMax = false;
  std::uint32_t Bytes = 0;
  std::uint32_t UseCount = 0;
  ByteTime AllocTime = 0;
  ByteTime FirstNonInitRaw = 0;
  ByteTime UseMaxRaw = 0;
  SiteId AllocSiteStream = InvalidSite;
  SiteId LastUseSiteStream = InvalidSite;
};

struct EndEvent {
  ObjectId Id = 0;
  ByteTime Time = 0;
  bool Survived = false;
};

/// Everything one worker produces from its chunk range.
struct ShardResult {
  PagedTable<PartialTrailer> Table;
  std::vector<EndEvent> Ends; ///< Collect/Survivor, in stream order
  std::vector<GCSample> Samples;
  /// DefineSite records in arrival order (stream id + frames); interned
  /// into the merged SiteTable in shard order, reproducing stream order.
  std::vector<std::pair<SiteId, std::vector<SiteFrame>>> Sites;
  ByteTime ExitInterval = 0; ///< last local DeepGCEnd time
  ByteTime TerminateTime = 0;
  bool HasExit = false;
  bool SawTerminate = false;
  bool Failed = false;
  std::string Error;
};

/// EventConsumer that accumulates shard partials instead of emitting
/// records -- the "map" side of the map-reduce. With a ShardFoldSink
/// attached, an object whose alloc *and* end both fall in this shard is
/// completed locally: the finished record goes straight to the fold (on
/// this shard's decode thread) and its partial is erased, so neither the
/// partial nor the end event survives to the merge. Only objects that
/// straddle a shard boundary keep the materialize-path bookkeeping.
class ShardConsumer : public EventConsumer {
public:
  ShardConsumer(ShardResult &R, bool Snap, bool IntervalKnown,
                unsigned ShardIdx, ShardFoldSink *Fold,
                const std::unordered_set<std::uint32_t> &Excluded)
      : R(R), Snap(Snap), IntervalKnown(IntervalKnown), ShardIdx(ShardIdx),
        Fold(Fold), Excluded(Excluded) {}

  void onSite(SiteId Id, std::span<const SiteFrame> Frames) override {
    R.Sites.emplace_back(Id,
                         std::vector<SiteFrame>(Frames.begin(), Frames.end()));
  }

  void onEvent(const EventRecord &E) override {
    switch (E.kind()) {
    case EventKind::Alloc: {
      PartialTrailer &T = R.Table.insert(E.Id);
      T.HasAlloc = true;
      T.Class = ir::ClassId(static_cast<std::uint32_t>(E.Arg1));
      T.AKind = static_cast<ir::ArrayKind>(E.Sub);
      T.IsArray = E.Flags & 1;
      T.Bytes = static_cast<std::uint32_t>(E.Arg0);
      T.AllocTime = E.Time;
      T.AllocSiteStream = E.Site;
      break;
    }
    case EventKind::Use: {
      // The alloc may live in an earlier shard, so a use with no local
      // partial still creates one; if no shard ever saw the alloc the
      // merged trailer stays HasAlloc = false and is never emitted
      // (sequential semantics for VM-internal ids).
      PartialTrailer &T = R.Table.get(E.Id);
      bool DuringOwnInit = E.Flags & 1;
      bool Known = !Snap || IntervalKnown;
      ByteTime Raw = Snap ? Interval : E.Time;
      if (!DuringOwnInit && T.FirstNonInit == PartialTrailer::First::None) {
        T.FirstNonInit = Known ? PartialTrailer::First::Known
                               : PartialTrailer::First::Prefix;
        T.FirstNonInitTime = Known ? Raw : 0;
      }
      if (Known) {
        T.HasKnownMax = true;
        T.KnownMax = std::max(T.KnownMax, Raw);
      } else {
        T.PrefixUse = true;
      }
      T.LastUseSiteStream = E.Site;
      ++T.UseCount;
      break;
    }
    case EventKind::GCEnd:
      R.Samples.push_back({E.Time, E.Arg0, E.Arg1});
      break;
    case EventKind::DeepGCEnd:
      IntervalKnown = true;
      Interval = E.Time;
      R.HasExit = true;
      R.ExitInterval = E.Time;
      break;
    case EventKind::Collect:
    case EventKind::Survivor: {
      if (Fold) {
        PartialTrailer *T = R.Table.find(E.Id);
        if (T && T->HasAlloc) {
          emitLocal(E.Id, *T, E.Time,
                    /*Survived=*/E.kind() == EventKind::Survivor);
          R.Table.erase(E.Id);
          break;
        }
        // A partial without the alloc (or no partial at all) means the
        // object straddles a shard boundary: keep the bookkeeping and
        // let the merge emit it -- or drop it, for VM-internal ids no
        // shard ever saw an alloc for, matching sequential replay.
      }
      R.Ends.push_back({E.Id, E.Time, E.kind() == EventKind::Survivor});
      break;
    }
    case EventKind::Terminate:
      R.SawTerminate = true;
      R.TerminateTime = E.Time;
      break;
    case EventKind::DefineSite:
      break; // delivered via onSite
    }
  }

private:
  /// Builds the finished record for an object whose whole lifetime fell
  /// inside this shard, with the exact field formulas of mergeShards'
  /// emission loop. The formulas collapse because the alloc is local:
  /// any symbolic (Prefix) use resolves to the shard's entry boundary,
  /// and on the monotonic byte clock that boundary precedes everything
  /// in this shard, so max(boundary, AllocTime) == AllocTime -- exactly
  /// the value the Known-less branches below produce.
  void emitLocal(ObjectId Id, const PartialTrailer &T, ByteTime Now,
                 bool Survived) {
    if (!T.IsArray && Excluded.count(T.Class.Index) != 0)
      return;
    ObjectRecord Rec;
    Rec.Id = Id;
    Rec.Class = T.Class;
    Rec.AKind = T.AKind;
    Rec.IsArray = T.IsArray;
    Rec.Bytes = T.Bytes;
    Rec.AllocTime = T.AllocTime;
    Rec.FirstUseTime = T.FirstNonInit == PartialTrailer::First::Known
                           ? std::max(T.FirstNonInitTime, T.AllocTime)
                           : T.AllocTime;
    Rec.LastUseTime =
        T.HasKnownMax ? std::max(T.KnownMax, T.AllocTime) : T.AllocTime;
    Rec.CollectTime = Now;
    // Stream site ids, like every fold-mode record; the driver hands the
    // caller a stream-id -> log-id map to remap the folds once.
    Rec.AllocSite = T.AllocSiteStream;
    Rec.LastUseSite = T.LastUseSiteStream;
    Rec.UseCount = T.UseCount;
    Rec.UsedOutsideInit = T.FirstNonInit != PartialTrailer::First::None;
    Rec.SurvivedToEnd = Survived;
    Fold->onShardRecord(ShardIdx, Rec);
  }

  ShardResult &R;
  bool Snap;
  bool IntervalKnown; ///< a local DeepGCEnd has fixed the boundary
  ByteTime Interval = 0;
  unsigned ShardIdx;
  ShardFoldSink *Fold;
  const std::unordered_set<std::uint32_t> &Excluded;
};

/// Decodes the index's chunks on up to \p Jobs threads, one contiguous
/// range and one ShardResult each (announced to \p Fold first). Returns
/// false if any shard failed.
bool runSharded(const ChunkReader &R, const ChunkIndex &Idx, unsigned Jobs,
                bool Snap, std::vector<ShardResult> &Shards,
                ShardFoldSink *Fold,
                const std::unordered_set<std::uint32_t> &Excluded) {
  Shards = std::vector<ShardResult>(
      std::min<std::size_t>(Jobs, Idx.Entries.size()));
  if (Fold)
    Fold->beginAttempt(static_cast<unsigned>(Shards.size()));
  forEachShard(Idx, Jobs, [&](unsigned K, std::size_t B, std::size_t E) {
    ShardResult &Sh = Shards[K];
    ShardConsumer C(Sh, Snap, /*IntervalKnown=*/B == 0, K, Fold, Excluded);
    Sh.Failed = !decodeChunkRange(R, Idx, B, E, C, Sh.Error);
  });
  for (const ShardResult &Sh : Shards)
    if (Sh.Failed)
      return false;
  return true;
}

void foldPartial(MergedTrailer &M, const PartialTrailer &P,
                 ByteTime EntryInterval) {
  M.UseCount += P.UseCount;
  if (P.UseCount)
    M.LastUseSiteStream = P.LastUseSiteStream;
  if (P.FirstNonInit != PartialTrailer::First::None && !M.HasFirstNonInit) {
    M.HasFirstNonInit = true;
    M.FirstNonInitRaw = P.FirstNonInit == PartialTrailer::First::Prefix
                            ? EntryInterval
                            : P.FirstNonInitTime;
  }
  if (P.PrefixUse) {
    M.HasUseMax = true;
    M.UseMaxRaw = std::max(M.UseMaxRaw, EntryInterval);
  }
  if (P.HasKnownMax) {
    M.HasUseMax = true;
    M.UseMaxRaw = std::max(M.UseMaxRaw, P.KnownMax);
  }
  if (P.HasAlloc && !M.HasAlloc) {
    M.HasAlloc = true;
    M.Class = P.Class;
    M.AKind = P.AKind;
    M.IsArray = P.IsArray;
    M.Bytes = P.Bytes;
    M.AllocTime = P.AllocTime;
    M.AllocSiteStream = P.AllocSiteStream;
  }
}

/// The "reduce" side: folds shard partials in shard order and emits
/// object records in the stream order of their end events, reproducing
/// DragProfiler's output exactly. With \p Fold set, boundary-crossing
/// records go to Fold->onMergedRecord (carrying *stream* site ids, like
/// the shard-local records) instead of Out.Records, and \p SiteMapOut
/// receives the stream-id -> Out.Sites-id map the caller remaps with.
void mergeShards(std::vector<ShardResult> &Shards,
                 const ProfilerConfig &Config, ProfileLog &Out,
                 ShardFoldSink *Fold = nullptr,
                 std::vector<SiteId> *SiteMapOut = nullptr) {
  ProfileLog Log;
  Log.Records.reserve(1024);
  Log.GCSamples.reserve(64);

  // Sites: interning in shard order reproduces stream arrival order,
  // hence the sequential profiler's local ids.
  std::vector<SiteId> SiteMap;
  SiteMap.reserve(256);
  for (ShardResult &Sh : Shards)
    for (auto &[StreamId, Frames] : Sh.Sites) {
      SiteId Local = Log.Sites.internFrames(std::move(Frames));
      if (StreamId >= SiteMap.size())
        SiteMap.resize(StreamId + 1, InvalidSite);
      SiteMap[StreamId] = Local;
    }
  auto MapSite = [&](SiteId StreamId) {
    return StreamId < SiteMap.size() ? SiteMap[StreamId] : InvalidSite;
  };
  if (SiteMapOut)
    *SiteMapOut = SiteMap;

  // Each shard's entry boundary is the previous shard's last deep-GC
  // time (inherited across shards that saw none); shard 0 enters at 0,
  // like the sequential profiler's initial IntervalStart.
  std::vector<ByteTime> Entry(Shards.size(), 0);
  for (std::size_t K = 1; K < Shards.size(); ++K)
    Entry[K] =
        Shards[K - 1].HasExit ? Shards[K - 1].ExitInterval : Entry[K - 1];

  PagedTable<MergedTrailer> Merged;
  for (std::size_t K = 0; K < Shards.size(); ++K)
    Shards[K].Table.forEachLive([&](ObjectId Id, const PartialTrailer &Pt) {
      foldPartial(Merged.get(Id), Pt, Entry[K]);
    });

  std::unordered_set<std::uint32_t> Excluded;
  for (ir::ClassId C : Config.ExcludedClasses)
    Excluded.insert(C.Index);

  for (ShardResult &Sh : Shards) {
    for (const EndEvent &End : Sh.Ends) {
      MergedTrailer *T = Merged.find(End.Id);
      if (!T || !T->HasAlloc || T->Ended)
        continue; // VM-internal id, or already collected (first wins)
      T->Ended = true;
      if (!T->IsArray && Excluded.count(T->Class.Index) != 0)
        continue;
      ObjectRecord Rec;
      Rec.Id = End.Id;
      Rec.Class = T->Class;
      Rec.AKind = T->AKind;
      Rec.IsArray = T->IsArray;
      Rec.Bytes = T->Bytes;
      Rec.AllocTime = T->AllocTime;
      Rec.FirstUseTime = T->HasFirstNonInit
                             ? std::max(T->FirstNonInitRaw, T->AllocTime)
                             : T->AllocTime;
      Rec.LastUseTime =
          T->HasUseMax ? std::max(T->UseMaxRaw, T->AllocTime) : T->AllocTime;
      Rec.CollectTime = End.Time;
      Rec.AllocSite = Fold ? T->AllocSiteStream : MapSite(T->AllocSiteStream);
      Rec.LastUseSite =
          Fold ? T->LastUseSiteStream : MapSite(T->LastUseSiteStream);
      Rec.UseCount = T->UseCount;
      Rec.UsedOutsideInit = T->HasFirstNonInit;
      Rec.SurvivedToEnd = End.Survived;
      if (Fold)
        Fold->onMergedRecord(Rec);
      else
        Log.Records.push_back(Rec);
    }
    Log.GCSamples.insert(Log.GCSamples.end(), Sh.Samples.begin(),
                         Sh.Samples.end());
    if (Sh.SawTerminate)
      Log.EndTime = Sh.TerminateTime;
  }
  Out = std::move(Log);
}

/// The one sharded driver behind replayProfileParallel and its fold
/// variant. Returns false when anything prevents a sharded result -- an
/// unreadable file, a bad header, a damaged footer, a stream the index
/// rebuild rejects, too few chunks to split, or damage the decode finds
/// -- and the caller runs the sequential path, which produces the
/// canonical result or error message for that input.
bool replaySharded(const std::string &Path, const ProfilerConfig &Config,
                   unsigned Jobs, ShardFoldSink *Fold, ProfileLog &Out,
                   std::vector<SiteId> *SiteMapOut) {
  ChunkReader R;
  ChunkIndex Idx;
  if (R.open(Path) != HeaderStatus::Ok || !R.index(Idx) ||
      Idx.Entries.size() < 2)
    return false;
  std::unordered_set<std::uint32_t> Excluded;
  for (ir::ClassId C : Config.ExcludedClasses)
    Excluded.insert(C.Index);
  std::vector<ShardResult> Shards;
  if (!runSharded(R, Idx, Jobs, Config.SnapUseTimes, Shards, Fold,
                  Excluded)) {
    // A footer is a producer claim; when reality disagrees, distrust it
    // once, rebuild the index from the bytes and re-shard (a fold sink
    // drops what the failed attempt folded). A failure against a
    // rebuilt index means real damage.
    if (!Idx.FromFooter || !R.rebuildIndex(Idx) ||
        !runSharded(R, Idx, Jobs, Config.SnapUseTimes, Shards, Fold,
                    Excluded))
      return false;
  }
  mergeShards(Shards, Config, Out, Fold, SiteMapOut);
  stampStreamHeader(Out, R.header());
  return true;
}

} // namespace

unsigned jdrag::profiler::defaultReplayJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

bool jdrag::profiler::replayProfileParallel(const std::string &Path,
                                            const ir::Program &P,
                                            ProfilerConfig Config,
                                            unsigned Jobs, ProfileLog &Out,
                                            std::string *Err) {
  if (Jobs == 0)
    Jobs = defaultReplayJobs();
  if (Jobs > 1 && replaySharded(Path, Config, Jobs, nullptr, Out, nullptr))
    return true;
  return replayProfile(Path, P, std::move(Config), Out, Err);
}

bool jdrag::profiler::replayProfileParallelFold(
    const std::string &Path, const ir::Program &P, ProfilerConfig Config,
    unsigned Jobs, ShardFoldSink &Sink, ProfileLog &Shell,
    std::vector<SiteId> &SiteMapOut, std::string *Err) {
  if (Jobs == 0)
    Jobs = defaultReplayJobs();
  if (Jobs > 1 && replaySharded(Path, Config, Jobs, &Sink, Shell, &SiteMapOut))
    return true;
  // One logical shard, fed by the sequential streaming profiler. Its
  // records already carry log-local site ids, so the map the caller
  // remaps with is the identity over Shell.Sites.
  Sink.beginAttempt(1);
  class Adapter : public RecordSink {
  public:
    explicit Adapter(ShardFoldSink &S) : S(S) {}
    void onRecord(const ObjectRecord &R) override { S.onShardRecord(0, R); }

  private:
    ShardFoldSink &S;
  } A(Sink);
  if (!replayProfileTo(Path, P, Config, A, Shell, Err))
    return false;
  SiteMapOut.resize(Shell.Sites.size());
  for (std::size_t I = 0; I < SiteMapOut.size(); ++I)
    SiteMapOut[I] = static_cast<SiteId>(I);
  return true;
}
