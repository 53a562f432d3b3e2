//===- analysis/StreamingAnalysis.cpp -------------------------------------===//

#include "analysis/StreamingAnalysis.h"

#include "analysis/RecordFold.h"
#include "profiler/ParallelReplay.h"

#include <algorithm>
#include <optional>

using namespace jdrag;
using namespace jdrag::analysis;
using namespace jdrag::profiler;

namespace {

ByteTime maxLastTime(const ChunkIndex &Idx) {
  ByteTime End = 0;
  for (const ChunkIndexEntry &En : Idx.Entries)
    End = std::max(End, En.LastTime);
  return End;
}

/// The per-shard fold sets and ShardFoldSink gluing the sharded replay
/// to the fold engine. One set per shard; boundary-crossing records
/// (delivered single-threaded by the merge step) fold into set 0, which
/// is sound because fold-then-merge is exactly order-free.
class ShardedFolds : public ShardFoldSink {
public:
  ShardedFolds(const StreamAnalysisOptions &O, std::uint64_t SampleRate,
               ByteTime CurveEnd)
      : O(O), SampleRate(SampleRate), CurveEnd(CurveEnd) {}

  void beginAttempt(unsigned ShardCount) override {
    LastShardCount = ShardCount;
    Sets.clear();
    Sets.resize(ShardCount);
    for (Set &S : Sets) {
      if (O.WantReport)
        S.SG.emplace(SampleRate, 0);
      if (O.WantLifetimes)
        S.LF.emplace();
      if (O.CurveSamples)
        S.CF.emplace(CurveEnd, O.CurveSamples);
    }
  }

  void onShardRecord(unsigned Shard, const ObjectRecord &R) override {
    foldInto(Sets[Shard], R);
  }

  void onMergedRecord(const ObjectRecord &R) override {
    foldInto(Sets[0], R);
  }

  /// Merges shards 1..N-1 into shard 0 in shard order (any fixed order
  /// gives the same bits) and remaps stream site ids to log-local ids.
  void mergeAndRemap(const std::vector<SiteId> &SiteMap) {
    for (std::size_t K = 1; K < Sets.size(); ++K) {
      if (O.WantReport)
        Sets[0].SG->merge(*Sets[K].SG);
      if (O.WantLifetimes)
        Sets[0].LF->merge(*Sets[K].LF);
      if (O.CurveSamples)
        Sets[0].CF->merge(*Sets[K].CF);
    }
    if (O.WantReport)
      Sets[0].SG->remapSites(SiteMap);
  }

  SiteGroupFold *report() { return Sets[0].SG ? &*Sets[0].SG : nullptr; }
  LifetimeFold *lifetimes() { return Sets[0].LF ? &*Sets[0].LF : nullptr; }
  HeapCurveFold *curve() { return Sets[0].CF ? &*Sets[0].CF : nullptr; }

  std::uint64_t recordCount() const {
    std::uint64_t N = 0;
    for (const Set &S : Sets)
      N += S.Records;
    return N;
  }

  std::size_t stateBytes() const {
    std::size_t N = 0;
    for (const Set &S : Sets) {
      if (S.SG)
        N += S.SG->stateBytes();
      if (S.LF)
        N += S.LF->stateBytes();
      if (S.CF)
        N += S.CF->stateBytes();
    }
    return N;
  }

  unsigned lastShardCount() const { return LastShardCount; }

private:
  struct Set {
    std::optional<SiteGroupFold> SG;
    std::optional<LifetimeFold> LF;
    std::optional<HeapCurveFold> CF;
    std::uint64_t Records = 0;
  };

  void foldInto(Set &S, const ObjectRecord &R) {
    ++S.Records;
    if (S.SG)
      S.SG->fold(R);
    if (S.LF)
      S.LF->fold(R);
    if (S.CF)
      S.CF->fold(R);
  }

  const StreamAnalysisOptions &O;
  std::uint64_t SampleRate;
  ByteTime CurveEnd;
  std::vector<Set> Sets;
  unsigned LastShardCount = 0;
};

/// One streaming pass over the recording, with the curve grid ending at
/// \p CurveEnd.
bool analyzePass(const std::string &Path, const ir::Program &P,
                 const StreamAnalysisOptions &O, ByteTime CurveEnd,
                 StreamAnalysisResult &Out, std::string *Err) {
  StreamHeaderInfo Info;
  if (!readStreamHeader(Path, Info, Err))
    return false;
  std::uint64_t SampleRate = Info.Sampling.SampleBytes;

  // The CSV export writes rows in record order, so it pins the pass to
  // one decode thread; everything else shards.
  if (O.Jobs > 1 && O.ExportCsvPath.empty()) {
    ShardedFolds Folds(O, SampleRate, CurveEnd);
    auto Shell = std::make_unique<ProfileLog>();
    std::vector<SiteId> SiteMap;
    if (!replayProfileParallelFold(Path, P, O.Config, O.Jobs, Folds, *Shell,
                                   SiteMap, Err))
      return false;
    Folds.mergeAndRemap(SiteMap);
    Out.Sharded = Folds.lastShardCount() > 1;
    Out.RecordsFolded = Folds.recordCount();
    Out.FoldStateBytes = Folds.stateBytes();
    if (LifetimeFold *LF = Folds.lifetimes())
      Out.Lifetimes = LF->finish();
    if (HeapCurveFold *CF = Folds.curve())
      Out.Curve = CF->finish();
    Out.Shell = std::move(Shell);
    if (SiteGroupFold *SG = Folds.report())
      Out.Report = std::make_unique<DragReport>(
          P, *Out.Shell, SG->finish(P, Out.Shell->Sites));
    return true;
  }

  // Sequential: one DragProfiler decode with a record sink fanning out
  // to every requested fold. The profiler is driven directly (rather
  // than through replayProfileTo) so the export fold can reference the
  // live site table while rows stream out.
  DragProfiler Prof(P, O.Config);
  std::optional<SiteGroupFold> SG;
  std::optional<LifetimeFold> LF;
  std::optional<HeapCurveFold> CF;
  std::optional<CsvExportFold> EX;
  FoldPipeline Pipe;
  if (O.WantReport) {
    SG.emplace(SampleRate, 0);
    Pipe.attach(*SG);
  }
  if (O.WantLifetimes) {
    LF.emplace();
    Pipe.attach(*LF);
  }
  if (O.CurveSamples) {
    CF.emplace(CurveEnd, O.CurveSamples);
    Pipe.attach(*CF);
  }
  if (!O.ExportCsvPath.empty()) {
    EX.emplace(P, Prof.log().Sites, O.ExportCsvPath);
    Pipe.attach(*EX);
  }

  class PipeSink : public RecordSink {
  public:
    explicit PipeSink(FoldPipeline &Pipe) : Pipe(Pipe) {}
    void onRecord(const ObjectRecord &R) override { Pipe.fold(R); }

  private:
    FoldPipeline &Pipe;
  } Sink(Pipe);
  Prof.setRecordSink(&Sink);

  if (!replayFile(Path, Prof, Err, &Info))
    return false;
  Out.PeakTrailers = Prof.peakLiveTrailers();
  auto Shell = std::make_unique<ProfileLog>(Prof.takeLog());
  stampStreamHeader(*Shell, Info);

  Out.Sharded = false;
  Out.RecordsFolded = Pipe.recordCount();
  Out.FoldStateBytes = Pipe.stateBytes();
  if (LF)
    Out.Lifetimes = LF->finish();
  if (CF)
    Out.Curve = CF->finish();
  if (EX) {
    if (!EX->finish()) {
      if (Err)
        *Err = "cannot write " + O.ExportCsvPath;
      return false;
    }
    Out.ExportRows = EX->rowCount();
  }
  Out.Shell = std::move(Shell);
  if (SG)
    Out.Report = std::make_unique<DragReport>(P, *Out.Shell,
                                              SG->finish(P, Out.Shell->Sites));
  return true;
}

} // namespace

bool jdrag::analysis::peekStreamEndTime(const std::string &Path,
                                        ByteTime &End) {
  ChunkReader R;
  ChunkIndex Idx;
  if (R.open(Path) != HeaderStatus::Ok || !R.index(Idx))
    return false;
  End = maxLastTime(Idx);
  return true;
}

bool jdrag::analysis::analyzeEventStream(const std::string &Path,
                                         const ir::Program &P,
                                         const StreamAnalysisOptions &O,
                                         StreamAnalysisResult &Out,
                                         std::string *Err) {
  // The curve fold needs its grid -- i.e. the end time -- before the
  // first record arrives: take it from the chunk index (0 when there is
  // none to read). The decode is ground truth, though: a footer may lie
  // about times and a damaged stream has no index, and a grid built
  // from a wrong end time would misplace events, so when the decoded
  // end time disagrees the pass runs once more with it.
  ByteTime CurveEnd = 0;
  if (O.CurveSamples)
    peekStreamEndTime(Path, CurveEnd);
  if (!analyzePass(Path, P, O, CurveEnd, Out, Err))
    return false;
  if (!O.CurveSamples || Out.Shell->EndTime == CurveEnd)
    return true;
  CurveEnd = Out.Shell->EndTime;
  Out = StreamAnalysisResult();
  return analyzePass(Path, P, O, CurveEnd, Out, Err);
}
