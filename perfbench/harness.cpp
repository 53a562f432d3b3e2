//===- perfbench/harness.cpp - jdrag's end-to-end benchmark ---------------===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
//
// One process runs one workload:
//
//   perfbench --workload record-churn|analyse-mix|fleet --seed N
//             --seconds S --trace 0|1 --work DIR [--scale K] [--min-ops N]
//
// It sets the workload up five times (the median is setup_s), then runs
// timed operations until S seconds have passed. Every operation's output
// is checked against a producer independent of the timed path; a failed
// check counts the operation as failed. With --trace 1 the first part of
// the budget runs untraced operations and the rest traced ones, whose
// spans give the per-layer metrics. The last line of stdout is the JSON
// result. perfbench/NOTES.md defines every metric.
//
//===----------------------------------------------------------------------===//

#include "trace.h"

#include "analysis/LagDragVoid.h"
#include "analysis/ReportPrinter.h"
#include "analysis/StreamingAnalysis.h"
#include "benchmarks/Benchmarks.h"
#include "daemon/Daemon.h"
#include "profiler/ParallelReplay.h"
#include "profiler/SocketEventSink.h"
#include "support/Lz.h"
#include "support/Random.h"
#include "support/Units.h"
#include "vm/VirtualMachine.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>

#include <malloc.h>
#include <sys/resource.h>

namespace fs = std::filesystem;
using namespace jdrag;
using namespace perfbench;
using benchmarks::BenchmarkProgram;

namespace {

constexpr std::uint64_t DeepGCInterval = 100 * KB; // the CLI's default
constexpr std::uint32_t CurveCols = 76;             // `jdrag timeline` grid
constexpr std::uint64_t FleetSampleBytes = 64 * KB;

//===----------------------------------------------------------------------===//
// Measurement helpers
//===----------------------------------------------------------------------===//

double processCpuNow() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) * 1e-6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// Returns freed heap to the kernel, then resets the kernel's peak-RSS
/// mark (VmHWM) to the current RSS, so the next read covers one
/// operation only. False where /proc/self/clear_refs is not writable.
bool resetPeakRss() {
  malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

/// Peak resident set in MB: VmHWM, or the process lifetime peak when
/// /proc is not readable.
double peakRssMB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

double fileMB(const std::string &Path) {
  std::error_code EC;
  auto N = fs::file_size(Path, EC);
  return EC ? 0 : toMB(N);
}

/// Wall and process CPU (all threads) over one timed interval.
struct Stopwatch {
  double W0 = wallNow(), C0 = processCpuNow();
  double wall() const { return wallNow() - W0; }
  double cpu() const { return processCpuNow() - C0; }
};

//===----------------------------------------------------------------------===//
// Inputs and references
//===----------------------------------------------------------------------===//

std::uint64_t fnv1a(const std::string &S) {
  std::uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : S)
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ULL;
  return H;
}

/// Uncompressed event-stream bytes of an exact run on \p In.
std::uint64_t eventBytes(const ir::Program &P,
                         const std::vector<std::int64_t> &In);

/// The program's inputs for this seed. Seed 0 is the Table 2
/// configuration (DefaultInputs, the one `jdrag record` uses) with its
/// size times \p Scale. For any other seed, every input but the first is
/// drawn uniformly from the values strictly between its Table 2 and
/// Table 3 (AlternateInputs) values, or is their common value when they
/// agree. The end values are left out of the draw because javac's Table 2
/// value (document every unit) is an outlier: at the same event volume
/// its recording is ~30% smaller and its heap smaller than any other
/// value's, so a set of seeds that drew it often swung jdev_MB and
/// peak_rss_MB to the edge of their bounds. The first input, the size, is
/// the Table 2 size times \p Scale, corrected so the run emits as many
/// event bytes as the Table 2 inputs would: the drawn inputs change the
/// shape of the work but not its amount, so the seed does not swing the
/// timings. The correction comes from two unscaled runs and is
/// deterministic.
std::vector<std::int64_t> drawInputs(const BenchmarkProgram &B,
                                     std::uint64_t Seed, std::uint64_t Scale) {
  std::vector<std::int64_t> In = B.DefaultInputs;
  SplitMix64 R(Seed ^ fnv1a(B.Name));
  for (std::size_t I = 1;
       Seed != 0 && I < In.size() && I < B.AlternateInputs.size(); ++I) {
    std::int64_t Lo = std::min(B.DefaultInputs[I], B.AlternateInputs[I]);
    std::int64_t Hi = std::max(B.DefaultInputs[I], B.AlternateInputs[I]);
    if (Hi - Lo >= 2) {
      ++Lo;
      --Hi;
    }
    In[I] = Lo + static_cast<std::int64_t>(
                     R.nextBelow(static_cast<std::uint64_t>(Hi - Lo) + 1));
  }
  double Size = static_cast<double>(B.DefaultInputs[0]) *
                static_cast<double>(Scale);
  if (In != B.DefaultInputs)
    Size *= static_cast<double>(eventBytes(B.Prog, B.DefaultInputs)) /
            static_cast<double>(eventBytes(B.Prog, In));
  In[0] = std::max<std::int64_t>(1, std::llround(Size));
  return In;
}

std::string describeInputs(const BenchmarkProgram &B,
                           const std::vector<std::int64_t> &In) {
  std::string S = B.Name + "{";
  for (std::size_t I = 0; I != In.size(); ++I)
    S += (I ? "," : "") + std::to_string(In[I]);
  return S + "}";
}

/// What the in-process profiler (a live DragProfiler fed straight from
/// the VM, no file in between) says about one run.
struct Reference {
  std::vector<std::int64_t> Outputs;
  std::string Report;
  analysis::HeapCurve Curve;
  std::string Lifetimes;
};

Reference reference(const ir::Program &P, std::vector<std::int64_t> Outputs,
                    const profiler::ProfileLog &Log, bool CurveAndLifetimes) {
  Reference Ref;
  Ref.Outputs = std::move(Outputs);
  Ref.Report = analysis::renderDragReport(analysis::DragReport(P, Log));
  if (CurveAndLifetimes) {
    Ref.Curve = analysis::buildHeapCurve(Log, CurveCols);
    Ref.Lifetimes =
        analysis::renderDecomposition(analysis::decomposeLifetimes(Log));
  }
  return Ref;
}

bool sameCurve(const analysis::HeapCurve &A, const analysis::HeapCurve &B) {
  return A.Times == B.Times && A.ReachableBytes == B.ReachableBytes &&
         A.InUseBytes == B.InUseBytes;
}

//===----------------------------------------------------------------------===//
// Recording and analysis through the public API, as the CLI does them
//===----------------------------------------------------------------------===//

/// The header format `jdrag record` writes (compression on by default).
profiler::WireFormat fileFormat(const profiler::SamplingParams &SP) {
  return profiler::effectiveFormat(profiler::DefaultWireFormat, SP,
                                   /*Compress=*/true);
}

struct VMRun {
  bool Ok = false;
  std::string Err;
  std::vector<std::int64_t> Outputs;
  profiler::StreamHealth Health;
  std::uint64_t Steps = 0, GCs = 0, Allocated = 0;
};

/// Runs \p P on \p In with its events going to \p Sink, on a fresh
/// thread. The LZ matcher (support/Lz.cpp) keeps a thread-local hash
/// table across calls, and its output depends on what the thread
/// compressed before (see NOTES.md); a fresh thread compresses exactly
/// as a fresh `jdrag record` process does, so every recording of the
/// same run is byte-identical.
VMRun runVM(const ir::Program &P, const std::vector<std::int64_t> &In,
            profiler::EventSink &Sink, const profiler::SamplingParams &SP) {
  VMRun R;
  std::thread([&] {
    vm::VMOptions Opts;
    Opts.DeepGCIntervalBytes = DeepGCInterval;
    Opts.Sink = &Sink;
    Opts.EventFormat = profiler::DefaultWireFormat;
    Opts.SampleBytes = SP.SampleBytes;
    Opts.SampleSeed = SP.SampleSeed;
    vm::VirtualMachine VM(P, Opts);
    VM.setInputs(In);
    R.Ok = VM.run(&R.Err) == vm::Interpreter::Status::Ok;
    R.Outputs = VM.outputs();
    R.Health = VM.streamHealth();
    R.Steps = VM.interpreter().steps();
    R.GCs = VM.heap().gcCount();
    R.Allocated = VM.heap().clock();
  }).join();
  return R;
}

std::uint64_t eventBytes(const ir::Program &P,
                         const std::vector<std::int64_t> &In) {
  profiler::NullSink Null;
  runVM(P, In, Null, {});
  return Null.bytesDiscarded();
}

bool openRecording(profiler::FileEventSink &File, const std::string &Path,
                   const profiler::SamplingParams &SP, bool Compress) {
  profiler::FileEventSink::Options FO;
  FO.Format = fileFormat(SP);
  FO.Sampling = SP;
  FO.Compress = Compress;
  return File.open(Path, FO);
}

/// Empty when \p R is a complete, loss-free run with \p Outputs.
std::string checkRun(const VMRun &R, const std::vector<std::int64_t> &Outputs) {
  if (!R.Ok)
    return "run failed: " + R.Err;
  if (!R.Health.intact() || R.Health.SpooledChunks || R.Health.Failovers)
    return "stream lost or spooled " +
           std::to_string(R.Health.ChunksDropped + R.Health.SpooledChunks) +
           " chunks";
  if (R.Outputs != Outputs)
    return "program outputs differ from the reference run";
  return "";
}

struct Analysis {
  analysis::StreamAnalysisResult Result;
  std::string Report, Lifetimes;
};

/// One analyzeEventStream pass asking for what `jdrag report`,
/// `timeline` and `lagdragvoid` print, with the report and lifetimes
/// rendered.
bool analyse(const std::string &Path, const ir::Program &P, unsigned Jobs,
             bool Full, Analysis &A, std::string &Err) {
  analysis::StreamAnalysisOptions O;
  O.Jobs = Jobs;
  O.WantLifetimes = Full;
  O.CurveSamples = Full ? CurveCols : 0;
  if (!analysis::analyzeEventStream(Path, P, O, A.Result, &Err))
    return false;
  A.Report = analysis::renderDragReport(*A.Result.Report);
  if (Full)
    A.Lifetimes = analysis::renderDecomposition(A.Result.Lifetimes);
  return true;
}

std::string checkAnalysis(const Analysis &A, const Reference &Ref, bool Full) {
  if (A.Report != Ref.Report)
    return "report differs from the in-process report";
  if (Full && !sameCurve(A.Result.Curve, Ref.Curve))
    return "heap curve differs from the in-process curve";
  if (Full && A.Lifetimes != Ref.Lifetimes)
    return "lifetimes differ from the in-process lifetimes";
  return "";
}

void addEventCounts(const EventCounter &C, std::map<std::string, double> &L) {
  L["profiler.events"] += static_cast<double>(C.Total);
  L["profiler.events.alloc"] +=
      static_cast<double>(C.count(profiler::EventKind::Alloc));
  L["profiler.events.use"] +=
      static_cast<double>(C.count(profiler::EventKind::Use));
}

void countEvents(const std::string &Path, std::map<std::string, double> &L) {
  EventCounter C;
  std::string Err;
  if (!profiler::replayFile(Path, C, &Err))
    std::fprintf(stderr, "perfbench: counting events in %s: %s\n",
                 Path.c_str(), Err.c_str());
  addEventCounts(C, L);
}

/// Times lzDecompress alone over every compressed chunk payload of the
/// recording at \p Path, located through its chunk index footer. \p Err
/// is set when the footer or a payload cannot be read or decompressed.
double timeLzDecompress(const std::string &Path, std::string &Err) {
  Err.clear();
  std::string Bytes = readFile(Path);
  profiler::StreamHeaderInfo Info;
  if (!profiler::readStreamHeader(Path, Info, &Err))
    return 0;
  std::size_t Hdr = profiler::streamHeaderBytes(Info.Format);
  if (Bytes.size() < Hdr) {
    Err = "short recording";
    return 0;
  }
  auto *Base = reinterpret_cast<const std::byte *>(Bytes.data()) + Hdr;
  std::span<const std::byte> Stream(Base, Bytes.size() - Hdr);
  profiler::ChunkIndex Index;
  if (!profiler::readChunkIndexFooter(Stream, Index)) {
    Err = "no chunk index footer";
    return 0;
  }
  std::vector<std::uint8_t> Out;
  double Spent = 0;
  for (const profiler::ChunkIndexEntry &E : Index.Entries) {
    profiler::ChunkHeader H;
    if (E.Offset + sizeof(H) > Stream.size()) {
      Err = "chunk index entry points past the end of the recording";
      break;
    }
    std::memcpy(&H, Stream.data() + E.Offset, sizeof(H));
    std::uint32_t Wire = profiler::chunkWireBytes(H.PayloadBytes);
    if (!profiler::chunkCompressed(H.PayloadBytes))
      continue;
    if (E.Offset + sizeof(H) + Wire > Stream.size()) {
      Err = "compressed payload runs past the end of the recording";
      break;
    }
    double T0 = wallNow();
    bool Ok = support::lzDecompress(Stream.data() + E.Offset + sizeof(H), Wire,
                                    Out, profiler::MaxChunkPayload);
    Spent += wallNow() - T0;
    if (!Ok)
      Err = "lzDecompress failed";
  }
  return Spent;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Context {
  std::uint64_t Seed = 1;
  std::uint64_t Scale = 0; ///< 0 = each workload's default
  std::string Work;        ///< directory for recordings and spans
};

/// One timed operation's figures. Layers is filled by traced ones only.
struct OpResult {
  double Wall = 0, Cpu = 0, RssMB = 0, MBWritten = 0;
  unsigned Attempted = 0, Failed = 0;
  std::map<std::string, double> Layers;

  void fail(const std::string &What, const std::string &Why) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", What.c_str(),
                 Why.c_str());
  }
};

class Workload {
public:
  explicit Workload(const Context &C) : C(C) {}
  virtual ~Workload() = default;
  /// Builds the programs, records fixtures and computes references.
  /// False (with a message on stderr) when the set-up itself fails.
  virtual bool setup() = 0;
  /// One operation; traced when \p T is non-null, its spans tagged \p Op.
  virtual OpResult run(Tracer *T, int Op) = 0;

protected:
  std::uint64_t scale(std::uint64_t Default) const {
    return C.Scale ? C.Scale : Default;
  }
  std::string path(const std::string &Name) const {
    return C.Work + "/" + Name;
  }
  const Context &C;
};

/// javac recorded exactly to a v6 compressed file through a synchronous
/// FileEventSink -- `jdrag record javac` at scale.
class RecordChurn : public Workload {
public:
  using Workload::Workload;

  bool setup() override {
    B = benchmarks::buildJavac();
    In = drawInputs(B, C.Seed, scale(40));
    benchmarks::RunResult Run =
        benchmarks::profiledRun(B.Prog, In, DeepGCInterval);
    Ref = reference(B.Prog, Run.Outputs, Run.Log, /*CurveAndLifetimes=*/false);
    std::fprintf(stderr, "perfbench: record-churn inputs %s\n",
                 describeInputs(B, In).c_str());
    return true;
  }

  OpResult run(Tracer *T, int Op) override {
    OpResult R;
    R.Attempted = 1;
    const std::string Out = path(T ? "churn-traced.jdev" : "churn.jdev");
    profiler::FileEventSink File;
    // Traced: the split sink compresses, the file sink writes verbatim.
    if (!openRecording(File, Out, {}, /*Compress=*/T == nullptr)) {
      R.fail("record-churn", "cannot write " + Out);
      return R;
    }
    Stopwatch SW;
    std::unique_ptr<SplitSink> Split;
    VMRun V;
    {
      Scope Run(T, "vm.run", Op);
      if (T)
        Split = std::make_unique<SplitSink>(File, *T, Op, Run.id());
      V = runVM(B.Prog, In,
                Split ? static_cast<profiler::EventSink &>(*Split) : File, {});
    }
    R.Wall = SW.wall();
    R.Cpu = SW.cpu();
    R.RssMB = peakRssMB();
    R.MBWritten = fileMB(Out);

    std::string Why = checkRun(V, Ref.Outputs);
    if (Why.empty() && !T) {
      Analysis A;
      std::string Err;
      if (!analyse(Out, B.Prog, profiler::defaultReplayJobs(), false, A, Err))
        Why = "recording does not replay: " + Err;
      else
        Why = checkAnalysis(A, Ref, false);
    }
    if (Why.empty() && T && readFile(Out) != readFile(path("churn.jdev")))
      Why = "traced recording differs from the untraced one";
    if (!Why.empty())
      R.fail("record-churn", Why);

    if (T) {
      auto &L = R.Layers;
      L["profiler.compress_s"] = T->total("profiler.compress", Op);
      L["profiler.sink_write_s"] = T->total("profiler.sink_write", Op);
      L["vm.run_self_s"] = T->self("vm.run", Op);
      L["vm.steps"] = static_cast<double>(V.Steps);
      L["vm.gc_cycles"] = static_cast<double>(V.GCs);
      L["vm.alloc_MB"] = toMB(V.Allocated);
      L["profiler.chunks"] = static_cast<double>(Split->dataChunks());
      L["profiler.raw_MB"] = toMB(Split->compressor().rawPayloadBytes());
      L["profiler.wire_MB"] = toMB(Split->compressor().wirePayloadBytes());
      countEvents(Out, L);
    }
    return R;
  }

private:
  BenchmarkProgram B;
  std::vector<std::int64_t> In;
  Reference Ref;
};

/// Streaming analysis of javac, jess and jack recordings made in set-up:
/// one analyzeEventStream pass per fixture for report, curve and
/// lifetimes -- `jdrag report|timeline|lagdragvoid prog file.jdev`.
class AnalyseMix : public Workload {
public:
  using Workload::Workload;

  bool setup() override {
    Fixtures.clear();
    for (auto Build : {benchmarks::buildJavac, benchmarks::buildJess,
                       benchmarks::buildJack}) {
      Fixture F;
      F.B = Build();
      F.In = drawInputs(F.B, C.Seed, scale(40));
      F.Path = path("fixture-" + F.B.Name + ".jdev");
      // One run both records the fixture and feeds a live DragProfiler
      // in-process; the profiler's materialized log is the reference.
      profiler::FileEventSink File;
      if (!openRecording(File, F.Path, {}, /*Compress=*/true)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", F.Path.c_str());
        return false;
      }
      profiler::DragProfiler Live(F.B.Prog);
      profiler::TeeSink Tee(File, Live.sink());
      VMRun V = runVM(F.B.Prog, F.In, Tee, {});
      Live.noteStreamHealth(V.Health);
      F.Ref = reference(F.B.Prog, V.Outputs, Live.takeLog(), true);
      std::string Why = checkRun(V, V.Outputs);
      if (!Why.empty()) {
        std::fprintf(stderr, "perfbench: fixture %s: %s\n", F.B.Name.c_str(),
                     Why.c_str());
        return false;
      }
      std::fprintf(stderr, "perfbench: analyse-mix fixture %s, %.1f MB\n",
                   describeInputs(F.B, F.In).c_str(), fileMB(F.Path));
      Fixtures.push_back(std::move(F));
    }
    return true;
  }

  OpResult run(Tracer *T, int Op) override {
    return T ? traced(*T, Op) : untraced();
  }

private:
  struct Fixture {
    BenchmarkProgram B;
    std::vector<std::int64_t> In;
    std::string Path;
    Reference Ref;
  };

  OpResult untraced() {
    OpResult R;
    std::vector<Analysis> As(Fixtures.size());
    std::vector<std::string> Errs(Fixtures.size());
    std::vector<bool> Ok(Fixtures.size());
    Stopwatch SW;
    for (std::size_t I = 0; I != Fixtures.size(); ++I)
      Ok[I] = analyse(Fixtures[I].Path, Fixtures[I].B.Prog,
                      profiler::defaultReplayJobs(), true, As[I], Errs[I]);
    R.Wall = SW.wall();
    R.Cpu = SW.cpu();
    R.RssMB = peakRssMB();
    for (std::size_t I = 0; I != Fixtures.size(); ++I) {
      ++R.Attempted;
      R.MBWritten += fileMB(Fixtures[I].Path);
      std::string Why = Ok[I] ? checkAnalysis(As[I], Fixtures[I].Ref, true)
                              : "analysis failed: " + Errs[I];
      if (!Why.empty())
        R.fail("analyse-mix " + Fixtures[I].B.Name, Why);
    }
    return R;
  }

  /// Per fixture: decode alone, LZ alone, decode + trailer table, the
  /// full sequential pass, then the sharded pass the untraced op runs.
  OpResult traced(Tracer &T, int Op) {
    OpResult R;
    auto &L = R.Layers;
    for (const Fixture &F : Fixtures) {
      ++R.Attempted;
      R.MBWritten += fileMB(F.Path);
      std::string Err, Why;
      const ir::Program &P = F.B.Prog;

      EventCounter Events;
      {
        Scope S(&T, "profiler.decode", Op);
        if (!profiler::replayFile(F.Path, Events, &Err))
          Why = "decode failed: " + Err;
      }
      addEventCounts(Events, L);

      std::string LzErr;
      L["support.lz_decompress_s"] += timeLzDecompress(F.Path, LzErr);
      if (!LzErr.empty() && Why.empty())
        Why = "LZ payloads: " + LzErr;

      RecordCounter Records;
      profiler::ProfileLog Shell;
      std::size_t Peak = 0;
      {
        Scope S(&T, "profiler.replay_to", Op);
        if (!profiler::replayProfileTo(F.Path, P, profiler::ProfilerConfig(),
                                       Records, Shell, &Err, &Peak))
          Why = "replayProfileTo failed: " + Err;
      }
      L["profiler.peak_trailers"] += static_cast<double>(Peak);

      Analysis Seq;
      {
        Scope S(&T, "analysis.jobs1", Op);
        if (!analyse(F.Path, P, 1, true, Seq, Err))
          Why = "sequential analysis failed: " + Err;
      }
      L["analysis.records_folded"] +=
          static_cast<double>(Seq.Result.RecordsFolded);
      L["analysis.fold_state_KB"] +=
          static_cast<double>(Seq.Result.FoldStateBytes) / 1024.0;

      Analysis Shard;
      {
        Scope S(&T, "analysis.sharded", Op);
        if (!analyse(F.Path, P, profiler::defaultReplayJobs(), true, Shard,
                     Err))
          Why = "sharded analysis failed: " + Err;
      }
      if (Why.empty())
        Why = checkAnalysis(Shard, F.Ref, true);
      if (Why.empty())
        Why = checkAnalysis(Seq, F.Ref, true);
      if (Why.empty() && Records.Records != Seq.Result.RecordsFolded)
        Why = "replayProfileTo and the fold disagree on the record count";
      if (!Why.empty())
        R.fail("analyse-mix " + F.B.Name, Why);
      std::fprintf(stderr,
                   "perfbench: %s: %llu records folded, peak trailers %zu, "
                   "fold state %.1f KB\n",
                   F.B.Name.c_str(),
                   static_cast<unsigned long long>(Seq.Result.RecordsFolded),
                   Peak, static_cast<double>(Seq.Result.FoldStateBytes) / 1024);
    }
    double Decode = T.total("profiler.decode", Op);
    double ReplayTo = T.total("profiler.replay_to", Op);
    double Jobs1 = T.total("analysis.jobs1", Op);
    double Sharded = T.total("analysis.sharded", Op);
    L["profiler.decode_s"] = Decode;
    L["profiler.trailers_self_s"] = ReplayTo - Decode;
    L["analysis.fold_self_s"] = Jobs1 - ReplayTo;
    L["analysis.sharded_s"] = Sharded;
    L["analysis.shard_speedup_x"] = Sharded > 0 ? Jobs1 / Sharded : 0;
    R.Wall = Sharded; // the traced twin of the untraced operation
    return R;
  }

  std::vector<Fixture> Fixtures;
};

/// An in-process CollectorDaemon on a unix socket; jess (exact) and
/// jack (sampled) stream compressed chunks to it from two threads.
class Fleet : public Workload {
public:
  using Workload::Workload;

  bool setup() override {
    Clients.clear();
    Clients.resize(2);
    Clients[0].B = benchmarks::buildJess();
    Clients[0].In = drawInputs(Clients[0].B, C.Seed, scale(40));
    Clients[1].B = benchmarks::buildJack();
    Clients[1].In = drawInputs(Clients[1].B, C.Seed, scale(60));
    Clients[1].SP.SampleBytes = FleetSampleBytes;
    Clients[1].SP.SampleSeed = SplitMix64(C.Seed ^ 0x6a61636bULL).next();
    // The local recordings every session file must equal byte for byte.
    for (Client &Cl : Clients) {
      std::string Path = path("local-" + Cl.B.Name + ".jdev");
      profiler::FileEventSink File;
      if (!openRecording(File, Path, Cl.SP, /*Compress=*/true)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
        return false;
      }
      VMRun V = runVM(Cl.B.Prog, Cl.In, File, Cl.SP);
      std::string Why = checkRun(V, V.Outputs);
      if (!Why.empty()) {
        std::fprintf(stderr, "perfbench: local %s: %s\n", Cl.B.Name.c_str(),
                     Why.c_str());
        return false;
      }
      Cl.Outputs = V.Outputs;
      Cl.Local = readFile(Path);
      std::fprintf(stderr, "perfbench: fleet client %s, %.1f MB\n",
                   describeInputs(Cl.B, Cl.In).c_str(), fileMB(Path));
    }
    return true;
  }

  OpResult run(Tracer *T, int Op) override {
    OpResult R;
    R.Attempted = static_cast<unsigned>(Clients.size());
    const std::string Dir = path("fleet");
    std::error_code EC;
    fs::remove_all(Dir, EC);
    fs::create_directories(Dir);

    daemon::DaemonOptions DO;
    DO.SessionAddr = "unix:" + path("s.sock");
    DO.AdminAddr = "unix:" + path("a.sock");
    DO.OutputDir = Dir;
    DO.Resolve = [this](const std::string &Name) -> const ir::Program * {
      for (const Client &Cl : Clients)
        if (Cl.B.Name == Name)
          return &Cl.B.Prog;
      return nullptr;
    };
    daemon::CollectorDaemon D(DO);
    std::string Err;
    if (!D.start(&Err)) {
      for (const Client &Cl : Clients)
        R.fail("fleet " + Cl.B.Name, "daemon start: " + Err);
      return R;
    }

    Stopwatch SW;
    int DaemonRc = 1;
    double DaemonCpu = 0, DaemonWall = 0;
    std::thread DaemonThread([&] {
      Scope S(T, "daemon.run", Op);
      double C0 = threadCpuNow(), W0 = wallNow();
      DaemonRc = D.run();
      DaemonCpu = threadCpuNow() - C0;
      DaemonWall = wallNow() - W0;
    });
    std::vector<VMRun> Runs(Clients.size());
    std::vector<std::uint32_t> Sessions(Clients.size());
    std::vector<std::thread> Threads;
    for (std::size_t I = 0; I != Clients.size(); ++I)
      Threads.emplace_back([&, I] {
        const Client &Cl = Clients[I];
        profiler::SocketEventSink::Options SO;
        SO.Connect = DO.SessionAddr;
        SO.SpoolPath = Dir + "/spool-" + Cl.B.Name + ".jdev";
        SO.Name = Cl.B.Name;
        SO.Format = fileFormat(Cl.SP);
        SO.Sampling = Cl.SP;
        SO.Compress = true;
        profiler::SocketEventSink Sock(SO);
        Scope Run(T, "vm.run", Op);
        std::unique_ptr<TimedSink> Timed;
        if (T)
          Timed = std::make_unique<TimedSink>(Sock, *T, "profiler.socket_send",
                                              Op, Run.id());
        Runs[I] = runVM(Cl.B.Prog, Cl.In,
                        Timed ? static_cast<profiler::EventSink &>(*Timed)
                              : Sock,
                        Cl.SP);
        Sessions[I] = Sock.sessionsOpened();
      });
    for (std::thread &Th : Threads)
      Th.join();
    // Wait for the daemon to finalize every session, then stop it.
    std::uint64_t Opened = 0;
    for (std::uint32_t N : Sessions)
      Opened += N;
    bool Drained = false;
    for (double Until = wallNow() + 30; !Drained && wallNow() < Until;) {
      std::string Health;
      if (daemon::adminQuery(DO.AdminAddr, "HEALTH", &Health, &Err) &&
          Health.find("sessions_active=0\n") != std::string::npos &&
          Health.find("sessions_total=" + std::to_string(Opened) + "\n") !=
              std::string::npos)
        Drained = true;
      else
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string Resp;
    if (!daemon::adminQuery(DO.AdminAddr, "SHUTDOWN", &Resp, &Err))
      D.requestShutdown();
    DaemonThread.join();
    R.Wall = SW.wall();
    R.Cpu = SW.cpu();
    R.RssMB = peakRssMB();

    const daemon::DaemonStats &St = D.stats();
    std::uint64_t Errors = St.DecodeErrors + St.ProtocolErrors +
                           St.RecordingErrors + St.ByeMismatches +
                           St.ClientReportedDrops;
    std::string Unhealthy;
    if (DaemonRc != 0 || !Drained)
      Unhealthy = "daemon did not drain and stop cleanly";
    else if (Errors || St.SessionsUnclean || St.SessionsRefused ||
             St.SessionsClean != Clients.size())
      Unhealthy = "HEALTH not clean:\n" + D.execAdmin("HEALTH");
    for (std::size_t I = 0; I != Clients.size(); ++I) {
      const Client &Cl = Clients[I];
      std::string Session;
      for (const auto &E : fs::directory_iterator(Dir)) {
        std::string Name = E.path().filename().string();
        if (Name.starts_with("session-") &&
            Name.ends_with("-" + Cl.B.Name + ".jdev"))
          Session = E.path().string();
      }
      R.MBWritten += Session.empty() ? 0 : fileMB(Session);
      std::string Why = checkRun(Runs[I], Cl.Outputs);
      if (Why.empty())
        Why = Unhealthy;
      if (Why.empty() && Session.empty())
        Why = "no session file";
      if (Why.empty() && readFile(Session) != Cl.Local)
        Why = "session file differs from the local recording";
      if (!Why.empty())
        R.fail("fleet " + Cl.B.Name, Why);
      if (T && !Session.empty())
        countEvents(Session, R.Layers);
    }

    if (T) {
      auto &L = R.Layers;
      double Steps = 0, GCs = 0, Alloc = 0;
      for (const VMRun &V : Runs) {
        Steps += static_cast<double>(V.Steps);
        GCs += static_cast<double>(V.GCs);
        Alloc += toMB(V.Allocated);
      }
      L["vm.run_self_s"] = T->self("vm.run", Op);
      L["vm.steps"] = Steps;
      L["vm.gc_cycles"] = GCs;
      L["vm.alloc_MB"] = Alloc;
      L["profiler.socket_send_s"] = T->total("profiler.socket_send", Op);
      L["profiler.chunks"] = static_cast<double>(St.ChunksReceived);
      L["profiler.raw_MB"] = toMB(St.RawPayloadBytes);
      L["profiler.wire_MB"] = toMB(St.WirePayloadBytes);
      L["daemon.cpu_s"] = DaemonCpu;
      L["daemon.idle_frac"] = DaemonWall > 0 ? 1 - DaemonCpu / DaemonWall : 0;
      L["daemon.chunks_received"] = static_cast<double>(St.ChunksReceived);
      L["daemon.bytes_received"] = static_cast<double>(St.BytesReceived);
      L["daemon.errors"] = static_cast<double>(Errors);
    }
    return R;
  }

private:
  struct Client {
    BenchmarkProgram B;
    std::vector<std::int64_t> In;
    profiler::SamplingParams SP;
    std::vector<std::int64_t> Outputs;
    std::string Local;
  };
  std::vector<Client> Clients;
};

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer the workload does not call reports 0.
const std::vector<std::pair<std::string, std::string>> LayerMetrics = {
    {"vm.run_self_s", "s"},
    {"vm.steps", "count"},
    {"vm.gc_cycles", "count"},
    {"vm.alloc_MB", "MB"},
    {"profiler.compress_s", "s"},
    {"profiler.sink_write_s", "s"},
    {"profiler.chunks", "count"},
    {"profiler.raw_MB", "MB"},
    {"profiler.wire_MB", "MB"},
    {"profiler.events", "count"},
    {"profiler.events.alloc", "count"},
    {"profiler.events.use", "count"},
    {"profiler.socket_send_s", "s"},
    {"profiler.decode_s", "s"},
    {"support.lz_decompress_s", "s"},
    {"profiler.trailers_self_s", "s"},
    {"profiler.peak_trailers", "count"},
    {"analysis.fold_self_s", "s"},
    {"analysis.sharded_s", "s"},
    {"analysis.shard_speedup_x", "x"},
    {"analysis.records_folded", "count"},
    {"analysis.fold_state_KB", "KB"},
    {"daemon.cpu_s", "s"},
    {"daemon.idle_frac", "ratio"},
    {"daemon.chunks_received", "count"},
    {"daemon.bytes_received", "count"},
    {"daemon.errors", "count"},
    {"bench.trace_overhead_x", "x"},
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const Context &C) {
  if (Name == "record-churn")
    return std::make_unique<RecordChurn>(C);
  if (Name == "analyse-mix")
    return std::make_unique<AnalyseMix>(C);
  if (Name == "fleet")
    return std::make_unique<Fleet>(C);
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload record-churn|analyse-mix|fleet "
               "--seed N --seconds S --trace 0|1 --work DIR [--scale K] "
               "[--min-ops N]\n");
  return 2;
}

void addMetric(std::string &Json, const std::string &Name, double Value,
               const std::string &Unit) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  if (Json.back() != '{')
    Json += ", ";
  Json += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit +
          "\"}";
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName;
  Context C;
  double Seconds = 20;
  bool Trace = false;
  unsigned MinOps = 3;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    try {
      if (Key == "--workload")
        WorkloadName = Val;
      else if (Key == "--seed")
        C.Seed = std::stoull(Val);
      else if (Key == "--seconds")
        Seconds = std::stod(Val);
      else if (Key == "--trace")
        Trace = Val == "1";
      else if (Key == "--work")
        C.Work = Val;
      else if (Key == "--scale")
        C.Scale = std::stoull(Val);
      else if (Key == "--min-ops")
        MinOps = static_cast<unsigned>(std::stoul(Val));
      else
        return usage();
    } catch (...) {
      return usage();
    }
  }
  if (Argc % 2 == 0 || C.Work.empty() || MinOps == 0 ||
      !makeWorkload(WorkloadName, C))
    return usage();
  fs::create_directories(C.Work);

  // Pin glibc's mmap threshold at its default. Left dynamic, it ratchets
  // up each time a large block is freed, so later operations serve large
  // buffers from the heap, where they fragment, and an operation's
  // peak_rss_MB would depend on the operations before it.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  // Set-up, five times untraced (setup_s is the median), once traced;
  // the last one's fixtures are used.
  std::vector<double> SetupTimes;
  std::unique_ptr<Workload> W;
  for (unsigned Rep = 0; Rep != (Trace ? 1u : 5u); ++Rep) {
    W = makeWorkload(WorkloadName, C);
    double T0 = wallNow();
    if (!W->setup()) {
      std::fprintf(stderr, "perfbench: %s set-up failed\n",
                   WorkloadName.c_str());
      return 1;
    }
    SetupTimes.push_back(wallNow() - T0);
    std::fprintf(stderr, "perfbench: set-up %u took %.4f s\n", Rep,
                 SetupTimes.back());
  }

  // Timed operations. A traced run spends 40% of its budget on untraced
  // operations (the base of bench.trace_overhead_x), the rest traced.
  Tracer Spans;
  std::vector<OpResult> Plain, Traced;
  double Start = wallNow();
  bool RssOk = true;
  auto RunOp = [&](bool WithTrace) {
    RssOk &= resetPeakRss();
    int Op = static_cast<int>(Plain.size() + Traced.size());
    OpResult R = W->run(WithTrace ? &Spans : nullptr, Op);
    if (WithTrace)
      std::fprintf(stderr, "perfbench: op %d (traced) wall %.4f s\n", Op,
                   R.Wall);
    else
      std::fprintf(stderr,
                   "perfbench: op %d wall %.4f s cpu %.4f s rss %.1f MB\n", Op,
                   R.Wall, R.Cpu, R.RssMB);
    (WithTrace ? Traced : Plain).push_back(std::move(R));
  };
  double PlainBudget = Trace ? 0.4 * Seconds : Seconds;
  unsigned PlainMin = Trace ? std::min(MinOps, 2u) : MinOps;
  while (Plain.size() < PlainMin || wallNow() - Start < PlainBudget)
    RunOp(false);
  if (Trace)
    while (Traced.empty() || wallNow() - Start < Seconds)
      RunOp(true);
  if (!RssOk)
    std::fprintf(stderr, "perfbench: cannot reset the peak-RSS mark; "
                         "peak_rss_MB is the process lifetime peak\n");

  unsigned Attempted = 0, Failed = 0;
  for (const auto *Set : {&Plain, &Traced})
    for (const OpResult &R : *Set) {
      Attempted += R.Attempted;
      Failed += R.Failed;
    }
  auto Median = [](const std::vector<OpResult> &Rs,
                   const std::function<double(const OpResult &)> &Get) {
    std::vector<double> V;
    for (const OpResult &R : Rs)
      V.push_back(Get(R));
    return median(V);
  };

  std::string Json = "{";
  if (!Trace) {
    addMetric(Json, "wall_s", Median(Plain, [](auto &R) { return R.Wall; }),
              "s");
    addMetric(Json, "cpu_s", Median(Plain, [](auto &R) { return R.Cpu; }), "s");
    addMetric(Json, "peak_rss_MB",
              Median(Plain, [](auto &R) { return R.RssMB; }), "MB");
    addMetric(Json, "jdev_MB",
              Median(Plain, [](auto &R) { return R.MBWritten; }), "MB");
    addMetric(Json, "setup_s", median(SetupTimes), "s");
  } else {
    double PlainWall = Median(Plain, [](auto &R) { return R.Wall; });
    for (const auto &[Name, Unit] : LayerMetrics) {
      double V = Median(Traced, [&Name = Name](const OpResult &R) {
        auto It = R.Layers.find(Name);
        return It == R.Layers.end() ? 0.0 : It->second;
      });
      if (Name == "bench.trace_overhead_x")
        V = PlainWall > 0
                ? Median(Traced, [](auto &R) { return R.Wall; }) / PlainWall
                : 0;
      addMetric(Json, Name, V, Unit);
    }
    std::string SpanPath = C.Work + "/spans.jsonl";
    if (!Spans.write(SpanPath))
      std::fprintf(stderr, "perfbench: cannot write %s\n", SpanPath.c_str());
  }
  Json += "}";
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu untraced + %zu traced "
                       "operations, %u of %u attempts failed\n",
               WorkloadName.c_str(), static_cast<unsigned long long>(C.Seed),
               Plain.size(), Traced.size(), Failed, Attempted);
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": %s}\n",
              Failed == 0 ? "true" : "false", Attempted, Failed, Json.c_str());
  return 0;
}
