//===- bench/micro_profiler.cpp - google-benchmark micro suite ------------===//
//
// Microbenchmarks of the substrate: interpreter throughput with and
// without the drag profiler attached (the instrumentation overhead the
// paper's tool pays), GC cost against live-set size, site-table
// interning, and profile-log serialization throughput.
//
//===----------------------------------------------------------------------===//

#include "analysis/RecordFold.h"
#include "analysis/StreamingAnalysis.h"
#include "support/Statistics.h"
#include "benchmarks/Benchmarks.h"
#include "benchmarks/MiniJDK.h"
#include "ir/Verifier.h"
#include "profiler/AsyncEventSink.h"
#include "profiler/DragProfiler.h"
#include "profiler/ParallelReplay.h"
#include "support/Crc32c.h"
#include "support/Lz.h"
#include "vm/VirtualMachine.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <unordered_map>

#include <cstdio>
#include <cstring>
#include <unistd.h>

using namespace jdrag;
using namespace jdrag::benchmarks;
using namespace jdrag::ir;
using namespace jdrag::vm;

namespace {

/// A compute+alloc loop: `iters` iterations of field writes, array ops
/// and one small allocation.
Program buildHotLoop() {
  ProgramBuilder PB;
  MiniJDK J = MiniJDK::build(PB);
  ClassBuilder C = PB.beginClass("Hot", PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  MethodBuilder Ctor = C.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(PB.objectCtor()).ret();
  Ctor.finish();

  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.iconst(0).invokestatic(J.Read).istore(N);
  M.new_(C.id()).dup().invokespecial(Ctor.id()).astore(O);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(Loop);
  M.iload(I).iload(N).ifICmpGe(Done);
  M.aload(O).iload(I).putfield(V);          // use event
  M.aload(O).getfield(V).pop();             // use event
  M.iconst(14).newarray(ArrayKind::Int).pop(); // allocation event
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.aload(O).getfield(V).invokestatic(J.Emit);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  Program P = PB.finish();
  std::string Err;
  if (!verifyProgram(P, &Err))
    std::abort();
  return P;
}

void BM_InterpreterPlain(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    VirtualMachine VM(P, {});
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(VM.outputs());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterPlain)->Arg(10000);

/// Observer-overhead ladder, step 2 of 3: the VM emits, encodes and
/// chunks every event but the sink discards the bytes -- isolating the
/// pure event-production cost from the consumer (compare against
/// BM_InterpreterPlain below it and BM_InterpreterProfiled above it).
void BM_InterpreterNullSink(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNullSink)->Arg(10000);

/// Hot-path ladder, dispatch rung: the null-sink run on the portable
/// `switch` loop instead of computed-goto threading. The delta against
/// BM_InterpreterNullSink is what threaded dispatch buys; the streams
/// are bit-identical either way (docs/vm-hotpath.md).
void BM_InterpreterSwitchDispatch(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.Dispatch = DispatchMode::Switch;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterSwitchDispatch)->Arg(10000);

/// Hot-path ladder, emission rung: the null-sink run with the per-pc
/// site-id/callee-context inline caches disabled, forcing every event
/// through the context-trie probe. The delta against
/// BM_InterpreterNullSink is what the caches save.
void BM_InterpreterNoSiteCache(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SiteInlineCache = false;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNoSiteCache)->Arg(10000);

/// Hot-path ladder, allocation rung: the null-sink run with the
/// size-class allocation fast path off (every New/NewArray takes the
/// full slow path: budget check, fresh object, policy checks).
void BM_InterpreterNoAllocFastPath(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.AllocFastPath = false;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNoAllocFastPath)->Arg(10000);

/// The allocator in isolation: rounds of short-lived allocations with a
/// collection between rounds, so the fast path's size-class free lists
/// actually recycle. Arg is the fast-path switch (0 = legacy
/// delete/new, 1 = size-class recycling + slot templates).
void BM_AllocFastPath(benchmark::State &State) {
  ProgramBuilder PB;
  MiniJDK J = MiniJDK::build(PB);
  (void)J;
  ClassBuilder Node = PB.beginClass("Node", PB.objectClass());
  Node.addField("next", ValueKind::Ref);
  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  Program P = PB.finish();
  std::string Err;
  if (!verifyProgram(P, &Err))
    std::abort();

  Heap H(P);
  H.setFastPathAlloc(State.range(0) != 0);
  ClassId NodeClass = P.findClass("Node");
  constexpr std::int64_t Round = 4096;
  std::int64_t Allocs = 0;
  for (auto _ : State) {
    for (std::int64_t I = 0; I != Round; ++I)
      benchmark::DoNotOptimize(H.allocateObject(NodeClass));
    Allocs += Round;
    GCStats S = H.collect(); // everything is garbage; refill free lists
    benchmark::DoNotOptimize(S.FreedObjects);
  }
  State.SetItemsProcessed(Allocs);
}
BENCHMARK(BM_AllocFastPath)->Arg(0)->Arg(1);

/// The legacy fixed-width wire format on the same null-sink run. The
/// delta against BM_InterpreterNullSink (which encodes v3 varints) is
/// what the compact format costs -- or saves -- on the producer side.
void BM_InterpreterNullSinkV2(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.EventFormat = profiler::WireFormat::V2;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNullSinkV2)->Arg(10000);

/// The background-writer hand-off cost: same null-sink run, but every
/// flushed chunk takes the AsyncEventSink path (copy + mutex + condvar)
/// before the writer thread discards it. The delta against
/// BM_InterpreterNullSink is the queueing overhead the async sink adds
/// when the inner sink is infinitely fast; against a real file sink the
/// same hand-off *replaces* the file write on the VM thread.
void BM_InterpreterNullSinkAsync(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.AsyncEvents = true;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNullSinkAsync)->Arg(10000);

/// The integrity tax: the same null-sink run with chunk CRC-32C framing
/// disabled. The delta against BM_InterpreterNullSink is the whole cost
/// of checksumming every flushed chunk (EventCrc=false is bench-only;
/// decoders reject unchecksummed streams).
void BM_InterpreterNullSinkNoCrc(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::NullSink Sink;
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.EventCrc = false;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Sink.bytesDiscarded());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterNullSinkNoCrc)->Arg(10000);

void BM_InterpreterProfiled(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::DragProfiler Prof(P);
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Prof.attachTo(Opts);
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Prof.log().Records.size());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterProfiled)->Arg(10000);

/// Sampled-recording overhead ladder: the full record-to-file path
/// (emit, sample, encode, chunk, write) at a sweep of sampling rates.
/// Arg0 is the loop count, Arg1 the --sample-bytes rate: 0 is exact
/// mode (every allocation gets Use/Collect trailers -- the v4 stream,
/// bit-identical to a plain recording), then 64Ki / 512Ki / 4Mi mean
/// heap bytes per sample. The delta against BM_InterpreterPlain is the
/// always-on overhead each rate pays; unsampled allocations take only
/// the countdown decrement, so throughput should climb toward plain as
/// the rate coarsens.
void BM_SampledRecord(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  std::uint64_t Rate = static_cast<std::uint64_t>(State.range(1));
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_samp.%d.jdev",
                static_cast<int>(getpid()));
  std::uint64_t BytesOut = 0;
  for (auto _ : State) {
    profiler::SamplingParams SP;
    SP.SampleBytes = Rate;
    profiler::FileEventSink::Options FO;
    FO.Format = profiler::effectiveFormat(profiler::DefaultWireFormat, SP);
    FO.Sampling = SP;
    profiler::FileEventSink Sink;
    if (!Sink.open(Path, FO))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SampleBytes = Rate;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
    if (!Sink.finish())
      std::abort();
    BytesOut = Sink.bytesWritten();
    benchmark::DoNotOptimize(BytesOut);
  }
  State.SetItemsProcessed(State.iterations() * Iters);
  State.counters["stream_bytes"] =
      benchmark::Counter(static_cast<double>(BytesOut));
  std::remove(Path);
}
BENCHMARK(BM_SampledRecord)
    ->Args({10000, 0})
    ->Args({10000, 64 * 1024})
    ->Args({10000, 512 * 1024})
    ->Args({10000, 4 * 1024 * 1024});

/// The BM_SampledRecord ladder with v6 chunk compression on -- the
/// paired rung behind the `--compress` default. Same args (Arg1 = 0 is
/// exact mode); the time delta against BM_SampledRecord at the same
/// args is the whole cost of compressing on the file sink, and the
/// stream_bytes / ratio counters are what it buys. The acceptance
/// gates: exact-mode time within 1.05x of the uncompressed rung,
/// recording size down >= 3x on the paper workloads (table1 measures
/// those; this rung tracks the synthetic hot loop).
void BM_CompressedRecord(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  std::uint64_t Rate = static_cast<std::uint64_t>(State.range(1));
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_comp.%d.jdev",
                static_cast<int>(getpid()));
  std::uint64_t BytesOut = 0, Raw = 0, Wire = 0;
  for (auto _ : State) {
    profiler::SamplingParams SP;
    SP.SampleBytes = Rate;
    profiler::FileEventSink::Options FO;
    FO.Format =
        profiler::effectiveFormat(profiler::DefaultWireFormat, SP, true);
    FO.Sampling = SP;
    FO.Compress = true;
    profiler::FileEventSink Sink;
    if (!Sink.open(Path, FO))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SampleBytes = Rate;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
    if (!Sink.finish())
      std::abort();
    BytesOut = Sink.bytesWritten();
    Raw = Sink.rawPayloadBytes();
    Wire = Sink.wirePayloadBytes();
    benchmark::DoNotOptimize(BytesOut);
  }
  State.SetItemsProcessed(State.iterations() * Iters);
  State.counters["stream_bytes"] =
      benchmark::Counter(static_cast<double>(BytesOut));
  State.counters["ratio"] = benchmark::Counter(
      Wire ? static_cast<double>(Raw) / static_cast<double>(Wire) : 1.0);
  std::remove(Path);
}
BENCHMARK(BM_CompressedRecord)
    ->Args({10000, 0})
    ->Args({10000, 64 * 1024})
    ->Args({10000, 512 * 1024})
    ->Args({10000, 4 * 1024 * 1024});

/// The async paired rungs: `jdrag record --async` hands chunks to the
/// AsyncEventSink writer thread, so the file sink's compression (like
/// its fwrite) runs off the VM's critical path -- the deployment the
/// compressor is designed for. Both rungs run on real time: their CPU
/// time would be the VM thread's only (google-benchmark measures the
/// bench thread), which leaves the writer thread's codec work out of
/// items/s. The reported CPU time still shows what compression costs
/// the *mutator*; the wall-clock delta includes the drain wait at
/// finish() on a saturated machine. Arg1 = 0 keeps both rungs in exact
/// mode.
void BM_AsyncRecord(benchmark::State &State, bool Compress) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  std::uint64_t Rate = static_cast<std::uint64_t>(State.range(1));
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_async.%d.jdev",
                static_cast<int>(getpid()));
  std::uint64_t BytesOut = 0, Raw = 0, Wire = 0;
  for (auto _ : State) {
    profiler::SamplingParams SP;
    SP.SampleBytes = Rate;
    profiler::FileEventSink::Options FO;
    FO.Format =
        profiler::effectiveFormat(profiler::DefaultWireFormat, SP, Compress);
    FO.Sampling = SP;
    FO.Compress = Compress;
    profiler::FileEventSink Sink;
    if (!Sink.open(Path, FO))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.SampleBytes = Rate;
    Opts.AsyncEvents = true;
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
    if (!Sink.finish())
      std::abort();
    BytesOut = Sink.bytesWritten();
    Raw = Sink.rawPayloadBytes();
    Wire = Sink.wirePayloadBytes();
    benchmark::DoNotOptimize(BytesOut);
  }
  State.SetItemsProcessed(State.iterations() * Iters);
  State.counters["stream_bytes"] =
      benchmark::Counter(static_cast<double>(BytesOut));
  if (Compress)
    State.counters["ratio"] = benchmark::Counter(
        Wire ? static_cast<double>(Raw) / static_cast<double>(Wire) : 1.0);
  std::remove(Path);
}
void BM_SampledRecordAsync(benchmark::State &State) {
  BM_AsyncRecord(State, false);
}
void BM_CompressedRecordAsync(benchmark::State &State) {
  BM_AsyncRecord(State, true);
}
BENCHMARK(BM_SampledRecordAsync)->Args({10000, 0})->UseRealTime();
BENCHMARK(BM_CompressedRecordAsync)->Args({10000, 0})->UseRealTime();

/// The trailer-store ladder rung: the same profiled run with the
/// hash-map trailer store instead of the paged dense array. The delta
/// against BM_InterpreterProfiled is the hashing cost on the per-Use
/// consumer hot path.
void BM_InterpreterProfiledMap(benchmark::State &State) {
  Program P = buildHotLoop();
  std::int64_t Iters = State.range(0);
  for (auto _ : State) {
    profiler::ProfilerConfig PC;
    PC.UseDenseTrailers = false;
    profiler::DragProfiler Prof(P, PC);
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Prof.attachTo(Opts);
    VirtualMachine VM(P, Opts);
    VM.setInputs({Iters});
    if (VM.run() != Interpreter::Status::Ok)
      std::abort();
    benchmark::DoNotOptimize(Prof.log().Records.size());
  }
  State.SetItemsProcessed(State.iterations() * Iters);
}
BENCHMARK(BM_InterpreterProfiledMap)->Arg(10000);

/// Shared scaffolding for the GC benches: a program with a linked Node
/// class, and a one-handle root pin.
Program buildNodeGCProgram() {
  ProgramBuilder PB;
  MiniJDK J = MiniJDK::build(PB);
  (void)J;
  ClassBuilder Node = PB.beginClass("Node", PB.objectClass());
  FieldId Next = Node.addField("next", ValueKind::Ref);
  (void)Next;
  ClassBuilder MainC = PB.beginClass("Main", PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  PB.setMain(M.id());
  Program P = PB.finish();
  std::string Err;
  if (!verifyProgram(P, &Err))
    std::abort();
  return P;
}

class HeadPin : public RootSource {
public:
  Handle Head;
  void visitRoots(HandleVisitor V) override { V(Head); }
};

/// GC cost against live-set size: a linked list of `n` nodes survives
/// each collection. range(0) = list length, range(1) = span backend.
void BM_MarkSweepGC(benchmark::State &State) {
  Program P = buildNodeGCProgram();
  Heap H(P);
  H.setSpanBackend(State.range(1) != 0);
  HeadPin Roots;
  H.addRootSource(&Roots);
  FieldId Next = P.findField(P.findClass("Node"), "next");
  std::int64_t N = State.range(0);
  for (std::int64_t I = 0; I != N; ++I) {
    Handle Fresh = H.allocateObject(P.findClass("Node"));
    H.object(Fresh).Slots[P.fieldOf(Next).Slot] =
        Value::makeRef(Roots.Head);
    Roots.Head = Fresh;
  }
  for (auto _ : State) {
    GCStats S = H.collect();
    benchmark::DoNotOptimize(S.ReachableObjects);
  }
  State.SetItemsProcessed(State.iterations() * N);
  H.removeRootSource(&Roots);
}
BENCHMARK(BM_MarkSweepGC)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

/// Minor-collection cost against OLD-generation size. A promoted list
/// of range(0) nodes sits in the old generation; each iteration churns
/// a fixed 64 young objects and runs a minor collection. The work a
/// minor GC does should depend on the young population only: the
/// legacy backend's sweep walks the whole handle table (so time grows
/// with range(0)), while the span backend sweeps just the young span
/// set (time flat in range(0)). range(1) = span backend.
void BM_MinorGC(benchmark::State &State) {
  Program P = buildNodeGCProgram();
  Heap H(P);
  H.setSpanBackend(State.range(1) != 0);
  GenerationalConfig G;
  G.Enabled = true;
  G.PromoteAge = 1;
  G.MajorEveryNMinors = 0;
  H.setGenerational(G);
  HeadPin Roots;
  H.addRootSource(&Roots);
  ClassId Node = P.findClass("Node");
  FieldId Next = P.findField(Node, "next");
  std::int64_t OldN = State.range(0);
  for (std::int64_t I = 0; I != OldN; ++I) {
    Handle Fresh = H.allocateObject(Node);
    H.object(Fresh).Slots[P.fieldOf(Next).Slot] = Value::makeRef(Roots.Head);
    Roots.Head = Fresh;
  }
  // One minor cycle promotes the whole pinned chain (PromoteAge = 1).
  H.collectMinor();
  for (auto _ : State) {
    for (int I = 0; I != 64; ++I)
      H.allocateObject(Node); // young garbage
    GCStats S = H.collectMinor();
    benchmark::DoNotOptimize(S.FreedObjects);
  }
  State.SetItemsProcessed(State.iterations());
  H.removeRootSource(&Roots);
}
BENCHMARK(BM_MinorGC)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

void BM_SiteInterning(benchmark::State &State) {
  profiler::SiteTable Sites;
  std::vector<CallFrameRef> Chain = {{MethodId(1), 4, 10},
                                     {MethodId(2), 9, 20},
                                     {MethodId(3), 1, 30}};
  std::uint32_t Pc = 0;
  for (auto _ : State) {
    Chain[0].Pc = (Pc++) & 1023; // 1024 distinct sites, then hits
    benchmark::DoNotOptimize(Sites.intern(
        std::span<const CallFrameRef>(Chain.data(), Chain.size()), 4));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SiteInterning);

/// Raw CRC-32C throughput at the event-buffer chunk size -- the upper
/// bound on what the framing can cost per flushed chunk.
void BM_Crc32c(benchmark::State &State) {
  std::vector<std::byte> Buf(State.range(0));
  for (std::size_t I = 0; I != Buf.size(); ++I)
    Buf[I] = std::byte(I * 31);
  for (auto _ : State)
    benchmark::DoNotOptimize(support::crc32c(Buf.data(), Buf.size()));
  State.SetBytesProcessed(State.iterations() * Buf.size());
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(64 * 1024);

/// The table-driven software fallback on the same buffers -- the
/// portable floor the hardware dispatch (BM_Crc32c) is measured against.
void BM_Crc32cSW(benchmark::State &State) {
  std::vector<std::byte> Buf(State.range(0));
  for (std::size_t I = 0; I != Buf.size(); ++I)
    Buf[I] = std::byte(I * 31);
  for (auto _ : State)
    benchmark::DoNotOptimize(
        support::crc32cSoftware(Buf.data(), Buf.size()));
  State.SetBytesProcessed(State.iterations() * Buf.size());
}
BENCHMARK(BM_Crc32cSW)->Arg(4096)->Arg(64 * 1024);

/// Phase-2 decode throughput: frames + records of an in-memory
/// recording through the full FrameDecoder/StreamDecoder path into a
/// null consumer. Arg selects the wire format (2 or 3); items are
/// decoded event records.
void BM_ReplayDecode(benchmark::State &State) {
  Program P = buildHotLoop();
  auto Format = static_cast<profiler::WireFormat>(State.range(0));
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  Opts.EventFormat = Format;
  VirtualMachine VM(P, Opts);
  VM.setInputs({10000});
  if (VM.run() != Interpreter::Status::Ok)
    std::abort();

  class NullConsumer : public profiler::EventConsumer {
  public:
    std::uint64_t Events = 0;
    void onSite(profiler::SiteId,
                std::span<const profiler::SiteFrame>) override {}
    void onEvent(const profiler::EventRecord &) override { ++Events; }
  };
  std::uint64_t EventsPerPass = 0;
  for (auto _ : State) {
    NullConsumer C;
    std::string Err;
    if (!profiler::replayBytes(Mem.bytes(), C, &Err, Format))
      std::abort();
    EventsPerPass = C.Events;
    benchmark::DoNotOptimize(C.Events);
  }
  State.SetItemsProcessed(State.iterations() * EventsPerPass);
  State.SetBytesProcessed(State.iterations() * Mem.bytes().size());
}
BENCHMARK(BM_ReplayDecode)->Arg(2)->Arg(3)->Arg(4);

/// The same decode with the varint batch fast path disabled -- the gap
/// between this and BM_ReplayDecode/3 is what the contiguous-bytes
/// fast path buys on the per-byte bounds-checked fallback.
void BM_ReplayDecodeNoBatch(benchmark::State &State) {
  Program P = buildHotLoop();
  auto Format = static_cast<profiler::WireFormat>(State.range(0));
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  Opts.EventFormat = Format;
  VirtualMachine VM(P, Opts);
  VM.setInputs({10000});
  if (VM.run() != Interpreter::Status::Ok)
    std::abort();

  class NullConsumer : public profiler::EventConsumer {
  public:
    std::uint64_t Events = 0;
    void onSite(profiler::SiteId,
                std::span<const profiler::SiteFrame>) override {}
    void onEvent(const profiler::EventRecord &) override { ++Events; }
  };
  std::uint64_t EventsPerPass = 0;
  for (auto _ : State) {
    NullConsumer C;
    profiler::FrameDecoder D(C, Format);
    D.setBatchDecode(false);
    if (!D.feed(Mem.bytes().data(), Mem.bytes().size()) ||
        !D.atRecordBoundary())
      std::abort();
    EventsPerPass = C.Events;
    benchmark::DoNotOptimize(C.Events);
  }
  State.SetItemsProcessed(State.iterations() * EventsPerPass);
  State.SetBytesProcessed(State.iterations() * Mem.bytes().size());
}
BENCHMARK(BM_ReplayDecodeNoBatch)->Arg(3);

/// Raw codec throughput: LzEncoder::compress + lzDecompress over the
/// hot loop's real event stream, one 64 KiB block at a time (the
/// production chunk size), one encoder per pass as one per stream.
/// Bytes processed are *uncompressed* bytes, so the rate reads as
/// end-to-end round-trip MB/s; the ratio counter is the compression the
/// event encoding admits.
void BM_LzRoundTrip(benchmark::State &State) {
  Program P = buildHotLoop();
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  VirtualMachine VM(P, Opts);
  VM.setInputs({10000});
  if (VM.run() != Interpreter::Status::Ok)
    std::abort();
  std::span<const std::byte> Bytes = Mem.bytes();
  constexpr std::size_t Block = 64 * 1024;

  std::uint64_t Raw = 0, Packed = 0;
  for (auto _ : State) {
    Raw = Packed = 0;
    std::vector<std::uint8_t> Out;
    support::LzEncoder Enc;
    for (std::size_t Off = 0; Off < Bytes.size(); Off += Block) {
      std::size_t N = std::min(Block, Bytes.size() - Off);
      std::vector<std::uint8_t> C = Enc.compress(Bytes.data() + Off, N);
      Raw += N;
      Packed += C.empty() ? N : C.size();
      if (!C.empty() &&
          (!support::lzDecompress(C.data(), C.size(), Out, N) ||
           Out.size() != N))
        std::abort();
      benchmark::DoNotOptimize(C.data());
    }
  }
  State.SetBytesProcessed(State.iterations() *
                          static_cast<std::int64_t>(Raw));
  State.counters["ratio"] = benchmark::Counter(
      Packed ? static_cast<double>(Raw) / static_cast<double>(Packed) : 1.0);
}
BENCHMARK(BM_LzRoundTrip);

/// The compressed rung of the BM_ReplayDecode ladder: the same stream,
/// v6-compressed once up front, decoded through the FrameDecoder's
/// transparent chunk decompression. Bytes processed are the
/// *compressed* input bytes; the acceptance gate compares items/s (the
/// decoded-record rate) against BM_ReplayDecode/4 -- it must stay
/// within 1.2x.
void BM_ReplayDecodeCompressed(benchmark::State &State) {
  Program P = buildHotLoop();
  profiler::MemorySink Mem;
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Mem;
  VirtualMachine VM(P, Opts);
  VM.setInputs({10000});
  if (VM.run() != Interpreter::Status::Ok)
    std::abort();

  // One pass through the chunk compressor: the stream as a v6 sink
  // would have put it on disk.
  std::vector<std::byte> Packed;
  {
    profiler::ChunkCompressor Comp;
    std::span<const std::byte> Bytes = Mem.bytes();
    std::size_t Off = 0;
    while (Off < Bytes.size()) {
      profiler::ChunkHeader H;
      std::memcpy(&H, Bytes.data() + Off, sizeof(H));
      bool Footer = H.Magic == profiler::FooterMagic;
      std::size_t Frame = sizeof(H) + H.PayloadBytes + (Footer ? 8 : 0);
      std::span<const std::byte> T =
          Comp.transform(Bytes.data() + Off, Frame);
      if (T.empty())
        std::abort();
      Packed.insert(Packed.end(), T.begin(), T.end());
      Off += Frame;
    }
  }

  class NullConsumer : public profiler::EventConsumer {
  public:
    std::uint64_t Events = 0;
    void onSite(profiler::SiteId,
                std::span<const profiler::SiteFrame>) override {}
    void onEvent(const profiler::EventRecord &) override { ++Events; }
  };
  std::uint64_t EventsPerPass = 0;
  for (auto _ : State) {
    NullConsumer C;
    std::string Err;
    if (!profiler::replayBytes(Packed, C, &Err, profiler::WireFormat::V6))
      std::abort();
    EventsPerPass = C.Events;
    benchmark::DoNotOptimize(C.Events);
  }
  State.SetItemsProcessed(State.iterations() * EventsPerPass);
  State.SetBytesProcessed(State.iterations() * Packed.size());
  State.counters["ratio"] = benchmark::Counter(
      static_cast<double>(Mem.bytes().size()) /
      static_cast<double>(Packed.size()));
}
BENCHMARK(BM_ReplayDecodeCompressed);

/// End-to-end sharded replay (read + index + decode + merge) of a
/// multi-chunk v4 recording; Arg is the worker count, items are object
/// records in the resulting profile. Jobs=1 is the sequential path, so
/// the ratio between rungs is the map-reduce speedup (ceilinged by the
/// machine's core count). Real time: the decode workers' CPU time is
/// not the main thread's, so CPU-time items/s would overstate jobs > 1.
void BM_ReplayParallel(benchmark::State &State) {
  Program P = buildHotLoop();
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_par.%d.jdev",
                static_cast<int>(getpid()));
  {
    profiler::FileEventSink Sink;
    if (!Sink.open(Path))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.EventChunkBytes = 8 * 1024; // force a shardable chunk count
    VirtualMachine VM(P, Opts);
    VM.setInputs({10000});
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
  }
  unsigned Jobs = static_cast<unsigned>(State.range(0));
  std::size_t RecordsPerPass = 0;
  for (auto _ : State) {
    profiler::ProfileLog Log;
    if (!profiler::replayProfileParallel(Path, P, profiler::ProfilerConfig(),
                                         Jobs, Log))
      std::abort();
    RecordsPerPass = Log.Records.size();
    benchmark::DoNotOptimize(Log.Records.data());
  }
  State.SetItemsProcessed(State.iterations() * RecordsPerPass);
  std::remove(Path);
}
BENCHMARK(BM_ReplayParallel)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// The pre-fold DragReport aggregation loop, reproduced line-for-line
/// from the old constructor as BM_Report's baseline: one
/// unordered_map::try_emplace per record, three Welford RunningStat
/// updates, and a per-group unordered_map last-use partition -- the
/// per-record hashing and allocation churn the fold engine replaced.
struct LegacySiteGroup {
  profiler::SiteId Site = profiler::InvalidSite;
  std::uint64_t ObjectCount = 0;
  std::uint64_t TotalBytes = 0;
  std::uint64_t NeverUsedCount = 0;
  std::uint64_t LargeDragCount = 0;
  SpaceTime EstObjects = 0, EstBytes = 0, TotalDrag = 0, DragVariance = 0,
            NeverUsedDrag = 0;
  RunningStat DragPerObject, DragTimePerObject, LifeTimePerObject;
  std::array<std::uint64_t, analysis::SiteGroup::NumHistoBuckets>
      DragTimeHisto = {};
  std::unordered_map<profiler::SiteId, SpaceTime> DragByLastUse;
};

std::vector<LegacySiteGroup> legacyAggregate(const profiler::ProfileLog &Log) {
  const std::uint64_t Rate = Log.SampleRate;
  std::vector<LegacySiteGroup> Groups;
  std::unordered_map<profiler::SiteId, std::size_t> Index;
  SpaceTime TotalDragSum = 0, ReachableSum = 0, InUseSum = 0;
  for (const profiler::ObjectRecord &R : Log.Records) {
    auto [It, Fresh] = Index.try_emplace(R.AllocSite, Groups.size());
    if (Fresh) {
      Groups.emplace_back();
      Groups.back().Site = R.AllocSite;
    }
    LegacySiteGroup &G = Groups[It->second];
    ++G.ObjectCount;
    G.TotalBytes += R.Bytes;
    double Prob = profiler::sampleProbability(R.Bytes, Rate);
    SpaceTime W = 1.0 / Prob;
    SpaceTime Drag = R.drag() * W;
    G.EstObjects += W;
    G.EstBytes += W * static_cast<double>(R.Bytes);
    G.TotalDrag += Drag;
    G.DragVariance += profiler::sampleVarianceTerm(R.drag(), Prob);
    G.DragPerObject.add(R.drag());
    G.DragTimePerObject.add(static_cast<double>(R.dragTime()));
    G.LifeTimePerObject.add(static_cast<double>(R.lifeTime()));
    if (R.neverUsed()) {
      ++G.NeverUsedCount;
      G.NeverUsedDrag += Drag;
    }
    if (R.lifeTime() > 0 && static_cast<double>(R.dragTime()) >=
                                static_cast<double>(R.lifeTime()) / 3.0)
      ++G.LargeDragCount;
    ++G.DragTimeHisto[analysis::SiteGroup::histoBucket(R.dragTime())];
    G.DragByLastUse[R.neverUsed() ? profiler::InvalidSite : R.LastUseSite] +=
        Drag;
    TotalDragSum += Drag;
    ReachableSum += W * static_cast<SpaceTime>(R.Bytes) *
                    static_cast<SpaceTime>(R.lifeTime());
    InUseSum += W * static_cast<SpaceTime>(R.Bytes) *
                static_cast<SpaceTime>(R.inUseTime());
  }
  std::sort(Groups.begin(), Groups.end(),
            [](const LegacySiteGroup &A, const LegacySiteGroup &B) {
              if (A.TotalDrag != B.TotalDrag)
                return A.TotalDrag > B.TotalDrag;
              return A.Site < B.Site;
            });
  benchmark::DoNotOptimize(TotalDragSum + ReachableSum + InUseSum);
  return Groups;
}

/// Phase-2 report ladder over one recorded .jdev (docs/analysis.md):
///
///   arg 0: materialized, legacy map pipeline -- replay into
///          ProfileLog::Records, then the pre-fold DragReport loop
///          (legacyAggregate above; the denominator of the >=2x gate in
///          BENCH_9.json)
///   arg 1: materialized, open-addressed -- same replay, fold engine over
///          the vector (what DragReport(P, Log) runs today)
///   arg 2: streaming, open-addressed -- the production analyzeEventStream
///          path: records fold as the decoder emits them, Records never
///          materializes
///   arg 3: streaming, map-index ablation -- the fold with unordered_map
///          indexes, isolating the open-addressed index win from the
///          no-materialization win
///   arg 4: sharded streaming merge (jobs=2; on a 1-CPU box this prices
///          the shard/merge machinery, not parallel speedup)
///   arg 5: aggregation only, legacy map pipeline -- over a pre-decoded
///          record vector (decode floor factored out)
///   arg 6: aggregation only, open-addressed fold
///   arg 7: decode floor -- the streaming driver with every fold
///          disabled; what "reports at decode speed" is measured against
///
/// items/s = object records through the report per second. The
/// resident_bytes counter is the analysis-state high-water: the record
/// vector for materialized rungs, fold state + decode trailer peak for
/// streaming ones -- the O(records) vs O(sites) story in one number.
void BM_Report(benchmark::State &State) {
  // A real paper workload (site-diverse, ~35k records), not the
  // single-site hot loop: report aggregation cost scales with site
  // spread, which is exactly what the map-vs-open rungs measure.
  BenchmarkProgram B = buildJavac();
  const Program &P = B.Prog;
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_report.%d.jdev",
                static_cast<int>(getpid()));
  {
    profiler::FileEventSink Sink;
    if (!Sink.open(Path))
      std::abort();
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.Sink = &Sink;
    Opts.EventChunkBytes = 8 * 1024; // force a shardable chunk count
    VirtualMachine VM(P, Opts);
    VM.setInputs(B.DefaultInputs);
    if (VM.run() != Interpreter::Status::Ok || !VM.streamIntact())
      std::abort();
  }
  const int Mode = static_cast<int>(State.range(0));
  std::uint64_t Records = 0;
  std::size_t Resident = 0;
  if (Mode == 5 || Mode == 6) {
    // Aggregation-only rungs: the decode floor (shared by every rung
    // above) factored out. This pair prices exactly the per-record
    // hashing the open-addressed index killed.
    profiler::ProfileLog Log;
    if (!profiler::replayProfileParallel(Path, P, profiler::ProfilerConfig(),
                                         1, Log))
      std::abort();
    for (auto _ : State) {
      if (Mode == 5) {
        std::vector<LegacySiteGroup> Groups = legacyAggregate(Log);
        benchmark::DoNotOptimize(Groups.data());
      } else {
        analysis::SiteGroupFold F(Log.SampleRate);
        for (const profiler::ObjectRecord &R : Log.Records)
          F.fold(R);
        analysis::DragReportData Data = F.finish(P, Log.Sites);
        benchmark::DoNotOptimize(Data.Groups.data());
      }
    }
    State.SetItemsProcessed(State.iterations() * Log.Records.size());
    State.counters["resident_bytes"] =
        static_cast<double>(Log.Records.size() * sizeof(profiler::ObjectRecord));
    std::remove(Path);
    return;
  }
  for (auto _ : State) {
    if (Mode <= 1) {
      profiler::ProfileLog Log;
      if (!profiler::replayProfileParallel(Path, P,
                                           profiler::ProfilerConfig(), 1, Log))
        std::abort();
      if (Mode == 0) {
        std::vector<LegacySiteGroup> Groups = legacyAggregate(Log);
        benchmark::DoNotOptimize(Groups.data());
      } else {
        analysis::SiteGroupFold F(Log.SampleRate);
        for (const profiler::ObjectRecord &R : Log.Records)
          F.fold(R);
        analysis::DragReportData Data = F.finish(P, Log.Sites);
        benchmark::DoNotOptimize(Data.Groups.data());
      }
      Records = Log.Records.size();
      Resident = Log.Records.size() * sizeof(profiler::ObjectRecord);
    } else {
      analysis::StreamAnalysisOptions O;
      O.Jobs = Mode == 4 ? 2 : 1;
      O.UseMapIndex = Mode == 3;
      if (Mode == 7) {
        O.WantReport = false;
        O.WantLifetimes = false;
        O.CurveSamples = 0;
      }
      analysis::StreamAnalysisResult R;
      if (!analysis::analyzeEventStream(Path, P, O, R) || R.Materialized)
        std::abort();
      benchmark::DoNotOptimize(R.Report.get());
      Records = R.RecordsFolded;
      // ~64 B per live decode trailer (PartialTrailer + page slack).
      Resident = R.FoldStateBytes + R.PeakTrailers * 64;
    }
  }
  State.SetItemsProcessed(State.iterations() * Records);
  State.counters["resident_bytes"] = static_cast<double>(Resident);
  std::remove(Path);
}
BENCHMARK(BM_Report)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(5)
    ->Arg(6)
    ->Arg(7)
    ->UseRealTime();

void BM_ProfileLogRoundTrip(benchmark::State &State) {
  BenchmarkProgram B = buildJuru();
  RunResult R = profiledRun(B.Prog, {2});
  // Unique per process so concurrent bench runs (e.g. the bench-smoke
  // ctest entry next to a manual run) don't clobber each other's file.
  char Path[64];
  std::snprintf(Path, sizeof(Path), "/tmp/jdrag_bench_log.%d.bin",
                static_cast<int>(getpid()));
  for (auto _ : State) {
    if (!R.Log.writeFile(Path))
      std::abort();
    profiler::ProfileLog Back;
    if (!profiler::ProfileLog::readFile(Path, Back))
      std::abort();
    benchmark::DoNotOptimize(Back.Records.size());
  }
  State.SetItemsProcessed(State.iterations() * R.Log.Records.size());
  std::remove(Path);
}
BENCHMARK(BM_ProfileLogRoundTrip);

} // namespace

BENCHMARK_MAIN();
