//===- tests/test_interpfastpath.cpp - VM hot-path golden digests ---------===//
//
// Part of jdrag test suite.
//
// The VM's observable output -- run status, outputs, step counts, the
// `.jdev` event stream and its v6-compressed form, the live profiler's
// serialized log and the heap's handle sequence -- pinned against the
// committed digests in tests/data/golden/vm_hotpath.txt. The digests
// were produced by, and checked against, all 16 combinations of the
// hot-path alternatives the VM once carried (switch/threaded dispatch,
// site inline cache, allocation fast path, flat/span heap; see
// docs/vm-hotpath.md), so they hold each identity those alternatives
// proved. Cases cover the nine paper workloads (exact and sampled) and
// synthetic programs that poke the boundaries the fast paths must not
// blur (finalizers, caught OOM, generational scheduling, uncaught
// exceptions).
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Benchmarks.h"
#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "vm/VirtualMachine.h"

#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::vm;
using namespace jdrag::testutil;

namespace {

/// Everything observable from one recorded run.
struct StreamRun {
  Interpreter::Status Status = Interpreter::Status::Ok;
  std::vector<std::byte> Bytes;
  std::vector<std::int64_t> Outputs;
  std::uint64_t Steps = 0;
};

StreamRun record(const Program &P, const std::vector<std::int64_t> &In,
                 VMOptions Opts) {
  profiler::MemorySink Sink;
  Opts.Sink = &Sink;
  VirtualMachine VM(P, Opts);
  VM.setInputs(In);
  StreamRun R;
  R.Status = VM.run();
  R.Bytes.assign(Sink.bytes().begin(), Sink.bytes().end());
  R.Outputs = VM.outputs();
  R.Steps = VM.interpreter().steps();
  return R;
}

/// v6 leg: runs the framed stream through the ChunkCompressor, requires
/// every transformed frame to decompress back to the original payload
/// with its CRC preserved -- the "decompressed payloads are bit-identical
/// to the uncompressed recording" guarantee -- and returns the v6 frames
/// (what a compressed `.jdev` holds after its file header).
std::vector<std::byte> compressAndRoundTrip(std::span<const std::byte> Stream,
                                            const std::string &Label) {
  profiler::ChunkCompressor Comp;
  std::vector<std::byte> Wire;
  std::vector<std::uint8_t> Inflate;
  std::size_t Off = 0;
  while (Off < Stream.size()) {
    profiler::ChunkHeader H;
    if (Off + sizeof(H) > Stream.size()) {
      ADD_FAILURE() << Label << ": truncated frame header at " << Off;
      break;
    }
    std::memcpy(&H, Stream.data() + Off, sizeof(H));
    bool Footer = H.Magic == profiler::FooterMagic;
    std::size_t Frame = sizeof(H) + H.PayloadBytes + (Footer ? 8 : 0);
    if (Off + Frame > Stream.size()) {
      ADD_FAILURE() << Label << ": truncated frame at " << Off;
      break;
    }
    std::span<const std::byte> T = Comp.transform(Stream.data() + Off, Frame);
    if (T.size() < sizeof(H)) {
      ADD_FAILURE() << Label << ": compressor rejected frame at " << Off;
      break;
    }
    Wire.insert(Wire.end(), T.begin(), T.end());
    profiler::ChunkHeader W;
    std::memcpy(&W, T.data(), sizeof(W));
    EXPECT_EQ(W.Seq, H.Seq) << Label;
    std::span<const std::byte> Body;
    bool Inflated =
        profiler::chunkPayloadBytes(W, T.data() + sizeof(W), Inflate, Body);
    EXPECT_TRUE(Inflated) << Label << ": frame at " << Off
                          << " does not decompress";
    if (Inflated && !Footer) {
      EXPECT_EQ(W.Crc, H.Crc) << Label << ": CRC no longer covers the "
                              << "uncompressed payload";
      EXPECT_TRUE(Body.size() == H.PayloadBytes &&
                  std::memcmp(Body.data(), Stream.data() + Off + sizeof(H),
                              Body.size()) == 0)
          << Label << ": decompressed payload diverged at frame " << Off;
    }
    Off += Frame;
  }
  return Wire;
}

/// The committed digests every case is asserted against
/// (tests/data/golden/vm_hotpath.txt).
const std::map<std::string, std::string> &golden() {
  static const std::map<std::string, std::string> G = readGoldenFile(
      std::string(JDRAG_TEST_DATA_DIR) + "/golden/vm_hotpath.txt");
  return G;
}

/// Asserts one case line against its golden; a mismatch prints the
/// actual line.
void expectGolden(const std::string &Line) {
  std::string Case = Line.substr(0, Line.find(' '));
  auto It = golden().find(Case);
  if (It == golden().end()) {
    ADD_FAILURE() << "no golden line for " << Case << "; actual:\n" << Line;
    return;
  }
  EXPECT_EQ(Line, It->second) << "golden mismatch; actual:\n" << Line;
}

/// The golden line of one recorded run: status, step count, and length
/// + FNV-1a-64 of the outputs, of the `.jdev` stream and of its v6 form.
std::string goldenLine(const std::string &Case, const StreamRun &R) {
  std::string S = statusName(R.Status);
  std::replace(S.begin(), S.end(), ' ', '-');
  std::string L = Case + " status=" + S + " steps=" + std::to_string(R.Steps);
  L += " outputs=" + lengthAndDigest(std::as_bytes(std::span(R.Outputs)));
  L += " jdev=" + lengthAndDigest(R.Bytes);
  L += " v6=" + lengthAndDigest(compressAndRoundTrip(R.Bytes, Case));
  return L;
}

/// Records one run and asserts it against the case's golden line.
void expectRunGolden(const Program &P, const std::vector<std::int64_t> &In,
                     VMOptions Opts, const std::string &Case) {
  expectGolden(goldenLine(Case, record(P, In, Opts)));
}

/// Alloc/use churn with a finalizable class: every deep GC runs
/// finalizers (nested interpreter activations) between collections, so
/// the hoisted fast-path state must survive re-entry.
Program buildFinalizerChurn() {
  TestProgramBuilder T;
  ClassBuilder C = T.PB.beginClass("Fin", T.PB.objectClass());
  FieldId V = C.addField("v", ValueKind::Int);
  MethodBuilder Ctor = C.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor()).ret();
  Ctor.finish();
  // finalize() allocates and uses, driving events from inside the
  // nested activation.
  MethodBuilder Fin = C.beginMethod("finalize", {}, ValueKind::Void);
  Fin.iconst(3).newarray(ArrayKind::Int).pop();
  Fin.aload(0).getfield(V).pop();
  Fin.ret();
  Fin.finish();

  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.iconst(0).invokestatic(T.Read).istore(N);
  Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(Loop);
  M.iload(I).iload(N).ifICmpGe(Done);
  M.new_(C.id()).dup().invokespecial(Ctor.id()).astore(O);
  M.aload(O).iload(I).putfield(V);
  M.iconst(40).newarray(ArrayKind::Int).pop(); // garbage to force GCs
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.aload(O).getfield(V).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// Grows a reachable list until OOM, catches it, emits how far it got.
/// The live-byte budget boundary is exactly where the allocation fast
/// path must hand over to the slow path.
Program buildCaughtOOM() {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  FieldId Keep =
      MainC.addField("keep", ValueKind::Ref, Visibility::Public, true);
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t Arr = M.newLocal(ValueKind::Ref);
  Label TS = M.newLabel(), TE = M.newLabel(), H = M.newLabel(),
        Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(TS);
  Label Loop = M.newLabel();
  M.bind(Loop);
  M.iconst(100).newarray(ArrayKind::Ref).astore(Arr);
  M.aload(Arr).iconst(0).getstatic(Keep).aastore();
  M.aload(Arr).putstatic(Keep);
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(TE);
  M.goto_(Done);
  M.bind(H);
  M.pop().iload(I).invokestatic(T.Emit);
  M.bind(Done);
  M.ret();
  M.addHandler(TS, TE, H, T.PB.oomClass());
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// main { throw } after some allocation -- the uncaught-exit path must
/// also leave identical streams behind.
Program buildUncaughtThrow() {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.iconst(16).newarray(ArrayKind::Int).pop();
  M.new_(T.PB.throwableClass())
      .dup()
      .invokespecial(
          T.PB.program().findDeclaredMethod(T.PB.throwableClass(), "<init>"))
      .athrow();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

TEST(HotPathDifferential, PaperWorkloads) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    expectRunGolden(B.Prog, B.DefaultInputs, Opts,
                    "paper/" + B.Name + "/exact");
  }
}

/// `--sample-bytes 0` is the exact mode, not a third pipeline: an
/// explicit zero must leave every stream byte identical to a VM that
/// never heard of sampling.
TEST(HotPathDifferential, SampleBytesZeroIsExactMode) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    VMOptions Plain;
    Plain.DeepGCIntervalBytes = 100 * KB;
    StreamRun Ref = record(B.Prog, B.DefaultInputs, Plain);
    VMOptions Zero = Plain;
    Zero.SampleBytes = 0;
    Zero.SampleSeed = 12345; // seed must be inert when sampling is off
    StreamRun R = record(B.Prog, B.DefaultInputs, Zero);
    EXPECT_TRUE(R.Bytes == Ref.Bytes)
        << B.Name << ": --sample-bytes 0 stream diverged from exact";
    expectGolden(goldenLine("paper/" + B.Name + "/exact", R));
  }
}

/// Sampling draws from a PRNG advanced once per allocation, so the
/// sampled stream is a pure function of the allocation sequence.
TEST(HotPathDifferential, SampledStreamComboInvariant) {
  for (const benchmarks::BenchmarkProgram &B : benchmarks::buildAll()) {
    VMOptions Opts;
    Opts.DeepGCIntervalBytes = 100 * KB;
    Opts.SampleBytes = 64 * KB;
    expectRunGolden(B.Prog, B.DefaultInputs, Opts,
                    "paper/" + B.Name + "/sampled64k");
  }
}

TEST(HotPathDifferential, FinalizerChurn) {
  Program P = buildFinalizerChurn();
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 16 * KB; // frequent deep GCs + finalizers
  expectRunGolden(P, {400}, Opts, "finalizer-churn");
}

TEST(HotPathDifferential, CaughtOOMAtLiveByteBudget) {
  Program P = buildCaughtOOM();
  VMOptions Opts;
  Opts.MaxLiveBytes = 64 * KB;
  expectRunGolden(P, {}, Opts, "caught-oom");
}

TEST(HotPathDifferential, GenerationalScheduledGC) {
  Program P = buildFinalizerChurn();
  VMOptions Opts;
  Opts.Generational.Enabled = true;
  Opts.Generational.NurseryBytes = 8 * KB; // frequent minor GCs
  expectRunGolden(P, {300}, Opts, "generational-churn");
}

TEST(HotPathDifferential, UncaughtThrow) {
  Program P = buildUncaughtThrow();
  StreamRun R = record(P, {}, VMOptions());
  EXPECT_EQ(R.Status, Interpreter::Status::UncaughtException);
  expectGolden(goldenLine("uncaught-throw", R));
}

/// Allocates an int[2], then fails: an out-of-bounds load traps, or an
/// endless loop runs into the step limit.
Program buildAllocThenFail(bool Trap) {
  TestProgramBuilder T;
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t A = M.newLocal(ValueKind::Ref);
  M.iconst(2).newarray(ArrayKind::Int).astore(A);
  if (Trap) {
    M.aload(A).iconst(5).iaload().pop().ret();
  } else {
    Label Loop = M.newLabel();
    M.bind(Loop);
    M.goto_(Loop);
  }
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// A run that ends in an uncaught exception, a trap or the step limit
/// still terminates like any other: its recording replays cleanly, ends
/// at a Terminate event, and logs every object it allocated.
TEST(HotPathDifferential, FailingRunsReplayCleanly) {
  VMOptions Limited;
  Limited.MaxSteps = 1000;
  struct Case {
    Program P;
    VMOptions Opts;
    Interpreter::Status Want;
  } Cases[] = {
      {buildUncaughtThrow(), VMOptions(),
       Interpreter::Status::UncaughtException},
      {buildAllocThenFail(/*Trap=*/true), VMOptions(),
       Interpreter::Status::Trap},
      {buildAllocThenFail(/*Trap=*/false), Limited,
       Interpreter::Status::StepLimit},
  };
  for (const Case &C : Cases) {
    StreamRun R = record(C.P, {}, C.Opts);
    EXPECT_EQ(R.Status, C.Want);
    profiler::DragProfiler Prof(C.P);
    std::string Err;
    ASSERT_TRUE(profiler::replayBytes(R.Bytes, Prof, &Err)) << Err;
    EXPECT_GT(Prof.log().EndTime, 0u);
    EXPECT_FALSE(Prof.log().Records.empty());
    EXPECT_EQ(Prof.liveTrailers(), 0u);
  }
}

/// The live-profiling path (DragProfiler's dispatch sink consuming the
/// stream as it is produced) is pinned by its serialized log, the
/// strongest equality available.
TEST(HotPathDifferential, ProfileLogIdentical) {
  Program P = buildFinalizerChurn();
  profiler::DragProfiler Prof(P);
  VMOptions Opts;
  Opts.DeepGCIntervalBytes = 16 * KB;
  Prof.attachTo(Opts);
  VirtualMachine VM(P, Opts);
  VM.setInputs({200});
  EXPECT_EQ(VM.run(), Interpreter::Status::Ok);
  std::string Path = "/tmp/jdrag_fastpath_log.bin";
  ASSERT_TRUE(Prof.log().writeFile(Path));
  std::ifstream In(Path, std::ios::binary);
  std::vector<char> Log((std::istreambuf_iterator<char>(In)),
                        std::istreambuf_iterator<char>());
  expectGolden("profilelog/finalizer-churn bytes=" +
               lengthAndDigest(std::as_bytes(std::span(Log))));
}

/// Handle assignment and recycling order is observable (it decides
/// future sweep order); pin the index sequence of a fixed
/// allocate/collect pattern at the heap API level.
TEST(HotPathDifferential, HandleSequence) {
  TestProgramBuilder T;
  ClassBuilder NodeC = T.PB.beginClass("Node", T.PB.objectClass());
  NodeC.addField("next", ValueKind::Ref);
  NodeC.addField("val", ValueKind::Int);
  MethodBuilder Fin = NodeC.beginMethod("finalize", {}, ValueKind::Void);
  Fin.ret();
  Fin.finish();
  ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  Program P = T.finishVerified();
  ClassId Node = P.findClass("Node");

  class PinnedRoots : public RootSource {
  public:
    std::vector<Handle> Pins;
    void visitRoots(HandleVisitor Visit) override {
      for (Handle H : Pins)
        Visit(H);
    }
  };
  Heap H(P);
  PinnedRoots Roots;
  H.addRootSource(&Roots);
  std::vector<std::uint32_t> Trace;
  for (int I = 0; I != 100; ++I) {
    Handle A = H.allocateObject(Node);
    Trace.push_back(A.Index);
    if (I % 2 == 0)
      Roots.Pins.push_back(A); // pin evens, drop odds
  }
  GCStats S = H.collect();
  Trace.push_back(static_cast<std::uint32_t>(S.FreedObjects));
  for (int I = 0; I != 80; ++I)
    Trace.push_back(H.allocateArray(ArrayKind::Ref, I % 7).Index);
  H.collect();
  H.forEachLiveObject(
      [&](Handle HL, const HeapObject &) { Trace.push_back(HL.Index); });
  expectGolden("handles/sequence trace=" +
               lengthAndDigest(std::as_bytes(std::span(Trace))));
  H.removeRootSource(&Roots);
}

} // namespace
