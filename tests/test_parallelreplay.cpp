//===- tests/test_parallelreplay.cpp - Sharded replay tests ---------------===//
//
// Part of jdrag test suite.
//
// The parallel replay contract is a single sentence: for any readable
// recording, replayProfileParallel(Jobs) produces a ProfileLog that is
// bit-identical to the sequential replayProfile() result, and for any
// damaged recording it fails with the same error instead of crashing.
// These tests walk that contract across the format matrix (v2, v3,
// v4-with-footer, v4-footer-stripped), across config variants (snapped
// vs exact use times, excluded classes), and across adversarial inputs
// (lying footers, truncation, salvaged prefixes).
//
//===----------------------------------------------------------------------===//

#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"
#include "profiler/ParallelReplay.h"
#include "profiler/StreamSalvage.h"
#include "support/Crc32c.h"
#include "vm/VirtualMachine.h"

#include "VMTestUtils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

using namespace jdrag;
using namespace jdrag::profiler;
using namespace jdrag::testutil;

namespace {

std::string tempPath(const char *Name) {
  // Pid-unique so parallel ctest processes cannot clobber each
  // other's files.
  return std::string("/tmp/jdrag_parreplay_") + std::to_string(getpid()) + "_" +
         Name;
}

std::vector<std::byte> readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  std::vector<std::byte> Out;
  char C;
  while (In.get(C))
    Out.push_back(static_cast<std::byte>(C));
  return Out;
}

void writeBytes(const std::string &Path, std::span<const std::byte> Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Same churn workload as the event-stream tests: alternating used and
/// dragging objects plus array garbage, enough traffic for GC cycles
/// and a deep-GC interval. \p BoxOut receives the Box class id for the
/// excluded-classes variant.
ir::Program buildChurnProgram(ir::ClassId *BoxOut = nullptr) {
  using ir::ValueKind;
  TestProgramBuilder T;
  ir::ClassBuilder C = T.PB.beginClass("Box", T.PB.objectClass());
  ir::FieldId V = C.addField("v", ValueKind::Int);
  ir::MethodBuilder Ctor = C.beginMethod("<init>", {}, ValueKind::Void);
  Ctor.aload(0).invokespecial(T.PB.objectCtor()).ret();
  Ctor.finish();
  if (BoxOut)
    *BoxOut = C.id();

  ir::ClassBuilder MainC = T.PB.beginClass("Main", T.PB.objectClass());
  ir::MethodBuilder M = MainC.beginMethod("main", {}, ValueKind::Void, true);
  std::uint32_t N = M.newLocal(ValueKind::Int);
  std::uint32_t I = M.newLocal(ValueKind::Int);
  std::uint32_t O = M.newLocal(ValueKind::Ref);
  M.iconst(0).invokestatic(T.Read).istore(N);
  ir::Label Loop = M.newLabel(), Skip = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(I);
  M.bind(Loop);
  M.iload(I).iload(N).ifICmpGe(Done);
  M.new_(C.id()).dup().invokespecial(Ctor.id()).astore(O);
  M.iload(I).iconst(1).iand_().ifEqZ(Skip);
  M.aload(O).iload(I).putfield(V);
  M.aload(O).getfield(V).pop();
  M.bind(Skip);
  M.iconst(9).newarray(ir::ArrayKind::Int).pop();
  M.iload(I).iconst(1).iadd().istore(I);
  M.goto_(Loop);
  M.bind(Done);
  M.iconst(0).invokestatic(T.Emit);
  M.ret();
  M.finish();
  T.PB.setMain(M.id());
  return T.finishVerified();
}

/// Records \p P to \p Path with a forced chunk size, so even the small
/// test workload spans enough chunks to shard meaningfully.
void recordRun(const ir::Program &P, const std::string &Path,
               std::size_t ChunkBytes, WireFormat Format = DefaultWireFormat) {
  FileEventSink Sink;
  FileEventSink::Options FO;
  FO.Format = Format;
  ASSERT_TRUE(Sink.open(Path, FO));
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Opts.Sink = &Sink;
  Opts.EventFormat = Format;
  Opts.EventChunkBytes = ChunkBytes;
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({300});
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  ASSERT_TRUE(VM.streamIntact());
}

/// Serializes both logs and compares the bytes -- records, sites, GC
/// samples and end time all at once.
void expectBitIdentical(const ProfileLog &A, const ProfileLog &B) {
  std::string PathA = tempPath("cmp_a.bin"), PathB = tempPath("cmp_b.bin");
  ASSERT_TRUE(A.writeFile(PathA));
  ASSERT_TRUE(B.writeFile(PathB));
  EXPECT_EQ(readBytes(PathA), readBytes(PathB));
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

/// The core assertion: sequential replay and parallel replay at several
/// worker counts all succeed and serialize to identical bytes.
void expectParallelMatchesSequential(const std::string &Path,
                                     const ir::Program &P,
                                     ProfilerConfig Config = ProfilerConfig()) {
  ProfileLog Seq;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, P, Config, Seq, &Err)) << Err;
  for (unsigned Jobs : {2u, 4u, 64u}) {
    ProfileLog Par;
    ASSERT_TRUE(replayProfileParallel(Path, P, Config, Jobs, Par, &Err))
        << "jobs=" << Jobs << ": " << Err;
    expectBitIdentical(Seq, Par);
  }
}

TEST(ParallelReplay, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(defaultReplayJobs(), 1u);
}

TEST(ParallelReplay, V4FooterParallelMatchesSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  ASSERT_TRUE(Rep.FooterPresent);
  ASSERT_TRUE(Rep.FooterOk);
  ASSERT_GE(Rep.Chunks.size(), 4u) << "workload must span several chunks";

  expectParallelMatchesSequential(Path, P);
  std::remove(Path.c_str());
}

// 512-byte chunks split records across chunk boundaries; 8-byte ones
// also spread a single record (a site definition) over several chunks.
TEST(ParallelReplay, V3NoFooterParallelMatchesSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v3.jdev");
  for (std::size_t ChunkBytes : {512u, 8u}) {
    recordRun(P, Path, ChunkBytes, WireFormat::V3);

    SalvageReport Rep = scanEventFile(Path, nullptr);
    ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
    EXPECT_FALSE(Rep.FooterPresent);
    ASSERT_GE(Rep.Chunks.size(), 4u);

    expectParallelMatchesSequential(Path, P);
  }
  std::remove(Path.c_str());
}

TEST(ParallelReplay, V2ParallelMatchesSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v2.jdev");
  for (std::size_t ChunkBytes : {512u, 8u}) {
    recordRun(P, Path, ChunkBytes, WireFormat::V2);

    SalvageReport Rep = scanEventFile(Path, nullptr);
    ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
    ASSERT_GE(Rep.Chunks.size(), 4u);

    expectParallelMatchesSequential(Path, P);
  }
  std::remove(Path.c_str());
}

TEST(ParallelReplay, ParallelMatchesLiveAttachedProfile) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_live.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  DragProfiler Prof(P);
  vm::VMOptions Opts;
  Opts.DeepGCIntervalBytes = 100 * KB;
  Prof.attachTo(Opts);
  vm::VirtualMachine VM(P, Opts);
  VM.setInputs({300});
  std::string Err;
  ASSERT_EQ(VM.run(&Err), vm::Interpreter::Status::Ok) << Err;
  ProfileLog Live = Prof.takeLog();

  ProfileLog Par;
  ASSERT_TRUE(
      replayProfileParallel(Path, P, ProfilerConfig(), 4, Par, &Err))
      << Err;
  expectBitIdentical(Live, Par);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, FooterStrippedV4StillShards) {
  // A v4 stream whose footer frame never made it to disk (crash before
  // finishStream) is NOT damaged -- readers rebuild the index. The
  // parallel result must not change.
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_nofoot.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  std::vector<std::byte> File = readBytes(Path);
  ASSERT_GT(File.size(), 16u);
  std::span<const std::byte> Framed(File.data() + 16, File.size() - 16);
  std::size_t FB = footerBlockSize(Framed);
  ASSERT_GT(FB, 0u);
  writeBytes(Path, std::span<const std::byte>(File.data(), File.size() - FB));

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.clean()) << Rep.summary(Path);
  EXPECT_FALSE(Rep.FooterPresent);

  expectParallelMatchesSequential(Path, P);
  std::remove(Path.c_str());
}

/// Rewrites \p Path's footer after letting \p Tamper rewrite the parsed
/// entries -- the result is a structurally valid, CRC-correct footer
/// whose *claims* about the chunks are lies.
void rewriteFooter(const std::string &Path,
                   const std::function<void(ChunkIndex &)> &Tamper) {
  std::vector<std::byte> File = readBytes(Path);
  ASSERT_GT(File.size(), 16u);
  std::span<const std::byte> Framed(File.data() + 16, File.size() - 16);
  std::size_t FB = footerBlockSize(Framed);
  ASSERT_GT(FB, 0u);
  ChunkIndex Idx;
  ASSERT_TRUE(readChunkIndexFooter(Framed, Idx));
  Tamper(Idx);
  std::vector<std::byte> Footer =
      encodeChunkIndexFooter(Idx.Entries, Idx.TotalRecords);
  File.resize(File.size() - FB);
  File.insert(File.end(), Footer.begin(), Footer.end());
  writeBytes(Path, File);
}

TEST(ParallelReplay, LyingFooterRecordCountDegradesGracefully) {
  // The footer is a producer claim; a workers-disagree outcome must
  // trigger the rebuild-and-retry path and still match sequential.
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_liecount.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);
  rewriteFooter(Path, [](ChunkIndex &Idx) {
    ASSERT_GE(Idx.Entries.size(), 2u);
    Idx.Entries[0].RecordCount += 1;
    Idx.Entries[1].FirstTime += 12345;
  });

  // The lie is CRC-valid, so a scan still calls the footer ok...
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_TRUE(Rep.FooterPresent);
  ASSERT_TRUE(Rep.FooterOk);

  // ...but replay re-verifies reality and must not be fooled.
  expectParallelMatchesSequential(Path, P);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, LyingFooterCrcDegradesGracefully) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_liecrc.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);
  rewriteFooter(Path, [](ChunkIndex &Idx) {
    ASSERT_GE(Idx.Entries.size(), 2u);
    Idx.Entries.back().Crc ^= 0xdeadbeef;
  });
  expectParallelMatchesSequential(Path, P);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, TruncatedRecordingFailsExactlyLikeSequential) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_trunc.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_GE(Rep.Chunks.size(), 4u);
  // Cut inside the third chunk: structurally damaged, not salvage-clean.
  std::vector<std::byte> File = readBytes(Path);
  std::size_t Cut = static_cast<std::size_t>(Rep.Chunks[2].Offset) + 5;
  ASSERT_LT(Cut, File.size());
  writeBytes(Path, std::span<const std::byte>(File.data(), Cut));

  ProfileLog Seq, Par;
  std::string SeqErr, ParErr;
  EXPECT_FALSE(replayProfile(Path, P, ProfilerConfig(), Seq, &SeqErr));
  EXPECT_FALSE(
      replayProfileParallel(Path, P, ProfilerConfig(), 4, Par, &ParErr));
  EXPECT_FALSE(SeqErr.empty());
  EXPECT_EQ(SeqErr, ParErr) << "damaged files must get the canonical error";
  std::remove(Path.c_str());
}

TEST(ParallelReplay, SalvagedPrefixReplaysIdentically) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_corrupt.jdev");
  std::string Salvaged = tempPath("v4_salvaged.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_GE(Rep.Chunks.size(), 4u);
  // Flip a payload byte mid-file, then salvage the valid prefix.
  std::vector<std::byte> File = readBytes(Path);
  std::size_t Hit = static_cast<std::size_t>(Rep.Chunks[2].Offset) +
                    sizeof(ChunkHeader) + 3;
  ASSERT_LT(Hit, File.size());
  File[Hit] ^= std::byte{0x40};
  writeBytes(Path, File);

  SalvageReport SalvRep;
  std::string Err;
  ASSERT_TRUE(salvageEventFile(Path, Salvaged, &SalvRep, &Err)) << Err;
  EXPECT_EQ(SalvRep.FirstDamaged, 2u);
  EXPECT_GT(SalvRep.EventsRecovered, 0u);

  expectParallelMatchesSequential(Salvaged, P);
  std::remove(Path.c_str());
  std::remove(Salvaged.c_str());
}

TEST(ParallelReplay, ExactUseTimesAndExclusionsMatch) {
  // Config variants thread through the merge differently (no interval
  // snapping; class-excluded records skipped but still end-consumed).
  ir::ClassId Box;
  ir::Program P = buildChurnProgram(&Box);
  std::string Path = tempPath("v4_cfg.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);

  ProfilerConfig Exact;
  Exact.SnapUseTimes = false;
  expectParallelMatchesSequential(Path, P, Exact);

  ProfilerConfig Excl;
  Excl.ExcludedClasses.push_back(Box);
  expectParallelMatchesSequential(Path, P, Excl);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, MoreJobsThanChunks) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_fewchunks.jdev");
  recordRun(P, Path, /*ChunkBytes=*/2048);
  SalvageReport Rep = scanEventFile(Path, nullptr);
  ASSERT_GE(Rep.Chunks.size(), 2u);
  expectParallelMatchesSequential(Path, P);
  std::remove(Path.c_str());
}

TEST(ParallelReplay, HeaderOnlyRecording) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("header_only.jdev");
  {
    FileEventSink Sink;
    ASSERT_TRUE(Sink.open(Path));
    ASSERT_TRUE(Sink.finish());
  }
  ProfileLog Seq, Par;
  std::string Err;
  ASSERT_TRUE(replayProfile(Path, P, ProfilerConfig(), Seq, &Err)) << Err;
  ASSERT_TRUE(replayProfileParallel(Path, P, ProfilerConfig(), 4, Par, &Err))
      << Err;
  EXPECT_TRUE(Par.Records.empty());
  expectBitIdentical(Seq, Par);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The chunk reader every sharded and salvage path reads through
//===----------------------------------------------------------------------===//

// The rebuild walk, which holds one chunk at a time, must reconstruct
// exactly the index the producer wrote into the footer.
TEST(ChunkReader, RebuiltIndexMatchesFooter) {
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("v4_reader.jdev");
  recordRun(P, Path, /*ChunkBytes=*/512);
  ChunkReader R;
  ASSERT_EQ(R.open(Path), HeaderStatus::Ok);
  ASSERT_TRUE(R.footerPresent());
  ChunkIndex Footer, Rebuilt;
  ASSERT_TRUE(R.readFooter(Footer));
  ASSERT_TRUE(R.rebuildIndex(Rebuilt));
  EXPECT_TRUE(Footer.FromFooter);
  EXPECT_FALSE(Rebuilt.FromFooter);
  ASSERT_GE(Rebuilt.Entries.size(), 2u);
  ASSERT_EQ(Rebuilt.Entries.size(), Footer.Entries.size());
  EXPECT_EQ(Rebuilt.TotalRecords, Footer.TotalRecords);
  for (std::size_t I = 0; I != Footer.Entries.size(); ++I) {
    const ChunkIndexEntry &A = Footer.Entries[I], &B = Rebuilt.Entries[I];
    EXPECT_EQ(A.Offset, B.Offset) << I;
    EXPECT_EQ(A.Seq, B.Seq) << I;
    EXPECT_EQ(A.PayloadBytes, B.PayloadBytes) << I;
    EXPECT_EQ(A.Crc, B.Crc) << I;
    EXPECT_EQ(A.RecordCount, B.RecordCount) << I;
    EXPECT_EQ(A.FirstTime, B.FirstTime) << I;
    EXPECT_EQ(A.LastTime, B.LastTime) << I;
    EXPECT_EQ(A.FirstRecord, B.FirstRecord) << I;
  }
  std::remove(Path.c_str());
}

// checkChunk runs its checks in one fixed order and reports the first
// that fails, whatever else is wrong with the frame.
TEST(ChunkReader, CheckChunkReportsTheFirstFailingCheck) {
  const std::byte Payload[5] = {std::byte(1), std::byte(2), std::byte(3),
                                std::byte(4), std::byte(5)};
  ChunkHeader Good;
  Good.Magic = ChunkMagic;
  Good.Seq = 7;
  Good.PayloadBytes = sizeof(Payload);
  Good.Crc = support::crc32c(Payload, sizeof(Payload));
  auto Check = [&](ChunkHeader H, std::size_t PayloadBytes,
                   std::optional<std::uint32_t> Seq = 7) {
    std::vector<std::byte> Frame(sizeof(H) + PayloadBytes);
    std::memcpy(Frame.data(), &H, sizeof(H));
    std::memcpy(Frame.data() + sizeof(H), Payload, PayloadBytes);
    ChunkHeader Out;
    std::vector<std::uint8_t> Inflate;
    std::span<const std::byte> Body;
    return checkChunk(Frame, Seq, WireFormat::V4, Out, Inflate, Body);
  };
  EXPECT_EQ(Check(Good, 5), ChunkStatus::Ok);
  EXPECT_EQ(Check(Good, 5, std::nullopt), ChunkStatus::Ok);
  ChunkHeader H = Good;
  H.Crc ^= 1;
  EXPECT_EQ(Check(H, 5), ChunkStatus::BadCrc);
  EXPECT_EQ(Check(H, 4), ChunkStatus::TruncatedPayload);
  H.Seq = 8;
  EXPECT_EQ(Check(H, 4), ChunkStatus::BadSequence);
  EXPECT_EQ(Check(H, 4, std::nullopt), ChunkStatus::TruncatedPayload);
  H.PayloadBytes = MaxChunkPayload + 1;
  EXPECT_EQ(Check(H, 4), ChunkStatus::OversizedPayload);
  H.PayloadBytes = 0;
  EXPECT_EQ(Check(H, 4), ChunkStatus::OversizedPayload);
  H.Magic = FooterMagic;
  EXPECT_EQ(Check(H, 4), ChunkStatus::BadMagic);
  std::vector<std::uint8_t> Inflate;
  std::span<const std::byte> Body;
  std::vector<std::byte> Short(sizeof(ChunkHeader) - 1);
  EXPECT_EQ(checkChunk(Short, 0, WireFormat::V4, H, Inflate, Body),
            ChunkStatus::TruncatedHeader);
}

// v2/v3 records straddle chunks -- at 8-byte chunks one record spans
// several -- so each range must decode exactly the records that start
// in it, finishing its last one from the next range's head bytes.
TEST(ChunkReader, RangesDecodeEveryRecordOnce) {
  class Counter : public EventConsumer {
  public:
    void onSite(SiteId, std::span<const SiteFrame>) override { ++N; }
    void onEvent(const EventRecord &) override { ++N; }
    std::uint64_t N = 0;
  };
  ir::Program P = buildChurnProgram();
  std::string Path = tempPath("ranges.jdev");
  for (WireFormat F : {WireFormat::V2, WireFormat::V3})
    for (std::size_t ChunkBytes : {512u, 8u}) {
      recordRun(P, Path, ChunkBytes, F);
      Counter Whole;
      ASSERT_TRUE(replayFile(Path, Whole));
      ChunkReader R;
      ChunkIndex Idx;
      ASSERT_EQ(R.open(Path), HeaderStatus::Ok);
      ASSERT_TRUE(R.index(Idx));
      EXPECT_EQ(Idx.TotalRecords, Whole.N);
      bool Spanning = false;
      for (const ChunkIndexEntry &E : Idx.Entries)
        Spanning |= E.RecordCount == 0;
      EXPECT_EQ(Spanning, ChunkBytes == 8u);
      std::vector<Counter> Parts(3);
      std::vector<std::string> Errs(3);
      EXPECT_EQ(forEachShard(Idx, 3,
                             [&](unsigned K, std::size_t B, std::size_t E) {
                               decodeChunkRange(R, Idx, B, E, Parts[K],
                                                Errs[K]);
                             }),
                3u);
      std::uint64_t Sum = 0;
      for (unsigned K = 0; K != 3; ++K) {
        EXPECT_EQ(Errs[K], "") << K;
        Sum += Parts[K].N;
      }
      EXPECT_EQ(Sum, Whole.N);
    }
  std::remove(Path.c_str());
}

} // namespace
