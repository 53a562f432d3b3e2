//===- perfbench/trace.h - Spans and layer wrappers for the benchmark ------===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing, done entirely from outside the library: it
/// wraps calls into the public functions of each layer and records a
/// span around each call. Spans stay in memory and are written out once,
/// when the run ends. A layer's self time is its span minus the spans
/// nested inside it.
///
///   SplitSink     ChunkCompressor::transform, then a pass-through
///                 FileEventSink: splits compression from file writes
///   TimedSink     any sink (SocketEventSink here), timed per call
///   EventCounter  an EventConsumer counting events by kind
///   RecordCounter a RecordSink counting finished object records
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_PERFBENCH_TRACE_H
#define JDRAG_PERFBENCH_TRACE_H

#include "profiler/DragProfiler.h"
#include "profiler/EventStream.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

namespace perfbench {

using namespace jdrag;

inline double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds used so far by the calling thread alone.
inline double threadCpuNow() {
  timespec T{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// In-memory span recorder. Thread-safe: the fleet workload records
/// spans from two client threads and the daemon thread at once.
class Tracer {
public:
  struct Span {
    std::string Name;
    int Op = 0;      ///< the operation (request) the span belongs to
    int Parent = -1; ///< index of the enclosing span, -1 at the top
    double Start = 0, End = 0;
    std::size_t Thread = 0;
  };

  /// Opens a span and returns its index.
  int begin(const std::string &Name, int Op, int Parent = -1) {
    double T = wallNow();
    std::lock_guard<std::mutex> L(M);
    Spans.push_back({Name, Op, Parent, T, T,
                     std::hash<std::thread::id>()(std::this_thread::get_id())});
    return static_cast<int>(Spans.size()) - 1;
  }
  void end(int Id) {
    double T = wallNow();
    std::lock_guard<std::mutex> L(M);
    Spans[static_cast<std::size_t>(Id)].End = T;
  }

  /// Sum of the durations of spans named \p Name in operation \p Op.
  double total(const std::string &Name, int Op) const {
    std::lock_guard<std::mutex> L(M);
    double Sum = 0;
    for (const Span &S : Spans)
      if (S.Op == Op && S.Name == Name)
        Sum += S.End - S.Start;
    return Sum;
  }

  /// Duration of the spans named \p Name in \p Op minus the time covered
  /// by their direct children.
  double self(const std::string &Name, int Op) const {
    std::lock_guard<std::mutex> L(M);
    std::vector<bool> Match(Spans.size());
    double Sum = 0;
    for (std::size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Op == Op && Spans[I].Name == Name) {
        Match[I] = true;
        Sum += Spans[I].End - Spans[I].Start;
      }
    for (const Span &C : Spans)
      if (C.Parent >= 0 && Match[static_cast<std::size_t>(C.Parent)])
        Sum -= C.End - C.Start;
    return Sum;
  }

  /// Writes every span as one JSON object per line, times relative to
  /// the first span.
  bool write(const std::string &Path) const {
    std::lock_guard<std::mutex> L(M);
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    double T0 = Spans.empty() ? 0 : Spans.front().Start;
    for (const Span &S : Spans)
      std::fprintf(F,
                   "{\"name\": \"%s\", \"op\": %d, \"parent\": %d, "
                   "\"start_s\": %.9f, \"end_s\": %.9f, \"thread\": %zu}\n",
                   S.Name.c_str(), S.Op, S.Parent, S.Start - T0, S.End - T0,
                   S.Thread);
    return std::fclose(F) == 0;
  }

private:
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, const std::string &Name, int Op, int Parent = -1)
      : T(T), Id(T ? T->begin(Name, Op, Parent) : -1) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  int id() const { return Id; }

private:
  Tracer *T;
  int Id;
};

/// Forwards the delivery accounting of \p Inner, so a wrapping sink
/// leaves the VM's StreamHealth exactly as the bare sink would.
class ForwardingSink : public profiler::EventSink {
public:
  explicit ForwardingSink(profiler::EventSink &Inner) : Inner(Inner) {}
  int lastErrno() const override { return Inner.lastErrno(); }
  std::uint32_t retries() const override { return Inner.retries(); }
  std::uint64_t droppedChunks() const override { return Inner.droppedChunks(); }
  std::uint64_t droppedBytes() const override { return Inner.droppedBytes(); }
  std::uint64_t spooledChunks() const override { return Inner.spooledChunks(); }
  std::uint64_t spooledBytes() const override { return Inner.spooledBytes(); }
  std::uint32_t failovers() const override { return Inner.failovers(); }

protected:
  profiler::EventSink &Inner;
};

/// Compresses each frame with its own ChunkCompressor, then hands the
/// result to \p File, a FileEventSink opened with Format=V6 and
/// Compress=false (which writes frames verbatim). The output is the
/// same bytes a compressing FileEventSink writes; the two steps are
/// timed apart as profiler.compress and profiler.sink_write spans.
class SplitSink : public ForwardingSink {
public:
  SplitSink(profiler::FileEventSink &File, Tracer &T, int Op, int Parent)
      : ForwardingSink(File), T(T), Op(Op), Parent(Parent) {}

  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    std::span<const std::byte> Out;
    {
      Scope S(&T, "profiler.compress", Op, Parent);
      Out = Comp.transform(Data, Size);
    }
    if (Out.empty())
      return false;
    profiler::ChunkHeader H;
    std::memcpy(&H, Data, sizeof(H));
    if (H.Magic == profiler::ChunkMagic)
      ++DataChunks;
    Scope S(&T, "profiler.sink_write", Op, Parent);
    return Inner.writeChunk(Out.data(), Out.size());
  }
  bool finish() override {
    Scope S(&T, "profiler.sink_write", Op, Parent);
    return Inner.finish();
  }

  const profiler::ChunkCompressor &compressor() const { return Comp; }
  std::uint64_t dataChunks() const { return DataChunks; }

private:
  profiler::ChunkCompressor Comp;
  Tracer &T;
  int Op, Parent;
  std::uint64_t DataChunks = 0;
};

/// Times every call into \p Inner as a span named \p Name.
class TimedSink : public ForwardingSink {
public:
  TimedSink(profiler::EventSink &Inner, Tracer &T, std::string Name, int Op,
            int Parent)
      : ForwardingSink(Inner), T(T), Name(std::move(Name)), Op(Op),
        Parent(Parent) {}

  bool writeChunk(const std::byte *Data, std::size_t Size) override {
    Scope S(&T, Name, Op, Parent);
    return Inner.writeChunk(Data, Size);
  }
  bool finish() override {
    Scope S(&T, Name, Op, Parent);
    return Inner.finish();
  }

private:
  Tracer &T;
  std::string Name;
  int Op, Parent;
};

/// Counts decoded events by kind.
class EventCounter : public profiler::EventConsumer {
public:
  void onSite(profiler::SiteId, std::span<const profiler::SiteFrame>) override {
  }
  void onEvent(const profiler::EventRecord &E) override {
    ++Total;
    if (E.Kind < profiler::NumEventKinds)
      ++ByKind[E.Kind];
  }
  std::uint64_t count(profiler::EventKind K) const {
    return ByKind[static_cast<std::size_t>(K)];
  }

  std::uint64_t Total = 0;

private:
  std::uint64_t ByKind[profiler::NumEventKinds] = {};
};

/// Counts the object records the profiler finishes.
class RecordCounter : public profiler::RecordSink {
public:
  void onRecord(const profiler::ObjectRecord &) override { ++Records; }
  std::uint64_t Records = 0;
};

} // namespace perfbench

#endif // JDRAG_PERFBENCH_TRACE_H
