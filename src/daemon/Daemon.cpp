//===- daemon/Daemon.cpp - The jdragd collector daemon --------------------===//

#include "daemon/Daemon.h"

#include "analysis/RecordFold.h"
#include "profiler/Sampling.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace jdrag;
using namespace jdrag::daemon;

namespace {

/// Session file names embed the client-supplied name; everything outside
/// [A-Za-z0-9_.-] is replaced so a hostile HELLO cannot traverse paths.
std::string sanitizeName(const std::string &Name) {
  std::string Out = Name.empty() ? std::string("anon") : Name;
  for (char &C : Out) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == '.' || C == '-';
    if (!Ok)
      C = '_';
  }
  return Out;
}

/// Admin connections are line-oriented and low-volume; a peer that
/// streams bytes without a newline, or never reads its responses, is
/// hostile or broken and gets disconnected rather than growing daemon
/// memory without bound.
constexpr std::size_t MaxAdminLine = 4096;
constexpr std::size_t MaxAdminPendingOut = 4u << 20;

/// Declared uncompressed size of a v6 compressed chunk payload: the LZ
/// block's leading uvarint (a producer claim -- accounting only; the
/// decoder re-validates it against the real output). Returns 0 on a
/// malformed prefix.
std::uint64_t lzDeclaredRawLen(const std::byte *P, std::size_t N) {
  std::uint64_t V = 0;
  for (std::size_t I = 0; I != N && I != 10; ++I) {
    std::uint8_t B = static_cast<std::uint8_t>(P[I]);
    V |= static_cast<std::uint64_t>(B & 0x7F) << (7 * I);
    if (!(B & 0x80))
      return V;
  }
  return 0;
}

/// A session's phase 2, run live: every record the profiler finishes is
/// folded into the per-site sums the fleet table needs and then
/// forgotten, so a session holds live trailers and fold state, never
/// its record history. The object-byte totals CLIENTS shows accumulate
/// here too, in record order, exactly as a pass over the materialized
/// records would sum them.
class SessionFold : public profiler::RecordSink {
public:
  explicit SessionFold(std::uint64_t SampleRate)
      : Rate(SampleRate), Sites(SampleRate) {}

  void onRecord(const profiler::ObjectRecord &R) override {
    Sites.fold(R);
    RawObjBytes += R.Bytes;
    EstObjBytes += static_cast<double>(R.Bytes) *
                   profiler::sampleWeight(R.Bytes, Rate);
  }

  std::uint64_t Rate;
  analysis::SiteGroupFold Sites;
  std::uint64_t RawObjBytes = 0;
  double EstObjBytes = 0;
};

} // namespace

struct CollectorDaemon::Session {
  int Fd = -1;
  std::uint64_t Id = 0;
  MessageReader Rd;
  bool GotHello = false;
  HelloInfo Info;
  const ir::Program *Prog = nullptr;
  profiler::FileEventSink Rec;
  std::string FilePath;
  bool RecOpen = false;
  bool RecFailed = false;
  std::unique_ptr<SessionFold> Fold;
  std::unique_ptr<profiler::DragProfiler> Prof;
  std::unique_ptr<profiler::FrameDecoder> Dec;
  bool DecodeFailed = false;
  std::uint64_t DataChunks = 0;
  std::uint64_t Footers = 0;
  std::uint64_t Bytes = 0;
  /// Object-byte totals of the session's decoded profile, stamped at
  /// finalize from the live fold: raw (as logged) and
  /// inverse-probability scaled (equal for exact sessions). CLIENTS
  /// shows both so mixed exact/sampled fleets are not silently summed
  /// as if comparable.
  std::uint64_t RawObjBytes = 0;
  std::uint64_t EstObjBytes = 0;
  /// v6 compression accounting over this session's data chunks:
  /// payload bytes on the wire vs their declared uncompressed size.
  std::uint64_t WirePayloadBytes = 0;
  std::uint64_t RawPayloadBytes = 0;
  bool GotBye = false;
  ByeInfo Bye;
  bool Closed = false;    ///< fd is dead; reap on the next sweep
  bool Finalized = false; ///< recording flushed, profile folded
  const char *State = "hello-wait";
};

struct CollectorDaemon::AdminConn {
  int Fd = -1;
  std::string In;  ///< partial command line
  std::string Out; ///< unflushed response bytes
  bool Closed = false;
};

CollectorDaemon::CollectorDaemon(DaemonOptions O) : Opt(std::move(O)) {}

CollectorDaemon::~CollectorDaemon() {
  for (auto &S : Sessions)
    if (S->Fd >= 0)
      ::close(S->Fd);
  for (auto &A : Admins)
    if (A->Fd >= 0)
      ::close(A->Fd);
  if (SessionLfd >= 0)
    ::close(SessionLfd);
  if (AdminLfd >= 0)
    ::close(AdminLfd);
  if (SessAddr.K == Address::Kind::Unix && SessionLfd >= 0)
    ::unlink(SessAddr.Path.c_str());
  if (AdmAddr.K == Address::Kind::Unix && AdminLfd >= 0)
    ::unlink(AdmAddr.Path.c_str());
}

bool CollectorDaemon::start(std::string *Err) {
  if (!parseAddress(Opt.SessionAddr, SessAddr, Err))
    return false;
  SessionLfd = listenOn(SessAddr, 64, Err);
  if (SessionLfd < 0)
    return false;
  setNonBlocking(SessionLfd, true);
  if (!Opt.AdminAddr.empty()) {
    if (!parseAddress(Opt.AdminAddr, AdmAddr, Err) ||
        (AdminLfd = listenOn(AdmAddr, 16, Err)) < 0) {
      ::close(SessionLfd);
      SessionLfd = -1;
      return false;
    }
    setNonBlocking(AdminLfd, true);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Signals
//===----------------------------------------------------------------------===//

namespace {
CollectorDaemon *SignalTarget = nullptr;
void onStopSignal(int) {
  if (SignalTarget)
    SignalTarget->requestShutdown();
}
} // namespace

void CollectorDaemon::installSignalHandlers() {
  SignalTarget = this;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onStopSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  // A client or admin connection dying mid-write must surface as EPIPE
  // from send(), not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

int CollectorDaemon::run() {
  if (SessionLfd < 0)
    return 1;
  while (!Stop) {
    std::vector<pollfd> Pfds;
    Pfds.push_back({SessionLfd, POLLIN, 0});
    std::size_t AdminLIdx = static_cast<std::size_t>(-1);
    if (AdminLfd >= 0) {
      AdminLIdx = Pfds.size();
      Pfds.push_back({AdminLfd, POLLIN, 0});
    }
    std::size_t SessBase = Pfds.size();
    for (auto &S : Sessions)
      Pfds.push_back({S->Fd, POLLIN, 0});
    std::size_t AdminBase = Pfds.size();
    for (auto &A : Admins) {
      short Ev = POLLIN;
      if (!A->Out.empty())
        Ev |= POLLOUT;
      Pfds.push_back({A->Fd, Ev, 0});
    }
    // Snapshot counts: acceptSessions()/acceptAdmins() below grow the
    // containers, but only these first NumSess/NumAdmins entries have a
    // pollfd; a freshly accepted connection waits for the next
    // iteration.
    std::size_t NumSess = AdminBase - SessBase;
    std::size_t NumAdmins = Pfds.size() - AdminBase;

    // Short timeout so a requestShutdown() from a signal handler is
    // noticed promptly even on an idle daemon.
    int N = ::poll(Pfds.data(), Pfds.size(), 200);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      std::fprintf(stderr, "jdragd: poll: %s\n", std::strerror(errno));
      break;
    }
    if (Pfds[0].revents & POLLIN)
      acceptSessions();
    if (AdminLIdx != static_cast<std::size_t>(-1) &&
        (Pfds[AdminLIdx].revents & POLLIN))
      acceptAdmins();
    for (std::size_t I = 0; I < NumSess; ++I)
      if (Pfds[SessBase + I].revents & (POLLIN | POLLHUP | POLLERR))
        readSession(*Sessions[I]);
    for (std::size_t I = 0; I < NumAdmins; ++I) {
      short Re = Pfds[AdminBase + I].revents;
      if (Re & (POLLIN | POLLHUP | POLLERR))
        readAdmin(*Admins[I]);
      if (!Admins[I]->Closed && (Re & POLLOUT))
        flushAdmin(*Admins[I]);
    }

    // Reap closed connections outside the dispatch loop (indices above
    // are positional against the pollfd snapshot).
    std::erase_if(Sessions, [](const std::unique_ptr<Session> &S) {
      return S->Closed;
    });
    std::erase_if(Admins, [](const std::unique_ptr<AdminConn> &A) {
      if (A->Closed && A->Fd >= 0)
        ::close(A->Fd);
      return A->Closed;
    });
  }

  // Graceful shutdown: every still-open session gets its recording
  // flushed and its profile folded. No BYE arrived, so they count as
  // unclean -- the recording is still a valid chunk-aligned prefix.
  for (auto &S : Sessions) {
    finalizeSession(*S, /*Clean=*/S->GotBye);
    if (S->Fd >= 0) {
      ::close(S->Fd);
      S->Fd = -1;
    }
  }
  Sessions.clear();
  for (auto &A : Admins)
    if (A->Fd >= 0)
      ::close(A->Fd);
  Admins.clear();
  return 0;
}

void CollectorDaemon::acceptSessions() {
  for (;;) {
    int Fd = ::accept(SessionLfd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or transient accept failure: back to poll
    if (static_cast<int>(Sessions.size()) >= Opt.MaxClients) {
      ++Stats.SessionsRefused;
      ::close(Fd);
      continue;
    }
    setNonBlocking(Fd, true);
    auto S = std::make_unique<Session>();
    S->Fd = Fd;
    S->Id = NextSessionId++;
    ++Stats.SessionsTotal;
    ++Stats.SessionsActive;
    if (Opt.Verbose)
      std::fprintf(stderr, "jdragd: session %llu connected\n",
                   static_cast<unsigned long long>(S->Id));
    Sessions.push_back(std::move(S));
  }
}

void CollectorDaemon::acceptAdmins() {
  for (;;) {
    int Fd = ::accept(AdminLfd, nullptr, nullptr);
    if (Fd < 0)
      return;
    setNonBlocking(Fd, true);
    auto A = std::make_unique<AdminConn>();
    A->Fd = Fd;
    Admins.push_back(std::move(A));
  }
}

//===----------------------------------------------------------------------===//
// Session input
//===----------------------------------------------------------------------===//

void CollectorDaemon::readSession(Session &S) {
  std::byte Buf[64 * 1024];
  for (;;) {
    long R = ::recv(S.Fd, Buf, sizeof(Buf), 0);
    if (R > 0) {
      S.Rd.append(Buf, static_cast<std::size_t>(R));
      MsgHeader H;
      std::span<const std::byte> Payload;
      for (;;) {
        MessageReader::Status St = S.Rd.next(H, Payload);
        if (St == MessageReader::Status::NeedMore)
          break;
        if (St == MessageReader::Status::Error) {
          protocolError(S, S.Rd.error());
          return;
        }
        handleMessage(S, H, Payload);
        if (S.Closed)
          return;
      }
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // drained; poll will call again
    // EOF or a hard error: the connection is gone. A partial message in
    // the reader is the interrupted chunk -- discarded by design, so the
    // recording ends at the last complete chunk boundary.
    finalizeSession(S, /*Clean=*/S.GotBye);
    ::close(S.Fd);
    S.Fd = -1;
    S.Closed = true;
    return;
  }
}

void CollectorDaemon::protocolError(Session &S, const std::string &Why) {
  ++Stats.ProtocolErrors;
  if (Opt.Verbose)
    std::fprintf(stderr, "jdragd: session %llu protocol error: %s\n",
                 static_cast<unsigned long long>(S.Id), Why.c_str());
  finalizeSession(S, /*Clean=*/false);
  S.State = "protocol-error";
  ::close(S.Fd);
  S.Fd = -1;
  S.Closed = true;
}

void CollectorDaemon::handleMessage(Session &S, const MsgHeader &H,
                                    std::span<const std::byte> Payload) {
  switch (static_cast<MsgType>(H.Type)) {
  case MsgType::Hello: {
    std::string Err;
    if (S.GotHello) {
      protocolError(S, "duplicate HELLO");
      return;
    }
    if (!decodeHello(Payload, S.Info, &Err)) {
      protocolError(S, Err);
      return;
    }
    if (S.Info.Protocol != ProtocolVersion) {
      protocolError(S, "protocol version mismatch (client " +
                           std::to_string(S.Info.Protocol) + ")");
      return;
    }
    S.GotHello = true;
    S.State = "streaming";
    S.FilePath = Opt.OutputDir + "/session-" + std::to_string(S.Id) + "-" +
                 sanitizeName(S.Info.Name) + ".jdev";
    profiler::FileEventSink::Options FO;
    FO.Format = S.Info.Format;
    FO.Sampling.SampleBytes = S.Info.SampleBytes;
    FO.Sampling.SampleSeed = S.Info.SampleSeed;
    FO.FsyncEveryChunks = Opt.FsyncEveryChunks;
    if (S.Rec.open(S.FilePath, FO)) {
      S.RecOpen = true;
    } else {
      S.RecFailed = true;
      ++Stats.RecordingErrors;
    }
    if (Opt.Resolve)
      S.Prog = Opt.Resolve(S.Info.Name);
    if (S.Prog) {
      S.Fold = std::make_unique<SessionFold>(S.Info.SampleBytes);
      S.Prof = std::make_unique<profiler::DragProfiler>(*S.Prog);
      S.Prof->setRecordSink(S.Fold.get());
      S.Dec =
          std::make_unique<profiler::FrameDecoder>(*S.Prof, S.Info.Format);
    }
    if (Opt.Verbose)
      std::fprintf(stderr,
                   "jdragd: session %llu hello name=%s pid=%llu fmt=v%u%s\n",
                   static_cast<unsigned long long>(S.Id),
                   S.Info.Name.c_str(),
                   static_cast<unsigned long long>(S.Info.Pid),
                   static_cast<unsigned>(S.Info.Format),
                   S.Prog ? "" : " (unknown benchmark, record-only)");
    return;
  }
  case MsgType::Chunk: {
    if (!S.GotHello) {
      protocolError(S, "CHUNK before HELLO");
      return;
    }
    if (Payload.size() < sizeof(profiler::ChunkHeader)) {
      protocolError(S, "runt chunk message");
      return;
    }
    profiler::ChunkHeader CH;
    std::memcpy(&CH, Payload.data(), sizeof(CH));
    bool IsFooter = CH.Magic == profiler::FooterMagic;
    if (!IsFooter && CH.Magic != profiler::ChunkMagic) {
      protocolError(S, "chunk message without chunk magic");
      return;
    }
    // The inner length must agree with the message bytes, or the
    // recording would hold frames whose headers lie about their extent
    // and the chunk-aligned fsck-clean-prefix guarantee is void. A v6
    // session's length field may carry the compressed flag in bit 31;
    // the low bits are the on-wire size. A footer block carries 8 tail
    // bytes (u32 size, u32 tail magic) after its payload.
    bool V6 = S.Info.Format >= profiler::WireFormat::V6;
    bool Compressed =
        V6 && !IsFooter && profiler::chunkCompressed(CH.PayloadBytes);
    std::uint32_t WireLen =
        V6 ? profiler::chunkWireBytes(CH.PayloadBytes) : CH.PayloadBytes;
    if (WireLen > profiler::MaxChunkPayload ||
        Payload.size() != sizeof(profiler::ChunkHeader) + WireLen +
                              (IsFooter ? 8 : 0)) {
      protocolError(S, "chunk frame length disagrees with message length");
      return;
    }
    S.Bytes += Payload.size();
    Stats.BytesReceived += Payload.size();
    if (IsFooter) {
      ++S.Footers;
      ++Stats.FootersReceived;
    } else {
      ++S.DataChunks;
      ++Stats.ChunksReceived;
      std::uint64_t Raw =
          Compressed ? lzDeclaredRawLen(
                           Payload.data() + sizeof(profiler::ChunkHeader),
                           WireLen)
                     : WireLen;
      S.WirePayloadBytes += WireLen;
      S.RawPayloadBytes += Raw;
      Stats.WirePayloadBytes += WireLen;
      Stats.RawPayloadBytes += Raw;
    }
    // 1. Recording. A write failure degrades this session to
    // aggregate-only; the stream keeps flowing.
    if (S.RecOpen && !S.RecFailed &&
        !S.Rec.writeChunk(Payload.data(), Payload.size())) {
      S.RecFailed = true;
      ++Stats.RecordingErrors;
    }
    // 2. Live decode into the drag profile. Decode failures are counted
    // once and decoding stops, but recording continues -- the bytes can
    // still be salvaged and replayed offline.
    if (S.Dec && !S.DecodeFailed &&
        !S.Dec->feed(Payload.data(), Payload.size())) {
      S.DecodeFailed = true;
      ++Stats.DecodeErrors;
      if (Opt.Verbose)
        std::fprintf(stderr, "jdragd: session %llu decode failed: %s\n",
                     static_cast<unsigned long long>(S.Id),
                     S.Dec->error().c_str());
    }
    return;
  }
  case MsgType::Bye: {
    std::string Err;
    if (!S.GotHello || !decodeBye(Payload, S.Bye, &Err)) {
      protocolError(S, S.GotHello ? Err : "BYE before HELLO");
      return;
    }
    S.GotBye = true;
    Stats.ClientReportedDrops += S.Bye.ChunksDropped;
    if (S.Bye.ChunksSent != S.DataChunks)
      ++Stats.ByeMismatches;
    // The client is done; finalize now rather than waiting for EOF so
    // CLIENTS/TOP reflect the session as soon as it ends.
    finalizeSession(S, /*Clean=*/true);
    ::close(S.Fd);
    S.Fd = -1;
    S.Closed = true;
    return;
  }
  }
}

void CollectorDaemon::finalizeSession(Session &S, bool Clean) {
  if (S.Finalized)
    return;
  S.Finalized = true;
  if (Stats.SessionsActive)
    --Stats.SessionsActive;
  if (Clean)
    ++Stats.SessionsClean;
  else
    ++Stats.SessionsUnclean;
  if (S.RecOpen && !S.Rec.finish() && !S.RecFailed) {
    S.RecFailed = true;
    ++Stats.RecordingErrors;
  }
  if (S.Prof && !S.DecodeFailed && S.GotHello) {
    // The records were folded as they died; what is left of the log is
    // its record-free shell (sites, GC samples, end time).
    profiler::ProfileLog Shell = S.Prof->takeLog();
    // The daemon's view of loss is the client's BYE claim; an unclean
    // session (no BYE) is marked incomplete outright.
    Shell.Complete = Clean && S.Bye.ChunksDropped == 0;
    Shell.DroppedChunks = S.Bye.ChunksDropped;
    Shell.DroppedBytes = S.Bye.BytesDropped;
    // A sampled session's log carries the HELLO params (the fold already
    // scaled its per-site estimates by them). Exact sessions normalize
    // to {0, 0} (canonical exact-log form).
    Shell.SampleRate = S.Info.SampleBytes;
    Shell.SampleSeed = S.Info.SampleBytes ? S.Info.SampleSeed : 0;
    Shell.Compressed = S.Info.Format >= profiler::WireFormat::V6;
    S.RawObjBytes = S.Fold->RawObjBytes;
    S.EstObjBytes = static_cast<std::uint64_t>(S.Fold->EstObjBytes);
    // One client's log must never take the collector down with it: a
    // fold that fails (however malformed the session was) costs that
    // session's contribution, nothing more.
    try {
      analysis::DragReport Report(*S.Prog, Shell,
                                  S.Fold->Sites.finish(*S.Prog, Shell.Sites));
      Fleet.fold(S.Info.Name, Report);
    } catch (const std::exception &E) {
      S.DecodeFailed = true;
      ++Stats.DecodeErrors;
      if (Opt.Verbose)
        std::fprintf(stderr, "jdragd: session %llu fold failed: %s\n",
                     static_cast<unsigned long long>(S.Id), E.what());
    }
  }
  S.State = !S.GotHello          ? "hello-wait"
            : S.DecodeFailed     ? (Clean ? "clean-decode-failed"
                                          : "unclean-decode-failed")
            : Clean              ? "clean"
                                 : "unclean";
  FinishedClients.push_back(sessionLine(S));
  if (Opt.Verbose)
    std::fprintf(stderr, "jdragd: session %llu finalized (%s)\n",
                 static_cast<unsigned long long>(S.Id), S.State);
}

//===----------------------------------------------------------------------===//
// Admin protocol
//===----------------------------------------------------------------------===//

void CollectorDaemon::readAdmin(AdminConn &A) {
  char Buf[4096];
  for (;;) {
    long R = ::recv(A.Fd, Buf, sizeof(Buf), 0);
    if (R > 0) {
      A.In.append(Buf, static_cast<std::size_t>(R));
      std::size_t Nl;
      while ((Nl = A.In.find('\n')) != std::string::npos) {
        std::string Line = A.In.substr(0, Nl);
        A.In.erase(0, Nl + 1);
        if (!Line.empty() && Line.back() == '\r')
          Line.pop_back();
        A.Out += execAdmin(Line);
        A.Out += "END\n";
      }
      if (A.In.size() > MaxAdminLine || A.Out.size() > MaxAdminPendingOut) {
        A.Closed = true;
        return;
      }
      continue;
    }
    if (R < 0 && errno == EINTR)
      continue;
    if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    A.Closed = true;
    return;
  }
  flushAdmin(A);
}

void CollectorDaemon::flushAdmin(AdminConn &A) {
  while (!A.Out.empty()) {
    long W = ::send(A.Fd, A.Out.data(), A.Out.size(), MSG_NOSIGNAL);
    if (W > 0) {
      A.Out.erase(0, static_cast<std::size_t>(W));
      continue;
    }
    if (W < 0 && errno == EINTR)
      continue;
    if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // poll will flag POLLOUT
    A.Closed = true;
    return;
  }
}

std::string CollectorDaemon::sessionLine(const Session &S) const {
  std::string Sample =
      !S.GotHello ? "-"
      : S.Info.SampleBytes == 0
          ? "exact"
          : formatString("%llu",
                         static_cast<unsigned long long>(S.Info.SampleBytes));
  std::string Line = formatString(
      "client %llu name=%s pid=%llu state=%s chunks=%llu footers=%llu "
      "bytes=%llu sample=%s file=%s",
      static_cast<unsigned long long>(S.Id),
      S.GotHello ? sanitizeName(S.Info.Name).c_str() : "-",
      static_cast<unsigned long long>(S.Info.Pid), S.State,
      static_cast<unsigned long long>(S.DataChunks),
      static_cast<unsigned long long>(S.Footers),
      static_cast<unsigned long long>(S.Bytes), Sample.c_str(),
      S.FilePath.empty() ? "-" : S.FilePath.c_str());
  // Scaled-vs-raw object-byte totals exist once the profile is folded;
  // a sampled session whose totals were summed raw would silently
  // undercount next to an exact one.
  if (S.Finalized && (S.RawObjBytes || S.EstObjBytes))
    Line += formatString(
        " raw-obj-bytes=%llu est-obj-bytes=%llu",
        static_cast<unsigned long long>(S.RawObjBytes),
        static_cast<unsigned long long>(S.EstObjBytes));
  // v6 sessions: what the compression bought, per session.
  if (S.GotHello && S.Info.Format >= profiler::WireFormat::V6)
    Line += formatString(
        " wire-bytes=%llu uncompressed-bytes=%llu ratio=%.2f",
        static_cast<unsigned long long>(S.WirePayloadBytes),
        static_cast<unsigned long long>(S.RawPayloadBytes),
        S.WirePayloadBytes
            ? static_cast<double>(S.RawPayloadBytes) /
                  static_cast<double>(S.WirePayloadBytes)
            : 1.0);
  return Line + "\n";
}

std::string CollectorDaemon::clientsReport() const {
  std::string Out;
  for (const auto &L : FinishedClients)
    Out += L;
  for (const auto &S : Sessions)
    if (!S->Finalized)
      Out += sessionLine(*S);
  return Out;
}

std::string CollectorDaemon::execAdmin(const std::string &Line) {
  // First whitespace-separated token selects the command.
  std::size_t B = Line.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "ERR empty command\n";
  std::size_t E = Line.find_first_of(" \t", B);
  std::string Cmd = Line.substr(B, E == std::string::npos ? E : E - B);
  std::string Rest =
      E == std::string::npos ? std::string() : Line.substr(E + 1);

  if (Cmd == "PING")
    return "PONG\n";
  if (Cmd == "INFO")
    return formatString("jdragd proto=%u\nsession_addr=%s\nadmin_addr=%s\n"
                        "output_dir=%s\nsessions_active=%llu\n"
                        "sessions_total=%llu\nfleet_rows=%zu\n"
                        "fleet_sessions=%llu\nfleet_sampled_sessions=%llu\n"
                        "wire_payload_bytes=%llu\n"
                        "uncompressed_payload_bytes=%llu\n"
                        "compression_ratio=%.2f\n",
                        ProtocolVersion, SessAddr.str().c_str(),
                        AdminLfd >= 0 ? AdmAddr.str().c_str() : "-",
                        Opt.OutputDir.c_str(),
                        static_cast<unsigned long long>(Stats.SessionsActive),
                        static_cast<unsigned long long>(Stats.SessionsTotal),
                        Fleet.rowCount(),
                        static_cast<unsigned long long>(
                            Fleet.sessionsFolded()),
                        static_cast<unsigned long long>(
                            Fleet.sampledSessionsFolded()),
                        static_cast<unsigned long long>(
                            Stats.WirePayloadBytes),
                        static_cast<unsigned long long>(
                            Stats.RawPayloadBytes),
                        Stats.WirePayloadBytes
                            ? static_cast<double>(Stats.RawPayloadBytes) /
                                  static_cast<double>(Stats.WirePayloadBytes)
                            : 1.0);
  if (Cmd == "CLIENTS")
    return clientsReport();
  if (Cmd == "TOP") {
    unsigned long N = 10;
    if (!Rest.empty()) {
      try {
        N = std::stoul(Rest);
      } catch (...) {
        return "ERR TOP expects a count\n";
      }
    }
    return Fleet.renderTop(N);
  }
  if (Cmd == "HEALTH")
    return formatString(
        "sessions_total=%llu\nsessions_active=%llu\nsessions_clean=%llu\n"
        "sessions_unclean=%llu\nsessions_refused=%llu\n"
        "chunks_received=%llu\nfooters_received=%llu\nbytes_received=%llu\n"
        "decode_errors=%llu\nprotocol_errors=%llu\nrecording_errors=%llu\n"
        "client_reported_drops=%llu\nbye_mismatches=%llu\n",
        static_cast<unsigned long long>(Stats.SessionsTotal),
        static_cast<unsigned long long>(Stats.SessionsActive),
        static_cast<unsigned long long>(Stats.SessionsClean),
        static_cast<unsigned long long>(Stats.SessionsUnclean),
        static_cast<unsigned long long>(Stats.SessionsRefused),
        static_cast<unsigned long long>(Stats.ChunksReceived),
        static_cast<unsigned long long>(Stats.FootersReceived),
        static_cast<unsigned long long>(Stats.BytesReceived),
        static_cast<unsigned long long>(Stats.DecodeErrors),
        static_cast<unsigned long long>(Stats.ProtocolErrors),
        static_cast<unsigned long long>(Stats.RecordingErrors),
        static_cast<unsigned long long>(Stats.ClientReportedDrops),
        static_cast<unsigned long long>(Stats.ByeMismatches));
  if (Cmd == "SHUTDOWN") {
    requestShutdown();
    return "OK\n";
  }
  return "ERR unknown command '" + Cmd + "'\n";
}

//===----------------------------------------------------------------------===//
// adminQuery
//===----------------------------------------------------------------------===//

bool jdrag::daemon::adminQuery(const std::string &AddrSpec,
                               const std::string &Cmd, std::string *Response,
                               std::string *Err, int TimeoutMs) {
  Address A;
  if (!parseAddress(AddrSpec, A, Err))
    return false;
  int SockErr = 0;
  int Fd = connectTo(A, TimeoutMs, &SockErr);
  if (Fd < 0) {
    if (Err)
      *Err = "connect " + A.str() + ": " + std::strerror(SockErr);
    return false;
  }
  std::string Line = Cmd + "\n";
  std::size_t Off = 0;
  while (Off < Line.size()) {
    long W = ::send(Fd, Line.data() + Off, Line.size() - Off, MSG_NOSIGNAL);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0) {
      if (Err)
        *Err = std::string("send: ") + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    Off += static_cast<std::size_t>(W);
  }
  std::string Resp;
  char Buf[4096];
  for (;;) {
    pollfd P{Fd, POLLIN, 0};
    int Rc = ::poll(&P, 1, TimeoutMs);
    if (Rc < 0 && errno == EINTR)
      continue;
    if (Rc <= 0) {
      if (Err)
        *Err = Rc == 0 ? "admin response timeout"
                       : std::string("poll: ") + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    long R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0) {
      if (Err)
        *Err = R == 0 ? "connection closed before END"
                      : std::string("recv: ") + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    Resp.append(Buf, static_cast<std::size_t>(R));
    // The terminator is an END *line*: either the whole (empty-body)
    // response or preceded by the body's final newline. Body lines never
    // collide -- they are prefixed (client/key=value) or PONG/OK/ERR.
    bool Done = Resp.size() >= 4 &&
                Resp.compare(Resp.size() - 4, 4, "END\n") == 0 &&
                (Resp.size() == 4 || Resp[Resp.size() - 5] == '\n');
    if (Done) {
      Resp.erase(Resp.size() - 4);
      break;
    }
  }
  ::close(Fd);
  if (Response)
    *Response = Resp;
  return true;
}
