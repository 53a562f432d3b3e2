//===- daemon/Daemon.h - The jdragd collector daemon ------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The out-of-process collector: one single-threaded poll() event loop
/// (the redis shape -- no locks, no thread pools; on a 1-CPU box the
/// loop IS the machine) accepting instrumented-VM sessions on a Unix or
/// TCP socket and admin queries on a second socket speaking a
/// redis-style line protocol.
///
/// Per session the daemon does three things with every chunk message:
///
///   1. append the chunk verbatim to a per-session `.jdev` recording
///      (so the raw stream survives even if live decode fails);
///   2. feed it incrementally through a FrameDecoder into a
///      DragProfiler (when the HELLO benchmark name resolves to a
///      Program), whose finished object records are folded into the
///      session's per-site sums the moment each object dies -- records
///      are never stored, so a session costs O(live objects + sites);
///   3. at session end, add the session's per-site sums to the
///      fleet-wide aggregated drag table served by `TOP <n>`.
///
/// Failure-mode contract (docs/daemon.md has the full table): the
/// daemon never trusts a client -- protocol violations close that one
/// session and are counted; a half-received chunk message is discarded,
/// leaving the session recording a *valid prefix* at a chunk boundary;
/// a recording-disk failure degrades that session to aggregate-only
/// (the loss is observable in HEALTH). The daemon's own crash is the
/// client's problem by design: SocketEventSink reconnects or spools.
///
/// Admin protocol: one command per line; every response ends with a
/// line containing only "END".
///
///   PING            liveness probe -> PONG
///   INFO            daemon identity + counters
///   CLIENTS         one line per session (live and finished)
///   TOP <n>         heaviest fleet-aggregate rows
///   HEALTH          delivery/decode accounting incl. client BYE claims
///   SHUTDOWN        graceful stop (finalize sessions, flush recordings)
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_DAEMON_DAEMON_H
#define JDRAG_DAEMON_DAEMON_H

#include "daemon/Aggregate.h"
#include "daemon/Protocol.h"
#include "profiler/DragProfiler.h"

#include <csignal>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace jdrag::daemon {

/// Maps a HELLO benchmark name to its Program (nullptr = unknown: the
/// session is still recorded, just not live-profiled). Injected so the
/// daemon library does not depend on the benchmark corpus; jdragd wires
/// benchmarks::buildAll() through this.
using ProgramResolver =
    std::function<const ir::Program *(const std::string &)>;

struct DaemonOptions {
  /// Session endpoint spec (`unix:PATH` or `tcp:HOST:PORT`). Required.
  std::string SessionAddr;
  /// Admin endpoint spec. Empty = no admin port.
  std::string AdminAddr;
  /// Directory receiving per-session recordings (session-NNN-name.jdev).
  std::string OutputDir = ".";
  /// fsync cadence of session recordings (FileEventSink::Options).
  std::uint32_t FsyncEveryChunks = 0;
  /// Concurrent session cap; excess connects are refused.
  int MaxClients = 64;
  ProgramResolver Resolve;
  /// Log accepts/finalizations to stderr.
  bool Verbose = false;
};

struct DaemonStats {
  std::uint64_t SessionsTotal = 0;
  std::uint64_t SessionsActive = 0;
  std::uint64_t SessionsClean = 0;   ///< ended with BYE
  std::uint64_t SessionsUnclean = 0; ///< EOF or error without BYE
  std::uint64_t SessionsRefused = 0; ///< over MaxClients
  std::uint64_t ChunksReceived = 0;  ///< data chunks (footers excluded)
  std::uint64_t FootersReceived = 0;
  std::uint64_t BytesReceived = 0; ///< framed chunk bytes, all messages
  std::uint64_t DecodeErrors = 0;  ///< sessions whose live decode failed
  std::uint64_t ProtocolErrors = 0;
  std::uint64_t RecordingErrors = 0; ///< session-file write failures
  std::uint64_t ClientReportedDrops = 0; ///< sum of BYE drop claims
  std::uint64_t ByeMismatches = 0; ///< BYE chunk count != received count
  /// v6 compression accounting over received data chunks: bytes on the
  /// wire vs their declared uncompressed size (equal for raw chunks).
  std::uint64_t WirePayloadBytes = 0;
  std::uint64_t RawPayloadBytes = 0;
};

class CollectorDaemon {
public:
  explicit CollectorDaemon(DaemonOptions Opt);
  ~CollectorDaemon();
  CollectorDaemon(const CollectorDaemon &) = delete;
  CollectorDaemon &operator=(const CollectorDaemon &) = delete;

  /// Binds the listeners. False (with \p Err) on bad specs or bind
  /// failure.
  bool start(std::string *Err);

  /// The event loop; returns 0 after a graceful shutdown (SHUTDOWN
  /// command or requestShutdown()), 1 on a loop-level failure. All
  /// active sessions are finalized -- recordings flushed, per-site sums
  /// added to the fleet table -- before returning.
  int run();

  /// Async-signal-safe stop request (callable from a signal handler).
  void requestShutdown() { Stop = 1; }

  /// Routes SIGTERM/SIGINT of this process to requestShutdown() and
  /// ignores SIGPIPE (a dying admin client must not kill the daemon).
  /// One daemon per process.
  void installSignalHandlers();

  /// Evaluates one admin command line and returns the response body
  /// (without the END terminator). The socket admin protocol calls
  /// exactly this, so tests can drive commands in-process.
  std::string execAdmin(const std::string &Line);

  const DaemonStats &stats() const { return Stats; }
  const FleetAggregate &aggregate() const { return Fleet; }

private:
  struct Session;
  struct AdminConn;

  void acceptSessions();
  void acceptAdmins();
  void readSession(Session &S);
  void handleMessage(Session &S, const MsgHeader &H,
                     std::span<const std::byte> Payload);
  void protocolError(Session &S, const std::string &Why);
  void finalizeSession(Session &S, bool Clean);
  void readAdmin(AdminConn &A);
  void flushAdmin(AdminConn &A);
  std::string clientsReport() const;
  std::string sessionLine(const Session &S) const;

  DaemonOptions Opt;
  Address SessAddr, AdmAddr;
  int SessionLfd = -1;
  int AdminLfd = -1;
  std::vector<std::unique_ptr<Session>> Sessions;
  std::vector<std::unique_ptr<AdminConn>> Admins;
  std::vector<std::string> FinishedClients; ///< CLIENTS lines, finalized
  FleetAggregate Fleet;
  DaemonStats Stats;
  std::uint64_t NextSessionId = 0;
  volatile std::sig_atomic_t Stop = 0;
};

/// One-shot admin client: connects to \p Addr, sends \p Cmd, reads the
/// response up to the END terminator into \p Response (terminator
/// stripped). Used by `jdragd query`, the smoke script, and tests.
bool adminQuery(const std::string &Addr, const std::string &Cmd,
                std::string *Response, std::string *Err,
                int TimeoutMs = 5000);

} // namespace jdrag::daemon

#endif // JDRAG_DAEMON_DAEMON_H
