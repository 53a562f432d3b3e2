//===- daemon/Aggregate.h - Fleet-wide drag table ---------------*- C++ -*-===//
//
// Part of jdrag (PLDI 2001 "Heap Profiling for Space-Efficient Java").
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collector daemon's cross-client view: every finished session's
/// drag report -- built from per-site sums the daemon folded while the
/// session streamed, never from a stored record list -- is added to one
/// table keyed by (benchmark, rendered allocation site), accumulating
/// drag, object and byte totals over the whole fleet. `TOP <n>` on the
/// admin port renders the heaviest rows -- the paper's "sites sorted by
/// drag" list, but across every VM that ever streamed to this daemon.
///
/// Rendering goes through the same DragReport/SiteTable code the offline
/// tool uses, so for a single uninterrupted session the daemon's TOP
/// output is bit-identical to `jdragd top` over the recorded file (the
/// differential tests in tests/test_daemon.cpp hold this line).
///
//===----------------------------------------------------------------------===//

#ifndef JDRAG_DAEMON_AGGREGATE_H
#define JDRAG_DAEMON_AGGREGATE_H

#include "support/Units.h"

#include <cstdint>
#include <map>
#include <string>

namespace jdrag::analysis {
class DragReport;
} // namespace jdrag::analysis

namespace jdrag::daemon {

/// One (benchmark, site) row of the fleet table.
struct FleetRow {
  SpaceTime Drag = 0; ///< byte^2; scaled estimate for sampled sessions
  std::uint64_t Objects = 0;
  std::uint64_t Bytes = 0;
  std::uint64_t Sessions = 0; ///< sessions that contributed to this row
  /// How many of those sessions were sampled (their drag contribution
  /// is an inverse-probability-scaled estimate, not an exact sum).
  /// TOP flags rows with any sampled contribution.
  std::uint64_t SampledSessions = 0;
};

class FleetAggregate {
public:
  /// Folds one session's report: its per-site drag sums are added to
  /// the fleet rows under "<bench>  <site>" keys. The daemon and
  /// `jdragd top` both build the report from a live record fold
  /// (analysis/RecordFold.h), never from materialized records.
  void fold(const std::string &Bench, const analysis::DragReport &Report);

  /// The heaviest \p N rows, one line each, sorted by drag descending
  /// (key ascending on ties -- fully deterministic).
  std::string renderTop(std::size_t N) const;

  SpaceTime totalDrag() const { return Total; }
  std::uint64_t sessionsFolded() const { return Folded; }
  std::uint64_t sampledSessionsFolded() const { return SampledFolded; }
  std::size_t rowCount() const { return Rows.size(); }

private:
  /// Ordered map: iteration (and therefore tie-breaking) is
  /// deterministic across runs.
  std::map<std::string, FleetRow> Rows;
  SpaceTime Total = 0;
  std::uint64_t Folded = 0;
  std::uint64_t SampledFolded = 0;
};

} // namespace jdrag::daemon

#endif // JDRAG_DAEMON_AGGREGATE_H
