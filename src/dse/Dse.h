// Dse.h - umbrella header and run driver for the DSE subsystem.
//
// Wires the pieces together for one search:
//
//   DesignSpace space(spec);                  // valid points
//   Evaluator evaluator(spec);                // QoR cache + thread pool
//   DseResult result = runDse(space, evaluator, {});
//   result.json();                            // schema "mha.dse.v3"
//
// A search synthesizes every enumerated point (truncated to the budget)
// in one parallel batch and offers each to a Pareto archive, so the
// archive is the exact frontier of the visited set. The evaluator is
// passed in (not owned) so callers can pre-load a QoR cache (--resume),
// run several searches against one shared cache, and save the cache
// afterwards.
#pragma once

#include "dse/DesignSpace.h"
#include "dse/Evaluator.h"
#include "dse/Pareto.h"

namespace mha::dse {

struct DseOptions {
  /// Maximum number of evaluator requests (0 = unlimited). Cached points
  /// count — the budget bounds the search effort deterministically, not
  /// wall time.
  size_t budget = 0;
  /// Re-seed the Pareto archive from the evaluator's completed cache
  /// entries before searching (see runDse).
  bool warmStart = false;
};

struct VisitedPoint {
  flow::KernelConfig config;
  QoR qor;
};

struct DseResult {
  std::string kernel;
  size_t budget = 0;     // 0 = unlimited
  size_t spaceSize = 0;
  size_t evaluated = 0;  // evaluator requests this run
  size_t warmStarted = 0; // archive entries re-seeded from the QoR cache
  int64_t synthRuns = 0; // evaluator-lifetime flow executions
  int64_t cacheHits = 0; // evaluator-lifetime cache hits
  int64_t cacheWaits = 0; // cache hits that blocked on in-flight synthesis
  std::vector<Objective> objectives;
  std::vector<VisitedPoint> visited; // enumeration order
  std::vector<ArchiveEntry> pareto;  // deterministic archive order

  /// Renders the run as JSON (schema "mha.dse.v3", stable key order).
  std::string json() const;
};

/// Evaluates space.points() (the first options.budget of them when a
/// budget is set) and archives them under the given objectives. With
/// options.warmStart the archive is first re-seeded from the evaluator's
/// completed cache entries (parsed back through parseConfigKey and
/// filtered to the space), so a --resume run starts from the previously
/// discovered frontier instead of an empty one.
DseResult runDse(const DesignSpace &space, Evaluator &evaluator,
                 const DseOptions &options,
                 const std::vector<Objective> &objectives =
                     defaultObjectives());

} // namespace mha::dse
