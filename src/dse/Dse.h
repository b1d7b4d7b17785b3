// Dse.h - umbrella header and run driver for the DSE subsystem.
//
// Wires the pieces together for one search:
//
//   DesignSpace space(spec);                  // valid points
//   Evaluator evaluator(spec);                // QoR cache + thread pool
//   auto result = runDse(space, evaluator, "refine", {});
//   result->json();                           // schema "mha.dse.v2"
//
// The evaluator is passed in (not owned) so callers can pre-load a QoR
// cache (--resume), run several strategies against one shared cache, and
// save the cache afterwards.
#pragma once

#include "dse/DesignSpace.h"
#include "dse/Evaluator.h"
#include "dse/Pareto.h"
#include "dse/Strategy.h"

#include <optional>

namespace mha::dse {

/// Per-run estimator accounting: how much analytical prediction the run
/// used and, when synthesized points are available to compare against,
/// how accurate it was (absolute percentage error, estimate vs synthesis,
/// over the run's unique successfully-synthesized visits).
struct EstimatorReport {
  bool used = false;       // the run built/consulted the estimator
  int64_t probeRuns = 0;   // synthesis runs spent building it (0 or 2)
  int64_t estimates = 0;   // analytical estimates served
  size_t errorSamples = 0; // synthesized points the error is measured on
  double latencyMeanAbsPct = 0.0;
  double latencyMaxAbsPct = 0.0;
  double dspMeanAbsPct = 0.0;
  double bramMeanAbsPct = 0.0;
  double lutMeanAbsPct = 0.0;
};

struct DseResult {
  std::string kernel;
  std::string strategy;
  size_t budget = 0;     // 0 = unlimited
  size_t spaceSize = 0;
  size_t evaluated = 0;  // evaluator requests this run
  size_t estimated = 0;  // analytical estimates issued by the strategy
  size_t warmStarted = 0; // archive entries re-seeded from the QoR cache
  int64_t synthRuns = 0; // evaluator-lifetime flow executions
  int64_t cacheHits = 0; // evaluator-lifetime cache hits
  int64_t cacheWaits = 0; // cache hits that blocked on in-flight synthesis
  EstimatorReport estimator;
  std::vector<Objective> objectives;
  std::vector<VisitedPoint> visited; // strategy visit order
  std::vector<ArchiveEntry> pareto;  // deterministic archive order

  /// Renders the run as JSON (schema "mha.dse.v2", stable key order).
  std::string json() const;
};

/// Runs `strategyName` (see runStrategy) over the space, feeding a fresh
/// archive with the given objectives. With options.warmStart the archive
/// is first
/// re-seeded from the evaluator's completed cache entries (parsed back
/// through parseConfigKey and filtered to the space), so a --resume run
/// starts from the previously discovered frontier instead of an empty
/// one. Returns nullopt for an unknown strategy name.
std::optional<DseResult>
runDse(const DesignSpace &space, Evaluator &evaluator,
       std::string_view strategyName, const StrategyOptions &options,
       const std::vector<Objective> &objectives = defaultObjectives());

} // namespace mha::dse
