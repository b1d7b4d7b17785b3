// Strategy.h - the search strategies over a DesignSpace.
//
// A strategy decides *which* points to evaluate and in what order; the
// Evaluator decides *how* (parallel flow runs behind the QoR cache) and
// the ParetoArchive accumulates whatever survives domination. Two
// strategies ship, and both return the full Pareto frontier of the space:
//
//  * exhaustive — every enumerated point (truncated to the budget);
//  * refine     — estimator-guided: scores the whole space analytically
//                 through Evaluator::estimateAll (two probe synthesis
//                 runs, then arithmetic), then synthesizes every point the
//                 slack rule keeps. A point is skipped only when some
//                 estimated-frontier point dominates it *and* improves
//                 latency by more than a 15% slack, so estimator error up
//                 to the slack cannot drop a true-frontier point.
//
// All synthesized points are offered to the archive, so a strategy's
// archive is the frontier of its visited set. With estimateOnly set,
// visits archive estimates instead — no synthesis beyond the probes.
#pragma once

#include "dse/DesignSpace.h"
#include "dse/Evaluator.h"
#include "dse/Pareto.h"

#include <optional>

namespace mha::dse {

struct StrategyOptions {
  /// Maximum number of evaluator requests (0 = unlimited). Cached points
  /// count — the budget bounds the search effort deterministically, not
  /// wall time.
  size_t budget = 0;
  /// Cap on analytical estimates spent by refine (0 = unlimited).
  /// Estimates are not evaluator requests and never count against
  /// `budget`.
  size_t estimateBudget = 0;
  /// Archive analytical estimates instead of synthesizing: every visit
  /// goes through Evaluator::estimateAll, so the only synthesis runs are
  /// the estimator's probes.
  bool estimateOnly = false;
  /// Re-seed the Pareto archive from the evaluator's completed cache
  /// entries before searching (runDse honours this; see Dse.h).
  bool warmStart = false;
};

struct VisitedPoint {
  flow::KernelConfig config;
  QoR qor;
};

struct StrategyResult {
  size_t evaluated = 0; // evaluator requests issued (estimates excluded)
  size_t estimated = 0; // analytical estimates issued
  /// Every evaluated point in the strategy's deterministic visit order.
  std::vector<VisitedPoint> visited;
};

/// Runs the strategy called `name` ("exhaustive" or "refine") over the
/// space, offering every visited point to `archive`. Returns nullopt for
/// an unknown name.
std::optional<StrategyResult> runStrategy(std::string_view name,
                                          const DesignSpace &space,
                                          Evaluator &evaluator,
                                          ParetoArchive &archive,
                                          const StrategyOptions &options);

/// The strategy names runStrategy accepts, in documentation order.
const std::vector<std::string> &strategyNames();

} // namespace mha::dse
