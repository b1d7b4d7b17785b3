// Layers.h - the per-layer metric table of traced runs.
//
// Every traced run prints every name in layerMetrics(), in table order,
// so one BENCHMARK.json list serves all workloads; a layer a workload
// does not exercise reads 0 there (see README.md for which apply where).
#pragma once

#include "Bench.h"
#include "flow/StageCache.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LayerMetric {
  std::string name;
  std::string unit;
};

/// The full per-layer table, in print order.
const std::vector<LayerMetric> &layerMetrics();

/// What a traced run measured besides its ledger.
struct TraceSummary {
  /// Designs the replica drove (the denominator of per-design means).
  int64_t designs = 0;
  /// Summed black-box (untraced) time over the same designs.
  double blackBoxMs = 0;
  /// Per-design medians: replica (traced) and black-box (untraced).
  double tracedMedianMs = 0;
  double untracedMedianMs = 0;
  /// StageCache counters around the black-box calls only.
  mha::flow::StageCache::Counters cacheDelta;
  int64_t residentBytes = 0;
  /// Rows measured by a serve-mixed main phase (serve.*, and
  /// flow.evictions when the phase ran under a cache limit); they
  /// override the values derived above.
  std::map<std::string, double> serve;
};

/// Adds the StageCache counter changes from `before` to `after` to `acc`
/// (resident byte gauges excepted).
void addCacheDelta(mha::flow::StageCache::Counters &acc,
                   const mha::flow::StageCache::Counters &before,
                   const mha::flow::StageCache::Counters &after);

/// The serve layer's rows (serve.*), from one short serve-mixed main
/// phase; warm-edit's traced run reports the serve layer with them.
std::map<std::string, double> measureServeLayer(const Options &options,
                                                Result &result);

/// Derives every per-layer value from the ledger and summary, prints
/// them, adds them to `result` and prints the coverage line.
void emitLayerMetrics(Result &result, const Ledger &ledger,
                      const TraceSummary &summary);

} // namespace perfbench
