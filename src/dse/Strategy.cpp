#include "dse/Strategy.h"

#include <algorithm>

namespace mha::dse {

namespace {

/// Latency slack for refine's promotion rule: an estimated-frontier point
/// prunes a candidate only when it dominates it and improves latency by
/// more than this fraction. Calibrated to ~3x the measured worst-case
/// estimator latency error.
constexpr double kRefineSlack = 0.15;

size_t effectiveBudget(const StrategyOptions &options, size_t upper) {
  if (options.budget == 0)
    return upper;
  return std::min(options.budget, upper);
}

/// Evaluates `configs` in one parallel batch and records them in order.
/// Under estimateOnly the batch routes through the analytical fast path
/// instead of synthesis; either way the points land in the archive and
/// count as evaluator requests.
void visitBatch(Evaluator &evaluator, ParetoArchive &archive,
                const std::vector<flow::KernelConfig> &configs,
                StrategyResult &result, const StrategyOptions &options) {
  std::vector<QoR> qors = options.estimateOnly
                              ? evaluator.estimateAll(configs)
                              : evaluator.evaluateAll(configs);
  for (size_t i = 0; i < configs.size(); ++i) {
    archive.insert(configs[i], qors[i]);
    result.visited.push_back({configs[i], qors[i]});
  }
  result.evaluated += configs.size();
  if (options.estimateOnly)
    result.estimated += configs.size();
}

/// The refine promotion rule: a candidate is pruned only when some
/// estimated-frontier entry (other than itself) dominates it AND beats
/// its latency by more than kRefineSlack. Checking frontier entries alone
/// is sufficient — domination is transitive, so any dominating point is
/// itself dominated by a frontier entry at least as good.
bool slackPruned(const ParetoArchive &estArchive, const std::string &key,
                 const QoR &est) {
  for (const ArchiveEntry &q : estArchive.entries()) {
    if (q.key == key)
      continue;
    if (estArchive.dominates(q.qor, est) &&
        double(q.qor.latencyCycles) <=
            double(est.latencyCycles) * (1.0 - kRefineSlack))
      return true;
  }
  return false;
}

void runExhaustive(const DesignSpace &space, Evaluator &evaluator,
                   ParetoArchive &archive, const StrategyOptions &options,
                   StrategyResult &result) {
  std::vector<flow::KernelConfig> configs = space.points();
  configs.resize(effectiveBudget(options, configs.size()));
  visitBatch(evaluator, archive, configs, result, options);
}

void runRefine(const DesignSpace &space, Evaluator &evaluator,
               ParetoArchive &archive, const StrategyOptions &options,
               StrategyResult &result) {
  // Score the whole space analytically (two probe runs total).
  std::vector<flow::KernelConfig> points = space.points();
  if (options.estimateBudget != 0 && points.size() > options.estimateBudget)
    points.resize(options.estimateBudget);
  std::vector<QoR> estimates = evaluator.estimateAll(points);
  result.estimated += points.size();
  if (points.empty() || !estimates.front().ok) {
    // Probe synthesis failed — no model to guide promotion. Record the
    // baseline so the failure shows up in the visited set and stop.
    visitBatch(evaluator, archive, {space.baseline()}, result, options);
    return;
  }

  ParetoArchive estArchive(archive.objectives());
  for (size_t i = 0; i < points.size(); ++i)
    estArchive.insert(points[i], estimates[i]);

  // Promote everything the slack rule keeps, best predicted latency
  // first so a tight budget still synthesizes the promising end.
  std::vector<size_t> keep;
  for (size_t i = 0; i < points.size(); ++i)
    if (!slackPruned(estArchive, configKey(points[i]), estimates[i]))
      keep.push_back(i);
  std::stable_sort(keep.begin(), keep.end(), [&](size_t a, size_t b) {
    if (estimates[a].latencyCycles != estimates[b].latencyCycles)
      return estimates[a].latencyCycles < estimates[b].latencyCycles;
    return configKey(points[a]) < configKey(points[b]);
  });
  keep.resize(effectiveBudget(options, keep.size()));
  std::vector<flow::KernelConfig> promote;
  for (size_t i : keep)
    promote.push_back(points[i]);
  visitBatch(evaluator, archive, promote, result, options);
}

} // namespace

std::optional<StrategyResult> runStrategy(std::string_view name,
                                          const DesignSpace &space,
                                          Evaluator &evaluator,
                                          ParetoArchive &archive,
                                          const StrategyOptions &options) {
  StrategyResult result;
  if (name == "exhaustive")
    runExhaustive(space, evaluator, archive, options, result);
  else if (name == "refine")
    runRefine(space, evaluator, archive, options, result);
  else
    return std::nullopt;
  return result;
}

const std::vector<std::string> &strategyNames() {
  static const std::vector<std::string> names = {"exhaustive", "refine"};
  return names;
}

} // namespace mha::dse
