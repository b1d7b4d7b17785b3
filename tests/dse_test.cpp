// Tests for the design-space exploration subsystem: space enumeration and
// canonicalization, the QoR cache (no re-synthesis, JSON round-trip), the
// Pareto archive, and the run driver (frontier exactness vs the legacy
// hand-rolled sweep, the budget, the report, the --resume warm start).
#include "dse/Dse.h"
#include "lir/transforms/LoopUnroll.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace mha;
using namespace mha::dse;

namespace {

const flow::KernelSpec &kernel(const char *name) {
  const flow::KernelSpec *spec = flow::findKernel(name);
  EXPECT_NE(spec, nullptr) << name;
  return *spec;
}

/// The deliberately small grid the CLI smoke tests also use: 8 points on
/// a single-nest kernel, fast enough to synthesize exhaustively.
DesignSpaceOptions smallGrid() {
  DesignSpaceOptions options;
  options.pipelineIIs = {0, 1};
  options.unrollFactors = {1, 2};
  options.partitionFactors = {1, 2};
  return options;
}

std::set<std::string> archiveKeys(const std::vector<ArchiveEntry> &entries) {
  std::set<std::string> keys;
  for (const ArchiveEntry &entry : entries)
    keys.insert(entry.key);
  return keys;
}

QoR makeQoR(int64_t latency, int64_t dsp, int64_t lut = 100) {
  QoR qor;
  qor.ok = true;
  qor.latencyCycles = latency;
  qor.dsp = dsp;
  qor.bram = 0;
  qor.lut = lut;
  qor.ff = lut;
  return qor;
}

flow::KernelConfig makeConfig(int64_t ii, int64_t unroll, int64_t partition) {
  flow::KernelConfig config;
  config.pipelineII = ii;
  config.unrollFactor = unroll;
  config.partitionFactor = partition;
  config.dataflow = false;
  config.applyDirectives = ii > 0 || unroll > 1 || partition > 1;
  return config;
}

} // namespace

// ---------------------------------------------------------------------------
// DesignSpace

TEST(DesignSpace, BaselineFirstAndPointsUnique) {
  DesignSpace space(kernel("fir"), smallGrid());
  ASSERT_GT(space.size(), 0u);
  // The unoptimized design leads the enumeration.
  EXPECT_EQ(configKey(space.points().front()), configKey(space.baseline()));
  EXPECT_FALSE(space.points().front().applyDirectives);
  std::set<std::string> keys;
  for (const flow::KernelConfig &point : space.points()) {
    EXPECT_TRUE(space.contains(point));
    EXPECT_TRUE(keys.insert(configKey(point)).second)
        << "duplicate point " << configKey(point);
  }
  // 2*2*2 grid cells, one of which (ii=0,u=1,p=1) folds into the baseline.
  EXPECT_EQ(space.size(), 8u);
}

TEST(DesignSpace, AllDefaultKnobsFoldIntoBaseline) {
  DesignSpace space(kernel("fir"), smallGrid());
  flow::KernelConfig noop;
  noop.pipelineII = 0;
  noop.unrollFactor = 1;
  noop.partitionFactor = 1;
  noop.dataflow = false;
  noop.applyDirectives = true; // directives "on" but nothing requested
  EXPECT_EQ(configKey(space.canonicalize(noop)), configKey(space.baseline()));
}

TEST(DesignSpace, ClampsUnrollToInnermostTripDivisor) {
  DesignSpace space(kernel("fir"), smallGrid());
  int64_t trip = space.minInnermostTripCount();
  ASSERT_GT(trip, 1);
  // A non-dividing request lands on the largest divisor below it, exactly
  // like the backend's lir::clampUnrollFactor.
  flow::KernelConfig config = makeConfig(0, trip + 1, 1);
  EXPECT_EQ(space.canonicalize(config).unrollFactor, trip);
  config = makeConfig(0, 3, 1);
  EXPECT_EQ(space.canonicalize(config).unrollFactor,
            lir::clampUnrollFactor(trip, 3));
}

TEST(DesignSpace, DataflowOnlyOnMultiNestKernels) {
  // fir is one loop nest: the dataflow directive is a no-op there and the
  // space must not enumerate it.
  DesignSpace fir(kernel("fir"), smallGrid());
  EXPECT_FALSE(fir.multiNest());
  flow::KernelConfig config = makeConfig(1, 1, 1);
  config.dataflow = true;
  EXPECT_FALSE(fir.canonicalize(config).dataflow);

  // mm2 chains two gemms: dataflow is meaningful and doubles the grid.
  DesignSpace mm2(kernel("mm2"), smallGrid());
  EXPECT_TRUE(mm2.multiNest());
  EXPECT_TRUE(mm2.canonicalize(config).dataflow);
  // Every point gets a dataflow twin — including the otherwise-default
  // knobs, since dataflow alone is a real directive, not the baseline.
  EXPECT_EQ(mm2.size(), 2 * fir.size());
}

// ---------------------------------------------------------------------------
// ParetoArchive

TEST(ParetoArchive, KeepsNonDominatedRemovesDominated) {
  ParetoArchive archive(latencyDspObjectives());
  EXPECT_TRUE(archive.insert(makeConfig(0, 1, 1), makeQoR(100, 10)));
  // Worse on both axes: rejected.
  EXPECT_FALSE(archive.insert(makeConfig(0, 1, 2), makeQoR(120, 12)));
  EXPECT_EQ(archive.size(), 1u);
  // Trade-off: both survive.
  EXPECT_TRUE(archive.insert(makeConfig(0, 2, 1), makeQoR(50, 20)));
  EXPECT_EQ(archive.size(), 2u);
  // Dominates the first entry: it enters, the first leaves.
  EXPECT_TRUE(archive.insert(makeConfig(1, 1, 1), makeQoR(90, 10)));
  EXPECT_EQ(archive.size(), 2u);
  EXPECT_FALSE(archive.containsKey(configKey(makeConfig(0, 1, 1))));
}

TEST(ParetoArchive, EqualVectorsBothSurvive) {
  // A tied design is not strictly better: the classic frontier keeps both
  // (this matches the legacy example's none_of(noWorse && better) rule).
  ParetoArchive archive(latencyDspObjectives());
  EXPECT_TRUE(archive.insert(makeConfig(1, 1, 1), makeQoR(100, 10)));
  EXPECT_TRUE(archive.insert(makeConfig(1, 1, 2), makeQoR(100, 10)));
  EXPECT_EQ(archive.size(), 2u);
}

TEST(ParetoArchive, RejectsFailedAndMismatchingDesigns) {
  ParetoArchive archive;
  QoR failed;
  failed.ok = false;
  EXPECT_FALSE(archive.insert(makeConfig(0, 1, 1), failed));
  QoR mismatch = makeQoR(10, 1);
  mismatch.cosimOk = false;
  EXPECT_FALSE(archive.insert(makeConfig(1, 1, 1), mismatch));
  EXPECT_EQ(archive.size(), 0u);
}

TEST(ParetoArchive, DeterministicOrderIgnoresInsertionOrder) {
  std::vector<std::pair<flow::KernelConfig, QoR>> designs = {
      {makeConfig(2, 1, 1), makeQoR(80, 14)},
      {makeConfig(1, 1, 1), makeQoR(100, 10)},
      {makeConfig(1, 2, 1), makeQoR(60, 20)},
      {makeConfig(1, 2, 2), makeQoR(60, 20)},
  };
  ParetoArchive forward;
  for (const auto &[config, qor] : designs)
    forward.insert(config, qor);
  ParetoArchive backward;
  for (auto it = designs.rbegin(); it != designs.rend(); ++it)
    backward.insert(it->first, it->second);
  ASSERT_EQ(forward.size(), backward.size());
  for (size_t i = 0; i < forward.size(); ++i)
    EXPECT_EQ(forward.entries()[i].key, backward.entries()[i].key);
  // Sorted by objective vector: the fastest design leads.
  EXPECT_EQ(forward.entries().front().qor.latencyCycles, 60);
}

// ---------------------------------------------------------------------------
// Evaluator / QoR cache

TEST(Evaluator, SecondEvaluationPerformsNoSynthesis) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  flow::KernelConfig point = space.points()[1];
  QoR first = evaluator.evaluate(point);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(evaluator.synthRuns(), 1);
  QoR second = evaluator.evaluate(point);
  // The synthesis-count statistic is unchanged: pure cache hit.
  EXPECT_EQ(evaluator.synthRuns(), 1);
  EXPECT_EQ(evaluator.cacheHits(), 1);
  EXPECT_EQ(second.latencyCycles, first.latencyCycles);
  EXPECT_EQ(second.dsp, first.dsp);
  EXPECT_EQ(second.lut, first.lut);
}

TEST(Evaluator, CacheJsonRoundTripPreservesResults) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  std::vector<QoR> direct = evaluator.evaluateAll(space.points());
  ASSERT_EQ(direct.size(), space.size());
  EXPECT_EQ(evaluator.synthRuns(), static_cast<int64_t>(space.size()));

  std::string text = evaluator.cacheJson();
  EXPECT_TRUE(json::validate(text));

  Evaluator resumed(kernel("fir"));
  std::string error;
  ASSERT_TRUE(resumed.loadCacheJson(text, &error)) << error;
  EXPECT_EQ(resumed.cacheSize(), evaluator.cacheSize());
  std::vector<QoR> reloaded = resumed.evaluateAll(space.points());
  // Every point answered from the reloaded cache, bit-for-bit equal.
  EXPECT_EQ(resumed.synthRuns(), 0);
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(reloaded[i].ok, direct[i].ok);
    EXPECT_EQ(reloaded[i].latencyCycles, direct[i].latencyCycles);
    EXPECT_EQ(reloaded[i].dsp, direct[i].dsp);
    EXPECT_EQ(reloaded[i].bram, direct[i].bram);
    EXPECT_EQ(reloaded[i].lut, direct[i].lut);
    EXPECT_EQ(reloaded[i].ff, direct[i].ff);
  }
}

TEST(Evaluator, LoadCacheRejectsForeignDocuments) {
  Evaluator evaluator(kernel("fir"));
  std::string error;
  EXPECT_FALSE(evaluator.loadCacheJson("not json", &error));
  EXPECT_FALSE(evaluator.loadCacheJson(R"({"schema":"wrong"})", &error));
  // A cache recorded for another kernel must not poison this one.
  Evaluator other(kernel("gemm"));
  other.evaluate(makeConfig(1, 1, 1));
  EXPECT_FALSE(evaluator.loadCacheJson(other.cacheJson(), &error));
  EXPECT_EQ(evaluator.cacheSize(), 0u);
}

// ---------------------------------------------------------------------------
// Search: every enumerated point, truncated to the budget

TEST(Strategies, ExhaustiveReproducesLegacyExampleFrontier) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  DseResult result = runDse(space, evaluator, {}, latencyDspObjectives());
  ASSERT_EQ(result.visited.size(), space.size());

  // The hand-rolled frontier rule: p survives iff no q is no-worse on
  // (latency, dsp) and strictly better on one.
  std::set<std::string> legacy;
  for (const VisitedPoint &p : result.visited) {
    if (!p.qor.ok)
      continue;
    bool dominated = std::any_of(
        result.visited.begin(), result.visited.end(),
        [&](const VisitedPoint &q) {
          if (!q.qor.ok || &q == &p)
            return false;
          bool noWorse = q.qor.latencyCycles <= p.qor.latencyCycles &&
                         q.qor.dsp <= p.qor.dsp;
          bool better = q.qor.latencyCycles < p.qor.latencyCycles ||
                        q.qor.dsp < p.qor.dsp;
          return noWorse && better;
        });
    if (!dominated)
      legacy.insert(configKey(p.config));
  }
  EXPECT_EQ(archiveKeys(result.pareto), legacy);
}

TEST(Strategies, BudgetBoundsEvaluatorRequests) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  DseOptions options;
  options.budget = 3;
  DseResult result = runDse(space, evaluator, options);
  EXPECT_EQ(result.visited.size(), 3u);
  EXPECT_EQ(result.evaluated, 3u);
}

// ---------------------------------------------------------------------------
// Run driver / report JSON

TEST(Dse, ReportJsonValidatesAndCarriesTheRun) {
  DesignSpace space(kernel("fir"), smallGrid());
  Evaluator evaluator(kernel("fir"));
  DseResult result = runDse(space, evaluator, {});
  std::string text = result.json();
  std::string error;
  ASSERT_TRUE(json::validate(text, &error)) << error;

  std::optional<json::Value> doc = json::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->get("schema")->asString(), "mha.dse.v3");
  EXPECT_EQ(doc->get("seed"), nullptr);
  EXPECT_EQ(doc->get("kernel")->asString(), "fir");
  EXPECT_EQ(doc->get("space_size")->asInt(), 8);
  ASSERT_NE(doc->get("points"), nullptr);
  EXPECT_EQ(doc->get("points")->elements().size(), result.visited.size());
  ASSERT_NE(doc->get("pareto"), nullptr);
  EXPECT_EQ(doc->get("pareto")->elements().size(), result.pareto.size());
  const json::Value &point = doc->get("points")->elements().front();
  for (const char *field : {"ii", "unroll", "partition", "latency", "dsp",
                            "bram", "lut", "ff"})
    EXPECT_NE(point.get(field), nullptr) << field;

  // Schema v3: cache accounting, no strategy or estimator fields.
  for (const char *field : {"warm_started", "cache_waits"})
    EXPECT_NE(doc->get(field), nullptr) << field;
  for (const char *field : {"strategy", "estimated", "estimator"})
    EXPECT_EQ(doc->get(field), nullptr) << field;
}

// ---------------------------------------------------------------------------
// Config-key parsing (the --resume warm-start path)

TEST(ConfigKey, ParseRoundTripsEveryEnumeratedPoint) {
  DesignSpace space(kernel("gesummv")); // multi-nest: dataflow keys too
  for (const flow::KernelConfig &config : space.points()) {
    std::string key = configKey(config);
    std::optional<flow::KernelConfig> parsed = parseConfigKey(key);
    ASSERT_TRUE(parsed.has_value()) << key;
    EXPECT_EQ(configKey(*parsed), key);
  }
}

TEST(ConfigKey, ParseRejectsMalformedKeys) {
  for (const char *bad :
       {"", "ii=1", "ii=1|unroll=2|part=4|df=0", "ii=x|unroll=2|part=4|df=0|dir=1",
        "ii=1|unroll=2|part=4|df=2|dir=1", "unroll=2|ii=1|part=4|df=0|dir=1",
        "ii=1|unroll=2|part=4|df=0|dir=1|extra=9"})
    EXPECT_FALSE(parseConfigKey(bad).has_value()) << bad;
}

TEST(Dse, WarmStartReseedsArchiveFromCache) {
  DesignSpace space(kernel("fir"), smallGrid());

  // First run: exhaustive, populating the cache (as --cache would persist).
  Evaluator first(kernel("fir"));
  DseResult full = runDse(space, first, {});

  // Second run resumes from the same cache with a tiny budget. Without
  // warm start the archive would only hold the single visited point; with
  // it, the previous frontier survives.
  Evaluator second(kernel("fir"));
  std::string error;
  ASSERT_TRUE(second.loadCacheJson(first.cacheJson(), &error)) << error;
  DseOptions options;
  options.budget = 1;
  options.warmStart = true;
  DseResult resumed = runDse(space, second, options);
  EXPECT_GT(resumed.warmStarted, 0u);
  EXPECT_EQ(resumed.evaluated, 1u);
  EXPECT_EQ(archiveKeys(resumed.pareto), archiveKeys(full.pareto));
  // And the resumed run performed no synthesis at all (all cached).
  EXPECT_EQ(second.synthRuns(), 0);
}

TEST(Evaluator, CacheWaitCounterStartsAtZeroAndHitsDoNotWait) {
  Evaluator evaluator(kernel("fir"));
  flow::KernelConfig config; // default directive point
  evaluator.evaluate(config);
  evaluator.evaluate(config); // sequential re-visit: a hit, not a wait
  EXPECT_EQ(evaluator.synthRuns(), 1);
  EXPECT_EQ(evaluator.cacheHits(), 1);
  EXPECT_EQ(evaluator.cacheWaits(), 0);
}
