// End-to-end flow tests: every kernel goes through both flows, is accepted
// by the virtual HLS frontend, co-simulates bit-exactly, and the two flows
// produce comparable results (the paper's headline claim).
#include "flow/Flow.h"
#include "flow/StageCache.h"
#include "lir/Parser.h"
#include "lir/Printer.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <thread>

using namespace mha;
using namespace mha::flow;

namespace {

class AllKernels : public ::testing::TestWithParam<std::string> {
protected:
  const KernelSpec &spec() { return *findKernel(GetParam()); }
};

std::vector<std::string> kernelNames() {
  std::vector<std::string> names;
  for (const KernelSpec &spec : allKernels())
    names.push_back(spec.name);
  return names;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Kernels, AllKernels,
                         ::testing::ValuesIn(kernelNames()),
                         [](const auto &info) {
                           std::string name = info.param;
                           for (char &c : name)
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

TEST_P(AllKernels, AdaptorFlowAcceptedAndCorrect) {
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  FlowResult result = runAdaptorFlow(spec(), config);
  ASSERT_TRUE(result.ok) << result.diagnostics;
  EXPECT_TRUE(result.synth.accepted);
  EXPECT_EQ(result.synth.compat.warnings, 0) << result.diagnostics;
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(result, spec(), error)) << error;
}

TEST_P(AllKernels, HlsCppFlowAcceptedAndCorrect) {
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  FlowResult result = runHlsCppFlow(spec(), config);
  ASSERT_TRUE(result.ok) << result.diagnostics << "\n" << result.hlsCpp;
  EXPECT_TRUE(result.synth.accepted);
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(result, spec(), error)) << error;
}

TEST_P(AllKernels, FlowsProduceComparableLatency) {
  // The paper's claim: the adaptor flow performs comparably to the HLS C++
  // flow. Enforce a generous band (within 25% either way).
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  FlowResult adaptorResult = runAdaptorFlow(spec(), config);
  FlowResult cppResult = runHlsCppFlow(spec(), config);
  ASSERT_TRUE(adaptorResult.ok) << adaptorResult.diagnostics;
  ASSERT_TRUE(cppResult.ok) << cppResult.diagnostics;
  double a = static_cast<double>(adaptorResult.synth.top()->latencyCycles);
  double c = static_cast<double>(cppResult.synth.top()->latencyCycles);
  EXPECT_GT(a, 0);
  EXPECT_GT(c, 0);
  double ratio = a / c;
  EXPECT_GT(ratio, 0.75) << "adaptor=" << a << " hls-c++=" << c;
  EXPECT_LT(ratio, 1.25) << "adaptor=" << a << " hls-c++=" << c;
}

TEST_P(AllKernels, UnoptimizedBaselineIsSlower) {
  KernelConfig plain;
  plain.applyDirectives = false;
  KernelConfig optimized;
  optimized.pipelineII = 1;
  optimized.partitionFactor = 2;
  FlowResult baseline = runAdaptorFlow(spec(), plain);
  FlowResult tuned = runAdaptorFlow(spec(), optimized);
  ASSERT_TRUE(baseline.ok) << baseline.diagnostics;
  ASSERT_TRUE(tuned.ok) << tuned.diagnostics;
  // Directives must never make things slower.
  EXPECT_LE(tuned.synth.top()->latencyCycles,
            baseline.synth.top()->latencyCycles);
}

TEST(Flow, AdaptorStatsPopulated) {
  KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 4;
  FlowResult result = runAdaptorFlow(*findKernel("gemm"), config);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.adaptorStats.at("adaptor.descriptors-eliminated"), 3);
  EXPECT_GT(result.adaptorStats.at("adaptor.geps-delinearized"), 0);
  EXPECT_GT(result.adaptorStats.at("adaptor.loop-directives-converted"), 0);
  EXPECT_EQ(result.adaptorStats.at("compat.errors"), 0);
}

TEST(Flow, TimingsRecorded) {
  FlowResult result = runAdaptorFlow(*findKernel("fir"), {});
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.timings.totalMs, 0);
  EXPECT_GE(result.timings.totalMs,
            result.timings.mlirOptMs + result.timings.bridgeMs);
}

TEST(Flow, TimingWindowsAreSymmetricAcrossFlows) {
  // Table 4 compares compile time per stage, so both flows must charge
  // the same work to mlirOptMs: exactly the shared MLIR preparation.
  // Flow-specific legs (the adaptor flow's affine->scf conversion, the
  // C++ flow's emission) belong to bridgeMs.
  FlowResult a = runAdaptorFlow(*findKernel("gemm"), {});
  FlowResult c = runHlsCppFlow(*findKernel("gemm"), {});
  ASSERT_TRUE(a.ok && c.ok) << a.diagnostics << c.diagnostics;

  auto stageNames = [](const FlowResult &result, const char *stage) {
    std::vector<std::string> names;
    for (const StageSpan &span : result.spans)
      if (span.stage == stage)
        names.push_back(span.name);
    return names;
  };
  EXPECT_EQ(stageNames(a, "mlirOpt"), stageNames(c, "mlirOpt"));
  EXPECT_EQ(stageNames(a, "mlirOpt"),
            std::vector<std::string>{"prepare-mlir"});
  std::vector<std::string> bridge = stageNames(a, "bridge");
  EXPECT_NE(std::find(bridge.begin(), bridge.end(), "affine-to-scf"),
            bridge.end())
      << "scf conversion must be charged to the bridge window";

  // Each stage window covers at least the spans attributed to it.
  for (const FlowResult *result : {&a, &c}) {
    double mlirSpanMs = 0, bridgeSpanMs = 0;
    for (const StageSpan &span : result->spans) {
      if (span.stage == "mlirOpt")
        mlirSpanMs += span.ms;
      if (span.stage == "bridge")
        bridgeSpanMs += span.ms;
    }
    EXPECT_GE(result->timings.mlirOptMs, mlirSpanMs - 0.5);
    EXPECT_GE(result->timings.bridgeMs, bridgeSpanMs - 0.5);
  }
}

TEST(Flow, HlsCppFlowEmitsCode) {
  FlowResult result = runHlsCppFlow(*findKernel("fir"), {});
  ASSERT_TRUE(result.ok);
  EXPECT_NE(result.hlsCpp.find("void fir("), std::string::npos);
  // The adaptor flow never emits C++.
  FlowResult adaptorResult = runAdaptorFlow(*findKernel("fir"), {});
  EXPECT_TRUE(adaptorResult.hlsCpp.empty());
}

TEST(Flow, PipelineIIRespondsToDirective) {
  KernelConfig fast;
  fast.pipelineII = 1;
  KernelConfig slow;
  slow.pipelineII = 8;
  FlowResult fastResult = runAdaptorFlow(*findKernel("conv2d"), fast);
  FlowResult slowResult = runAdaptorFlow(*findKernel("conv2d"), slow);
  ASSERT_TRUE(fastResult.ok && slowResult.ok);
  auto innerII = [](const FlowResult &r) {
    int64_t ii = 0;
    for (const auto &loop : r.synth.top()->loops)
      if (loop.pipelined)
        ii = std::max(ii, loop.achievedII);
    return ii;
  };
  EXPECT_GE(innerII(slowResult), innerII(fastResult));
  EXPECT_GE(innerII(slowResult), 8);
}

TEST(Flow, PartitioningImprovesOrMatchesLatency) {
  KernelConfig one;
  one.pipelineII = 1;
  one.unrollFactor = 4;
  one.partitionFactor = 1;
  KernelConfig four = one;
  four.partitionFactor = 4;
  FlowResult p1 = runAdaptorFlow(*findKernel("gemm"), one);
  FlowResult p4 = runAdaptorFlow(*findKernel("gemm"), four);
  ASSERT_TRUE(p1.ok && p4.ok);
  EXPECT_LE(p4.synth.top()->latencyCycles, p1.synth.top()->latencyCycles);
}

TEST(Flow, DataflowOverlapsMvt) {
  KernelConfig off;
  off.pipelineII = 1;
  KernelConfig on = off;
  on.dataflow = true;
  FlowResult plain = runAdaptorFlow(*findKernel("mvt"), off);
  FlowResult df = runAdaptorFlow(*findKernel("mvt"), on);
  ASSERT_TRUE(plain.ok && df.ok) << plain.diagnostics << df.diagnostics;
  EXPECT_TRUE(df.synth.top()->dataflow);
  EXPECT_FALSE(plain.synth.top()->dataflow);
  // mvt's two nests are symmetric: dataflow halves the latency (~2x).
  double speedup = static_cast<double>(plain.synth.top()->latencyCycles) /
                   static_cast<double>(df.synth.top()->latencyCycles);
  EXPECT_GT(speedup, 1.8);
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(df, *findKernel("mvt"), error)) << error;
}

TEST(Flow, DataflowMatchesAcrossFlows) {
  KernelConfig config;
  config.pipelineII = 1;
  config.dataflow = true;
  FlowResult a = runAdaptorFlow(*findKernel("mm2"), config);
  FlowResult c = runHlsCppFlow(*findKernel("mm2"), config);
  ASSERT_TRUE(a.ok && c.ok) << a.diagnostics << c.diagnostics;
  EXPECT_EQ(a.synth.top()->latencyCycles, c.synth.top()->latencyCycles);
  EXPECT_TRUE(a.synth.top()->dataflow);
  EXPECT_TRUE(c.synth.top()->dataflow);
}

TEST(Flow, MlirLevelUnrollMatchesBackendUnroll) {
  KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 4;
  config.partitionFactor = 4;
  FlowOptions backend;
  FlowOptions mlirLevel;
  mlirLevel.unrollAtMlirLevel = true;
  for (const char *name : {"jacobi2d", "conv2d"}) {
    FlowResult b = runAdaptorFlow(*findKernel(name), config, backend);
    FlowResult m = runAdaptorFlow(*findKernel(name), config, mlirLevel);
    ASSERT_TRUE(b.ok && m.ok) << name;
    EXPECT_EQ(b.synth.top()->latencyCycles, m.synth.top()->latencyCycles)
        << name;
    std::string error;
    EXPECT_TRUE(cosimAgainstReference(m, *findKernel(name), error))
        << name << ": " << error;
  }
}

TEST(Flow, MlirLevelUnrollThroughCppFlow) {
  KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 4;
  config.partitionFactor = 4;
  FlowOptions mlirLevel;
  mlirLevel.unrollAtMlirLevel = true;
  FlowResult m = runHlsCppFlow(*findKernel("jacobi2d"), config, mlirLevel);
  ASSERT_TRUE(m.ok) << m.diagnostics;
  // The emitted C++ carries the pre-unrolled body: no unroll pragma left.
  EXPECT_EQ(m.hlsCpp.find("unroll"), std::string::npos);
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(m, *findKernel("jacobi2d"), error))
      << error;
}

namespace {

/// tools/testdata/multifn.lir: calls, recursion and a named top.
const std::string &multifnText() {
  static const std::string text = [] {
    std::ifstream in(MHA_TESTDATA_DIR "/multifn.lir");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }();
  return text;
}

enum class Entry { Adaptor, HlsCpp, Lir };

/// What one run exposes of its stage sequence.
struct Observed {
  std::vector<std::pair<std::string, std::string>> spans; // (stage, name)
  std::vector<std::string> stages;                        // onStage calls
  bool synthFromCache = false;
};

/// Runs `entry` on gemm (kernel entries) or multifn (direct-LIR entry).
FlowResult runEntryWith(Entry entry, const FlowOptions &options) {
  const KernelSpec &gemm = *findKernel("gemm");
  return entry == Entry::Adaptor  ? runAdaptorFlow(gemm, {}, options)
         : entry == Entry::HlsCpp ? runHlsCppFlow(gemm, {}, options)
                                  : runLirAdaptorFlow(multifnText(),
                                                      "multifn", options);
}

Observed runEntry(Entry entry, bool useStageCache, double clockPeriodNs) {
  Observed observed;
  FlowOptions options;
  options.useStageCache = useStageCache;
  options.synthesis.target.clockPeriodNs = clockPeriodNs;
  options.onStage = [&](const char *stage) {
    observed.stages.push_back(stage);
  };
  FlowResult result = runEntryWith(entry, options);
  EXPECT_TRUE(result.ok) << result.diagnostics;
  for (const StageSpan &span : result.spans)
    observed.spans.emplace_back(span.stage, span.name);
  observed.synthFromCache = result.synthFromCache;
  return observed;
}

} // namespace

// The stage contract of every entry point: the exact FlowResult span list
// and onStage sequence under each StageCache state. The entries share one
// stage executor; this pins what it must keep producing.
TEST(Flow, StageContractAcrossCacheStates) {
  using Spans = std::vector<std::pair<std::string, std::string>>;
  struct Case {
    const char *label;
    Entry entry;
    Spans fresh;    // cache off, or a cold cache
    Spans restored; // full hit, or a synth-only TargetSpec edit
    std::vector<std::string> stages;
  };
  const std::vector<std::string> kernelStages = {"mlirOpt", "bridge",
                                                 "synth"};
  const std::vector<Case> cases = {
      {"adaptor",
       Entry::Adaptor,
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "affine-to-scf"},
        {"bridge", "lower-to-lir"},
        {"bridge", "adaptor-pipeline"},
        {"synth", "vhls"}},
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "bridge-cache-restore"},
        {"synth", "vhls"}},
       kernelStages},
      {"hls-c++",
       Entry::HlsCpp,
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "emit-hls-cpp"},
        {"bridge", "hls-frontend"},
        {"synth", "vhls"}},
       {{"mlirOpt", "prepare-mlir"},
        {"bridge", "bridge-cache-restore"},
        {"synth", "vhls"}},
       kernelStages},
      {"lir",
       Entry::Lir,
       {{"bridge", "parse-lir"},
        {"bridge", "adaptor-pipeline"},
        {"synth", "vhls"}},
       {{"bridge", "parse-lir"},
        {"bridge", "bridge-cache-restore"},
        {"synth", "vhls"}},
       {"bridge", "synth"}},
  };
  for (const Case &c : cases) {
    SCOPED_TRACE(c.label);
    StageCache::global().clear();
    struct State {
      const char *name;
      bool useStageCache;
      double clockPeriodNs;
      const Spans *spans;
      bool synthFromCache;
    };
    for (const State &state : {State{"off", false, 10.0, &c.fresh, false},
                               State{"cold", true, 10.0, &c.fresh, false},
                               State{"warm", true, 10.0, &c.restored, true},
                               State{"synth-edit", true, 5.0, &c.restored,
                                     false}}) {
      SCOPED_TRACE(state.name);
      Observed observed =
          runEntry(c.entry, state.useStageCache, state.clockPeriodNs);
      EXPECT_EQ(observed.spans, *state.spans);
      EXPECT_EQ(observed.stages, c.stages);
      EXPECT_EQ(observed.synthFromCache, state.synthFromCache);
    }
  }
  StageCache::global().clear();
}

// Early exits still close the total window: a failing direct-LIR run and
// a run cancelled before synth both report a totalMs covering every stage
// window they opened.
TEST(Flow, FailedAndCancelledRunsReportTotalTime) {
  auto expectTotalCoversWindows = [](const FlowResult &result) {
    const StageTimings &t = result.timings;
    EXPECT_GT(t.totalMs, 0);
    EXPECT_GE(t.totalMs, t.mlirOptMs + t.bridgeMs + t.synthMs);
  };

  FlowResult failed = runLirAdaptorFlow(multifnText(), "no_such_top");
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.diagnostics.find("top function 'no_such_top' not found"),
            std::string::npos)
      << failed.diagnostics;
  EXPECT_GT(failed.timings.bridgeMs, 0);
  expectTotalCoversWindows(failed);

  std::atomic<bool> cancel{false};
  FlowOptions options;
  options.cancelFlag = &cancel;
  options.onStage = [&](const char *stage) {
    if (std::string(stage) == "bridge")
      cancel = true;
  };
  FlowResult cancelled = runAdaptorFlow(*findKernel("fir"), {}, options);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_FALSE(cancelled.ok);
  EXPECT_EQ(cancelled.diagnostics, "flow cancelled before synth stage");
  EXPECT_GT(cancelled.timings.bridgeMs, 0);
  EXPECT_EQ(cancelled.timings.synthMs, 0);
  expectTotalCoversWindows(cancelled);
}

namespace {

/// The "flow.cache" bridge.materialized statistic: bridge-cache hits whose
/// deferred module was built.
int64_t materialized() {
  for (const telemetry::StatisticValue &v :
       telemetry::statisticValues(/*includeZero=*/true))
    if (v.group == "flow.cache" && v.name == "bridge.materialized")
      return v.value;
  ADD_FAILURE() << "flow.cache bridge.materialized is not registered";
  return -1;
}

} // namespace

// A bridge-cache hit defers the final module: a full warm hit builds no
// IR, the first read builds exactly a fresh parse of the cached bridge
// text, a synth miss that must elaborate builds it once and synthesizes it
// in place, and a synth-only edit served from the cached ScheduleGraph
// builds nothing until read. Every report equals a cache-off run's.
TEST(Flow, BridgeHitBuildsFinalModuleOnlyWhenRead) {
  for (Entry entry : {Entry::Adaptor, Entry::HlsCpp, Entry::Lir}) {
    SCOPED_TRACE(entry == Entry::Adaptor  ? "adaptor"
                 : entry == Entry::HlsCpp ? "hls-c++"
                                          : "lir");
    StageCache::global().clear();
    FlowOptions cached;
    cached.useStageCache = true;

    // Prime the cache with a run cancelled before synthesis: its module is
    // the bridge output, and printing it gives the stored text.
    std::atomic<bool> cancel{false};
    FlowOptions prime = cached;
    prime.cancelFlag = &cancel;
    prime.onStage = [&](const char *stage) {
      cancel = std::string(stage) == "bridge"; // checked before synth
    };
    FlowResult primed = runEntryWith(entry, prime);
    ASSERT_TRUE(primed.cancelled);
    ASSERT_NE(primed.module, nullptr);
    const std::string bridgeText = lir::printModule(*primed.module);
    auto parseBridgeText = [&](lir::LContext &ctx) {
      DiagnosticEngine diags;
      std::unique_ptr<lir::Module> module =
          lir::parseModule(bridgeText, ctx, diags);
      EXPECT_NE(module, nullptr) << diags.str();
      return module;
    };

    // Bridge hit, synth miss: the module is built once, to synthesize.
    int64_t before = materialized();
    FlowResult first = runEntryWith(entry, cached);
    ASSERT_TRUE(first.ok) << first.diagnostics;
    EXPECT_FALSE(first.synthFromCache);
    EXPECT_EQ(materialized(), before + 1);

    // Full warm hit: nothing reads the module, so nothing builds it.
    before = materialized();
    FlowResult warm = runEntryWith(entry, cached);
    ASSERT_TRUE(warm.ok) << warm.diagnostics;
    EXPECT_TRUE(warm.synthFromCache);
    EXPECT_EQ(materialized(), before);

    // First read: a fresh parse of the cached bridge text, built once.
    lir::LContext freshCtx;
    std::unique_ptr<lir::Module> fresh = parseBridgeText(freshCtx);
    ASSERT_NE(fresh, nullptr);
    EXPECT_EQ(lir::printModule(*warm.module), lir::printModule(*fresh));
    EXPECT_NE(warm.topFunction(), nullptr);
    if (entry != Entry::Lir) {
      std::string error;
      EXPECT_TRUE(cosimAgainstReference(warm, *findKernel("gemm"), error))
          << error;
    }
    EXPECT_EQ(materialized(), before + 1);

    // Synth-only TargetSpec edit: the cached graph is rescheduled, so the
    // run builds nothing and reports exactly like the cache-off twin. The
    // first read builds the synthesized module: the bridge text, parsed
    // and backend-unrolled.
    FlowOptions edit = cached;
    edit.synthesis.target.clockPeriodNs = 5.0;
    before = materialized();
    FlowResult edited = runEntryWith(entry, edit);
    ASSERT_TRUE(edited.ok) << edited.diagnostics;
    EXPECT_FALSE(edited.synthFromCache);
    EXPECT_EQ(materialized(), before);
    FlowOptions twinOptions = edit;
    twinOptions.useStageCache = false;
    FlowResult twin = runEntryWith(entry, twinOptions);
    ASSERT_TRUE(twin.ok) << twin.diagnostics;
    EXPECT_EQ(edited.synth.json(), twin.synth.json());
    lir::LContext editCtx;
    std::unique_ptr<lir::Module> synthesized = parseBridgeText(editCtx);
    ASSERT_NE(synthesized, nullptr);
    vhls::SynthesisOptions synthOptions = edit.synthesis;
    synthOptions.topFunction = edited.kernelName;
    DiagnosticEngine diags;
    EXPECT_TRUE(vhls::synthesize(*synthesized, synthOptions, diags).accepted)
        << diags.str();
    EXPECT_EQ(lir::printModule(*edited.module),
              lir::printModule(*synthesized));
    EXPECT_EQ(materialized(), before + 1);
    if (entry != Entry::Lir) {
      std::string error;
      EXPECT_TRUE(cosimAgainstReference(edited, *findKernel("gemm"), error))
          << error;
    }
  }
  StageCache::global().clear();
}

namespace {

/// Telemetry spans named `name` recorded while `run` executes.
template <typename Run> size_t spansNamed(const char *name, Run run) {
  telemetry::Tracer &tracer = telemetry::Tracer::global();
  tracer.reset();
  tracer.setEnabled(true);
  run();
  tracer.setEnabled(false);
  std::vector<telemetry::TraceEvent> events = tracer.events();
  tracer.reset();
  return std::count_if(events.begin(), events.end(),
                       [&](const telemetry::TraceEvent &event) {
                         return event.name == name;
                       });
}

/// Synth-only TargetSpec edits: three clocks and a set of FU limits.
std::vector<vhls::TargetSpec> editedTargets() {
  std::vector<vhls::TargetSpec> targets(4);
  targets[0].clockPeriodNs = 5.0;
  targets[1].clockPeriodNs = 7.5;
  targets[2].clockPeriodNs = 15.0;
  targets[3].fuLimits = {{"fadd", 1}, {"fmul", 1}, {"imul", 1}};
  return targets;
}

} // namespace

// A synth-only TargetSpec edit reschedules the cached ScheduleGraph: for
// every kernel in both flows, each edited target reports byte for byte
// like its cache-off twin, and the run neither parses nor unrolls (no
// materialize-lir span, bridge.materialized unchanged). A later read
// builds the cached bridge text synthesized, which co-simulates.
TEST(Flow, SynthOnlyEditSchedulesCachedGraph) {
  KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 2;
  config.partitionFactor = 2;
  for (const KernelSpec &spec : allKernels())
    for (FlowKind kind : {FlowKind::Adaptor, FlowKind::HlsCpp}) {
      SCOPED_TRACE(spec.name + " " + flowKindName(kind));
      StageCache::global().clear();
      FlowOptions cached;
      cached.useStageCache = true;
      // The bridge output, from a run cancelled before synthesis, then
      // synthesized as a graph-miss run would.
      std::atomic<bool> cancel{false};
      FlowOptions prime = cached;
      prime.cancelFlag = &cancel;
      prime.onStage = [&](const char *stage) {
        cancel = std::string(stage) == "bridge";
      };
      FlowResult bridge = runFlow(kind, spec, config, prime);
      ASSERT_NE(bridge.module, nullptr);
      DiagnosticEngine diags;
      lir::LContext ctx;
      std::unique_ptr<lir::Module> synthesized =
          lir::parseModule(lir::printModule(*bridge.module), ctx, diags);
      ASSERT_NE(synthesized, nullptr) << diags.str();
      vhls::unrollByDirectives(*synthesized);
      const std::string synthesizedText = lir::printModule(*synthesized);
      // The first full run restores the bridge and stores the graph.
      ASSERT_TRUE(runFlow(kind, spec, config, cached).ok);
      ASSERT_EQ(StageCache::global().counters().graphMisses, 1);

      for (const vhls::TargetSpec &target : editedTargets()) {
        SCOPED_TRACE(target.clockPeriodNs);
        FlowOptions edit = cached;
        edit.synthesis.target = target;
        FlowOptions off = edit;
        off.useStageCache = false;
        FlowResult twin = runFlow(kind, spec, config, off);
        ASSERT_TRUE(twin.ok) << twin.diagnostics;

        const int64_t before = materialized();
        const int64_t graphHits = StageCache::global().counters().graphHits;
        FlowResult edited;
        EXPECT_EQ(spansNamed("materialize-lir",
                             [&] { edited = runFlow(kind, spec, config, edit); }),
                  0u);
        ASSERT_TRUE(edited.ok) << edited.diagnostics;
        EXPECT_FALSE(edited.synthFromCache);
        EXPECT_EQ(StageCache::global().counters().graphHits, graphHits + 1);
        EXPECT_EQ(materialized(), before);
        EXPECT_EQ(edited.synth.json(), twin.synth.json());

        EXPECT_EQ(lir::printModule(*edited.module), synthesizedText);
        EXPECT_EQ(materialized(), before + 1);
        std::string error;
        EXPECT_TRUE(cosimAgainstReference(edited, spec, error)) << error;
      }
    }
  StageCache::global().clear();
}

// Four threads share one cached graph: 50 synth-only edits each, every one
// a graph hit whose report equals its cold twin's.
TEST(Flow, ConcurrentSynthEditsShareOneGraph) {
  const KernelSpec &spec = *findKernel("gemm");
  KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 2;
  config.partitionFactor = 2;
  constexpr int kThreads = 4, kEdits = 50;
  auto optionsFor = [](int edit, bool useStageCache) {
    FlowOptions options;
    options.useStageCache = useStageCache;
    options.synthesis.target.clockPeriodNs = 5.0 + 0.02 * edit; // < 10 ns
    if (edit % 2)
      options.synthesis.target.fuLimits["fadd"] = 1 + edit % 3;
    return options;
  };
  std::vector<std::string> twins;
  for (int edit = 0; edit < kThreads * kEdits; ++edit) {
    FlowResult twin = runAdaptorFlow(spec, config, optionsFor(edit, false));
    ASSERT_TRUE(twin.ok) << twin.diagnostics;
    twins.push_back(twin.synth.json());
  }

  // A cold run stores no graph; the first edit of the design does.
  StageCache::global().clear();
  FlowOptions cached;
  cached.useStageCache = true;
  ASSERT_TRUE(runAdaptorFlow(spec, config, cached).ok);
  cached.synthesis.target.clockPeriodNs = 4.0;
  ASSERT_TRUE(runAdaptorFlow(spec, config, cached).ok);
  const StageCache::Counters before = StageCache::global().counters();
  EXPECT_EQ(before.graphMisses, 2);
  EXPECT_EQ(before.graphHits, 0);
  std::atomic<int> failed{0}, differ{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int e = 0; e < kEdits; ++e) {
        int edit = t * kEdits + e;
        FlowResult run = runAdaptorFlow(spec, config, optionsFor(edit, true));
        if (!run.ok)
          ++failed;
        else if (run.synth.json() != twins[edit])
          ++differ;
      }
    });
  for (std::thread &thread : threads)
    thread.join();
  const StageCache::Counters after = StageCache::global().counters();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(differ.load(), 0);
  EXPECT_EQ(after.graphHits - before.graphHits, kThreads * kEdits);
  EXPECT_EQ(after.graphMisses, before.graphMisses);
  StageCache::global().clear();
}

// A graph hit replays the elaboration's diagnostics: a synth-only edit of
// a direct-LIR input accepted with a warning (a flat GEP) reports exactly
// the diagnostics of the graph-miss run before it.
TEST(Flow, GraphHitReplaysElaborationDiagnostics) {
  const std::string flatGep = R"(
define void @k(double* %p, i64 %n) {
entry:
  %addr = getelementptr double, double* %p, i64 %n
  %v = load double, double* %addr
  %d = fmul double %v, 2.0
  store double %d, double* %addr
  ret void
}
)";
  StageCache::global().clear();
  FlowOptions cached;
  cached.useStageCache = true;
  // Prime the bridge only (cancelled before synth), so both runs below
  // restore the same bridge entry and differ only in the graph stage.
  std::atomic<bool> cancel{false};
  FlowOptions prime = cached;
  prime.cancelFlag = &cancel;
  prime.onStage = [&](const char *stage) {
    cancel = std::string(stage) == "bridge";
  };
  ASSERT_TRUE(runLirAdaptorFlow(flatGep, "k", prime).cancelled);

  FlowResult miss = runLirAdaptorFlow(flatGep, "k", cached);
  ASSERT_TRUE(miss.ok) << miss.diagnostics;
  EXPECT_EQ(StageCache::global().counters().graphHits, 0);
  EXPECT_GT(miss.synth.compat.warnings, 0);
  EXPECT_NE(miss.diagnostics.find("warning: hls-frontend: flat "
                                  "pointer-arithmetic GEP in @k"),
            std::string::npos)
      << miss.diagnostics;

  FlowOptions edit = cached;
  edit.synthesis.target.clockPeriodNs = 5.0;
  FlowResult hit = runLirAdaptorFlow(flatGep, "k", edit);
  ASSERT_TRUE(hit.ok) << hit.diagnostics;
  EXPECT_EQ(StageCache::global().counters().graphHits, 1);
  EXPECT_EQ(hit.diagnostics, miss.diagnostics);
  EXPECT_EQ(hit.synth.compat.warnings, miss.synth.compat.warnings);
  StageCache::global().clear();
}

// A bridge hit replays the bridge leg's diagnostics: the flat GEP's
// hls-compat-verify warning (from the adaptor pipeline) is reported again
// next to synthesis's own, so the run's diagnostics equal a cold run's.
TEST(Flow, BridgeHitReplaysBridgeDiagnostics) {
  const std::string flatGep = R"(
define void @k(double* %p, i64 %n) {
entry:
  %addr = getelementptr double, double* %p, i64 %n
  %v = load double, double* %addr
  %d = fmul double %v, 2.0
  store double %d, double* %addr
  ret void
}
)";
  FlowResult cold = runLirAdaptorFlow(flatGep, "k", {});
  ASSERT_TRUE(cold.ok) << cold.diagnostics;
  const std::string warning = "hls-frontend: flat pointer-arithmetic GEP";
  size_t first = cold.diagnostics.find(warning);
  ASSERT_NE(first, std::string::npos) << cold.diagnostics;
  EXPECT_NE(cold.diagnostics.find(warning, first + 1), std::string::npos)
      << cold.diagnostics;

  StageCache::global().clear();
  FlowOptions cached;
  cached.useStageCache = true;
  std::atomic<bool> cancel{false};
  FlowOptions prime = cached;
  prime.cancelFlag = &cancel;
  prime.onStage = [&](const char *stage) {
    cancel = std::string(stage) == "bridge";
  };
  ASSERT_TRUE(runLirAdaptorFlow(flatGep, "k", prime).cancelled);
  FlowResult hit = runLirAdaptorFlow(flatGep, "k", cached);
  ASSERT_TRUE(hit.ok) << hit.diagnostics;
  EXPECT_EQ(StageCache::global().counters().bridgeHits, 1);
  EXPECT_EQ(hit.diagnostics, cold.diagnostics);
  StageCache::global().clear();
}

// A synth hit replays the synthesis leg's diagnostics: a full warm hit of
// a direct-LIR input with a flat GEP reports the elaboration's warning next
// to the bridge's, exactly like the cold run that stored both entries.
TEST(Flow, SynthHitReplaysSynthesisDiagnostics) {
  const std::string flatGep = R"(
define void @k(double* %p, i64 %n) {
entry:
  %addr = getelementptr double, double* %p, i64 %n
  %v = load double, double* %addr
  %d = fmul double %v, 2.0
  store double %d, double* %addr
  ret void
}
)";
  StageCache::global().clear();
  FlowOptions cached;
  cached.useStageCache = true;
  FlowResult cold = runLirAdaptorFlow(flatGep, "k", cached);
  ASSERT_TRUE(cold.ok) << cold.diagnostics;
  const std::string warning = "hls-frontend: flat pointer-arithmetic GEP";
  size_t first = cold.diagnostics.find(warning);
  ASSERT_NE(first, std::string::npos) << cold.diagnostics;
  ASSERT_NE(cold.diagnostics.find(warning, first + 1), std::string::npos)
      << cold.diagnostics;

  FlowResult hit = runLirAdaptorFlow(flatGep, "k", cached);
  ASSERT_TRUE(hit.ok) << hit.diagnostics;
  EXPECT_TRUE(hit.synthFromCache);
  EXPECT_EQ(StageCache::global().counters().synthHits, 1);
  EXPECT_EQ(hit.diagnostics, cold.diagnostics);
  StageCache::global().clear();
}

// The lir parser lays blocks out in definition order, so printing is a
// fixed point of print(parse(.)) on every grid design's bridge text in
// both flows (a block first mentioned by a forward branch or a phi used
// to print where it was mentioned).
TEST(Flow, BridgeTextRoundTripsThroughTheParser) {
  std::atomic<bool> cancel{false};
  FlowOptions bridgeOnly;
  bridgeOnly.cancelFlag = &cancel;
  bridgeOnly.onStage = [&](const char *stage) {
    cancel = std::string(stage) == "bridge";
  };
  for (const KernelSpec &spec : allKernels())
    for (int64_t ii : {0, 1, 2})
      for (int64_t unroll : {1, 2, 4})
        for (int64_t partition : {1, 2, 4})
          for (FlowKind kind : {FlowKind::Adaptor, FlowKind::HlsCpp}) {
            SCOPED_TRACE(strfmt("%s ii=%lld u=%lld p=%lld %s",
                                spec.name.c_str(), (long long)ii,
                                (long long)unroll, (long long)partition,
                                flowKindName(kind)));
            KernelConfig config;
            config.pipelineII = ii;
            config.unrollFactor = unroll;
            config.partitionFactor = partition;
            cancel = false;
            FlowResult bridge = runFlow(kind, spec, config, bridgeOnly);
            ASSERT_NE(bridge.module, nullptr) << bridge.diagnostics;
            const std::string text = lir::printModule(*bridge.module);
            lir::LContext ctx;
            DiagnosticEngine diags;
            std::unique_ptr<lir::Module> parsed =
                lir::parseModule(text, ctx, diags);
            ASSERT_NE(parsed, nullptr) << diags.str();
            EXPECT_EQ(lir::printModule(*parsed), text);
          }
}

// A bridge-hit run builds its final module from the cached text, and that
// module prints exactly like the cache-off run's, block order included.
TEST(Flow, BridgeHitModulePrintsLikeCacheOffModule) {
  KernelConfig config;
  config.pipelineII = 1;
  config.unrollFactor = 2;
  config.partitionFactor = 2;
  for (const KernelSpec &spec : allKernels())
    for (FlowKind kind : {FlowKind::Adaptor, FlowKind::HlsCpp}) {
      SCOPED_TRACE(spec.name + " " + flowKindName(kind));
      StageCache::global().clear();
      FlowOptions cached;
      cached.useStageCache = true;
      ASSERT_TRUE(runFlow(kind, spec, config, cached).ok);
      // A synth-only edit: the bridge hits, synthesis runs on the module
      // built from the cached text.
      FlowOptions edit = cached;
      edit.synthesis.target.clockPeriodNs = 5.0;
      FlowResult hit = runFlow(kind, spec, config, edit);
      ASSERT_TRUE(hit.ok) << hit.diagnostics;
      FlowOptions off = edit;
      off.useStageCache = false;
      FlowResult twin = runFlow(kind, spec, config, off);
      ASSERT_TRUE(twin.ok) << twin.diagnostics;
      EXPECT_EQ(StageCache::global().counters().bridgeHits, 1);
      EXPECT_EQ(lir::printModule(*hit.module), lir::printModule(*twin.module));
    }
  StageCache::global().clear();
}

// A deferred module whose text does not parse (a corrupt cache entry) reads
// as nullptr, keeps the parser's diagnostic, and co-simulation reports it.
TEST(Flow, DeferredParseErrorIsKept) {
  FlowResult result;
  result.kernelName = "gemm";
  result.module.defer("define void @gemm( {\n");
  int64_t before = materialized();
  EXPECT_EQ(result.module, nullptr);
  EXPECT_FALSE(result.module);
  EXPECT_EQ(result.topFunction(), nullptr);
  EXPECT_NE(result.module.error().find("error"), std::string::npos)
      << result.module.error();
  std::string error;
  EXPECT_FALSE(cosimAgainstReference(result, *findKernel("gemm"), error));
  EXPECT_NE(error.find(result.module.error()), std::string::npos) << error;
  EXPECT_EQ(error.find("no top function"), std::string::npos) << error;
  // The parse runs once; later reads see the kept error.
  EXPECT_EQ(materialized(), before + 1);
}

// Move-assigning a FlowResult over one that holds a module must destroy the
// old module before its context (~Module walks context-owned constants);
// the sanitizer jobs catch a use-after-free here.
TEST(Flow, MoveAssignDropsOldModuleBeforeItsContext) {
  const KernelSpec &gemm = *findKernel("gemm");
  FlowResult a = runAdaptorFlow(gemm, {});
  FlowResult b = runAdaptorFlow(gemm, {});
  ASSERT_TRUE(a.ok && b.ok) << a.diagnostics << b.diagnostics;
  const std::string expected = lir::printModule(*b.module);
  a = std::move(b);
  ASSERT_NE(a.module, nullptr);
  EXPECT_EQ(lir::printModule(*a.module), expected);
  std::string error;
  EXPECT_TRUE(cosimAgainstReference(a, gemm, error)) << error;
  a = FlowResult();
  EXPECT_EQ(a.module, nullptr);
}
