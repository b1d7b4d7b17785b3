// Telemetry tests: spans and lanes, Chrome trace export, the statistic
// registry, pass instrumentation hooks (lir and mir), --time-passes
// aggregation, the lir verifier's schedule, and the flow drivers' span
// integration.
#include "support/Telemetry.h"

#include "flow/Flow.h"
#include "lir/Function.h"
#include "lir/LContext.h"
#include "lir/Parser.h"
#include "lir/transforms/Transforms.h"
#include "mir/Builder.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Json.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace mha;
using namespace mha::telemetry;

namespace {

/// Every telemetry test shares the process-wide tracer, so each one starts
/// from a clean slate and leaves the tracer disabled for its neighbors.
struct TracerGuard {
  TracerGuard(bool enable = false, bool timePasses = false) {
    Tracer &tracer = Tracer::global();
    tracer.setEnabled(enable);
    tracer.setTimePasses(timePasses);
    tracer.reset();
  }
  ~TracerGuard() {
    Tracer &tracer = Tracer::global();
    tracer.setEnabled(false);
    tracer.setTimePasses(false);
    tracer.reset();
  }
};

struct Parsed {
  lir::LContext ctx;
  std::unique_ptr<lir::Module> module;

  explicit Parsed(const std::string &text) {
    DiagnosticEngine diags;
    module = lir::parseModule(text, ctx, diags);
    EXPECT_NE(module, nullptr) << diags.str();
  }
};

// A function with a promotable alloca and (after mem2reg) dead
// arithmetic, so mem2reg and dce both report changes.
const char *kPromotableIR = R"(
define void @f(i64 %x) {
entry:
  %slot = alloca i64
  store i64 %x, i64* %slot
  %v = load i64, i64* %slot
  %r = add i64 %v, 1
  ret void
}
)";

/// Records the hook sequence as strings like "A:before:dce".
struct RecordingInstr : lir::PassInstrumentation {
  RecordingInstr(std::string tag, std::vector<std::string> &log)
      : tag(std::move(tag)), log(log) {}
  void beforePass(const lir::ModulePass &pass, const lir::Module &) override {
    log.push_back(tag + ":before:" + pass.name());
  }
  void afterPass(const lir::ModulePass &pass, const lir::Module &,
                 const lir::PassRunRecord &record) override {
    lastRecord = record;
    log.push_back(tag + ":after:" + pass.name());
  }
  std::string tag;
  std::vector<std::string> &log;
  lir::PassRunRecord lastRecord;
};

const TraceEvent *findEvent(const std::vector<TraceEvent> &events,
                            const std::string &name) {
  auto it = std::find_if(events.begin(), events.end(),
                         [&](const TraceEvent &e) { return e.name == name; });
  return it == events.end() ? nullptr : &*it;
}

bool contains(const TraceEvent &outer, const TraceEvent &inner) {
  return inner.startUs >= outer.startUs &&
         inner.startUs + inner.durUs <= outer.startUs + outer.durUs;
}

} // namespace

TEST(Span, MeasuresWithoutRecordingWhenDisabled) {
  TracerGuard guard;
  Span span("unrecorded", "test");
  EXPECT_GE(span.finish(), 0.0);
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST(Span, FinishIsIdempotent) {
  TracerGuard guard;
  Span span("once", "test");
  double first = span.finish();
  EXPECT_EQ(span.finish(), first);
}

TEST(Span, RecordsNestedSpansWithTimeContainment) {
  TracerGuard guard(/*enable=*/true);
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
      (void)inner;
    }
  }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes (and records) first; both are complete spans in the
  // same lane and the inner interval nests within the outer one — which
  // is exactly what Chrome/Perfetto use to render the stack.
  const TraceEvent *outer = findEvent(events, "outer");
  const TraceEvent *inner = findEvent(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->phase, 'X');
  EXPECT_EQ(inner->phase, 'X');
  EXPECT_EQ(outer->lane, inner->lane);
  EXPECT_TRUE(contains(*outer, *inner));
}

TEST(Span, ArgsAreRecorded) {
  TracerGuard guard(/*enable=*/true);
  { Span span("with-args", "test", {{"kernel", "gemm"}, {"flow", "adaptor"}}); }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "kernel");
  EXPECT_EQ(events[0].args[0].second, "gemm");
}

TEST(Tracer, InstantEventsAndReset) {
  TracerGuard guard(/*enable=*/true);
  Tracer::global().instant("marker", "test");
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'i');
  Tracer::global().reset();
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST(Tracer, ThreadLaneClaimAndName) {
  TracerGuard guard(/*enable=*/true);
  Tracer::setThreadLane(7, "lane seven");
  { Span span("on-lane-7", "test"); }
  std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].lane, 7);
  std::string json = Tracer::global().chromeTraceJson();
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("lane seven"), std::string::npos);
}

TEST(Tracer, UnclaimedThreadsGetDistinctAutoLanes) {
  TracerGuard guard(/*enable=*/true);
  int laneA = -1, laneB = -1;
  std::thread a([&] {
    Span span("thread-a", "test");
    span.finish();
    laneA = Tracer::global().events().back().lane;
  });
  a.join();
  std::thread b([&] {
    Span span("thread-b", "test");
    span.finish();
    laneB = Tracer::global().events().back().lane;
  });
  b.join();
  EXPECT_GE(laneA, 1000);
  EXPECT_GE(laneB, 1000);
  EXPECT_NE(laneA, laneB);
}

TEST(Tracer, ChromeTraceIsWellFormedJsonEvenWithHostileNames) {
  TracerGuard guard(/*enable=*/true);
  Tracer::setThreadLane(3, "na\"me\\with\nnasties");
  { Span span("sp\"an\\\n\t", "cat\"egory", {{"k\"ey", "val\\ue\n"}}); }
  Tracer::global().instant("inst\"ant", "test");
  std::string json = Tracer::global().chromeTraceJson();
  std::string error;
  EXPECT_TRUE(json::validate(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(Tracer, WriteChromeTraceRoundTrips) {
  TracerGuard guard(/*enable=*/true);
  { Span span("to-disk", "test"); }
  const char *path = "telemetry_chrome_test.json";
  std::string error;
  ASSERT_TRUE(Tracer::global().writeChromeTrace(path, &error)) << error;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json::validate(buffer.str(), &error)) << error;
  EXPECT_NE(buffer.str().find("to-disk"), std::string::npos);
  std::remove(path);
}

TEST(Statistic, CountsAtomicallyAcrossThreads) {
  static Statistic counter("telemetry-test", "increments",
                           "test counter bumped from a pool");
  int64_t before = counter.value();
  ThreadPool pool(8);
  parallelFor(pool, 8000, [&](size_t) { ++counter; });
  EXPECT_EQ(counter.value() - before, 8000);
  counter += 5;
  EXPECT_EQ(counter.value() - before, 8005);

  // The registry sees the counter and the report renders it.
  std::vector<StatisticValue> values = statisticValues();
  auto it = std::find_if(values.begin(), values.end(),
                         [](const StatisticValue &v) {
                           return v.group == "telemetry-test" &&
                                  v.name == "increments";
                         });
  ASSERT_NE(it, values.end());
  EXPECT_EQ(it->value, counter.value());
  std::string report = statisticsReport();
  EXPECT_NE(report.find("telemetry-test"), std::string::npos);
  EXPECT_NE(report.find("increments"), std::string::npos);
}

TEST(Statistic, TransformPassesBumpRegisteredCounters) {
  // dce registers a process-wide "dce.removed" style counter; running the
  // pass on IR with (post-mem2reg) dead code must move it.
  std::vector<StatisticValue> before = statisticValues(/*includeZero=*/true);
  auto valueOf = [](const std::vector<StatisticValue> &values,
                    const char *group) {
    int64_t total = 0;
    for (const StatisticValue &v : values)
      if (v.group == group)
        total += v.value;
    return total;
  };

  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  std::vector<StatisticValue> after = statisticValues(/*includeZero=*/true);
  EXPECT_GT(valueOf(after, "mem2reg"), valueOf(before, "mem2reg"));
  EXPECT_GT(valueOf(after, "dce"), valueOf(before, "dce"));
}

TEST(PassInstrumentation, BeforeInOrderAfterInReverse) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  std::vector<std::string> log;
  RecordingInstr a("A", log), b("B", log);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.addInstrumentation(&a);
  pm.addInstrumentation(&b);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  // LLVM-style nesting: A wraps B wraps the pass.
  std::vector<std::string> expected = {
      "A:before:mem2reg", "B:before:mem2reg", "B:after:mem2reg",
      "A:after:mem2reg",  "A:before:dce",     "B:before:dce",
      "B:after:dce",      "A:after:dce",
  };
  EXPECT_EQ(log, expected);
}

TEST(PassInstrumentation, AfterHookSeesPopulatedRecordWithIRDelta) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  std::vector<std::string> log;
  RecordingInstr instr("A", log);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.addInstrumentation(&instr);
  pm.add(lir::createMem2RegPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  const lir::PassRunRecord &record = instr.lastRecord;
  EXPECT_EQ(record.passName, "mem2reg");
  EXPECT_TRUE(record.changed);
  EXPECT_GE(record.millis, 0.0);
  // mem2reg deletes the alloca/store/load triple: the module must shrink.
  EXPECT_GT(record.instsBefore, record.instsAfter);
  EXPECT_EQ(record.blocksBefore, record.blocksAfter);
  EXPECT_FALSE(record.stats.empty());
  // The manager's own record matches what the hook saw.
  ASSERT_EQ(pm.records().size(), 1u);
  EXPECT_EQ(pm.records()[0].instsAfter, record.instsAfter);
}

TEST(PassInstrumentation, PrintIRBannersRespectFilters) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  std::ostringstream os;
  lir::PrintIRInstrumentation::Options options;
  options.beforeAll = true;
  options.afterPasses = {"dce"};
  lir::PrintIRInstrumentation printer(options, os);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.addInstrumentation(&printer);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  std::string out = os.str();
  EXPECT_NE(out.find("*** IR before pass 'mem2reg' ***"), std::string::npos);
  EXPECT_NE(out.find("*** IR before pass 'dce' ***"), std::string::npos);
  // after-filter lists only dce:
  EXPECT_EQ(out.find("*** IR after pass 'mem2reg'"), std::string::npos);
  EXPECT_NE(out.find("*** IR after pass 'dce' (changed) ***"),
            std::string::npos);
}

TEST(PassInstrumentation, TimePassesAggregationMatchesRecords) {
  TracerGuard guard(/*enable=*/false, /*timePasses=*/true);
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  lir::PassManager pm(/*verifyEach=*/true);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  pm.add(lir::createDCEPass()); // second run: aggregation must merge rows
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  std::vector<PassTime> times = Tracer::global().passTimes();
  double recordTotal = 0;
  for (const lir::PassRunRecord &record : pm.records())
    recordTotal += record.millis;
  double tableTotal = 0;
  int64_t runs = 0;
  for (const PassTime &time : times) {
    EXPECT_EQ(time.pipeline, "lir");
    tableTotal += time.totalMs;
    runs += time.runs;
  }
  EXPECT_EQ(runs, 3);
  EXPECT_NEAR(tableTotal, recordTotal, 1e-6);
  auto dce = std::find_if(times.begin(), times.end(),
                          [](const PassTime &t) { return t.pass == "dce"; });
  ASSERT_NE(dce, times.end());
  EXPECT_EQ(dce->runs, 2);

  std::string table = Tracer::global().passTimesTable();
  EXPECT_NE(table.find("dce"), std::string::npos);
  EXPECT_NE(table.find("mem2reg"), std::string::npos);
}

TEST(PassInstrumentation, DisabledTimePassesRecordsNothing) {
  TracerGuard guard;
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);
  lir::PassManager pm(/*verifyEach=*/true);
  pm.add(lir::createMem2RegPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();
  EXPECT_TRUE(Tracer::global().passTimes().empty());
  EXPECT_EQ(Tracer::global().passTimesTable(), "");
}

namespace {

/// Records mir hook order, mirroring RecordingInstr.
struct MirRecordingInstr : mir::MPassInstrumentation {
  MirRecordingInstr(std::string tag, std::vector<std::string> &log)
      : tag(std::move(tag)), log(log) {}
  void beforePass(const mir::MPass &pass, mir::ModuleOp) override {
    log.push_back(tag + ":before:" + pass.name());
  }
  void afterPass(const mir::MPass &pass, mir::ModuleOp,
                 const mir::MPassRecord &record) override {
    lastRecord = record;
    log.push_back(tag + ":after:" + pass.name());
  }
  std::string tag;
  std::vector<std::string> &log;
  mir::MPassRecord lastRecord;
};

} // namespace

namespace {

/// The lir pass and verifier spans of the global trace in the order they
/// finished, verifier spans as "verify": the pass manager's schedule.
std::vector<std::string> passAndVerifySchedule() {
  std::vector<std::string> schedule;
  for (const TraceEvent &event : Tracer::global().events()) {
    if (event.category == "lir-pass")
      schedule.push_back(event.name);
    else if (event.category == "lir-verify")
      schedule.push_back("verify");
  }
  return schedule;
}

bool noChange(lir::Module &, lir::PassStats &, DiagnosticEngine &) {
  return false;
}

} // namespace

TEST(PassVerification, VerifiesFirstPassThenOnlyChangedStates) {
  TracerGuard guard(/*enable=*/true);
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  lir::PassManager pm(/*verifyEach=*/true);
  pm.add("noop-first", noChange);
  pm.add("noop-again", noChange);
  pm.add(lir::createMem2RegPass());
  pm.add("noop-after-change", noChange);
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();

  // The first pass is verified even though it changed nothing (the input
  // was never verified); a no-change pass leaves the verified state as it
  // was, so it is not verified again; every changing pass is.
  std::vector<std::string> expected = {
      "noop-first", "verify",            "noop-again", "mem2reg",
      "verify",     "noop-after-change", "dce",        "verify"};
  EXPECT_EQ(passAndVerifySchedule(), expected);
}

TEST(PassVerification, VerifyEachOffRecordsNoVerifierSpans) {
  TracerGuard guard(/*enable=*/true);
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  lir::PassManager pm(/*verifyEach=*/false);
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(*p.module, diags)) << diags.str();
  std::vector<std::string> expected = {"mem2reg", "dce"};
  EXPECT_EQ(passAndVerifySchedule(), expected);
}

TEST(PassVerification, BrokenIRFromAChangingPassStopsThePipeline) {
  TracerGuard guard(/*enable=*/true);
  Parsed p(kPromotableIR);
  ASSERT_NE(p.module, nullptr);

  lir::PassManager pm(/*verifyEach=*/true);
  pm.add("noop-first", noChange);
  pm.add("drop-terminator",
         [](lir::Module &module, lir::PassStats &, DiagnosticEngine &) {
           module.getFunction("f")->entry()->back()->eraseFromParent();
           return true;
         });
  pm.add(lir::createDCEPass());
  DiagnosticEngine diags;
  EXPECT_FALSE(pm.run(*p.module, diags));
  EXPECT_NE(diags.str().find("no terminator"), std::string::npos)
      << diags.str();
  EXPECT_NE(
      diags.str().find("IR verification failed after pass 'drop-terminator'"),
      std::string::npos)
      << diags.str();
  // The pipeline stops at the failed verification: dce never runs.
  std::vector<std::string> expected = {"noop-first", "verify",
                                       "drop-terminator", "verify"};
  EXPECT_EQ(passAndVerifySchedule(), expected);
}

TEST(MirPassInstrumentation, HookOrderAndOpDelta) {
  TracerGuard guard(/*enable=*/false, /*timePasses=*/true);
  mir::MContext ctx;
  mir::OpBuilder builder(ctx);
  mir::OwnedModule module(mir::OpBuilder::createModule());
  builder.setInsertPoint(module.get().body());
  mir::FuncOp fn = builder.createFunc("k", ctx.fnTy({}, {}));
  builder.setInsertPoint(fn.entryBlock());
  builder.createReturn();

  std::vector<std::string> log;
  MirRecordingInstr a("A", log), b("B", log);
  mir::MPassManager pm;
  pm.addInstrumentation(&a);
  pm.addInstrumentation(&b);
  pm.add(mir::createCanonicalizePass());
  DiagnosticEngine diags;
  ASSERT_TRUE(pm.run(module.get(), diags)) << diags.str();

  std::vector<std::string> expected = {
      "A:before:mir-canonicalize", "B:before:mir-canonicalize",
      "B:after:mir-canonicalize", "A:after:mir-canonicalize"};
  EXPECT_EQ(log, expected);

  // Op counting includes the module op: module + func + return >= 3, and
  // canonicalize on this trivial module must not grow it.
  EXPECT_GE(a.lastRecord.opsBefore, 3);
  EXPECT_LE(a.lastRecord.opsAfter, a.lastRecord.opsBefore);
  EXPECT_EQ(a.lastRecord.opsAfter, mir::countOps(module.get()));

  // The mir pipeline feeds the same --time-passes aggregation.
  std::vector<PassTime> times = Tracer::global().passTimes();
  auto it = std::find_if(times.begin(), times.end(), [](const PassTime &t) {
    return t.pipeline == "mir" && t.pass == "mir-canonicalize";
  });
  ASSERT_NE(it, times.end());
  EXPECT_EQ(it->runs, 1);
}

TEST(FlowTelemetry, StageSpansStillPopulateTimings) {
  TracerGuard guard;
  const flow::KernelSpec *spec = flow::findKernel("fir");
  ASSERT_NE(spec, nullptr);
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  flow::FlowResult result = flow::runAdaptorFlow(*spec, config);
  ASSERT_TRUE(result.ok) << result.diagnostics;
  // Table 4 semantics: the three windows and the total are measured even
  // with tracing disabled, and sub-stage spans attribute into them.
  EXPECT_GT(result.timings.mlirOptMs, 0);
  EXPECT_GT(result.timings.bridgeMs, 0);
  EXPECT_GT(result.timings.synthMs, 0);
  EXPECT_GE(result.timings.totalMs, result.timings.mlirOptMs +
                                        result.timings.bridgeMs +
                                        result.timings.synthMs);
  EXPECT_FALSE(result.spans.empty());
  // With tracing off, nothing leaks into the global tracer.
  EXPECT_TRUE(Tracer::global().events().empty());
}

TEST(FlowTelemetry, AdaptorFlowEmitsNestedSpans) {
  TracerGuard guard(/*enable=*/true, /*timePasses=*/true);
  const flow::KernelSpec *spec = flow::findKernel("fir");
  ASSERT_NE(spec, nullptr);
  flow::KernelConfig config;
  config.pipelineII = 1;
  config.partitionFactor = 2;
  flow::FlowResult result = flow::runAdaptorFlow(*spec, config);
  ASSERT_TRUE(result.ok) << result.diagnostics;

  std::vector<TraceEvent> events = Tracer::global().events();
  const TraceEvent *total = findEvent(events, "flow:adaptor:fir");
  const TraceEvent *bridge = findEvent(events, "bridge");
  const TraceEvent *mlirOpt = findEvent(events, "mlirOpt");
  const TraceEvent *synth = findEvent(events, "synth");
  ASSERT_NE(total, nullptr);
  ASSERT_NE(bridge, nullptr);
  ASSERT_NE(mlirOpt, nullptr);
  ASSERT_NE(synth, nullptr);
  EXPECT_EQ(bridge->category, "flow-stage");
  EXPECT_TRUE(contains(*total, *bridge));
  EXPECT_TRUE(contains(*total, *mlirOpt));
  EXPECT_TRUE(contains(*total, *synth));
  // The total span carries kernel/flow args for trace filtering.
  ASSERT_FALSE(total->args.empty());
  EXPECT_EQ(total->args[0].first, "kernel");
  EXPECT_EQ(total->args[0].second, "fir");

  // Adaptor (lir) pass spans nest within the bridge window...
  double lirPassUs = 0;
  for (const TraceEvent &event : events)
    if (event.category == "lir-pass") {
      EXPECT_TRUE(contains(*bridge, event)) << event.name;
      lirPassUs += event.durUs;
    }
  EXPECT_GT(lirPassUs, 0);
  // ...so their summed time fits inside it, and --time-passes agrees with
  // the per-stage window within tolerance.
  EXPECT_LE(lirPassUs / 1000.0, result.timings.bridgeMs * 1.05 + 1.0);
  double lirTableMs = 0;
  for (const PassTime &time : Tracer::global().passTimes())
    if (time.pipeline == "lir")
      lirTableMs += time.totalMs;
  EXPECT_NEAR(lirTableMs, lirPassUs / 1000.0, 0.5);

  // The whole trace renders as valid Chrome JSON.
  std::string error;
  EXPECT_TRUE(json::validate(Tracer::global().chromeTraceJson(), &error))
      << error;
}
