// cold-grid: a closed loop with one caller over the whole design grid
// (every kernel x II{0,1,2} x unroll{1,2,4} x partition{1,2,4} x both
// flows) with the StageCache off. The seed sets the order of each lap.
// This is where compile-time work happens; a cache change should leave
// it unchanged.
#include "Bench.h"
#include "Layers.h"
#include "Replica.h"

#include "lir/Printer.h"

#include <cstdio>
#include <numeric>

namespace perfbench {

using namespace mha;

namespace {

/// Flow calls between two host-speed calibration samples.
constexpr size_t kCalibrateEvery = 20;

/// One warm-up lap; returns its flow-call time, scaled by the host speed
/// sampled along the way. With `twins`, also records each design's cold
/// report digest and QoR and co-simulates it against the host reference
/// (outside the timing).
double warmUpLap(const std::vector<Design> &grid, Result &result,
                 HostSpeed &speed, std::vector<uint64_t> *twins,
                 std::vector<Qor> *qor) {
  std::vector<std::pair<double, size_t>> calls;
  for (size_t i = 0; i < grid.size(); ++i) {
    if (i % kCalibrateEvery == 0)
      speed.sample();
    Clock::time_point start = Clock::now();
    flow::FlowResult run = runDesign(grid[i], /*useStageCache=*/false);
    calls.push_back({msSince(start), speed.samples()});
    result.attempted(1);
    if (!run.ok) {
      result.fail("flow failed: " + grid[i].key() + ": " + run.diagnostics);
      continue;
    }
    if (!twins)
      continue;
    (*twins)[i] = digest(run.synth.json());
    (*qor)[i] = qorOf(run.synth);
    std::string error;
    result.attempted(1);
    if (!flow::cosimAgainstReference(run, *grid[i].spec, error))
      result.fail("cosim mismatch: " + grid[i].key() + ": " + error);
  }
  speed.sample();
  double scaledMs = 0;
  for (const auto &[ms, at] : calls)
    scaledMs += ms * speed.scaleAt(at);
  return scaledMs;
}

std::vector<size_t> lapOrder(size_t n, Rng &rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t(0));
  rng.shuffle(order);
  return order;
}

} // namespace

void runColdGrid(const Options &options, Result &result) {
  Clock::time_point setupStart = Clock::now();
  const std::vector<Design> grid = gridDesigns();
  double gridMs = msSince(setupStart);
  std::vector<uint64_t> twins(grid.size(), 0);
  std::vector<Qor> qor(grid.size());
  Rng rng(options.seed);

  // Set-up: build the grid and run one warm-up lap, three times; the
  // first lap also takes the cold twins and passes the cosim gate. (The
  // grid itself is built once; its time is counted in every repetition.)
  EndToEnd e2e;
  std::vector<double> setupS;
  for (int rep = 0; rep < (options.trace ? 1 : 3); ++rep) {
    double ms = warmUpLap(grid, result, e2e.speed,
                          rep == 0 ? &twins : nullptr,
                          rep == 0 ? &qor : nullptr);
    setupS.push_back((gridMs + ms) / 1000.0);
  }

  // Raw per-call times, each with the calibration sample count at its
  // start (its place in the host-speed record).
  std::vector<std::vector<std::pair<double, size_t>>> perDesign(grid.size());
  std::vector<double> pooled;
  Ledger ledger;
  TraceSummary trace;
  std::vector<double> tracedMs;
  int64_t requests = 0;
  int laps = 0;
  Clock::time_point start = Clock::now();
  double calibrationMs = 0;
  do {
    for (size_t i : lapOrder(grid.size(), rng)) {
      const Design &design = grid[i];
      if (requests % int64_t(kCalibrateEvery) == 0) {
        Clock::time_point c = Clock::now();
        e2e.speed.sample();
        calibrationMs += msSince(c);
      }
      Clock::time_point t0 = Clock::now();
      flow::FlowResult run = runDesign(design, /*useStageCache=*/false);
      double ms = msSince(t0);
      ++requests;
      result.attempted(1);
      if (!run.ok || digest(run.synth.json()) != twins[i]) {
        result.fail("result differs from its cold twin: " + design.key());
        continue;
      }
      perDesign[i].push_back({ms, e2e.speed.samples()});
      pooled.push_back(ms);
      if (!options.trace)
        continue;
      Clock::time_point t1 = Clock::now();
      ReplicaOutput replica = runReplica(design, false, ledger);
      tracedMs.push_back(msSince(t1));
      trace.blackBoxMs += ms;
      ++trace.designs;
      result.attempted(1);
      if (!replica.ok)
        result.fail("replica failed: " + design.key() + ": " + replica.error);
      else if (!replica.matches(run))
        result.fail("replica output differs from the flow: " + design.key());
    }
    ++laps;
  } while (msSince(start) < options.seconds * 1000.0);
  double wallMs = msSince(start) - calibrationMs;

  std::printf("cold-grid: %zu designs/lap, %d laps, %lld flow calls in "
              "%.0f ms; failed_ratio %lld/%lld\n",
              grid.size(), laps, static_cast<long long>(requests), wallMs,
              static_cast<long long>(result.failures()),
              static_cast<long long>(requests));
  if (options.trace) {
    trace.tracedMedianMs = median(tracedMs);
    trace.untracedMedianMs = median(pooled);
    emitLayerMetrics(result, ledger, trace);
    return;
  }

  e2e.peakRssMb = peakRssMb();
  e2e.setupS = median(setupS);
  // Per-flow percentiles are over designs (one grid lap per flow), each
  // design represented by its median over the laps; every call is scaled
  // by the host speed measured around it.
  double scaledMs = 0;
  std::vector<double> pooledScaled;
  for (size_t i = 0; i < grid.size(); ++i) {
    std::vector<double> laps;
    for (const auto &[ms, at] : perDesign[i]) {
      laps.push_back(ms * e2e.speed.scaleAt(at));
      pooledScaled.push_back(laps.back());
      scaledMs += laps.back();
    }
    (grid[i].flow == flow::FlowKind::Adaptor ? e2e.adaptorMs : e2e.hlscppMs)
        .push_back(median(laps));
    e2e.qor.push_back({&grid[i], qor[i]});
  }
  e2e.requestBlocks.push_back(std::move(pooledScaled));
  // One closed-loop caller: flow calls per second of (scaled) flow time,
  // which is also the highest rate it reached.
  e2e.designsPerS = double(requests) / (scaledMs / 1000.0);
  e2e.maxRps = e2e.designsPerS;
  emitEndToEnd(result, e2e);
}

} // namespace perfbench
