// warm-edit: a closed loop with one caller and the StageCache on. Set-up
// primes the cache with the whole cold grid for both flows; the measured
// stream then mixes, in seeded order,
//   70% exact repeats of grid designs (every stage hits),
//   22% synth-only edits: a grid design with a changed vhls::TargetSpec
//       (clock period, and sometimes a functional-unit limit), so the
//       bridge hits and synthesis misses,
//    8% new design points outside the grid, which miss and then store.
// This is the incremental-recompile path: key hashing, lookup, bridge
// restore (an lir parse) and synth-only re-runs.
#include "Bench.h"
#include "Layers.h"
#include "Replica.h"

#include "flow/StageCache.h"
#include "lir/Printer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

using namespace mha;

namespace {

enum class Kind { Repeat, SynthEdit, NewPoint };

/// Requests between two host-speed calibration samples.
constexpr size_t kCalibrateEvery = 50;
/// Stream length per second asked for (about the reference host's rate).
constexpr double kRequestsPerSecond = 2000;

/// Changes synthesis-only fields of `target`: the clock period (one of a
/// thousand values between 5 and 15 ns, never the 10 ns default) and, for
/// half of the edits, one functional-unit limit.
void editTarget(vhls::TargetSpec &target, Rng &rng) {
  uint64_t step = 1 + rng.below(999);
  if (step >= 500)
    ++step; // skip 10.0 ns, the grid's own clock
  target.clockPeriodNs = 5.0 + 0.01 * double(step);
  if (rng.below(2)) {
    static const char *const units[] = {"fadd", "fmul", "imul", "fdiv"};
    target.fuLimits[units[rng.below(4)]] = int(1 + rng.below(3));
  }
}

} // namespace

void runWarmEdit(const Options &options, Result &result) {
  const std::vector<Design> grid = gridDesigns();
  const std::vector<Design> offGrid = offGridDesigns();
  flow::StageCache &cache = flow::StageCache::global();

  // Set-up: prime an empty cache with the whole grid, three times.
  EndToEnd e2e;
  std::vector<double> setupS;
  std::vector<Qor> qor(grid.size());
  for (int rep = 0; rep < (options.trace ? 1 : 3); ++rep) {
    std::vector<std::pair<double, size_t>> calls;
    Clock::time_point start = Clock::now();
    cache.clear();
    double clearMs = msSince(start);
    for (size_t i = 0; i < grid.size(); ++i) {
      if (i % kCalibrateEvery == 0)
        e2e.speed.sample();
      Clock::time_point t = Clock::now();
      flow::FlowResult run = runDesign(grid[i], /*useStageCache=*/true);
      calls.push_back({msSince(t), e2e.speed.samples()});
      result.attempted(1);
      if (!run.ok)
        result.fail("priming failed: " + grid[i].key());
      qor[i] = qorOf(run.synth);
    }
    e2e.speed.sample();
    double ms = clearMs;
    for (const auto &[raw, at] : calls)
      ms += raw * e2e.speed.scaleAt(at);
    setupS.push_back(ms / 1000.0);
  }

  // The stream: seeded decks of 100 requests, 50 per flow, each flow's
  // half holding 35 repeats, 11 synth-only edits and 4 new points. Exact
  // shares keep the p90 inside the edits rather than on the boundary
  // between two kinds. Its length is fixed by --seconds, so one seed
  // gives the same work on any host.
  Rng rng(options.seed);
  std::vector<Design> newPoints[2];
  for (const Design &design : offGrid)
    newPoints[design.flow == flow::FlowKind::Adaptor ? 0 : 1].push_back(
        design);
  size_t nextNew[2] = {0, 0};
  std::vector<std::pair<Kind, int>> deck;
  for (int side = 0; side < 2; ++side) {
    rng.shuffle(newPoints[side]);
    deck.insert(deck.end(), 35, {Kind::Repeat, side});
    deck.insert(deck.end(), 11, {Kind::SynthEdit, side});
    deck.insert(deck.end(), 4, {Kind::NewPoint, side});
  }
  const int64_t total =
      std::max<int64_t>(1, int64_t(options.seconds * kRequestsPerSecond /
                                   double(deck.size()))) *
      int64_t(deck.size());
  std::vector<std::pair<Kind, int>> dealt;
  auto nextRequest = [&](Kind &kind) {
    if (dealt.empty()) {
      rng.shuffle(deck);
      dealt.assign(deck.rbegin(), deck.rend());
    }
    auto [k, side] = dealt.back();
    dealt.pop_back();
    kind = k;
    // Grid designs alternate adaptor, hls-c++ (gridDesigns order).
    const size_t perFlow = grid.size() / 2;
    if (kind == Kind::NewPoint) {
      // Drawn without replacement; past the pool's end the points recur.
      std::vector<Design> &pool = newPoints[side];
      return pool[nextNew[side]++ % pool.size()];
    }
    Design design = grid[2 * rng.below(perFlow) + size_t(side)];
    if (kind == Kind::SynthEdit)
      editTarget(design.target, rng);
    return design;
  };

  struct Seen {
    Design design;
    uint64_t digest = 0;
  };
  std::unordered_map<std::string, Seen> seen;
  // Raw times, each with the calibration sample count at its start.
  std::vector<std::pair<double, size_t>> adaptorMs, hlscppMs;
  std::vector<double> pooled, tracedMs;
  int64_t kinds[3] = {0, 0, 0};
  Ledger ledger;
  TraceSummary trace;
  int64_t requests = 0;
  double calibrationMs = 0;
  Clock::time_point start = Clock::now();
  do {
    if (requests % int64_t(kCalibrateEvery) == 0) {
      Clock::time_point c = Clock::now();
      e2e.speed.sample();
      calibrationMs += msSince(c);
    }
    Kind kind;
    Design design = nextRequest(kind);
    ++kinds[int(kind)];
    ReplicaOutput replica;
    if (options.trace) {
      // The replica goes first and never stores, so the flow after it
      // meets the same cache state.
      Clock::time_point t = Clock::now();
      replica = runReplica(design, true, ledger);
      tracedMs.push_back(msSince(t));
    }
    flow::StageCache::Counters before = cache.counters();
    Clock::time_point t0 = Clock::now();
    flow::FlowResult run = runDesign(design, /*useStageCache=*/true);
    double ms = msSince(t0);
    addCacheDelta(trace.cacheDelta, before, cache.counters());
    ++requests;
    result.attempted(1);
    if (!run.ok) {
      result.fail("flow failed: " + design.key() + ": " + run.diagnostics);
      continue;
    }
    uint64_t d = digest(run.synth.json());
    auto [it, inserted] = seen.try_emplace(design.key(), Seen{design, d});
    if (!inserted && it->second.digest != d)
      result.fail("repeat differs from its first result: " + design.key());
    (design.flow == flow::FlowKind::Adaptor ? adaptorMs : hlscppMs)
        .push_back({ms, e2e.speed.samples()});
    pooled.push_back(ms);
    if (!options.trace)
      continue;
    trace.blackBoxMs += ms;
    ++trace.designs;
    result.attempted(1);
    if (!replica.ok)
      result.fail("replica failed: " + design.key() + ": " + replica.error);
    else if (!replica.matches(run))
      result.fail("replica output differs from the flow: " + design.key());
    else if ((kind == Kind::Repeat &&
              !(replica.mlirHit && replica.bridgeHit && replica.synthHit)) ||
             (kind == Kind::SynthEdit &&
              !(replica.mlirHit && replica.bridgeHit)))
      result.fail("rebuilt stage key missed an entry the flow stored: " +
                  design.key());
  } while (requests < total);
  double wallMs = msSince(start) - calibrationMs;
  double rss = peakRssMb();

  // Every distinct request against its cold twin (StageCache off).
  for (const auto &[key, entry] : seen) {
    flow::FlowResult cold = runDesign(entry.design, /*useStageCache=*/false);
    result.attempted(1);
    if (!cold.ok || digest(cold.synth.json()) != entry.digest)
      result.fail("warm result differs from its cold twin: " + key);
  }

  std::printf("warm-edit: %lld requests in %.0f ms (%lld repeats, %lld "
              "synth-only edits, %lld new points; %zu distinct); "
              "failed_ratio %lld/%lld\n",
              static_cast<long long>(requests), wallMs,
              static_cast<long long>(kinds[0]),
              static_cast<long long>(kinds[1]),
              static_cast<long long>(kinds[2]), seen.size(),
              static_cast<long long>(result.failures()),
              static_cast<long long>(requests));
  if (options.trace) {
    trace.tracedMedianMs = median(tracedMs);
    trace.untracedMedianMs = median(pooled);
    trace.residentBytes = cache.counters().bytes();
    // The serve layer rides on this workload's traced run: a short
    // serve-mixed main phase (its own primed cache and daemon).
    trace.serve = measureServeLayer(options, result);
    emitLayerMetrics(result, ledger, trace);
    return;
  }

  e2e.setupS = median(setupS);
  e2e.peakRssMb = rss;
  double scaledMs = 0;
  std::vector<double> pooledScaled;
  for (auto [samples, out] : {std::pair{&adaptorMs, &e2e.adaptorMs},
                              std::pair{&hlscppMs, &e2e.hlscppMs}})
    for (const auto &[ms, at] : *samples) {
      out->push_back(ms * e2e.speed.scaleAt(at));
      pooledScaled.push_back(out->back());
      scaledMs += out->back();
    }
  e2e.requestBlocks.push_back(std::move(pooledScaled));
  // One closed-loop caller: requests per second of (scaled) flow time.
  e2e.designsPerS = double(requests) / (scaledMs / 1000.0);
  e2e.maxRps = e2e.designsPerS;
  for (size_t i = 0; i < grid.size(); ++i)
    e2e.qor.push_back({&grid[i], qor[i]});
  emitEndToEnd(result, e2e);
}

} // namespace perfbench
