// StageCache.h - content-addressed incremental-recompilation cache.
//
// The flow executor (Flow.cpp) hashes each stage's *input* (the printed IR
// it consumes plus the options that shape it) into a 64-bit key and looks
// up the stage's *output* before running it. Keys are content-addressed,
// so the cache composes transitively: an edit to one kernel invalidates
// exactly that kernel's chain from the edited stage downward, and two
// kernels that lower to identical IR share the downstream entries.
//
// One map per Stage; an Entry is a variant whose alternative index is its
// stage:
//   Mlir    key = H(kernel, config, MLIR-level options)
//           value = printed mir module after the shared MLIR preparation
//   Bridge  key = H(mir text, bridge options)   [per flow kind]
//           value = BridgeEntry: printed lir module (+ adaptor stats /
//           emitted C++, and the leg's diagnostics, replayed on a hit).
//           A hit installs the text, not a module: the flow's
//           FinalModule parses it on first use (a synth miss or a reader
//           such as cosim), so a full warm hit builds no IR.
//   Synth   key = H(lir text, synthesis options)
//           value = SynthEntry: the SynthesisReport (+ the leg's
//           diagnostics, replayed on a hit).
//   Graph   key = H(lir text, applyUnrollDirectives)
//           value = the module's vhls::ScheduleGraph, shared and
//           immutable: a hit copies a pointer. Consulted only on a synth
//           miss, so a TargetSpec edit reschedules the cached graph with
//           no parse and no unroll while a full warm hit never touches it.
//           Stored only after a bridge hit (a design synthesized again).
// Everything per stage inside the cache (map, LRU list, counters,
// statistics, metrics) is an array indexed by Stage. The typed
// lookupX/storeX wrappers and the named Counters fields are the stable
// API for code outside the flow executor.
//
// The cache is process-global and thread-safe: BatchRunner jobs, the DSE
// evaluator, the fuzz oracle and mha-serve sessions all share it through
// FlowOptions::useStageCache (off by default — a cold run's behaviour and
// output are bit-identical with the flag off). Only successful stage runs
// are stored; failures always re-execute so diagnostics are regenerated.
//
// Residency is bounded two ways: a per-stage entry-count backstop and an
// optional process-wide byte cap (setLimitBytes, `--stage-cache-limit` on
// mha-serve). Both evict least-recently-used entries — every lookup hit
// and store refreshes its entry's recency, and the byte cap always evicts
// the globally coldest entry across the stage maps, so a resident daemon
// serving millions of requests converges on its hot working set instead
// of growing without bound.
//
// Hit/miss/eviction counts land in the "flow.cache" statistic group
// (--stats), the mha_stage_cache_* metrics, and counters().
#pragma once

#include "lir/PassManager.h"
#include "support/Diagnostics.h"
#include "vhls/Vhls.h"

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace mha::metrics {
class Histogram;
}

namespace mha::flow {

class StageCache {
public:
  /// The shared process-wide instance every flow uses.
  static StageCache &global();

  enum class Stage { Mlir, Bridge, Synth, Graph };

  /// Bridge-stage output: the flow-specific leg from mir text to HLS-ready
  /// lir text. The adaptor flow fills `adaptorStats`; the C++ flow fills
  /// `hlsCpp` (the emitted source, part of its FlowResult contract).
  /// `diagnostics` are the ones the leg reported, replayed on a hit.
  struct BridgeEntry {
    std::string lirText;
    std::string hlsCpp;
    lir::PassStats adaptorStats;
    std::vector<Diagnostic> diagnostics;
  };

  /// Synth-stage output: the report plus the diagnostics the synthesis
  /// leg reported (elaboration's acceptance-check warnings), replayed on
  /// a hit. Grid designs report none, so a hit's replay is free there.
  struct SynthEntry {
    vhls::SynthesisReport report;
    std::vector<Diagnostic> diagnostics;
  };

  using GraphPtr = std::shared_ptr<const vhls::ScheduleGraph>;

  /// One cached stage output; `index()` is its Stage.
  using Entry = std::variant<std::string, BridgeEntry, SynthEntry, GraphPtr>;

  /// Structural hit/miss/bytes snapshot (mirrors the "flow.cache"
  /// statistics and the mha_stage_cache_* metrics). Byte totals count the
  /// payloads currently resident per stage map: strings at their length,
  /// report structures at their structural size (fixed fields via sizeof
  /// plus owned string/vector payloads; a graph at the size of its
  /// arrays).
  struct Counters {
    int64_t mlirHits = 0, mlirMisses = 0;
    int64_t bridgeHits = 0, bridgeMisses = 0;
    int64_t synthHits = 0, synthMisses = 0;
    int64_t graphHits = 0, graphMisses = 0;
    int64_t mlirBytes = 0, bridgeBytes = 0, synthBytes = 0, graphBytes = 0;
    int64_t mlirEvictions = 0, bridgeEvictions = 0, synthEvictions = 0,
            graphEvictions = 0;
    int64_t hits() const {
      return mlirHits + bridgeHits + synthHits + graphHits;
    }
    int64_t misses() const {
      return mlirMisses + bridgeMisses + synthMisses + graphMisses;
    }
    int64_t bytes() const {
      return mlirBytes + bridgeBytes + synthBytes + graphBytes;
    }
    int64_t evictions() const {
      return mlirEvictions + bridgeEvictions + synthEvictions + graphEvictions;
    }
    /// hits / (hits + misses), 0 when no lookups happened.
    double hitRate() const {
      int64_t total = hits() + misses();
      return total ? double(hits()) / double(total) : 0.0;
    }
  };

  /// Copies the `stage` entry under `key` into `out` and refreshes its
  /// recency; false (a counted miss) when there is none.
  bool lookup(Stage stage, uint64_t key, Entry &out);
  /// Stores `value` under `key` in the map of its stage (`value.index()`).
  void store(uint64_t key, Entry value);

  bool lookupMlir(uint64_t key, std::string &mirText) {
    return lookupAs(Stage::Mlir, key, mirText);
  }
  void storeMlir(uint64_t key, std::string mirText) {
    store(key, std::move(mirText));
  }
  bool lookupBridge(uint64_t key, BridgeEntry &entry) {
    return lookupAs(Stage::Bridge, key, entry);
  }
  /// The report of a synth entry (its diagnostics are dropped).
  bool lookupSynth(uint64_t key, vhls::SynthesisReport &report) {
    SynthEntry entry;
    if (!lookupAs(Stage::Synth, key, entry))
      return false;
    report = std::move(entry.report);
    return true;
  }

  /// Synth-stage key: the printed pre-synthesis lir module plus every
  /// synthesis option (field by field — extend when SynthesisOptions
  /// grows). Shared so the flows and the fuzz oracle address the same
  /// entries for identical modules.
  static uint64_t synthKey(const std::string &lirText,
                           const vhls::SynthesisOptions &options);

  /// `mha_stage_cache_key_us`: the time of every stage-key computation.
  static metrics::Histogram &keyHistogram();

  /// Caps total resident payload bytes across the stage maps (0 =
  /// unbounded, the default). When a store pushes the total past the cap,
  /// least-recently-used entries are evicted — globally, coldest first,
  /// regardless of stage — until the total fits again. An entry larger
  /// than the whole cap is evicted immediately after landing, so the
  /// resident-bytes gauges never exceed the cap after any store.
  void setLimitBytes(int64_t limitBytes);
  int64_t limitBytes() const;

  Counters counters() const;

  /// Drops every entry and zeroes the structural counters (tests; the
  /// "flow.cache" statistics follow the global telemetry reset instead).
  void clear();

private:
  StageCache() = default;

  template <typename T> bool lookupAs(Stage stage, uint64_t key, T &out) {
    Entry entry;
    if (!lookup(stage, key, entry))
      return false;
    out = std::get<T>(std::move(entry));
    return true;
  }

  struct Impl;
  Impl &impl() const;
};

} // namespace mha::flow
