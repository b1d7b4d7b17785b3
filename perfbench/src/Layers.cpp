#include "Layers.h"

#include "Replica.h"

#include <cstdio>

namespace perfbench {

using namespace mha;

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double hitRatio(int64_t hits, int64_t misses) {
  return ratio(double(hits), double(hits + misses));
}

} // namespace

const std::vector<LayerMetric> &layerMetrics() {
  static const std::vector<LayerMetric> table = [] {
    std::vector<LayerMetric> t = {
        {"mir.prepare_ms", "ms"},
        {"mir.affine_to_scf_ms", "ms"},
        {"mir.print_ms", "ms"},
        {"mir.parse_ms", "ms"},
        {"lowering.lower_ms", "ms"},
        {"lowering.insts_out", "count"},
    };
    for (const std::string &pass : adaptorPassNames()) {
      t.push_back({"adaptor." + pass + ".ms", "ms"});
      t.push_back({"adaptor." + pass + ".changed_ratio", "ratio"});
    }
    std::vector<LayerMetric> rest = {
        {"adaptor.insts_out", "count"},
        {"lir.verify_ms", "ms"},
        {"lir.verify_calls", "count"},
        {"lir.print_ms", "ms"},
        {"lir.parse_ms", "ms"},
        {"lir.text_bytes", "bytes"},
        {"hlscpp.emit_ms", "ms"},
        {"hlscpp.frontend_ms", "ms"},
        {"hlscpp.cpp_bytes", "bytes"},
        {"vhls.synth_ms", "ms"},
        {"vhls.fsm_states", "count"},
        {"flow.key_ms", "ms"},
        {"flow.lookup_ms", "ms"},
        {"flow.restore_ms", "ms"},
        {"flow.hit_ratio.mlir", "ratio"},
        {"flow.hit_ratio.bridge", "ratio"},
        {"flow.hit_ratio.synth", "ratio"},
        {"flow.evictions", "count"},
        {"flow.resident_bytes", "bytes"},
        {"flow.unattributed_ms", "ms"},
        {"flow.coverage_ratio", "ratio"},
        {"serve.admit_ms", "ms"},
        {"serve.queue_ms", "ms"},
        {"serve.run_ms", "ms"},
        {"serve.tail_ms", "ms"},
        {"serve.parse_us", "us"},
        {"serve.render_us", "us"},
        {"serve.busy_ratio", "ratio"},
        {"serve.backlog_max", "count"},
        {"serve.generator_late_ms", "ms"},
        {"trace.overhead_ratio", "ratio"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return table;
}

void addCacheDelta(flow::StageCache::Counters &acc,
                   const flow::StageCache::Counters &before,
                   const flow::StageCache::Counters &after) {
  acc.mlirHits += after.mlirHits - before.mlirHits;
  acc.mlirMisses += after.mlirMisses - before.mlirMisses;
  acc.bridgeHits += after.bridgeHits - before.bridgeHits;
  acc.bridgeMisses += after.bridgeMisses - before.bridgeMisses;
  acc.synthHits += after.synthHits - before.synthHits;
  acc.synthMisses += after.synthMisses - before.synthMisses;
  acc.mlirEvictions += after.mlirEvictions - before.mlirEvictions;
  acc.bridgeEvictions += after.bridgeEvictions - before.bridgeEvictions;
  acc.synthEvictions += after.synthEvictions - before.synthEvictions;
}

void emitLayerMetrics(Result &result, const Ledger &ledger,
                      const TraceSummary &summary) {
  const double designs = double(summary.designs);
  std::map<std::string, double> values;
  // Time: milliseconds per design driven, so rows add up to the parent.
  auto perDesign = [&](const std::string &metric, const std::string &span) {
    values[metric] = ratio(ledger.totalMs(span), designs);
  };
  for (const char *layer :
       {"mir.prepare", "mir.affine_to_scf", "mir.print", "mir.parse",
        "lowering.lower", "lir.verify", "lir.print", "lir.parse",
        "hlscpp.emit", "hlscpp.frontend", "vhls.synth", "flow.key",
        "flow.lookup", "flow.restore"})
    perDesign(std::string(layer) + "_ms", layer);
  for (const std::string &pass : adaptorPassNames()) {
    perDesign("adaptor." + pass + ".ms", "adaptor." + pass);
    values["adaptor." + pass + ".changed_ratio"] =
        ratio(ledger.counter("adaptor." + pass + ".changed"),
              ledger.counter("adaptor." + pass + ".runs"));
  }

  // Work counts: per call of the layer that produced them.
  double pipelines = double(ledger.calls("adaptor.pipeline"));
  values["lowering.insts_out"] =
      ratio(ledger.counter("lowering.insts_out"),
            double(ledger.calls("lowering.lower")));
  values["adaptor.insts_out"] =
      ratio(ledger.counter("adaptor.insts_out"), pipelines);
  values["lir.verify_calls"] =
      ratio(double(ledger.calls("lir.verify")), pipelines);
  values["lir.text_bytes"] =
      ratio(ledger.counter("lir.text_bytes"),
            double(ledger.calls("lir.print") + ledger.calls("lir.parse")));
  values["hlscpp.cpp_bytes"] = ratio(ledger.counter("hlscpp.cpp_bytes"),
                                     double(ledger.calls("hlscpp.emit")));
  values["vhls.fsm_states"] = ratio(ledger.counter("vhls.fsm_states"), designs);

  const auto &c = summary.cacheDelta;
  values["flow.hit_ratio.mlir"] = hitRatio(c.mlirHits, c.mlirMisses);
  values["flow.hit_ratio.bridge"] = hitRatio(c.bridgeHits, c.bridgeMisses);
  values["flow.hit_ratio.synth"] = hitRatio(c.synthHits, c.synthMisses);
  values["flow.evictions"] = double(c.evictions());
  values["flow.resident_bytes"] = double(summary.residentBytes);

  double layersMs = ledger.topLevelMs();
  values["flow.unattributed_ms"] =
      ratio(summary.blackBoxMs - layersMs, designs);
  values["flow.coverage_ratio"] = ratio(layersMs, summary.blackBoxMs);
  values["trace.overhead_ratio"] =
      ratio(summary.tracedMedianMs, summary.untracedMedianMs);
  for (const auto &[name, value] : summary.serve)
    values[name] = value;

  std::printf("per-layer (traced, %lld designs; ms are per design):\n",
              static_cast<long long>(summary.designs));
  for (const LayerMetric &m : layerMetrics())
    result.metric(m.name, values[m.name], m.unit);
  if (summary.blackBoxMs > 0)
    std::printf("coverage: layer spans cover %.1f%% of black-box flow time "
                "(target >= 95%%); tracing overhead %.3fx\n",
                100.0 * values["flow.coverage_ratio"],
                values["trace.overhead_ratio"]);
}

} // namespace perfbench
