#include "dse/Dse.h"

#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

namespace mha::dse {

namespace {

void appendPoint(std::string &out, const flow::KernelConfig &config,
                 const QoR &qor, const char *indent) {
  out += strfmt(
      "%s{\"ii\": %lld, \"unroll\": %lld, \"partition\": %lld, "
      "\"dataflow\": %s, \"baseline\": %s, \"ok\": %s, \"cosim_ok\": %s, "
      "\"latency\": %lld, \"dsp\": %lld, \"bram\": %lld, \"lut\": %lld, "
      "\"ff\": %lld}",
      indent, static_cast<long long>(config.pipelineII),
      static_cast<long long>(config.unrollFactor),
      static_cast<long long>(config.partitionFactor),
      config.dataflow ? "true" : "false",
      config.applyDirectives ? "false" : "true", qor.ok ? "true" : "false",
      qor.cosimOk ? "true" : "false",
      static_cast<long long>(qor.latencyCycles),
      static_cast<long long>(qor.dsp), static_cast<long long>(qor.bram),
      static_cast<long long>(qor.lut), static_cast<long long>(qor.ff));
}

} // namespace

std::string DseResult::json() const {
  std::string out;
  out += "{\n  \"schema\": \"mha.dse.v3\",\n";
  out += strfmt("  \"kernel\": \"%s\",\n", json::escape(kernel).c_str());
  out += strfmt("  \"budget\": %zu,\n", budget);
  out += strfmt("  \"space_size\": %zu,\n", spaceSize);
  out += strfmt("  \"evaluated\": %zu,\n", evaluated);
  out += strfmt("  \"warm_started\": %zu,\n", warmStarted);
  out += strfmt("  \"synth_runs\": %lld,\n",
                static_cast<long long>(synthRuns));
  out += strfmt("  \"cache_hits\": %lld,\n",
                static_cast<long long>(cacheHits));
  out += strfmt("  \"cache_waits\": %lld,\n",
                static_cast<long long>(cacheWaits));
  out += "  \"objectives\": [";
  for (size_t i = 0; i < objectives.size(); ++i)
    out += strfmt("%s\"%s\"", i ? ", " : "", objectiveName(objectives[i]));
  out += "],\n  \"points\": [";
  for (size_t i = 0; i < visited.size(); ++i) {
    out += i ? ",\n" : "\n";
    appendPoint(out, visited[i].config, visited[i].qor, "    ");
  }
  out += "\n  ],\n  \"pareto\": [";
  for (size_t i = 0; i < pareto.size(); ++i) {
    out += i ? ",\n" : "\n";
    appendPoint(out, pareto[i].config, pareto[i].qor, "    ");
  }
  out += "\n  ]\n}\n";
  return out;
}

DseResult runDse(const DesignSpace &space, Evaluator &evaluator,
                 const DseOptions &options,
                 const std::vector<Objective> &objectives) {
  telemetry::Span span(strfmt("dse:%s", space.spec().name.c_str()), "dse",
                       {{"kernel", space.spec().name}});
  ParetoArchive archive(objectives);

  // Warm start (--resume): re-seed the archive from every completed cache
  // entry whose key parses back to a point of this space. The previous
  // run's frontier survives even if this run's budget never revisits it.
  size_t warmStarted = 0;
  if (options.warmStart) {
    for (const auto &[key, qor] : evaluator.cachedResults()) {
      std::optional<flow::KernelConfig> config = parseConfigKey(key);
      if (!config || !space.contains(*config))
        continue;
      if (archive.insert(*config, qor))
        ++warmStarted;
    }
  }

  std::vector<flow::KernelConfig> configs = space.points();
  if (options.budget != 0 && configs.size() > options.budget)
    configs.resize(options.budget);
  std::vector<QoR> qors = evaluator.evaluateAll(configs);

  DseResult result;
  result.kernel = space.spec().name;
  result.budget = options.budget;
  result.spaceSize = space.size();
  result.evaluated = configs.size();
  result.warmStarted = warmStarted;
  result.objectives = objectives;
  for (size_t i = 0; i < configs.size(); ++i) {
    archive.insert(configs[i], qors[i]);
    result.visited.push_back({configs[i], qors[i]});
  }
  result.synthRuns = evaluator.synthRuns();
  result.cacheHits = evaluator.cacheHits();
  result.cacheWaits = evaluator.cacheWaits();
  result.pareto = archive.entries();
  return result;
}

} // namespace mha::dse
