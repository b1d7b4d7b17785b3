#include "dse/Dse.h"

#include "dse/QoREstimation.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cmath>
#include <set>

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
  out += "{\n  \"schema\": \"mha.dse.v2\",\n";
  out += strfmt("  \"kernel\": \"%s\",\n", json::escape(kernel).c_str());
  out += strfmt("  \"strategy\": \"%s\",\n", json::escape(strategy).c_str());
  out += strfmt("  \"budget\": %zu,\n", budget);
  out += strfmt("  \"space_size\": %zu,\n", spaceSize);
  out += strfmt("  \"evaluated\": %zu,\n", evaluated);
  out += strfmt("  \"estimated\": %zu,\n", estimated);
  out += strfmt("  \"warm_started\": %zu,\n", warmStarted);
  out += strfmt("  \"synth_runs\": %lld,\n",
                static_cast<long long>(synthRuns));
  out += strfmt("  \"cache_hits\": %lld,\n",
                static_cast<long long>(cacheHits));
  out += strfmt("  \"cache_waits\": %lld,\n",
                static_cast<long long>(cacheWaits));
  out += strfmt("  \"estimator\": {\"used\": %s, \"probe_runs\": %lld, "
                "\"estimates\": %lld, \"error_samples\": %zu, "
                "\"latency_mean_abs_pct\": %s, \"latency_max_abs_pct\": %s, "
                "\"dsp_mean_abs_pct\": %s, \"bram_mean_abs_pct\": %s, "
                "\"lut_mean_abs_pct\": %s},\n",
                estimator.used ? "true" : "false",
                static_cast<long long>(estimator.probeRuns),
                static_cast<long long>(estimator.estimates),
                estimator.errorSamples,
                json::shortestDouble(estimator.latencyMeanAbsPct).c_str(),
                json::shortestDouble(estimator.latencyMaxAbsPct).c_str(),
                json::shortestDouble(estimator.dspMeanAbsPct).c_str(),
                json::shortestDouble(estimator.bramMeanAbsPct).c_str(),
                json::shortestDouble(estimator.lutMeanAbsPct).c_str());
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

std::optional<DseResult>
runDse(const DesignSpace &space, Evaluator &evaluator,
       std::string_view strategyName, const StrategyOptions &options,
       const std::vector<Objective> &objectives) {
  const std::string name(strategyName);
  telemetry::Span span(strfmt("dse:%s:%s", name.c_str(),
                              space.spec().name.c_str()),
                       "dse",
                       {{"kernel", space.spec().name}, {"strategy", name}});
  ParetoArchive archive(objectives);

  // Warm start (--resume): re-seed the archive from every completed cache
  // entry whose key parses back to a point of this space. The previous
  // run's frontier survives even if this run's strategy never revisits it.
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

  std::optional<StrategyResult> search =
      runStrategy(strategyName, space, evaluator, archive, options);
  if (!search)
    return std::nullopt;

  DseResult result;
  result.kernel = space.spec().name;
  result.strategy = name;
  result.budget = options.budget;
  result.spaceSize = space.size();
  result.evaluated = search->evaluated;
  result.estimated = search->estimated;
  result.warmStarted = warmStarted;
  result.synthRuns = evaluator.synthRuns();
  result.cacheHits = evaluator.cacheHits();
  result.cacheWaits = evaluator.cacheWaits();
  result.objectives = objectives;
  result.visited = std::move(search->visited);
  result.pareto = archive.entries();

  // Estimator accounting. The error statistics compare predictions
  // against this run's synthesized visits; under estimateOnly the visits
  // *are* predictions, so only the usage counters are meaningful there.
  result.estimator.probeRuns = evaluator.probeRuns();
  result.estimator.estimates = evaluator.estimates();
  result.estimator.used =
      result.estimator.probeRuns > 0 || result.estimator.estimates > 0;
  const QoREstimation *model = evaluator.estimator(/*buildIfNeeded=*/false);
  if (model && !options.estimateOnly) {
    double latSum = 0, latMax = 0, dspSum = 0, bramSum = 0, lutSum = 0;
    std::set<std::string> seen;
    auto absPct = [](int64_t predicted, int64_t actual) {
      if (actual == 0)
        return predicted == 0 ? 0.0 : 100.0;
      return 100.0 * std::abs(double(predicted) - double(actual)) /
             double(actual);
    };
    for (const VisitedPoint &point : result.visited) {
      if (!point.qor.ok || !seen.insert(configKey(point.config)).second)
        continue;
      QoR predicted = model->estimate(point.config);
      double latErr = absPct(predicted.latencyCycles,
                             point.qor.latencyCycles);
      latSum += latErr;
      latMax = std::max(latMax, latErr);
      dspSum += absPct(predicted.dsp, point.qor.dsp);
      bramSum += absPct(predicted.bram, point.qor.bram);
      lutSum += absPct(predicted.lut, point.qor.lut);
      ++result.estimator.errorSamples;
    }
    if (result.estimator.errorSamples > 0) {
      double n = double(result.estimator.errorSamples);
      result.estimator.latencyMeanAbsPct = latSum / n;
      result.estimator.latencyMaxAbsPct = latMax;
      result.estimator.dspMeanAbsPct = dspSum / n;
      result.estimator.bramMeanAbsPct = bramSum / n;
      result.estimator.lutMeanAbsPct = lutSum / n;
    }
  }
  return result;
}

} // namespace mha::dse
