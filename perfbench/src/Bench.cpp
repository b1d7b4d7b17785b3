#include "Bench.h"

#include "support/Hash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include <sys/resource.h>

namespace perfbench {

using namespace mha;

std::string Design::key() const {
  std::string text = strfmt(
      "%s ii=%lld u=%lld p=%lld df=%d %s clk=%.4f ports=%d", spec->name.c_str(),
      static_cast<long long>(config.pipelineII),
      static_cast<long long>(config.unrollFactor),
      static_cast<long long>(config.partitionFactor), config.dataflow ? 1 : 0,
      flow::flowKindName(flow), target.clockPeriodNs, target.memPortsPerBank);
  for (const auto &[fu, limit] : target.fuLimits)
    text += strfmt(" %s=%d", fu.c_str(), limit);
  return text;
}

flow::FlowOptions Design::flowOptions(bool useStageCache) const {
  flow::FlowOptions options;
  options.useStageCache = useStageCache;
  options.synthesis.target = target;
  options.synthesis.topFunction = top;
  return options;
}

namespace {

Design makeDesign(const flow::KernelSpec &spec, int64_t ii, int64_t unroll,
                  int64_t partition, bool dataflow, flow::FlowKind kind) {
  Design design;
  design.spec = &spec;
  design.config.pipelineII = ii;
  design.config.unrollFactor = unroll;
  design.config.partitionFactor = partition;
  design.config.dataflow = dataflow;
  design.flow = kind;
  return design;
}

bool inGrid(int64_t ii, int64_t unroll, int64_t partition, bool dataflow) {
  return ii <= 2 && unroll <= 4 && partition <= 4 && !dataflow;
}

} // namespace

std::vector<Design> gridDesigns() {
  std::vector<Design> designs;
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (int64_t ii : {0, 1, 2})
      for (int64_t unroll : {1, 2, 4})
        for (int64_t partition : {1, 2, 4})
          for (flow::FlowKind kind :
               {flow::FlowKind::Adaptor, flow::FlowKind::HlsCpp})
            designs.push_back(
                makeDesign(spec, ii, unroll, partition, false, kind));
  return designs;
}

std::vector<Design> offGridDesigns() {
  std::vector<Design> designs;
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (int64_t ii = 0; ii <= 12; ++ii)
      for (int64_t unroll : {1, 2, 4, 8})
        for (int64_t partition : {1, 2, 4, 8})
          for (bool dataflow : {false, true}) {
            if (inGrid(ii, unroll, partition, dataflow))
              continue;
            for (flow::FlowKind kind :
                 {flow::FlowKind::Adaptor, flow::FlowKind::HlsCpp})
              designs.push_back(
                  makeDesign(spec, ii, unroll, partition, dataflow, kind));
          }
  return designs;
}

flow::FlowResult runDesign(const Design &design, bool useStageCache) {
  flow::FlowOptions options = design.flowOptions(useStageCache);
  return design.flow == flow::FlowKind::Adaptor
             ? flow::runAdaptorFlow(*design.spec, design.config, options)
             : flow::runHlsCppFlow(*design.spec, design.config, options);
}

uint64_t digest(const std::string &text) {
  return HashBuilder().str(text).get();
}

Percentile percentile(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty())
    return out;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * double(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  out.ok = out.beyond >= 10;
  return out;
}

Percentile blockPercentile(const std::vector<std::vector<double>> &blocks,
                           double p) {
  Percentile out;
  out.ok = !blocks.empty();
  std::vector<double> values;
  for (const std::vector<double> &block : blocks) {
    Percentile one = percentile(block, p);
    values.push_back(one.value);
    out.samples += one.samples;
    out.beyond = values.size() == 1 ? one.beyond
                                    : std::min(out.beyond, one.beyond);
    out.ok = out.ok && one.ok;
  }
  out.value = median(values);
  return out;
}

double median(std::vector<double> values) {
  if (values.empty())
    return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double> &values) {
  if (values.empty())
    return 0;
  double logSum = 0;
  for (double v : values)
    logSum += std::log(v);
  return std::exp(logSum / double(values.size()));
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

// --- HostSpeed ----------------------------------------------------------

namespace {
volatile uint64_t calibrationSink;
} // namespace

void HostSpeed::sample() {
  Clock::time_point start = Clock::now();
  uint64_t x = 0x1234567;
  std::map<std::string, int> names;
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<uint64_t> values;
  std::vector<std::unique_ptr<std::string>> objects;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    names[std::to_string(x % 5000)] += i;
    table[x % 3000] ^= x;
    values.push_back(x >> 7);
    objects.push_back(std::make_unique<std::string>(40, char('a' + i % 26)));
  }
  std::sort(values.begin(), values.end());
  uint64_t sum = values[values.size() / 2];
  for (const auto &[name, count] : names)
    sum += name.size() * uint64_t(count);
  for (const auto &[key, value] : table)
    sum ^= value;
  for (const auto &object : objects)
    sum += object->size();
  calibrationSink = sum;
  samples_.push_back(msSince(start));
}

double HostSpeed::scale() const {
  double ms = medianMs();
  return ms > 0 ? kReferenceMs / ms : 1.0;
}

double HostSpeed::scaleAt(size_t at) const {
  constexpr size_t kWindow = 4; // samples on each side
  size_t lo = at > kWindow ? at - kWindow : 0;
  size_t hi = std::min(samples_.size(), at + kWindow);
  if (lo >= hi)
    return scale();
  double ms = median(std::vector<double>(samples_.begin() + long(lo),
                                         samples_.begin() + long(hi)));
  return ms > 0 ? kReferenceMs / ms : 1.0;
}

// --- Ledger -------------------------------------------------------------

uint16_t Ledger::intern(const std::string &name) {
  auto it = ids_.find(name);
  if (it != ids_.end())
    return it->second;
  uint16_t id = static_cast<uint16_t>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

int Ledger::open(const std::string &name) {
  Span span;
  span.request = request_;
  span.name = intern(name);
  span.parent = openStack_.empty() ? -1 : openStack_.back();
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(span);
  int index = static_cast<int>(spans_.size() - 1);
  openStack_.push_back(index);
  aggregated_ = false;
  return index;
}

void Ledger::close(int index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
  if (!openStack_.empty() && openStack_.back() == index)
    openStack_.pop_back();
}

void Ledger::aggregate() const {
  if (aggregated_)
    return;
  totalByName_.assign(names_.size(), 0);
  callsByName_.assign(names_.size(), 0);
  topLevel_ = 0;
  for (const Span &span : spans_) {
    double ms = msBetween(span.start, span.end);
    totalByName_[span.name] += ms;
    callsByName_[span.name] += 1;
    if (span.parent < 0)
      topLevel_ += ms;
  }
  aggregated_ = true;
}

double Ledger::totalMs(const std::string &name) const {
  auto it = ids_.find(name);
  if (it == ids_.end())
    return 0;
  aggregate();
  return totalByName_[it->second];
}

int64_t Ledger::calls(const std::string &name) const {
  auto it = ids_.find(name);
  if (it == ids_.end())
    return 0;
  aggregate();
  return callsByName_[it->second];
}

double Ledger::topLevelMs() const {
  aggregate();
  return topLevel_;
}

double Ledger::counter(const std::string &name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

// --- Result -------------------------------------------------------------

void Result::metric(const std::string &name, double value,
                    const std::string &unit) {
  std::printf("  %-42s %14.6g %s\n", name.c_str(), value, unit.c_str());
  metrics_.push_back({name, {value, unit}});
}

void Result::percentileMetric(const std::string &name, const Percentile &p,
                              const std::string &unit) {
  if (!p.ok) {
    fail(strfmt("%s: %zu samples leave %zu beyond the percentile (need 10)",
                name.c_str(), p.samples, p.beyond));
    return;
  }
  std::printf("  %-42s %14.6g %-6s (n=%zu, %zu beyond)\n", name.c_str(),
              p.value, unit.c_str(), p.samples, p.beyond);
  metrics_.push_back({name, {p.value, unit}});
}

void Result::fail(const std::string &what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

int Result::finish() {
  std::string json = strfmt("{\"correct\": %s, \"attempted\": %lld, "
                            "\"failed\": %lld, \"metrics\": {",
                            failed_ == 0 ? "true" : "false",
                            static_cast<long long>(attempted_),
                            static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto &[name, valueUnit] = metrics_[i];
    json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i ? ", " : "", name.c_str(), valueUnit.first,
                   valueUnit.second.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed_ == 0 && attempted_ > 0 ? 0 : 1;
}

// --- End-to-end report --------------------------------------------------

Qor qorOf(const vhls::SynthesisReport &report) {
  Qor qor;
  if (const vhls::FunctionReport *top = report.top()) {
    qor.cycles = double(top->latencyCycles);
    qor.lut = double(top->resources.lut);
  }
  return qor;
}

void emitEndToEnd(Result &result, const EndToEnd &e2e) {
  std::printf("host speed: calibration loop median %.4f ms over %zu samples "
              "(reference %.1f ms, run scale %.4f); times are scaled to the "
              "reference\n",
              e2e.speed.medianMs(), e2e.speed.samples(),
              HostSpeed::kReferenceMs, e2e.speed.scale());
  std::printf("end-to-end:\n");
  result.metric("setup_s", e2e.setupS, "s");
  result.percentileMetric("adaptor_ms_p50", percentile(e2e.adaptorMs, 0.5),
                          "ms");
  result.percentileMetric("adaptor_ms_p90", percentile(e2e.adaptorMs, 0.9),
                          "ms");
  result.percentileMetric("hlscpp_ms_p50", percentile(e2e.hlscppMs, 0.5),
                          "ms");
  result.percentileMetric("hlscpp_ms_p90", percentile(e2e.hlscppMs, 0.9),
                          "ms");
  result.metric("designs_per_s", e2e.designsPerS, "1/s");
  result.metric("peak_rss_mb", e2e.peakRssMb, "MiB");
  std::vector<double> cycles[2], luts[2];
  for (const auto &[design, qor] : e2e.qor) {
    int side = design->flow == flow::FlowKind::Adaptor ? 0 : 1;
    if (qor.cycles <= 0 || qor.lut <= 0) {
      result.fail("non-positive QoR for " + design->key());
      continue;
    }
    cycles[side].push_back(qor.cycles);
    luts[side].push_back(qor.lut);
  }
  result.metric("adaptor_cycles_geomean", geomean(cycles[0]), "cycles");
  result.metric("hlscpp_cycles_geomean", geomean(cycles[1]), "cycles");
  result.metric("adaptor_lut_geomean", geomean(luts[0]), "LUT");
  result.metric("hlscpp_lut_geomean", geomean(luts[1]), "LUT");
  result.percentileMetric("serve_ms_p50",
                          blockPercentile(e2e.requestBlocks, 0.5), "ms");
  result.percentileMetric("serve_ms_p99",
                          blockPercentile(e2e.requestBlocks, 0.99), "ms");
  result.metric("serve_max_rps", e2e.maxRps, "1/s");
}

} // namespace perfbench
