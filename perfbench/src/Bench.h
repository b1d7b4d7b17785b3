// Bench.h - shared pieces of the repository benchmark: command-line
// options, the seeded generator, design points, guarded percentiles, the
// in-memory span ledger and the result printer.
//
// Every workload runs in its own process (see run.py). A run prints a
// human-readable report and, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include "flow/Flow.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// splitmix64: a small, fully specified generator, so one seed gives the
/// same inputs with any standard library.
class Rng {
public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  template <typename T> void shuffle(std::vector<T> &items) {
    for (size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[below(i)]);
  }

private:
  uint64_t state_;
};

/// One compile request: a kernel, its directives, a flow and the
/// synthesis target.
struct Design {
  const mha::flow::KernelSpec *spec = nullptr;
  mha::flow::KernelConfig config;
  mha::flow::FlowKind flow = mha::flow::FlowKind::Adaptor;
  mha::vhls::TargetSpec target;
  /// Synthesis top function (empty: the kernel's name).
  std::string top;

  /// Stable text identity (kernel, knobs, flow, target fields).
  std::string key() const;
  mha::flow::FlowOptions flowOptions(bool useStageCache) const;
};

/// The cold grid: every kernel x II{0,1,2} x unroll{1,2,4} x
/// partition{1,2,4} x both flows, in registry order.
std::vector<Design> gridDesigns();

/// Design points outside the grid (II 3..12, or unroll/partition 8, or
/// dataflow on), both flows, in registry order.
std::vector<Design> offGridDesigns();

/// Runs the design through its black-box flow entry point.
mha::flow::FlowResult runDesign(const Design &design, bool useStageCache);

/// FNV-1a digest of a string (result identity for byte comparison of
/// outputs the run cannot afford to keep whole).
uint64_t digest(const std::string &text);

/// Percentiles by nearest rank. A percentile is reported only when at
/// least ten samples lie beyond it; `ok` is false otherwise and the run
/// fails instead of printing a maximum under a percentile's name.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
  bool ok = false;
};
Percentile percentile(std::vector<double> values, double p);
/// The median over blocks of each block's percentile; guarded per block.
Percentile blockPercentile(const std::vector<std::vector<double>> &blocks,
                           double p);
double median(std::vector<double> values);
double geomean(const std::vector<double> &values);

/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// Host-speed calibration. The hosts this runs on change speed by up to
/// half for seconds to minutes at a time (other tenants), which no
/// estimator inside one run can filter. Workloads interleave a fixed
/// calibration loop (the benchmark's own code: string map inserts, hash
/// map updates, a sort and small allocations, like a compiler's) with
/// their measured work, and report times scaled to a host that runs the
/// loop in kReferenceMs. Program changes move the scaled figures exactly
/// as they move the raw ones; the report prints both.
class HostSpeed {
public:
  static constexpr double kReferenceMs = 0.5;
  /// Runs the calibration loop once and records its time.
  void sample();
  /// Multiply a raw time by this (divide a raw rate by it): the whole run.
  double scale() const;
  /// The same, local to a moment: from the samples around sample index
  /// `at` (the value of samples() when the measured work started).
  double scaleAt(size_t at) const;
  double medianMs() const { return median(samples_); }
  size_t samples() const { return samples_.size(); }

private:
  std::vector<double> samples_;
};

/// The in-memory span ledger of a traced run. Each span is one call into
/// a layer's public function, timed from outside; spans of one design
/// share a request id, and a child span names its parent. Nothing is
/// written until the run ends.
class Ledger {
public:
  struct Span {
    uint32_t request = 0;
    uint16_t name = 0;
    int32_t parent = -1;
    Clock::time_point start, end;
  };

  /// Starts a new request id for the spans that follow.
  void beginRequest() { ++request_; }
  /// Opens a span; returns its index for close().
  int open(const std::string &name);
  void close(int index);
  /// Adds to a named counter (work counts, cache outcomes, sizes).
  void count(const std::string &name, double value) { counters_[name] += value; }

  /// Total milliseconds spent in spans named `name`.
  double totalMs(const std::string &name) const;
  /// Number of spans named `name`.
  int64_t calls(const std::string &name) const;
  /// Sum of the durations of spans without a parent (the top-level layer
  /// calls), for the coverage check against the black-box time.
  double topLevelMs() const;
  double counter(const std::string &name) const;

private:
  uint16_t intern(const std::string &name);
  void aggregate() const;

  std::vector<Span> spans_;
  std::vector<int> openStack_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint16_t> ids_;
  std::map<std::string, double> counters_;
  uint32_t request_ = 0;
  mutable bool aggregated_ = false;
  mutable std::vector<double> totalByName_;
  mutable std::vector<int64_t> callsByName_;
  mutable double topLevel_ = 0;
};

/// RAII span on a ledger; a null ledger records nothing.
class Scope {
public:
  Scope(Ledger *ledger, const std::string &name)
      : ledger_(ledger), index_(ledger ? ledger->open(name) : -1) {}
  ~Scope() { finish(); }
  void finish() {
    if (ledger_ && index_ >= 0)
      ledger_->close(index_);
    index_ = -1;
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Ledger *ledger_;
  int index_;
};

/// Collects the run's metrics and correctness outcome and prints the
/// final JSON line.
class Result {
public:
  void metric(const std::string &name, double value, const std::string &unit);
  /// Records one correctness miss (printed to stderr as it happens).
  void fail(const std::string &what);
  void attempted(int64_t n) { attempted_ += n; }
  int64_t failures() const { return failed_; }
  int64_t attemptedCount() const { return attempted_; }
  /// Prints the report line for a guarded percentile and records it.
  void percentileMetric(const std::string &name, const Percentile &p,
                        const std::string &unit);
  /// Prints the JSON line; returns the process exit code.
  int finish();

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Post-synthesis quality of one design: top-function latency and LUTs.
struct Qor {
  double cycles = 0;
  double lut = 0;
};
Qor qorOf(const mha::vhls::SynthesisReport &report);

/// The end-to-end metrics every workload prints, in one place so the
/// three workloads report the same names. `adaptorMs`/`hlscppMs` are the
/// per-design samples of each flow; `requestBlocks` the per-request
/// latencies behind serve_ms_*, in blocks whose percentiles are reduced
/// by their median; `qor` pairs each design with its result.
struct EndToEnd {
  /// The workload's calibration, for the report line; the samples and
  /// times below arrive already scaled.
  HostSpeed speed;
  double setupS = 0;
  std::vector<double> adaptorMs, hlscppMs;
  std::vector<std::vector<double>> requestBlocks;
  double designsPerS = 0;
  double maxRps = 0;
  double peakRssMb = 0;
  std::vector<std::pair<const Design *, Qor>> qor;
};
void emitEndToEnd(Result &result, const EndToEnd &e2e);

// Workload entry points (one per workload; each fills `result`).
void runColdGrid(const Options &options, Result &result);
void runWarmEdit(const Options &options, Result &result);
void runServeMixed(const Options &options, Result &result);

} // namespace perfbench
