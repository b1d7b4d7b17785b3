// ObservabilityCli.h - shared observability flags for the mha-* tools.
//
// Every tool accepts the same five flags:
//
//   --metrics-out=<path>       JSON metrics snapshot (schema mha.metrics.v1)
//                              written at exit, or periodically with
//                              --metrics-interval
//   --metrics-interval=<ms>    rewrite --metrics-out every <ms> from a
//                              background exporter thread (requires
//                              --metrics-out)
//   --metrics-prom=<path>      Prometheus text-format dump written at exit
//   --event-log=<path>         structured JSONL event log (one JSON object
//                              per line, span-correlated)
//   --event-log-level=<level>  debug|info|warn|error (default info)
//
// parseFlag() recognizes and strictly validates the flags (malformed
// values are reported on stderr and refused, through the same
// parseNumericFlag every tool uses for its numeric flags); Session drives
// the lifecycle: begin() before the work (enables metric recording, opens
// the log, starts the exporter), finish() after it (final snapshot
// writes; failures make the tool exit non-zero). With none of the flags
// given, both are no-ops and the tool's output is byte-identical to a
// build without this layer.
#pragma once

#include "support/EventLog.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <optional>
#include <string>

namespace mha::obscli {

struct Options {
  std::string metricsJsonPath;
  std::string metricsPromPath;
  int64_t intervalMs = 0; // 0 = snapshot at exit only
  std::string eventLogPath;
  elog::Level eventLogLevel = elog::Level::Info;

  bool metricsRequested() const {
    return !metricsJsonPath.empty() || !metricsPromPath.empty();
  }
};

/// Strictly parses the value of `--flag=value` into [min, max]. Unlike
/// atoi, rejects non-numeric input and out-of-range values (with a
/// diagnostic on stderr) instead of silently producing 0.
inline bool parseNumericFlag(const std::string &arg, size_t prefixLen,
                             const char *flag, int64_t min, int64_t max,
                             int64_t &out) {
  std::string value = arg.substr(prefixLen);
  std::optional<int64_t> parsed = parseInt(value);
  if (!parsed || *parsed < min || *parsed > max) {
    std::fprintf(stderr,
                 "invalid value '%s' for %s (expected integer in "
                 "[%lld, %lld])\n",
                 value.c_str(), flag, static_cast<long long>(min),
                 static_cast<long long>(max));
    return false;
  }
  out = *parsed;
  return true;
}

/// Returns true when `arg` is one of the observability flags (consumed
/// into `opts`). A recognized flag with a malformed value prints a
/// diagnostic and sets `ok = false` — the caller returns its usage error.
inline bool parseFlag(const std::string &arg, Options &opts, bool &ok) {
  ok = true;
  if (startsWith(arg, "--metrics-out=")) {
    opts.metricsJsonPath = arg.substr(14);
    if (opts.metricsJsonPath.empty()) {
      std::fprintf(stderr, "--metrics-out requires a path\n");
      ok = false;
    }
    return true;
  }
  if (startsWith(arg, "--metrics-prom=")) {
    opts.metricsPromPath = arg.substr(15);
    if (opts.metricsPromPath.empty()) {
      std::fprintf(stderr, "--metrics-prom requires a path\n");
      ok = false;
    }
    return true;
  }
  if (startsWith(arg, "--metrics-interval=")) {
    ok = parseNumericFlag(arg, 19, "--metrics-interval", 1, 86400000,
                          opts.intervalMs);
    return true;
  }
  if (startsWith(arg, "--event-log=")) {
    opts.eventLogPath = arg.substr(12);
    if (opts.eventLogPath.empty()) {
      std::fprintf(stderr, "--event-log requires a path\n");
      ok = false;
    }
    return true;
  }
  if (startsWith(arg, "--event-log-level=")) {
    std::string value = arg.substr(18);
    std::optional<elog::Level> level = elog::parseLevel(value);
    if (!level) {
      std::fprintf(stderr,
                   "invalid value '%s' for --event-log-level (expected "
                   "debug|info|warn|error)\n",
                   value.c_str());
      ok = false;
      return true;
    }
    opts.eventLogLevel = *level;
    return true;
  }
  return false;
}

/// Observability lifecycle around a tool run. begin() before the work,
/// finish() after; the destructor stops a still-running exporter so early
/// returns cannot leak the thread.
class Session {
public:
  Session() = default;
  ~Session() { exporter_.stop(); }

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Enables metric recording (when a metrics output was requested),
  /// opens the event log and starts the periodic exporter. Returns false
  /// with a diagnostic on stderr for inconsistent flags or an unopenable
  /// log path.
  bool begin(const Options &opts) {
    opts_ = opts;
    if (opts_.intervalMs > 0 && opts_.metricsJsonPath.empty()) {
      std::fprintf(stderr, "--metrics-interval requires --metrics-out\n");
      return false;
    }
    if (opts_.metricsRequested())
      metrics::setEnabled(true);
    std::string error;
    if (!opts_.eventLogPath.empty() &&
        !elog::EventLog::global().open(opts_.eventLogPath,
                                       opts_.eventLogLevel, &error)) {
      std::fprintf(stderr, "event log: %s\n", error.c_str());
      return false;
    }
    if (opts_.intervalMs > 0 &&
        !exporter_.start(opts_.metricsJsonPath, opts_.intervalMs, &error)) {
      std::fprintf(stderr, "metrics exporter: %s\n", error.c_str());
      elog::EventLog::global().close();
      return false;
    }
    return true;
  }

  /// Writes the final snapshots and closes the event log. Returns false
  /// (with diagnostics on stderr) when any write failed — the tool should
  /// exit non-zero so CI never uploads a truncated snapshot silently.
  bool finish() {
    bool ok = true;
    std::string error;
    if (exporter_.running()) {
      if (!exporter_.stop(&error)) {
        std::fprintf(stderr, "metrics: %s\n", error.c_str());
        ok = false;
      }
    } else if (!opts_.metricsJsonPath.empty() &&
               !metrics::Registry::global().writeJsonFile(
                   opts_.metricsJsonPath, &error)) {
      std::fprintf(stderr, "metrics: %s\n", error.c_str());
      ok = false;
    }
    if (!opts_.metricsPromPath.empty() &&
        !metrics::Registry::global().writePrometheusFile(
            opts_.metricsPromPath, &error)) {
      std::fprintf(stderr, "metrics: %s\n", error.c_str());
      ok = false;
    }
    elog::EventLog::global().close();
    return ok;
  }

private:
  Options opts_;
  metrics::Exporter exporter_;
};

} // namespace mha::obscli
