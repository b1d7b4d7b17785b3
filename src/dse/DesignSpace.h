// DesignSpace.h - explicit model of one kernel's directive design space.
//
// The ScaleHLS-style knobs (pipeline II, unroll factor, array-partition
// factor, function-level dataflow) span a grid of KernelConfigs; not every
// grid cell is a distinct design. This class enumerates the *valid,
// deduplicated* points:
//
//  * unroll factors are clamped to the largest divisor of the kernel's
//    innermost trip count (the same rule the virtual HLS backend applies
//    via lir::clampUnrollFactor), so requesting 8 on a trip-30 loop lands
//    on the same design as requesting 6;
//  * dataflow is only explored on kernels with more than one top-level
//    loop nest (on a single nest the directive is a no-op);
//  * a config whose knobs are all defaults is the unoptimized baseline,
//    canonicalized to applyDirectives=false.
//
// Canonicalization gives every design a stable string key (configKey) that
// the QoR cache, the Pareto archive and the --resume warm start share.
#pragma once

#include "flow/Kernels.h"

#include <optional>
#include <string_view>

namespace mha::dse {

struct DesignSpaceOptions {
  /// Candidate pipeline IIs for innermost compute loops (0 = no pipeline
  /// directive).
  std::vector<int64_t> pipelineIIs = {0, 1, 2};
  /// Candidate unroll factors (clamped to divisors of the innermost trip
  /// count).
  std::vector<int64_t> unrollFactors = {1, 2, 4, 8};
  /// Candidate cyclic array-partition factors.
  std::vector<int64_t> partitionFactors = {1, 2, 4, 8};
  /// Explore the dataflow directive (honoured only on multi-nest kernels).
  bool exploreDataflow = true;
};

class DesignSpace {
public:
  explicit DesignSpace(const flow::KernelSpec &spec,
                       DesignSpaceOptions options = {});

  const flow::KernelSpec &spec() const { return *spec_; }
  const DesignSpaceOptions &options() const { return options_; }

  /// All valid canonical points, deterministic enumeration order (the
  /// baseline first, then the grid in ii-major order).
  const std::vector<flow::KernelConfig> &points() const { return points_; }
  size_t size() const { return points_.size(); }

  /// Minimum trip count over the kernel's innermost affine loops (what
  /// unroll clamping divides against).
  int64_t minInnermostTripCount() const { return minInnerTrip_; }
  /// More than one top-level loop nest (dataflow is meaningful).
  bool multiNest() const { return multiNest_; }

  /// The unoptimized starting point (applyDirectives=false).
  flow::KernelConfig baseline() const;

  /// Maps any config onto its canonical design: clamps the unroll factor,
  /// drops dataflow on single-nest kernels, folds all-default knobs into
  /// the baseline.
  flow::KernelConfig canonicalize(const flow::KernelConfig &config) const;

  /// True when `config` canonicalizes to an enumerated point.
  bool contains(const flow::KernelConfig &config) const;

private:
  const flow::KernelSpec *spec_;
  DesignSpaceOptions options_;
  std::vector<flow::KernelConfig> points_;
  std::vector<std::string> pointKeys_; // parallel to points_
  int64_t minInnerTrip_ = 1;
  bool multiNest_ = false;
};

/// Stable identity/cache key for a canonical config:
/// "ii=I|unroll=U|part=P|df=D|dir=A". Lexicographic comparison of keys is
/// the subsystem's deterministic tie-breaker.
std::string configKey(const flow::KernelConfig &config);

/// Inverse of configKey: reconstructs the config from its key, so the
/// persisted QoR cache (whose entries are keyed strings) can re-seed a
/// Pareto archive on --resume. Returns nullopt for malformed keys;
/// round-trips exactly (configKey(*parseConfigKey(k)) == k for keys
/// produced by configKey).
std::optional<flow::KernelConfig> parseConfigKey(std::string_view key);

} // namespace mha::dse
