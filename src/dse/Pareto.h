// Pareto.h - the shared multi-objective archive of non-dominated designs.
//
// All objectives are minimized. A design dominates another when it is no
// worse on every objective and strictly better on at least one; the
// archive keeps exactly the non-dominated set, including distinct configs
// whose objective vectors tie (the classic frontier definition — a tied
// design is not "strictly better" and must survive).
//
// Determinism: entries() is kept sorted by (objective vector, config key),
// so the archive's contents and order are independent of evaluation and
// insertion order — two searches that visit the same points in different
// orders report the same archive.
#pragma once

#include "dse/Evaluator.h"

namespace mha::dse {

enum class Objective { Latency, Dsp, Bram, Lut, Ff };

const char *objectiveName(Objective objective);

/// Objective sets: the default archive trades latency against every
/// resource; the legacy example's frontier is latency vs DSP only.
std::vector<Objective> defaultObjectives();   // latency, dsp, bram, lut
std::vector<Objective> latencyDspObjectives();

struct ArchiveEntry {
  flow::KernelConfig config;
  QoR qor;
  std::string key; // configKey(config), the deterministic tie-breaker
};

class ParetoArchive {
public:
  explicit ParetoArchive(std::vector<Objective> objectives =
                             defaultObjectives());

  const std::vector<Objective> &objectives() const { return objectives_; }

  /// Offers a design to the archive. Failed or mis-simulating designs and
  /// duplicates (same key) are rejected; a dominated design is rejected;
  /// otherwise the design enters and every design it dominates leaves.
  /// Returns true when the design is in the archive afterwards.
  bool insert(const flow::KernelConfig &config, const QoR &qor);

  /// Non-dominated set, sorted by (objective vector, key).
  const std::vector<ArchiveEntry> &entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool containsKey(const std::string &key) const;

  std::vector<int64_t> objectiveVector(const QoR &qor) const;
  /// True when `a` dominates `b` (<= everywhere, < somewhere).
  bool dominates(const QoR &a, const QoR &b) const;

  static int64_t objectiveValue(const QoR &qor, Objective objective);

private:
  std::vector<Objective> objectives_;
  std::vector<ArchiveEntry> entries_;
};

} // namespace mha::dse
