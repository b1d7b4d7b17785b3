#include "dse/DesignSpace.h"

#include "lir/transforms/LoopUnroll.h"
#include "mir/Ops.h"
#include "support/StringUtils.h"

#include <algorithm>

namespace mha::dse {

namespace {

/// Structural facts the space model needs: the kernel is built once (no
/// directives) and inspected — how tight is the innermost loop, and does
/// the function body hold more than one top-level nest?
struct KernelShape {
  int64_t minInnerTrip = 1;
  bool multiNest = false;
};

KernelShape inspectKernel(const flow::KernelSpec &spec) {
  KernelShape shape;
  flow::KernelConfig plain;
  plain.applyDirectives = false;
  mir::MContext mctx;
  mir::OwnedModule module = spec.build(mctx, plain);

  int64_t minTrip = 0;
  module.get().op->walk([&](mir::Operation *op) {
    if (!op->is(mir::ops::AffineFor))
      return;
    mir::ForOp loop = mir::ForOp::wrap(op);
    bool innermost = true;
    op->walk([&](mir::Operation *inner) {
      if (inner != op && inner->is(mir::ops::AffineFor))
        innermost = false;
    });
    if (!innermost)
      return;
    int64_t trip = loop.tripCount();
    if (trip > 0 && (minTrip == 0 || trip < minTrip))
      minTrip = trip;
  });
  shape.minInnerTrip = minTrip > 0 ? minTrip : 1;

  for (mir::FuncOp fn : module.get().funcs()) {
    int nests = 0;
    for (mir::Operation *op : fn.entryBlock()->opPtrs())
      if (op->is(mir::ops::AffineFor))
        ++nests;
    if (nests > 1)
      shape.multiNest = true;
  }
  return shape;
}

} // namespace

std::string configKey(const flow::KernelConfig &config) {
  return strfmt("ii=%lld|unroll=%lld|part=%lld|df=%d|dir=%d",
                static_cast<long long>(config.pipelineII),
                static_cast<long long>(config.unrollFactor),
                static_cast<long long>(config.partitionFactor),
                config.dataflow ? 1 : 0, config.applyDirectives ? 1 : 0);
}

std::optional<flow::KernelConfig> parseConfigKey(std::string_view key) {
  // "ii=I|unroll=U|part=P|df=D|dir=A", all fields required, in order.
  const std::string_view names[] = {"ii=", "unroll=", "part=", "df=", "dir="};
  int64_t values[5];
  for (size_t i = 0; i < 5; ++i) {
    if (key.substr(0, names[i].size()) != names[i])
      return std::nullopt;
    key.remove_prefix(names[i].size());
    size_t end = i + 1 < 5 ? key.find('|') : key.size();
    if (end == std::string_view::npos)
      return std::nullopt;
    std::optional<int64_t> value = parseInt(key.substr(0, end));
    if (!value)
      return std::nullopt;
    values[i] = *value;
    key.remove_prefix(i + 1 < 5 ? end + 1 : end);
  }
  if (!key.empty())
    return std::nullopt;
  if ((values[3] != 0 && values[3] != 1) || (values[4] != 0 && values[4] != 1))
    return std::nullopt;
  flow::KernelConfig config;
  config.pipelineII = values[0];
  config.unrollFactor = values[1];
  config.partitionFactor = values[2];
  config.dataflow = values[3] != 0;
  config.applyDirectives = values[4] != 0;
  return config;
}

DesignSpace::DesignSpace(const flow::KernelSpec &spec,
                         DesignSpaceOptions options)
    : spec_(&spec), options_(std::move(options)) {
  KernelShape shape = inspectKernel(spec);
  minInnerTrip_ = shape.minInnerTrip;
  multiNest_ = shape.multiNest;

  auto push = [&](const flow::KernelConfig &candidate) {
    flow::KernelConfig canonical = canonicalize(candidate);
    std::string key = configKey(canonical);
    if (std::find(pointKeys_.begin(), pointKeys_.end(), key) !=
        pointKeys_.end())
      return;
    pointKeys_.push_back(std::move(key));
    points_.push_back(canonical);
  };

  push(baseline());
  std::vector<bool> dataflows = {false};
  if (options_.exploreDataflow && multiNest_)
    dataflows.push_back(true);
  for (int64_t ii : options_.pipelineIIs)
    for (int64_t unroll : options_.unrollFactors)
      for (int64_t partition : options_.partitionFactors)
        for (bool dataflow : dataflows) {
          flow::KernelConfig config;
          config.pipelineII = ii;
          config.unrollFactor = unroll;
          config.partitionFactor = partition;
          config.dataflow = dataflow;
          push(config);
        }
}

flow::KernelConfig DesignSpace::baseline() const {
  flow::KernelConfig config;
  config.pipelineII = 0;
  config.unrollFactor = 1;
  config.partitionFactor = 1;
  config.dataflow = false;
  config.applyDirectives = false;
  return config;
}

flow::KernelConfig DesignSpace::canonicalize(
    const flow::KernelConfig &config) const {
  // Start from the all-off knobs — KernelConfig's defaults describe a
  // directive-applying configuration, not the unoptimized design.
  flow::KernelConfig out;
  out.pipelineII = 0;
  out.unrollFactor = 1;
  out.partitionFactor = 1;
  out.dataflow = false;
  if (config.applyDirectives) {
    out.pipelineII = std::max<int64_t>(0, config.pipelineII);
    out.unrollFactor = lir::clampUnrollFactor(
        minInnerTrip_, std::max<int64_t>(1, config.unrollFactor));
    out.partitionFactor = std::max<int64_t>(1, config.partitionFactor);
    out.dataflow = config.dataflow && multiNest_;
  }
  // All-default knobs are exactly the unoptimized design.
  out.applyDirectives = out.pipelineII > 0 || out.unrollFactor > 1 ||
                        out.partitionFactor > 1 || out.dataflow;
  if (!out.applyDirectives) {
    out.pipelineII = 0;
    out.unrollFactor = 1;
    out.partitionFactor = 1;
    out.dataflow = false;
  }
  return out;
}

bool DesignSpace::contains(const flow::KernelConfig &config) const {
  std::string key = configKey(canonicalize(config));
  return std::find(pointKeys_.begin(), pointKeys_.end(), key) !=
         pointKeys_.end();
}

} // namespace mha::dse
