// MetadataConvert - translate directive metadata across the version gap
// (stage 5): llvm.loop.* names the modern flow emits become the xlx.*
// names the HLS frontend actually reads, and MLIR-level array-partition
// attributes become xlx.array_partition metadata on the flattened
// arguments.
#include "adaptor/Adaptor.h"
#include "lir/LContext.h"
#include "lowering/Lowering.h"
#include "support/StringUtils.h"

namespace mha::adaptor {

namespace {

class MetadataConvert : public lir::ModulePass {
public:
  std::string name() const override { return "metadata-convert"; }

  bool run(lir::Module &module, lir::PassStats &stats,
           DiagnosticEngine &diags) override {
    bool changed = false;
    for (lir::Function *fn : module.functions()) {
      changed |= convertLoopMetadata(*fn, stats);
      changed |= convertPartitionAttrs(*fn, stats, diags);
      if (fn->attrs().erase("mha.dataflow")) {
        fn->attrs().insert("xlx.dataflow");
        stats["adaptor.dataflow-converted"]++;
        changed = true;
      }
    }
    return changed;
  }

private:
  bool convertLoopMetadata(lir::Function &fn, lir::PassStats &stats) {
    static const std::pair<const char *, const char *> renames[] = {
        {lowering::kLoopPipelineMD, xlx::Pipeline},
        {lowering::kLoopUnrollMD, xlx::Unroll},
        {lowering::kLoopTripCountMD, xlx::TripCount},
        {lowering::kLoopDataflowMD, xlx::Dataflow},
    };
    bool changed = false;
    for (lir::BasicBlock *bb : fn.blockPtrs()) {
      for (auto &inst : *bb) {
        for (const auto &[from, to] : renames) {
          if (const lir::MDNode *node = inst->getMetadata(from)) {
            inst->setMetadata(to, node->clone());
            inst->removeMetadata(from);
            stats["adaptor.loop-directives-converted"]++;
            changed = true;
          }
        }
      }
    }
    return changed;
  }

  bool convertPartitionAttrs(lir::Function &fn, lir::PassStats &stats,
                             DiagnosticEngine &diags) {
    std::vector<std::string> toRemove;
    bool changed = false;
    for (const std::string &attr : fn.attrs()) {
      if (!startsWith(attr, lowering::kPartitionAttrPrefix))
        continue;
      toRemove.push_back(attr);
      std::string payload =
          attr.substr(std::string(lowering::kPartitionAttrPrefix).size());
      std::vector<std::string> parts = splitString(payload, ':', true);
      std::optional<int64_t> argIdx, dim, factor;
      if (parts.size() == 4) {
        argIdx = parseInt(parts[0]);
        dim = parseInt(parts[1]);
        factor = parseInt(parts[2]);
      }
      if (!argIdx || !dim || !factor) {
        diags.error(strfmt("adaptor: malformed partition attribute '%s'",
                           attr.c_str()));
        continue;
      }
      if (*argIdx < 0 || *argIdx >= static_cast<int64_t>(fn.numArgs())) {
        diags.error(strfmt("adaptor: partition attribute for argument %lld "
                           "out of range in @%s",
                           static_cast<long long>(*argIdx),
                           fn.name().c_str()));
        continue;
      }
      // One xlx.array_partition node holding [dim, factor, "kind"]
      // triples; append to an existing node when several directives hit
      // the same array.
      lir::Argument *arg = fn.arg(static_cast<unsigned>(*argIdx));
      auto it = arg->metadata().find(xlx::ArrayPartition);
      lir::MDNode *node;
      if (it == arg->metadata().end()) {
        auto fresh = std::make_unique<lir::MDNode>();
        node = fresh.get();
        arg->metadata()[xlx::ArrayPartition] = std::move(fresh);
      } else {
        node = it->second.get();
      }
      auto triple = std::make_unique<lir::MDNode>();
      triple->addInt(*dim);
      triple->addInt(*factor);
      triple->addString(parts[3]);
      node->addNode(std::move(triple));
      stats["adaptor.partitions-converted"]++;
      changed = true;
    }
    for (const std::string &attr : toRemove)
      fn.attrs().erase(attr);
    return changed;
  }
};

} // namespace

std::unique_ptr<lir::ModulePass> createMetadataConvertPass() {
  return std::make_unique<MetadataConvert>();
}

} // namespace mha::adaptor
