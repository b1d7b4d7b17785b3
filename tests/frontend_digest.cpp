// frontend_digest - one line per off-grid HLS C++ input with an FNV-1a
// digest of what the C frontend makes of it: the printed module after the
// frontend's cleanup pipeline, the pipeline's statistics and the
// diagnostics.
//
// The inputs are the emitted C++ of every kernel x pipeline II 0..12 x
// unroll {1,2,4,8} x partition {1,2,4,8} x dataflow {off,on}, minus the
// 297 grid points grid_digest already pins (II {0,1,2}, unroll {1,2,4},
// partition {1,2,4}, dataflow off). The frontend-digest ctest
// byte-compares this program's stdout with tests/golden/frontend_digest.txt,
// so a rewrite of a frontend pass (mem2reg, cse, licm, ...) must leave all
// of these outputs unchanged. Regenerate the golden file from this
// program's output only for an intended output change.
#include "flow/Kernels.h"
#include "hlscpp/Emitter.h"
#include "hlscpp/Frontend.h"
#include "lir/LContext.h"
#include "lir/Printer.h"
#include "mir/Pass.h"
#include "mir/Verifier.h"
#include "mir/transforms/MirTransforms.h"
#include "support/Hash.h"

#include <cinttypes>
#include <cstdio>

using namespace mha;

namespace {

bool onGrid(int64_t ii, int64_t unroll, int64_t partition, bool dataflow) {
  auto small = [](int64_t v) { return v == 1 || v == 2 || v == 4; };
  return ii <= 2 && small(unroll) && small(partition) && !dataflow;
}

/// The C++ the hls-c++ flow feeds its frontend for `config`: the kernel's
/// module, verified and canonicalized (the flow's default MLIR
/// preparation), then emitted. Empty when any step fails.
std::string emitCpp(const flow::KernelSpec &spec,
                    const flow::KernelConfig &config,
                    DiagnosticEngine &diags) {
  mir::MContext mctx;
  mir::OwnedModule module = spec.build(mctx, config);
  if (!mir::verifyModule(module.get(), diags))
    return "";
  mir::MPassManager pm;
  pm.add(mir::createCanonicalizePass());
  if (!pm.run(module.get(), diags))
    return "";
  return hlscpp::emitHlsCpp(module.get(), diags);
}

} // namespace

int main() {
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (int64_t ii = 0; ii <= 12; ++ii)
      for (int64_t unroll : {1, 2, 4, 8})
        for (int64_t partition : {1, 2, 4, 8})
          for (bool dataflow : {false, true}) {
            if (onGrid(ii, unroll, partition, dataflow))
              continue;
            flow::KernelConfig config;
            config.pipelineII = ii;
            config.unrollFactor = unroll;
            config.partitionFactor = partition;
            config.dataflow = dataflow;
            DiagnosticEngine diags;
            std::string cpp = emitCpp(spec, config, diags);
            // parseHlsCpp with `optimize`, split in two so the pipeline's
            // statistics (mem2reg.promoted, ...) are part of the digest.
            lir::LContext ctx;
            std::unique_ptr<lir::Module> module;
            lir::PassManager pm(/*verifyEach=*/true);
            hlscpp::buildFrontendPipeline(pm);
            if (!cpp.empty()) {
              module = hlscpp::parseHlsCpp(cpp, ctx, diags, /*optimize=*/false);
              if (module && !pm.run(*module, diags))
                module.reset();
            }
            HashBuilder hb;
            hb.str(module ? lir::printModule(*module) : "");
            for (const auto &[stat, value] : pm.totalStats())
              hb.str(stat).i64(value);
            hb.str(diags.str());
            std::printf("%s ii=%lld u=%lld p=%lld df=%d %s %016" PRIx64 "\n",
                        spec.name.c_str(), static_cast<long long>(ii),
                        static_cast<long long>(unroll),
                        static_cast<long long>(partition), dataflow ? 1 : 0,
                        module ? "ok" : "FAILED", hb.get());
          }
  return 0;
}
