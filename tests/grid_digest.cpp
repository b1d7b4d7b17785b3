// grid_digest - one line per design of the full kernel grid (every kernel
// x pipeline II {0,1,2} x unroll {1,2,4} x partition {1,2,4}, both flows,
// StageCache off) with an FNV-1a digest of everything the design's output
// is made of: the final printed LIR, the synthesis report JSON, the
// adaptor statistics, the emitted C++ and the diagnostics.
//
// The grid-digest ctest byte-compares this program's stdout with
// tests/golden/grid_digest.txt. Printed LIR carries every value and block
// name, so the digest pins the names the verifier assigns, the synthesis
// keys hashed from that text and the loop names in the reports.
// Regenerate the golden file from this program's output only for an
// intended output change.
#include "flow/Flow.h"
#include "lir/Printer.h"
#include "support/Hash.h"

#include <cinttypes>
#include <cstdio>

using namespace mha;

int main() {
  for (const flow::KernelSpec &spec : flow::allKernels())
    for (int64_t ii : {0, 1, 2})
      for (int64_t unroll : {1, 2, 4})
        for (int64_t partition : {1, 2, 4})
          for (flow::FlowKind kind :
               {flow::FlowKind::Adaptor, flow::FlowKind::HlsCpp}) {
            flow::KernelConfig config;
            config.pipelineII = ii;
            config.unrollFactor = unroll;
            config.partitionFactor = partition;
            flow::FlowResult r = flow::runFlow(kind, spec, config, {});
            HashBuilder hb;
            hb.boolean(r.ok);
            hb.str(r.module ? lir::printModule(*r.module) : "");
            hb.str(r.synth.json());
            for (const auto &[stat, value] : r.adaptorStats)
              hb.str(stat).i64(value);
            hb.str(r.hlsCpp).str(r.diagnostics);
            std::printf("%s ii=%lld u=%lld p=%lld %s %s %016" PRIx64 "\n",
                        spec.name.c_str(), static_cast<long long>(ii),
                        static_cast<long long>(unroll),
                        static_cast<long long>(partition),
                        flow::flowKindName(kind), r.ok ? "ok" : "FAILED",
                        hb.get());
          }
  return 0;
}
