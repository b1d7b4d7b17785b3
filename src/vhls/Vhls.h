// Vhls.h - the virtual HLS backend (the repo's stand-in for Vitis HLS).
//
// Pipeline: frontend acceptance check (lir::checkHlsCompatibility) ->
// directive-driven loop unrolling -> hierarchical scheduling (list
// scheduling with operator chaining and memory-port constraints for
// straight-line regions; modulo scheduling with RecMII/ResMII for
// pipelined innermost loops) -> binding/resource estimation -> report.
//
// Synthesis runs in two halves. `elaborate` does everything no TargetSpec
// field can change: the acceptance check, the in-place backend unroll, and
// the analyses the scheduler reads (per-op characterization, same-block
// operand edges, loop shapes and directives, dependences, bank classes,
// arrays), frozen into an immutable ScheduleGraph of dense indices that no
// longer refers to the IR. `schedule` turns a graph into a report for one
// set of options; it can run any number of times on one graph, which is
// how the flow's StageCache reschedules a TargetSpec edit without
// re-parsing or re-unrolling. `synthesize` is the two in sequence.
//
// The backend consumes only the xlx.* directive dialect; IR that fails the
// acceptance check is rejected exactly like a frontend version mismatch in
// the paper's setting.
#pragma once

#include "lir/Function.h"
#include "vhls/Report.h"

namespace mha::vhls {

struct SynthesisOptions {
  TargetSpec target;
  /// Top function name (empty: last function of the bottom-up order).
  std::string topFunction;
  /// Honour xlx.unroll directives with backend unrolling (mutates the IR,
  /// semantics-preserving).
  bool applyUnrollDirectives = true;
  /// Reject the module on acceptance *warnings* too (strict mode).
  bool strictAcceptance = false;
};

/// The target-independent input of the scheduler (see the file comment).
/// Functions are bottom-up over the call graph, ops block by block in
/// block order; every cross-reference is an index.
struct ScheduleGraph {
  /// A distinct characterize() result.
  struct Kind {
    int64_t latency = 0;
    double delayNs = 0;
    uint16_t fuClass = 0; // index into fuClasses
    ResourceUsage perUnit;
  };
  struct Op {
    uint32_t firstOperand = 0, numOperands = 0; // into Function::operands
    int32_t callee = -1;   // functions index of a defined callee
    int32_t bank = -1;     // straight-line port class (loads, stores)
    int32_t loopBank = -1; // port class in its pipelined loop body
    uint16_t kind = 0;
  };
  struct Block {
    uint32_t begin = 0, end = 0; // op range
    int32_t loop = -1;           // innermost enclosing loop
  };
  /// One memory port class: a bank of `base`, or any of its banks.
  struct Bank {
    uint32_t base = 0;
    bool known = true;
  };
  /// A dependence between two ops of a pipelined body (body positions).
  struct Dep {
    uint32_t src = 0, dst = 0;
    int64_t distance = 0;
  };
  struct Loop {
    std::string name; // header block
    unsigned depth = 1;
    int64_t tripCount = -1;
    int64_t targetII = 0;  // xlx.pipeline (0 = none)
    std::string note;      // why a requested pipeline cannot apply
    int32_t body = -1;     // block modulo-scheduled when pipelined
    bool controlOnly = false; // own blocks are pure control (flattenable)
    int64_t portDemand = 0;   // most body accesses contending for a bank
    std::vector<uint32_t> blocks;   // blocks directly in this loop
    std::vector<uint32_t> subLoops; // loop indices
    std::vector<Dep> deps;          // in-body dependences, sorted by dst
    /// Intra-iteration edges (SSA uses and distance-0 dependences) between
    /// body positions, sorted by source; every edge points forward, so
    /// body order is a topological order.
    std::vector<std::pair<uint32_t, uint32_t>> edges;
  };
  struct Function {
    std::string name;
    bool dataflow = false;
    std::vector<Op> ops;
    /// Per op: its same-block, earlier, non-phi operand defs (op indices).
    std::vector<uint32_t> operands;
    std::vector<Block> blocks;     // block order
    std::vector<uint32_t> rpo;     // reachable blocks, reverse post-order
    std::vector<Bank> banks;
    std::vector<Loop> loops;       // innermost first
    std::vector<uint32_t> topLoops;
    std::vector<int32_t> fuCostKind; // per fu class: its last bound op's kind
    std::vector<ArrayReport> arrays;
    int64_t onChipBram = 0;
  };

  lir::HlsCompatReport compat;
  /// The acceptance check's diagnostics, for replay with a cached graph.
  std::vector<Diagnostic> diagnostics;
  std::vector<std::string> fuClasses;
  std::vector<Kind> kinds;
  std::vector<Function> functions; // empty when compat rejects the module
};

/// Checks `module`, applies its unroll directives in place when asked, and
/// elaborates it. Diagnostics go to `diags` and into the graph.
ScheduleGraph elaborate(lir::Module &module, bool applyUnrollDirectives,
                        DiagnosticEngine &diags);

/// Schedules and binds an elaborated module under `options`. When the
/// module is not accepted the report has accepted=false and no function
/// reports. Reads only the graph: elaborate's diagnostics are not repeated.
SynthesisReport schedule(const ScheduleGraph &graph,
                         const SynthesisOptions &options);

/// Applies every xlx.unroll directive of `module` in place, as elaborate
/// does (so a deferred module can be brought to the synthesized state).
void unrollByDirectives(lir::Module &module);

/// schedule(elaborate(module, ...), options). Unroll directives mutate the
/// module in place (semantics preserved).
SynthesisReport synthesize(lir::Module &module,
                           const SynthesisOptions &options,
                           DiagnosticEngine &diags);

} // namespace mha::vhls
