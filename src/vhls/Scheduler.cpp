#include "vhls/Vhls.h"

#include "vhls/Estimate.h"

#include "lir/LContext.h"
#include "lir/analysis/Dependence.h"
#include "lir/analysis/Dominators.h"
#include "lir/analysis/LoopInfo.h"
#include "lir/transforms/LoopUnroll.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

namespace mha::vhls {

namespace {

using lir::BasicBlock;
using lir::Function;
using lir::Instruction;
using lir::Opcode;
using Graph = ScheduleGraph;

// ============================ elaboration ============================

/// Identifies which physical memory bank an access can touch.
struct BankClass {
  const lir::Value *base = nullptr;
  bool known = false;   // residue analysis succeeded
  int64_t residue = 0;  // subscript offset mod factor (cyclic)
  int64_t ivCoef = 0;
};

/// Per-pointer-base memory geometry and its partition directive
/// (cyclic/block on one dimension).
struct ArrayInfo {
  std::vector<int64_t> dims;
  unsigned dim = 0;
  int64_t factor = 1;
  bool cyclic = true;
};

const lir::Value *pointerRootOf(const lir::Value *ptr) {
  while (const auto *inst = dyn_cast<Instruction>(ptr)) {
    if (inst->opcode() == Opcode::GEP || inst->opcode() == Opcode::Bitcast)
      ptr = inst->operand(0);
    else
      break;
  }
  return ptr;
}

/// Extracts array dims from a pointer-to-array / array type.
std::vector<int64_t> arrayDims(const lir::Type *type) {
  std::vector<int64_t> dims;
  if (const auto *pt = dyn_cast<lir::PointerType>(type))
    type = pt->isOpaque() ? nullptr : pt->pointee();
  while (type && type->isArray()) {
    const auto *at = cast<lir::ArrayType>(type);
    dims.push_back(static_cast<int64_t>(at->numElements()));
    type = at->element();
  }
  return dims;
}

/// Builds one function of the graph. Pointer-keyed maps live only here;
/// everything they index leaves as dense positions.
class Elaborator {
public:
  Elaborator(Graph &graph, Function &fn,
             const std::unordered_map<const Function *, int32_t> &fnIndex)
      : graph_(graph), fn_(fn), fnIndex_(fnIndex) {}

  Graph::Function run() {
    out_.name = fn_.name();
    out_.dataflow = fn_.hasAttr("xlx.dataflow");
    collectArrays();
    lir::DominatorTree domTree(fn_);
    lir::LoopInfo loopInfo(fn_, domTree);

    for (BasicBlock *bb : fn_.blockPtrs()) {
      blockIndex_[bb] = static_cast<uint32_t>(out_.blocks.size());
      Graph::Block block;
      block.begin = static_cast<uint32_t>(out_.ops.size());
      for (auto &inst : *bb)
        addOp(*inst);
      block.end = static_cast<uint32_t>(out_.ops.size());
      out_.blocks.push_back(block);
    }
    for (BasicBlock *bb : domTree.rpo())
      out_.rpo.push_back(blockIndex_.at(bb));
    out_.fuCostKind.assign(graph_.fuClasses.size(), -1);
    for (const Graph::Op &op : out_.ops) {
      const Graph::Kind &kind = graph_.kinds[op.kind];
      if (kind.perUnit.dsp != 0 || kind.perUnit.lut != 0)
        out_.fuCostKind[kind.fuClass] = op.kind;
    }

    // Innermost first; the stable sort keeps LoopInfo's deterministic
    // (RPO-header) order among loops of equal depth, so report rows come
    // out the same every run.
    std::vector<lir::Loop *> loops;
    for (const auto &loop : loopInfo.loops())
      loops.push_back(loop.get());
    std::stable_sort(loops.begin(), loops.end(),
                     [](lir::Loop *a, lir::Loop *b) {
                       return a->depth() > b->depth();
                     });
    std::unordered_map<const lir::Loop *, uint32_t> loopIndex;
    for (uint32_t i = 0; i < loops.size(); ++i)
      loopIndex[loops[i]] = i;
    for (BasicBlock *bb : fn_.blockPtrs())
      if (lir::Loop *loop = loopInfo.loopFor(bb))
        out_.blocks[blockIndex_.at(bb)].loop =
            static_cast<int32_t>(loopIndex.at(loop));
    for (lir::Loop *loop : loops)
      addLoop(loop, loopInfo, loopIndex);
    for (lir::Loop *loop : loopInfo.topLevelLoops())
      out_.topLoops.push_back(loopIndex.at(loop));
    return std::move(out_);
  }

private:
  void collectArrays() {
    auto addArray = [&](const lir::Value *base, const std::string &name,
                        const std::vector<int64_t> &dims,
                        lir::Type *elemTy, bool onChip,
                        const lir::MDNode *partitionMD) {
      if (dims.empty())
        return;
      ArrayInfo info;
      info.dims = dims;
      int64_t elems = 1;
      for (int64_t d : dims)
        elems *= d;
      if (partitionMD && partitionMD->size() > 0) {
        // First triple wins (one partition directive per array here).
        const lir::MDNode *triple = partitionMD->getNode(0);
        if (triple && triple->size() >= 3) {
          info.dim = static_cast<unsigned>(triple->getInt(0));
          info.factor = triple->getInt(1);
          info.cyclic = triple->getString(2) != "block";
        }
      }
      // Report rows in discovery order (arguments first, then allocas as
      // encountered), never in the pointer-keyed map's order.
      ArrayReport ar;
      ar.name = name;
      ar.bytes = elems * static_cast<int64_t>(elemTy->sizeInBytes());
      ar.banks = std::max<int64_t>(1, info.factor);
      ar.partition = info.factor > 1
                         ? strfmt("%s dim=%u factor=%lld",
                                  info.cyclic ? "cyclic" : "block", info.dim,
                                  static_cast<long long>(info.factor))
                         : "-";
      ar.bramBlocks = partitionedBramBlocks(ar.bytes, ar.banks);
      ar.onChip = onChip;
      if (onChip)
        out_.onChipBram += ar.bramBlocks;
      out_.arrays.push_back(ar);
      arrays_[base] = std::move(info);
    };

    for (const auto &arg : fn_.args()) {
      std::vector<int64_t> dims = arrayDims(arg->type());
      if (dims.empty())
        continue;
      lir::Type *elem = arg->type();
      while (const auto *pt = dyn_cast<lir::PointerType>(elem))
        elem = pt->pointee();
      while (const auto *at = dyn_cast<lir::ArrayType>(elem))
        elem = at->element();
      addArray(arg.get(), arg->name(), dims, elem, /*onChip=*/false,
               arg->getMetadata("xlx.array_partition"));
    }
    for (BasicBlock *bb : fn_.blockPtrs()) {
      for (auto &inst : *bb) {
        if (inst->opcode() != Opcode::Alloca)
          continue;
        std::vector<int64_t> dims;
        lir::Type *elem = inst->allocatedType();
        while (const auto *at = dyn_cast<lir::ArrayType>(elem)) {
          dims.push_back(static_cast<int64_t>(at->numElements()));
          elem = at->element();
        }
        addArray(inst.get(), inst->hasName() ? inst->name() : "buf", dims,
                 elem, /*onChip=*/true,
                 inst->getMetadata("xlx.array_partition"));
      }
    }
  }

  /// Bank classification of a memory access, relative to `iv` (may be
  /// null for straight-line code).
  BankClass classify(const Instruction *memop, const lir::Value *iv) {
    BankClass out;
    const lir::Value *ptr =
        memop->operand(memop->opcode() == Opcode::Store ? 1 : 0);
    out.base = pointerRootOf(ptr);
    auto arrayIt = arrays_.find(out.base);
    if (arrayIt == arrays_.end() || arrayIt->second.factor <= 1) {
      // Unpartitioned: single bank; everyone conflicts -> model as known
      // residue 0.
      out.known = true;
      return out;
    }
    const ArrayInfo &info = arrayIt->second;
    const auto *gep = dyn_cast<Instruction>(ptr);
    if (!gep || gep->opcode() != Opcode::GEP || gep->numOperands() < 3)
      return out; // flat gep on a partitioned array: bank unknown
    unsigned opIdx = 2 + info.dim; // after base and leading zero
    if (opIdx >= gep->numOperands())
      return out;
    lir::LinearSubscript sub =
        lir::linearizeInIV(gep->operand(opIdx), iv ? iv : gep->operand(opIdx));
    if (!sub.valid || !sub.symbols.empty())
      return out;
    int64_t f = info.factor;
    if (info.cyclic) {
      out.known = true;
      out.residue = ((sub.constant % f) + f) % f;
      out.ivCoef = sub.ivCoef % f;
    } else if (sub.ivCoef == 0) {
      // Block partitioning: bank = idx / (extent/factor); the residue is
      // only static for constant subscripts.
      int64_t extent = info.dims[info.dim];
      out.known = true;
      out.residue = sub.constant / std::max<int64_t>(1, extent / f);
    }
    return out;
  }

  /// Dense id of a port class, keyed by (base, known, residue, ivCoef) —
  /// the whole pair, so classes never alias whatever the factor.
  int32_t internBank(const BankClass &bank) {
    auto base = baseIds_.try_emplace(bank.base, baseIds_.size()).first->second;
    auto key = bank.known ? std::make_tuple(base, true, bank.residue, bank.ivCoef)
                          : std::make_tuple(base, false, int64_t(0), int64_t(0));
    auto [it, inserted] =
        bankIds_.try_emplace(key, static_cast<int32_t>(out_.banks.size()));
    if (inserted)
      out_.banks.push_back({base, bank.known});
    return it->second;
  }

  uint16_t internKind(const OpInfo &info) {
    auto fu = std::find(graph_.fuClasses.begin(), graph_.fuClasses.end(),
                        info.fuClass);
    if (fu == graph_.fuClasses.end())
      fu = graph_.fuClasses.insert(fu, info.fuClass);
    Graph::Kind kind{info.latency, info.delayNs,
                     static_cast<uint16_t>(fu - graph_.fuClasses.begin()),
                     info.perUnit};
    auto same = [&](const Graph::Kind &k) {
      const ResourceUsage &a = k.perUnit, &b = kind.perUnit;
      return k.latency == kind.latency && k.delayNs == kind.delayNs &&
             k.fuClass == kind.fuClass && a.dsp == b.dsp &&
             a.bram == b.bram && a.lut == b.lut && a.ff == b.ff;
    };
    auto it = std::find_if(graph_.kinds.begin(), graph_.kinds.end(), same);
    if (it == graph_.kinds.end())
      it = graph_.kinds.insert(it, kind);
    return static_cast<uint16_t>(it - graph_.kinds.begin());
  }

  void addOp(const Instruction &inst) {
    Graph::Op op;
    op.kind = internKind(characterize(inst));
    op.firstOperand = static_cast<uint32_t>(out_.operands.size());
    for (unsigned i = 0; i < inst.numOperands(); ++i) {
      const auto *def = dyn_cast<Instruction>(inst.operand(i));
      if (!def || def->parent() != inst.parent() ||
          def->opcode() == Opcode::Phi)
        continue;
      auto it = opIndex_.find(def); // only earlier ops are indexed yet
      if (it != opIndex_.end())
        out_.operands.push_back(it->second);
    }
    op.numOperands =
        static_cast<uint32_t>(out_.operands.size()) - op.firstOperand;
    if (inst.opcode() == Opcode::Call)
      if (const Function *callee = inst.calledFunction();
          callee && !callee->isDeclaration())
        op.callee = fnIndex_.at(callee);
    if (inst.opcode() == Opcode::Load || inst.opcode() == Opcode::Store) {
      // Straight-line ports are keyed by residue alone.
      BankClass bank = classify(&inst, nullptr);
      bank.ivCoef = 0;
      op.bank = internBank(bank);
    }
    opIndex_[&inst] = static_cast<uint32_t>(out_.ops.size());
    out_.ops.push_back(op);
  }

  void addLoop(lir::Loop *loop, lir::LoopInfo &loopInfo,
               const std::unordered_map<const lir::Loop *, uint32_t> &index) {
    Graph::Loop gl;
    gl.name = loop->header()->name();
    gl.depth = loop->depth();
    auto canonical = lir::matchCanonicalLoop(loop);
    if (canonical && canonical->tripCount)
      gl.tripCount = *canonical->tripCount;
    Instruction *latchTerm =
        loop->latch() ? loop->latch()->terminator() : nullptr;
    const lir::MDNode *pipelineMD =
        latchTerm ? latchTerm->getMetadata("xlx.pipeline") : nullptr;
    if (gl.tripCount < 0 && latchTerm)
      if (const lir::MDNode *tripMD = latchTerm->getMetadata("xlx.tripcount"))
        if (tripMD->isInt(0))
          gl.tripCount = tripMD->getInt(0);
    if (pipelineMD && pipelineMD->isInt(0))
      gl.targetII = std::max<int64_t>(1, pipelineMD->getInt(0));
    bool canPipeline = loop->isInnermost() && canonical &&
                       loop->blocks().size() == 2;
    if (gl.targetII > 0 && !canPipeline)
      gl.note = loop->isInnermost() ? "not pipelined: irregular loop shape"
                                    : "not pipelined: contains subloop";

    gl.controlOnly = true;
    for (BasicBlock *bb : loop->blocks()) {
      if (loopInfo.loopFor(bb) != loop)
        continue;
      gl.blocks.push_back(blockIndex_.at(bb));
      for (auto &inst : *bb) {
        switch (inst->opcode()) {
        case Opcode::Phi:
        case Opcode::ICmp:
        case Opcode::Add:
        case Opcode::Sub:
        case Opcode::Br:
        case Opcode::CondBr:
          continue;
        default:
          gl.controlOnly = false;
        }
      }
    }
    for (lir::Loop *sub : loop->subLoops())
      gl.subLoops.push_back(index.at(sub));
    if (gl.targetII > 0 && canPipeline)
      addBody(*canonical, gl);
    out_.loops.push_back(std::move(gl));
  }

  /// The pipelined body (the latch block): its port classes relative to
  /// the iv, its port demand, its in-body dependences and its
  /// intra-iteration edges.
  void addBody(const lir::CanonicalLoop &loop, Graph::Loop &gl) {
    BasicBlock *body = loop.loop->latch();
    gl.body = static_cast<int32_t>(blockIndex_.at(body));
    const uint32_t begin = out_.blocks[gl.body].begin;
    auto position = [&](const Instruction *inst) -> int64_t {
      if (inst->parent() != body)
        return -1;
      return int64_t(opIndex_.at(inst)) - begin;
    };

    std::vector<lir::MemAccess> accesses = lir::collectLoopAccesses(loop);
    std::map<int32_t, int64_t> classCount;
    std::map<uint32_t, int64_t> unknownCount; // by base
    for (const lir::MemAccess &access : accesses) {
      if (access.inst->parent() != body)
        continue;
      int32_t id = internBank(classify(access.inst, loop.indVar));
      out_.ops[opIndex_.at(access.inst)].loopBank = id;
      if (out_.banks[id].known)
        ++classCount[id];
      else
        ++unknownCount[out_.banks[id].base];
    }
    for (const auto &[id, count] : classCount) {
      auto unknown = unknownCount.find(out_.banks[id].base);
      gl.portDemand = std::max(
          gl.portDemand,
          count + (unknown == unknownCount.end() ? 0 : unknown->second));
    }
    for (const auto &[base, count] : unknownCount)
      gl.portDemand = std::max(gl.portDemand, count);

    for (const lir::LoopDependence &dep :
         lir::analyzeLoopDependences(accesses)) {
      int64_t src = position(dep.src), dst = position(dep.dst);
      if (src < 0 || dst < 0)
        continue;
      gl.deps.push_back({uint32_t(src), uint32_t(dst), dep.distance});
      if (dep.distance == 0 && src < dst)
        gl.edges.push_back({uint32_t(src), uint32_t(dst)});
    }
    std::stable_sort(gl.deps.begin(), gl.deps.end(),
                     [](const Graph::Dep &a, const Graph::Dep &b) {
                       return a.dst < b.dst;
                     });
    for (auto &inst : *body)
      for (const lir::Use *use : inst->uses()) {
        const auto *user = dyn_cast<Instruction>(use->user());
        int64_t from = position(inst.get());
        int64_t to = user ? position(user) : -1;
        if (to > from) // SSA order: uses in the body follow their defs
          gl.edges.push_back({uint32_t(from), uint32_t(to)});
      }
    std::sort(gl.edges.begin(), gl.edges.end());
    gl.edges.erase(std::unique(gl.edges.begin(), gl.edges.end()),
                   gl.edges.end());
  }

  Graph &graph_;
  Function &fn_;
  const std::unordered_map<const Function *, int32_t> &fnIndex_;
  Graph::Function out_;
  std::unordered_map<const lir::Value *, ArrayInfo> arrays_;
  std::unordered_map<const BasicBlock *, uint32_t> blockIndex_;
  std::unordered_map<const Instruction *, uint32_t> opIndex_;
  std::unordered_map<const lir::Value *, uint32_t> baseIds_;
  std::map<std::tuple<uint32_t, bool, int64_t, int64_t>, int32_t> bankIds_;
};

/// Applies xlx.unroll directives before scheduling (backend unrolling).
void unrollFunction(Function &fn) {
  bool changed = true;
  int rounds = 0;
  while (changed && ++rounds < 8) {
    changed = false;
    lir::DominatorTree domTree(fn);
    lir::LoopInfo loopInfo(fn, domTree);
    for (const auto &loop : loopInfo.loops()) {
      Instruction *latchTerm =
          loop->latch() ? loop->latch()->terminator() : nullptr;
      if (!latchTerm)
        continue;
      const lir::MDNode *unrollMD = latchTerm->getMetadata("xlx.unroll");
      if (!unrollMD || !unrollMD->isInt(0))
        continue;
      int64_t requested = unrollMD->getInt(0);
      latchTerm->removeMetadata("xlx.unroll");
      auto canonical = lir::matchCanonicalLoop(loop.get());
      if (!canonical || !canonical->tripCount)
        continue;
      int64_t factor = lir::clampUnrollFactor(*canonical->tripCount,
                                              requested);
      if (factor > 1 && lir::unrollLoopByFactor(*canonical, factor)) {
        changed = true;
        break; // loop info invalidated
      }
    }
  }
}

// ============================ scheduling ============================

/// Per-resource use counts by slot (a cycle, or a cycle mod II) for one
/// reservation table. A resource is open once an op reserved it; marks
/// for an unknown bank reach only the open classes of its base.
class Reservations {
public:
  explicit Reservations(size_t resources)
      : use_(resources), isOpen_(resources, 0) {}

  void clear() {
    for (uint32_t r : open_) {
      use_[r].clear();
      isOpen_[r] = 0;
    }
    open_.clear();
  }
  const std::vector<uint32_t> &open() const { return open_; }

  void add(uint32_t r, int64_t slot) {
    auto &use = use_[r];
    auto it = std::lower_bound(use.begin(), use.end(),
                               std::make_pair(slot, 0));
    if (it == use.end() || it->first != slot)
      it = use.insert(it, {slot, 0});
    ++it->second;
  }

  /// Takes the first slot at or after `cycle` with fewer than `capacity`
  /// uses. With ii > 0 slots are cycle mod ii, and after ii failed tries
  /// there is none (false).
  bool reserve(uint32_t r, int64_t &cycle, int capacity, int64_t ii) {
    if (!isOpen_[r]) {
      isOpen_[r] = 1;
      open_.push_back(r);
    }
    for (int64_t tries = 0; count(r, ii ? cycle % ii : cycle) >= capacity;
         ++cycle)
      if (ii && ++tries > ii)
        return false;
    add(r, ii ? cycle % ii : cycle);
    return true;
  }

private:
  int count(uint32_t r, int64_t slot) const {
    const auto &use = use_[r];
    auto it = std::lower_bound(use.begin(), use.end(),
                               std::make_pair(slot, 0));
    return it != use.end() && it->first == slot ? it->second : 0;
  }

  std::vector<std::vector<std::pair<int64_t, int>>> use_;
  std::vector<char> isOpen_;
  std::vector<uint32_t> open_;
};

class FunctionScheduler {
public:
  FunctionScheduler(const Graph &graph, const Graph::Function &fn,
                    size_t self, const std::vector<FunctionReport> &callees,
                    const TargetSpec &target)
      : graph_(graph), fn_(fn), self_(self), callees_(callees),
        target_(target), lat_(fn.ops.size()), start_(fn.ops.size(), 0),
        path_(fn.ops.size(), 0), blockLatency_(fn.blocks.size(), 0),
        pipelinedII_(fn.blocks.size(), 0), loopTotal_(fn.loops.size(), 0),
        ports_(fn.banks.size()), fus_(graph.fuClasses.size()) {
    for (const std::string &fuClass : graph.fuClasses)
      limits_.push_back(target.fuLimitFor(fuClass));
    for (size_t i = 0; i < fn.ops.size(); ++i) {
      const Graph::Op &op = fn.ops[i];
      lat_[i] = isScheduledCall(op)
                    ? std::max<int64_t>(1, callees[op.callee].latencyCycles)
                    : graph.kinds[op.kind].latency;
    }
  }

  FunctionReport run() {
    report_.name = fn_.name;
    for (uint32_t b : fn_.rpo)
      scheduleBlock(b);
    for (uint32_t l = 0; l < fn_.loops.size(); ++l)
      processLoop(l);

    // Function latency: blocks directly at function level + top loops.
    // With the dataflow directive the top-level loop nests run as
    // overlapped tasks: the slowest task dominates instead of the sum
    // (optimistic FIFO model, like Vitis dataflow at II=1 task rate).
    report_.dataflow = fn_.dataflow;
    int64_t latency = 0;
    for (uint32_t b : fn_.rpo)
      if (fn_.blocks[b].loop < 0)
        latency += blockLatency_[b];
    int64_t loopSum = 0, loopMax = 0;
    for (uint32_t l : fn_.topLoops) {
      loopSum += loopTotal_[l];
      loopMax = std::max(loopMax, loopTotal_[l]);
    }
    int64_t taskCount = static_cast<int64_t>(fn_.topLoops.size());
    latency += fn_.dataflow && taskCount > 1 ? loopMax + taskCount : loopSum;
    report_.latencyCycles = latency;
    report_.fsmStates = fsmStates_;
    report_.achievedPeriodNs = achievedPeriod_;
    bindResources();
    return std::move(report_);
  }

private:
  /// A call to a defined function already scheduled (bottom-up order).
  bool isScheduledCall(const Graph::Op &op) const {
    return op.callee >= 0 && size_t(op.callee) < self_;
  }
  const Graph::Kind &kindOf(uint32_t op) const {
    return graph_.kinds[fn_.ops[op].kind];
  }

  /// Reserves a memory port of `bank`; an unknown bank blocks the same
  /// slot of every open class of its base too.
  bool reservePort(int32_t bank, int64_t &cycle, int64_t ii) {
    if (!ports_.reserve(bank, cycle, target_.memPortsPerBank, ii))
      return false;
    const Graph::Bank &own = fn_.banks[bank];
    if (!own.known)
      for (uint32_t other : ports_.open())
        if (other != uint32_t(bank) && fn_.banks[other].base == own.base)
          ports_.add(other, ii ? cycle % ii : cycle);
    return true;
  }

  /// Functional-unit allocation limit (Vitis `allocation` directive).
  bool reserveFU(uint16_t fuClass, int64_t &cycle, int64_t ii) {
    int limit = limits_[fuClass];
    return limit <= 0 || fus_.reserve(fuClass, cycle, limit, ii);
  }

  // ====================== straight-line scheduling ======================

  /// List scheduling with operator chaining and per-bank port limits.
  void scheduleBlock(uint32_t b) {
    const Graph::Block &block = fn_.blocks[b];
    ports_.clear();
    fus_.clear();
    int64_t blockLat = 0;
    // Calls are control barriers: they start after everything before them
    // and everything after waits for them (no dataflow overlap).
    int64_t barrierFloor = 0;
    int64_t maxEndSoFar = 0;

    for (uint32_t i = block.begin; i < block.end; ++i) {
      const Graph::Op &op = fn_.ops[i];
      const double delay = kindOf(i).delayNs;
      int64_t start = barrierFloor;
      double pathDelay = delay;
      const bool isUserCall = op.callee >= 0;
      if (isUserCall)
        start = std::max(start, maxEndSoFar);

      for (uint32_t k = 0; k < op.numOperands; ++k) {
        uint32_t def = fn_.operands[op.firstOperand + k];
        if (lat_[def] == 0) {
          // Chaining candidate: same cycle if combinational budget holds.
          if (start_[def] > start) {
            start = start_[def];
            pathDelay = path_[def] + delay;
          } else if (start_[def] == start) {
            pathDelay = std::max(pathDelay, path_[def] + delay);
          }
          if (pathDelay > target_.clockPeriodNs) {
            start += 1;
            pathDelay = delay;
          }
        } else if (start_[def] + lat_[def] > start) {
          start = start_[def] + lat_[def];
          pathDelay = delay;
        }
      }

      if (op.bank >= 0)
        reservePort(op.bank, start, 0);
      reserveFU(kindOf(i).fuClass, start, 0);

      start_[i] = start;
      path_[i] = pathDelay;
      achievedPeriod_ = std::max(achievedPeriod_, pathDelay);
      blockLat = std::max(blockLat, start + lat_[i]);
      maxEndSoFar = std::max(maxEndSoFar, start + lat_[i]);
      if (isUserCall)
        barrierFloor = start + lat_[i];
    }
    // Every block costs at least one FSM state.
    blockLatency_[b] = std::max<int64_t>(1, blockLat);
    fsmStates_ += blockLatency_[b];
  }

  // ====================== loops ======================

  void processLoop(uint32_t l) {
    const Graph::Loop &gl = fn_.loops[l];
    LoopReport lr;
    lr.name = gl.name;
    lr.depth = gl.depth;
    lr.tripCount = gl.tripCount;
    lr.targetII = gl.targetII;
    lr.pipelined = gl.body >= 0;
    lr.note = gl.note;
    int64_t trip = lr.tripCount >= 0 ? lr.tripCount : 1;

    if (lr.pipelined) {
      moduloSchedule(gl, lr);
      lr.totalLatency =
          pipelinedLoopLatency(lr.iterationLatency, trip, lr.achievedII);
    } else if (tryFlatten(gl, trip, lr)) {
      // Perfect nest over a pipelined inner loop: flatten (Vitis default)
      // so the pipeline fill/flush is paid once, not per outer iteration.
    } else {
      // Sequential: per-iteration latency is the header test plus the
      // directly-contained blocks plus nested loop totals.
      int64_t iter = 0;
      for (uint32_t b : gl.blocks)
        iter += blockLatency_[b];
      for (uint32_t sub : gl.subLoops)
        iter += loopTotal_[sub];
      lr.iterationLatency = iter;
      lr.totalLatency = sequentialLoopLatency(trip, iter);
    }
    loopTotal_[l] = lr.totalLatency;
    report_.loops.push_back(std::move(lr)); // loops[l], subloops before it
  }

  /// Flattens a perfectly-nested sequential loop over one pipelined (or
  /// itself flattened) subloop: the nest runs as a single pipeline of
  /// outerTrip * innerIterations at the inner II. Requires the blocks the
  /// outer loop contributes directly to be pure control (no datapath).
  bool tryFlatten(const Graph::Loop &gl, int64_t trip, LoopReport &lr) {
    if (gl.subLoops.size() != 1 || trip <= 0 || !gl.controlOnly)
      return false;
    const LoopReport &sub = report_.loops[gl.subLoops[0]];
    if (!sub.pipelined || sub.achievedII <= 0 || sub.tripCount <= 0)
      return false;
    lr.achievedII = sub.achievedII;
    lr.recMII = sub.recMII;
    lr.resMII = sub.resMII;
    lr.iterationLatency = sub.iterationLatency;
    lr.tripCount = trip * sub.tripCount; // flattened trip
    lr.pipelined = true;
    lr.note = "flattened";
    lr.totalLatency = pipelinedLoopLatency(sub.iterationLatency, lr.tripCount,
                                           sub.achievedII);
    return true;
  }

  /// Modulo scheduling of a canonical innermost loop body (the latch
  /// block). Computes RecMII from loop-carried dependences, ResMII from
  /// memory-port pressure, then finds the smallest feasible II.
  void moduloSchedule(const Graph::Loop &gl, LoopReport &lr) {
    const Graph::Block &body = fn_.blocks[gl.body];
    const int64_t *lat = &lat_[body.begin];
    const size_t n = body.end - body.begin;

    // --- ResMII: port pressure and functional-unit allocation limits ---
    int64_t resMII = std::max<int64_t>(
        1, portLimitedMII(gl.portDemand, target_.memPortsPerBank));
    if (!target_.fuLimits.empty()) {
      std::vector<int64_t> classOps(limits_.size(), 0);
      for (uint32_t i = body.begin; i < body.end; ++i)
        ++classOps[kindOf(i).fuClass];
      for (size_t fu = 0; fu < classOps.size(); ++fu)
        if (limits_[fu] > 0 && classOps[fu] > 0)
          resMII = std::max(resMII,
                            allocationLimitedMII(classOps[fu], limits_[fu]));
    }
    lr.resMII = resMII;

    // --- RecMII ---
    // For each carried edge s->t (distance d): II*d >= lat(s) +
    // longestPath(t -> s) over the intra-iteration edges. Those point
    // forward, so one sweep in body order per destination t finds every
    // longest path out of t.
    const int64_t kNegInf = INT64_MIN / 4;
    std::vector<int64_t> longest(n);
    int64_t recMII = 1;
    for (auto dep = gl.deps.begin(); dep != gl.deps.end();) {
      auto group = std::find_if(dep, gl.deps.end(), [&](const Graph::Dep &d) {
        return d.dst != dep->dst;
      });
      if (std::any_of(dep, group,
                      [](const Graph::Dep &d) { return d.distance > 0; })) {
        const uint32_t t = dep->dst;
        std::fill(longest.begin(), longest.end(), kNegInf);
        longest[t] = 0;
        for (const auto &[from, to] : gl.edges)
          if (longest[from] != kNegInf)
            longest[to] = std::max(longest[to], longest[from] + lat[from]);
        for (auto d = dep; d != group; ++d)
          if (d->distance > 0) {
            int64_t path = longest[d->src] == kNegInf ? 0 : longest[d->src];
            recMII = std::max(recMII,
                              recurrenceMII(lat[d->src] + path, d->distance));
          }
      }
      dep = group;
    }
    lr.recMII = recMII;

    // --- iterative modulo scheduling ---
    int64_t mii = std::max({resMII, recMII, gl.targetII});
    for (int64_t ii = mii; ii <= mii + 128; ++ii) {
      int64_t depth = 0;
      if (tryModuloSchedule(gl, body, ii, depth)) {
        lr.achievedII = ii;
        lr.iterationLatency = depth;
        return;
      }
    }
    // Should not happen; fall back to sequential.
    lr.achievedII = blockLatency_[gl.body];
    lr.iterationLatency = blockLatency_[gl.body];
    lr.note = "modulo scheduling failed; serialized";
  }

  bool tryModuloSchedule(const Graph::Loop &gl, const Graph::Block &body,
                         int64_t ii, int64_t &depthOut) {
    const uint32_t begin = body.begin;
    const size_t n = body.end - begin;
    std::vector<int64_t> start(n, -1); // -1: not placed yet
    bool changed = true;
    int sweeps = 0;
    while (changed) {
      if (++sweeps > 64)
        return false;
      changed = false;
      // Reservation tables rebuilt per sweep.
      ports_.clear();
      fus_.clear();
      auto dep = gl.deps.begin();
      for (uint32_t k = 0; k < n; ++k) {
        const Graph::Op &op = fn_.ops[begin + k];
        int64_t lb = 0;
        for (uint32_t j = 0; j < op.numOperands; ++j) {
          uint32_t def = fn_.operands[op.firstOperand + j] - begin;
          lb = std::max(lb, start[def] + std::max<int64_t>(lat_[begin + def], 0));
        }
        for (; dep != gl.deps.end() && dep->dst == k; ++dep)
          if (start[dep->src] >= 0)
            lb = std::max(lb, start[dep->src] + lat_[begin + dep->src] -
                                  ii * dep->distance);
        int64_t cycle = std::max(lb, int64_t(0));
        if (op.loopBank >= 0 && !reservePort(op.loopBank, cycle, ii))
          return false;
        if (!reserveFU(kindOf(begin + k).fuClass, cycle, ii))
          return false;
        if (start[k] != cycle) {
          start[k] = cycle;
          changed = true;
        }
      }
    }
    int64_t depth = 1;
    for (uint32_t k = 0; k < n; ++k) {
      depth = std::max(depth, start[k] + std::max<int64_t>(lat_[begin + k], 1));
      start_[begin + k] = start[k]; // for FU counting
    }
    depthOut = depth;
    pipelinedII_[gl.body] = ii;
    return true;
  }

  // ====================== binding ======================

  void bindResources() {
    // FU demand per class: for pipelined bodies ceil(ops/II); for
    // straight-line code the max number of same-class ops issued in one
    // cycle. FUs are reused across regions (max, not sum).
    const size_t classes = limits_.size();
    std::vector<int64_t> fuCount(classes, 0), perBody(classes);
    std::vector<std::pair<uint16_t, int64_t>> issued; // (class, cycle)
    for (size_t b = 0; b < fn_.blocks.size(); ++b) {
      const Graph::Block &block = fn_.blocks[b];
      const int64_t ii = pipelinedII_[b];
      std::fill(perBody.begin(), perBody.end(), 0);
      issued.clear();
      for (uint32_t i = block.begin; i < block.end; ++i) {
        const Graph::Kind &kind = kindOf(i);
        if (kind.perUnit.dsp == 0 && kind.perUnit.lut == 0)
          continue;
        if (ii > 0)
          ++perBody[kind.fuClass];
        else
          issued.push_back({kind.fuClass, start_[i]});
      }
      for (size_t fu = 0; fu < classes; ++fu)
        if (perBody[fu] > 0)
          fuCount[fu] = std::max(fuCount[fu], pipelinedFuDemand(perBody[fu], ii));
      std::sort(issued.begin(), issued.end());
      for (size_t i = 0, j = 0; i < issued.size(); i = j) {
        while (j < issued.size() && issued[j] == issued[i])
          ++j;
        fuCount[issued[i].first] =
            std::max<int64_t>(fuCount[issued[i].first], int64_t(j - i));
      }
    }

    ResourceUsage total;
    for (size_t fu = 0; fu < classes; ++fu) {
      int64_t count = fuCount[fu];
      if (count == 0)
        continue;
      // The allocation limit caps how many units ever get instantiated.
      if (limits_[fu] > 0)
        count = std::min<int64_t>(count, limits_[fu]);
      const ResourceUsage &cost = graph_.kinds[fn_.fuCostKind[fu]].perUnit;
      total.dsp += cost.dsp * count;
      total.lut += cost.lut * count;
      total.ff += cost.ff * count;
    }
    // Control FSM overhead.
    total += fsmOverhead(report_.fsmStates, target_);
    // Memories: on-chip arrays are BRAMs (interface arrays are the
    // caller's).
    report_.arrays = fn_.arrays;
    total.bram += fn_.onChipBram;
    // Called user functions instantiate their resources per call site.
    for (const Graph::Op &op : fn_.ops)
      if (isScheduledCall(op))
        total += callees_[op.callee].resources;
    report_.resources = total;
  }

  const Graph &graph_;
  const Graph::Function &fn_;
  const size_t self_;
  const std::vector<FunctionReport> &callees_;
  const TargetSpec &target_;
  FunctionReport report_;

  std::vector<int> limits_;              // per fu class (0 = none)
  std::vector<int64_t> lat_;             // per op, callee-aware
  std::vector<int64_t> start_;           // per op: scheduled start cycle
  std::vector<double> path_;             // per op: chained delay (list)
  std::vector<int64_t> blockLatency_;    // per block
  std::vector<int64_t> pipelinedII_;     // per block (0 = not pipelined)
  std::vector<int64_t> loopTotal_;       // per loop
  Reservations ports_, fus_;
  int64_t fsmStates_ = 0;
  double achievedPeriod_ = 0;
};

} // namespace

void unrollByDirectives(lir::Module &module) {
  for (Function *fn : module.functions())
    if (!fn->isDeclaration())
      unrollFunction(*fn);
}

ScheduleGraph elaborate(lir::Module &module, bool applyUnrollDirectives,
                        DiagnosticEngine &diags) {
  ScheduleGraph graph;
  DiagnosticEngine check;
  graph.compat = lir::checkHlsCompatibility(module, check);
  graph.diagnostics = check.diagnostics();
  for (const Diagnostic &diag : graph.diagnostics)
    diags.report(diag);
  if (!graph.compat.accepted)
    return graph;
  if (applyUnrollDirectives)
    unrollByDirectives(module);

  // Bottom-up over the (acyclic) call graph: callees first.
  std::vector<Function *> order;
  std::set<Function *> visited;
  std::function<void(Function *)> visit = [&](Function *fn) {
    if (!visited.insert(fn).second || fn->isDeclaration())
      return;
    for (lir::BasicBlock *bb : fn->blockPtrs())
      for (auto &inst : *bb)
        if (inst->opcode() == Opcode::Call)
          if (Function *callee = inst->calledFunction())
            visit(callee);
    order.push_back(fn);
  };
  for (Function *fn : module.functions())
    visit(fn);
  std::unordered_map<const Function *, int32_t> index;
  for (size_t i = 0; i < order.size(); ++i)
    index[order[i]] = static_cast<int32_t>(i);
  for (Function *fn : order)
    graph.functions.push_back(Elaborator(graph, *fn, index).run());
  return graph;
}

SynthesisReport schedule(const ScheduleGraph &graph,
                         const SynthesisOptions &options) {
  SynthesisReport report;
  report.compat = graph.compat;
  report.accepted = graph.compat.accepted &&
                    (!options.strictAcceptance || graph.compat.warnings == 0);
  if (!report.accepted)
    return report;
  for (size_t i = 0; i < graph.functions.size(); ++i)
    report.functions.push_back(FunctionScheduler(graph, graph.functions[i], i,
                                                 report.functions,
                                                 options.target)
                                   .run());
  report.topName = options.topFunction;
  if (report.topName.empty() && !report.functions.empty())
    report.topName = report.functions.back().name;
  return report;
}

SynthesisReport synthesize(lir::Module &module,
                           const SynthesisOptions &options,
                           DiagnosticEngine &diags) {
  return schedule(
      elaborate(module, options.applyUnrollDirectives, diags), options);
}

} // namespace mha::vhls
