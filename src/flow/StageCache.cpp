#include "flow/StageCache.h"

#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"

#include <list>
#include <mutex>
#include <unordered_map>

namespace mha::flow {

namespace {

using Counters = StageCache::Counters;
constexpr size_t kStages = std::variant_size_v<StageCache::Entry>;

/// Per-stage constants: the metrics label, the "flow.cache" statistics,
/// and the stage's named Counters fields.
struct StageInfo {
  const char *name;
  telemetry::Statistic hit, miss;
  int64_t Counters::*hits, Counters::*misses, Counters::*bytes,
      Counters::*evictions;
};
StageInfo stageInfo[kStages] = {
    {"mlir",
     {"flow.cache", "mlir.hit", "MLIR-stage cache hits"},
     {"flow.cache", "mlir.miss", "MLIR-stage cache misses"},
     &Counters::mlirHits, &Counters::mlirMisses, &Counters::mlirBytes,
     &Counters::mlirEvictions},
    {"bridge",
     {"flow.cache", "bridge.hit", "bridge-stage cache hits"},
     {"flow.cache", "bridge.miss", "bridge-stage cache misses"},
     &Counters::bridgeHits, &Counters::bridgeMisses, &Counters::bridgeBytes,
     &Counters::bridgeEvictions},
    {"synth",
     {"flow.cache", "synth.hit", "synthesis-stage cache hits"},
     {"flow.cache", "synth.miss", "synthesis-stage cache misses"},
     &Counters::synthHits, &Counters::synthMisses, &Counters::synthBytes,
     &Counters::synthEvictions},
    {"graph",
     {"flow.cache", "graph.hit", "schedule-graph cache hits"},
     {"flow.cache", "graph.miss", "schedule-graph cache misses"},
     &Counters::graphHits, &Counters::graphMisses, &Counters::graphBytes,
     &Counters::graphEvictions}};
telemetry::Statistic statEvicted("flow.cache", "evicted",
                                 "stage-cache entries evicted (LRU)");

/// Per-stage entry-count backstop, independent of the byte cap: even an
/// unlimited cache sheds its coldest entry once a stage map reaches this
/// many entries.
constexpr size_t kMaxEntriesPerStage = 4096;

/// Structural payload size of a cached value: strings at their length,
/// report and graph structures via sizeof plus owned string/vector
/// payloads. An approximation (malloc slack and map-node overhead are not
/// counted) but a consistent one: store/evict adjustments always agree.
int64_t payloadBytes(const std::string &text) {
  return static_cast<int64_t>(text.size());
}

int64_t payloadBytes(const StageCache::BridgeEntry &entry) {
  int64_t n = static_cast<int64_t>(sizeof(entry) + entry.lirText.size() +
                                   entry.hlsCpp.size());
  for (const auto &[name, value] : entry.adaptorStats)
    n += static_cast<int64_t>(name.size() + sizeof(value));
  for (const Diagnostic &diag : entry.diagnostics)
    n += static_cast<int64_t>(sizeof(diag) + diag.message.size());
  return n;
}

int64_t payloadBytes(const StageCache::SynthEntry &entry) {
  const vhls::SynthesisReport &report = entry.report;
  int64_t n = static_cast<int64_t>(sizeof(entry) + report.topName.size());
  for (const Diagnostic &diag : entry.diagnostics)
    n += static_cast<int64_t>(sizeof(diag) + diag.message.size());
  for (const auto &[name, value] : report.compat.violations)
    n += static_cast<int64_t>(name.size() + sizeof(value));
  for (const vhls::FunctionReport &fn : report.functions) {
    n += static_cast<int64_t>(sizeof(fn) + fn.name.size());
    for (const vhls::LoopReport &loop : fn.loops)
      n += static_cast<int64_t>(sizeof(loop) + loop.name.size() +
                                loop.note.size());
    for (const vhls::ArrayReport &array : fn.arrays)
      n += static_cast<int64_t>(sizeof(array) + array.name.size() +
                                array.partition.size());
  }
  return n;
}

template <typename T> int64_t arrayBytes(const std::vector<T> &v) {
  return static_cast<int64_t>(v.size() * sizeof(T));
}

int64_t payloadBytes(const StageCache::GraphPtr &graph) {
  int64_t n = static_cast<int64_t>(sizeof(*graph)) +
              arrayBytes(graph->kinds) + arrayBytes(graph->fuClasses) +
              arrayBytes(graph->functions);
  for (const auto &[name, value] : graph->compat.violations)
    n += static_cast<int64_t>(name.size() + sizeof(value));
  for (const Diagnostic &diag : graph->diagnostics)
    n += static_cast<int64_t>(sizeof(diag) + diag.message.size());
  for (const std::string &fuClass : graph->fuClasses)
    n += static_cast<int64_t>(fuClass.size());
  for (const vhls::ScheduleGraph::Function &fn : graph->functions) {
    n += static_cast<int64_t>(fn.name.size()) + arrayBytes(fn.ops) +
         arrayBytes(fn.operands) + arrayBytes(fn.blocks) +
         arrayBytes(fn.rpo) + arrayBytes(fn.banks) + arrayBytes(fn.loops) +
         arrayBytes(fn.topLoops) + arrayBytes(fn.fuCostKind) +
         arrayBytes(fn.arrays);
    for (const vhls::ScheduleGraph::Loop &loop : fn.loops)
      n += static_cast<int64_t>(loop.name.size() + loop.note.size()) +
           arrayBytes(loop.blocks) + arrayBytes(loop.subLoops) +
           arrayBytes(loop.deps) + arrayBytes(loop.edges);
    for (const vhls::ArrayReport &array : fn.arrays)
      n += static_cast<int64_t>(array.name.size() + array.partition.size());
  }
  return n;
}

int64_t entryBytes(const StageCache::Entry &entry) {
  return std::visit([](const auto &value) { return payloadBytes(value); },
                    entry);
}

/// LRU bookkeeping per stage map. The recency list holds (key, seq)
/// pairs, most-recent at the front; `seq` is a cache-wide monotonic touch
/// counter, so the backs of the stage lists can be compared to find the
/// globally coldest entry when the byte cap needs space.
using LruList = std::list<std::pair<uint64_t, uint64_t>>;

struct StageMap {
  struct Node {
    StageCache::Entry value;
    LruList::iterator lru;
  };
  std::unordered_map<uint64_t, Node> map;
  LruList lru;
  // mha_stage_cache_* series: hit/miss/eviction counters gated on
  // metrics::enabled(); the resident-bytes gauge tracks the structural
  // byte total unconditionally so it always matches counters().
  metrics::Counter *hits = nullptr, *misses = nullptr, *evictions = nullptr;
  metrics::Gauge *bytes = nullptr;

  /// `seq` of the least-recently-used entry (the eviction candidate);
  /// UINT64_MAX when the map is empty so it never wins the coldest race.
  uint64_t coldestSeq() const {
    return lru.empty() ? UINT64_MAX : lru.back().second;
  }
};

} // namespace

struct StageCache::Impl {
  mutable std::mutex mutex;
  StageMap stages[kStages];
  Counters counters;
  int64_t limitBytes = 0; // 0 = unbounded
  uint64_t nextSeq = 0;

  Impl() {
    metrics::Registry &reg = metrics::Registry::global();
    for (size_t s = 0; s < kStages; ++s) {
      metrics::Labels labels = {{"stage", stageInfo[s].name}};
      stages[s].hits = &reg.counter("mha_stage_cache_hits_total",
                                    "stage-cache lookup hits", labels);
      stages[s].misses = &reg.counter("mha_stage_cache_misses_total",
                                      "stage-cache lookup misses", labels);
      stages[s].evictions =
          &reg.counter("mha_stage_cache_evictions_total",
                       "stage-cache entries evicted (LRU)", labels);
      stages[s].bytes = &reg.gauge("mha_stage_cache_bytes",
                                   "payload bytes resident in the stage map",
                                   labels);
    }
  }

  /// Drops the LRU entry of `stage`, keeping its byte total, eviction
  /// counters and resident-bytes gauge in step.
  void evictColdest(size_t stage) {
    StageMap &m = stages[stage];
    int64_t &bytes = counters.*stageInfo[stage].bytes;
    auto it = m.map.find(m.lru.back().first);
    bytes -= entryBytes(it->second.value);
    m.map.erase(it);
    m.lru.pop_back();
    ++(counters.*stageInfo[stage].evictions);
    ++*m.evictions;
    ++statEvicted;
    m.bytes->set(bytes);
  }

  /// Evicts globally-coldest entries (across all stages) until the total
  /// payload fits the byte cap again.
  void enforceLimit() {
    if (limitBytes <= 0)
      return;
    while (counters.bytes() > limitBytes) {
      size_t coldest = 0;
      for (size_t s = 1; s < kStages; ++s)
        if (stages[s].coldestSeq() < stages[coldest].coldestSeq())
          coldest = s;
      if (stages[coldest].lru.empty())
        return; // all maps empty (cannot happen while bytes() > 0)
      evictColdest(coldest);
    }
  }
};

StageCache::Impl &StageCache::impl() const {
  static Impl instance;
  return instance;
}

StageCache &StageCache::global() {
  static StageCache instance;
  return instance;
}

metrics::Histogram &StageCache::keyHistogram() {
  static metrics::Histogram &hist = metrics::Registry::global().histogram(
      "mha_stage_cache_key_us", "stage-cache key computation time");
  return hist;
}

uint64_t StageCache::synthKey(const std::string &lirText,
                              const vhls::SynthesisOptions &options) {
  metrics::Timer timer(keyHistogram());
  HashBuilder hb;
  hb.str("synth").str(lirText);
  const vhls::TargetSpec &t = options.target;
  hb.f64Bits(t.clockPeriodNs).i64(t.memPortsPerBank);
  for (const auto &[fuClass, limit] : t.fuLimits)
    hb.str(fuClass).i64(limit);
  hb.i64(t.deviceDsp)
      .i64(t.deviceBram)
      .i64(t.deviceLut)
      .i64(t.deviceFf)
      .i64(t.lutPerState)
      .i64(t.ffPerState);
  hb.str(options.topFunction)
      .boolean(options.applyUnrollDirectives)
      .boolean(options.strictAcceptance);
  return hb.get();
}

bool StageCache::lookup(Stage stage, uint64_t key, Entry &out) {
  Impl &i = impl();
  size_t s = static_cast<size_t>(stage);
  std::lock_guard<std::mutex> guard(i.mutex);
  StageMap &m = i.stages[s];
  auto it = m.map.find(key);
  bool hit = it != m.map.end();
  ++(hit ? stageInfo[s].hit : stageInfo[s].miss);
  ++(i.counters.*(hit ? stageInfo[s].hits : stageInfo[s].misses));
  ++*(hit ? m.hits : m.misses);
  if (!hit)
    return false;
  // Refresh recency: a hit entry moves to the front with a fresh seq.
  m.lru.splice(m.lru.begin(), m.lru, it->second.lru);
  it->second.lru->second = i.nextSeq++;
  out = it->second.value;
  return true;
}

void StageCache::store(uint64_t key, Entry value) {
  Impl &i = impl();
  size_t s = value.index();
  std::lock_guard<std::mutex> guard(i.mutex);
  StageMap &m = i.stages[s];
  int64_t &bytes = i.counters.*stageInfo[s].bytes;
  auto it = m.map.find(key);
  if (it != m.map.end()) {
    bytes -= entryBytes(it->second.value);
    m.lru.erase(it->second.lru);
    m.map.erase(it);
  } else if (m.map.size() >= kMaxEntriesPerStage) {
    i.evictColdest(s);
  }
  bytes += entryBytes(value);
  m.lru.emplace_front(key, i.nextSeq++);
  m.map.emplace(key, StageMap::Node{std::move(value), m.lru.begin()});
  m.bytes->set(bytes);
  i.enforceLimit();
}

void StageCache::setLimitBytes(int64_t limitBytes) {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  i.limitBytes = limitBytes > 0 ? limitBytes : 0;
  i.enforceLimit();
}

int64_t StageCache::limitBytes() const {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  return i.limitBytes;
}

StageCache::Counters StageCache::counters() const {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  return i.counters;
}

void StageCache::clear() {
  Impl &i = impl();
  std::lock_guard<std::mutex> guard(i.mutex);
  for (StageMap &m : i.stages) {
    m.map.clear();
    m.lru.clear();
    m.bytes->set(0);
  }
  i.counters = Counters();
}

} // namespace mha::flow
