// serve-mixed: an in-process serve::Server on a Unix socket with two
// compile workers and a StageCache byte limit below the primed working
// set, so entries are evicted while requests are read. An open-loop
// generator (two threads, one connection each) sends at a fixed rate;
// each request is timed from when it was due. The mix, dealt in seeded
// decks of 50:
//   40 warm built-in kernel requests from the primed working set (both
//      flows; the limit keeps some of them evicted),
//    5 new design points outside the grid,
//    4 inline-MLIR requests (module text printed at set-up, so the
//      daemon's probe path parses it),
//    1 malformed frame that must get its typed error.
// After the main phase at kMainRate, a ladder of higher rates finds the
// highest rate whose p99 meets kLimitMs with no refusals and no growing
// backlog.
#include "Bench.h"
#include "Layers.h"
#include "Replica.h"

#include "flow/StageCache.h"
#include "lir/Printer.h"
#include "mir/MContext.h"
#include "mir/Parser.h"
#include "mir/Printer.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Session.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace perfbench {

using namespace mha;

namespace {

constexpr double kMainRate = 300;  // requests per second
constexpr double kLimitMs = 10;    // p99 latency limit from the due time
constexpr int kLadderRequests = 1200; // per rung: p99 with 12 beyond it
const double kLadder[] = {600, 1200, 3600};
constexpr int kWorkers = 2;
constexpr double kLimitShare = 0.95; // cache limit / primed working set
constexpr int kMainBlocks = 3;
/// Least requests per main block: after the malformed frames leave, its
/// p99 still has more than 10 samples beyond it.
constexpr int kBlockRequests = 1150;
constexpr int kAttempts = 3; // tries per ladder rung
/// Latency recorded for a refused or unanswered request: it misses any
/// limit, so it counts against the percentiles instead of vanishing.
constexpr double kMissedMs = 1e6;

enum class Kind { Warm, NewPoint, Inline, Malformed };

struct Request {
  Kind kind = Kind::Warm;
  int design = -1; // index into the distinct compile designs
  std::string id, frame, expectCode;
  Clock::time_point due, sent, accepted, done;
  bool gotDone = false, ok = false;
  std::string code;
  uint64_t digest = 0;
  double queueMs = 0;   // admitted -> worker start (done.queue_us)
  double compileMs = 0; // the daemon's own flow time (done.compile_us)
};

/// The fixed prefix every response line starts with (Protocol.cpp head()).
bool parseHead(const std::string &line, std::string &id, std::string &event) {
  static const std::string idKey = "\"id\": \"", eventKey = "\"event\": \"";
  size_t i = line.find(idKey);
  if (i == std::string::npos)
    return false;
  i += idKey.size();
  size_t j = line.find('"', i);
  size_t e = line.find(eventKey, j);
  if (j == std::string::npos || e == std::string::npos)
    return false;
  id = line.substr(i, j - i);
  e += eventKey.size();
  event = line.substr(e, line.find('"', e) - e);
  return true;
}

std::string field(const std::string &line, const char *key) {
  std::string needle = strfmt("\"%s\": \"", key);
  size_t i = line.find(needle);
  if (i == std::string::npos)
    return "";
  i += needle.size();
  return line.substr(i, line.find('"', i) - i);
}

/// One client connection, driven by one generator thread.
class Connection {
public:
  explicit Connection(const std::string &path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                              sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0)
      ::close(fd_);
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `mine` at their due times and reads events until every one
  /// has its `done` (or `drainMs` passes after the last send).
  void run(std::vector<Request *> &mine, std::atomic<int> &outstanding,
           std::atomic<int> &backlogMax, int &finalBacklog, double drainMs);

private:
  bool sendFrame(const std::string &frame);
  void onLine(const std::string &line, Clock::time_point now);

  int fd_ = -1;
  std::string buffer_;
  std::unordered_map<std::string, Request *> byId_;
  std::vector<Request *> noId_; // frames whose id the daemon cannot recover
  size_t noIdNext_ = 0;
  int pending_ = 0;
  std::atomic<int> *outstanding_ = nullptr;
};

bool Connection::sendFrame(const std::string &frame) {
  std::string line = frame + "\n";
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR)
      continue;
    if (n <= 0)
      return false;
    off += size_t(n);
  }
  return true;
}

void Connection::onLine(const std::string &line, Clock::time_point now) {
  std::string id, event;
  if (!parseHead(line, id, event))
    return;
  Request *req = nullptr;
  if (id.empty()) {
    if (noIdNext_ < noId_.size())
      req = noId_[noIdNext_];
  } else if (auto it = byId_.find(id); it != byId_.end()) {
    req = it->second;
  }
  if (!req)
    return;
  if (event == "accepted") {
    req->accepted = now;
  } else if (event == "result") {
    std::string needle = "\"id\": \"" + id + "\"";
    std::string canon = line;
    canon.replace(canon.find(needle), needle.size(), "\"id\": \"X\"");
    req->digest = digest(canon);
  } else if (event == "done") {
    req->done = now;
    req->gotDone = true;
    req->ok = field(line, "status") == "ok";
    req->code = field(line, "code");
    size_t us = line.find("\"queue_us\": ");
    if (us != std::string::npos)
      req->queueMs = std::atof(line.c_str() + us + 12) / 1000.0;
    us = line.find("\"compile_us\": ");
    if (us != std::string::npos)
      req->compileMs = std::atof(line.c_str() + us + 14) / 1000.0;
    if (id.empty())
      ++noIdNext_;
    --pending_;
    outstanding_->fetch_sub(1);
  }
}

void Connection::run(std::vector<Request *> &mine,
                     std::atomic<int> &outstanding,
                     std::atomic<int> &backlogMax, int &finalBacklog,
                     double drainMs) {
  outstanding_ = &outstanding;
  byId_.clear();
  noId_.clear();
  noIdNext_ = 0;
  pending_ = 0;
  for (Request *req : mine) {
    if (req->expectCode == serve::errc::ParseError)
      noId_.push_back(req);
    else
      byId_[req->id] = req;
  }
  size_t next = 0;
  Clock::time_point lastSend = Clock::now();
  char chunk[65536];
  while (next < mine.size() || pending_ > 0) {
    Clock::time_point now = Clock::now();
    while (next < mine.size() && mine[next]->due <= now) {
      Request *req = mine[next++];
      req->sent = Clock::now();
      ++pending_;
      int backlog = outstanding.fetch_add(1) + 1;
      int seen = backlogMax.load();
      while (backlog > seen && !backlogMax.compare_exchange_weak(seen, backlog)) {
      }
      if (!sendFrame(req->frame))
        return; // the daemon went away: the missing dones fail the run
      lastSend = req->sent;
      if (next == mine.size())
        finalBacklog = backlog;
      now = Clock::now();
    }
    double waitMs = next < mine.size()
                        ? msBetween(now, mine[next]->due)
                        : drainMs - msBetween(lastSend, now);
    if (next >= mine.size() && waitMs <= 0)
      return; // drain deadline passed
    waitMs = std::max(waitMs, 0.0);
    timespec timeout{static_cast<time_t>(waitMs / 1000.0),
                     static_cast<long>(std::fmod(waitMs, 1000.0) * 1e6)};
    pollfd pfd{fd_, POLLIN, 0};
    if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0)
      continue;
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0)
      return;
    Clock::time_point arrived = Clock::now();
    buffer_.append(chunk, size_t(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
         start = nl + 1)
      onLine(buffer_.substr(start, nl - start), arrived);
    buffer_.erase(0, start);
  }
}

/// The malformed frames, cycled; each must get its typed error.
void malformedFrame(int which, const std::string &id, Request &req) {
  switch (which % 4) {
  case 0:
    req.frame = "{\"schema\": \"mha.serve.req.v1\", \"id\": \"" + id +
                "\", \"type\": \"compile\", \"kernel\": ";
    req.expectCode = serve::errc::ParseError;
    break;
  case 1:
    req.frame = "{\"schema\": \"mha.serve.req.v1\", \"id\": \"" + id +
                "\", \"type\": \"compile\", \"kernel\": \"gemm\", "
                "\"bogus\": 1}";
    req.expectCode = serve::errc::BadRequest;
    break;
  case 2:
    req.frame = "{\"schema\": \"mha.serve.req.v0\", \"id\": \"" + id +
                "\", \"type\": \"compile\", \"kernel\": \"gemm\"}";
    req.expectCode = serve::errc::BadRequest;
    break;
  default:
    req.frame = "{\"schema\": \"mha.serve.req.v1\", \"id\": \"" + id +
                "\", \"type\": \"compile\", \"kernel\": \"no-such-kernel\"}";
    req.expectCode = serve::errc::UnknownKernel;
    break;
  }
}

struct PhaseStats {
  int64_t requests = 0, refused = 0, missing = 0;
  Percentile p50, p99, late99;
  double achievedRps = 0;
  double durationMs = 0;
  int backlogMax = 0;
  bool passes = false;
  std::vector<double> latencies;
};

class ServeBench {
public:
  ServeBench(const Options &options, Result &result)
      : options_(options), result_(result), rng_(options.seed) {}

  void run();
  std::map<std::string, double> probe();

private:
  void init();
  bool start(int reps, std::vector<double> &setupS);
  std::vector<PhaseStats> runMain(int blocks, int count,
                                  std::vector<double> &scales);
  /// Times parseRequest over every frame sent, stops the daemon and
  /// checks every result; returns the parse times.
  std::vector<double> finish(std::vector<double> &renderUs);
  std::map<std::string, double>
  serveRows(const std::vector<PhaseStats> &main,
            const std::vector<double> &parseUs,
            const std::vector<double> &renderUs) const;
  void calibrate();
  void setUp();
  void makeInlineDesigns();
  void tearDown();
  int designIndex(const Design &design);
  std::vector<Request> deal(int count, const std::string &prefix);
  PhaseStats runPhase(std::vector<Request> &requests, double rate);
  void checkResults(std::vector<double> &renderUs);
  void traceReplay(TraceSummary &trace, Ledger &ledger);

  const Options &options_;
  Result &result_;
  Rng rng_;
  std::string socketPath_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<Connection> conns_[2];

  std::vector<Design> grid_, offGrid_, warm_;
  size_t nextNew_ = 0;
  std::vector<Qor> warmQor_;
  // Inline-MLIR kernels: synthetic specs wrapping the module text printed
  // at set-up, built as serve::runSession builds them; inline_ holds
  // both flows of inlineText_[i] at 2i and 2i+1.
  std::vector<std::unique_ptr<flow::KernelSpec>> inlineSpecs_;
  std::vector<std::string> inlineText_;
  std::vector<Design> inline_;
  // Distinct compile designs requested (cold twins are taken per design).
  std::vector<Design> designs_;
  std::unordered_map<std::string, int> designIds_;
  std::vector<std::vector<Request>> phases_;
  size_t mainPhases_ = 0;
  int malformedDealt_ = 0;
  int64_t primedBytes_ = 0;
  HostSpeed speed_;
};

void ServeBench::tearDown() {
  for (auto &conn : conns_)
    conn.reset();
  if (server_)
    server_->stop();
  server_.reset();
}

void ServeBench::makeInlineDesigns() {
  for (const std::string &text : inlineText_) {
    auto spec = std::make_unique<flow::KernelSpec>();
    spec->name = serve::inlineKernelName(text);
    spec->description = "inline MLIR request";
    spec->build = [text](mir::MContext &ctx, const flow::KernelConfig &) {
      DiagnosticEngine diags;
      return std::move(*mir::parseModule(text, ctx, diags));
    };
    mir::MContext ctx;
    DiagnosticEngine diags;
    std::optional<mir::OwnedModule> probe = mir::parseModule(text, ctx, diags);
    for (flow::FlowKind kind :
         {flow::FlowKind::Adaptor, flow::FlowKind::HlsCpp}) {
      Design design;
      design.spec = spec.get();
      design.top = probe->get().funcs().front().name();
      design.flow = kind;
      inline_.push_back(design);
    }
    inlineSpecs_.push_back(std::move(spec));
  }
}

void ServeBench::calibrate() {
  for (int i = 0; i < 9; ++i)
    speed_.sample();
}

void ServeBench::setUp() {
  tearDown();
  flow::StageCache &cache = flow::StageCache::global();
  cache.clear();
  cache.setLimitBytes(0);
  warmQor_.assign(warm_.size(), Qor{});
  for (size_t i = 0; i < warm_.size(); ++i) {
    flow::FlowResult run = runDesign(warm_[i], /*useStageCache=*/true);
    result_.attempted(1);
    if (!run.ok)
      result_.fail("priming failed: " + warm_[i].key());
    warmQor_[i] = qorOf(run.synth);
  }
  primedBytes_ = cache.counters().bytes();
  inlineText_.clear();
  for (const flow::KernelSpec &spec : flow::allKernels()) {
    mir::MContext ctx;
    inlineText_.push_back(mir::printModule(spec.build(ctx, {}).get()));
  }
  if (inline_.empty())
    makeInlineDesigns();
  serve::ServerOptions so;
  so.socketPath = socketPath_;
  so.maxInflight = kWorkers;
  so.maxQueue = 64;
  so.stageCacheLimitBytes = int64_t(kLimitShare * double(primedBytes_));
  server_ = std::make_unique<serve::Server>(so);
  std::string error;
  if (!server_->start(&error)) {
    result_.fail("cannot start the daemon: " + error);
    server_.reset();
    return;
  }
  for (auto &conn : conns_) {
    conn = std::make_unique<Connection>(socketPath_);
    if (!conn->ok())
      result_.fail("cannot connect to " + socketPath_);
  }
}

int ServeBench::designIndex(const Design &design) {
  auto [it, inserted] =
      designIds_.try_emplace(design.key(), int(designs_.size()));
  if (inserted)
    designs_.push_back(design);
  return it->second;
}

std::vector<Request> ServeBench::deal(int count, const std::string &prefix) {
  std::vector<Kind> deck(40, Kind::Warm);
  deck.insert(deck.end(), 5, Kind::NewPoint);
  deck.insert(deck.end(), 4, Kind::Inline);
  deck.push_back(Kind::Malformed);
  std::vector<Kind> kinds;
  while (int(kinds.size()) < count) {
    rng_.shuffle(deck);
    kinds.insert(kinds.end(), deck.begin(), deck.end());
  }
  std::vector<Request> requests(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    Request &req = requests[size_t(i)];
    req.kind = kinds[size_t(i)];
    req.id = strfmt("%s%d", prefix.c_str(), i);
    if (req.kind == Kind::Malformed) {
      malformedFrame(malformedDealt_++, req.id, req);
      continue;
    }
    serve::Request wire;
    const Design *design = nullptr;
    if (req.kind == Kind::Warm) {
      design = &warm_[rng_.below(warm_.size())];
    } else if (req.kind == Kind::NewPoint) {
      // Drawn without replacement; past the pool's end the points recur.
      design = &offGrid_[nextNew_++ % offGrid_.size()];
    } else {
      size_t pick = rng_.below(inline_.size());
      design = &inline_[pick];
      wire.mlir = inlineText_[pick / 2];
    }
    req.design = designIndex(*design);
    if (wire.mlir.empty())
      wire.kernel = design->spec->name;
    wire.flowKind = design->flow;
    wire.config = design->config;
    req.frame = serve::renderCompileRequest(req.id, wire);
  }
  return requests;
}

PhaseStats ServeBench::runPhase(std::vector<Request> &requests, double rate) {
  PhaseStats stats;
  Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Request *> mine[2];
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(double(i) / rate));
    mine[i % 2].push_back(&requests[i]);
  }
  std::atomic<int> outstanding{0}, backlogMax{0};
  int finalBacklog[2] = {0, 0};
  {
    std::thread threads[2];
    for (int c = 0; c < 2; ++c)
      threads[c] = std::thread([&, c] {
        conns_[c]->run(mine[c], outstanding, backlogMax, finalBacklog[c],
                       /*drainMs=*/30000);
      });
    for (std::thread &t : threads)
      t.join();
  }
  stats.backlogMax = backlogMax.load();
  std::vector<double> late;
  Clock::time_point lastDone = t0;
  int64_t completed = 0;
  for (const Request &req : requests) {
    late.push_back(msBetween(req.due, req.sent));
    if (req.kind == Kind::Malformed)
      continue;
    ++stats.requests;
    if (!req.gotDone) {
      ++stats.missing;
      stats.latencies.push_back(kMissedMs);
      continue;
    }
    if (req.code == serve::errc::Busy) {
      ++stats.refused;
      stats.latencies.push_back(kMissedMs);
      continue;
    }
    ++completed;
    lastDone = std::max(lastDone, req.done);
    stats.latencies.push_back(msBetween(req.due, req.done));
  }
  stats.durationMs = msBetween(t0, lastDone);
  stats.achievedRps =
      stats.durationMs > 0 ? double(completed) / (stats.durationMs / 1000) : 0;
  stats.p50 = percentile(stats.latencies, 0.5);
  stats.p99 = percentile(stats.latencies, 0.99);
  stats.late99 = percentile(late, 0.99);
  int backlogAtEnd = std::max(finalBacklog[0], finalBacklog[1]);
  stats.passes = stats.p99.ok && stats.p99.value <= kLimitMs &&
                 stats.refused == 0 && stats.missing == 0 &&
                 backlogAtEnd <= int(rate * kLimitMs / 1000.0) + kWorkers;
  std::printf("  rate %6.0f/s: %5lld requests, p50 %.3f ms, p99 %.3f ms "
              "(n=%zu, %zu beyond), achieved %.1f/s, refused %lld, "
              "backlog max %d / at end %d, generator late p99 %.3f ms: %s\n",
              rate, static_cast<long long>(stats.requests), stats.p50.value,
              stats.p99.value, stats.p99.samples, stats.p99.beyond,
              stats.achievedRps, static_cast<long long>(stats.refused),
              stats.backlogMax, backlogAtEnd, stats.late99.value,
              stats.passes ? "meets the limit" : "misses the limit");
  return stats;
}

void ServeBench::checkResults(std::vector<double> &renderUs) {
  // Cold twins: every distinct compile design with the StageCache off,
  // rendered as the daemon renders its result event (id "X").
  std::vector<uint64_t> twins(designs_.size(), 0);
  for (size_t i = 0; i < designs_.size(); ++i) {
    flow::FlowResult cold = runDesign(designs_[i], /*useStageCache=*/false);
    result_.attempted(1);
    if (!cold.ok) {
      result_.fail("cold twin failed: " + designs_[i].key());
      continue;
    }
    serve::Request wire;
    wire.flowKind = designs_[i].flow;
    Clock::time_point t = Clock::now();
    std::string line = serve::renderResult("X", wire, cold);
    renderUs.push_back(1000.0 * msSince(t));
    twins[i] = digest(line);
  }
  for (size_t phase = 0; phase < phases_.size(); ++phase) {
    for (const Request &req : phases_[phase]) {
      result_.attempted(1);
      if (!req.gotDone) {
        result_.fail("no done event for " + req.id);
      } else if (req.code == serve::errc::Busy) {
        // Refusals above the main rate only fail their ladder rung (an
        // unknown kernel is only found after admission).
        if (phase < mainPhases_)
          result_.fail("refused at the main rate: " + req.id);
      } else if (req.kind == Kind::Malformed) {
        if (req.ok || req.code != req.expectCode)
          result_.fail(strfmt("malformed frame %s got '%s', expected '%s'",
                              req.id.c_str(), req.code.c_str(),
                              req.expectCode.c_str()));
      } else if (!req.ok) {
        result_.fail(strfmt("%s failed with '%s'", req.id.c_str(),
                            req.code.c_str()));
      } else if (req.digest != twins[size_t(req.design)]) {
        result_.fail("served result differs from its cold twin: " +
                     designs_[size_t(req.design)].key());
      }
    }
  }
}

void ServeBench::traceReplay(TraceSummary &trace, Ledger &ledger) {
  // Every distinct design of the stream once more, in process, through
  // the replica and then the black-box flow, against the daemon's cache.
  std::vector<double> tracedMs, untracedMs;
  for (const Design &design : designs_) {
    const std::string *text = nullptr;
    for (size_t i = 0; i < inline_.size(); ++i)
      if (inline_[i].spec == design.spec)
        text = &inlineText_[i / 2];
    Clock::time_point t = Clock::now();
    if (text) {
      // The daemon's probe parse of an inline module.
      ledger.beginRequest();
      Scope span(&ledger, "mir.parse");
      mir::MContext ctx;
      DiagnosticEngine diags;
      if (!mir::parseModule(*text, ctx, diags))
        result_.fail("inline module does not parse");
    }
    ReplicaOutput replica = runReplica(design, true, ledger);
    tracedMs.push_back(msSince(t));
    Clock::time_point t0 = Clock::now();
    if (text) {
      mir::MContext ctx;
      DiagnosticEngine diags;
      mir::parseModule(*text, ctx, diags);
    }
    flow::FlowResult run = runDesign(design, /*useStageCache=*/true);
    double ms = msSince(t0);
    untracedMs.push_back(ms);
    trace.blackBoxMs += ms;
    ++trace.designs;
    result_.attempted(1);
    if (!replica.ok || !run.ok)
      result_.fail("replica or flow failed: " + design.key() + ": " +
                   replica.error);
    else if (!replica.matches(run))
      result_.fail("replica output differs from the flow: " + design.key());
  }
  trace.tracedMedianMs = median(tracedMs);
  trace.untracedMedianMs = median(untracedMs);
}

void ServeBench::init() {
  socketPath_ = strfmt("perfbench-%d.sock", static_cast<int>(getpid()));
  grid_ = gridDesigns();
  offGrid_ = offGridDesigns();
  rng_.shuffle(offGrid_);
  for (const Design &design : grid_)
    if (design.config.partitionFactor == 1)
      warm_.push_back(design);
}

bool ServeBench::start(int reps, std::vector<double> &setupS) {
  // Set-up: prime the working set, print the inline modules, start the
  // daemon under its cache limit and connect.
  for (int rep = 0; rep < reps; ++rep) {
    calibrate();
    size_t at = speed_.samples();
    Clock::time_point start = Clock::now();
    setUp();
    double ms = msSince(start);
    calibrate();
    setupS.push_back(ms * speed_.scaleAt(at) / 1000.0);
  }
  if (!server_ || !conns_[0]->ok() || !conns_[1]->ok()) {
    tearDown();
    return false;
  }
  std::printf("serve-mixed: working set %zu designs, %lld bytes primed, "
              "cache limit %lld bytes, %d workers\n",
              warm_.size(), static_cast<long long>(primedBytes_),
              static_cast<long long>(flow::StageCache::global().limitBytes()),
              kWorkers);
  return true;
}

std::vector<PhaseStats> ServeBench::runMain(int blocks, int count,
                                            std::vector<double> &scales) {
  // Main-phase blocks at kMainRate, each long enough for its own p99 (a
  // host stall then spoils one block, not the run), with the host speed
  // calibrated around each.
  std::vector<PhaseStats> main;
  for (int b = 0; b < blocks; ++b) {
    phases_.push_back(deal(count, strfmt("m%d-", b)));
    calibrate();
    size_t at = speed_.samples();
    main.push_back(runPhase(phases_.back(), kMainRate));
    calibrate();
    scales.push_back(speed_.scaleAt(at));
  }
  mainPhases_ = phases_.size();
  return main;
}

std::vector<double> ServeBench::finish(std::vector<double> &renderUs) {
  std::vector<double> parseUs;
  for (const std::vector<Request> &phase : phases_)
    for (const Request &req : phase) {
      Clock::time_point t = Clock::now();
      serve::ParsedRequest parsed = serve::parseRequest(req.frame);
      parseUs.push_back(1000.0 * msSince(t));
      (void)parsed;
    }
  tearDown();
  checkResults(renderUs);
  std::printf("serve-mixed: %zu distinct designs; failed_ratio of the run "
              "so far %lld/%lld\n",
              designs_.size(), static_cast<long long>(result_.failures()),
              static_cast<long long>(result_.attemptedCount()));
  return parseUs;
}

std::map<std::string, double>
ServeBench::serveRows(const std::vector<PhaseStats> &main,
                      const std::vector<double> &parseUs,
                      const std::vector<double> &renderUs) const {
  std::vector<double> admit, queue, runMs, tail, late;
  double busyMs = 0, phaseMs = 0;
  int backlogMax = 0;
  for (size_t b = 0; b < main.size(); ++b) {
    phaseMs += main[b].durationMs;
    backlogMax = std::max(backlogMax, main[b].backlogMax);
    late.push_back(main[b].late99.value);
    for (const Request &req : phases_[b]) {
      if (req.kind == Kind::Malformed || !req.ok)
        continue;
      // Event arrival times coalesce when the client wakes once for
      // several events, so only the first event is timed client-side;
      // queue and run are the daemon's own figures from `done`, and the
      // tail is what the client waited beyond them.
      admit.push_back(msBetween(req.sent, req.accepted));
      queue.push_back(req.queueMs);
      runMs.push_back(req.compileMs);
      tail.push_back(msBetween(req.sent, req.done) - req.queueMs -
                     req.compileMs);
      busyMs += req.compileMs;
    }
  }
  auto mean = [](const std::vector<double> &v) {
    double sum = 0;
    for (double x : v)
      sum += x;
    return v.empty() ? 0 : sum / double(v.size());
  };
  return {
      {"serve.admit_ms", mean(admit)},
      {"serve.queue_ms", mean(queue)},
      {"serve.run_ms", mean(runMs)},
      {"serve.tail_ms", mean(tail)},
      {"serve.parse_us", mean(parseUs)},
      {"serve.render_us", mean(renderUs)},
      {"serve.busy_ratio", phaseMs > 0 ? busyMs / (kWorkers * phaseMs) : 0},
      {"serve.backlog_max", double(backlogMax)},
      {"serve.generator_late_ms", median(late)},
  };
}

std::map<std::string, double> ServeBench::probe() {
  init();
  std::vector<double> setupS, scales, renderUs;
  if (!start(1, setupS))
    return {};
  flow::StageCache &cache = flow::StageCache::global();
  flow::StageCache::Counters before = cache.counters();
  std::vector<PhaseStats> main = runMain(1, kBlockRequests, scales);
  flow::StageCache::Counters after = cache.counters();
  std::vector<double> parseUs = finish(renderUs);
  std::map<std::string, double> rows = serveRows(main, parseUs, renderUs);
  // The phase runs under the cache's byte limit, so it also gives the
  // StageCache eviction count.
  rows["flow.evictions"] = double(after.evictions() - before.evictions());
  return rows;
}

void ServeBench::run() {
  init();
  std::vector<double> setupS;
  if (!start(options_.trace ? 1 : 3, setupS))
    return;
  double ladderS = 0;
  for (double rate : kLadder)
    ladderS += kLadderRequests / rate;
  double mainS = options_.trace ? options_.seconds
                                : std::max(options_.seconds - ladderS, 0.0);
  int blockCount =
      std::max(kBlockRequests, int(kMainRate * mainS / kMainBlocks));
  flow::StageCache &cache = flow::StageCache::global();
  flow::StageCache::Counters before = cache.counters();
  std::vector<double> blockScale;
  std::vector<PhaseStats> main = runMain(kMainBlocks, blockCount, blockScale);
  flow::StageCache::Counters after = cache.counters();
  int mainPassing = 0;
  std::vector<double> mainRps;
  for (const PhaseStats &block : main) {
    mainPassing += block.passes ? 1 : 0;
    mainRps.push_back(block.achievedRps);
  }

  // The ladder: a rung passes when one of up to kAttempts tries meets the
  // limit, and counts while every rung below it passed too.
  bool climbing = 2 * mainPassing > kMainBlocks;
  double maxRps = climbing ? median(mainRps) : 0;
  if (!options_.trace) {
    for (size_t k = 0; k < std::size(kLadder); ++k) {
      bool passed = false;
      for (int attempt = 0; attempt < kAttempts && !passed; ++attempt) {
        phases_.push_back(
            deal(kLadderRequests, strfmt("l%zu.%d-", k, attempt)));
        PhaseStats rung = runPhase(phases_.back(), kLadder[k]);
        passed = rung.passes;
        if (passed && climbing)
          maxRps = rung.achievedRps;
      }
      climbing = climbing && passed;
    }
  }
  double rss = peakRssMb();
  std::vector<double> renderUs;
  std::vector<double> parseUs = finish(renderUs);

  if (options_.trace) {
    TraceSummary trace;
    Ledger ledger;
    addCacheDelta(trace.cacheDelta, before, after);
    trace.residentBytes = after.bytes();
    trace.serve = serveRows(main, parseUs, renderUs);
    traceReplay(trace, ledger);
    emitLayerMetrics(result_, ledger, trace);
    return;
  }

  // Times are scaled to the reference host speed measured around their
  // block (rates are the generator's and stay raw). serve_ms_* are the
  // medians of the blocks' percentiles.
  EndToEnd e2e;
  e2e.speed = speed_;
  e2e.setupS = median(setupS);
  e2e.peakRssMb = rss;
  for (size_t b = 0; b < main.size(); ++b) {
    // adaptor_ms / hlscpp_ms here are the daemon's own flow time per
    // request (done.compile_us); serve_ms adds everything around it.
    for (const Request &req : phases_[b])
      if (req.kind != Kind::Malformed && req.ok)
        (designs_[size_t(req.design)].flow == flow::FlowKind::Adaptor
             ? e2e.adaptorMs
             : e2e.hlscppMs)
            .push_back(req.compileMs * blockScale[b]);
    std::vector<double> block;
    for (double ms : main[b].latencies)
      block.push_back(ms * blockScale[b]);
    e2e.requestBlocks.push_back(std::move(block));
  }
  e2e.designsPerS = median(mainRps);
  e2e.maxRps = maxRps;
  for (size_t i = 0; i < warm_.size(); ++i)
    e2e.qor.push_back({&warm_[i], warmQor_[i]});
  emitEndToEnd(result_, e2e);
}

} // namespace

void runServeMixed(const Options &options, Result &result) {
  ServeBench(options, result).run();
}

std::map<std::string, double> measureServeLayer(const Options &options,
                                                Result &result) {
  return ServeBench(options, result).probe();
}

} // namespace perfbench
