// perfload: the load generator of the modbd benchmark (see README.md in
// this directory). It launches tools/modbd, drives one workload over the
// wire from this single process, checks every reply against an
// in-process modb::Db holding the same inputs, and writes the raw
// samples — per-request latencies, /proc and /metrics snapshots, reply
// ExecStats trees, and (traced runs) in-process spans — as JSON files
// that run.py turns into metrics.
//
//   perfload --workload=planes_scan|planes_join|fleet_ingest --seed=N
//            --seconds=S --trace=0|1 --modbd=PATH --run-dir=DIR
//
// Writes DIR/raw.json and, with --trace=1, DIR/trace.json (the spans).
// Exit 0 once both are written; the verdict on correctness is in
// raw.json and is run.py's to report.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "db/modb.h"
#include "gen/flights_gen.h"
#include "index/rtree3d.h"
#include "ingest/live_relation.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "storage/recovery.h"
#include "temporal/batch_ops.h"

namespace {

using modb::Db;
using modb::FilterSpec;
using modb::MutationRequest;
using modb::QueryRequest;
using modb::Result;
using modb::Status;
using modb::obs::JsonValue;
using modb::serve::Client;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload constants. They are the benchmark's definition: changing one
// changes what every later run measures, so each is fixed here, not a
// flag.

// The static relation is modbd's planes relation at one fixed generator
// seed. Its 12 random airports set every query's cost (one layout made the
// join 70 % dearer than another), so varying them would
// measure the layout, not the system. The run's --seed instead draws the
// request stream: kVariants parameter sets per kind and the order they
// are sent in, so every run averages over many requests.
constexpr std::uint64_t kPlanesDataSeed = 99;
constexpr int kVariants = 16;
// planes_scan: per-request fixed costs matter at this size (select,
// project, present and window about a millisecond each).
constexpr int kScanFlights = 1024;
// planes_join: about 7-10 ms per Q2 self-join, so a 30 s run holds some
// 3000 samples, 30 of them beyond the p99.
constexpr int kJoinFlights = 256;
// Launches per run whose set-up times are reported as a median. One
// fleet set-up (launch, eight durable history batches) varies by +-15 %
// within a run, so it gets as many launches as a static one.
constexpr int kStaticSetups = 41;
constexpr int kFleetSetups = 41;
// modbd's time-triggered MergeLive round; stated so merges per run are
// comparable across runs.
constexpr int kMergeIntervalMs = 500;
// CPUs perfload and modbd (which inherits the mask) are confined to:
// one for the single-connection planes workloads, two for the fleet's
// writer and reader. On a 4-vCPU virtual machine, sharing one CPU turns
// every client/server hand-off into a local context switch instead of a
// cross-CPU wake-up, and fewer busy vCPUs get less time stolen by the
// hypervisor: both lowered the run-to-run spread of the tail.
constexpr int kPlanesCpus = 1;
constexpr int kFleetCpus = 2;

// fleet_ingest models a site fleet: yard tractors on a 2 km x 2 km
// container terminal, telematics fixes every 10 s, driving at 5-15 m/s
// with a heading that drifts a few degrees per fix. The join asks which
// tractors were ever within 50 m of each other at the same instant (a
// near-miss check). On a site this small every pair of tractors passes
// within 50 m many times over the history, so the join refines every
// pair and its cost does not hinge on which pairs a seed happens to bring
// together; a sparse regional fleet makes the join's cost a lottery of a
// few dozen encounters.
constexpr int kFleetObjects = 8;
constexpr int kHistoryTicks = 1024;          // >= 1000 fixes per object
constexpr int kHistoryTicksPerBatch = 128;   // large set-up batches
constexpr double kTickSeconds = 10;
constexpr double kRegionMeters = 2000;
constexpr double kJoinMeters = 50;
// Fixed work: the writer sends seconds x this many fleet ticks, whatever
// their speed, so a faster commit never ingests a different history.
constexpr double kTicksPerRunSecond = 120;

struct Kind {
  std::string name;
  std::vector<QueryRequest> variants;
};

// splitmix64: a seedable, platform-independent stream.
struct Rng {
  std::uint64_t s;
  std::uint64_t Next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * double(Next() >> 11) / double(1ULL << 53);
  }
};

// The static workloads' evaluation grid: 49 half-hourly instants over the
// departure window [0, 24], shifted by `offset`.
std::vector<modb::Instant> PlanesInstants(double offset) {
  std::vector<modb::Instant> ts;
  for (int i = 0; i <= 48; ++i) ts.push_back(offset + 0.5 * i);
  return ts;
}

Kind MakeKind(std::string name, std::uint64_t seed,
              QueryRequest (*make)(Rng*)) {
  Kind k{std::move(name), {}};
  Rng rng{seed};
  for (int v = 0; v < kVariants; ++v) k.variants.push_back(make(&rng));
  return k;
}

std::vector<Kind> ScanKinds(std::uint64_t seed) {
  std::vector<Kind> kinds;
  kinds.push_back(MakeKind("select", seed * 8 + 1, [](Rng* rng) {
    QueryRequest q;  // Q1: Lufthansa flights longer than ~5000
    q.kind = QueryRequest::Kind::kSelect;
    q.relation = "planes";
    q.filters.push_back({FilterSpec::Kind::kStringEquals, "airline",
                         "Lufthansa", 0, 0, 0});
    q.filters.push_back({FilterSpec::Kind::kTrajectoryLengthAtLeast,
                         "flight", "", rng->Uniform(4500, 5500), 0, 0});
    return q;
  }));
  kinds.push_back(MakeKind("project", seed * 8 + 2, [](Rng* rng) {
    QueryRequest q;  // flights in the air around noon, airline + id
    q.kind = QueryRequest::Kind::kProject;
    q.relation = "planes";
    q.filters.push_back({FilterSpec::Kind::kPresentAt, "flight", "", 0,
                         rng->Uniform(11, 13), 0});
    q.project = {"airline", "id"};
    return q;
  }));
  kinds.push_back(MakeKind("atinstant", seed * 8 + 3, [](Rng* rng) {
    QueryRequest q;  // every position every half hour
    q.kind = QueryRequest::Kind::kAtInstantBatch;
    q.relation = "planes";
    q.attr = "flight";
    q.instants = PlanesInstants(rng->Uniform(0, 0.5));
    return q;
  }));
  kinds.push_back(MakeKind("present", seed * 8 + 4, [](Rng* rng) {
    QueryRequest q;  // presence mask on the same grid
    q.kind = QueryRequest::Kind::kPresentBatch;
    q.relation = "planes";
    q.attr = "flight";
    q.instants = PlanesInstants(rng->Uniform(0, 0.5));
    return q;
  }));
  kinds.push_back(MakeKind("window", seed * 8 + 5, [](Rng* rng) {
    QueryRequest q;  // sliding 2 h windows over the central quarter
    q.kind = QueryRequest::Kind::kWindowAggregate;
    q.relation = "planes";
    q.attr = "flight";
    q.window_t0 = rng->Uniform(0, 1);
    q.window_t1 = q.window_t0 + 36;
    q.window_width = 2;
    q.window_step = 1;
    q.min_x = 2500;
    q.min_y = 2500;
    q.max_x = 7500;
    q.max_y = 7500;
    return q;
  }));
  return kinds;
}

std::vector<Kind> JoinKinds(std::uint64_t seed) {
  return {MakeKind("join", seed * 8 + 6, [](Rng* rng) {
    QueryRequest q;  // Q2: pairs of planes ever closer than ~50
    q.kind = QueryRequest::Kind::kIndexJoin;
    q.relation = "planes";
    q.join_relation = "planes";
    q.attr = "flight";
    q.join_attr = "flight";
    q.distance = rng->Uniform(45, 55);
    q.distinct_pairs = true;
    return q;
  })};
}

std::string VehicleId(int o) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "tractor%02d", o);
  return buf;
}

// The live kinds, fixed for the whole run so the quiesced check can
// replay them: instants and windows span the history the run will have
// ingested by its end (instants past the current frontier are simply
// undefined while the run is young).
// The order matters: the reader in RunFleet weights kinds by index.
std::vector<Kind> FleetKinds(std::uint64_t seed, double end_t) {
  std::vector<Kind> kinds;
  {
    QueryRequest q;  // one tractor's track
    q.kind = QueryRequest::Kind::kSelect;
    q.relation = "fleet";
    q.filters.push_back({FilterSpec::Kind::kStringEquals, "id",
                         VehicleId(int(seed % kFleetObjects)), 0, 0, 0});
    kinds.push_back({"select", {q}});
  }
  {
    QueryRequest q;  // every tractor's position at 16 instants
    q.kind = QueryRequest::Kind::kAtInstantBatch;
    q.relation = "fleet";
    q.attr = "trail";
    for (int i = 0; i < 16; ++i) q.instants.push_back(end_t * i / 15.0);
    kinds.push_back({"atinstant", {q}});
  }
  {
    QueryRequest q;  // sliding windows over the central quarter
    q.kind = QueryRequest::Kind::kWindowAggregate;
    q.relation = "fleet";
    q.attr = "trail";
    q.window_t0 = 0;
    q.window_t1 = end_t;
    q.window_width = end_t / 16;
    q.window_step = end_t / 32;
    q.min_x = kRegionMeters / 4;
    q.min_y = kRegionMeters / 4;
    q.max_x = kRegionMeters * 3 / 4;
    q.max_y = kRegionMeters * 3 / 4;
    kinds.push_back({"window", {q}});
  }
  {
    QueryRequest q;  // tractors ever within 50 m of each other
    q.kind = QueryRequest::Kind::kIndexJoin;
    q.relation = "fleet";
    q.join_relation = "fleet";
    q.attr = "trail";
    q.join_attr = "trail";
    q.distance = kJoinMeters;
    q.distinct_pairs = true;
    kinds.push_back({"join", {q}});
  }
  return kinds;
}

// Fleet ticks 0 .. ticks-1: one fix per tractor per tick, positions
// following the model above, reflected at the region's edge.
std::vector<std::vector<MutationRequest::Fix>> FleetTicks(std::uint64_t seed,
                                                          int ticks) {
  struct Tractor {
    Rng rng;
    double x, y, heading, speed;
  };
  std::vector<Tractor> fleet;
  for (int o = 0; o < kFleetObjects; ++o) {
    Tractor v{{seed * 0x100000001b3ULL + std::uint64_t(o) * 0x9e37ULL + 1},
          0, 0, 0, 0};
    v.x = v.rng.Uniform(0, kRegionMeters);
    v.y = v.rng.Uniform(0, kRegionMeters);
    v.heading = v.rng.Uniform(0, 2 * M_PI);
    v.speed = v.rng.Uniform(5, 15);
    fleet.push_back(v);
  }
  std::vector<std::vector<MutationRequest::Fix>> out(
      static_cast<std::size_t>(ticks));
  for (int t = 0; t < ticks; ++t) {
    for (int o = 0; o < kFleetObjects; ++o) {
      Tractor& v = fleet[std::size_t(o)];
      if (t > 0) {
        v.heading += v.rng.Uniform(-0.1, 0.1);
        v.speed = std::clamp(v.speed + v.rng.Uniform(-1, 1), 5.0, 15.0);
        v.x += v.speed * kTickSeconds * std::cos(v.heading);
        v.y += v.speed * kTickSeconds * std::sin(v.heading);
        if (v.x < 0 || v.x > kRegionMeters) {
          v.x = std::clamp(v.x, 0.0, kRegionMeters);
          v.heading = M_PI - v.heading;
        }
        if (v.y < 0 || v.y > kRegionMeters) {
          v.y = std::clamp(v.y, 0.0, kRegionMeters);
          v.heading = -v.heading;
        }
      }
      out[std::size_t(t)].push_back(
          {VehicleId(o), kTickSeconds * t, v.x, v.y});
    }
  }
  return out;
}

MutationRequest IngestBatch(const std::string& client_id, std::uint64_t seq,
                            std::vector<MutationRequest::Fix> fixes) {
  MutationRequest m;
  m.kind = MutationRequest::Kind::kIngest;
  m.relation = "fleet";
  m.client_id = client_id;
  m.batch_seq = seq;
  m.fixes = std::move(fixes);
  return m;
}

// ---------------------------------------------------------------------------
// The modbd child process.

std::uint64_t NsSince(Clock::time_point start) {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count());
}

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { (void)Stop(); }

  // Starts modbd and returns once it printed its listening line.
  Status Launch(const std::string& path, const std::vector<std::string>& args) {
    std::vector<std::string> argv_s = {path};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::Internal("fork failed");
    }
    if (pid == 0) {
      // The server must not outlive perfload, however perfload ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    pid_ = pid;
    out_fd_ = fds[0];
    std::string buf;
    const std::string marker = "modbd listening on ";
    while (true) {
      const std::size_t at = buf.find(marker);
      const std::size_t eol =
          at == std::string::npos ? at : buf.find('\n', at);
      if (eol != std::string::npos) {
        const std::string line = buf.substr(at, eol - at);
        port_ = std::atoi(line.substr(line.rfind(':') + 1).c_str());
        return port_ > 0 ? Status::OK()
                         : Status::Internal("unparseable: " + line);
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 60000) <= 0) {
        return Status::Internal("modbd did not start within 60 s");
      }
      char chunk[512];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n <= 0) return Status::Internal("modbd exited during start-up");
      buf.append(chunk, std::size_t(n));
    }
  }

  // SIGTERM, drain its stdout, reap it; SIGKILL after 30 s. Returns the
  // exit code (-1 when killed or never started).
  int Stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    const auto start = Clock::now();
    while (out_fd_ >= 0 && NsSince(start) < 30'000'000'000ULL) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 1000) < 0) break;
      char chunk[512];
      if (p.revents != 0 && ::read(out_fd_, chunk, sizeof chunk) <= 0) break;
    }
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           NsSince(start) < 30'000'000'000ULL) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      status = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    pid_ = -1;
    return status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Raw snapshots for run.py: /proc stat + status of modbd, the host's
// /proc/stat (CPU time stolen by the hypervisor), and modbd's /metrics
// document.
JsonValue Snapshot(const ServerProcess& server) {
  JsonValue s = JsonValue::Object();
  const std::string proc = "/proc/" + std::to_string(server.pid());
  s.Set("stat", JsonValue::Str(ReadFile(proc + "/stat")));
  s.Set("status", JsonValue::Str(ReadFile(proc + "/status")));
  s.Set("host_stat", JsonValue::Str(ReadFile("/proc/stat")));
  Result<std::string> metrics =
      modb::serve::FetchMetricsJson("127.0.0.1", server.port(), 30000);
  s.Set("metrics", JsonValue::Str(metrics.ok() ? *metrics : std::string()));
  return s;
}

// ---------------------------------------------------------------------------
// Connections and per-kind accounting.

modb::serve::ClientOptions NetOptions() {
  modb::serve::ClientOptions o;
  o.connect_timeout_ms = 10000;
  o.io_timeout_ms = 60000;
  return o;
}

// One connection that reconnects after a transport error, so a dropped
// connection costs one failed operation, not the rest of the run.
class Conn {
 public:
  explicit Conn(int port) : port_(port) {}

  Result<Client::Reply> Query(const QueryRequest& req) {
    MODB_RETURN_IF_ERROR(Ensure());
    Result<Client::Reply> r = client_->Query(req);
    if (!r.ok()) client_.reset();
    return r;
  }
  Result<Client::MutationReply> Mutate(const MutationRequest& req) {
    MODB_RETURN_IF_ERROR(Ensure());
    Result<Client::MutationReply> r = client_->Mutate(req);
    if (!r.ok()) client_.reset();
    return r;
  }
  std::uint64_t connects() const { return connects_; }

 private:
  Status Ensure() {
    if (client_.has_value()) return Status::OK();
    Result<Client> c = Client::Connect("127.0.0.1", port_, NetOptions());
    MODB_RETURN_IF_ERROR(c.status());
    client_.emplace(std::move(*c));
    ++connects_;
    return Status::OK();
  }
  int port_;
  std::optional<Client> client_;
  std::uint64_t connects_ = 0;
};

struct OpStats {
  std::vector<std::uint64_t> ok_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t reply_bytes = 0;
  std::map<std::string, std::uint64_t> failures;  // by status code
  std::vector<std::string> exec_stats;            // traced runs only

  void Fail(const Status& s, bool transport) {
    ++failed;
    ++failures[std::string(transport ? "transport:" : "") +
               modb::StatusCodeName(s.code())];
  }

  JsonValue ToJson() const {
    JsonValue o = JsonValue::Object();
    JsonValue ns = JsonValue::Array();
    for (std::uint64_t v : ok_ns) ns.Append(JsonValue::Int(v));
    o.Set("ok_ns", std::move(ns));
    o.Set("attempted", JsonValue::Int(attempted));
    o.Set("failed", JsonValue::Int(failed));
    o.Set("mismatched", JsonValue::Int(mismatched));
    o.Set("reply_bytes", JsonValue::Int(reply_bytes));
    JsonValue f = JsonValue::Object();
    for (const auto& [code, n] : failures) f.Set(code, JsonValue::Int(n));
    o.Set("failures", std::move(f));
    JsonValue st = JsonValue::Array();
    for (const std::string& s : exec_stats) st.Append(JsonValue::Str(s));
    o.Set("exec_stats", std::move(st));
    return o;
  }
};

// One closed-loop query: timed from send to reply decoded. Failed
// requests are counted and kept out of the latency samples. `expected`,
// when given, is the in-process result block the reply must equal.
void Send(Conn* conn, const QueryRequest& req, const std::string* expected,
           bool keep_stats, OpStats* st) {
  ++st->attempted;
  const auto start = Clock::now();
  Result<Client::Reply> reply = conn->Query(req);
  const std::uint64_t ns = NsSince(start);
  if (!reply.ok()) {
    st->Fail(reply.status(), true);
    return;
  }
  if (!reply->status.ok()) {
    st->Fail(reply->status, false);
    return;
  }
  st->ok_ns.push_back(ns);
  st->reply_bytes += reply->result_block.size();
  if (expected != nullptr && reply->result_block != *expected) {
    ++st->mismatched;
  }
  if (keep_stats) st->exec_stats.push_back(reply->result.stats.ToJson());
}

// ---------------------------------------------------------------------------
// Tracing: spans around the calls into each layer, kept in memory and
// written out when the run ends.

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  std::size_t Begin(std::string name, std::int64_t parent, std::uint64_t req,
                    std::string kind, double work = 0) {
    spans_.push_back({std::move(name), std::move(kind), parent, req,
                      NsSince(epoch_), 0, work});
    return spans_.size() - 1;
  }
  void End(std::size_t span) { spans_[span].end_ns = NsSince(epoch_); }

  // Runs fn() inside a span.
  template <typename Fn>
  auto Time(const std::string& name, std::int64_t parent, std::uint64_t req,
            const std::string& kind, Fn&& fn, double work = 0) {
    const std::size_t s = Begin(name, parent, req, kind, work);
    auto r = fn();
    End(s);
    return r;
  }

  std::uint64_t NextRequest() { return ++requests_; }

  JsonValue ToJson() const {
    JsonValue a = JsonValue::Array();
    for (const Span& s : spans_) {
      JsonValue o = JsonValue::Object();
      o.Set("name", JsonValue::Str(s.name));
      o.Set("kind", JsonValue::Str(s.kind));
      o.Set("parent", JsonValue::Number(double(s.parent)));
      o.Set("req", JsonValue::Int(s.req));
      o.Set("start_ns", JsonValue::Int(s.start_ns));
      o.Set("end_ns", JsonValue::Int(s.end_ns));
      o.Set("work", JsonValue::Number(s.work));
      a.Append(std::move(o));
    }
    return a;
  }

 private:
  struct Span {
    std::string name;
    std::string kind;
    std::int64_t parent;
    std::uint64_t req;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    double work;
  };
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint64_t requests_ = 0;
};

// The reference answer: `req` run in-process on one worker (what modbd
// does for a num_threads = 1 request), as the reply's result block.
Result<std::string> LocalBlock(const Db& db, const QueryRequest& req) {
  modb::ExecOptions options;
  options.parallel.num_threads = 1;
  Result<modb::QueryResult> r = db.Run(req, options);
  MODB_RETURN_IF_ERROR(r.status());
  return modb::serve::EncodeResultBlock(*r);
}

// The path of one query through every layer, in-process: the client's
// encode, the server's decode, Db::Run, the server's encode, and the
// client's decode — the same calls modbd and Client make, minus the
// socket.
Status TraceQuery(Tracer* tr, const Db& db, const Kind& kind,
                  const QueryRequest& query) {
  const std::uint64_t req = tr->NextRequest();
  const std::int64_t root = std::int64_t(tr->Begin("request", -1, req, kind.name));
  const std::string payload = tr->Time("client.encode", root, req, kind.name, [&] {
    return modb::serve::EncodeQueryRequest(query);
  });
  Result<QueryRequest> decoded = tr->Time("serve.decode", root, req, kind.name, [&] {
    return modb::serve::DecodeQueryRequest(payload);
  });
  MODB_RETURN_IF_ERROR(decoded.status());
  modb::ExecOptions options;
  options.parallel.num_threads = 1;
  Result<modb::QueryResult> result = tr->Time("db.run", root, req, kind.name, [&] {
    return db.Run(*decoded, options);
  });
  MODB_RETURN_IF_ERROR(result.status());
  Result<std::string> reply = tr->Time("serve.encode", root, req, kind.name, [&] {
    return modb::serve::EncodeReply(Status::OK(), &*result);
  });
  MODB_RETURN_IF_ERROR(reply.status());
  Status decoded_reply = tr->Time("client.decode", root, req, kind.name, [&] {
    Result<modb::serve::WireReply> wire = modb::serve::DecodeReply(*reply);
    MODB_RETURN_IF_ERROR(wire.status());
    MODB_RETURN_IF_ERROR(
        modb::serve::DecodeResultBlock(wire->result_block).status());
    return modb::ExecStats::FromJson(wire->stats_json).status();
  });
  tr->End(std::size_t(root));
  return decoded_reply;
}

// The set-up layer: the R-tree bulk load over the unit cubes of `maps`,
// five times.
void TraceBulkLoad(Tracer* tr, const std::vector<const modb::MovingPoint*>& maps) {
  std::vector<modb::RTree3D::Entry> entries;
  for (std::size_t j = 0; j < maps.size(); ++j) {
    for (const modb::UPoint& u : maps[j]->units()) {
      entries.push_back({u.BoundingCube(), std::int64_t(j)});
    }
  }
  for (int i = 0; i < 5; ++i) {
    std::vector<modb::RTree3D::Entry> copy = entries;
    tr->Time("index.bulkload", -1, 0, "setup", [&] {
      return modb::RTree3D::BulkLoad(std::move(copy)).Bounds();
    }, double(entries.size()));
  }
}

// ---------------------------------------------------------------------------
// The run.

// Confines this process (and the modbd it starts) to the highest `n`
// CPUs it may run on; returns their ids.
std::vector<int> PinToCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int c = CPU_SETSIZE - 1; c >= 0 && int(cpus.size()) < n; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &pinned);
      cpus.insert(cpus.begin(), c);
    }
  }
  if (::sched_setaffinity(0, sizeof pinned, &pinned) != 0) cpus.clear();
  return cpus;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string modbd;
  std::string run_dir;
};

struct Run {
  explicit Run(const Args& a) : args(a) {}
  const Args& args;
  JsonValue out = JsonValue::Object();
  JsonValue setup_s = JsonValue::Array();
  std::vector<std::string> problems;  // failed output checks
  Tracer tracer;
};

JsonValue Strings(const std::vector<std::string>& v) {
  JsonValue a = JsonValue::Array();
  for (const std::string& s : v) a.Append(JsonValue::Str(s));
  return a;
}

// Isolation phase of a traced run: each kind alone on a quiet server,
// with /metrics read around it, so serve.request_ns can be split by kind.
void IsolateKinds(Run* run, const ServerProcess& server, Conn* conn,
                  const std::vector<Kind>& kinds) {
  JsonValue iso = JsonValue::Object();
  for (const Kind& k : kinds) {
    JsonValue o = JsonValue::Object();
    o.Set("before", Snapshot(server));
    OpStats st;
    const auto start = Clock::now();
    while (st.attempted < 20 || NsSince(start) < 500'000'000ULL) {
      Send(conn, k.variants[0], nullptr, false, &st);
    }
    o.Set("after", Snapshot(server));
    o.Set("ops", st.ToJson());
    iso.Set(k.name, std::move(o));
  }
  run->out.Set("isolation", std::move(iso));
}

void RecordKinds(Run* run, const std::vector<Kind>& kinds,
                 const std::vector<OpStats>& stats) {
  JsonValue o = JsonValue::Object();
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    o.Set(kinds[k].name, stats[k].ToJson());
  }
  run->out.Set("kinds", std::move(o));
}

int RunPlanes(Run* run) {
  const Args& a = run->args;
  const bool join = a.workload == "planes_join";
  const int flights = join ? kJoinFlights : kScanFlights;
  const std::vector<Kind> kinds = join ? JoinKinds(a.seed) : ScanKinds(a.seed);
  const std::vector<std::string> flags = {
      "--port=0", "--flights=" + std::to_string(flights),
      "--seed=" + std::to_string(kPlanesDataSeed)};
  run->out.Set("modbd_flags", Strings(flags));

  // Set-up: launch to listening (generate + R-tree bulk load), several
  // times; the last server stays up for the timed phase.
  auto server = std::make_unique<ServerProcess>();
  for (int i = 0; i < kStaticSetups; ++i) {
    if (i > 0) {
      server->Stop();
      server = std::make_unique<ServerProcess>();
    }
    const auto start = Clock::now();
    if (Status s = server->Launch(a.modbd, flags); !s.ok()) {
      std::fprintf(stderr, "perfload: %s\n", s.ToString().c_str());
      return 1;
    }
    run->setup_s.Append(JsonValue::Number(double(NsSince(start)) / 1e9));
  }

  // The reference: the same relation, built and queried in-process.
  modb::FlightsOptions gen;
  gen.num_flights = flights;
  gen.seed = kPlanesDataSeed;
  Result<modb::Relation> planes = modb::GeneratePlanes(gen);
  Db local;
  if (!planes.ok() || !local.Register(std::move(*planes)).ok() ||
      !local.BuildIndex("planes", "flight").ok()) {
    std::fprintf(stderr, "perfload: building the reference Db failed\n");
    return 1;
  }
  // expected[k][v]: the result block of variant v of kind k.
  std::vector<std::vector<std::string>> expected(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (const QueryRequest& q : kinds[k].variants) {
      Result<std::string> block = LocalBlock(local, q);
      if (!block.ok()) {
        std::fprintf(stderr, "perfload: reference %s failed: %s\n",
                     kinds[k].name.c_str(), block.status().ToString().c_str());
        return 1;
      }
      expected[k].push_back(std::move(*block));
    }
  }

  // One connection cycles the kinds; each request is a variant drawn
  // from the seed.
  Conn conn(server->port());
  Rng pick{a.seed};
  auto send = [&](std::size_t r, bool keep_stats, std::vector<OpStats>* st) {
    const std::size_t k = r % kinds.size();
    const std::size_t v = pick.Next() % kinds[k].variants.size();
    Send(&conn, kinds[k].variants[v], &expected[k][v], keep_stats, &(*st)[k]);
  };
  {  // Warm-up, untimed: caches, plan cache, page cache, connection.
    std::vector<OpStats> warm(kinds.size());
    const auto start = Clock::now();
    for (std::size_t r = 0; r < 4 * kinds.size() ||
                            NsSince(start) < 500'000'000ULL;
         ++r) {
      send(r, false, &warm);
    }
  }

  std::vector<OpStats> stats(kinds.size());
  run->out.Set("before", Snapshot(*server));
  const auto start = Clock::now();
  const std::uint64_t budget = std::uint64_t(a.seconds * 1e9);
  for (std::size_t r = 0; NsSince(start) < budget; ++r) {
    send(r, a.trace, &stats);
  }
  run->out.Set("phase_s", JsonValue::Number(double(NsSince(start)) / 1e9));
  run->out.Set("after", Snapshot(*server));
  RecordKinds(run, kinds, stats);

  if (a.trace) {
    IsolateKinds(run, *server, &conn, kinds);
    Tracer* tr = &run->tracer;
    // The relation's flights, for the set-up and kernel layers below.
    Result<modb::Relation> rel = modb::GeneratePlanes(gen);
    if (!rel.ok()) return 1;
    std::vector<const modb::MovingPoint*> maps;
    for (std::size_t j = 0; j < rel->NumTuples(); ++j) {
      maps.push_back(&std::get<modb::MovingPoint>(
          rel->tuple(j)[std::size_t(modb::kFlightAttrFlight)]));
    }
    TraceBulkLoad(tr, maps);
    for (const Kind& k : kinds) {
      for (int i = 0; i < 32; ++i) {
        const QueryRequest& q = k.variants[std::size_t(i) % k.variants.size()];
        if (Status s = TraceQuery(tr, local, k, q); !s.ok()) {
          std::fprintf(stderr, "perfload: traced %s: %s\n", k.name.c_str(),
                       s.ToString().c_str());
          return 1;
        }
      }
    }
    if (!join) {
      // The batch kernels under atinstant and present, over every
      // flight at every instant of the grid.
      const std::vector<modb::Instant> ts = kinds[2].variants[0].instants;
      const double cells = double(maps.size() * ts.size());
      for (int i = 0; i < 30; ++i) {
        std::vector<modb::BatchXYOutput> outs;
        Status s = tr->Time("temporal.atinstant", -1, 0, "atinstant", [&] {
          return modb::AtInstantBatchManyXY(maps, ts, &outs);
        }, cells);
        std::vector<std::uint8_t> present;
        Status p = tr->Time("temporal.present", -1, 0, "present", [&] {
          for (const modb::MovingPoint* m : maps) {
            MODB_RETURN_IF_ERROR(modb::PresentBatchInto(*m, ts, &present));
          }
          return Status::OK();
        }, cells);
        if (!s.ok() || !p.ok()) return 1;
      }
    }
  }
  run->out.Set("modbd_exit", JsonValue::Number(server->Stop()));
  return 0;
}

// Total accepted fixes, or an error (a failed set-up batch ends the run:
// without its history the workload is not the one defined).
Result<std::uint64_t> LoadHistory(Conn* conn,
                                  const std::vector<MutationRequest>& batches) {
  std::uint64_t accepted = 0;
  for (const MutationRequest& b : batches) {
    Result<Client::MutationReply> r = conn->Mutate(b);
    if (!r.ok()) return r.status();
    if (!r->status.ok()) return r->status;
    accepted += r->ack.accepted;
  }
  return accepted;
}

JsonValue AckJson(const modb::MutationResult& ack) {
  JsonValue o = JsonValue::Object();
  o.Set("accepted", JsonValue::Int(ack.accepted));
  o.Set("objects", JsonValue::Int(ack.objects));
  o.Set("mem_units", JsonValue::Int(ack.mem_units));
  o.Set("delta_entries", JsonValue::Int(ack.delta_entries));
  o.Set("base_entries", JsonValue::Int(ack.base_entries));
  o.Set("merges", JsonValue::Int(ack.merges));
  o.Set("epoch", JsonValue::Int(ack.epoch));
  return o;
}

std::vector<modb::ingest::IngestFix> ToIngestFixes(const MutationRequest& b) {
  std::vector<modb::ingest::IngestFix> fixes;
  for (const MutationRequest::Fix& f : b.fixes) {
    fixes.push_back({f.object_id, f.t, f.x, f.y});
  }
  return fixes;
}

// The traced run's in-process half for fleet_ingest: the same batches
// through Db::Apply with a store attached (the path modbd serves), through
// a bare LiveRelation with its own store (absorb vs persist), and, every
// eighth batch, the commit of the same trajectories into a mirror store;
// MergeLive rounds at modbd's cadence; the live kinds traced at eight
// points of the run; and the R-tree bulk load over the final trails.
int TraceFleet(Run* run, const std::vector<MutationRequest>& history,
               const std::vector<MutationRequest>& timed,
               const std::vector<Kind>& kinds) {
  Tracer* tr = &run->tracer;
  const std::string dir = run->args.run_dir;
  auto create = [](const std::string& path) {
    ::unlink(path.c_str());
    return modb::VersionedSpillStore::Create(path);
  };
  Result<modb::VersionedSpillStore> db_store = create(dir + "/trace-db.store");
  Result<modb::VersionedSpillStore> live_store =
      create(dir + "/trace-live.store");
  Result<modb::VersionedSpillStore> mirror = create(dir + "/trace-mirror.store");
  if (!db_store.ok() || !live_store.ok() || !mirror.ok()) return 1;
  Db db;
  modb::ingest::LiveRelation live("fleet");
  if (!db.RegisterLive("fleet").ok() ||
      !db.AttachLiveStore("fleet", &*db_store).ok() ||
      !live.AttachStore(&*live_store).ok()) {
    return 1;
  }
  for (const MutationRequest& b : history) {
    if (!db.Apply(b).ok() || !live.Ingest(ToIngestFixes(b)).ok() ||
        !live.Persist().ok()) {
      return 1;
    }
  }
  const std::size_t merge_every = std::max<std::size_t>(
      1, std::size_t(std::lround(kMergeIntervalMs / 1000.0 * kTicksPerRunSecond)));
  const std::size_t query_every = std::max<std::size_t>(1, timed.size() / 8);
  for (std::size_t i = 0; i < timed.size(); ++i) {
    const MutationRequest& b = timed[i];
    const double fixes = double(b.fixes.size());
    const std::uint64_t req = tr->NextRequest();
    const std::int64_t root = std::int64_t(tr->Begin("request", -1, req, "ingest"));
    const std::string payload = tr->Time("client.encode", root, req, "ingest", [&] {
      return modb::serve::EncodeMutationRequest(b);
    });
    Result<MutationRequest> decoded = tr->Time("serve.decode", root, req, "ingest", [&] {
      return modb::serve::DecodeMutationRequest(payload);
    });
    if (!decoded.ok()) return 1;
    Result<modb::MutationResult> ack = tr->Time("db.apply", root, req, "ingest", [&] {
      return db.Apply(*decoded);
    }, fixes);
    if (!ack.ok()) return 1;
    Result<std::string> reply = tr->Time("serve.encode", root, req, "ingest", [&] {
      return modb::serve::EncodeMutationReply(Status::OK(), &*ack);
    });
    if (!reply.ok()) return 1;
    Status client = tr->Time("client.decode", root, req, "ingest", [&] {
      Result<modb::serve::WireReply> wire = modb::serve::DecodeReply(*reply);
      MODB_RETURN_IF_ERROR(wire.status());
      return modb::serve::DecodeMutationAck(wire->result_block).status();
    });
    tr->End(std::size_t(root));
    if (!client.ok()) return 1;

    if ((i + 1) % merge_every == 0) {
      Status merged = tr->Time("index.merge", -1, req, "ingest",
                               [&] { return db.MergeLive("fleet"); });
      if (!merged.ok()) return 1;
    }
    if ((i + 1) % query_every == 0) {
      for (const Kind& k : kinds) {
        if (!TraceQuery(tr, db, k, k.variants[0]).ok()) return 1;
      }
    }

    const std::vector<modb::ingest::IngestFix> f = ToIngestFixes(b);
    Status absorbed = tr->Time("ingest.absorb", -1, req, "ingest",
                               [&] { return live.Ingest(f); }, fixes);
    Status persisted = tr->Time("ingest.persist", -1, req, "ingest",
                                [&] { return live.Persist(); }, fixes);
    if (!absorbed.ok() || !persisted.ok()) return 1;
    // Every 8th batch, the same trajectories committed to the mirror
    // store: Commit alone inside the span, staging outside it.
    if (i % 8 != 0) continue;
    const modb::Relation& rel = live.relation();
    for (std::size_t row = 0; row < rel.NumTuples(); ++row) {
      const auto& mp = std::get<modb::MovingPoint>(
          rel.tuple(row)[modb::ingest::LiveRelation::kTrailSlot]);
      Status staged = row < mirror->NumRoots()
                          ? mirror->RestageValue(row, mp)
                          : mirror->StageValue(mp).status();
      if (!staged.ok()) return 1;
    }
    Status committed = tr->Time("storage.commit", -1, req, "ingest",
                                [&] { return mirror->Commit(); }, fixes);
    if (!committed.ok()) return 1;
  }
  // The set-up layer, as on the planes: over the whole history's trails.
  std::vector<const modb::MovingPoint*> trails;
  const modb::Relation& rel = live.relation();
  for (std::size_t row = 0; row < rel.NumTuples(); ++row) {
    trails.push_back(&std::get<modb::MovingPoint>(
        rel.tuple(row)[modb::ingest::LiveRelation::kTrailSlot]));
  }
  TraceBulkLoad(tr, trails);
  return 0;
}

int RunFleet(Run* run) {
  const Args& a = run->args;
  const int timed_ticks =
      std::max(1, int(std::lround(a.seconds * kTicksPerRunSecond)));
  const int ticks = kHistoryTicks + timed_ticks;
  std::vector<std::vector<MutationRequest::Fix>> fleet =
      FleetTicks(a.seed, ticks);
  std::vector<MutationRequest> history, timed;
  for (int t = 0; t < kHistoryTicks; t += kHistoryTicksPerBatch) {
    std::vector<MutationRequest::Fix> fixes;
    for (int u = t; u < std::min(kHistoryTicks, t + kHistoryTicksPerBatch); ++u) {
      fixes.insert(fixes.end(), fleet[std::size_t(u)].begin(),
                   fleet[std::size_t(u)].end());
    }
    history.push_back(
        IngestBatch("perfbench-history", history.size() + 1, std::move(fixes)));
  }
  for (int t = kHistoryTicks; t < ticks; ++t) {
    timed.push_back(IngestBatch("perfbench-writer", timed.size() + 1,
                                std::move(fleet[std::size_t(t)])));
  }
  std::uint64_t history_fixes = 0, timed_fixes = 0;
  for (const MutationRequest& b : history) history_fixes += b.fixes.size();
  for (const MutationRequest& b : timed) timed_fixes += b.fixes.size();
  const std::vector<Kind> kinds = FleetKinds(a.seed, kTickSeconds * (ticks - 1));

  const std::string store = a.run_dir + "/fleet.store";
  const std::vector<std::string> flags = {
      "--port=0",
      "--seed=" + std::to_string(a.seed),
      "--live=fleet",
      "--store=" + store,
      "--merge-interval-ms=" + std::to_string(kMergeIntervalMs)};
  run->out.Set("modbd_flags", Strings(flags));

  // Set-up: launch to the last history batch acked, several times on a
  // fresh store; the last server stays up for the timed phase.
  auto server = std::make_unique<ServerProcess>();
  std::unique_ptr<Conn> writer;
  std::uint64_t accepted = 0;
  for (int i = 0; i < kFleetSetups; ++i) {
    if (i > 0) {
      writer.reset();
      server->Stop();
      server = std::make_unique<ServerProcess>();
    }
    ::unlink(store.c_str());
    const auto start = Clock::now();
    if (Status s = server->Launch(a.modbd, flags); !s.ok()) {
      std::fprintf(stderr, "perfload: %s\n", s.ToString().c_str());
      return 1;
    }
    writer = std::make_unique<Conn>(server->port());
    Result<std::uint64_t> loaded = LoadHistory(writer.get(), history);
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfload: loading history: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    run->setup_s.Append(JsonValue::Number(double(NsSince(start)) / 1e9));
    accepted = *loaded;
  }

  Conn reader(server->port());
  {
    std::vector<OpStats> warm(kinds.size());
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      Send(&reader, kinds[k].variants[0], nullptr, false, &warm[k]);
    }
  }

  std::vector<OpStats> stats(kinds.size());
  OpStats ingest;
  std::vector<std::uint64_t> batch_ns;  // per batch, in send order; 0 = failed
  modb::MutationResult last_ack;
  std::atomic<bool> done{false};
  run->out.Set("before", Snapshot(*server));
  const auto start = Clock::now();
  // The reader draws the kinds in blocks of ten, each block shuffled from
  // the seed, rather than cycling: in a fixed cycle the same kind always
  // follows the join, when the writer that queued behind the join takes
  // the lock, and that kind's median would flip with the race. Whole
  // blocks keep the mix exact, so the reader's rate does not hinge on how
  // many joins a seed draws. The join, the costly report, is a third as
  // frequent as each lookup; it still takes most of the reader's time,
  // and the lookups get enough samples for a steady median.
  static constexpr std::size_t kPicks[] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3};
  std::thread reader_thread([&] {
    Rng pick{a.seed};
    std::size_t block[std::size(kPicks)];
    std::size_t next = std::size(kPicks);
    while (!done.load(std::memory_order_relaxed)) {
      if (next == std::size(kPicks)) {
        std::copy(std::begin(kPicks), std::end(kPicks), block);
        for (std::size_t i = std::size(block) - 1; i > 0; --i) {
          std::swap(block[i], block[pick.Next() % (i + 1)]);
        }
        next = 0;
      }
      const std::size_t k = block[next++];
      Send(&reader, kinds[k].variants[0], nullptr, a.trace, &stats[k]);
    }
  });
  for (const MutationRequest& b : timed) {
    ++ingest.attempted;
    const auto t0 = Clock::now();
    Result<Client::MutationReply> r = writer->Mutate(b);
    const std::uint64_t ns = NsSince(t0);
    if (!r.ok() || !r->status.ok()) {
      ingest.Fail(r.ok() ? r->status : r.status(), !r.ok());
      batch_ns.push_back(0);
      continue;
    }
    ingest.ok_ns.push_back(ns);
    batch_ns.push_back(ns);
    accepted += r->ack.accepted;
    last_ack = r->ack;
  }
  const double writer_s = double(NsSince(start)) / 1e9;
  done.store(true, std::memory_order_relaxed);
  reader_thread.join();
  run->out.Set("phase_s", JsonValue::Number(double(NsSince(start)) / 1e9));
  run->out.Set("writer_s", JsonValue::Number(writer_s));
  run->out.Set("after", Snapshot(*server));
  RecordKinds(run, kinds, stats);

  // Quiesced checks. Exactly-once: every fix sent was accepted once.
  const std::uint64_t sent = history_fixes + timed_fixes;
  if (accepted != sent) {
    run->problems.push_back("accepted " + std::to_string(accepted) +
                            " fixes of " + std::to_string(sent) + " sent");
  }
  // live == bulk: every live kind equals a local replay of the batches.
  {
    Db local;
    if (!local.RegisterLive("fleet").ok()) return 1;
    for (const std::vector<MutationRequest>* part : {&history, &timed}) {
      for (const MutationRequest& b : *part) {
        if (!local.Apply(b).ok()) {
          run->problems.push_back("local replay rejected a batch");
          break;
        }
      }
    }
    for (const Kind& k : kinds) {
      Result<std::string> block = LocalBlock(local, k.variants[0]);
      OpStats check;
      if (block.ok()) Send(&reader, k.variants[0], &*block, false, &check);
      if (!block.ok() || check.ok_ns.empty() || check.mismatched > 0) {
        run->problems.push_back(k.name +
                                ": live reply differs from the local replay");
      }
    }
  }

  JsonValue in = ingest.ToJson();
  JsonValue order = JsonValue::Array();
  for (std::uint64_t v : batch_ns) order.Append(JsonValue::Int(v));
  in.Set("batch_ns", std::move(order));
  in.Set("fixes_sent", JsonValue::Int(timed_fixes));
  in.Set("history_fixes", JsonValue::Int(history_fixes));
  in.Set("fixes_accepted", JsonValue::Int(accepted));
  in.Set("objects", JsonValue::Int(kFleetObjects));
  in.Set("last_ack", AckJson(last_ack));
  struct stat st;
  in.Set("store_bytes",
         JsonValue::Int(::stat(store.c_str(), &st) == 0 ? std::uint64_t(st.st_size) : 0));
  run->out.Set("ingest", std::move(in));

  if (a.trace) {
    IsolateKinds(run, *server, &reader, kinds);
    if (int rc = TraceFleet(run, history, timed, kinds); rc != 0) {
      std::fprintf(stderr, "perfload: traced in-process replay failed\n");
      return rc;
    }
  }
  writer.reset();
  run->out.Set("modbd_exit", JsonValue::Number(server->Stop()));
  return 0;
}

bool ParseFlag(const char* arg, const char* flag, std::string* out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

bool WriteJson(const std::string& path, const JsonValue& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << v.Write() << "\n";
  return bool(out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if ((build_type != "Release" && build_type != "RelWithDebInfo") ||
      std::strlen(PERFBENCH_SANITIZE) != 0) {
    std::fprintf(stderr,
                 "perfload: refusing a %s build (sanitize '%s'); timings "
                 "need Release or RelWithDebInfo without sanitizers\n",
                 build_type.c_str(), PERFBENCH_SANITIZE);
    return 2;
  }
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      a.workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      a.trace = v == "1";
    } else if (ParseFlag(argv[i], "--modbd", &v)) {
      a.modbd = v;
    } else if (ParseFlag(argv[i], "--run-dir", &v)) {
      a.run_dir = v;
    } else {
      std::fprintf(stderr, "perfload: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (a.modbd.empty() || a.run_dir.empty() || !(a.seconds > 0)) {
    std::fprintf(stderr, "perfload: --modbd, --run-dir and --seconds > 0 "
                         "are required\n");
    return 2;
  }
  // A reset peer must surface as a failed request, never kill perfload.
  std::signal(SIGPIPE, SIG_IGN);

  Run run{a};
  int rc = 2;
  const bool planes = a.workload == "planes_scan" || a.workload == "planes_join";
  if (planes || a.workload == "fleet_ingest") {
    JsonValue cpus = JsonValue::Array();
    for (int c : PinToCpus(planes ? kPlanesCpus : kFleetCpus)) {
      cpus.Append(JsonValue::Number(c));
    }
    run.out.Set("cpus", std::move(cpus));
    rc = planes ? RunPlanes(&run) : RunFleet(&run);
  } else {
    std::fprintf(stderr, "perfload: unknown workload '%s'\n",
                 a.workload.c_str());
  }
  if (rc != 0) return rc;
  run.out.Set("workload", JsonValue::Str(a.workload));
  run.out.Set("seed", JsonValue::Int(a.seed));
  run.out.Set("seconds", JsonValue::Number(a.seconds));
  run.out.Set("trace", JsonValue::Bool(a.trace));
  run.out.Set("build_type", JsonValue::Str(build_type));
  run.out.Set("nproc", JsonValue::Int(std::thread::hardware_concurrency()));
  run.out.Set("merge_interval_ms", JsonValue::Int(kMergeIntervalMs));
  run.out.Set("setup_s", std::move(run.setup_s));
  run.out.Set("problems", Strings(run.problems));
  if (!WriteJson(a.run_dir + "/raw.json", run.out) ||
      (a.trace && !WriteJson(a.run_dir + "/trace.json", run.tracer.ToJson()))) {
    std::fprintf(stderr, "perfload: cannot write to %s\n", a.run_dir.c_str());
    return 1;
  }
  return 0;
}
