// Workload `daemon-rpc`: the requests a runtime sends when it opens a pool,
// sent to a spawned `puddled` binary over its UNIX socket by a closed loop of
// two SocketDaemonClient connections at depth 1. The mix is the one counted
// on `ship`'s timed part (per copy opened: 1 OpenPool, 2 RegisterPtrMap, 2
// GetPuddle, 1.75 CompleteRewrite; README.md, "daemon-rpc"), so 4 : 8 : 8 : 7
// OpenPool, GetPuddle (fd passing), RegisterPtrMap (re-registering a record
// with the same contents) and CompleteRewrite. ImportPool, the fifth request
// counted there, is left out: each one copies a pool into the daemon.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/daemon/client.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr int kConnections = 2;
constexpr size_t kPuddles = 64;
constexpr size_t kTypes = 64;
constexpr size_t kPuddleHeap = 64 << 10;
constexpr uint64_t kPhaseOps = 2000;  // Per-opcode phase of the traced run.

enum RpcOp { kOpenPool, kGetPuddle, kRegisterPtrMap, kCompleteRewrite, kNumOps };
constexpr const char* kOpNames[kNumOps] = {"open_pool", "get_puddle", "register_ptr_map",
                                           "complete_rewrite"};
constexpr const char* kOpSpans[kNumOps] = {"ipc.open_pool", "ipc.get_puddle",
                                           "ipc.register_ptr_map", "ipc.complete_rewrite"};
constexpr char kPoolName[] = "rpc";

RpcOp Pick(puddles::Xoshiro256& rng) {
  const uint64_t dice = rng.Below(27);
  return dice < 4 ? kOpenPool : dice < 12 ? kGetPuddle : dice < 20 ? kRegisterPtrMap
                                                                   : kCompleteRewrite;
}

puddled::PtrMapRecord MakeRecord(uint64_t seed, size_t key) {
  puddled::PtrMapRecord record{};
  record.type_id = Mix64(seed * 7919 + key) | 1;
  record.num_fields = 1 + static_cast<uint32_t>(key % 4);
  record.object_size = 64;
  for (uint32_t f = 0; f < record.num_fields; ++f) {
    record.field_offsets[f] = 8 * f;
  }
  return record;
}

// A running `puddled` child and the records created in it.
class Puddled {
 public:
  Puddled(const fs::path& dir, uint64_t seed) : dir_(dir) {
    ResetDir(dir_);
    socket_ = (dir_ / "sock").string();
    const std::string root = (dir_ / "root").string();
    const std::string log = (dir_ / "puddled.log").string();
    const char* argv[] = {PERFBENCH_PUDDLED, "--root", root.c_str(), "--socket", socket_.c_str(),
                          nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int spawned = ::posix_spawn(&pid_, PERFBENCH_PUDDLED, &actions, nullptr,
                                      const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
      Die("cannot spawn puddled");
    }
    TrackChild(pid_);
    setup_client_ = Connect();
    for (size_t i = 0; i < kPuddles; ++i) {
      auto [info, fd] = Take(setup_client_->CreatePuddle(puddled::PuddleKind::kData, kPuddleHeap,
                                                          puddles::Uuid::Nil(), 0600),
                             "create puddle");
      ::close(fd);
      oracle.puddles.push_back(info);
    }
    for (size_t i = 0; i < kTypes; ++i) {
      oracle.ptrmaps.push_back(MakeRecord(seed, i));
      Check(setup_client_->RegisterPtrMap(oracle.ptrmaps.back()), "register ptr map");
    }
    oracle.pool = Take(setup_client_->CreatePool(kPoolName, 0600), "create pool");
  }

  ~Puddled() {
    const pid_t pid = pid_;
    setup_client_.reset();
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {  // Up to 10 s, then SIGKILL.
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (pid_ != 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    UntrackChild(pid);
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Puddled(const Puddled&) = delete;
  Puddled& operator=(const Puddled&) = delete;

  // A new connection, retrying while the daemon starts.
  std::unique_ptr<puddled::SocketDaemonClient> Connect() {
    for (int attempt = 0; attempt < 20000; ++attempt) {
      auto client = puddled::SocketDaemonClient::Connect(socket_);
      if (client.ok()) {
        return std::move(*client);
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        Die("puddled exited during start; see " + (dir_ / "puddled.log").string());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Die("puddled socket never came up");
  }

  puddled::SocketDaemonClient& setup_client() { return *setup_client_; }
  uint64_t pm_bytes() const { return FileBytesUnder(dir_ / "root"); }

  RpcOracle oracle;

 private:
  fs::path dir_;
  std::string socket_;
  pid_t pid_ = 0;
  std::unique_ptr<puddled::SocketDaemonClient> setup_client_;
};

struct Conn {
  std::unique_ptr<puddled::SocketDaemonClient> client;
  puddles::Xoshiro256 rng{0};
  std::vector<uint32_t> lat_ns[kNumOps];
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t op_ns_total = 0;
  std::string reject;
};

// One request of kind `op` on a random key; checks the response against the
// oracle after the timed interval. Returns false if the call failed.
bool Call(Conn* c, RpcOp op, const RpcOracle& oracle, uint64_t request) {
  const size_t key = c->rng.Below(op == kRegisterPtrMap ? kTypes : kPuddles);
  const puddled::PuddleInfo& target = oracle.puddles[key % kPuddles];
  puddled::PuddleInfo info;
  puddled::PoolInfo pool;
  puddles::Status status;
  int fd = -1;
  if (trace::Enabled()) {
    trace::SetRequest(request);
  }
  const uint64_t t0 = NowNs();
  {
    trace::Span root("rpc.request");
    trace::Span span(kOpSpans[op]);
    switch (op) {
      case kOpenPool: {
        auto got = c->client->OpenPool(kPoolName);
        status = got.status();
        if (got.ok()) {
          pool = *got;
        }
        break;
      }
      case kGetPuddle: {
        auto got = c->client->GetPuddle(target.uuid, /*write=*/true);
        status = got.status();
        if (got.ok()) {
          info = got->first;
          fd = got->second;
        }
        break;
      }
      case kRegisterPtrMap:
        status = c->client->RegisterPtrMap(oracle.ptrmaps[key]);
        break;
      default:
        status = c->client->CompleteRewrite(target.uuid);
        break;
    }
  }
  const uint64_t ns = NowNs() - t0;
  c->lat_ns[op].push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
  c->op_ns_total += ns;
  c->ops++;
  if (!status.ok()) {
    c->failed++;
    return false;
  }
  // RegisterPtrMap and CompleteRewrite answer with a status only; what they
  // leave behind is checked after the run (RpcBench::Verify).
  std::string why;
  if (op == kOpenPool) {
    why = oracle.CheckPool(pool);
  } else if (op == kGetPuddle) {
    why = oracle.CheckPuddle(key, info);
  }
  if (fd >= 0) {
    struct stat st {};
    if (::fstat(fd, &st) != 0 || static_cast<uint64_t>(st.st_size) != target.file_size) {
      why = "get_puddle fd does not open the puddle's file";
    }
    ::close(fd);
  }
  if (!why.empty() && c->reject.empty()) {
    c->reject = why;
  }
  return true;
}

class RpcBench {
 public:
  explicit RpcBench(const RunConfig& cfg) : cfg_(cfg) {}

  double Setup(int attempt) {
    conns_.clear();
    daemon_.reset();
    const uint64_t start = NowNs();
    daemon_ = std::make_unique<Puddled>(cfg_.scratch / ("rpc" + std::to_string(attempt)),
                                        cfg_.seed);
    for (int i = 0; i < kConnections; ++i) {
      Conn c;
      c.client = daemon_->Connect();
      c.rng = puddles::Xoshiro256(Mix64(cfg_.seed * 131 + static_cast<uint64_t>(i)));
      conns_.push_back(std::move(c));
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  // Closed loop on every connection for `seconds` (op = -1: the mix) or
  // exactly `per_conn_ops` requests of one kind; returns the wall time.
  double Run(double seconds, int op, uint64_t per_conn_ops) {
    for (Conn& c : conns_) {
      for (auto& v : c.lat_ns) {
        v.clear();
      }
      c.ops = c.failed = c.op_ns_total = 0;
    }
    std::atomic<uint64_t> start{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kConnections; ++i) {
      threads.emplace_back([&, i] {
        while (start.load() == 0) {
        }
        Conn* c = &conns_[i];
        const uint64_t deadline = start.load() + static_cast<uint64_t>(seconds * 1e9);
        for (uint64_t seq = 0;; ++seq) {
          const RpcOp kind = op < 0 ? Pick(c->rng) : static_cast<RpcOp>(op);
          Call(c, kind, daemon_->oracle, (static_cast<uint64_t>(i) << 40) | seq);
          if (op < 0 ? NowNs() >= deadline : seq + 1 >= per_conn_ops) {
            break;
          }
        }
      });
    }
    start.store(NowNs());
    for (auto& t : threads) {
      t.join();
    }
    return static_cast<double>(NowNs() - start.load()) / 1e9;
  }

  // The responses' checks, then every puddle and pointer-map record as the
  // daemon holds it after the run, read on the set-up connection.
  void Verify(WorkloadResult* result) const {
    for (const Conn& c : conns_) {
      if (!c.reject.empty()) {
        result->Reject(c.reject);
      }
    }
    puddled::SocketDaemonClient& client = daemon_->setup_client();
    const RpcOracle& oracle = daemon_->oracle;
    for (size_t key = 0; key < kPuddles; ++key) {
      auto got = client.StatPuddle(oracle.puddles[key].uuid);
      const std::string why = got.ok() ? oracle.CheckPuddle(key, *got) : got.status().ToString();
      if (!why.empty()) {
        result->Reject("after the run: " + why);
      }
    }
    for (size_t key = 0; key < kTypes; ++key) {
      auto got = client.GetPtrMap(oracle.ptrmaps[key].type_id);
      const std::string why = got.ok() ? oracle.CheckPtrMap(key, *got) : got.status().ToString();
      if (!why.empty()) {
        result->Reject("after the run: " + why);
      }
    }
  }

  uint64_t ops() const { return conns_[0].ops + conns_[1].ops; }
  uint64_t failed() const { return conns_[0].failed + conns_[1].failed; }
  double MeanOpNs() const {
    return static_cast<double>(conns_[0].op_ns_total + conns_[1].op_ns_total) /
           static_cast<double>(std::max<uint64_t>(ops(), 1));
  }
  std::vector<uint32_t> Latencies(int op) const {
    std::vector<uint32_t> all;
    for (const Conn& c : conns_) {
      for (int k = 0; k < kNumOps; ++k) {
        if (op < 0 || k == op) {
          all.insert(all.end(), c.lat_ns[k].begin(), c.lat_ns[k].end());
        }
      }
    }
    return all;
  }
  double PmBytesPerUserByte() const {
    const double user = static_cast<double>(kPuddles * kPuddleHeap) +
                        static_cast<double>(kTypes * sizeof(puddled::PtrMapRecord));
    return static_cast<double>(daemon_->pm_bytes()) / user;
  }
  Puddled& daemon() { return *daemon_; }
  void Teardown() {
    conns_.clear();
    daemon_.reset();
  }

 private:
  const RunConfig& cfg_;
  std::unique_ptr<Puddled> daemon_;
  std::vector<Conn> conns_;
};

// The daemon's service-time histogram totals, via the STATS opcode.
std::pair<uint64_t, uint64_t> ServiceTotals(puddled::DaemonClient& client) {
  const puddled::StatsReport report = Take(client.FetchStats(), "STATS");
  for (const puddled::StatsHistRow& row : report.hists) {
    if (row.name == "daemon_service_ns") {
      return {row.count, row.sum_ns};
    }
  }
  Die("STATS reply has no daemon_service_ns histogram");
}

}  // namespace

WorkloadResult RunRpc(const RunConfig& cfg, bool traced) {
  // Client threads and puddled share one CPU (README.md, "CPU placement").
  const CpuSubset pinned(1);
  WorkloadResult result;
  RpcBench bench(cfg);
  if (!traced) {
    // Sub-runs, each against a freshly spawned puddled; each metric is the
    // median over sub-runs.
    std::vector<double> setups, ops_per_s, p50, p90;
    const int subs = SubRuns(cfg.seconds);
    for (int i = 0; i < subs; ++i) {
      setups.push_back(bench.Setup(i));
      const double wall = bench.Run(cfg.seconds / subs, -1, 0);
      bench.Verify(&result);
      result.attempted += bench.ops();
      result.failed += bench.failed();
      ops_per_s.push_back(static_cast<double>(bench.ops()) / wall);
      auto all = bench.Latencies(-1);
      p50.push_back(Percentile(all, 0.5) / 1e3);
      p90.push_back(Percentile(all, 0.9) / 1e3);
      if (i + 1 < subs) {
        bench.Teardown();
      }
    }
    std::printf("  ops/s by sub-run:");
    for (double v : ops_per_s) {
      std::printf(" %.0f", v);
    }
    std::printf("\n");
    EndToEnd e2e;
    e2e.setup_s = Median(setups);
    e2e.ops_per_s = Median(ops_per_s);
    e2e.p50_us = Median(p50);
    e2e.p90_us = Median(p90);
    e2e.pm_bytes_per_user_byte = bench.PmBytesPerUserByte();
    std::printf("daemon-rpc: %llu requests in %d sub-runs over %d connections (depth 1)\n",
                static_cast<unsigned long long>(result.attempted), subs, kConnections);
    auto whole = bench.Latencies(-1);
    std::printf("  rpc_ops_per_s %.1f ops/s   rpc_p50_us %.3f us   rpc_p90_us %.3f us"
                " (medians of sub-runs)   rpc_p99_us %.3f us (last sub-run)\n",
                e2e.ops_per_s, e2e.p50_us, e2e.p90_us, Percentile(whole, 0.99) / 1e3);
    AddEndToEnd(e2e, &result);
    bench.Teardown();
    return result;
  }

  bench.Setup(0);
  bench.Run(cfg.seconds / 2, -1, 0);
  const double untraced_op_ns = bench.MeanOpNs();
  bench.Verify(&result);
  result.attempted += bench.ops();
  result.failed += bench.failed();
  trace::Begin();
  bench.Run(cfg.seconds / 2, -1, 0);
  trace::End();
  bench.Verify(&result);
  result.attempted += bench.ops();
  result.failed += bench.failed();
  const trace::Summary summary = trace::Summarize();
  ReportTrace("daemon-rpc", summary, untraced_op_ns, bench.MeanOpNs(), &result);
  trace::WriteChromeTrace((cfg.scratch / "trace-daemon-rpc.json").string(), 100000);

  // Per-opcode phases: client round trip vs daemon service time. A STATS
  // reply counts the previous STATS request too; the back-to-back pair
  // measures that one request so it can be taken out.
  puddled::DaemonClient& stats_client = bench.daemon().setup_client();
  std::printf("  %-18s %12s %14s %14s\n", "opcode", "rtt p50 us", "service us", "ipc us");
  for (int op = 0; op < kNumOps; ++op) {
    const auto s0 = ServiceTotals(stats_client);
    const auto s1 = ServiceTotals(stats_client);
    bench.Run(0, op, kPhaseOps / kConnections);
    const auto s2 = ServiceTotals(stats_client);
    bench.Verify(&result);
    result.attempted += bench.ops();
    result.failed += bench.failed();
    const uint64_t stats_ns = s1.second - s0.second;
    const uint64_t served = s2.first - s1.first - 1;
    if (served != bench.ops()) {
      result.Reject(std::string("daemon served ") + std::to_string(served) + " " + kOpNames[op] +
                    " requests, client sent " + std::to_string(bench.ops()));
    }
    const double service_us = static_cast<double>(s2.second - s1.second - stats_ns) /
                              static_cast<double>(std::max<uint64_t>(served, 1)) / 1e3;
    auto lat = bench.Latencies(op);
    const double rtt_us = Percentile(lat, 0.5) / 1e3;
    std::printf("  %-18s %12.3f %14.3f %14.3f\n", kOpNames[op], rtt_us, service_us,
                rtt_us - service_us);
    result.Add(&result.layers, std::string("ipc.rtt_us_p50.") + kOpNames[op], "us", rtt_us);
    result.Add(&result.layers, std::string("daemon.service_us_mean.") + kOpNames[op], "us",
               service_us);
    result.Add(&result.layers, std::string("ipc.overhead_us.") + kOpNames[op], "us",
               rtt_us - service_us);
  }
  bench.Teardown();
  return result;
}

}  // namespace perfbench
