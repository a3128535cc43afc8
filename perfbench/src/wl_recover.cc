// Workload `recover`: application-independent recovery (paper §4.1).
//
// Each round starts a fresh daemon root and loads the KV pool, then runs a
// fixed number of crash cycles. In a cycle a child process (this binary,
// re-executed) opens the pool, commits puts on both shards, opens one large
// batch transaction per shard (the adapter joins the enclosing Pool::Run),
// signals the parent and is SIGKILLed mid-transaction. The parent times
// daemon start + RunRecovery + pool open, then checks the store against the
// model of committed puts.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "perfbench/src/kv_env.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kLoaded = 2000;      // Keys per shard loaded at set-up.
constexpr uint64_t kCommitted = 200;    // Committed puts per shard per cycle.
constexpr uint64_t kBatch = 2500;       // In-flight puts per shard when killed.
constexpr int kCycles = 8;              // Crash cycles per round (fixed).

// One put of the plan: record `index` gets ValueFor(tag).
struct PlannedPut {
  uint64_t index;
  uint64_t tag;
};

// The puts of cycle `cycle` on `shard`: four in five update a loaded key, one
// in five inserts a key of its own. Keys inserted by the killed batch
// (in_flight = true) come from a range no committed put uses, so the model
// never holds them.
std::vector<PlannedPut> Plan(uint64_t seed, int cycle, int shard, bool in_flight) {
  puddles::Xoshiro256 rng(Mix64(seed ^ (static_cast<uint64_t>(cycle) << 8) ^
                                static_cast<uint64_t>(shard) ^ (in_flight ? 1ULL << 40 : 0)));
  const uint64_t count = in_flight ? kBatch : kCommitted;
  const uint64_t first_new = in_flight ? kLoaded + kCycles * kCommitted + static_cast<uint64_t>(cycle) * kBatch
                                       : kLoaded + static_cast<uint64_t>(cycle) * kCommitted;
  std::vector<PlannedPut> puts;
  puts.reserve(count);
  for (uint64_t j = 0; j < count; ++j) {
    const uint64_t tag = Mix64(rng());
    if (rng.Below(5) != 0) {
      puts.push_back({rng.Below(kLoaded), tag});
    } else {
      puts.push_back({first_new + j, tag});
    }
  }
  return puts;
}

void ApplyPlan(const std::vector<PlannedPut>& plan, KvModel* model) {
  for (const PlannedPut& put : plan) {
    model->Put(put.index, ValueFor(put.tag));
  }
}

struct Cycle {
  uint64_t total_ns;
  uint64_t start_ns;
  uint64_t recovery_ns;
  uint64_t open_ns;
  puddled::RecoveryReport report;
};

class RecoverBench {
 public:
  explicit RecoverBench(const RunConfig& cfg) : cfg_(cfg) {}

  // A fresh root with the loaded pool; returns the seconds it took.
  double Setup() {
    trace::Suspend untraced;
    root_ = cfg_.scratch / "recover";
    ResetDir(root_);
    const uint64_t start = NowNs();
    auto env = KvEnv::Attach(Take(puddled::Daemon::Start({.root_dir = DaemonRoot()}),
                                  "daemon start"),
                             /*create=*/true);
    for (int shard = 0; shard < kKvShards; ++shard) {
      models_[shard] = KvModel{};
      for (uint64_t i = 0; i < kLoaded; ++i) {
        const Value value = ValueFor(Mix64(cfg_.seed * 31 + i * 2 + static_cast<uint64_t>(shard)));
        Check(env->stores[shard]->Put(KeyFor(i), value.bytes), "load put");
        models_[shard].Put(i, value);
      }
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  // One crash cycle; false if the child could not be driven to its crash.
  bool RunCycle(int cycle, Cycle* out, WorkloadResult* result) {
    if (!CrashChild(cycle, result)) {
      return false;
    }
    for (int shard = 0; shard < kKvShards; ++shard) {
      ApplyPlan(Plan(cfg_.seed, cycle, shard, false), &models_[shard]);
    }
    std::unique_ptr<KvEnv> env;
    const uint64_t t0 = NowNs();
    {
      trace::Span span("recover.cycle");
      std::unique_ptr<puddled::Daemon> daemon;
      {
        trace::Span s("daemon.start");
        daemon = Take(puddled::Daemon::Start({.root_dir = DaemonRoot(), .run_recovery = false}),
                      "daemon start");
      }
      const uint64_t t1 = NowNs();
      {
        trace::Span s("daemon.recovery");
        out->report = Take(daemon->RunRecovery(), "recovery");
      }
      const uint64_t t2 = NowNs();
      {
        trace::Span s("libpuddles.open");
        env = KvEnv::Attach(std::move(daemon), /*create=*/false);
      }
      const uint64_t t3 = NowNs();
      out->start_ns = t1 - t0;
      out->recovery_ns = t2 - t1;
      out->open_ns = t3 - t2;
      out->total_ns = t3 - t0;
    }
    // Oracle, outside the timed interval.
    if (out->report.logs_replayed == 0) {
      result->Reject("cycle " + std::to_string(cycle) + ": recovery replayed no log");
    }
    for (int shard = 0; shard < kKvShards; ++shard) {
      const std::string why =
          models_[shard].CheckContents(env->Dump(shard), env->stores[shard]->size());
      if (!why.empty()) {
        result->Reject("cycle " + std::to_string(cycle) + " shard " + std::to_string(shard) +
                       ": " + why);
      }
    }
    return true;
  }

  double PmBytesPerUserByte() const {
    const double live = static_cast<double>(models_[0].live() + models_[1].live());
    return static_cast<double>(FileBytesUnder(root_)) / (live * (16 + workloads::kKvValueSize));
  }

  void Teardown() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

 private:
  std::string DaemonRoot() const { return (root_ / "puddled").string(); }

  // Spawns the child for `cycle`, waits for its signal, SIGKILLs it.
  bool CrashChild(int cycle, WorkloadResult* result) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      Die("pipe");
    }
    const int child_end = ::fcntl(fds[1], F_DUPFD, 100);  // Inherited (no CLOEXEC).
    ::close(fds[1]);
    const std::string seed = std::to_string(cfg_.seed);
    const std::string cyc = std::to_string(cycle);
    const std::string fd = std::to_string(child_end);
    const std::string root = DaemonRoot();
    const char* argv[] = {cfg_.self_exe.c_str(), "--recover-child", root.c_str(), seed.c_str(),
                          cyc.c_str(), fd.c_str(), nullptr};
    pid_t pid = 0;
    const int spawned = ::posix_spawn(&pid, cfg_.self_exe.c_str(), nullptr, nullptr,
                                      const_cast<char* const*>(argv), environ);
    ::close(child_end);
    if (spawned != 0) {
      ::close(fds[0]);
      Die("cannot spawn the recover child");
    }
    TrackChild(pid);
    pollfd pfd{fds[0], POLLIN, 0};
    char byte = 0;
    const bool signalled = ::poll(&pfd, 1, 60000) == 1 && ::read(fds[0], &byte, 1) == 1;
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    UntrackChild(pid);
    if (!signalled) {
      result->Reject("recover child of cycle " + std::to_string(cycle) +
                     " died before its crash point (signal " +
                     std::to_string(WIFSIGNALED(status) ? WTERMSIG(status) : 0) + ", exit " +
                     std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1) + ")");
    }
    return signalled;
  }

  const RunConfig& cfg_;
  fs::path root_;
  KvModel models_[kKvShards];
};

struct Rounds {
  std::vector<double> setup_s;
  std::vector<double> round_recoveries_per_s;  // One per round.
  std::vector<Cycle> cycles;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double pm_bytes_per_user_byte = 0;
};

// Whole rounds (set-up + kCycles crash cycles) until `seconds` have passed.
Rounds RunRounds(RecoverBench* bench, double seconds, WorkloadResult* result) {
  Rounds rounds;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  do {
    rounds.setup_s.push_back(bench->Setup());
    rounds.attempted += kCycles;
    uint64_t round_ns = 0;
    int done = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      Cycle c{};
      if (!bench->RunCycle(cycle, &c, result)) {
        // The child died before its crash point: what it committed is
        // unknown, so the rest of the round cannot be checked.
        rounds.failed += kCycles - cycle;
        break;
      }
      rounds.cycles.push_back(c);
      round_ns += c.total_ns;
      ++done;
    }
    if (done > 0) {
      rounds.round_recoveries_per_s.push_back(done * 1e9 / static_cast<double>(round_ns));
    }
    rounds.pm_bytes_per_user_byte = bench->PmBytesPerUserByte();
    bench->Teardown();
  } while (NowNs() < deadline);
  return rounds;
}

double MeanTotalNs(const Rounds& r) {
  double total = 0;
  for (const Cycle& c : r.cycles) {
    total += static_cast<double>(c.total_ns);
  }
  return r.cycles.empty() ? 0 : total / static_cast<double>(r.cycles.size());
}

template <typename F>
double MedianOf(const Rounds& r, F field) {
  std::vector<double> v;
  for (const Cycle& c : r.cycles) {
    v.push_back(static_cast<double>(field(c)));
  }
  return Median(v);
}

}  // namespace

WorkloadResult RunRecover(const RunConfig& cfg, bool traced) {
  WorkloadResult result;
  RecoverBench bench(cfg);
  if (!traced) {
    Rounds r = RunRounds(&bench, cfg.seconds, &result);
    result.attempted = r.attempted;
    result.failed = r.failed;
    std::vector<uint64_t> total;
    for (const Cycle& c : r.cycles) {
      total.push_back(c.total_ns);
    }
    EndToEnd e2e;
    e2e.setup_s = Median(r.setup_s);
    e2e.ops_per_s = Median(r.round_recoveries_per_s);
    e2e.p50_us = Percentile(total, 0.5) / 1e3;
    e2e.p90_us = Percentile(total, 0.9) / 1e3;
    e2e.pm_bytes_per_user_byte = r.pm_bytes_per_user_byte;
    std::printf("recover: %zu crash cycles in %zu rounds (%d cycles/round, %llu in-flight puts)\n",
                r.cycles.size(), r.setup_s.size(), kCycles,
                static_cast<unsigned long long>(kBatch * kKvShards));
    std::printf("  recovery_p50_ms %.4f ms   pm_bytes_per_user_byte %.4f bytes/byte\n",
                e2e.p50_us / 1e3, e2e.pm_bytes_per_user_byte);
    AddEndToEnd(e2e, &result);
    return result;
  }

  const Rounds untraced = RunRounds(&bench, cfg.seconds / 2, &result);
  trace::Begin();
  const Rounds r = RunRounds(&bench, cfg.seconds / 2, &result);
  trace::End();
  result.attempted = untraced.attempted + r.attempted;
  result.failed = untraced.failed + r.failed;
  const trace::Summary summary = trace::Summarize();
  ReportTrace("recover", summary, MeanTotalNs(untraced), MeanTotalNs(r), &result);
  trace::WriteChromeTrace((cfg.scratch / "trace-recover.json").string(), 100000);
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  result.Add(&result.layers, "daemon.start_ms", "ms",
             MedianOf(r, [&](const Cycle& c) { return ms(c.start_ns); }));
  result.Add(&result.layers, "daemon.recovery_ms", "ms",
             MedianOf(r, [&](const Cycle& c) { return ms(c.recovery_ns); }));
  result.Add(&result.layers, "libpuddles.open_ms", "ms",
             MedianOf(r, [&](const Cycle& c) { return ms(c.open_ns); }));
  result.Add(&result.layers, "recovery.log_spaces_scanned", "count",
             MedianOf(r, [](const Cycle& c) { return c.report.log_spaces_scanned; }));
  result.Add(&result.layers, "recovery.logs_scanned", "count",
             MedianOf(r, [](const Cycle& c) { return c.report.logs_scanned; }));
  result.Add(&result.layers, "recovery.logs_replayed", "count",
             MedianOf(r, [](const Cycle& c) { return c.report.logs_replayed; }));
  result.Add(&result.layers, "recovery.entries_applied", "count",
             MedianOf(r, [](const Cycle& c) { return c.report.entries_applied; }));
  return result;
}

// The child: open the pool, commit this cycle's puts, enter the batch on
// both shards, tell the parent, and wait for SIGKILL.
int RecoverChildMain(int argc, char** argv) {
  if (argc != 6) {
    std::fprintf(stderr, "usage: --recover-child <root> <seed> <cycle> <fd>\n");
    return 2;
  }
  const std::string root = argv[2];
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const int cycle = std::atoi(argv[4]);
  const int notify_fd = std::atoi(argv[5]);
  auto env = KvEnv::Attach(Take(puddled::Daemon::Start({.root_dir = root}), "daemon start"),
                           /*create=*/false);
  std::atomic<int> in_flight{0};
  std::vector<std::thread> threads;
  for (int shard = 0; shard < kKvShards; ++shard) {
    threads.emplace_back([&, shard] {
      Store& store = *env->stores[shard];
      for (const PlannedPut& put : Plan(seed, cycle, shard, false)) {
        Check(store.Put(KeyFor(put.index), ValueFor(put.tag).bytes), "committed put");
      }
      const std::vector<PlannedPut> batch = Plan(seed, cycle, shard, true);
      (void)env->pool->Run([&](puddles::Tx& tx) -> puddles::Status {
        env->states[shard].joined = &tx;
        for (const PlannedPut& put : batch) {
          Check(store.Put(KeyFor(put.index), ValueFor(put.tag).bytes), "batch put");
        }
        in_flight.fetch_add(1);
        for (;;) {
          ::pause();  // Killed here, mid-transaction.
        }
        return puddles::OkStatus();
      });
    });
  }
  while (in_flight.load() != kKvShards) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const char byte = 'k';
  if (::write(notify_fd, &byte, 1) != 1) {
    return 1;
  }
  for (;;) {
    ::pause();
  }
}

}  // namespace perfbench
