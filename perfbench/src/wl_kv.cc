// Workload `kv`: the paper's Fig. 11 store under a closed loop of two client
// threads, one KvStore shard each, both shards in one pool. Zipfian keys;
// 45% read, 45% update, 5% insert of a new key, 5% delete.
#include <atomic>
#include <thread>

#include "perfbench/src/kv_env.h"
#include "perfbench/src/workloads.h"
#include "src/common/rng.h"
#include "src/pmem/flush.h"
#include "src/stats/stats.h"
#include "src/workloads/ycsb.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kRecords = 20000;  // Zipfian key space per shard.
constexpr uint64_t kStock = 2000;     // Extra keys loaded for deletes to consume.
constexpr uint64_t kRecentWindow = 1000;  // Reads that probe inserted/deleted keys.
constexpr int kSetups = 5;

enum OpClass { kRead, kUpdate, kInsert, kDelete, kNumClasses };
constexpr const char* kClassNames[kNumClasses] = {"read", "update", "insert", "delete"};
constexpr const char* kSpanNames[kNumClasses] = {"kv.read", "kv.update", "kv.insert",
                                                 "kv.delete"};

uint64_t PutTag(uint64_t seed, int shard, uint64_t n) {
  return Mix64(seed * 0x9e3779b97f4a7c15ULL ^ (static_cast<uint64_t>(shard) << 56) ^ n);
}

// One shard's client: its generator, its model, and its latency samples.
struct Client {
  int shard = 0;
  puddles::Xoshiro256 rng{0};
  KvModel model;
  uint64_t next_insert = kRecords + kStock;  // Next never-used key index.
  uint64_t next_delete = kRecords;           // Oldest inserted key still live.
  uint64_t puts = 0;                         // Tags for written values.
  std::vector<uint32_t> lat_ns[kNumClasses];
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t op_ns_total = 0;
  std::string reject;  // First oracle rejection, if any.
};

class KvBench {
 public:
  KvBench(const RunConfig& cfg) : cfg_(cfg), zipf_(kRecords) {}

  // Builds a fresh pool and loads both shards; returns the seconds it took.
  double Setup(int attempt) {
    env_.reset();
    root_ = cfg_.scratch / ("kv" + std::to_string(attempt));
    ResetDir(root_);
    setup_counters_ = puddles::stats::Aggregate();
    const uint64_t start = NowNs();
    env_ = KvEnv::Attach(Take(puddled::Daemon::Start({.root_dir = (root_ / "puddled").string()}),
                              "daemon start"),
                         /*create=*/true);
    std::vector<std::thread> loaders;
    for (int shard = 0; shard < kKvShards; ++shard) {
      clients_[shard] = Client{};
      clients_[shard].shard = shard;
      clients_[shard].rng = puddles::Xoshiro256(Mix64(cfg_.seed + 101 * shard));
      loaders.emplace_back([this, shard] { Load(shard); });
    }
    for (auto& t : loaders) {
      t.join();
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  // Runs both clients for `seconds`; returns the wall time.
  double Run(double seconds, bool traced) {
    for (Client& c : clients_) {
      for (auto& v : c.lat_ns) {
        v.clear();
      }
      c.ops = c.failed = c.op_ns_total = 0;
    }
    if (traced) {
      trace::Begin();
    }
    std::atomic<int> ready{0};
    std::atomic<uint64_t> start{0};
    std::vector<std::thread> threads;
    for (int shard = 0; shard < kKvShards; ++shard) {
      threads.emplace_back([&, shard] {
        ready.fetch_add(1);
        while (start.load() == 0) {
        }
        Loop(&clients_[shard], start.load() + static_cast<uint64_t>(seconds * 1e9));
      });
    }
    while (ready.load() != kKvShards) {
    }
    start.store(NowNs());
    for (auto& t : threads) {
      t.join();
    }
    const uint64_t end = NowNs();
    if (traced) {
      trace::End();
    }
    return static_cast<double>(end - start.load()) / 1e9;
  }

  // Checks each shard's whole contents against its model.
  void Verify(WorkloadResult* result) {
    for (int shard = 0; shard < kKvShards; ++shard) {
      const Client& c = clients_[shard];
      if (!c.reject.empty()) {
        result->Reject("kv shard " + std::to_string(shard) + ": " + c.reject);
      }
      std::string why = c.model.CheckContents(env_->Dump(shard), env_->stores[shard]->size());
      if (!why.empty()) {
        result->Reject("kv shard " + std::to_string(shard) + " at end: " + why);
      }
    }
  }

  uint64_t ops() const { return clients_[0].ops + clients_[1].ops; }
  uint64_t failed() const { return clients_[0].failed + clients_[1].failed; }
  double MeanOpNs() const {
    const uint64_t n = ops();
    return n == 0 ? 0
                  : static_cast<double>(clients_[0].op_ns_total + clients_[1].op_ns_total) /
                        static_cast<double>(n);
  }
  uint64_t writes() const {
    uint64_t n = 0;
    for (const Client& c : clients_) {
      n += c.lat_ns[kUpdate].size() + c.lat_ns[kInsert].size() + c.lat_ns[kDelete].size();
    }
    return n;
  }
  std::vector<uint32_t> Latencies(OpClass k) const {
    std::vector<uint32_t> all = clients_[0].lat_ns[k];
    all.insert(all.end(), clients_[1].lat_ns[k].begin(), clients_[1].lat_ns[k].end());
    return all;
  }
  // Persistent bytes under the root per live key+value byte.
  double PmBytesPerUserByte() const {
    uint64_t live = 0;
    for (const Client& c : clients_) {
      live += c.model.live();
    }
    const double user = static_cast<double>(live) * (16 + workloads::kKvValueSize);
    return static_cast<double>(FileBytesUnder(root_)) / user;
  }
  // Data puddles the pool has added since its set-up began.
  uint64_t pool_grows() const {
    return puddles::stats::Delta(puddles::stats::Aggregate(), setup_counters_)
        .counter(puddles::stats::Counter::kPoolGrow);
  }
  void Teardown() {
    env_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

 private:
  void Load(int shard) {
    Client& c = clients_[shard];
    Store& store = *env_->stores[shard];
    for (uint64_t i = 0; i < kRecords + kStock; ++i) {
      const Value value = ValueFor(PutTag(cfg_.seed, shard, c.puts++));
      Check(store.Put(KeyFor(i), value.bytes), "load put");
      c.model.Put(i, value);
    }
  }

  void Loop(Client* c, uint64_t deadline) {
    Store& store = *env_->stores[c->shard];
    const bool traced = trace::Enabled();
    Value got;
    for (uint64_t seq = 0;; ++seq) {
      const uint64_t dice = c->rng.Below(100);
      OpClass k;
      uint64_t index;
      if (dice < 45) {
        k = kRead;
        if (c->rng.Below(10) == 0) {
          index = c->next_insert - 1 - c->rng.Below(kRecentWindow);
        } else {
          index = zipf_.Next(c->rng) % kRecords;
        }
      } else if (dice < 90) {
        k = kUpdate;
        index = zipf_.Next(c->rng) % kRecords;
      } else if (dice < 95) {
        k = kInsert;
        index = c->next_insert++;
      } else {
        k = kDelete;
        index = c->next_delete++;
      }
      const std::string key = KeyFor(index);
      Value value{};
      if (k == kUpdate || k == kInsert) {
        value = ValueFor(PutTag(cfg_.seed, c->shard, c->puts++));
      }
      if (traced) {
        trace::SetRequest((static_cast<uint64_t>(c->shard) << 40) | seq);
      }
      bool found = false;
      puddles::Status status;
      const uint64_t t0 = NowNs();
      {
        trace::Span span(kSpanNames[k]);
        if (k == kRead) {
          found = store.Get(key, got.bytes);
        } else if (k == kDelete) {
          status = store.Delete(key);
        } else {
          status = store.Put(key, value.bytes);
        }
      }
      const uint64_t t1 = NowNs();
      const uint64_t ns = t1 - t0;
      c->lat_ns[k].push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
      c->op_ns_total += ns;
      c->ops++;
      // Oracle, outside the timed interval.
      std::string why;
      if (k == kRead) {
        why = c->model.CheckRead(index, found, got);
      } else if (k == kDelete) {
        const bool deleted = status.ok();
        if (!deleted && status.code() != puddles::StatusCode::kNotFound) {
          c->failed++;
        } else {
          why = c->model.CheckDelete(index, deleted);
          c->model.Erase(index);
        }
      } else if (!status.ok()) {
        c->failed++;
      } else {
        c->model.Put(index, value);
      }
      if (!why.empty() && c->reject.empty()) {
        c->reject = why;
      }
      if (t1 >= deadline) {
        return;
      }
    }
  }

  const RunConfig& cfg_;
  workloads::ZipfianGenerator zipf_;
  fs::path root_;
  std::unique_ptr<KvEnv> env_;
  Client clients_[kKvShards];
  puddles::stats::Snapshot setup_counters_;
};

double P(std::vector<uint32_t> v, double q) { return Percentile(v, q); }

}  // namespace

WorkloadResult RunKv(const RunConfig& cfg, bool traced) {
  // One CPU per client thread (README.md, "CPU placement").
  const CpuSubset pinned(kKvShards);
  WorkloadResult result;
  KvBench bench(cfg);
  std::vector<double> setups;
  DaemonCallCounts::Global().Reset();
  for (int i = 0; i < (traced ? 1 : kSetups); ++i) {
    if (i > 0) {
      bench.Teardown();
    }
    setups.push_back(bench.Setup(i));
  }
  const DaemonCallCounts::Snapshot setup_calls = DaemonCallCounts::Global().Take();

  if (!traced) {
    // Sub-runs on fresh threads; each metric is the median over sub-runs.
    std::vector<double> ops_per_s, p50, p90;
    std::vector<uint32_t> all[kNumClasses];
    for (int i = 0; i < SubRuns(cfg.seconds); ++i) {
      const double wall = bench.Run(cfg.seconds / SubRuns(cfg.seconds), false);
      result.attempted += bench.ops();
      result.failed += bench.failed();
      ops_per_s.push_back(static_cast<double>(bench.ops()) / wall);
      auto updates = bench.Latencies(kUpdate);
      p50.push_back(P(updates, 0.5) / 1e3);
      p90.push_back(P(updates, 0.9) / 1e3);
      for (int k = 0; k < kNumClasses; ++k) {
        auto lat = bench.Latencies(static_cast<OpClass>(k));
        all[k].insert(all[k].end(), lat.begin(), lat.end());
      }
    }
    bench.Verify(&result);
    std::printf("kv: %llu ops in %d sub-runs (2 threads, 2 shards, %llu records/shard)\n",
                static_cast<unsigned long long>(result.attempted), SubRuns(cfg.seconds),
                static_cast<unsigned long long>(kRecords));
    for (int k = 0; k < kNumClasses; ++k) {
      std::printf("  kv_%s_p50_us %.3f us   kv_%s_p99_us %.3f us   (%zu samples, whole run)\n",
                  kClassNames[k], P(all[k], 0.5) / 1e3, kClassNames[k], P(all[k], 0.99) / 1e3,
                  all[k].size());
    }
    std::printf("  ops/s by sub-run:");
    for (double v : ops_per_s) {
      std::printf(" %.0f", v);
    }
    std::printf("\n");
    PrintDaemonCalls("kv set-up", setup_calls);
    PrintDaemonCalls("kv timed", DaemonCallCounts::Global().Take());
    EndToEnd e2e;
    e2e.setup_s = Median(setups);
    e2e.ops_per_s = Median(ops_per_s);
    e2e.p50_us = Median(p50);
    e2e.p90_us = Median(p90);
    e2e.pm_bytes_per_user_byte = bench.PmBytesPerUserByte();
    std::printf("  kv_ops_per_s %.1f ops/s   kv_update_p50_us %.3f us   kv_update_p90_us %.3f us"
                "   pm_bytes_per_user_byte %.4f bytes/byte (medians of sub-runs)\n",
                e2e.ops_per_s, e2e.p50_us, e2e.p90_us, e2e.pm_bytes_per_user_byte);
    AddEndToEnd(e2e, &result);
    bench.Teardown();
    return result;
  }

  // Traced mode: an untraced half, then a traced half with counter deltas.
  bench.Run(cfg.seconds / 2, false);
  const double untraced_op_ns = bench.MeanOpNs();
  result.attempted += bench.ops();
  result.failed += bench.failed();
  const pmem::PersistStats persist_before = pmem::ReadPersistStats();
  const puddles::stats::Snapshot before = puddles::stats::Aggregate();
  bench.Run(cfg.seconds / 2, true);
  const auto delta = puddles::stats::Delta(puddles::stats::Aggregate(), before);
  const pmem::PersistStats persist_after = pmem::ReadPersistStats();
  result.attempted += bench.ops();
  result.failed += bench.failed();
  bench.Verify(&result);

  trace::Summary summary = trace::Summarize();
  ReportTrace("kv", summary, untraced_op_ns, bench.MeanOpNs(), &result);
  trace::WriteChromeTrace((cfg.scratch / "trace-kv.json").string(), 100000);
  const double writes = static_cast<double>(std::max<uint64_t>(bench.writes(), 1));
  auto& L = summary.layers;
  auto layer = [&](const char* name, const char* unit, double v) {
    result.Add(&result.layers, name, unit, v);
  };
  layer("libpuddles.run_self_ns_p50", "ns", Percentile(L["libpuddles.run"].self_ns, 0.5));
  layer("tx.log_ns_p50", "ns", Percentile(L["tx.log"].dur_ns, 0.5));
  layer("tx.log_calls_per_write", "count", static_cast<double>(L["tx.log"].count) / writes);
  layer("alloc.alloc_ns_p50", "ns", Percentile(L["alloc.alloc"].dur_ns, 0.5));
  layer("alloc.alloc_ns_p99", "ns", Percentile(L["alloc.alloc"].dur_ns, 0.99));
  layer("alloc.free_ns_p50", "ns", Percentile(L["alloc.free"].dur_ns, 0.5));
  layer("pmem.fences_per_write", "count",
        static_cast<double>(persist_after.fences - persist_before.fences) / writes);
  layer("pmem.flushed_lines_per_write", "count",
        static_cast<double>(persist_after.flushed_lines - persist_before.flushed_lines) / writes);
  layer("tx.undo_bytes_per_write", "bytes",
        static_cast<double>(delta.counter(puddles::stats::Counter::kLogBytes)) / writes);
  layer("alloc.slab_carves_per_kop", "count",
        static_cast<double>(delta.counter(puddles::stats::Counter::kSlabCarve)) * 1000 /
            static_cast<double>(std::max<uint64_t>(bench.ops(), 1)));
  layer("libpuddles.pool_grows", "count", static_cast<double>(bench.pool_grows()));
  bench.Teardown();
  return result;
}

}  // namespace perfbench
