// Workload `ship`: sensor-network aggregation as in the paper's Fig. 14.
//
// Set-up: a seed node builds a pointer-rich state (a doubly linked list of
// sensor variables) and exports it; N sensor nodes, each its own daemon root,
// import it, add their delta to every variable in one transaction, and
// export their copy. Timed: the home node imports, opens and walks every
// copy. Copies land on the addresses of the first copy, so every later one
// is relocated and its pointers rewritten on first touch.
#include "perfbench/src/counting_client.h"
#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"
#include "src/libpuddles/libpuddles.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kVars = 40000;  // List nodes per copy (two pointers each).
constexpr int kNodes = 8;          // Sensor nodes = copies per round.
constexpr int kSetups = 3;

struct SensorVar {
  SensorVar* next;
  SensorVar* prev;
  uint64_t value;
  uint64_t id;
};
struct SensorState {
  SensorVar* head;
  SensorVar* tail;
  uint64_t count;
};

void RegisterTypes() {
  auto& registry = puddles::TypeRegistry::Instance();
  (void)registry.Register<SensorVar>(&SensorVar::next, &SensorVar::prev);
  (void)registry.Register<SensorState>(&SensorState::head, &SensorState::tail);
}

struct Node {
  std::unique_ptr<puddled::Daemon> daemon;
  std::unique_ptr<puddles::Runtime> runtime;
  explicit Node(const fs::path& root) {
    ResetDir(root);
    daemon = Take(puddled::Daemon::Start({.root_dir = root.string()}), "daemon start");
    runtime = Take(puddles::Runtime::Create(CountedClient(daemon.get())), "runtime create");
  }
  ~Node() {
    runtime.reset();  // Unmaps before the daemon goes.
    daemon.reset();
  }
};

// The seed state, built in transactions of 1000 appends.
void BuildSeed(const ShipPlan& plan, const fs::path& root, const fs::path& export_dir) {
  Node node(root);
  puddles::Pool* pool = Take(node.runtime->CreatePool("state"), "create state pool");
  Check(pool->Run([&](puddles::Tx& tx) -> puddles::Status {
          ASSIGN_OR_RETURN(SensorState * state, tx.Alloc<SensorState>());
          state->head = state->tail = nullptr;
          state->count = 0;
          return pool->SetRoot(state);
        }),
        "seed root");
  SensorState* state = Take(pool->Root<SensorState>(), "seed root");
  for (uint64_t done = 0; done < plan.vars;) {
    Check(pool->Run([&](puddles::Tx& tx) -> puddles::Status {
            RETURN_IF_ERROR(tx.Log(state));
            if (state->tail != nullptr) {
              RETURN_IF_ERROR(tx.LogField(state->tail, &SensorVar::next));
            }
            for (uint64_t n = 0; n < 1000 && done + n < plan.vars; ++n) {
              ASSIGN_OR_RETURN(SensorVar * var, tx.Alloc<SensorVar>());
              var->id = done + n;
              var->value = plan.BaseValue(done + n);
              var->next = nullptr;
              var->prev = state->tail;
              if (state->tail == nullptr) {
                state->head = var;
              } else {
                state->tail->next = var;
              }
              state->tail = var;
              state->count++;
            }
            return puddles::OkStatus();
          }),
          "seed append");
    done = state->count;
  }
  Check(node.runtime->ExportPool("state", export_dir.string()), "seed export");
}

// Sensor node `i`: import the seed, add NodeDelta(i) to every variable in one
// transaction, export.
void RunSensor(int i, const fs::path& root, const fs::path& seed_dir, const fs::path& out_dir) {
  Node node(root);
  puddles::Pool* pool = Take(node.runtime->ImportPool(seed_dir.string(), "state"), "node import");
  SensorState* state = Take(pool->Root<SensorState>(), "node root");
  Check(pool->Run([&](puddles::Tx& tx) -> puddles::Status {
          for (SensorVar* v = state->head; v != nullptr; v = v->next) {
            RETURN_IF_ERROR(tx.LogField(v, &SensorVar::value));
            v->value += ShipPlan::NodeDelta(i);
          }
          return puddles::OkStatus();
        }),
        "node mutate");
  Check(node.runtime->ExportPool("state", out_dir.string()), "node export");
}

// Walks one copy in place, adding it into `aggregate`; returns nodes visited.
uint64_t Walk(puddles::Pool* pool, std::vector<uint64_t>* aggregate) {
  auto state = pool->Root<SensorState>();
  if (!state.ok() || *state == nullptr) {
    return 0;
  }
  uint64_t visited = 0;
  for (SensorVar* v = (*state)->head; v != nullptr && visited <= kVars; v = v->next) {
    if (aggregate != nullptr && v->id < aggregate->size()) {
      (*aggregate)[v->id] += v->value;
    }
    ++visited;
  }
  return visited;
}

struct RoundStats {
  std::vector<uint64_t> copy_ns;
  std::vector<double> round_copies_per_s;  // One per round.
  uint64_t copies = 0;
  uint64_t relocated = 0;
  uint64_t pointers_rewritten = 0;
  uint64_t rewrites = 0;
  uint64_t pm_bytes = 0;
};

class ShipBench {
 public:
  explicit ShipBench(const RunConfig& cfg)
      : cfg_(cfg), plan_{cfg.seed, kVars, kNodes}, oracle_(plan_) {}

  double Setup(int attempt) {
    dir_ = cfg_.scratch / ("ship" + std::to_string(attempt));
    ResetDir(dir_);
    const uint64_t start = NowNs();
    RegisterTypes();
    BuildSeed(plan_, dir_ / "seed", dir_ / "seed.export");
    for (int i = 0; i < kNodes; ++i) {
      const fs::path root = dir_ / ("node" + std::to_string(i));
      RunSensor(i, root, dir_ / "seed.export", ExportDir(i));
      std::error_code ec;
      fs::remove_all(root, ec);  // Only the export travels home.
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  }

  // One aggregation round on a fresh home root; adds into `stats`.
  void Round(RoundStats* stats, WorkloadResult* result) {
    const fs::path home_root = dir_ / "home";
    std::vector<uint64_t> aggregate(kVars, 0);
    uint64_t round_ns = 0;
    {
      Node home(home_root);
      const puddles::Runtime::Stats before = home.runtime->stats();
      std::vector<puddles::Pool*> pools;
      for (int i = 0; i < kNodes; ++i) {
        const std::string name = "copy" + std::to_string(i);
        uint64_t visited = 0;
        puddled::ImportResult imported;
        const uint64_t t0 = NowNs();
        {
          trace::Span copy("ship.copy");
          {
            trace::Span span("daemon.import");
            imported = Take(home.runtime->client().ImportPool(ExportDir(i).string(), name, 0600),
                            "home import");
          }
          puddles::Pool* pool;
          {
            trace::Span span("libpuddles.open");
            pool = Take(home.runtime->OpenPool(name), "home open");
          }
          {
            trace::Span span("relocation.first_walk");
            visited = Walk(pool, &aggregate);
          }
          pools.push_back(pool);
        }
        stats->copy_ns.push_back(NowNs() - t0);
        round_ns += stats->copy_ns.back();
        stats->copies++;
        stats->relocated += imported.members_relocated;
        for (const std::string& why :
             {oracle_.CheckWalk(i, visited), oracle_.CheckRelocation(i, imported.members_relocated)}) {
          if (!why.empty()) {
            result->Reject(why);
          }
        }
      }
      // Control: walk the already-rewritten copies again.
      for (int i = 0; i < kNodes; ++i) {
        trace::Span span("ship.rewalk");
        const uint64_t visited = Walk(pools[i], nullptr);
        if (visited != kVars) {
          result->Reject(oracle_.CheckWalk(i, visited));
        }
      }
      const puddles::Runtime::Stats after = home.runtime->stats();
      stats->pointers_rewritten += after.pointers_rewritten - before.pointers_rewritten;
      stats->rewrites += after.rewrites - before.rewrites;
      stats->pm_bytes = FileBytesUnder(home_root);
    }
    stats->round_copies_per_s.push_back(kNodes * 1e9 / static_cast<double>(round_ns));
    const std::string why = oracle_.CheckAggregate(aggregate);
    if (!why.empty()) {
      result->Reject(why);
    }
    std::error_code ec;
    fs::remove_all(home_root, ec);
  }

  // Rounds until `seconds` have passed (always whole rounds, at least one).
  RoundStats Run(double seconds, WorkloadResult* result) {
    RoundStats stats;
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    do {
      Round(&stats, result);
    } while (NowNs() < deadline);
    return stats;
  }

  void Teardown() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

 private:
  fs::path ExportDir(int i) const { return dir_ / ("export" + std::to_string(i)); }

  const RunConfig& cfg_;
  ShipPlan plan_;
  ShipOracle oracle_;
  fs::path dir_;
};

double MeanNs(const RoundStats& s) {
  uint64_t total = 0;
  for (uint64_t ns : s.copy_ns) {
    total += ns;
  }
  return s.copy_ns.empty() ? 0 : static_cast<double>(total) / static_cast<double>(s.copy_ns.size());
}

}  // namespace

WorkloadResult RunShip(const RunConfig& cfg, bool traced) {
  WorkloadResult result;
  ShipBench bench(cfg);
  std::vector<double> setups;
  DaemonCallCounts::Global().Reset();
  for (int i = 0; i < (traced ? 1 : kSetups); ++i) {
    if (i > 0) {
      bench.Teardown();
    }
    setups.push_back(bench.Setup(i));
  }
  const DaemonCallCounts::Snapshot setup_calls = DaemonCallCounts::Global().Take();
  const double user_bytes = static_cast<double>(kNodes) * kVars * sizeof(SensorVar);

  if (!traced) {
    RoundStats stats = bench.Run(cfg.seconds, &result);
    result.attempted = stats.copies;
    EndToEnd e2e;
    e2e.setup_s = Median(setups);
    e2e.ops_per_s = Median(stats.round_copies_per_s);
    e2e.p50_us = Percentile(stats.copy_ns, 0.5) / 1e3;
    e2e.p90_us = Percentile(stats.copy_ns, 0.9) / 1e3;
    e2e.pm_bytes_per_user_byte = static_cast<double>(stats.pm_bytes) / user_bytes;
    std::printf("ship: %llu copies (%d nodes x %llu vars), %llu relocated members\n",
                static_cast<unsigned long long>(stats.copies), kNodes,
                static_cast<unsigned long long>(kVars),
                static_cast<unsigned long long>(stats.relocated));
    std::printf("  ship_copies_per_s %.2f copies/s   ship_copy_p50_ms %.4f ms\n", e2e.ops_per_s,
                e2e.p50_us / 1e3);
    PrintDaemonCalls("ship set-up", setup_calls);
    PrintDaemonCalls("ship timed", DaemonCallCounts::Global().Take());
    AddEndToEnd(e2e, &result);
    bench.Teardown();
    return result;
  }

  const RoundStats untraced = bench.Run(cfg.seconds / 2, &result);
  trace::Begin();
  const RoundStats stats = bench.Run(cfg.seconds / 2, &result);
  trace::End();
  result.attempted = untraced.copies + stats.copies;
  trace::Summary summary = trace::Summarize();
  // Overhead compares copy times alone (the traced op time also holds the
  // rewalk control).
  ReportTrace("ship", summary, MeanNs(untraced), MeanNs(stats), &result);
  trace::WriteChromeTrace((cfg.scratch / "trace-ship.json").string(), 100000);
  auto& L = summary.layers;
  const double copies = static_cast<double>(stats.copies);
  auto ms_p50 = [](std::vector<uint64_t>& v) { return Percentile(v, 0.5) / 1e6; };
  result.Add(&result.layers, "daemon.import_ms_p50", "ms", ms_p50(L["daemon.import"].dur_ns));
  result.Add(&result.layers, "libpuddles.open_ms_p50", "ms", ms_p50(L["libpuddles.open"].dur_ns));
  result.Add(&result.layers, "relocation.first_walk_ms_p50", "ms",
             ms_p50(L["relocation.first_walk"].dur_ns));
  result.Add(&result.layers, "relocation.rewalk_ms_p50", "ms", ms_p50(L["ship.rewalk"].dur_ns));
  result.Add(&result.layers, "relocation.pointers_rewritten_per_copy", "count",
             static_cast<double>(stats.pointers_rewritten) / copies);
  result.Add(&result.layers, "relocation.rewrites_per_copy", "count",
             static_cast<double>(stats.rewrites) / copies);
  result.Add(&result.layers, "daemon.members_relocated_per_copy", "count",
             static_cast<double>(stats.relocated) / copies);
  bench.Teardown();
  return result;
}

}  // namespace perfbench
