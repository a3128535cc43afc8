// perfbench: one end-to-end benchmark for the Puddles stack.
//
//   perfbench --workload <kv|ship|recover|daemon-rpc> --seed <n> --seconds <s>
//             --trace <0|1> [--scratch <dir>] [--trace-dir <dir>]
//   perfbench --selftest <workload|all>
//
// --trace 0 runs the named workload untraced and prints its end-to-end
// metrics. --trace 1 runs the named workload and the other traced-tour
// workloads (kv, ship and daemon-rpc), each split into an untraced and a
// traced half of an equal share of the seconds, and prints the per-layer
// metrics of all of them. `recover` is not in the tour: it fails its oracle
// at this commit (README.md, "Known faults"), and its per-layer metrics come
// from `--workload recover --trace 1` alone. The last line of stdout is
// always the JSON result.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <mutex>

#include "perfbench/src/oracle.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

namespace {
std::mutex g_children_mu;
std::vector<pid_t> g_children;  // Guarded by g_children_mu.
}  // namespace

void TrackChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  g_children.push_back(pid);
}

void UntrackChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(g_children_mu);
  std::erase(g_children, pid);
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    for (pid_t pid : g_children) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
  std::_Exit(3);
}

void AddEndToEnd(const EndToEnd& e2e, WorkloadResult* result) {
  result->Add(&result->e2e, "setup_s", "s", e2e.setup_s);
  result->Add(&result->e2e, "ops_per_s", "1/s", e2e.ops_per_s);
  result->Add(&result->e2e, "p50_us", "us", e2e.p50_us);
  result->Add(&result->e2e, "p90_us", "us", e2e.p90_us);
  result->Add(&result->e2e, "pm_bytes_per_user_byte", "bytes/byte", e2e.pm_bytes_per_user_byte);
}

void ReportTrace(const std::string& workload, const trace::Summary& summary,
                 double untraced_op_ns, double traced_op_ns, WorkloadResult* result) {
  const double overhead_pct = (traced_op_ns / untraced_op_ns - 1) * 100;
  const double op_time_ns = static_cast<double>(std::max<uint64_t>(summary.op_time_ns, 1));
  const double unattributed_pct = 100.0 * static_cast<double>(summary.root_self_ns) / op_time_ns;
  // Self time is a span's duration minus its children's, so the self times of
  // a pass add up to its op time by construction; what the table shows is
  // how the op time divides among the spans, and how much of it no layer
  // span covers (the root spans' own self time).
  std::printf("traced %s: %llu ops, traced op time %.3f ms, self times sum to %.3f ms, "
              "%.2f%% of it in no layer span (root self time)\n",
              workload.c_str(), static_cast<unsigned long long>(summary.ops),
              static_cast<double>(summary.op_time_ns) / 1e6,
              static_cast<double>(summary.self_sum_ns) / 1e6, unattributed_pct);
  std::printf("  tracing overhead %+.2f%% (mean op %.1f ns untraced, %.1f ns traced)\n",
              overhead_pct, untraced_op_ns, traced_op_ns);
  std::printf("  %-24s %10s %12s %8s %14s\n", "span", "count", "self ms", "share", "self p50 ns");
  for (const auto& [name, row] : summary.layers) {
    std::vector<uint64_t> self = row.self_ns;
    std::printf("  %-24s %10llu %12.3f %7.2f%% %14.0f\n", name.c_str(),
                static_cast<unsigned long long>(row.count),
                static_cast<double>(row.self_total_ns) / 1e6,
                100.0 * static_cast<double>(row.self_total_ns) / op_time_ns,
                Percentile(self, 0.5));
  }
  if (summary.ops == 0 || summary.open_spans != 0) {
    result->Reject("traced " + workload + ": no operation traced, or a span left open");
  }
  result->Add(&result->layers, "bench.trace_overhead_pct." + workload, "%", overhead_pct);
  result->Add(&result->layers, "bench.unattributed_pct." + workload, "%", unattributed_pct);
}

namespace {

constexpr const char* kWorkloads[] = {"kv", "ship", "recover", "daemon-rpc"};
constexpr const char* kTraceTour[] = {"kv", "ship", "daemon-rpc"};

WorkloadResult RunOne(const std::string& workload, const RunConfig& cfg, bool traced) {
  if (workload == "kv") {
    return RunKv(cfg, traced);
  }
  if (workload == "ship") {
    return RunShip(cfg, traced);
  }
  if (workload == "recover") {
    return RunRecover(cfg, traced);
  }
  return RunRpc(cfg, traced);
}

bool KnownWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) {
      return true;
    }
  }
  return false;
}

void PrintResult(const WorkloadResult& result, const std::vector<Metric>& metrics) {
  bool correct = result.correct;
  std::string out = "{\"correct\": ";
  std::string body;
  for (const Metric& m : metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      correct = false;
      value = 0;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    body += buf;
  }
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", out.c_str());
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <kv|ship|recover|daemon-rpc> --seed <n> --seconds <s> "
               "--trace <0|1> [--scratch <dir>] [--trace-dir <dir>]\n"
               "       %s --selftest <workload|all>\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "--recover-child") == 0) {
    return RecoverChildMain(argc, argv);
  }
  if (argc == 3 && std::strcmp(argv[1], "--selftest") == 0) {
    const std::string which = argv[2];
    bool ok = true;
    for (const char* w : kWorkloads) {
      if (which == "all" || which == w) {
        ok &= SelfTest(w);
      }
    }
    return ok && (which == "all" || KnownWorkload(which)) ? 0 : 1;
  }

  std::string workload;
  std::string trace_dir;
  RunConfig cfg;
  int traced = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      traced = std::atoi(value);
    } else if (flag == "--scratch") {
      cfg.scratch = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !KnownWorkload(workload) || (traced != 0 && traced != 1) ||
      !(cfg.seconds > 0)) {
    return Usage(argv[0]);
  }
  if (cfg.scratch.empty()) {
    cfg.scratch = ".bench_run/" + std::to_string(::getpid());
  }
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    Die("cannot resolve /proc/self/exe");
  }
  cfg.self_exe.assign(exe, static_cast<size_t>(n));
  ResetDir(cfg.scratch);

  WorkloadResult total;
  std::vector<std::string> order = {workload};
  if (traced == 1) {
    for (const char* w : kTraceTour) {
      if (workload != w) {
        order.push_back(w);
      }
    }
  }
  RunConfig run = cfg;
  if (traced == 1) {
    run.seconds = cfg.seconds / static_cast<double>(order.size());
  }
  for (const std::string& w : order) {
    if (!SelfTest(w)) {
      total.Reject("oracle self-test of " + w + " accepted a wrong result");
    }
    WorkloadResult r = RunOne(w, run, traced == 1);
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.e2e.insert(total.e2e.end(), r.e2e.begin(), r.e2e.end());
    total.layers.insert(total.layers.end(), r.layers.begin(), r.layers.end());
    if (traced == 1 && !trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(trace_dir, ec);
      std::filesystem::copy_file(cfg.scratch / ("trace-" + w + ".json"),
                                 std::filesystem::path(trace_dir) / ("trace-" + w + ".json"),
                                 std::filesystem::copy_options::overwrite_existing, ec);
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.scratch, ec);
  std::fflush(stderr);
  PrintResult(total, traced == 1 ? total.layers : total.e2e);
  return 0;
}
