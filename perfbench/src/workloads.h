// The four benchmark workloads. Each Run* function sets up its state, runs
// for cfg.seconds, checks every output against its oracle, and returns its
// metrics: the end-to-end set when `traced` is false; when `traced` is true,
// an untraced half and a traced half, and the per-layer set.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"

namespace perfbench {

WorkloadResult RunKv(const RunConfig& cfg, bool traced);
WorkloadResult RunShip(const RunConfig& cfg, bool traced);
WorkloadResult RunRecover(const RunConfig& cfg, bool traced);
WorkloadResult RunRpc(const RunConfig& cfg, bool traced);

// Entry point of the re-executed child that `recover` kills mid-transaction.
int RecoverChildMain(int argc, char** argv);

// Prints the traced pass's per-layer self-time table, rejects a pass with no
// traced operation or an unclosed span, and records the tracing overhead
// (traced vs untraced mean op time) as bench.trace_overhead_pct.<workload>
// and the share of op time in no layer span as bench.unattributed_pct.<workload>.
void ReportTrace(const std::string& workload, const trace::Summary& summary,
                 double untraced_op_ns, double traced_op_ns, WorkloadResult* result);

// Fixed end-to-end metric set every workload reports (see README.md for what
// each means on each workload).
struct EndToEnd {
  double setup_s = 0;
  double ops_per_s = 0;
  double p50_us = 0;
  double p90_us = 0;
  double pm_bytes_per_user_byte = 0;
};
void AddEndToEnd(const EndToEnd& e2e, WorkloadResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
