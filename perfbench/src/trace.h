// Benchmark-side tracing: spans recorded around the calls the benchmark makes
// into each layer of the stack (the library itself is not instrumented here).
//
// A span carries a name, start, end, the span that caused it, and the
// request id of the operation it belongs to. Spans are kept in per-thread
// in-memory buffers while tracing is enabled and summarized (or written out
// in the Chrome trace-event format src/stats exports) when a pass ends.
// With tracing disabled a span costs one relaxed load and a branch.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

struct SpanRecord {
  const char* name;   // String literal.
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t self_ns;   // dur_ns minus the time covered by child spans.
  uint64_t request;
  uint32_t id;        // Unique within its thread.
  uint32_t parent;    // 0 for a root span (one whole operation).
  uint32_t tid;
};

extern std::atomic<bool> g_enabled;

inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

// Starts a tracing pass: drops every recorded span and enables recording.
void Begin();
// Stops recording (buffers stay readable until the next Begin).
void End();

// Sets the request id stamped on spans this thread opens from now on.
void SetRequest(uint64_t request);

void Open(const char* name);
void Close();

// Stops recording for the enclosing scope (set-up work inside a traced pass).
class Suspend {
 public:
  Suspend() : was_(g_enabled.exchange(false, std::memory_order_relaxed)) {}
  ~Suspend() { g_enabled.store(was_, std::memory_order_relaxed); }
  Suspend(const Suspend&) = delete;
  Suspend& operator=(const Suspend&) = delete;

 private:
  bool was_;
};

// Scoped span; a no-op when tracing is disabled at construction.
class Span {
 public:
  explicit Span(const char* name) : on_(Enabled()) {
    if (on_) {
      Open(name);
    }
  }
  ~Span() {
    if (on_) {
      Close();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// Per-name self-time statistics over every span of the pass.
struct LayerRow {
  uint64_t count = 0;
  uint64_t self_total_ns = 0;
  std::vector<uint64_t> self_ns;  // One per span.
  std::vector<uint64_t> dur_ns;
};

struct Summary {
  std::map<std::string, LayerRow> layers;
  uint64_t op_time_ns = 0;    // Sum of root-span durations.
  uint64_t self_sum_ns = 0;   // Sum of every span's self time (= op_time_ns
                              // by construction, once every span is closed).
  uint64_t root_self_ns = 0;  // Self time of root spans: op time in no layer span.
  uint64_t ops = 0;           // Root spans.
  uint64_t open_spans = 0;    // Spans never closed (must be 0).
};

// Folds every thread's buffer (call while no thread records).
Summary Summarize();

// Writes the pass as Chrome trace-event JSON (at most `max_events` spans,
// earliest first per thread). Returns the number of events written.
size_t WriteChromeTrace(const std::string& path, size_t max_events);

}  // namespace trace
}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
