#include "perfbench/src/trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "perfbench/src/common.h"

namespace perfbench {
namespace trace {

std::atomic<bool> g_enabled{false};

namespace {

struct Frame {
  const char* name;
  uint64_t start_ns;
  uint64_t child_ns;
  uint32_t id;
};

struct ThreadBuffer {
  uint32_t tid = 0;
  uint32_t next_id = 1;
  uint64_t request = 0;
  std::vector<Frame> stack;
  std::vector<SpanRecord> spans;
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // Guarded by g_mu; outlive threads.
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& Local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->tid = static_cast<uint32_t>(g_buffers.size());
    t_buffer->spans.reserve(1 << 16);
  }
  return *t_buffer;
}

}  // namespace

void Begin() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->stack.clear();
    buffer->next_id = 1;
  }
  g_enabled.store(true, std::memory_order_relaxed);
}

void End() { g_enabled.store(false, std::memory_order_relaxed); }

void SetRequest(uint64_t request) { Local().request = request; }

void Open(const char* name) {
  ThreadBuffer& buffer = Local();
  buffer.stack.push_back({name, NowNs(), 0, buffer.next_id++});
}

void Close() {
  const uint64_t now = NowNs();
  ThreadBuffer& buffer = Local();
  if (buffer.stack.empty()) {
    return;  // Span opened before a Begin() dropped the stack.
  }
  const Frame frame = buffer.stack.back();
  buffer.stack.pop_back();
  const uint64_t dur = now - frame.start_ns;
  uint32_t parent = 0;
  if (!buffer.stack.empty()) {
    buffer.stack.back().child_ns += dur;
    parent = buffer.stack.back().id;
  }
  buffer.spans.push_back({frame.name, frame.start_ns, dur, dur - frame.child_ns, buffer.request,
                          frame.id, parent, buffer.tid});
}

Summary Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  Summary summary;
  for (auto& buffer : g_buffers) {
    summary.open_spans += buffer->stack.size();
    for (const SpanRecord& span : buffer->spans) {
      LayerRow& row = summary.layers[span.name];
      row.count++;
      row.self_total_ns += span.self_ns;
      row.self_ns.push_back(span.self_ns);
      row.dur_ns.push_back(span.dur_ns);
      summary.self_sum_ns += span.self_ns;
      if (span.parent == 0) {
        summary.op_time_ns += span.dur_ns;
        summary.root_self_ns += span.self_ns;
        summary.ops++;
      }
    }
  }
  return summary;
}

size_t WriteChromeTrace(const std::string& path, size_t max_events) {
  std::lock_guard<std::mutex> lock(g_mu);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return 0;
  }
  size_t total = 0;
  for (auto& buffer : g_buffers) {
    total += buffer->spans.size();
  }
  // Every thread keeps the same share of the budget, earliest spans first.
  const size_t per_thread = g_buffers.empty() ? 0 : max_events / g_buffers.size();
  std::fprintf(out, "{\"traceEvents\":[");
  size_t written = 0;
  for (auto& buffer : g_buffers) {
    const size_t n = std::min(per_thread, buffer->spans.size());
    for (size_t i = 0; i < n; ++i) {
      const SpanRecord& s = buffer->spans[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                   "\"tid\":%u,\"args\":{\"id\":%u,\"parent\":%u,\"request\":%llu}}",
                   written == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3, s.tid, s.id, s.parent,
                   static_cast<unsigned long long>(s.request));
      ++written;
    }
  }
  std::fprintf(out, "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans_recorded\":%zu}}\n",
               total);
  const bool ok = std::fclose(out) == 0;
  return ok ? written : 0;
}

}  // namespace trace
}  // namespace perfbench
