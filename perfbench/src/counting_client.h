// The daemon client every benchmark runtime is created with: an
// EmbeddedDaemonClient that counts the calls made through it, by opcode, in
// process-wide counters. `kv` and `ship` print these counts; the
// `daemon-rpc` mix is taken from them (README.md, "daemon-rpc").
#ifndef PERFBENCH_SRC_COUNTING_CLIENT_H_
#define PERFBENCH_SRC_COUNTING_CLIENT_H_

#include <array>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>

#include "src/daemon/client.h"

namespace perfbench {

enum class DaemonOp {
  kCreatePuddle,
  kGetPuddle,
  kStatPuddle,
  kFindPuddleByAddr,
  kDeletePuddle,
  kCreatePool,
  kOpenPool,
  kRegisterLogSpace,
  kRegisterPtrMap,
  kGetPtrMap,
  kCompleteRewrite,
  kExportPool,
  kImportPool,
  kCount,
};

inline constexpr const char* kDaemonOpNames[] = {
    "create_puddle",     "get_puddle",   "stat_puddle",        "find_by_addr",
    "delete_puddle",     "create_pool",  "open_pool",          "register_log_space",
    "register_ptr_map",  "get_ptr_map",  "complete_rewrite",   "export_pool",
    "import_pool"};
static_assert(std::size(kDaemonOpNames) == static_cast<size_t>(DaemonOp::kCount));

// Calls by opcode, counted by every CountingDaemonClient of the process.
class DaemonCallCounts {
 public:
  using Snapshot = std::array<uint64_t, static_cast<size_t>(DaemonOp::kCount)>;

  static DaemonCallCounts& Global() {
    static DaemonCallCounts counts;
    return counts;
  }
  void Bump(DaemonOp op) { n_[static_cast<size_t>(op)].fetch_add(1, std::memory_order_relaxed); }
  void Reset() { (void)Take(); }
  // The counts since the last Reset or Take, and a reset.
  Snapshot Take() {
    Snapshot out{};
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = n_[i].exchange(0);
    }
    return out;
  }

 private:
  std::atomic<uint64_t> n_[static_cast<size_t>(DaemonOp::kCount)] = {};
};

// "  <label> daemon calls by opcode: name=count ..." (non-zero opcodes only).
inline void PrintDaemonCalls(const char* label, const DaemonCallCounts::Snapshot& calls) {
  std::string line;
  for (size_t i = 0; i < calls.size(); ++i) {
    if (calls[i] != 0) {
      line += " " + std::string(kDaemonOpNames[i]) + "=" + std::to_string(calls[i]);
    }
  }
  std::printf("  %s daemon calls by opcode:%s\n", label, line.c_str());
}

class CountingDaemonClient : public puddled::EmbeddedDaemonClient {
 public:
  using Uuid = puddled::Uuid;
  explicit CountingDaemonClient(puddled::Daemon* daemon) : EmbeddedDaemonClient(daemon) {}

  puddles::Result<std::pair<puddled::PuddleInfo, int>> CreatePuddle(
      puddled::PuddleKind kind, size_t heap_size, const Uuid& pool_uuid,
      uint32_t mode) override {
    Bump(DaemonOp::kCreatePuddle);
    return EmbeddedDaemonClient::CreatePuddle(kind, heap_size, pool_uuid, mode);
  }
  puddles::Result<std::pair<puddled::PuddleInfo, int>> GetPuddle(const Uuid& uuid,
                                                                 bool write) override {
    Bump(DaemonOp::kGetPuddle);
    return EmbeddedDaemonClient::GetPuddle(uuid, write);
  }
  puddles::Result<puddled::PuddleInfo> StatPuddle(const Uuid& uuid) override {
    Bump(DaemonOp::kStatPuddle);
    return EmbeddedDaemonClient::StatPuddle(uuid);
  }
  puddles::Result<puddled::PuddleInfo> FindPuddleByAddr(uint64_t addr) override {
    Bump(DaemonOp::kFindPuddleByAddr);
    return EmbeddedDaemonClient::FindPuddleByAddr(addr);
  }
  puddles::Status DeletePuddle(const Uuid& uuid) override {
    Bump(DaemonOp::kDeletePuddle);
    return EmbeddedDaemonClient::DeletePuddle(uuid);
  }
  puddles::Result<puddled::PoolInfo> CreatePool(const std::string& name,
                                                uint32_t mode) override {
    Bump(DaemonOp::kCreatePool);
    return EmbeddedDaemonClient::CreatePool(name, mode);
  }
  puddles::Result<puddled::PoolInfo> OpenPool(const std::string& name) override {
    Bump(DaemonOp::kOpenPool);
    return EmbeddedDaemonClient::OpenPool(name);
  }
  puddles::Status RegisterLogSpace(const Uuid& uuid) override {
    Bump(DaemonOp::kRegisterLogSpace);
    return EmbeddedDaemonClient::RegisterLogSpace(uuid);
  }
  puddles::Status RegisterPtrMap(const puddled::PtrMapRecord& record) override {
    Bump(DaemonOp::kRegisterPtrMap);
    return EmbeddedDaemonClient::RegisterPtrMap(record);
  }
  puddles::Result<puddled::PtrMapRecord> GetPtrMap(uint64_t type_id) override {
    Bump(DaemonOp::kGetPtrMap);
    return EmbeddedDaemonClient::GetPtrMap(type_id);
  }
  puddles::Status CompleteRewrite(const Uuid& uuid) override {
    Bump(DaemonOp::kCompleteRewrite);
    return EmbeddedDaemonClient::CompleteRewrite(uuid);
  }
  puddles::Status ExportPool(const std::string& name, const std::string& dest) override {
    Bump(DaemonOp::kExportPool);
    return EmbeddedDaemonClient::ExportPool(name, dest);
  }
  puddles::Result<puddled::ImportResult> ImportPool(const std::string& src,
                                                    const std::string& new_name,
                                                    uint32_t mode) override {
    Bump(DaemonOp::kImportPool);
    return EmbeddedDaemonClient::ImportPool(src, new_name, mode);
  }

 private:
  static void Bump(DaemonOp op) { DaemonCallCounts::Global().Bump(op); }
};

inline std::shared_ptr<puddled::DaemonClient> CountedClient(puddled::Daemon* daemon) {
  return std::make_shared<CountingDaemonClient>(daemon);
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COUNTING_CLIENT_H_
