// Oracles: what each workload's outputs must be, computed from the inputs the
// benchmark generated and never from the program's own answers.
//
//   KvModel      DRAM model of one KV shard (kv, recover)
//   ShipOracle   closed-form aggregate of the sensor nodes' mutations (ship)
//   RpcOracle    the records the benchmark created, per key (daemon-rpc)
//
// Each check returns an empty string when the output is right and a reason
// otherwise. SelfTest(workload) feeds the workload's oracle a deliberately
// wrong result and returns false unless the oracle rejects it.
#ifndef PERFBENCH_SRC_ORACLE_H_
#define PERFBENCH_SRC_ORACLE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/daemon/types.h"
#include "src/workloads/kvstore.h"

namespace perfbench {

// ---- Generated inputs shared by the workloads and their oracles ----

struct Value {
  char bytes[workloads::kKvValueSize];
  bool operator==(const Value& other) const {
    return std::memcmp(bytes, other.bytes, sizeof(bytes)) == 0;
  }
};

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The value a put with tag `tag` writes: 64 printable bytes.
inline Value ValueFor(uint64_t tag) {
  Value value;
  uint64_t state = Mix64(tag);
  for (size_t i = 0; i < sizeof(value.bytes); ++i) {
    if (i % 8 == 0) {
      state = Mix64(state);
    }
    value.bytes[i] = static_cast<char>('!' + (state >> (8 * (i % 8))) % 90);
  }
  return value;
}

// Key of record `index` (at most 23 characters, as KvStore requires).
inline std::string KeyFor(uint64_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%015llu", static_cast<unsigned long long>(index));
  return buf;
}

// Inverse of KeyFor; false for a key KeyFor never produces.
inline bool IndexOfKey(std::string_view key, uint64_t* index) {
  if (key.size() != 16 || key[0] != 'k') {
    return false;
  }
  uint64_t n = 0;
  for (char c : key.substr(1)) {
    if (c < '0' || c > '9') {
      return false;
    }
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = n;
  return true;
}

// One entry of a store as read back from persistent memory.
struct StoredEntry {
  std::string key;
  Value value;
};

// ---- kv / recover ----

class KvModel {
 public:
  void Put(uint64_t index, const Value& value) {
    if (index >= slots_.size()) {
      slots_.resize(index + 1);
    }
    Slot& slot = slots_[index];
    live_ += slot.present ? 0 : 1;
    slot.present = true;
    slot.value = value;
  }
  void Erase(uint64_t index) {
    if (index < slots_.size() && slots_[index].present) {
      slots_[index].present = false;
      --live_;
    }
  }
  bool present(uint64_t index) const { return index < slots_.size() && slots_[index].present; }
  uint64_t live() const { return live_; }

  // A Get of record `index` returned (found, value).
  std::string CheckRead(uint64_t index, bool found, const Value& value) const {
    if (found != present(index)) {
      return "read of " + KeyFor(index) + (found ? " found a key the model lacks"
                                                 : " missed a key the model holds");
    }
    if (found && !(value == slots_[index].value)) {
      return "read of " + KeyFor(index) + " returned a stale or foreign value";
    }
    return "";
  }

  // A Delete of record `index` returned `deleted` (true = OK).
  std::string CheckDelete(uint64_t index, bool deleted) const {
    if (deleted != present(index)) {
      return "delete of " + KeyFor(index) + (deleted ? " removed a key the model lacks"
                                                     : " failed on a key the model holds");
    }
    return "";
  }

  // The whole store (every entry reachable from its root, and its size()).
  std::string CheckContents(const std::vector<StoredEntry>& entries, uint64_t size) const {
    if (size != live_) {
      return "store size() is " + std::to_string(size) + ", model holds " +
             std::to_string(live_);
    }
    if (entries.size() != live_) {
      return "store walk found " + std::to_string(entries.size()) + " entries, model holds " +
             std::to_string(live_);
    }
    std::vector<bool> seen(slots_.size(), false);
    for (const StoredEntry& entry : entries) {
      uint64_t index = 0;
      if (!IndexOfKey(entry.key, &index) || !present(index)) {
        return "store holds key '" + entry.key + "' the model lacks";
      }
      if (seen[index]) {
        return "store holds key " + entry.key + " twice";
      }
      seen[index] = true;
      if (!(entry.value == slots_[index].value)) {
        return "store holds a stale or foreign value for " + entry.key;
      }
    }
    return "";
  }

 private:
  struct Slot {
    bool present = false;
    Value value{};
  };
  std::vector<Slot> slots_;
  uint64_t live_ = 0;
};

// ---- ship ----

// Sensor state: `vars` list nodes; variable j starts at BaseValue(seed, j)
// and node i adds NodeDelta(i) to every variable before exporting.
struct ShipPlan {
  uint64_t seed = 1;
  uint64_t vars = 0;
  int nodes = 0;
  static uint64_t NodeDelta(int node) { return static_cast<uint64_t>(node) + 1; }
  uint64_t BaseValue(uint64_t j) const { return Mix64(seed ^ (j * 0x2545f4914f6cdd1dULL)) % 1000; }
};

class ShipOracle {
 public:
  explicit ShipOracle(ShipPlan plan) : plan_(plan) {}

  // One copy's walk visited `visited` nodes.
  std::string CheckWalk(int copy, uint64_t visited) const {
    if (visited != plan_.vars) {
      return "walk of copy " + std::to_string(copy) + " visited " + std::to_string(visited) +
             " nodes, " + std::to_string(plan_.vars) + " were built";
    }
    return "";
  }

  // Import of copy `copy` relocated `relocated` members. Every copy after
  // the first lands on the first copy's addresses and must move.
  std::string CheckRelocation(int copy, uint32_t relocated) const {
    if (copy > 0 && relocated == 0) {
      return "import of copy " + std::to_string(copy) + " relocated no member";
    }
    return "";
  }

  // The aggregate over all copies: N * base + sum of every node's delta.
  std::string CheckAggregate(const std::vector<uint64_t>& aggregate) const {
    if (aggregate.size() != plan_.vars) {
      return "aggregate has " + std::to_string(aggregate.size()) + " variables";
    }
    uint64_t deltas = 0;
    for (int node = 0; node < plan_.nodes; ++node) {
      deltas += ShipPlan::NodeDelta(node);
    }
    for (uint64_t j = 0; j < plan_.vars; ++j) {
      const uint64_t want = static_cast<uint64_t>(plan_.nodes) * plan_.BaseValue(j) + deltas;
      if (aggregate[j] != want) {
        return "aggregate of variable " + std::to_string(j) + " is " +
               std::to_string(aggregate[j]) + ", want " + std::to_string(want);
      }
    }
    return "";
  }

 private:
  ShipPlan plan_;
};

// ---- daemon-rpc ----

class RpcOracle {
 public:
  // Records the benchmark created; key = index into these vectors.
  std::vector<puddled::PuddleInfo> puddles;
  std::vector<puddled::PtrMapRecord> ptrmaps;
  puddled::PoolInfo pool;

  std::string CheckPool(const puddled::PoolInfo& got) const {
    if (!(got.pool_uuid == pool.pool_uuid) || !(got.meta_puddle == pool.meta_puddle) ||
        std::strncmp(got.name, pool.name, sizeof(got.name)) != 0) {
      return "pool record does not match the one created";
    }
    return "";
  }

  std::string CheckPuddle(size_t key, const puddled::PuddleInfo& got) const {
    const puddled::PuddleInfo& want = puddles[key];
    if (!(got.uuid == want.uuid) || got.base_addr != want.base_addr ||
        got.file_size != want.file_size || got.heap_size != want.heap_size ||
        got.kind != want.kind) {
      return "puddle record for key " + std::to_string(key) + " does not match the one created";
    }
    return "";
  }

  std::string CheckPtrMap(size_t key, const puddled::PtrMapRecord& got) const {
    const puddled::PtrMapRecord& want = ptrmaps[key];
    if (got.type_id != want.type_id || got.num_fields != want.num_fields ||
        got.object_size != want.object_size || got.repeat_offset != want.repeat_offset ||
        got.repeat_count != want.repeat_count ||
        std::memcmp(got.field_offsets, want.field_offsets,
                    sizeof(uint32_t) * want.num_fields) != 0) {
      return "pointer map for key " + std::to_string(key) + " does not match the one registered";
    }
    return "";
  }
};

// Feeds the named workload's oracle a right and a deliberately wrong result.
// Returns true when it accepts the first and rejects the second; prints one
// line per case.
bool SelfTest(const std::string& workload);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ORACLE_H_
