// Oracle self-tests: each oracle must accept a right result and reject a
// deliberately wrong one (stale value, surviving in-flight write, wrong
// aggregate, mismatched record).
#include "perfbench/src/oracle.h"

namespace perfbench {
namespace {

bool Expect(const char* workload, const char* what, const std::string& verdict, bool want_ok) {
  const bool ok = verdict.empty() == want_ok;
  std::printf("selftest %-10s %-44s %s%s%s\n", workload, what,
              verdict.empty() ? "accepted" : "rejected", ok ? "" : "  <-- WRONG",
              verdict.empty() ? "" : (" (" + verdict + ")").c_str());
  return ok;
}

bool Kv() {
  KvModel model;
  const Value v1 = ValueFor(1), v2 = ValueFor(2);
  model.Put(7, v1);
  model.Put(7, v2);  // Update.
  model.Put(8, v1);
  model.Erase(8);
  bool ok = Expect("kv", "read returns the latest value", model.CheckRead(7, true, v2), true);
  ok &= Expect("kv", "read returns a stale value", model.CheckRead(7, true, v1), false);
  ok &= Expect("kv", "read finds a deleted key", model.CheckRead(8, true, v1), false);
  ok &= Expect("kv", "delete succeeds on a deleted key", model.CheckDelete(8, true), false);
  ok &= Expect("kv", "full scan matches", model.CheckContents({{KeyFor(7), v2}}, 1), true);
  ok &= Expect("kv", "size() disagrees with the scan", model.CheckContents({{KeyFor(7), v2}}, 2),
               false);
  return ok;
}

bool Recover() {
  // Model of committed puts; the killed batch updated key 3 and inserted 900.
  KvModel model;
  std::vector<StoredEntry> store;
  for (uint64_t i = 0; i < 5; ++i) {
    model.Put(i, ValueFor(i));
    store.push_back({KeyFor(i), ValueFor(i)});
  }
  bool ok = Expect("recover", "store equals committed puts", model.CheckContents(store, 5), true);
  std::vector<StoredEntry> updated = store;
  updated[3].value = ValueFor(1000);
  ok &= Expect("recover", "in-flight update survived", model.CheckContents(updated, 5), false);
  std::vector<StoredEntry> inserted = store;
  inserted.push_back({KeyFor(900), ValueFor(900)});
  ok &= Expect("recover", "in-flight insert survived", model.CheckContents(inserted, 6), false);
  return ok;
}

bool Ship() {
  const ShipPlan plan{42, 16, 3};
  ShipOracle oracle(plan);
  std::vector<uint64_t> aggregate(plan.vars);
  for (uint64_t j = 0; j < plan.vars; ++j) {
    for (int node = 0; node < plan.nodes; ++node) {
      aggregate[j] += plan.BaseValue(j) + ShipPlan::NodeDelta(node);
    }
  }
  bool ok = Expect("ship", "aggregate of every node's mutation", oracle.CheckAggregate(aggregate),
                   true);
  std::vector<uint64_t> wrong = aggregate;
  wrong[5] -= ShipPlan::NodeDelta(1);  // One node's mutation lost.
  ok &= Expect("ship", "aggregate missing one node's mutation", oracle.CheckAggregate(wrong),
               false);
  ok &= Expect("ship", "walk visits one node too few", oracle.CheckWalk(1, plan.vars - 1), false);
  ok &= Expect("ship", "second copy not relocated", oracle.CheckRelocation(1, 0), false);
  return ok;
}

bool Rpc() {
  RpcOracle oracle;
  puddled::PuddleInfo info;
  info.base_addr = 1ULL << 40;
  info.file_size = 69632;
  info.heap_size = 65536;
  info.kind = 1;
  oracle.puddles.push_back(info);
  puddled::PtrMapRecord record{};
  record.type_id = 99;
  record.num_fields = 2;
  record.object_size = 64;
  record.field_offsets[1] = 8;
  oracle.ptrmaps.push_back(record);
  bool ok = Expect("daemon-rpc", "matching puddle record", oracle.CheckPuddle(0, info), true);
  puddled::PuddleInfo moved = info;
  moved.base_addr += 4096;
  ok &= Expect("daemon-rpc", "puddle record with another base", oracle.CheckPuddle(0, moved),
               false);
  ok &= Expect("daemon-rpc", "matching pointer map", oracle.CheckPtrMap(0, record), true);
  puddled::PtrMapRecord other = record;
  other.field_offsets[1] = 16;
  ok &= Expect("daemon-rpc", "pointer map with another field", oracle.CheckPtrMap(0, other),
               false);
  oracle.pool.pool_uuid = puddles::Uuid::Generate();
  oracle.pool.meta_puddle = puddles::Uuid::Generate();
  std::snprintf(oracle.pool.name, sizeof(oracle.pool.name), "rpc");
  ok &= Expect("daemon-rpc", "matching pool record", oracle.CheckPool(oracle.pool), true);
  puddled::PoolInfo other_pool = oracle.pool;
  other_pool.meta_puddle = puddles::Uuid::Generate();
  ok &= Expect("daemon-rpc", "pool record with another meta puddle",
               oracle.CheckPool(other_pool), false);
  return ok;
}

}  // namespace

bool SelfTest(const std::string& workload) {
  if (workload == "kv") {
    return Kv();
  }
  if (workload == "recover") {
    return Recover();
  }
  if (workload == "ship") {
    return Ship();
  }
  if (workload == "daemon-rpc") {
    return Rpc();
  }
  return false;
}

}  // namespace perfbench
