// A KV pool as `kv` and `recover` use it: one daemon root, one runtime, one
// pool named "kv", and one KvStore shard per thread in that pool.
#ifndef PERFBENCH_SRC_KV_ENV_H_
#define PERFBENCH_SRC_KV_ENV_H_

#include <filesystem>
#include <memory>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/counting_client.h"
#include "perfbench/src/kv_adapter.h"
#include "perfbench/src/oracle.h"

namespace perfbench {

inline constexpr int kKvShards = 2;  // One shard per client thread.

struct KvEnv {
  std::unique_ptr<puddled::Daemon> daemon;
  std::unique_ptr<puddles::Runtime> runtime;
  puddles::Pool* pool = nullptr;
  ShardState states[kKvShards];
  std::vector<std::unique_ptr<Store>> stores;

  // Attaches a runtime to `started` and creates (create = true) or opens the
  // pool and its shard stores.
  static std::unique_ptr<KvEnv> Attach(std::unique_ptr<puddled::Daemon> started, bool create) {
    auto env = std::make_unique<KvEnv>();
    env->daemon = std::move(started);
    env->runtime =
        Take(puddles::Runtime::Create(CountedClient(env->daemon.get())), "runtime create");
    env->pool = create ? Take(env->runtime->CreatePool("kv"), "create pool")
                       : Take(env->runtime->OpenPool("kv"), "open pool");
    Check(BenchAdapter::InitRoots(env->pool), "pool roots");
    Store::RegisterTypes();
    for (int shard = 0; shard < kKvShards; ++shard) {
      env->states[shard].shard = shard;
      env->stores.push_back(
          std::make_unique<Store>(BenchAdapter(env->pool, &env->states[shard])));
      Check(env->stores.back()->Init(), "store init");
    }
    return env;
  }

  // Every entry reachable from shard `shard`'s root, read straight from the
  // pool (not through the store's own lookup path).
  std::vector<StoredEntry> Dump(int shard) {
    std::vector<StoredEntry> entries;
    auto* table = BenchAdapter(pool, &states[shard]).Root<Store::Table>();
    if (table == nullptr) {
      return entries;
    }
    for (uint64_t b = 0; b < table->num_buckets; ++b) {
      for (Store::Entry* e = table->buckets->slots[b]; e != nullptr; e = e->next) {
        StoredEntry out;
        out.key.assign(e->key, strnlen(e->key, workloads::kKvKeyMax));
        std::memcpy(out.value.bytes, e->value, sizeof(out.value.bytes));
        entries.push_back(std::move(out));
      }
    }
    return entries;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_KV_ENV_H_
