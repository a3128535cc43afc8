// The benchmark's own adapter between workloads::KvStore and the Puddles
// public API (puddles::Pool / puddles::Tx), with spans around every call into
// a layer below the store:
//
//   libpuddles.run   Pool::Run, whose callback is the child span kv.body
//   tx.log           Tx::LogRange / LogField
//   alloc.alloc      Tx::Alloc
//   alloc.free       Tx::Free
//
// Several stores share one pool: the pool root is a ShardRoots object and
// each adapter owns one slot of it. An adapter can also be joined to an
// enclosing Pool::Run (ShardState::joined), so a batch of store operations
// runs as one transaction — what `recover` kills mid-flight.
#ifndef PERFBENCH_SRC_KV_ADAPTER_H_
#define PERFBENCH_SRC_KV_ADAPTER_H_

#include <cstdint>
#include <utility>

#include "perfbench/src/trace.h"
#include "src/libpuddles/libpuddles.h"
#include "src/workloads/kvstore.h"

namespace perfbench {

inline constexpr int kMaxShards = 4;

// Pool root: one store root per shard. Registered so relocation and the
// allocator's reachability walk see the slots as pointers.
struct ShardRoots {
  void* tables[kMaxShards];
};

// The typed context a KvStore body receives: puddles::Tx plus spans.
class BenchTx {
 public:
  explicit BenchTx(puddles::Tx tx) : tx_(tx) {}

  puddles::Status LogRange(void* addr, size_t size) {
    trace::Span span("tx.log");
    return tx_.LogRange(addr, size);
  }
  template <typename T, typename M>
  puddles::Status LogField(T* object, M T::*field) {
    trace::Span span("tx.log");
    return tx_.LogField(object, field);
  }
  template <typename T>
  puddles::Result<T*> Alloc(size_t count = 1) {
    trace::Span span("alloc.alloc");
    return tx_.Alloc<T>(count);
  }
  template <typename T>
  puddles::Status Free(T* payload) {
    trace::Span span("alloc.free");
    return tx_.Free(payload);
  }

 private:
  puddles::Tx tx_;
};

// Per-shard adapter state. KvStore keeps its adapter by value, so the state
// a caller changes later (`joined`) lives here, shared by every copy.
struct ShardState {
  int shard = 0;
  puddles::Tx* joined = nullptr;
  BenchTx* current = nullptr;
};

class BenchAdapter {
 public:
  static constexpr const char* kName = "Libpuddles (perfbench)";
  template <typename T>
  using Handle = T*;
  using TxCtx = BenchTx;

  BenchAdapter(puddles::Pool* pool, ShardState* state) : pool_(pool), state_(state) {}

  // Creates the pool's ShardRoots object (once per pool, before any store).
  static puddles::Status InitRoots(puddles::Pool* pool) {
    (void)puddles::TypeRegistry::Instance().Register<ShardRoots>(&ShardRoots::tables);
    if (auto existing = pool->Root<ShardRoots>(); existing.ok() && *existing != nullptr) {
      return puddles::OkStatus();
    }
    return pool->Run([&](puddles::Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(ShardRoots * roots, tx.Alloc<ShardRoots>());
      for (void*& slot : roots->tables) {
        slot = nullptr;
      }
      return pool->SetRoot(roots);
    });
  }

  template <typename T>
  T* Get(T* handle) const {
    return handle;
  }
  template <typename T>
  static T* Null() {
    return nullptr;
  }

  template <typename Fn>
  puddles::Status TxRun(Fn&& fn) {
    if (state_->joined != nullptr) {
      BenchTx ctx(*state_->joined);
      state_->current = &ctx;
      puddles::Status status = fn(ctx);
      state_->current = nullptr;
      return status;
    }
    trace::Span run("libpuddles.run");
    return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      trace::Span body("kv.body");
      BenchTx ctx(tx);
      state_->current = &ctx;
      puddles::Status status = fn(ctx);
      state_->current = nullptr;
      return status;
    });
  }

  template <typename T>
  T* Root() {
    ShardRoots* roots = RootsOrNull();
    return roots == nullptr ? nullptr : static_cast<T*>(roots->tables[state_->shard]);
  }

  // Publishes this shard's store root; only legal inside TxRun (the slot
  // write is undo-logged in the running transaction).
  template <typename T>
  puddles::Status SetRoot(T* handle) {
    ShardRoots* roots = RootsOrNull();
    if (roots == nullptr || state_->current == nullptr) {
      return puddles::FailedPreconditionError("SetRoot outside TxRun or before InitRoots");
    }
    RETURN_IF_ERROR(state_->current->LogRange(&roots->tables[state_->shard], sizeof(void*)));
    roots->tables[state_->shard] = handle;
    return puddles::OkStatus();
  }

  template <typename T, typename... M>
  static void RegisterType(M T::*... fields) {
    (void)puddles::TypeRegistry::Instance().Register<T>(fields...);
  }

 private:
  ShardRoots* RootsOrNull() {
    auto roots = pool_->Root<ShardRoots>();
    return roots.ok() ? *roots : nullptr;
  }

  puddles::Pool* pool_;
  ShardState* state_;
};

using Store = workloads::KvStore<BenchAdapter>;

}  // namespace perfbench

#endif  // PERFBENCH_SRC_KV_ADAPTER_H_
