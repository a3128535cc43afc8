// SIGSEGV-driven on-demand puddle mapping (paper §4.2).
//
// "If the application dereferences any pointer that points to an unmapped
// puddle, it generates a page fault. Libpuddles intercepts this page fault
// ... and maps the faulting puddle to the application's address space."
//
// The paper uses userfaultfd; unprivileged userfaultfd is disabled in this
// environment (DESIGN.md §1), so we intercept SIGSEGV over the PROT_NONE
// global reservation instead — observably identical: touch unmapped puddle →
// fault → map (+ rewrite) → resume.
//
// Signal-safety: the handler itself does almost nothing. It publishes the
// fault address to a mailbox, wakes a helper thread through a pipe (write(2)
// is async-signal-safe), and spins on an atomic until the helper reports
// completion. The helper thread runs full-fat C++ — registry lookups, RPCs,
// mmap, pointer rewriting — outside signal context. Faults the router does
// not own are re-raised with the default disposition so genuine segfaults
// still crash loudly.
#ifndef SRC_LIBPUDDLES_FAULT_ROUTER_H_
#define SRC_LIBPUDDLES_FAULT_ROUTER_H_

#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace puddles {

class FaultRouter {
 public:
  static FaultRouter& Instance();

  // Installs the SIGSEGV handler and starts the helper thread (idempotent).
  void Install();

  // Registers a resolver (one per Runtime). Resolvers run on the helper
  // thread with the fault address and whether the access was a write;
  // returning true means the address is now mapped so that the faulting
  // access may retry.
  using Resolver = std::function<bool(uintptr_t addr, bool write)>;
  uint64_t AddResolver(Resolver resolver);
  void RemoveResolver(uint64_t id);

  struct Stats {
    uint64_t faults_handled = 0;
    uint64_t faults_unresolved = 0;
  };
  Stats stats() const;

 private:
  FaultRouter() = default;

  static void SignalHandler(int signo, siginfo_t* info, void* context);
  void HelperLoop();
  bool Dispatch(uintptr_t addr, bool write);

  // Mailbox protocol: 0 idle → 1 posted → (2 ok | 3 failed) → 0.
  std::atomic<int> mailbox_state_{0};
  std::atomic<uintptr_t> mailbox_addr_{0};
  std::atomic<bool> mailbox_write_{false};
  int wake_pipe_[2] = {-1, -1};

  std::thread helper_;
  std::atomic<uint64_t> helper_tid_{0};
  std::atomic<bool> installed_{false};
  struct sigaction old_action_ = {};

  std::mutex resolvers_mu_;
  std::vector<std::pair<uint64_t, Resolver>> resolvers_;
  uint64_t next_resolver_id_ = 1;

  std::atomic<uint64_t> faults_handled_{0};
  std::atomic<uint64_t> faults_unresolved_{0};
};

}  // namespace puddles

#endif  // SRC_LIBPUDDLES_FAULT_ROUTER_H_
