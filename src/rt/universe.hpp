#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rt/error.hpp"
#include "rt/fault.hpp"
#include "trace/trace.hpp"

namespace mxn::rt {

class Mailbox;

/// Aggregate traffic counters. Snapshots are cheap to take and compare; the
/// benches use them to report messages/bytes moved per transfer.
struct StatsSnapshot {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  friend StatsSnapshot operator-(StatsSnapshot a, StatsSnapshot b) {
    return {a.messages - b.messages, a.bytes - b.bytes};
  }
};

/// Shared state of one spawn(): the set of "processes" (threads), global
/// traffic counters, the abort flag used to unwind siblings after a failure,
/// the optional fault injector, and the all-blocked watchdog that detects
/// communication deadlock.
///
/// The watchdog is timeout-based: when every live thread of the universe is
/// blocked in a matched receive and no message has been delivered for
/// `deadlock_timeout_ms`, all blocked threads throw DeadlockError. A timeout
/// of zero disables detection. Ranks killed by a fault plan are subtracted
/// from the all-blocked head count, so a silent death cannot mask a
/// deadlock among the survivors.
class Universe {
 public:
  Universe(int size, int deadlock_timeout_ms, int recv_timeout_ms = 0)
      : size_(size),
        deadlock_timeout_ms_(deadlock_timeout_ms),
        recv_timeout_ms_(recv_timeout_ms),
        messages_ctr_(trace::counter("rt.messages")),
        bytes_ctr_(trace::counter("rt.bytes")) {}

  [[nodiscard]] int size() const { return size_; }

  // --- traffic accounting -------------------------------------------------
  void count_message(std::uint64_t bytes) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    // Mirror into the process-wide metrics registry (docs/OBSERVABILITY.md);
    // snapshots via stats() keep working unchanged. The registry references
    // are resolved once per universe (members), keeping the magic-static
    // guard off this hot path.
    messages_ctr_.add(1);
    bytes_ctr_.add(bytes);
    note_activity();
  }

  [[nodiscard]] StatsSnapshot stats() const {
    return {messages_.load(std::memory_order_relaxed),
            bytes_.load(std::memory_order_relaxed)};
  }

  // --- abort handling -----------------------------------------------------
  void abort() {
    aborted_.store(true, std::memory_order_release);
    notify_all_mailboxes();
  }
  [[nodiscard]] bool aborted() const {
    return aborted_.load(std::memory_order_acquire);
  }

  // --- fault injection ----------------------------------------------------
  void set_faults(std::unique_ptr<FaultInjector> f) { faults_ = std::move(f); }
  [[nodiscard]] FaultInjector* faults() const { return faults_.get(); }

  /// Kill-clock tick for `rank` (a universe rank). Throws KilledError at the
  /// rank's appointed operation when a fault plan says so; no-op otherwise.
  void fault_on_op(int rank) {
    if (faults_) faults_->on_op(rank);
  }

  /// A rank died silently (fault-injected kill). The survivors are not
  /// aborted — they must discover the failure through their own deadlines,
  /// exactly like peers of a crashed MPI process.
  void note_death();
  /// note_death() that also records WHICH universe rank died, so survivors
  /// can name it in timeout errors (is_dead/dead_ranks) and a recovery layer
  /// can splice it out (Communicator::split_live, src/redundancy).
  void note_death_of(int rank);
  [[nodiscard]] int dead() const {
    return dead_.load(std::memory_order_acquire);
  }
  /// True when `rank` (a universe rank) was reported via note_death_of().
  [[nodiscard]] bool is_dead(int rank) const {
    return rank >= 0 && rank < size_ &&
           dead_flags_[static_cast<std::size_t>(rank)].load(
               std::memory_order_acquire);
  }
  /// The universe ranks reported dead so far, ascending.
  [[nodiscard]] std::vector<int> dead_ranks() const;
  /// Suffix for survivor-side timeout errors: names the known dead ranks (or
  /// is empty when none died) and bumps the fault.dead_rank_detected counter
  /// per call, so chaos tests can assert the detection happened.
  [[nodiscard]] std::string timeout_dead_report();

  // --- per-call deadlines ---------------------------------------------------
  /// Spawn-wide default receive deadline (SpawnOptions); 0 = no deadline.
  [[nodiscard]] int default_recv_timeout_ms() const {
    return recv_timeout_ms_;
  }

  /// The one blocked-wait loop of the runtime: every facility that parks a
  /// thread on a condition variable (mailbox receives, split rendezvous)
  /// funnels through here so the abort / deadlock / deadline checks exist
  /// exactly once. `ready` is re-evaluated under `lock`; `timeout_ms` < 0
  /// selects the spawn-wide default, 0 disables the deadline.
  ///
  /// Throws AbortError when the universe aborted, DeadlockError when the
  /// watchdog trips, TimeoutError when the deadline passes first.
  template <class Pred>
  void blocked_wait(std::unique_lock<std::mutex>& lock,
                    std::condition_variable& cv, const char* what,
                    Pred&& ready, int timeout_ms = -1) {
    if (ready()) return;
    const int eff = timeout_ms < 0 ? recv_timeout_ms_ : timeout_ms;
    const std::int64_t deadline_ns =
        eff > 0 ? trace::now_ns() + static_cast<std::int64_t>(eff) * 1'000'000
                : 0;
    block_enter();
    while (true) {
      if (aborted()) {
        block_exit();
        throw AbortError(std::string("universe aborted while blocked in ") +
                         what);
      }
      if (deadlocked()) {
        block_exit();
        throw DeadlockError(
            std::string("all live processes blocked in matched waits (") +
            what + ")" + deadlock_report());
      }
      if (ready()) break;
      if (deadline_ns != 0 && trace::now_ns() >= deadline_ns) {
        block_exit();
        trace::instant("rt.timeout", "rt", static_cast<std::uint64_t>(eff));
        throw TimeoutError(std::string(what) + " deadline of " +
                           std::to_string(eff) + " ms exceeded" +
                           timeout_dead_report());
      }
      cv.wait_for(lock, std::chrono::milliseconds(50));
      check_deadlock();
    }
    block_exit();
  }

  // --- deadlock watchdog ----------------------------------------------------
  void block_enter();
  void block_exit();
  void note_activity();

  /// Called from the wait loop of a blocked thread; returns true (and trips
  /// the deadlock flag, waking everyone) when every live thread has been
  /// idle-blocked past the timeout.
  bool check_deadlock();

  [[nodiscard]] bool deadlocked() const {
    return deadlocked_.load(std::memory_order_acquire);
  }

  /// Causal timeline attached to DeadlockError: each blocked rank's last few
  /// trace events (empty unless tracing was enabled). Valid — and immutable —
  /// once deadlocked() returns true.
  [[nodiscard]] const std::string& deadlock_report() const {
    return deadlock_report_;
  }

  // Mailboxes register themselves so abort/deadlock can wake their waiters.
  void register_mailbox(Mailbox* box);
  void unregister_mailbox(Mailbox* box);

 private:
  void notify_all_mailboxes();

  int size_;
  int deadlock_timeout_ms_;
  int recv_timeout_ms_;

  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
  trace::Counter& messages_ctr_;
  trace::Counter& bytes_ctr_;

  std::atomic<bool> aborted_{false};
  std::atomic<bool> deadlocked_{false};
  std::mutex report_mu_;  // serializes the one-time deadlock report build
  std::string deadlock_report_;

  std::unique_ptr<FaultInjector> faults_;
  std::atomic<int> dead_{0};
  // One flag per universe rank, set by note_death_of(). size_ is declared
  // (and constructor-initialized) before this member, so the initializer may
  // read it.
  std::unique_ptr<std::atomic<bool>[]> dead_flags_{
      new std::atomic<bool>[size_ > 0 ? static_cast<std::size_t>(size_) : 1]()};

  std::atomic<int> blocked_{0};
  // Steady-clock time (ns since epoch of the clock) at which the universe
  // became fully blocked; 0 means "not fully blocked" or activity since.
  std::atomic<std::int64_t> all_blocked_since_{0};

  std::mutex boxes_mu_;
  std::vector<Mailbox*> boxes_;
};

// --- process-wide CPU budget for polling receives -------------------------
/// CPUs in this process's affinity mask (sched_getaffinity), read once.
[[nodiscard]] int affinity_cpus();

/// spawn() adds its rank threads when it starts and removes them once they
/// are joined, so the count covers every spawn running at once.
void add_rank_threads(int delta);

/// True while the rank threads of every running spawn fit affinity_cpus():
/// only then may a blocked receive poll before it parks (Mailbox), since a
/// poller on an oversubscribed CPU steals the time its sender needs.
[[nodiscard]] bool rank_threads_fit_cpus();

}  // namespace mxn::rt
