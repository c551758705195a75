#include "rt/universe.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "rt/mailbox.hpp"

namespace mxn::rt {

namespace {
std::atomic<int> rank_threads{0};

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

void Universe::block_enter() {
  const int now_blocked = blocked_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (now_blocked == size_ - dead_.load(std::memory_order_acquire)) {
    all_blocked_since_.store(steady_now_ns(), std::memory_order_release);
  }
}

void Universe::block_exit() {
  blocked_.fetch_sub(1, std::memory_order_acq_rel);
  all_blocked_since_.store(0, std::memory_order_release);
}

void Universe::note_activity() {
  all_blocked_since_.store(0, std::memory_order_release);
}

void Universe::note_death() {
  const int dead = dead_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // The dying thread will never block again: if everyone still alive is
  // already parked, the all-blocked clock starts now, not at the next
  // block_enter (which may never come).
  if (blocked_.load(std::memory_order_acquire) == size_ - dead) {
    all_blocked_since_.store(steady_now_ns(), std::memory_order_release);
  }
  notify_all_mailboxes();
}

void Universe::note_death_of(int rank) {
  if (rank >= 0 && rank < size_)
    dead_flags_[static_cast<std::size_t>(rank)].store(
        true, std::memory_order_release);
  note_death();
}

std::vector<int> Universe::dead_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < size_; ++r)
    if (dead_flags_[static_cast<std::size_t>(r)].load(
            std::memory_order_acquire))
      out.push_back(r);
  return out;
}

std::string Universe::timeout_dead_report() {
  if (dead_.load(std::memory_order_acquire) == 0) return {};
  // Survivor-side detection: the deadline tripped while peers are known
  // dead. Count the detection so chaos suites can assert it happened.
  static trace::Counter& detected = trace::counter("fault.dead_rank_detected");
  detected.add(1);
  const std::vector<int> dead = dead_ranks();
  std::string s = "; ";
  if (dead.empty())
    s += std::to_string(dead_.load(std::memory_order_acquire)) +
         " rank(s) known dead";
  else
    s += "known dead rank(s):";
  for (int r : dead) s.append(" ").append(std::to_string(r));
  s += " (fault-injected kill)";
  return s;
}

bool Universe::check_deadlock() {
  if (deadlock_timeout_ms_ <= 0) return false;
  if (deadlocked_.load(std::memory_order_acquire)) return true;
  const int live = size_ - dead_.load(std::memory_order_acquire);
  if (blocked_.load(std::memory_order_acquire) != live) return false;
  const std::int64_t since = all_blocked_since_.load(std::memory_order_acquire);
  if (since == 0) return false;
  const std::int64_t elapsed_ms = (steady_now_ns() - since) / 1'000'000;
  if (elapsed_ms < deadlock_timeout_ms_) return false;
  {
    // First tripper builds the causal timeline before publishing the flag;
    // every live rank is idle-blocked, so the event rings are quiescent.
    std::lock_guard lock(report_mu_);
    if (!deadlocked_.load(std::memory_order_acquire)) {
      const std::string tail = trace::tail_report(8);
      if (!tail.empty())
        deadlock_report_ =
            "\nLast trace events per rank at deadlock:\n" + tail;
      deadlocked_.store(true, std::memory_order_release);
      notify_all_mailboxes();
    }
  }
  return true;
}

void Universe::register_mailbox(Mailbox* box) {
  std::lock_guard lock(boxes_mu_);
  boxes_.push_back(box);
}

void Universe::unregister_mailbox(Mailbox* box) {
  std::lock_guard lock(boxes_mu_);
  boxes_.erase(std::remove(boxes_.begin(), boxes_.end(), box), boxes_.end());
}

void Universe::notify_all_mailboxes() {
  std::lock_guard lock(boxes_mu_);
  for (Mailbox* box : boxes_) box->notify();
}

int affinity_cpus() {
  static const int cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    // The process's mask is its main thread's (tid == pid), not that of
    // whichever thread asks first: a rank thread may be pinned to one CPU.
    if (sched_getaffinity(getpid(), sizeof(set), &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
  }();
  return cpus;
}

void add_rank_threads(int delta) {
  rank_threads.fetch_add(delta, std::memory_order_relaxed);
}

bool rank_threads_fit_cpus() {
  return rank_threads.load(std::memory_order_relaxed) <= affinity_cpus();
}

}  // namespace mxn::rt
