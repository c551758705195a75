#include "rt/runtime.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "rt/error.hpp"
#include "rt/universe.hpp"
#include "trace/trace.hpp"

namespace mxn::rt {

void spawn(int nprocs, const std::function<void(Communicator&)>& fn,
           const SpawnOptions& opts) {
  if (nprocs <= 0) throw UsageError("spawn: nprocs must be positive");
  if (opts.trace || trace::env_enabled()) trace::set_enabled(true);

  auto uni = std::make_unique<Universe>(nprocs, opts.deadlock_timeout_ms,
                                        opts.default_recv_timeout_ms);
  const std::optional<FaultPlan> plan =
      opts.faults ? opts.faults : FaultPlan::from_env();
  if (plan && plan->enabled())
    uni->set_faults(std::make_unique<FaultInjector>(*plan, nprocs));

  std::vector<int> ids(nprocs);
  std::iota(ids.begin(), ids.end(), 0);
  auto world = std::make_shared<detail::CommState>(uni.get(), std::move(ids));

  std::mutex err_mu;
  std::exception_ptr first_error;
  std::exception_ptr kill_error;

  // Counted until every thread is joined, so a receive polls only while the
  // rank threads of all running spawns fit the CPUs (Mailbox).
  add_rank_threads(nprocs);
  struct Uncount {
    int n;
    ~Uncount() { add_rank_threads(-n); }
  } uncount{nprocs};

  std::vector<std::thread> threads;
  threads.reserve(nprocs);
  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&, r] {
      trace::set_thread_rank(r);
      Communicator comm = Communicator::attach(world, r);
      try {
        fn(comm);
      } catch (const AbortError&) {
        // A sibling failed first; this thread was unwound deliberately.
      } catch (const KilledError&) {
        // Fault-injected death is SILENT: the siblings are not aborted —
        // they must detect the loss through their own deadlines or the
        // watchdog, exactly like peers of a crashed MPI process.
        {
          std::lock_guard lock(err_mu);
          if (!kill_error) kill_error = std::current_exception();
        }
        uni->note_death_of(r);
      } catch (...) {
        {
          std::lock_guard lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        uni->abort();
      }
    });
  }
  for (auto& t : threads) t.join();

  // A sibling's real error (often the Timeout/Deadlock the kill provoked)
  // outranks the kill itself, but a kill alone still surfaces as typed.
  if (first_error) std::rethrow_exception(first_error);
  if (kill_error) std::rethrow_exception(kill_error);
}

}  // namespace mxn::rt
