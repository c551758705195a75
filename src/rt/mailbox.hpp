#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "rt/message.hpp"
#include "rt/universe.hpp"

namespace mxn::rt {

/// Per-rank, per-communicator inbox. Receives match on (source, tag) with
/// wildcard support; messages from the same (source, tag) are delivered in
/// FIFO order, which is what makes tag-reuse by consecutive collective
/// operations safe (all ranks issue collectives in the same program order).
///
/// Storage is SHARDED into one lane per source rank (plus an overflow lane
/// for out-of-range sources), so concurrent senders never serialize on a
/// single inbox mutex: each lane has its own micro-lock whose only possible
/// contention is the box's single consumer scanning while that one producer
/// deposits ("rt.mailbox.lane_contention" counts those collisions, both
/// sides). A source-specific receive touches exactly its sender's lane; a
/// wildcard receive round-robins over the lanes, skipping empty ones via a
/// per-lane message count, so an idle 64-peer inbox costs 64 atomic loads
/// to scan, not 64 mutex acquisitions.
///
/// A receive whose first scan misses polls before it blocks: it re-scans
/// its lanes, yielding between scans, for a window of ~50 us, since a
/// request/reply chain (PRMI) usually answers inside that and a futex
/// sleep and wake costs more than the whole round trip. Polling runs only
/// while the process's live rank threads fit the CPUs of its affinity mask
/// (rank_threads_fit_cpus); an oversubscribed spawn parks at once.
/// "rt.recv.polled" counts the receives a poll satisfied.
///
/// Consumer blocking uses a separate doorbell (mutex + condvar): a producer
/// rings it only when the consumer has announced it is waiting. The
/// waiting-flag / lane-count handshake is a seq_cst Dekker pair, so either
/// the producer observes the waiting consumer and rings, or the consumer's
/// scan observes the freshly deposited message — never neither (see the
/// comment on waiting_ in mailbox.cpp).
///
/// Ordering: per-(src, tag) FIFO holds per lane exactly as it did in the
/// single-queue inbox. Wildcard receives pick among lanes in round-robin
/// order rather than global arrival order — indistinguishable to callers,
/// since cross-source arrival order was already a race, and starvation-free
/// where a fixed lowest-lane-first scan would not be.
class Mailbox {
 public:
  /// `owner_rank` is the universe rank of the thread that receives from this
  /// box; the fault layer uses it as the kill clock for blocking receives.
  /// `nlanes` is the number of source ranks that get a dedicated lane
  /// (normally the communicator size); sources outside [0, nlanes) share
  /// the overflow lane, so 0 degenerates to a single-queue box.
  Mailbox(Universe* uni, int owner_rank, int nlanes = 0);

  ~Mailbox();

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deposit a message (called from the sending thread). With
  /// `reorder` set (fault injection), the message queue-jumps ahead of
  /// everything already waiting in its lane, violating per-(src, tag) FIFO
  /// on purpose.
  void put(Message msg, bool reorder = false);

  /// Blocking matched receive. Throws AbortError if the universe aborted,
  /// DeadlockError if the watchdog trips, TimeoutError when the deadline
  /// passes (timeout_ms < 0 selects the spawn-wide default, 0 = none).
  Message get(int src, int tag, int timeout_ms = -1);

  /// Non-blocking matched receive.
  std::optional<Message> try_get(int src, int tag);

  /// Blocking receive matched on (src, tag) AND an arbitrary payload
  /// predicate — the MPI_Mprobe analogue frameworks use to peek envelopes
  /// before committing to a message. Among matches in a lane, FIFO holds.
  Message get_if(int src, int tag,
                 const std::function<bool(const Message&)>& pred,
                 int timeout_ms = -1);

  /// Is there a matching message queued right now? (MPI_Iprobe analogue.)
  bool probe(int src, int tag);

  /// Wake any blocked waiter so it can re-check abort/deadlock flags.
  void notify();

 private:
  /// One source rank's queue. `n` mirrors q.size() (updated inside mu) so
  /// scans can skip empty lanes without taking the lock; its accesses pair
  /// with waiting_ as a seq_cst Dekker handshake.
  struct Lane {
    std::mutex mu;
    std::deque<Message> q;
    std::atomic<int> n{0};
  };

  using Pred = std::function<bool(const Message&)>;

  Lane& lane_for(int src);

  /// Pop the first (src, tag, pred) match out of `ln`, if any.
  std::optional<Message> take_from(Lane& ln, int src, int tag,
                                   const Pred* pred);

  /// Pop the first match across every lane `src` may legally occupy.
  std::optional<Message> scan(int src, int tag, const Pred* pred);

  /// Re-scan, yielding between scans, for a bounded window that ends
  /// early on abort and is shorter than any receive deadline. Skipped
  /// while the process's rank threads outnumber its CPUs.
  std::optional<Message> poll(int src, int tag, const Pred* pred);

  /// Shared body of get / get_if: fast-path scan, then a poll, then the
  /// doorbell wait.
  Message blocking_get(int src, int tag, const Pred* pred, int timeout_ms);

  Universe* uni_;
  int owner_;
  int nlanes_;                      // dedicated lanes; +1 overflow at the end
  std::unique_ptr<Lane[]> lanes_;   // nlanes_ + 1 entries

  // Doorbell: the consumer parks on bell_cv_ under bell_mu_; producers ring
  // only when waiting_ says someone is parked (or about to be).
  std::mutex bell_mu_;
  std::condition_variable bell_cv_;
  std::atomic<bool> waiting_{false};

  // Round-robin start lane for wildcard scans (consumer thread only;
  // atomic so stray cross-thread probes stay benign under TSan).
  std::atomic<int> rr_{0};
};

}  // namespace mxn::rt
