#include "rt/mailbox.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "rt/error.hpp"
#include "trace/trace.hpp"

namespace mxn::rt {

namespace {

/// How long a receive whose first scan missed keeps re-scanning before it
/// parks on the doorbell. A PRMI reply comes back after the callee's
/// dispatch and marshal, some microseconds; a window sweep of 10, 20, 50
/// and 100 us is recorded in docs/PERFORMANCE.md "Polling receives".
constexpr std::int64_t kPollWindowNs = 50'000;
// Deadlines are whole milliseconds, so a poll ends before any of them.
static_assert(kPollWindowNs < 1'000'000);

bool envelope_matches(const Message& m, int src, int tag) {
  return (src == kAnySource || m.src == src) &&
         (tag == kAnyTag || m.tag == tag);
}

trace::Counter& contention_counter() {
  static trace::Counter& c = trace::counter("rt.mailbox.lane_contention");
  return c;
}

/// Lock a lane's micro-lock, counting the (rare) collisions between the
/// lane's producer and the box's consumer.
std::unique_lock<std::mutex> lock_lane(std::mutex& mu) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contention_counter().add(1);
    lock.lock();
  }
  return lock;
}

}  // namespace

Mailbox::Mailbox(Universe* uni, int owner_rank, int nlanes)
    : uni_(uni),
      owner_(owner_rank),
      nlanes_(nlanes > 0 ? nlanes : 0),
      lanes_(new Lane[static_cast<std::size_t>(nlanes_) + 1]) {
  uni_->register_mailbox(this);
}

Mailbox::~Mailbox() { uni_->unregister_mailbox(this); }

Mailbox::Lane& Mailbox::lane_for(int src) {
  return lanes_[src >= 0 && src < nlanes_ ? src : nlanes_];
}

void Mailbox::put(Message msg, bool reorder) {
  Lane& ln = lane_for(msg.src);
  {
    auto lock = lock_lane(ln.mu);
    if (reorder)
      ln.q.push_front(std::move(msg));
    else
      ln.q.push_back(std::move(msg));
    // seq_cst: Dekker pair with the consumer's waiting_ store (below). If
    // the consumer's scan missed this message, this store precedes our
    // waiting_ load in the seq_cst order, which forces that load to see the
    // consumer waiting — so we ring the bell. Symmetrically, if we read
    // waiting_ == false, the consumer's scan is guaranteed to see n > 0.
    ln.n.fetch_add(1, std::memory_order_seq_cst);
  }
  uni_->note_activity();
  if (waiting_.load(std::memory_order_seq_cst)) {
    // Ring under the bell mutex: the consumer is either parked on bell_cv_
    // (gets the notify) or running its predicate while holding bell_mu_
    // (will rescan before parking) — a wakeup cannot fall in the gap.
    std::lock_guard<std::mutex> bell(bell_mu_);
    bell_cv_.notify_all();
  }
}

std::optional<Message> Mailbox::take_from(Lane& ln, int src, int tag,
                                          const Pred* pred) {
  if (ln.n.load(std::memory_order_seq_cst) == 0) return std::nullopt;
  auto lock = lock_lane(ln.mu);
  for (auto it = ln.q.begin(); it != ln.q.end(); ++it) {
    if (envelope_matches(*it, src, tag) && (pred == nullptr || (*pred)(*it))) {
      Message out = std::move(*it);
      ln.q.erase(it);
      ln.n.fetch_sub(1, std::memory_order_seq_cst);
      return out;
    }
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::scan(int src, int tag, const Pred* pred) {
  if (src != kAnySource) return take_from(lane_for(src), src, tag, pred);
  const int n = nlanes_ + 1;
  const int start = rr_.load(std::memory_order_relaxed) % n;
  for (int i = 0; i < n; ++i) {
    const int li = (start + i) % n;
    if (auto m = take_from(lanes_[li], src, tag, pred)) {
      // Resume the next wildcard scan after the lane just served, so a
      // chatty low-numbered peer cannot starve the others.
      rr_.store((li + 1) % n, std::memory_order_relaxed);
      return m;
    }
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::poll(int src, int tag, const Pred* pred) {
  if (!rank_threads_fit_cpus()) return std::nullopt;
  const std::int64_t end = trace::now_ns() + kPollWindowNs;
  while (!uni_->aborted()) {
    // Yield, never spin on pause: the scheduler may run the sender (or the
    // thread it wakes) on this CPU, and a spinner would only delay it.
    std::this_thread::yield();
    if (auto m = scan(src, tag, pred)) return m;
    if (trace::now_ns() >= end) break;
  }
  return std::nullopt;
}

Message Mailbox::blocking_get(int src, int tag, const Pred* pred,
                              int timeout_ms) {
  uni_->fault_on_op(owner_);
  // Fast path: no doorbell traffic when the message already arrived.
  if (auto m = scan(src, tag, pred)) return std::move(*m);

  // Polling and parking are one wait: rt.recv_wait_ns sees both.
  static trace::Histogram& wait_ns = trace::histogram("rt.recv_wait_ns");
  trace::Span wait("rt.wait", "rt", 0, &wait_ns);
  if (auto m = poll(src, tag, pred)) {
    static trace::Counter& polled = trace::counter("rt.recv.polled");
    polled.add(1);
    return std::move(*m);
  }

  std::unique_lock<std::mutex> lock(bell_mu_);
  // Announce BEFORE scanning again (inside blocked_wait's predicate): with
  // both this store and the producer's lane-count store seq_cst, either the
  // producer sees waiting_ == true and rings, or our rescan sees its
  // deposit — the lost-wakeup interleaving is impossible. blocked_wait's
  // 50 ms deadlock/abort tick backstops the bell regardless.
  waiting_.store(true, std::memory_order_seq_cst);
  std::optional<Message> found;
  try {
    uni_->blocked_wait(
        lock, bell_cv_, "recv",
        [&] {
          found = scan(src, tag, pred);
          return found.has_value();
        },
        timeout_ms);
  } catch (...) {
    waiting_.store(false, std::memory_order_seq_cst);
    throw;
  }
  waiting_.store(false, std::memory_order_seq_cst);
  return std::move(*found);
}

Message Mailbox::get(int src, int tag, int timeout_ms) {
  return blocking_get(src, tag, nullptr, timeout_ms);
}

Message Mailbox::get_if(int src, int tag,
                        const std::function<bool(const Message&)>& pred,
                        int timeout_ms) {
  return blocking_get(src, tag, &pred, timeout_ms);
}

std::optional<Message> Mailbox::try_get(int src, int tag) {
  return scan(src, tag, nullptr);
}

bool Mailbox::probe(int src, int tag) {
  const auto peek = [&](Lane& ln) {
    if (ln.n.load(std::memory_order_seq_cst) == 0) return false;
    auto lock = lock_lane(ln.mu);
    for (const Message& m : ln.q)
      if (envelope_matches(m, src, tag)) return true;
    return false;
  };
  if (src != kAnySource) return peek(lane_for(src));
  for (int li = 0; li <= nlanes_; ++li)
    if (peek(lanes_[li])) return true;
  return false;
}

// Deliberately lock-free: abort/deadlock wakers call this for EVERY box,
// from inside a blocked_wait that already holds the CALLER's bell mutex —
// taking bell_mu_ here would self-deadlock the box notifying itself and
// ABBA-deadlock two boxes notifying each other. A waiter that misses the
// naked notify re-checks the abort/deadlock flags at its next 50 ms tick,
// so the wake is delayed, never lost.
void Mailbox::notify() { bell_cv_.notify_all(); }

}  // namespace mxn::rt
