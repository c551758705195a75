#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "prmi/protocol.hpp"
#include "prmi/servant.hpp"
#include "prmi/value.hpp"
#include "rt/communicator.hpp"
#include "sched/cache.hpp"
#include "sidl/registry.hpp"

namespace mxn::prmi {

class RemotePort;

/// Caller-side fault policy for a RemotePort (docs/FAULTS.md). When set,
/// every reply wait carries a `timeout_ms` deadline; on expiry the call is
/// retried — the header is resent with a bumped invocation epoch after a
/// linear backoff — up to `max_retries` times before the TimeoutError
/// propagates. The servant deduplicates retransmitted headers by sequence
/// number and resends the cached reply, so a retried call executes at most
/// once end to end. Retry engages only for methods without parallel or
/// deferred parameters (their data streams cannot be replayed safely);
/// other methods still get the deadline, just no resend.
struct RetryPolicy {
  int timeout_ms = 1000;
  int max_retries = 3;
  int backoff_ms = 5;  // sleep backoff_ms * attempt before resending
};

/// Provider-side duplicate detection state of one connection
/// (docs/FAULTS.md): independent invocations are tracked per source,
/// collective ones per connection (every caller of a collective call
/// carries the same seq, so a retransmitted header may arrive from a
/// DIFFERENT rank than the original). A header with seq <= the watermark is
/// a retransmission: it is never re-executed; the cached reply is resent
/// instead.
struct DedupState {
  std::map<int, int> last_seq;
  int last_collective_seq = 0;
  // Last reply sent to each caller world rank: {seq, reply payload}. The
  // cached Buffer shares the block that was sent — a resend is another
  // refcount bump, not a copy.
  std::map<int, std::pair<int, rt::Buffer>> reply_cache;
};

/// A distributed CCA framework (paper §2.1, Figure 2 right): components run
/// in disjoint sets of processes, port invocations become parallel remote
/// method invocations with full argument marshalling, and all
/// inter-component communication is M×N. Components, ports and connections
/// live in the shared registry (sidl/registry.hpp).
class DistributedFramework
    : public sidl::Registry<Servant, RemotePort, DedupState> {
 public:
  explicit DistributedFramework(rt::Communicator world)
      : Registry(std::move(world), kTagBase) {}

  /// User side: proxy for a connected uses port.
  [[nodiscard]] std::shared_ptr<RemotePort> get_port(
      const std::string& comp, const std::string& uses_port);

  /// Provider side: process incoming invocations for `comp`. Counts only
  /// real invocations (layout requests and shutdowns are serviced
  /// transparently). With max_calls < 0, runs until a Shutdown notice
  /// arrives. Returns the number of invocations served.
  ///
  /// Ordering guarantee: per connection and caller rank only. When several
  /// clients call concurrently, different cohort ranks may service the
  /// calls in different orders — the "parallel consistency" issue of §2.4.
  int serve(const std::string& comp, int max_calls = -1);

  /// Provider side, totally ordered: cohort rank 0 arbitrates — it picks
  /// the next collective invocation by its own arrival order and announces
  /// it to the cohort, so every rank services the same sequence even under
  /// concurrent multi-client traffic ("enforcing synchronization between
  /// the processes that participate in a collective call", §2.4). Costs one
  /// cohort broadcast per call; independent (one-to-one) invocations are
  /// not routable through an arbiter and are rejected.
  int serve_ordered(const std::string& comp, int max_calls = -1);

  /// Provider side, non-blocking: dispatch every message already pending on
  /// `comp`'s listen tag and return immediately. Counts like serve() —
  /// deduplicated retransmissions are answered from the reply registry
  /// without being counted (or re-executed). Lets a provider that has met
  /// its expected-call quota stay on replay duty for clients whose replies
  /// were lost, without parking in a blocking receive (e.g. between the
  /// epochs of a rescale, where a blocked provider would stall the fence).
  int drain(const std::string& comp);

 private:
  friend class RemotePort;

  /// Provider-side processing of one listen-tag message; returns how many
  /// fresh invocations it carried (a batch header carries several), 0 for
  /// control traffic and deduplicated retransmissions. Sets *shutdown when
  /// a Shutdown notice was handled.
  int dispatch(Component& provider, rt::Message msg, bool* shutdown);

  /// The one dedup-and-replay gate: true when `seq` is fresh (the
  /// watermark advances to it); otherwise the header is a retransmission —
  /// counted, answered with the cached reply if it is `seq`'s, and false.
  /// `per_source` picks the caller's own watermark over the connection's
  /// collective one.
  bool admit(Connection& conn, bool per_source, int seq, int epoch,
             int src_world);
  /// Send a reply block to `dst` and cache it for replay under `seq`.
  void send_reply(Connection& conn, int dst, int seq,
                  const rt::Buffer& bytes);

  /// Returns true when a fresh invocation was executed, false when the
  /// header was a retransmission (deduplicated; cached reply resent).
  bool handle_invoke(Connection& conn, Servant& servant, rt::UnpackBuffer& u,
                     bool independent, int src_world);
  /// Coalesced independent sub-calls from one caller rank: executes each in
  /// order, answers with a single batch reply, and advances the per-source
  /// watermark to the last sub-sequence — so a retransmitted batch (its
  /// first sub-seq at or below the watermark) is answered wholesale from
  /// the reply cache without re-executing anything. Returns the number of
  /// sub-calls executed (0 for a retransmission).
  int handle_invoke_batch(Connection& conn, Servant& servant,
                          rt::UnpackBuffer& u, int src_world);
  void handle_layout_request(Connection& conn, Servant& servant,
                             rt::UnpackBuffer& u, int src_world);

  sched::ScheduleCache cache_;
};

/// Caller-side proxy for a connected uses port. All methods validate the
/// call against the SIDL signature. Collective calls must be made by every
/// rank of the caller cohort ("the user of a collective method must
/// guarantee that all participating caller processes make the invocation",
/// §4.2); the framework guarantees every callee rank receives the call and
/// every caller receives a return value, creating ghost invocations /
/// replicated returns when M != N.
class RemotePort {
 public:
  struct Result {
    Value ret;
    std::vector<Value> args;  // out/inout slots updated
  };

  /// Collective invocation (all-to-all).
  Result call(const std::string& method, std::vector<Value> args);

  /// One-way variant: returns as soon as local sends complete; no return
  /// value, no completion wait (§2.4 "one-way methods").
  void call_oneway(const std::string& method, std::vector<Value> args);

  /// Independent (one-to-one) invocation from this caller rank to callee
  /// rank `target` (default: caller_rank % N).
  Result call_independent(const std::string& method, std::vector<Value> args,
                          int target = -1);

  /// Batching/coalescing of small independent calls: queue locally instead
  /// of sending, then flush_batch() ships ONE wire message per distinct
  /// target callee carrying every queued sub-call, and one reply message
  /// per target carries every result back — collapsing 2·k messages into 2
  /// per (peer, drain tick). Queueable methods are independent, non-oneway,
  /// and take simple (non-parallel) arguments only; each queued call draws
  /// its sequence number from the connection's ordinary counter, so
  /// exactly-once semantics ride the existing seq/dedup machinery (a
  /// retransmitted batch is answered from the provider's reply cache).
  /// Plain calls on this proxy are rejected while a batch is open. Returns
  /// the call's position in the queue (its index in flush_batch's result).
  int queue_independent(const std::string& method, std::vector<Value> args,
                        int target = -1);

  /// Ship every queued call and wait for all results, in queue order.
  /// Retries per the proxy's RetryPolicy (whole batches are resent and
  /// deduplicated wholesale). No-op returning {} on an empty queue.
  std::vector<Result> flush_batch();

  /// Calls currently queued and not yet flushed.
  [[nodiscard]] std::size_t queued() const { return pending_.size(); }

  /// Send a shutdown notice to the provider's serve loops (collective over
  /// the caller cohort). Ordering caveat: the notice is FIFO-ordered only
  /// against headers sent by the SAME caller rank. If subset proxies were
  /// used — where a call's headers travel from different ranks than the
  /// shutdown's — quiesce first (e.g. a caller-cohort barrier after the
  /// last call returns) so the notice cannot overtake in-flight calls.
  void shutdown_provider();

  /// Enable/disable the same-value-on-all-ranks check for simple arguments
  /// (§2.4: optional because it costs a cohort reduction per call).
  void set_check_simple_args(bool on) { check_simple_ = on; }

  /// Install (or clear) the caller-side deadline/retry policy. Collective
  /// calls: every participating rank must install the same policy.
  void set_retry_policy(std::optional<RetryPolicy> policy) {
    retry_ = policy;
  }

  /// Create a proxy through which only the given caller-cohort ranks
  /// participate in collective calls — the run-time "sub-setting mechanism"
  /// SCIRun2 engages "if the needs of a component change at run-time and
  /// the choice of processes participating in a call needs to be modified"
  /// (§4.2). Collective over the FULL caller cohort (it splits a
  /// participant communicator); returns a null pointer on non-participant
  /// ranks, which must not call through the subset proxy.
  std::shared_ptr<RemotePort> subset(const std::vector<int>& cohort_ranks);

  [[nodiscard]] const sidl::Interface& interface_desc() const {
    return iface_;
  }

 private:
  friend class DistributedFramework;

  RemotePort(DistributedFramework* fw, int conn, sidl::Interface iface,
             rt::Communicator cohort);

  /// Participant communicator (== full cohort for a non-subset proxy) and
  /// the participants' world ranks (index == participant index).
  std::vector<int> participants_world_;

  Result invoke(MsgKind kind, const std::string& method,
                std::vector<Value> args, bool oneway_call, int target);

  /// What a reply-stream filter made of one message.
  enum class Reply { Mine, Stale, Served };

  /// The one reply wait (docs/FAULTS.md): receive on this connection's
  /// return tag from `src` until `classify(peek)` says Mine, dropping Stale
  /// messages (duplicates of earlier replies, counted) and moving on past
  /// Served ones (mid-call pull requests). When a deadline expires and the
  /// call is `replayable` under the retry policy, `resend(attempt)` is
  /// called after a linear backoff; otherwise the TimeoutError propagates.
  template <class Resend, class Classify>
  rt::Message await_reply(int src, int seq, bool replayable, Resend&& resend,
                          Classify&& classify);

  /// Fetch (and cache) the callee-side layouts of a method's parallel
  /// parameters — one round trip by cohort rank 0, broadcast to the cohort.
  /// A nullopt entry means the parameter is DEFERRED: no pre-registered
  /// target; the callee pulls it mid-call (§2.4, second strategy).
  const std::vector<std::optional<dad::DescriptorPtr>>& layouts(
      int method_idx, const sidl::Method& m);

  struct PendingCall {
    int seq = 0;
    int midx = 0;
    int target = 0;           // callee cohort rank
    std::vector<std::byte> args;  // packed simple inputs
  };

  DistributedFramework* fw_;
  int conn_;
  sidl::Interface iface_;
  rt::Communicator cohort_;
  std::vector<PendingCall> pending_;
  // Shared across a connection's proxies (parent + subsets): the provider
  // checks per-source monotonicity.
  std::shared_ptr<int> seq_ = std::make_shared<int>(0);
  bool check_simple_ = false;
  std::optional<RetryPolicy> retry_;
  std::map<int, std::vector<std::optional<dad::DescriptorPtr>>> layout_cache_;
};

}  // namespace mxn::prmi
