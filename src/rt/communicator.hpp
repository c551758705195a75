#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "rt/error.hpp"
#include "rt/mailbox.hpp"
#include "rt/message.hpp"
#include "rt/request.hpp"
#include "rt/serialize.hpp"
#include "rt/universe.hpp"
#include "trace/trace.hpp"

namespace mxn::rt {

class Communicator;

/// Returned by split() for ranks that pass kUndefinedColor.
inline constexpr int kUndefinedColor = -1;

/// Smallest k with 2^k >= n (n >= 1): the round count of the log-depth
/// collectives. Exposed so tests and benches can assert message counts.
constexpr int ceil_log2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}

/// Largest power of two <= n (n >= 1).
constexpr int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

namespace detail {

// Reserved (negative) tags, one per collective. Distinct tags keep different
// collective kinds out of each other's matched streams; repeats of the SAME
// kind are kept straight by per-(src, tag) FIFO delivery plus uniform
// program order — see the tag-reuse note in communicator.cpp.
inline constexpr int kTagBarrier = -2;
inline constexpr int kTagBcast = -4;
inline constexpr int kTagGather = -5;
inline constexpr int kTagAlltoall = -6;
inline constexpr int kTagAllgather = -7;
inline constexpr int kTagReduce = -8;
inline constexpr int kTagAllreduce = -9;

/// Shared state of a communicator: the member list (as universe-global
/// ids), one mailbox per member, per-communicator traffic counters and the
/// rendezvous board used to implement split() collectively.
struct CommState {
  CommState(Universe* u, std::vector<int> member_ids);

  Universe* uni;
  std::vector<int> members;  // universe ids; index == rank in this comm
  std::vector<std::unique_ptr<Mailbox>> boxes;

  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};

  // --- split rendezvous board ---------------------------------------------
  enum class Phase { Arrive, Pickup };
  struct SplitEntry {
    int color = kUndefinedColor;
    int key = 0;
  };
  std::mutex split_mu;
  std::condition_variable split_cv;
  Phase phase = Phase::Arrive;
  int arrived = 0;
  int picked = 0;
  // How many ranks must pick up this round's results before the board
  // resets: size() for split(), the arrived quorum for split_live().
  int pickers = 0;
  std::vector<SplitEntry> entries;
  // Which ranks arrived this round; split_live() treats absentees (dead
  // ranks) as if they had passed kUndefinedColor.
  std::vector<char> present;
  // Per-rank result: the new comm state (null for undefined color) + rank.
  std::vector<std::pair<std::shared_ptr<CommState>, int>> results;
};

}  // namespace detail

/// A rank's handle onto a communicator. Cheap to copy; all copies held by
/// the same thread refer to the same rank. The API deliberately mirrors the
/// MPI routines the CCA prototypes were built on: matched point-to-point
/// send/recv with tags, non-blocking variants, and the collective set used
/// by the redistribution and PRMI layers (barrier, bcast, gather, allgather,
/// alltoall(v), reduce, allreduce, split). Every collective is log-depth
/// (docs/PERFORMANCE.md): dissemination barrier, binomial-tree
/// bcast/gather/reduce, recursive-doubling allgather/allreduce.
///
/// User code must use tags >= 0; negative tags are reserved for the
/// collective implementations.
class Communicator {
 public:
  Communicator() = default;  // null communicator

  [[nodiscard]] bool is_null() const { return st_ == nullptr; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(st_->members.size()); }

  /// Universe-global id of a member rank (used by distributed frameworks to
  /// route between components living on disjoint rank sets).
  [[nodiscard]] int world_rank(int r) const { return st_->members.at(r); }

  [[nodiscard]] Universe* universe() const { return st_->uni; }

  // --- point-to-point -------------------------------------------------------
  /// Move-through send: the payload block is handed to the destination
  /// mailbox without copying a byte. This is the primitive; the span/vector
  /// overloads below exist for callers that do not own a Buffer yet.
  void send(int dst, int tag, Buffer data);
  /// Copies the span into a pooled buffer (counted in rt.bytes_copied).
  void send(int dst, int tag, std::span<const std::byte> data);
  /// Adopts the vector's storage (zero copy).
  void send(int dst, int tag, std::vector<std::byte> data) {
    send(dst, tag, Buffer(std::move(data)));
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void send_span(int dst, int tag, std::span<const T> values) {
    send(dst, tag, as_bytes_span(values));
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dst, int tag, const T& value) {
    send(dst, tag, to_bytes(value));
  }

  /// Blocking matched receive; wildcards kAnySource / kAnyTag allowed.
  /// `timeout_ms` is the per-call deadline: < 0 selects the spawn-wide
  /// default (SpawnOptions::default_recv_timeout_ms), 0 waits forever, > 0
  /// throws TimeoutError when no match arrived in time.
  Message recv(int src, int tag, int timeout_ms = -1);

  /// Receive into a fresh typed vector. This is necessarily one deep copy
  /// (counted in rt.bytes_copied); callers on the hot path should recv() and
  /// alias the payload via Buffer::view<T>() instead. `timeout_ms` is the
  /// per-call deadline, with the same semantics as recv().
  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> recv_vector(int src, int tag, int* actual_src = nullptr,
                             int timeout_ms = -1) {
    Message m = recv(src, tag, timeout_ms);
    if (actual_src) *actual_src = m.src;
    if (m.payload.size() % sizeof(T) != 0)
      throw UsageError("recv_vector: payload size not a multiple of sizeof(T)");
    std::vector<T> out(m.payload.size() / sizeof(T));
    if (!out.empty())
      std::memcpy(out.data(), m.payload.data(), m.payload.size());
    note_bytes_copied(m.payload.size());
    return out;
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(int src, int tag, int* actual_src = nullptr,
               int timeout_ms = -1) {
    Message m = recv(src, tag, timeout_ms);
    if (actual_src) *actual_src = m.src;
    UnpackBuffer u(m.payload);
    return u.unpack<T>();
  }

  Request isend(int dst, int tag, Buffer data);
  Request isend(int dst, int tag, std::span<const std::byte> data);
  Request irecv(int src, int tag);

  /// Blocking receive matched on (src, tag) and a payload predicate — the
  /// envelope-peek frameworks need to pull a specific logical message out
  /// of a shared tag stream (MPI_Mprobe analogue).
  Message recv_matching(int src, int tag,
                        const std::function<bool(const Message&)>& pred,
                        int timeout_ms = -1);

  /// Non-blocking probe for a matching queued message.
  bool probe(int src, int tag);
  /// Non-blocking matched receive.
  std::optional<Message> try_recv(int src, int tag);

  // --- collectives ----------------------------------------------------------
  /// Dissemination barrier: ceil(log2 n) rounds, one send per rank per round
  /// (n * ceil(log2 n) messages) instead of the old gather-to-root +
  /// broadcast-release whose root serialized 2(n-1) matched operations.
  void barrier();

  /// Root's payload is returned on every rank. Binomial tree: the root
  /// reaches everyone in ceil(log2 n) rounds and every hop forwards the SAME
  /// refcounted payload block — a bcast is O(1) deep copies (in fact zero)
  /// regardless of the communicator size, still n-1 messages total.
  Buffer bcast(Buffer data, int root);

  template <class T>
    requires std::is_trivially_copyable_v<T>
  T bcast_value(const T& value, int root) {
    auto bytes = bcast(rank() == root ? Buffer(to_bytes(value)) : Buffer{},
                       root);
    UnpackBuffer u(bytes);
    return u.unpack<T>();
  }

  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> bcast_vector(std::vector<T> values, int root) {
    PackBuffer b;
    if (rank() == root) b.pack(values);
    auto bytes = bcast(std::move(b).take_buffer(), root);
    UnpackBuffer u(bytes);
    return u.unpack_vector<T>();
  }

  /// Gather per-rank payloads at root. On root the result has size() entries
  /// (index == source rank); on other ranks it is empty. Binomial tree:
  /// interior nodes bundle their subtree's entries into one pooled payload,
  /// so the root performs ceil(log2 n) matched receives instead of n-1
  /// (still n-1 messages total; interior bundling trades O(B log n) extra
  /// bytes on the wire for the log-depth critical path).
  std::vector<Buffer> gather(Buffer data, int root);

  /// Everyone gets every rank's payload (index == source rank). Recursive
  /// doubling when size() is a power of two (ceil(log2 n) rounds,
  /// n * log2 n messages); otherwise a binomial gather + bcast of the
  /// bundle (2 ceil(log2 n) rounds, 2(n-1) messages).
  std::vector<Buffer> allgather(Buffer data);

  template <class T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> allgather_value(const T& value) {
    auto parts = allgather(to_bytes(value));
    std::vector<T> out;
    out.reserve(parts.size());
    for (auto& p : parts) {
      UnpackBuffer u(p);
      out.push_back(u.unpack<T>());
    }
    return out;
  }

  /// Personalized all-to-all: outgoing[i] goes to rank i; the result's entry
  /// j is what rank j sent to us. Naturally "v" — entries may differ in size.
  /// Outgoing buffers are moved (or refcount-shared if the caller keeps a
  /// handle), never deep-copied. Receives drain in arrival order behind an
  /// owed-peer predicate, so back-to-back alltoalls on one communicator can
  /// never steal each other's messages (see communicator.cpp).
  std::vector<Buffer> alltoall(std::vector<Buffer> outgoing);

  /// Element-wise reduction of equal-length spans over a binomial tree
  /// (n-1 messages, ceil(log2 n) rounds): on the root, returns the combined
  /// vector; on other ranks, returns empty. Partial results travel packed in
  /// pooled buffers and are combined in place. `op` must be associative and
  /// commutative (subtree grouping is rank-order but rotated by the root, so
  /// floating-point rounding may differ from a serial left fold).
  template <class T, class BinaryOp>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> reduce(std::span<const T> local, BinaryOp op, int root) {
    const int n = size();
    if (root < 0 || root >= n) throw UsageError("reduce: root rank out of range");
    trace::Span span("rt.reduce", "rt", local.size_bytes());
    Buffer acc = Buffer::copy_of(as_bytes_span(local));  // pooled accumulator
    const int vrank = (rank_ - root + n) % n;
    int mask = 1;
    while (mask < n && (vrank & mask) == 0) {
      const int child_v = vrank + mask;
      if (child_v < n) {
        Message m = coll_recv((child_v + root) % n, detail::kTagReduce);
        combine_into<T>(acc, m.payload, op, "reduce");
      }
      mask <<= 1;
    }
    if (vrank != 0) {
      // Parent: clear the lowest set bit of the (root-relative) rank.
      raw_send(((vrank & (vrank - 1)) + root) % n, detail::kTagReduce,
               std::move(acc), "reduce");
      return {};
    }
    auto v = acc.view<T>();
    note_bytes_copied(acc.size());
    return std::vector<T>(v.begin(), v.end());
  }

  /// Element-wise all-reduce of equal-length spans; every rank returns the
  /// combined vector. Recursive doubling when size() is a power of two —
  /// exactly ceil(log2 n) rounds, n * log2 n messages — with a binomial
  /// fold-in/fold-out for the ranks above the largest power of two
  /// otherwise. Same op requirements as reduce().
  template <class T, class BinaryOp>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> allreduce(std::span<const T> local, BinaryOp op) {
    const int n = size();
    const std::size_t count = local.size();
    if (n == 1) return std::vector<T>(local.begin(), local.end());
    trace::Span span("rt.allreduce", "rt", local.size_bytes());
    Buffer acc = Buffer::copy_of(as_bytes_span(local));
    const int pof2 = floor_pow2(n);
    // Fold-in: ranks >= pof2 ship their contribution to rank - pof2 and
    // wait for the combined result at the end.
    if (rank_ >= pof2) {
      raw_send(rank_ - pof2, detail::kTagAllreduce, std::move(acc),
               "allreduce");
      Message m = coll_recv(rank_ - pof2, detail::kTagAllreduce);
      auto v = m.payload.view<T>();
      if (v.size() != count)
        throw UsageError("allreduce: span lengths differ across ranks");
      note_bytes_copied(m.payload.size());
      return std::vector<T>(v.begin(), v.end());
    }
    if (rank_ + pof2 < n) {
      Message m = coll_recv(rank_ + pof2, detail::kTagAllreduce);
      combine_into<T>(acc, m.payload, op, "allreduce");
    }
    // Recursive doubling among the power-of-two group: partners exchange
    // accumulators (refcount-shared into the mailbox, never deep-copied) and
    // combine into a fresh pooled block each round.
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner = rank_ ^ mask;
      raw_send(partner, detail::kTagAllreduce, acc, "allreduce");
      Message m = coll_recv(partner, detail::kTagAllreduce);
      auto theirs = m.payload.view<T>();
      if (theirs.size() != count)
        throw UsageError("allreduce: span lengths differ across ranks");
      Buffer next = Buffer::allocate(count * sizeof(T));
      auto mine = acc.view<T>();
      T* out = reinterpret_cast<T*>(next.mutable_data());
      // Keep lower ranks as the left operand so every rank folds in the
      // same order (associativity then makes the results identical).
      const std::span<const T> lo = rank_ < partner ? mine : theirs;
      const std::span<const T> hi = rank_ < partner ? theirs : mine;
      for (std::size_t i = 0; i < count; ++i) out[i] = op(lo[i], hi[i]);
      acc = std::move(next);
    }
    // Fold-out: hand the result back to the rank folded in above. The block
    // is shared, not copied.
    if (rank_ + pof2 < n)
      raw_send(rank_ + pof2, detail::kTagAllreduce, acc, "allreduce");
    auto v = acc.view<T>();
    note_bytes_copied(acc.size());
    return std::vector<T>(v.begin(), v.end());
  }

  /// Scalar all-reduce, log-depth via the span form.
  template <class T, class BinaryOp>
    requires std::is_trivially_copyable_v<T>
  T allreduce(const T& value, BinaryOp op) {
    return allreduce(std::span<const T>(&value, 1), op)[0];
  }

  // --- communicator management ----------------------------------------------
  /// Collective. Ranks with equal color land in the same new communicator,
  /// ordered by (key, old rank). Color kUndefinedColor yields a null handle.
  Communicator split(int color, int key);

  /// split() whose rendezvous completes once every member the universe does
  /// NOT report dead (Universe::is_dead) has arrived — the only collective
  /// that can succeed on a communicator containing fault-killed ranks, and
  /// the entry point of cohort recovery (docs/REDUNDANCY.md). Dead members
  /// are treated as if they had passed kUndefinedColor; a member that dies
  /// mid-rendezvous releases the survivors on the next watchdog tick.
  /// `timeout_ms` bounds the whole rendezvous (< 0 = spawn default,
  /// 0 = no deadline).
  Communicator split_live(int color, int key, int timeout_ms = -1);

  Communicator dup() { return split(0, rank()); }

  /// Collective rank admission/retirement (the elastic-rescale splice,
  /// docs/RESCALING.md): every rank passes the SAME `members` list — ranks
  /// of this communicator, no duplicates — and the listed ranks land in the
  /// new communicator with new rank == index in the list (the list's order
  /// defines the cohort order, ascending or not). Ranks not listed are
  /// retired: they participate in the call but get a null handle.
  Communicator subset(const std::vector<int>& members);

  /// Epoch fence: a barrier that bounds the traffic epochs of the layer
  /// above. Sends in this runtime complete eagerly into the destination
  /// mailbox, so once every rank reaches the fence, all pre-fence sends
  /// have been delivered (matched or queued) — post-fence traffic can
  /// switch descriptors/tags safely. Returns this rank's wait at the fence
  /// in nanoseconds (its share of the drain stall, fed by callers into the
  /// rescale.stall_ns counter).
  std::int64_t epoch_fence();

  [[nodiscard]] StatsSnapshot stats() const {
    return {st_->messages.load(std::memory_order_relaxed),
            st_->bytes.load(std::memory_order_relaxed)};
  }

  // Internal: used by spawn() to mint the world communicator.
  static Communicator attach(std::shared_ptr<detail::CommState> st, int rank) {
    Communicator c;
    c.st_ = std::move(st);
    c.rank_ = rank;
    return c;
  }

 private:
  Communicator split_impl(int color, int key, bool live_only, int timeout_ms);
  void check_dst(int dst, const char* op) const;
  void check_user_tag(int tag) const;
  void raw_send(int dst, int tag, Buffer data, const char* op = "send");
  /// Blocking matched receive on a reserved collective tag.
  Message coll_recv(int src, int tag) { return my_box().get(src, tag); }
  Mailbox& my_box() const { return *st_->boxes[rank_]; }

  /// acc[i] = op(acc[i], theirs[i]) in place; acc must still be the sole
  /// owner of its block (it is: accumulators are shared only when sent).
  template <class T, class BinaryOp>
  void combine_into(Buffer& acc, const Buffer& theirs, BinaryOp op,
                    const char* what) {
    auto t = theirs.view<T>();
    if (theirs.size() != acc.size())
      throw UsageError(std::string(what) +
                       ": span lengths differ across ranks");
    T* a = reinterpret_cast<T*>(acc.mutable_data());
    for (std::size_t i = 0; i < t.size(); ++i) a[i] = op(a[i], t[i]);
  }

  std::shared_ptr<detail::CommState> st_;
  int rank_ = -1;
};

}  // namespace mxn::rt
