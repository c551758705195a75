#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>

#include "dad/dist_array.hpp"
#include "rt/buffer.hpp"
#include "rt/kernels.hpp"
#include "sched/coupling.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace mxn::sched {

/// Chunk size of pipelined transfers (docs/PERFORMANCE.md, "Pipelined
/// transfers"): a send entry whose payload is at least 2 * kChunkBytes goes
/// out as several messages, each closing at the first item boundary at or
/// past kChunkBytes. A fixed rule of the data plane, not an option: 128 KiB
/// was the fastest of the 64/128/256 KiB sizes measured on bulk_stream.
inline constexpr std::size_t kChunkBytes = std::size_t{128} << 10;

/// Bytes of the chunk index that leads every message of a split entry.
inline constexpr std::size_t kChunkHeaderBytes = sizeof(std::uint32_t);

/// The items of a schedule entry, in payload order: regions of a
/// PeerRegions, segments of a PeerSegments.
inline std::span<const Region> items_of(const PeerRegions& e) {
  return e.regions;
}
inline std::span<const linear::Segment> items_of(const PeerSegments& e) {
  return e.segs;
}

namespace detail {
inline Index item_elements(const Patch& p) { return p.volume(); }
inline Index item_elements(const linear::Segment& s) { return s.hi - s.lo; }
}  // namespace detail

/// Items [first, last) of `e`: the part of the entry one chunk carries.
template <class Entry>
auto chunk_items(const Entry& e, std::size_t first, std::size_t last) {
  return items_of(e).subspan(first, last - first);
}

/// Whether `e` is split into chunks (each message then carries a header).
template <class Entry>
bool splits(const Entry& e, std::size_t width) {
  return static_cast<std::size_t>(e.elements) * width >= 2 * kChunkBytes;
}

/// One chunk of an entry: items [first, last), `elements` elements.
struct Chunk {
  std::size_t first = 0;
  std::size_t last = 0;
  Index elements = 0;
};

/// The one chunk rule, worked out from the entry and the width alone so
/// both sides agree without exchanging it: fn(Chunk) per chunk in payload
/// order. An entry that does not split is one chunk of all its items.
template <class Entry, class Fn>
void for_each_chunk(const Entry& e, std::size_t width, Fn&& fn) {
  const auto items = items_of(e);
  if (!splits(e, width)) {
    fn(Chunk{0, items.size(), e.elements});
    return;
  }
  Chunk c;
  for (std::size_t i = 0; i < items.size(); ++i) {
    c.elements += detail::item_elements(items[i]);
    if (static_cast<std::size_t>(c.elements) * width >= kChunkBytes ||
        i + 1 == items.size()) {
      c.last = i + 1;
      fn(c);
      c = Chunk{i + 1, i + 1, 0};
    }
  }
}

namespace detail {

/// The chunks of one side's entries for one transfer. A transfer in which
/// no entry splits holds nothing (every entry is its own one chunk); one
/// that splits keeps one Chunk per chunk for O(1) lookup by index, and
/// whether it has arrived. Nothing here lives in the cached schedule.
template <class Entry>
class ChunkCuts {
 public:
  ChunkCuts(const std::vector<Entry>& entries, std::size_t width)
      : entries_(entries) {
    if (std::none_of(entries.begin(), entries.end(),
                     [&](const Entry& e) { return splits(e, width); }))
      return;
    base_.reserve(entries.size() + 1);
    for (const auto& e : entries) {
      base_.push_back(cuts_.size());
      if (splits(e, width))
        for_each_chunk(e, width, [&](const Chunk& c) { cuts_.push_back(c); });
    }
    base_.push_back(cuts_.size());
    arrived_.assign(cuts_.size(), false);
  }

  [[nodiscard]] bool split(std::size_t e) const {
    return !base_.empty() && base_[e + 1] > base_[e];
  }
  [[nodiscard]] std::size_t count(std::size_t e) const {
    return split(e) ? base_[e + 1] - base_[e] : 1;
  }
  [[nodiscard]] Chunk chunk(std::size_t e, std::size_t k) const {
    if (!split(e))
      return {0, items_of(entries_[e]).size(), entries_[e].elements};
    return cuts_[base_[e] + k];
  }

  /// Receiver check of a split entry's arriving chunk index `k`: in range
  /// and not seen before in this transfer. Marks it arrived.
  void claim(std::size_t e, std::size_t k) {
    if (k >= count(e))
      throw rt::UsageError("chunk index " + std::to_string(k) +
                           " out of range (entry has " +
                           std::to_string(count(e)) + " chunks)");
    if (arrived_[base_[e] + k])
      throw rt::UsageError("chunk " + std::to_string(k) +
                           " arrived twice in one transfer");
    arrived_[base_[e] + k] = true;
  }

 private:
  const std::vector<Entry>& entries_;
  std::vector<std::size_t> base_;  // per entry: first chunk; empty if none split
  std::vector<Chunk> cuts_;
  std::vector<bool> arrived_;
};

/// Drain the messages owed for a transfer in ARRIVAL order: a tag-matched
/// any-source receive delivers whichever peer's message is ready first, so
/// a slow peer never head-of-line-blocks the unpacking of a fast one.
/// Entry i is owed `owed(i)` messages (its chunk count; 1 when unsplit).
///
/// The predicate admits a message only while its sender still owes this
/// transfer a message. That guard matters for back-to-back transfers on the
/// same tag: a fast peer's message for transfer k+1 may already be queued
/// while transfer k is draining, and a bare any-source receive would consume
/// it. Per-(src, tag) FIFO among matches keeps each peer's stream in order,
/// so the combination is exactly as safe as a fixed-order drain. Schedules
/// hold one entry per peer (every builder emits one); a peer listed twice
/// is a UsageError, since its messages could not be told apart.
///
/// `deliver(i, msg)` is invoked per admitted message, i being the index into
/// `recvs` of the entry it is owed for, and returns whether it took the
/// message. A rejected message (stale traffic of an aborted attempt, in the
/// reliable exchange) is dropped and its sender still owes it.
template <class Entry, class Owed, class Deliver>
void drain_arrival_order(rt::Communicator& channel,
                         const std::vector<int>& src_ranks,
                         const std::vector<Entry>& recvs, int tag,
                         int timeout_ms, Owed&& owed, Deliver&& deliver) {
  struct Due {
    std::size_t entry;
    std::size_t left;
  };
  std::map<int, Due> due;  // channel rank of the sender -> what it owes
  std::size_t total = 0;
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    const std::size_t n = owed(i);
    if (!due.emplace(src_ranks.at(recvs[i].peer), Due{i, n}).second)
      throw rt::UsageError("schedule lists a receive peer twice");
    total += n;
  }
  const auto matches = [&due](const rt::Message& m) {
    const auto it = due.find(m.src);
    return it != due.end() && it->second.left > 0;
  };
  while (total > 0) {
    rt::Message msg =
        channel.recv_matching(rt::kAnySource, tag, matches, timeout_ms);
    Due& d = due.at(msg.src);
    if (!deliver(d.entry, std::move(msg))) continue;
    --d.left;
    --total;
  }
}

/// drain_arrival_order with one message owed per entry.
template <class Entry, class Deliver>
void drain_arrival_order(rt::Communicator& channel,
                         const std::vector<int>& src_ranks,
                         const std::vector<Entry>& recvs, int tag,
                         int timeout_ms, Deliver&& deliver) {
  drain_arrival_order(
      channel, src_ranks, recvs, tag, timeout_ms,
      [](std::size_t) { return std::size_t{1}; },
      std::forward<Deliver>(deliver));
}

/// Walk the runs shared by `segs` and the local footprint `prov`, invoking
/// `fn(storage_start, storage_stride, buf_index, count)` per contiguous run.
/// Factored out so pack and unpack share one coverage-checking walk. The
/// walk starts at the footprint run holding the first segment (a binary
/// search), so a chunk from the middle of an entry costs no scan from the
/// footprint's start.
template <class Fn>
void for_each_segment_run(const std::vector<linear::ProvenancedSegment>& prov,
                          std::span<const linear::Segment> segs, Fn&& fn) {
  std::size_t pi =
      segs.empty()
          ? 0
          : static_cast<std::size_t>(
                std::partition_point(prov.begin(), prov.end(),
                                     [lo = segs.front().lo](const auto& p) {
                                       return p.seg.hi <= lo;
                                     }) -
                prov.begin());
  Index k = 0;
  for (const auto& seg : segs) {
    while (pi < prov.size() && prov[pi].seg.hi <= seg.lo) ++pi;
    std::size_t pj = pi;
    Index lo = seg.lo;
    while (lo < seg.hi) {
      if (pj >= prov.size() || prov[pj].seg.lo > lo)
        throw rt::UsageError("segment not covered by local footprint");
      const auto& p = prov[pj];
      const Index n = std::min(seg.hi, p.seg.hi) - lo;
      const Index s0 = p.storage_offset + (lo - p.seg.lo) * p.storage_stride;
      fn(s0, p.storage_stride, k, n);
      lo += n;
      k += n;
      if (lo >= p.seg.hi) ++pj;
    }
  }
}

}  // namespace detail

/// Compile the (footprint, segments) walk into a reusable
/// rt::kernels::RunPlan: the walk's raw runs go through
/// rt::kernels::RunCoalescer, which fuses adjacent unit-stride runs into
/// single memcpys and constant-delta run trains and pure strided runs into
/// block trains (docs/PERFORMANCE.md, "Copy kernels"). A caller that ships
/// the same pattern repeatedly (the mct Router and Rearranger reuse one
/// schedule every timestep) compiles once and replays with
/// plan.gather()/plan.scatter(), paying only for the copies.
inline rt::kernels::RunPlan compile_run_plan(
    const std::vector<linear::ProvenancedSegment>& prov,
    std::span<const linear::Segment> segs) {
  rt::kernels::RunPlan plan;
  rt::kernels::RunCoalescer co(
      [](void* ctx, const rt::kernels::BlockRun& r) {
        static_cast<rt::kernels::RunPlan*>(ctx)->add(r);
      },
      &plan);
  detail::for_each_segment_run(
      prov, segs,
      [&](Index s0, Index stride, Index /*k*/, Index n) {
        co.add(s0, stride, n);
      });
  co.flush();
  return plan;
}

/// Pack the elements of `segs` (ascending, each covered by the footprint in
/// `prov`) from local storage into a linear-ordered buffer: a one-shot
/// compile_run_plan replayed once. `buf` is raw bytes of any alignment (a
/// payload, or a sub-span of one behind a header).
template <class T>
void pack_segments(const std::vector<linear::ProvenancedSegment>& prov,
                   std::span<const linear::Segment> segs, const T* local,
                   void* buf) {
  compile_run_plan(prov, segs).gather(local, buf, sizeof(T));
}

/// Mirror image of pack_segments: scatter a linear-ordered buffer of any
/// alignment back into local storage through the same compiled plan.
template <class T>
void unpack_segments(const std::vector<linear::ProvenancedSegment>& prov,
                     std::span<const linear::Segment> segs, T* local,
                     const void* buf) {
  compile_run_plan(prov, segs).scatter(local, buf, sizeof(T));
}

/// Reference implementation of pack_segments: the plain scalar loops the
/// kernel layer replaced. Kept (not just for history) as the oracle for the
/// differential kernel tests and the baseline arm of the pack/unpack
/// microbenchmark — byte-identical output to pack_segments is a hard
/// invariant.
template <class T>
void pack_segments_scalar(const std::vector<linear::ProvenancedSegment>& prov,
                          const std::vector<linear::Segment>& segs,
                          const T* local, T* buf) {
  detail::for_each_segment_run(
      prov, segs, [&](Index s0, Index stride, Index k, Index n) {
        if (stride == 1)
          std::memcpy(buf + k, local + s0,
                      static_cast<std::size_t>(n) * sizeof(T));
        else
          for (Index i = 0; i < n; ++i) buf[k + i] = local[s0 + i * stride];
      });
}

/// Scalar reference for unpack_segments; see pack_segments_scalar.
template <class T>
void unpack_segments_scalar(
    const std::vector<linear::ProvenancedSegment>& prov,
    const std::vector<linear::Segment>& segs, T* local, const T* buf) {
  detail::for_each_segment_run(
      prov, segs, [&](Index s0, Index stride, Index k, Index n) {
        if (stride == 1)
          std::memcpy(local + s0, buf + k,
                      static_cast<std::size_t>(n) * sizeof(T));
        else
          for (Index i = 0; i < n; ++i) local[s0 + i * stride] = buf[k + i];
      });
}

/// Traffic moved by one transfer, local view: payload elements and bytes
/// summed over this rank's sends and receives.
struct MovedCounts {
  std::uint64_t elements = 0;
  std::uint64_t bytes = 0;
};

/// The one M×N send/drain engine: every loose transfer (typed region, typed
/// segment, type-erased, mct Router and Rearranger) runs through here. This
/// process performs exactly its own sends and matched receives — independent
/// asynchronous point-to-point transfers with no synchronization barrier on
/// either side (the dataReady() model of the CCA M×N component, paper §4.1).
/// Sends are eager, so issuing all sends before draining receives cannot
/// deadlock.
///
/// Zero-copy data plane (docs/PERFORMANCE.md): a send entry below
/// 2 * kChunkBytes goes out as one message of `elements * width` bytes; a
/// larger one is cut by for_each_chunk into one message per chunk, each a
/// 4-byte chunk index followed by that chunk's slice of the entry's
/// payload layout. Each message is packed once by
/// `pack(entry, first_item, last_item, out)` straight into a pooled
/// rt::Buffer that is then MOVED through the runtime. Sends go out in
/// rounds (round r carries chunk r of every entry), and each source starts
/// its rotation at its source-cohort rank modulo its entry count, so
/// concurrent sources begin on different destinations and a destination
/// injects chunk k while its source packs chunk k+1. Messages are drained
/// in arrival order; `unpack(entry, first_item, last_item, in)` injects
/// straight out of the arrived block once its index and size are checked,
/// so the result does not depend on chunk arrival order. `entry` is always
/// a reference into `s.sends` / `s.recvs`. Per element transferred this
/// costs exactly one copy (the pack) — the inject into the destination is
/// the delivery itself; headers are not counted as copied bytes.
template <class Schedule, class Pack, class Unpack>
MovedCounts execute_bytes(const Schedule& s, std::size_t width,
                          const Coupling& c, int tag, Pack&& pack,
                          Unpack&& unpack) {
  const auto elements = static_cast<std::uint64_t>(s.send_elements() +
                                                   s.recv_elements());
  trace::Span span("sched.execute", "sched", elements * width);
  rt::Communicator channel = c.channel;  // local handle

  const detail::ChunkCuts out(s.sends, width);
  const std::size_t nsend = s.sends.size();
  const std::size_t start =
      nsend == 0 ? 0 : static_cast<std::size_t>(
                           std::max(c.my_src_rank(), 0)) % nsend;
  for (std::size_t round = 0, pending = nsend; pending > 0; ++round) {
    for (std::size_t j = 0; j < nsend; ++j) {
      const std::size_t e = (start + j) % nsend;
      const std::size_t chunks = out.count(e);
      if (round >= chunks) continue;
      if (round + 1 == chunks) --pending;
      const auto& pe = s.sends[e];
      const Chunk ch = out.chunk(e, round);
      const std::size_t head = out.split(e) ? kChunkHeaderBytes : 0;
      const std::size_t bytes = static_cast<std::size_t>(ch.elements) * width;
      rt::Buffer buf = rt::Buffer::allocate(head + bytes);
      if (head != 0) {
        const auto index = static_cast<std::uint32_t>(round);
        std::memcpy(buf.mutable_data(), &index, head);
      }
      pack(pe, ch.first, ch.last, buf.mutable_data() + head);
      rt::note_bytes_copied(bytes);
      channel.isend(c.dst_ranks.at(pe.peer), tag, std::move(buf));
    }
  }

  detail::ChunkCuts in(s.recvs, width);
  detail::drain_arrival_order(
      channel, c.src_ranks, s.recvs, tag, c.recv_timeout_ms,
      [&](std::size_t i) { return in.count(i); },
      [&](std::size_t i, rt::Message msg) {
        std::span<const std::byte> payload = msg.payload.span();
        std::size_t k = 0;
        if (in.split(i)) {
          if (payload.size() < kChunkHeaderBytes)
            throw rt::UsageError("chunk message shorter than its header");
          std::uint32_t index = 0;
          std::memcpy(&index, payload.data(), kChunkHeaderBytes);
          k = index;
          in.claim(i, k);
          payload = payload.subspan(kChunkHeaderBytes);
        }
        const Chunk ch = in.chunk(i, k);
        if (payload.size() != static_cast<std::size_t>(ch.elements) * width)
          throw rt::UsageError("redistribution payload size mismatch");
        unpack(s.recvs[i], ch.first, ch.last, payload);
        return true;
      });
  return {elements, elements * width};
}

/// The one region copy path of a transfer: execute_bytes with the
/// pack_regions payload layout, packing sends out of `from` and unpacking
/// receives into `to`. A view may be empty when this process has no
/// entries on its side; when it has both, the widths must agree.
inline MovedCounts execute_regions(const RegionSchedule& s,
                                   const dad::PatchStorage& from,
                                   const dad::PatchStorage& to,
                                   const Coupling& c, int tag) {
  return execute_bytes(
      s, s.sends.empty() ? to.width : from.width, c, tag,
      [&](const PeerRegions& pr, std::size_t first, std::size_t last,
          std::byte* out) {
        pack_regions(chunk_items(pr, first, last), from, out);
      },
      [&](const PeerRegions& pr, std::size_t first, std::size_t last,
          std::span<const std::byte> in) {
        unpack_regions(chunk_items(pr, first, last), to, in.data());
      });
}

/// Execute a region schedule over typed arrays (execute_regions over their
/// storage views). `src_arr` may be null when this process is not in the
/// source cohort, and `dst_arr` null when not in the destination cohort.
template <class T>
void execute(const RegionSchedule& sched, const dad::DistArray<T>* src_arr,
             dad::DistArray<T>* dst_arr, const Coupling& c, int tag) {
  if (!sched.sends.empty() && src_arr == nullptr)
    throw rt::UsageError("schedule has sends but no source array given");
  if (!sched.recvs.empty() && dst_arr == nullptr)
    throw rt::UsageError("schedule has recvs but no destination array given");
  // The source view is only packed out of.
  execute_regions(
      sched,
      src_arr ? const_cast<dad::DistArray<T>*>(src_arr)->storage()
              : dad::PatchStorage{},
      dst_arr ? dst_arr->storage() : dad::PatchStorage{}, c, tag);
}

/// Execute a segment schedule. `src_prov`/`dst_prov` are the provenanced
/// footprints of the local arrays under the source/destination
/// linearizations (compute once with linear::footprint_with_provenance and
/// reuse across transfers, like the schedule itself). Payloads are
/// linear-ordered segment runs (pack_segments) instead of regions, packed
/// into and injected out of the payload bytes directly; each chunk compiles
/// its own copy plan over its sub-span of segments.
template <class T>
void execute(const SegmentSchedule& sched, dad::DistArray<T>* src_arr,
             const std::vector<linear::ProvenancedSegment>* src_prov,
             dad::DistArray<T>* dst_arr,
             const std::vector<linear::ProvenancedSegment>* dst_prov,
             const Coupling& c, int tag) {
  execute_bytes(
      sched, sizeof(T), c, tag,
      [&](const PeerSegments& ps, std::size_t first, std::size_t last,
          std::byte* out) {
        pack_segments<T>(*src_prov, chunk_items(ps, first, last),
                         src_arr->local().data(), out);
      },
      [&](const PeerSegments& ps, std::size_t first, std::size_t last,
          std::span<const std::byte> in) {
        unpack_segments<T>(*dst_prov, chunk_items(ps, first, last),
                           dst_arr->local().data(), in.data());
      });
}

}  // namespace mxn::sched
