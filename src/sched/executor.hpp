#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>

#include "dad/dist_array.hpp"
#include "rt/buffer.hpp"
#include "rt/kernels.hpp"
#include "sched/coupling.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace mxn::sched {

namespace detail {

/// Drain one accepted message per schedule entry in ARRIVAL order: a
/// tag-matched any-source receive delivers whichever peer's payload is ready
/// first, so a slow peer never head-of-line-blocks the unpacking of a fast
/// one.
///
/// The predicate admits a message only while its sender still owes this
/// transfer a payload. That guard matters for back-to-back transfers on the
/// same tag: a fast peer's message for transfer k+1 may already be queued
/// while transfer k is draining, and a bare any-source receive would consume
/// it. Per-(src, tag) FIFO among matches keeps each peer's stream in order,
/// so the combination is exactly as safe as the old fixed-order drain.
///
/// `deliver(i, msg)` is invoked per admitted message, i being the index into
/// `recvs` of the entry it is owed for, and returns whether it took the
/// payload. A rejected message (stale traffic of an aborted attempt, in the
/// reliable exchange) is dropped and its sender still owes the entry.
template <class Entry, class Deliver>
void drain_arrival_order(rt::Communicator& channel,
                         const std::vector<int>& src_ranks,
                         const std::vector<Entry>& recvs, int tag,
                         int timeout_ms, Deliver&& deliver) {
  if (recvs.empty()) return;
  // Channel rank of the expected sender -> indices of its entries, oldest
  // first (schedules normally hold one entry per peer; a deque keeps us
  // correct if a caller ever splits a peer across entries).
  std::map<int, std::deque<std::size_t>> owed;
  for (std::size_t i = 0; i < recvs.size(); ++i)
    owed[src_ranks.at(recvs[i].peer)].push_back(i);
  const auto matches = [&owed](const rt::Message& m) {
    const auto it = owed.find(m.src);
    return it != owed.end() && !it->second.empty();
  };
  for (std::size_t k = 0; k < recvs.size();) {
    rt::Message msg =
        channel.recv_matching(rt::kAnySource, tag, matches, timeout_ms);
    auto& queue = owed.at(msg.src);
    if (!deliver(queue.front(), std::move(msg))) continue;
    queue.pop_front();
    ++k;
  }
}

/// Walk the runs shared by `segs` and the local footprint `prov`, invoking
/// `fn(storage_start, storage_stride, buf_index, count)` per contiguous run.
/// Factored out so pack and unpack share one coverage-checking walk.
template <class Fn>
void for_each_segment_run(const std::vector<linear::ProvenancedSegment>& prov,
                          const std::vector<linear::Segment>& segs, Fn&& fn) {
  std::size_t pi = 0;
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
    const std::vector<linear::Segment>& segs) {
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
                   const std::vector<linear::Segment>& segs, const T* local,
                   void* buf) {
  compile_run_plan(prov, segs).gather(local, buf, sizeof(T));
}

/// Mirror image of pack_segments: scatter a linear-ordered buffer of any
/// alignment back into local storage through the same compiled plan.
template <class T>
void unpack_segments(const std::vector<linear::ProvenancedSegment>& prov,
                     const std::vector<linear::Segment>& segs, T* local,
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
/// Zero-copy data plane (docs/PERFORMANCE.md): each send peer's payload of
/// `elements * width` bytes is packed once by `pack(entry, out)`, straight
/// into a pooled rt::Buffer that is then MOVED through the runtime; payloads
/// are drained in arrival order and `unpack(entry, payload)` injects
/// directly out of the arrived block once its size is checked. Per element
/// transferred this costs exactly one copy (the pack) — the inject into the
/// destination is the delivery itself.
template <class Schedule, class Pack, class Unpack>
MovedCounts execute_bytes(const Schedule& s, std::size_t width,
                          const Coupling& c, int tag, Pack&& pack,
                          Unpack&& unpack) {
  trace::Span span("sched.execute", "sched",
                   static_cast<std::uint64_t>(s.send_elements() +
                                              s.recv_elements()) * width);
  MovedCounts moved;
  rt::Communicator channel = c.channel;  // local handle

  for (const auto& pe : s.sends) {
    const std::size_t bytes = static_cast<std::size_t>(pe.elements) * width;
    rt::Buffer buf = rt::Buffer::allocate(bytes);
    pack(pe, buf.mutable_data());
    rt::note_bytes_copied(bytes);
    moved.elements += static_cast<std::uint64_t>(pe.elements);
    moved.bytes += bytes;
    channel.isend(c.dst_ranks.at(pe.peer), tag, std::move(buf));
  }

  detail::drain_arrival_order(
      channel, c.src_ranks, s.recvs, tag, c.recv_timeout_ms,
      [&](std::size_t i, rt::Message msg) {
        const auto& pe = s.recvs[i];
        const std::size_t bytes = static_cast<std::size_t>(pe.elements) * width;
        if (msg.payload.size() != bytes)
          throw rt::UsageError("redistribution payload size mismatch");
        unpack(pe, msg.payload.span());
        moved.elements += static_cast<std::uint64_t>(pe.elements);
        moved.bytes += bytes;
        return true;
      });
  return moved;
}

/// Execute a region schedule over typed arrays (execute_bytes with the
/// pack_regions payload layout). `src_arr` may be null when this process is
/// not in the source cohort, and `dst_arr` null when not in the destination
/// cohort.
template <class T>
void execute(const RegionSchedule& sched, const dad::DistArray<T>* src_arr,
             dad::DistArray<T>* dst_arr, const Coupling& c, int tag) {
  if (!sched.sends.empty() && src_arr == nullptr)
    throw rt::UsageError("schedule has sends but no source array given");
  if (!sched.recvs.empty() && dst_arr == nullptr)
    throw rt::UsageError("schedule has recvs but no destination array given");
  execute_bytes(
      sched, sizeof(T), c, tag,
      [&](const PeerRegions& pr, std::byte* out) {
        pack_regions(pr.regions, sizeof(T), src_arr->extractor(), out);
      },
      [&](const PeerRegions& pr, std::span<const std::byte> in) {
        unpack_regions(pr.regions, sizeof(T), dst_arr->injector(), in.data());
      });
}

/// Execute a segment schedule. `src_prov`/`dst_prov` are the provenanced
/// footprints of the local arrays under the source/destination
/// linearizations (compute once with linear::footprint_with_provenance and
/// reuse across transfers, like the schedule itself). Payloads are
/// linear-ordered segment runs (pack_segments) instead of regions, packed
/// into and injected out of the payload bytes directly.
template <class T>
void execute(const SegmentSchedule& sched, dad::DistArray<T>* src_arr,
             const std::vector<linear::ProvenancedSegment>* src_prov,
             dad::DistArray<T>* dst_arr,
             const std::vector<linear::ProvenancedSegment>* dst_prov,
             const Coupling& c, int tag) {
  execute_bytes(
      sched, sizeof(T), c, tag,
      [&](const PeerSegments& ps, std::byte* out) {
        pack_segments<T>(*src_prov, ps.segs, src_arr->local().data(), out);
      },
      [&](const PeerSegments& ps, std::span<const std::byte> in) {
        unpack_segments<T>(*dst_prov, ps.segs, dst_arr->local().data(),
                           in.data());
      });
}

}  // namespace mxn::sched
