#pragma once

#include "dad/dist_array.hpp"
#include "sched/coupling.hpp"
#include "sched/executor.hpp"

namespace mxn::sched {

/// Schedule-free redistribution in the style of the Indiana MPI-IO M×N
/// device (paper §2.2.1): each receiver broadcasts to the senders which
/// chunks of the linearization it requires; each sender intersects the
/// request with what it owns and replies with exactly those elements. No
/// communication schedule is precomputed or stored — the protocol trades a
/// small per-transfer communication overhead (the request wave) for zero
/// schedule-build cost, which pays off for one-shot couplings.
///
/// Both sides call this collectively. The request wave costs |dst| x |src|
/// small messages; the data wave one message per (src, dst) pair with a
/// non-empty intersection (empty replies are still sent to keep matching
/// trivial, as in the original device).
template <class T>
void redistribute_receiver_driven(const dad::DistArray<T>* src_arr,
                                  const linear::Linearization& src_lin,
                                  dad::DistArray<T>* dst_arr,
                                  const linear::Linearization& dst_lin,
                                  const Coupling& c, int tag) {
  rt::Communicator channel = c.channel;
  const int request_tag = tag;
  const int data_tag = tag + 1;
  const int my_dst = c.my_dst_rank();
  const int my_src = c.my_src_rank();

  // --- receivers announce their needs --------------------------------------
  linear::SegmentsPtr my_needs_ptr;
  if (my_dst >= 0) {
    my_needs_ptr =
        linear::footprint_cached(dst_arr->descriptor(), my_dst, dst_lin);
    const auto& my_needs = *my_needs_ptr;
    rt::PackBuffer b;
    b.pack(static_cast<std::uint64_t>(my_needs.size()));
    for (const auto& s : my_needs) {
      b.pack(s.lo);
      b.pack(s.hi);
    }
    // One refcounted block shared by every sender (no per-peer copy).
    const rt::Buffer bytes = std::move(b).take_buffer();
    for (int s = 0; s < static_cast<int>(c.src_ranks.size()); ++s)
      channel.send(c.src_ranks[s], request_tag, bytes);
  }

  // --- senders answer each request with the overlap ------------------------
  if (my_src >= 0) {
    const auto prov = linear::footprint_with_provenance(
        src_arr->descriptor(), my_src, src_lin);
    std::vector<linear::Segment> mine;
    mine.reserve(prov.size());
    for (const auto& p : prov) mine.push_back(p.seg);
    mine = linear::normalize(std::move(mine));

    for (std::size_t i = 0; i < c.dst_ranks.size(); ++i) {
      auto msg = channel.recv(rt::kAnySource, request_tag);
      rt::UnpackBuffer u(msg.payload);
      const auto n = u.unpack<std::uint64_t>();
      std::vector<linear::Segment> needs(n);
      for (auto& s : needs) {
        s.lo = u.unpack<Index>();
        s.hi = u.unpack<Index>();
      }
      auto common = linear::intersect(mine, needs);

      // Reply: segment list header followed by the elements in linear order,
      // packed straight into the payload (no staging vector).
      rt::PackBuffer reply;
      reply.pack(static_cast<std::uint64_t>(common.size()));
      Index elements = 0;
      for (const auto& s : common) {
        reply.pack(s.lo);
        reply.pack(s.hi);
        elements += s.length();
      }
      const std::size_t nbytes =
          static_cast<std::size_t>(elements) * sizeof(T);
      pack_segments<T>(prov, common, src_arr->local().data(),
                       reply.append_uninitialized(nbytes));
      rt::note_bytes_copied(nbytes);
      channel.send(msg.src, data_tag, std::move(reply).take());
    }
  }

  // --- receivers place the arriving data -----------------------------------
  if (my_dst >= 0) {
    const auto prov = linear::footprint_with_provenance(
        dst_arr->descriptor(), my_dst, dst_lin);
    for (std::size_t i = 0; i < c.src_ranks.size(); ++i) {
      auto msg = channel.recv(rt::kAnySource, data_tag);
      rt::UnpackBuffer u(msg.payload);
      const auto n = u.unpack<std::uint64_t>();
      std::vector<linear::Segment> segs(n);
      Index elements = 0;
      for (auto& s : segs) {
        s.lo = u.unpack<Index>();
        s.hi = u.unpack<Index>();
        elements += s.length();
      }
      // Scatter straight out of the payload — no intermediate vector.
      auto raw = u.unpack_raw(static_cast<std::size_t>(elements) * sizeof(T));
      unpack_segments<T>(prov, segs, dst_arr->local().data(), raw.data());
    }
  }
}

}  // namespace mxn::sched
