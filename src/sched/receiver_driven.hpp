#pragma once

#include <string>
#include <vector>

#include "dad/dist_array.hpp"
#include "sched/coupling.hpp"
#include "sched/executor.hpp"

namespace mxn::sched {

namespace detail {

/// Decode a segment list off the wire: a count, then (lo, hi) pairs. The
/// count is checked against the bytes that remain (16 per segment) before
/// anything is sized, and every segment must be non-empty and lie above the
/// one before it (ascending, disjoint); anything else is a UsageError.
inline std::vector<linear::Segment> unpack_wire_segments(rt::UnpackBuffer& u,
                                                         const char* what) {
  const auto n = u.unpack<std::uint64_t>();
  if (n > u.remaining() / (2 * sizeof(Index)))
    throw rt::UsageError(std::string("receiver-driven ") + what +
                         ": segment count " + std::to_string(n) +
                         " exceeds the payload");
  std::vector<linear::Segment> segs(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < segs.size(); ++i) {
    segs[i].lo = u.unpack<Index>();
    segs[i].hi = u.unpack<Index>();
    if (segs[i].lo >= segs[i].hi)
      throw rt::UsageError(std::string("receiver-driven ") + what +
                           ": empty or reversed segment");
    if (i > 0 && segs[i].lo < segs[i - 1].hi)
      throw rt::UsageError(std::string("receiver-driven ") + what +
                           ": segments out of order or overlapping");
  }
  return segs;
}

/// True when every segment of `inner` lies inside one segment of `outer`
/// (both ascending and disjoint, as unpack_wire_segments and footprints
/// deliver them).
inline bool segments_within(const std::vector<linear::Segment>& inner,
                            const std::vector<linear::Segment>& outer) {
  std::size_t j = 0;
  for (const auto& s : inner) {
    while (j < outer.size() && outer[j].hi <= s.lo) ++j;
    if (j == outer.size() || s.lo < outer[j].lo || s.hi > outer[j].hi)
      return false;
  }
  return true;
}

}  // namespace detail

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
      const auto needs = detail::unpack_wire_segments(u, "request");
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
      const auto segs = detail::unpack_wire_segments(u, "reply");
      // Inside our own request, so the scatter stays in our storage and
      // the element count cannot overflow.
      if (!detail::segments_within(segs, *my_needs_ptr))
        throw rt::UsageError(
            "receiver-driven reply: segment outside this rank's request");
      Index elements = 0;
      for (const auto& s : segs) elements += s.length();
      // Scatter straight out of the payload — no intermediate vector.
      auto raw = u.unpack_raw(static_cast<std::size_t>(elements) * sizeof(T));
      unpack_segments<T>(prov, segs, dst_arr->local().data(), raw.data());
    }
  }
}

}  // namespace mxn::sched
