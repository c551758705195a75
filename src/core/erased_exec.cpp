#include "core/erased_exec.hpp"

namespace mxn::core {

using rt::UsageError;

MovedCounts execute_erased(const sched::RegionSchedule& s,
                           const FieldRegistration* src,
                           const FieldRegistration* dst,
                           const sched::Coupling& c, int tag) {
  std::size_t width = 0;
  if (!s.sends.empty()) {
    if (!src) throw UsageError("schedule has sends but no source field");
    if (!src->extract)
      throw UsageError("field '" + src->name +
                       "' is not readable (access mode)");
    width = src->elem_size;
  }
  if (!s.recvs.empty()) {
    if (!dst) throw UsageError("schedule has recvs but no destination field");
    if (!dst->inject)
      throw UsageError("field '" + dst->name +
                       "' is not writable (access mode)");
    if (width != 0 && width != dst->elem_size)
      throw UsageError("fields '" + src->name + "' and '" + dst->name +
                       "' differ in element size");
    width = dst->elem_size;
  }
  return sched::execute_bytes(
      s, width, c, tag,
      [src, width](const sched::PeerRegions& pr, std::size_t first,
                   std::size_t last, std::byte* out) {
        sched::pack_regions(sched::chunk_items(pr, first, last), width,
                            src->extract, out);
      },
      [dst, width](const sched::PeerRegions& pr, std::size_t first,
                   std::size_t last, std::span<const std::byte> in) {
        sched::unpack_regions(sched::chunk_items(pr, first, last), width,
                              dst->inject, in.data());
      });
}

}  // namespace mxn::core
