#include "core/erased_exec.hpp"

namespace mxn::core {

using rt::UsageError;

MovedCounts execute_erased(const sched::RegionSchedule& s,
                           const FieldRegistration* src,
                           const FieldRegistration* dst,
                           const sched::Coupling& c, int tag) {
  if (!s.sends.empty()) {
    if (!src) throw UsageError("schedule has sends but no source field");
    if (!readable(src->mode))
      throw UsageError("field '" + src->name +
                       "' is not readable (access mode)");
  }
  if (!s.recvs.empty()) {
    if (!dst) throw UsageError("schedule has recvs but no destination field");
    if (!writable(dst->mode))
      throw UsageError("field '" + dst->name +
                       "' is not writable (access mode)");
    if (!s.sends.empty() && src->storage.width != dst->storage.width)
      throw UsageError("fields '" + src->name + "' and '" + dst->name +
                       "' differ in element size");
  }
  return sched::execute_regions(s, src ? src->storage : dad::PatchStorage{},
                                dst ? dst->storage : dad::PatchStorage{}, c,
                                tag);
}

}  // namespace mxn::core
