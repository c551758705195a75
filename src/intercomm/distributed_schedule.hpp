#pragma once

#include "sched/coupling.hpp"
#include "sched/schedule.hpp"

namespace mxn::intercomm {

/// Build a communication schedule when the descriptors are *partitioned*:
/// each source rank knows only its own patches and each destination rank
/// only its own (InterComm's regime for explicit distributions, §4.4). No
/// process ever materializes the global descriptor. Protocol:
///
///   1. every source rank sends its local patch list to every destination
///      rank (S x D small messages);
///   2. each destination rank intersects each source's patches with its own
///      (nested source-patch, dest-patch order — the same canonical order
///      the replicated builder uses) and returns to each source the region
///      list it expects from it, with each region's patch indices;
///   3. each source adopts the returned lists as its send schedule (a
///      malformed reply is a UsageError; docs/FAULTS.md, decode contract).
///
/// Ranks may hold both roles (self-coupling). The returned schedule is
/// reusable across transfers, exactly like the replicated-descriptor one —
/// the build cost is paid in messages instead of global metadata, which is
/// the trade the paper describes for large irregular descriptors.
sched::RegionSchedule build_region_schedule_partitioned(
    const std::vector<dad::Patch>& my_src_patches,
    const std::vector<dad::Patch>& my_dst_patches, const sched::Coupling& c,
    int tag);

}  // namespace mxn::intercomm
