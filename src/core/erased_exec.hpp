#pragma once

#include "core/field.hpp"
#include "sched/executor.hpp"

namespace mxn::core {

using sched::MovedCounts;

/// Type-erased twin of sched::execute: performs this process's share of a
/// region schedule through the storage views of field registrations, on
/// sched::execute_regions. `src` may be
/// null when this process has no sends, `dst` null when it has no receives.
/// Receives honor `c.recv_timeout_ms`.
MovedCounts execute_erased(const sched::RegionSchedule& s,
                           const FieldRegistration* src,
                           const FieldRegistration* dst,
                           const sched::Coupling& c, int tag);

}  // namespace mxn::core
