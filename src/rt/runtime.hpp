#pragma once

#include <functional>
#include <optional>

#include "rt/communicator.hpp"
#include "rt/fault.hpp"

namespace mxn::rt {

/// Options controlling one spawn().
struct SpawnOptions {
  /// When > 0, the watchdog declares deadlock after all threads have been
  /// blocked in matched receives with no message traffic for this long.
  int deadlock_timeout_ms = 0;

  /// When > 0, every blocking receive/split of the spawn that does not pass
  /// an explicit timeout throws TimeoutError after this many ms without a
  /// match. Unlike the watchdog (which needs EVERY rank idle), this is a
  /// per-call deadline: one stalled rank fails fast even while its siblings
  /// keep working — the knob that turns lost messages into typed errors
  /// instead of hangs (docs/FAULTS.md).
  int default_recv_timeout_ms = 0;

  /// Deterministic fault injection for this spawn (docs/FAULTS.md). When
  /// unset, the MXN_FAULTS environment variable is consulted instead.
  std::optional<FaultPlan> faults{};

  /// Turn on trace-event recording for this spawn (see
  /// docs/OBSERVABILITY.md). The MXN_TRACE environment variable enables it
  /// process-wide regardless of this flag. Once enabled, recording stays on
  /// so the caller can export with trace::write_chrome_trace() after
  /// spawn() returns.
  bool trace = false;
};

/// Run `fn` on `nprocs` cooperating "processes" (threads with private
/// mailboxes, exactly the communication structure of an MPI job on a single
/// node — see DESIGN.md, Substitutions). Blocks until every process returns.
///
/// If any process throws, the universe aborts: siblings blocked in receives
/// unwind with AbortError (which is swallowed) and the first real exception
/// is rethrown from spawn() on the caller's thread.
void spawn(int nprocs, const std::function<void(Communicator&)>& fn,
           const SpawnOptions& opts = {});

}  // namespace mxn::rt
