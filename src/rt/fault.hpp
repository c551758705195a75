#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace mxn::rt {

/// Deterministic, seeded chaos for one spawn (docs/FAULTS.md). A plan is
/// attached via SpawnOptions::faults (or the MXN_FAULTS environment
/// variable) and interpreted at the mailbox choke-point every message and
/// every blocking operation passes through, so every layer built on the
/// runtime — core M×N, PRMI, DCA, InterComm, MCT — inherits the chaos.
///
/// Determinism: each fault decision is a pure hash of (seed, universe rank,
/// that rank's operation counter), never of wall-clock time or thread
/// interleaving. Two runs of the same program with the same plan inject the
/// same faults at the same points of each rank's program order.
/// One scheduled kill: `rank` dies (sticky KilledError) at its `after`-th
/// counted operation. Negative values disable the entry.
struct KillSpec {
  int rank = -1;
  int after = -1;

  friend bool operator==(const KillSpec&, const KillSpec&) = default;
};

struct FaultPlan {
  std::uint64_t seed = 1;

  // Per-message fates, evaluated in this order; probabilities in [0, 1].
  double drop = 0;     // message silently discarded
  double dup = 0;      // message delivered twice
  double reorder = 0;  // message queue-jumps ahead of already-queued ones
  double delay = 0;    // sender sleeps delay_ms before delivery
  int delay_ms = 1;

  // Kill list ("kill=2@40,5@90" in the spec syntax). Each entry kills one
  // rank when it reaches its `after`-th counted operation (blocking sends +
  // blocking receives, in that rank's program order), so a plan can exceed
  // any redundancy scheme's tolerance (docs/REDUNDANCY.md).
  std::vector<KillSpec> kills{};

  // Faults apply only to messages with tag >= min_tag. The default spares
  // nothing user-visible; internal collective tags (< 0) are always spared
  // so a plan cannot corrupt barrier/bcast plumbing it has no model of.
  int min_tag = 0;

  /// All scheduled kills, one per rank in ascending rank order. If one rank
  /// appears twice in `kills`, the earliest operation count wins.
  [[nodiscard]] std::vector<KillSpec> all_kills() const;

  [[nodiscard]] bool enabled() const {
    return drop > 0 || dup > 0 || reorder > 0 || delay > 0 ||
           !all_kills().empty();
  }

  /// Parse "key=value[,key=value...]" — the MXN_FAULTS syntax, e.g.
  /// "seed=7,drop=0.05,dup=0.05,kill=2@40,5@90". A "kill=" value is a list
  /// of rank@after entries (comma-separated items after a "kill=" key that
  /// contain no '=' continue the kill list). Unknown keys and malformed
  /// values throw UsageError.
  static FaultPlan parse(const std::string& spec);

  /// Plan from MXN_FAULTS, if the variable is set and non-empty.
  static std::optional<FaultPlan> from_env();

  [[nodiscard]] std::string to_string() const;
};

/// What to do with one message about to be delivered.
enum class FaultAction : std::uint8_t { None, Drop, Duplicate, Reorder, Delay };

/// Per-universe interpreter of a FaultPlan. Thread-safe: per-rank atomic
/// counters, immutable plan. Every injected fault increments a counter in
/// the trace registry ("fault.dropped", "fault.duplicated", "fault.reordered",
/// "fault.delayed", "fault.killed") and records a trace instant, so chaos
/// runs are auditable in the Chrome/Perfetto export.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, int nranks);

  /// Entry hook of every counted operation (blocking send/recv) of `rank`.
  /// From the rank's scheduled kill operation on, every call throws
  /// KilledError — the death is sticky, so user code that catches the error
  /// cannot keep communicating on a "dead" rank.
  void on_op(int rank);

  /// Decide the fate of a message `rank` is sending with `tag`. Counts and
  /// traces the injected fault (Drop/Duplicate/Reorder are recorded here;
  /// the caller enacts them).
  FaultAction on_send(int rank, int tag);

  [[nodiscard]] int delay_ms() const { return plan_.delay_ms; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  [[nodiscard]] double uniform(int rank, std::uint64_t op) const;

  FaultPlan plan_;
  // Indexed by universe rank: counted ops (kill clock) and send decisions.
  std::vector<std::atomic<std::uint64_t>> ops_;
  std::vector<std::atomic<std::uint64_t>> sends_;
  // Indexed by universe rank: the operation count at which the rank dies,
  // or -1 for immortal ranks. Built from plan.all_kills().
  std::vector<int> kill_at_;
  std::atomic<bool> killed_{false};
};

}  // namespace mxn::rt
