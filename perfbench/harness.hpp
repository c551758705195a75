#pragma once

// Shared measurement plumbing of the repository benchmark: options, seeded
// inputs, latency samples, registry snapshots, the collective stop clock,
// and the one-line JSON result every workload prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rt/communicator.hpp"

namespace perfbench {

namespace rt = mxn::rt;

/// How one workload process runs. `traced` runs record trace events and
/// export them to `trace_out`; `ops` > 0 fixes the number of timed ops
/// (the traced pair of a `--trace 1` run), otherwise the run is timed for
/// `seconds`. A `setup_only` run ends the spawn right after set-up: it gives
/// one cold setup_s sample and the set-up's message totals.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  bool setup_only = false;
  long ops = 0;
  int recover_cycles = 0;  // elastic_chaos phase B spawns
  std::string trace_out;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's only source of input variation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  long range(long lo, long hi) {
    return lo + static_cast<long>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// Samples of one quantity (op latencies in microseconds, per-block op
/// rates), kept as a uniform random reservoir of at most kReservoir values: percentiles stay unbiased while the memory the
/// samples take (and so peak_rss_mb) does not grow with the op count. The
/// reservoir is reserved up front: pages are touched only as samples arrive,
/// and no reallocation copies it mid-run.
class Samples {
 public:
  static constexpr std::size_t kReservoir = std::size_t{1} << 18;

  Samples() { v_.reserve(kReservoir); }

  void add(double us) {
    ++seen_;
    if (v_.size() < kReservoir) {
      v_.push_back(us);
      return;
    }
    const std::uint64_t j = rng_.next() % seen_;
    if (j < kReservoir) v_[j] = us;
  }
  /// Every sample ever added, not just the ones kept.
  [[nodiscard]] std::size_t size() const { return seen_; }
  /// Nearest-rank percentile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double pct(double q) const;
  [[nodiscard]] double median() const { return pct(0.5); }

 private:
  std::vector<double> v_;
  std::uint64_t seen_ = 0;
  Rng rng_{0x5eed};
};

/// Counter values and histogram (count, sum) pairs of the trace registry.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hists;

  static Snapshot take();
  [[nodiscard]] std::uint64_t c(const std::string& name) const;
  [[nodiscard]] std::uint64_t hcount(const std::string& name) const;
  [[nodiscard]] std::uint64_t hsum(const std::string& name) const;
  /// this - earlier, name by name.
  [[nodiscard]] Snapshot minus(const Snapshot& earlier) const;
};

/// Collective loop control: rank `root` of `comm` decides whether another
/// block of ops runs (time budget or fixed op count) and broadcasts it, so
/// every rank runs the same number of ops. Call at block boundaries only.
class StopClock {
 public:
  StopClock(const Options& o, double t0) : opts_(o), t0_(t0) {}
  bool keep_going(rt::Communicator& comm, long done, int root = 0);

 private:
  const Options& opts_;
  double t0_;
};

/// Everything a workload reports. `e2e` and `layers` hold metric values;
/// `exact` holds the counts the determinism self-check compares. The spawn_*
/// totals cover the whole workload spawn, from before rt::spawn to after it
/// returns, so no message of the spawn is still in flight when they are read.
struct Result {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, double> exact;
  std::map<std::string, std::string> env;
  std::vector<std::string> errors;
  long attempted = 0;
  long failed = 0;
  long ops = 0;          // timed ops the trace attribution divides by
  int timing_rank = 0;   // universe rank whose spans are per-op attributed
  long spawn_ops = 0;    // every op of the spawn, warm-up included
  std::uint64_t spawn_msgs = 0;
  std::uint64_t spawn_bytes = 0;

  void fail(const std::string& why) { errors.push_back(why); }
  /// Record the spawn_* totals from snapshots taken around rt::spawn.
  void set_spawn_totals(const Snapshot& before, const Snapshot& after,
                        long ops_in_spawn);
  [[nodiscard]] std::string to_json() const;
};

double peak_rss_mb();
/// Ratio with a zero denominator reported as 0.
inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Record the run environment shared by every workload.
void record_env(const Options& o, Result& r);

/// Start of the timed phase, called by one rank while the others wait at a
/// barrier. A traced run turns event recording on here, so the rings hold
/// the timed ops rather than set-up. Throws unless the process state then
/// matches the run mode: an untraced run must not be recording (rt::spawn
/// turns recording on for good once any spawn asks for it).
void start_timed_phase(const Options& o);

/// Scope guard for each rank thread. It binds the thread to one CPU (rank
/// modulo the CPU count, as an MPI launcher binds ranks to cores) so run-to-
/// run thread placement does not move the figures, and at exit notes how
/// many events the thread's trace ring holds (a full ring has overwritten
/// its oldest ones).
struct RingGuard {
  explicit RingGuard(int rank);
  RingGuard(const RingGuard&) = delete;
  RingGuard& operator=(const RingGuard&) = delete;
  ~RingGuard();
};
std::size_t max_ring_events();

/// Registry-derived per-layer metrics every workload reports the same way:
/// `ops` divides the per-op counts, `payload_bytes` the copy ratio. The
/// per-op message counts come from the spawn totals instead (perfbench/run.py).
void add_counter_layers(const Snapshot& setup, const Snapshot& run, double ops,
                        double payload_bytes, Result& r);

/// Input check of the lossless workloads: no fault was injected.
void require_no_faults(const Snapshot& run, Result& r);

void run_bulk_stream(const Options& o, Result& r);
void run_tenant_fanout(const Options& o, Result& r);
void run_prmi_rpc(const Options& o, Result& r);
void run_elastic_chaos(const Options& o, Result& r);

}  // namespace perfbench
