#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mxn::trace {

// ===========================================================================
// Unified tracing & metrics layer (see docs/OBSERVABILITY.md).
//
// Two facilities share this header:
//  - EVENTS: per-thread fixed-capacity rings of typed spans/instants,
//    recorded only while tracing is enabled (a branch on one relaxed atomic
//    when it is not), exportable as Chrome trace-event JSON for Perfetto.
//  - METRICS: a process-wide registry of named counters and log2-bucket
//    latency histograms. Counters are always live (two relaxed fetch_adds);
//    the registry subsumes the per-communicator StatsSnapshot and the
//    ScheduleCache hit/miss integers without replacing their APIs.
//    Labeled counter families (`<prefix><label><field>`) give an owner of
//    many runtime labels one registration instead of one per name.
// ===========================================================================

// --- enable flag -----------------------------------------------------------

namespace detail {
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Is event recording on? One relaxed load; the disabled fast path of every
/// instrumentation site.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

/// True when the MXN_TRACE environment variable is set to a non-empty value
/// other than "0" (parsed once per process).
bool env_enabled();

// --- thread identity -------------------------------------------------------

/// Tag the calling thread with its universe rank; rt::spawn does this for
/// every spawned "process". Untagged threads record as rank -1.
void set_thread_rank(int rank);
int thread_rank();

// --- events ----------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class EventKind : std::uint8_t { Begin, End, Instant };

/// One recorded event. `name` and `cat` must be string literals (or other
/// process-lifetime storage): rings store the pointers, not copies.
struct Event {
  const char* name = nullptr;
  const char* cat = nullptr;
  EventKind kind = EventKind::Instant;
  int rank = -1;
  std::int64_t ts_ns = 0;
  std::uint64_t arg = 0;
};

/// Events kept per thread; the ring overwrites its oldest entries.
inline constexpr std::size_t kRingCapacity = 4096;

/// Single-writer event ring. The owning thread records without locks; the
/// exporter and the deadlock watchdog read from other threads (the writer is
/// blocked or joined when they do, so snapshot reads are safe in practice).
class Ring {
 public:
  void record(const Event& e) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h % kRingCapacity] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  /// Last min(recorded, capacity) events, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const;

  void reset() { head_.store(0, std::memory_order_release); }

  [[nodiscard]] std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint64_t> head_{0};
  Event slots_[kRingCapacity];
};

/// Record an instantaneous event on the calling thread's ring. No-op (one
/// relaxed load) while tracing is disabled.
void instant(const char* name, const char* cat, std::uint64_t arg = 0);

/// Snapshot of the calling thread's own ring (oldest first). Mainly for
/// tests and ad-hoc inspection; exporters read every ring instead.
std::vector<Event> this_thread_events();

namespace detail {
void record_kind(const char* name, const char* cat, EventKind kind,
                 std::uint64_t arg);
}  // namespace detail

class Histogram;

/// RAII span: records Begin on construction and End on destruction when
/// tracing is enabled at construction time. Optionally feeds the span
/// duration into a latency histogram (always, even with tracing off, so
/// metrics stay meaningful without event capture — pass nullptr to skip).
class Span {
 public:
  Span(const char* name, const char* cat, std::uint64_t arg = 0,
       Histogram* duration_hist = nullptr)
      : hist_(duration_hist) {
    if (enabled()) {
      active_ = true;
      name_ = name;
      cat_ = cat;
      detail::record_kind(name, cat, EventKind::Begin, arg);
    }
    if (hist_ != nullptr) t0_ = now_ns();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span();

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  Histogram* hist_ = nullptr;
  std::int64_t t0_ = 0;
};

// --- metrics ---------------------------------------------------------------

/// Monotonic counter. References returned by counter() stay valid for the
/// process lifetime; hot call sites cache them in function-local statics.
class Counter {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Log2-bucket histogram: bucket b counts samples v with bit_width(v) == b,
/// i.e. bucket 0 holds v == 0 and bucket b >= 1 holds [2^(b-1), 2^b).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] static int bucket_of(std::uint64_t v) {
    int b = 0;
    while (v != 0) {
      ++b;
      v >>= 1;
    }
    return b;
  }

  /// Inclusive lower bound of bucket b's value range.
  [[nodiscard]] static std::uint64_t bucket_lo(int b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  [[nodiscard]] std::uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Look up (creating on first use) a named metric. Thread-safe; the returned
/// reference is stable for the process lifetime. A name a registered counter
/// family covers (see CounterFamily) resolves to the family's retired total
/// for it; one looked up before its family exists stays a plain counter,
/// which snapshots add to the family's value.
Counter& counter(const std::string& name);
Histogram& histogram(const std::string& name);

/// Counters named `<prefix><label><field>` for runtime labels and a fixed
/// list of fields, e.g. fabric.tenant.<name>.ticks / .advanced. The family
/// is registered once; each owner of labels (one Fabric) takes a Block and
/// appends one row per label under the block's own lock, so registering a
/// label builds no name and takes no process-wide lock, and the owner
/// ticks slots no other block shares. Names are built only by snapshots
/// (counters(), write_chrome_trace), which sum each name over the live
/// blocks and the family's retired totals. A destroyed Block folds its rows
/// into the retired totals, per label, under the family lock once.
class CounterFamily {
 public:
  CounterFamily(std::string prefix, std::vector<std::string> fields);
  CounterFamily(const CounterFamily&) = delete;
  CounterFamily& operator=(const CounterFamily&) = delete;

  [[nodiscard]] const std::vector<std::string>& fields() const {
    return fields_;
  }

  /// One owner's rows: one zeroed Counter per field per appended label, in
  /// stable storage. Appending is the only mutation and belongs to the
  /// owning thread, which therefore reads rows without the lock; the lock
  /// orders appends against snapshots on other threads.
  class Block {
   public:
    explicit Block(CounterFamily& family);
    ~Block();
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    /// Append a row labeled `label`; returns its index (0, 1, ...).
    std::size_t add(std::string label);

    [[nodiscard]] Counter& at(std::size_t row, std::size_t field) {
      return slots_[row * nfields_ + field];
    }
    [[nodiscard]] const std::string& label(std::size_t row) const {
      return labels_[row];
    }

   private:
    friend class CounterFamily;

    CounterFamily& family_;
    const std::size_t nfields_;
    std::mutex mu_;
    std::deque<std::string> labels_;
    std::deque<Counter> slots_;  // nfields_ per row, row-major
  };

 private:
  friend Counter& counter(const std::string& name);
  friend std::map<std::string, std::uint64_t> counters();
  friend void reset();

  struct LabelHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// Retired-total row of `label` (created zeroed on first use). Needs mu_.
  std::size_t retired_row(std::string_view label);
  /// The retired total `name` denotes, or null if the family does not
  /// cover `name`.
  Counter* retired_counter(std::string_view name);
  /// Add every name's value (live blocks + retired) into `out`.
  void snapshot(std::map<std::string, std::uint64_t>& out);
  /// Zero every live and retired value; rows and labels stay.
  void zero();

  const std::string prefix_;
  const std::vector<std::string> fields_;
  std::mutex mu_;  // guards blocks_ and the retired totals
  std::vector<Block*> blocks_;
  std::unordered_map<std::string, std::size_t, LabelHash, std::equal_to<>>
      retired_rows_;
  std::deque<Counter> retired_;  // fields_.size() per row, row-major
};

/// Look up (creating on first use) the family with `prefix`; every caller
/// must pass the same `fields` (std::invalid_argument otherwise). The
/// reference is stable for the process lifetime.
CounterFamily& counter_family(const std::string& prefix,
                              std::vector<std::string> fields);

/// Snapshot of every registered counter / histogram mean (name -> value).
std::map<std::string, std::uint64_t> counters();
std::map<std::string, std::uint64_t> histogram_counts();

// --- capture management & export -------------------------------------------

/// Reset all rings and metric values (registered objects survive, so cached
/// references stay valid). Call only between spawns — never while traced
/// threads are running.
void reset();

/// Write everything recorded so far as Chrome trace-event JSON (one track
/// per rank; loadable in Perfetto / chrome://tracing). Registered counter
/// values ride along as metadata events. Returns false if the file could
/// not be opened.
bool write_chrome_trace(const std::string& path);

/// Human-readable causal timeline: the last `max_per_rank` events of every
/// rank's ring, one line per event. Empty string when nothing was recorded
/// (e.g. tracing disabled) — the deadlock watchdog appends this to its
/// report.
std::string tail_report(std::size_t max_per_rank);

}  // namespace mxn::trace
