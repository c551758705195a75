#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "rt/sharded_lru.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace mxn::sched {

/// Sizing knobs for a ScheduleCache. The defaults, one shard and no bounds,
/// keep every entry until clear() or epoch retirement; a multi-tenant fabric
/// configures shards (lock spreading) and budgets (bounded memory).
using ScheduleCacheConfig = rt::ShardedLruConfig;

/// Per-process cache of region schedules keyed by (source template,
/// destination template, roles). Communication schedules can be expensive to
/// calculate (paper §2.3); because schedules are a function of templates —
/// not of the actual arrays aligned to them — one cached schedule serves
/// every conforming array and every repeat transfer.
///
/// An rt::ShardedLru keyed by a structural hash: tenants contend only within
/// a shard, and the structural same-descriptor comparison runs only on hash
/// collisions. Over a configured budget, inserts evict cold entries and bump
/// `sched.cache.evicted`. An evicted schedule that a connection still pins
/// is revived on its next lookup instead of rebuilt: served as a hit,
/// re-inserted under the budget and counted by `sched.cache.revived`. A
/// schedule is a pure function of its key, so the revived entry equals a
/// rebuilt one, and a rank keeps one schedule per key for as long as any
/// connection uses it. Schedules are built outside the shard lock; a lookup
/// that loses a build race to a concurrent one is billed as a hit, so
/// hits() + misses() always equals the number of lookups.
class ScheduleCache {
 public:
  explicit ScheduleCache(const ScheduleCacheConfig& cfg = {})
      : lru_("sched.cache.evicted", "sched.cache.revived", cfg) {}

  /// Re-shard and re-budget, redistributing any existing entries (their
  /// pinned shared_ptrs stay valid). Not safe against concurrent lookups.
  void configure(const ScheduleCacheConfig& cfg) { lru_.configure(cfg); }

  /// Look up or build the schedule for this rank's roles. The returned
  /// handle pins the schedule across eviction and epoch retirement.
  std::shared_ptr<const RegionSchedule> get_shared(
      const dad::DescriptorPtr& src, const dad::DescriptorPtr& dst,
      int my_src_rank, int my_dst_rank) {
    static trace::Counter& hit_count = trace::counter("sched.cache.hits");
    static trace::Counter& miss_count = trace::counter("sched.cache.misses");
    const auto [entry, outcome] =
        lru_.get_or_build({src, dst, my_src_rank, my_dst_rank}, [&] {
          const std::int64_t t0 = trace::now_ns();
          auto s = build_region_schedule(*src, *dst, my_src_rank, my_dst_rank);
          return Built{std::move(s), trace::now_ns() - t0};
        });
    const bool miss = outcome == rt::LruOutcome::Miss;
    (miss ? misses_ : hits_).fetch_add(1);
    (miss ? miss_count : hit_count).add(1);
    trace::instant(miss ? "sched.cache.miss" : "sched.cache.hit", "sched");
    return {entry, &entry->sched};
  }

  [[nodiscard]] std::size_t hits() const { return hits_.load(); }
  [[nodiscard]] std::size_t misses() const { return misses_.load(); }
  [[nodiscard]] std::size_t evicted() const { return lru_.evicted(); }
  /// Lookups served by reviving an evicted, still pinned entry (each is
  /// also one of hits()).
  [[nodiscard]] std::size_t revived() const { return lru_.revived(); }
  [[nodiscard]] std::size_t size() const { return lru_.size(); }

  /// Total resident bytes (per entry: a fixed estimate plus the schedule).
  [[nodiscard]] std::size_t bytes() const { return lru_.bytes(); }

  /// Drop every entry, forget evicted ones still pinned (the next lookup of
  /// their key rebuilds) and reset the hit/miss/eviction/revival tallies: a
  /// cleared cache reports a clean slate, not rates against entries that no
  /// longer exist. Callers wanting the lifetime numbers snapshot stats()
  /// first.
  void clear() {
    lru_.clear();
    hits_.store(0);
    misses_.store(0);
  }

  /// Rescale-epoch lifecycle (docs/RESCALING.md): entries built or hit from
  /// here on are stamped with `e`; retire_epochs_before(e) then drops every
  /// entry of an older generation. An elastic component advances the epoch
  /// at the start of a rescale, rebuilds its connections' schedules (fresh
  /// entries, fresh pins), and only then retires the old generation — so no
  /// live schedule handle ever dangles.
  void set_epoch(std::uint64_t e) { lru_.set_generation(e); }
  [[nodiscard]] std::uint64_t epoch() const { return lru_.generation(); }

  /// Drop entries stamped with an epoch < `e`; returns how many. Evicted
  /// entries of those epochs are forgotten too, so a pin held across the
  /// retirement is never revived into the new epoch.
  std::size_t retire_epochs_before(std::uint64_t e) {
    static trace::Counter& retired = trace::counter("sched.cache.retired");
    const std::size_t n = lru_.retire_before(e);
    retired.add(n);
    return n;
  }

  /// Per-entry build cost, for sizing the cache's payoff: an entry that took
  /// `build_ns` to construct saves that much on every subsequent hit.
  struct EntryStats {
    std::size_t key_hash = 0;
    int my_src = -1;
    int my_dst = -1;
    std::int64_t build_ns = 0;
    std::size_t messages = 0;
  };
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evicted = 0;
    std::size_t revived = 0;
    std::size_t bytes = 0;
    std::int64_t total_build_ns = 0;
    std::vector<EntryStats> entries;
  };

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.hits = hits_.load();
    s.misses = misses_.load();
    s.evicted = lru_.evicted();
    s.revived = lru_.revived();
    lru_.for_each([&s](const Key& k, const Built& b) {
      s.bytes += Weigh{}(b);
      s.total_build_ns += b.build_ns;
      s.entries.push_back({KeyHash{}(k), k.my_src, k.my_dst, b.build_ns,
                           b.sched.message_count()});
    });
    return s;
  }

 private:
  struct Key {
    dad::DescriptorPtr src, dst;
    int my_src = -1, my_dst = -1;

    friend bool operator==(const Key& a, const Key& b) {
      // Pointer fast path, then structural.
      return a.my_src == b.my_src && a.my_dst == b.my_dst &&
             (a.src == b.src || *a.src == *b.src) &&
             (a.dst == b.dst || *a.dst == *b.dst);
    }
  };

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = k.src->structural_hash();
      h = h * 1099511628211ull + k.dst->structural_hash();
      h = h * 1099511628211ull + static_cast<std::size_t>(k.my_src + 1);
      h = h * 1099511628211ull + static_cast<std::size_t>(k.my_dst + 1);
      return h;
    }
  };

  struct Built {
    RegionSchedule sched;
    std::int64_t build_ns = 0;
  };

  // An entry's charge: the schedule plus a fixed 144-byte estimate of its
  // bookkeeping (key, build time, stamps, LRU links).
  struct Weigh {
    std::size_t operator()(const Built& b) const {
      return 144 + b.sched.byte_size();
    }
  };

  rt::ShardedLru<Key, Built, KeyHash, Weigh> lru_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace mxn::sched
