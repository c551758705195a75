#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace mxn::rt {

/// Sizing of a ShardedLru. The defaults, one shard and no bounds, keep every
/// entry until clear() or retire_before().
struct ShardedLruConfig {
  std::size_t shards = 1;       // rounded up to a power of two
  std::size_t max_entries = 0;  // total entry cap, 0 = unbounded
  std::size_t max_bytes = 0;    // total byte budget, 0 = unbounded
};

/// Hit: the key was resident. Miss: built here and inserted. Race: built
/// here, but a concurrent build of the key was inserted first and is served.
enum class LruOutcome { Hit, Miss, Race };

/// A memo of immutable values in power-of-two shards, each with its own
/// mutex, hash index and LRU list, so lookups contend only within a shard.
/// Values are built outside the shard lock, so a build may look up other
/// keys of the same cache; the first insert wins. Lookups return shared_ptr
/// pins: eviction, retirement and clear() drop only the cache's reference.
///
/// Each entry is charged Weigh{}(value) bytes. Over a budget, an insert
/// evicts from the cold end of its shard until the shard is within its
/// slice (max_entries / shards, max_bytes / shards), bumping the evicted
/// counter named at construction, but it never evicts the entry it just
/// added. Entries are stamped with generation() on insert and on every hit.
///
/// Revival: an evicted entry that a pin still holds stays reachable through
/// a weak reference in its shard. A lookup that finds no resident entry
/// checks those first; if the entry is alive it is re-inserted at the warm
/// end under the normal budget, re-stamped, served as a hit and counted by
/// the revived counter. So a key keeps one value for as long as anyone
/// uses it, while the budgets still bound only what the cache holds.
/// clear() forgets evicted entries, and retire_before(g) those stamped
/// below g, so neither can hand back a value from before it ran.
template <class K, class V, class Hash, class Weigh>
class ShardedLru {
 public:
  using Pin = std::shared_ptr<const V>;

  ShardedLru(const char* evicted_counter, const char* revived_counter,
             const ShardedLruConfig& cfg = {})
      : evicted_count_(trace::counter(evicted_counter)),
        revived_count_(trace::counter(revived_counter)) {
    configure(cfg);
  }

  /// Re-shard and re-budget, reinserting the resident entries oldest first
  /// with their stamps; evicted entries are forgotten. Not safe against
  /// concurrent lookups.
  void configure(const ShardedLruConfig& cfg) {
    std::vector<NodePtr> old;
    for (auto& s : shards_)
      old.insert(old.end(), s->lru.rbegin(), s->lru.rend());
    cfg_ = cfg;
    for (cfg_.shards = 1; cfg_.shards < cfg.shards;) cfg_.shards <<= 1;
    shards_.clear();
    for (std::size_t i = 0; i < cfg_.shards; ++i)
      shards_.push_back(std::make_unique<Shard>());
    for (auto& n : old) {
      Shard& sh = shard_for(n->key);
      insert(sh, std::move(n));
    }
  }

  /// The value for `key`; on a miss, `build()` makes it.
  template <class Build>
  std::pair<Pin, LruOutcome> get_or_build(const K& key, Build&& build) {
    Shard& sh = shard_for(key);
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      if (Pin p = find(sh, key)) return {std::move(p), LruOutcome::Hit};
    }
    auto node = std::make_shared<Node>(Node{key, build()});
    std::lock_guard<std::mutex> lk(sh.mu);
    if (Pin p = find(sh, key)) return {std::move(p), LruOutcome::Race};
    node->generation = generation_.load();
    Pin pin(node, &node->value);
    insert(sh, std::move(node));
    return {std::move(pin), LruOutcome::Miss};
  }

  void set_generation(std::uint64_t g) { generation_.store(g); }
  [[nodiscard]] std::uint64_t generation() const { return generation_.load(); }

  /// Drop the entries stamped below `g`, and forget evicted ones stamped
  /// below it; returns how many resident entries were dropped.
  std::size_t retire_before(std::uint64_t g) {
    std::size_t n = 0;
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      std::erase_if(s->evicted_pinned, [g](const auto& e) {
        const NodePtr node = e.second.lock();
        return !node || node->generation < g;
      });
      for (auto it = s->lru.begin(); it != s->lru.end();) {
        if ((*it)->generation < g) {
          it = erase(*s, it);
          ++n;
        } else {
          ++it;
        }
      }
    }
    return n;
  }

  /// Drop every entry, forget the evicted ones and reset the eviction and
  /// revival tallies.
  void clear() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      s->index.clear();
      s->lru.clear();
      s->evicted_pinned.clear();
      s->bytes = 0;
    }
    evicted_.store(0);
    revived_.store(0);
  }

  [[nodiscard]] std::size_t evicted() const { return evicted_.load(); }
  [[nodiscard]] std::size_t revived() const { return revived_.load(); }
  [[nodiscard]] std::size_t size() const {
    return sum([](const Shard& s) { return s.lru.size(); });
  }
  [[nodiscard]] std::size_t bytes() const {
    return sum([](const Shard& s) { return s.bytes; });
  }

  /// Calls `f(key, value)` for every resident entry, under its shard's lock.
  template <class F>
  void for_each(F&& f) const {
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      for (const auto& n : s->lru) f(n->key, n->value);
    }
  }

 private:
  struct Node {
    K key;
    V value;
    std::size_t bytes = Weigh{}(value);
    std::uint64_t generation = 0;  // guarded by the shard mutex
  };
  using NodePtr = std::shared_ptr<Node>;
  using Lru = std::list<NodePtr>;  // front = most recently used

  struct Shard {
    mutable std::mutex mu;
    Lru lru;
    std::unordered_map<K, typename Lru::iterator, Hash> index;
    std::size_t bytes = 0;
    // Evicted entries a pin may still hold, by key hash. Keeping only the
    // hash keeps a dead entry from holding its key; expired references are
    // swept once the map passes sweep_at.
    std::unordered_multimap<std::size_t, std::weak_ptr<Node>> evicted_pinned;
    std::size_t sweep_at = 64;
  };

  Shard& shard_for(const K& key) {
    return *shards_[Hash{}(key) & (cfg_.shards - 1)];
  }

  template <class F>
  std::size_t sum(F&& f) const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      n += f(*s);
    }
    return n;
  }

  // find(), touch(), revive(), insert(), evict() and erase() run under sh.mu.
  Pin find(Shard& sh, const K& key) {
    if (Pin p = touch(sh, key)) return p;
    return revive(sh, key);
  }

  Pin touch(Shard& sh, const K& key) {
    const auto it = sh.index.find(key);
    if (it == sh.index.end()) return nullptr;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    (*it->second)->generation = generation_.load();
    return Pin(*it->second, &(*it->second)->value);
  }

  Pin revive(Shard& sh, const K& key) {
    const auto [first, last] = sh.evicted_pinned.equal_range(Hash{}(key));
    for (auto it = first; it != last; ++it) {
      NodePtr node = it->second.lock();
      if (!node || !(node->key == key)) continue;
      sh.evicted_pinned.erase(it);
      node->generation = generation_.load();
      Pin pin(node, &node->value);
      insert(sh, std::move(node));
      revived_.fetch_add(1);
      revived_count_.add(1);
      return pin;
    }
    return nullptr;
  }

  // The new entry goes to the warm end, so the eviction loop reaches it only
  // when it is the shard's sole entry.
  void insert(Shard& sh, NodePtr node) {
    sh.bytes += node->bytes;
    sh.lru.push_front(std::move(node));
    sh.index.emplace(sh.lru.front()->key, sh.lru.begin());
    const auto slice = [&](std::size_t cap) {
      return cap ? std::max<std::size_t>(1, cap / cfg_.shards) : 0;
    };
    const std::size_t cap_entries = slice(cfg_.max_entries);
    const std::size_t cap_bytes = slice(cfg_.max_bytes);
    while (sh.lru.size() > 1 &&
           ((cap_entries && sh.lru.size() > cap_entries) ||
            (cap_bytes && sh.bytes > cap_bytes)))
      evict(sh);
  }

  // Drops the coldest entry, remembering it while a pin (any reference
  // beyond the list's own) still holds it.
  void evict(Shard& sh) {
    const auto it = std::prev(sh.lru.end());
    if (it->use_count() > 1) {
      sh.evicted_pinned.emplace(Hash{}((*it)->key), *it);
      if (sh.evicted_pinned.size() > sh.sweep_at) {
        std::erase_if(sh.evicted_pinned,
                      [](const auto& e) { return e.second.expired(); });
        sh.sweep_at = 2 * (sh.evicted_pinned.size() + sh.lru.size()) + 64;
      }
    }
    erase(sh, it);
    evicted_.fetch_add(1);
    evicted_count_.add(1);
  }

  typename Lru::iterator erase(Shard& sh, typename Lru::iterator it) {
    sh.bytes -= (*it)->bytes;
    sh.index.erase((*it)->key);
    return sh.lru.erase(it);
  }

  trace::Counter& evicted_count_;
  trace::Counter& revived_count_;
  ShardedLruConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> evicted_{0};
  std::atomic<std::size_t> revived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace mxn::rt
