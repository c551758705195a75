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
/// slice (max_entries / shards, max_bytes / shards), bumping the trace
/// counter named at construction, but it never evicts the entry it just
/// added. Entries are stamped with generation() on insert and on every hit.
template <class K, class V, class Hash, class Weigh>
class ShardedLru {
 public:
  using Pin = std::shared_ptr<const V>;

  explicit ShardedLru(const char* evicted_counter,
                      const ShardedLruConfig& cfg = {})
      : evicted_count_(trace::counter(evicted_counter)) {
    configure(cfg);
  }

  /// Re-shard and re-budget, reinserting the resident entries oldest first
  /// with their stamps. Not safe against concurrent lookups.
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
      if (Pin p = touch(sh, key)) return {std::move(p), LruOutcome::Hit};
    }
    auto node = std::make_shared<Node>(Node{key, build()});
    std::lock_guard<std::mutex> lk(sh.mu);
    if (Pin p = touch(sh, key)) return {std::move(p), LruOutcome::Race};
    node->generation = generation_.load();
    Pin pin(node, &node->value);
    insert(sh, std::move(node));
    return {std::move(pin), LruOutcome::Miss};
  }

  void set_generation(std::uint64_t g) { generation_.store(g); }
  [[nodiscard]] std::uint64_t generation() const { return generation_.load(); }

  /// Drop the entries stamped below `g`; returns how many.
  std::size_t retire_before(std::uint64_t g) {
    std::size_t n = 0;
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
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

  /// Drop every entry and reset the eviction tally.
  void clear() {
    for (auto& s : shards_) {
      std::lock_guard<std::mutex> lk(s->mu);
      s->index.clear();
      s->lru.clear();
      s->bytes = 0;
    }
    evicted_.store(0);
  }

  [[nodiscard]] std::size_t evicted() const { return evicted_.load(); }
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

  // touch(), insert() and erase() run under sh.mu.
  Pin touch(Shard& sh, const K& key) {
    const auto it = sh.index.find(key);
    if (it == sh.index.end()) return nullptr;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    (*it->second)->generation = generation_.load();
    return Pin(*it->second, &(*it->second)->value);
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
            (cap_bytes && sh.bytes > cap_bytes))) {
      erase(sh, std::prev(sh.lru.end()));
      evicted_.fetch_add(1);
      evicted_count_.add(1);
    }
  }

  typename Lru::iterator erase(Shard& sh, typename Lru::iterator it) {
    sh.bytes -= (*it)->bytes;
    sh.index.erase((*it)->key);
    return sh.lru.erase(it);
  }

  trace::Counter& evicted_count_;
  ShardedLruConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> evicted_{0};
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace mxn::rt
