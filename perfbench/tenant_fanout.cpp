// tenant_fanout: thousands of small persistent M×N connections over a few
// hundred distinct template pairs, multiplexed by the same 2+2 rank threads
// and ticked round-robin through one fabric::Fabric per rank. The schedule
// cache is budgeted below the template working set, so set-up evicts.
// Per-message overhead (mailbox, data_ready dispatch, fabric) and set-up
// schedule builds dominate; the copy kernels do little.

#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "core/mxn_component.hpp"
#include "fabric/fabric.hpp"
#include "harness.hpp"
#include "rt/runtime.hpp"

namespace perfbench {

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace fabric = mxn::fabric;
using dad::AxisDist;
using dad::Point;

namespace {

constexpr int kSrc = 2;
constexpr int kDst = 2;
constexpr int kConns = 4096;
constexpr int kTemplates = 256;  // distinct (source, destination) template pairs
constexpr dad::Index kElems = 512;
constexpr mxn::sched::ScheduleCacheConfig kCache{
    .shards = 8, .max_entries = 64, .max_bytes = 96 * 1024};
constexpr int kTimingRank = kSrc;  // first destination rank

/// Template t's source: block-cyclic with block 2 + t, so every template
/// pair is a distinct schedule-cache key over the same extent.
dad::DescriptorPtr src_desc(int t) {
  return dad::make_regular(
      std::vector<AxisDist>{AxisDist::block_cyclic(kElems, kSrc, 2 + t)});
}

/// Value of element p of template t in fill generation `version`.
double value_at(int t, long version, const Point& p, double offset) {
  return offset + 1000.0 * t + 4.0 * static_cast<double>(p[0]) +
         0.5 * static_cast<double>(version);
}

struct Arrays {
  dad::DescriptorPtr dd;
  // [rank within side][template]
  std::vector<std::vector<std::unique_ptr<dad::DistArray<double>>>> src, dst;
};

struct RankState {
  std::shared_ptr<core::MxNComponent> comp;
  std::unique_ptr<fabric::Fabric> fab;
  int side = 0;
  int idx = 0;
};

RankState setup_rank(rt::Communicator& world, Arrays& a,
                     const std::vector<int>& tmpl, double* establish_us) {
  RankState s;
  s.comp = core::make_paired_mxn(world, kSrc, kDst);
  s.side = world.rank() < kSrc ? 0 : 1;
  s.idx = s.side == 0 ? world.rank() : world.rank() - kSrc;
  s.comp->configure_schedule_cache(kCache);
  auto& mine = s.side == 0 ? a.src[s.idx] : a.dst[s.idx];
  for (int t = 0; t < kTemplates; ++t)
    s.comp->register_field(core::make_field(
        "f" + std::to_string(t), mine[t].get(),
        s.side == 0 ? core::AccessMode::Read : core::AccessMode::Write));
  s.fab = std::make_unique<fabric::Fabric>();
  const double t0 = now_s();
  for (int c = 0; c < kConns; ++c) {
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f" + std::to_string(tmpl[c]);
    spec.src_side = 0;
    spec.one_shot = false;
    s.fab->add_connection("t" + std::to_string(c), s.comp,
                          s.comp->establish(spec));
  }
  *establish_us = (now_s() - t0) * 1e6 / kConns;
  return s;
}

}  // namespace

void run_tenant_fanout(const Options& o, Result& r) {
  Rng rng(o.seed);
  const double offset = static_cast<double>(rng.range(1, 1000));
  // Connection c couples template tmpl[c]; ticks visit connections in the
  // seeded order `order`, the same on every rank.
  std::vector<int> tmpl(kConns), order(kConns);
  for (int c = 0; c < kConns; ++c) tmpl[c] = c % kTemplates;
  std::iota(order.begin(), order.end(), 0);
  for (int i = kConns - 1; i > 0; --i)
    std::swap(order[i], order[rng.range(0, i)]);
  // One block is a sweep over every tenant; a fixed-op run ticks the first
  // o.ops tenants of the order instead.
  const int block = o.ops > 0 ? static_cast<int>(std::min<long>(o.ops, kConns))
                              : kConns;

  Arrays a;
  a.dd = dad::make_regular(std::vector<AxisDist>{AxisDist::block(kElems, kDst)});
  a.src.resize(kSrc);
  a.dst.resize(kDst);
  for (int t = 0; t < kTemplates; ++t) {
    const auto sd = src_desc(t);
    for (int s = 0; s < kSrc; ++s)
      a.src[s].push_back(std::make_unique<dad::DistArray<double>>(sd, s));
    for (int d = 0; d < kDst; ++d)
      a.dst[d].push_back(std::make_unique<dad::DistArray<double>>(a.dd, d));
  }
  auto refill = [&](int s, long version) {
    for (int t = 0; t < kTemplates; ++t)
      a.src[s][t]->fill(
          [&](const Point& p) { return value_at(t, version, p, offset); });
  };
  for (int s = 0; s < kSrc; ++s) refill(s, 0);

  r.env["ranks"] = "2+2";
  r.env["field"] = std::to_string(kConns) + " connections over " +
                   std::to_string(kTemplates) + " template pairs of " +
                   std::to_string(kElems) + " doubles; schedule cache " +
                   std::to_string(kCache.max_entries) + " entries / " +
                   std::to_string(kCache.max_bytes / 1024) + " KiB";
  r.env["field_bytes"] = std::to_string(kElems * sizeof(double));

  Samples lat, send_lat, rates;
  double setup_s = 0, establish_us = 0;
  std::mutex mu;
  mxn::sched::ScheduleCache::Stats cache{};
  double advanced = 0, ticks_seen = 0;
  long timed = 0, blocks = 0;
  const Snapshot s0 = Snapshot::take();
  Snapshot s1;

  const double t_spawn = now_s();
  rt::spawn(kSrc + kDst, [&](rt::Communicator& world) {
    RingGuard ring(world.rank());
    double est = 0;
    RankState st = setup_rank(world, a, tmpl, &est);
    world.barrier();
    if (world.rank() == 0) {
      setup_s = now_s() - t_spawn;
      establish_us = est;
    }
    if (o.setup_only) return;
    // Warm-up: one untimed sweep over every tenant (fill generation 0).
    for (int c : order) st.fab->tick(c);
    world.barrier();
    if (world.rank() == 0) {
      s1 = Snapshot::take();
      start_timed_phase(o);
    }
    world.barrier();

    Samples local, block_rate;  // block_rate: ticks per second of each sweep
    const double t0 = now_s();
    StopClock clock(o, t0);
    long n = 0, version = 0;
    while (clock.keep_going(world, n, kTimingRank)) {
      const double b0 = now_s();
      ++version;
      if (st.side == 0) refill(st.idx, version);
      world.barrier();
      for (int i = 0; i < block; ++i) {
        const double u0 = now_s();
        st.fab->tick(order[i]);
        if (world.rank() == 0 || world.rank() == kTimingRank)
          local.add((now_s() - u0) * 1e6);
      }
      n += block;
      // Closed loop: sources never run more than one sweep ahead.
      world.barrier();
      block_rate.add(block / (now_s() - b0));
    }
    const auto cs = st.comp->schedule_cache_stats();
    std::lock_guard lock(mu);
    cache.hits += cs.hits;
    cache.misses += cs.misses;
    cache.evicted += cs.evicted;
    cache.bytes += cs.bytes;
    if (world.rank() == kTimingRank) {
      rates = std::move(block_rate);
      timed = n;
      blocks = version;
      lat = std::move(local);
      for (std::size_t id = 0; id < st.fab->tenants(); ++id) {
        advanced += static_cast<double>(st.fab->stats(static_cast<int>(id)).advanced);
        ticks_seen += static_cast<double>(st.fab->stats(static_cast<int>(id)).ticks);
      }
    } else if (world.rank() == 0) {
      send_lat = std::move(local);
    }
  });
  const Snapshot s2 = Snapshot::take();
  r.set_spawn_totals(s0, s2, kConns + timed);
  r.e2e["setup_s"] = setup_s;
  r.layers["core.establish_us"] = establish_us;
  if (o.setup_only) return;

  // End state: a template ticked in the last block holds that block's fill
  // generation; one never ticked by a timed block still holds the warm-up's.
  std::vector<char> covered(kTemplates, 0);
  for (int i = 0; i < block; ++i) covered[tmpl[order[i]]] = 1;
  long wrong = 0;
  for (int d = 0; d < kDst; ++d)
    for (int t = 0; t < kTemplates; ++t) {
      const long version = covered[t] ? blocks : 0;
      a.dst[d][t]->for_each_owned([&](const Point& p, const double& v) {
        if (v != value_at(t, version, p, offset)) ++wrong;
      });
    }
  if (wrong != 0)
    r.fail("tenant_fanout: " + std::to_string(wrong) +
           " destination elements differ from their source");

  const Snapshot run = s2.minus(s1);
  require_no_faults(run, r);
  const double payload = static_cast<double>(timed) * kElems * sizeof(double);
  r.attempted = timed;
  r.failed = wrong != 0 ? timed : 0;
  r.ops = timed;
  r.timing_rank = kTimingRank;
  r.e2e["op_p50_us"] = lat.median();
  r.e2e["op_p99_us"] = lat.pct(0.99);
  r.e2e["op_samples"] = static_cast<double>(lat.size());
  r.e2e["ops_per_s"] = rates.median();
  r.e2e["payload_mb_s"] = rates.median() * kElems * sizeof(double) / 1e6;
  r.e2e["failed_frac"] = ratio(static_cast<double>(r.failed), static_cast<double>(timed));

  add_counter_layers(s1.minus(s0), run, static_cast<double>(timed), payload, r);
  auto& L = r.layers;
  L["fabric.tick_send_us"] = send_lat.median();
  L["fabric.advanced_ratio"] = ratio(advanced, ticks_seen);
  L["sched.cache_hit_ratio"] =
      ratio(static_cast<double>(cache.hits), static_cast<double>(cache.hits + cache.misses));
  L["sched.cache_evictions"] = static_cast<double>(cache.evicted);
  L["sched.cache_kib"] = static_cast<double>(cache.bytes) / 1024.0;
  r.exact["sched.cache_evictions"] = L["sched.cache_evictions"];
}

}  // namespace perfbench
