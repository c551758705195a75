// Multi-tenant serving fabric (docs/PERFORMANCE.md "Multi-tenant serving").
//
// Three questions, answered in one run and gated deterministically where
// possible (counted, not timed — CI cores are oversubscribed):
//
//  1. Does the fabric sustain 10 000 concurrent M×N connections in one
//     Universe with the schedule cache held under a byte budget? 512
//     distinct template pairs cycle across 10 000 persistent connections
//     (every connection pins its schedule via get_shared), the cache is
//     budgeted far below the working set, and the steady state drives
//     every tenant through Fabric::drain_tick. Reported: per-tenant-tick
//     p50/p99 latency, aggregate transfer throughput, revivals of evicted
//     but pinned schedules, and the max-RSS growth of the establish phase
//     per tenant; gated: tenant count, evictions > 0, resident cache bytes
//     <= budget, and one build per template pair (misses <= fields: a
//     connection whose schedule was evicted revives the pinned one).
//
//  2. Is the bounded footprint/ownership cache exact under budget? The
//     same 512 descriptors are swept through footprint_cached under an
//     entry cap; gated: evictions > 0, entries <= cap.
//
//  3. Does PRMI call batching pay? 64 client proxies (tenants) to one
//     provider issue 16 small independent calls each, plain
//     (call_independent, one round trip per call) vs queued + one
//     Fabric::drain_tick (one wire message per tenant). Gated:
//     batched throughput >= 2x unbatched.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fabric/fabric.hpp"
#include "linear/linearization.hpp"
#include "rt/runtime.hpp"
#include "sidl/parser.hpp"
#include "trace/trace.hpp"

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace fabric = mxn::fabric;
namespace lin = mxn::linear;
namespace prmi = mxn::prmi;
namespace rt = mxn::rt;
namespace sched = mxn::sched;
namespace trace = mxn::trace;
using dad::AxisDist;
using dad::Point;
using prmi::Value;

namespace {

/// The process's peak resident set so far, in KiB.
long max_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// prefix + decimal i. Appending avoids GCC 12's false -Wrestrict on
/// `"literal" + std::string&&`.
std::string numbered(const char* prefix, int i) {
  return std::string(prefix).append(std::to_string(i));
}

// --- Part 1: 10k M×N connection tenants ------------------------------------

constexpr int kSrcRanks = 2;
constexpr int kDstRanks = 2;
constexpr int kConns = 10000;
constexpr int kFields = 512;  // distinct (src, dst) template pairs
constexpr dad::Index kElems = 1024;
constexpr int kTicks = 3;
constexpr std::size_t kCacheEntries = 64;        // far below kFields
constexpr std::size_t kCacheBytes = 96 * 1024;   // byte budget

double value_at(const Point& p) { return 3.0 * p[0] + 0.25; }

/// 512 distinct source templates over the SAME 1024-element extent:
/// varying the block-cyclic block size varies the structural hash, so
/// every field pair is a distinct schedule-cache key family.
dad::DescriptorPtr src_desc(int i) {
  return dad::make_regular(std::vector<AxisDist>{
      AxisDist::block_cyclic(kElems, kSrcRanks, 8 + i)});
}
dad::DescriptorPtr dst_desc() {
  return dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(kElems, kDstRanks)});
}

struct Part1 {
  std::size_t evictions = 0, bytes = 0, hits = 0, misses = 0, revived = 0;
  double establish_s = 0, steady_s = 0, rss_kib_per_connection = 0;
  double p50_us = 0, p99_us = 0, throughput = 0;
};

Part1 run_part1() {
  Part1 out;
  rt::spawn(kSrcRanks + kDstRanks, [&](rt::Communicator& world) {
    std::shared_ptr<core::MxNComponent> mxn =
        core::make_paired_mxn(world, kSrcRanks, kDstRanks);
    const int side = world.rank() < kSrcRanks ? 0 : 1;
    auto cohort = world.split(side, world.rank());

    mxn->configure_schedule_cache(
        {.shards = 8, .max_entries = kCacheEntries, .max_bytes = kCacheBytes});

    std::vector<std::unique_ptr<dad::DistArray<double>>> arrs;
    auto dst = dst_desc();
    for (int i = 0; i < kFields; ++i) {
      arrs.push_back(std::make_unique<dad::DistArray<double>>(
          side == 0 ? src_desc(i) : dst, cohort.rank()));
      if (side == 0) arrs.back()->fill(value_at);
      mxn->register_field(core::make_field(
          numbered("f", i), arrs.back().get(),
          side == 0 ? core::AccessMode::Read : core::AccessMode::Write));
    }

    fabric::Fabric fab;
    world.barrier();
    const long rss0 = max_rss_kib();
    const double t0 = bench::now_s();
    for (int c = 0; c < kConns; ++c) {
      core::ConnectionSpec spec;
      spec.src_field = spec.dst_field = numbered("f", c % kFields);
      spec.src_side = 0;
      spec.one_shot = false;
      fab.add_connection(numbered("t", c), mxn, mxn->establish(spec));
    }
    const double establish_s = bench::now_s() - t0;
    world.barrier();
    const long rss1 = max_rss_kib();  // every rank has established

    // Steady state: every tenant transfers once per drain tick. Rank 0
    // samples the per-tenant-tick latency (all ranks advance tenants in
    // lockstep registration order, so its clock sees the collective cost).
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(kConns) * kTicks);
    const double s0 = bench::now_s();
    for (int it = 0; it < kTicks; ++it) {
      for (int c = 0; c < kConns; ++c) {
        const double u0 = bench::now_s();
        fab.tick(c);
        if (world.rank() == 0) samples.push_back(bench::now_s() - u0);
      }
    }
    const double steady_s = bench::now_s() - s0;

    if (world.rank() == 0) {
      std::sort(samples.begin(), samples.end());
      const auto st = mxn->schedule_cache_stats();
      out.evictions = st.evicted;
      out.bytes = st.bytes;
      out.hits = st.hits;
      out.misses = st.misses;
      out.revived = st.revived;
      out.rss_kib_per_connection =
          static_cast<double>(rss1 - rss0) / kConns;
      out.establish_s = establish_s;
      out.steady_s = steady_s;
      out.p50_us = samples[samples.size() / 2] * 1e6;
      out.p99_us = samples[samples.size() * 99 / 100] * 1e6;
      out.throughput =
          static_cast<double>(kConns) * kTicks / steady_s;
    }
  });
  return out;
}

// --- Part 2: bounded footprint cache ----------------------------------------

struct Part2 {
  std::size_t evictions = 0, entries = 0, hits = 0, misses = 0, bytes = 0;
};

Part2 run_part2() {
  constexpr std::size_t kFpEntries = 256;
  lin::footprint_cache_clear();
  lin::footprint_cache_configure(
      {.shards = 4, .max_entries = kFpEntries, .max_bytes = 0});
  const auto l = lin::Linearization::row_major(
      1, Point{kElems, 0, 0, 0});
  // Two sweeps: the second would be all hits if the working set fit; under
  // the cap it mixes hits (recent keys) with rebuild misses (evicted ones).
  for (int pass = 0; pass < 2; ++pass)
    for (int i = 0; i < kFields; ++i)
      for (int r = 0; r < kSrcRanks; ++r)
        (void)lin::footprint_cached(*src_desc(i), r, l);
  Part2 out;
  const auto s = lin::footprint_cache_stats();
  out.evictions = s.evictions;
  out.entries = s.entries;
  out.hits = s.hits;
  out.misses = s.misses;
  out.bytes = s.bytes;
  lin::footprint_cache_configure({});
  lin::footprint_cache_clear();
  return out;
}

// --- Part 3: PRMI batching at 64 tenants ------------------------------------

constexpr int kTenants = 64;
constexpr int kCallsPerTenant = 16;
constexpr int kReps = 5;

const char* kSidl = R"(
  package fab {
    interface Engine {
      independent int ping(in int token);
    }
  }
)";

struct Part3 {
  double unbatched_s = 0, batched_s = 0, speedup = 0;
  std::uint64_t batches = 0, batched_calls = 0;
};

Part3 run_part3() {
  Part3 out;
  const auto b0 = trace::counter("prmi.batches").value();
  const auto bc0 = trace::counter("prmi.batched_calls").value();
  rt::spawn(2, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    auto pkg = mxn::sidl::parse_package(kSidl);
    if (fw.member_of("server")) {
      auto servant = std::make_shared<prmi::Servant>(pkg.interface("Engine"));
      servant->bind("ping",
                    [](prmi::CalleeContext&, std::vector<Value>& args)
                        -> Value {
                      return std::int32_t(std::get<std::int32_t>(args[0]) + 1);
                    });
      fw.add_provides("server", "engine", servant);
    } else {
      for (int t = 0; t < kTenants; ++t)
        fw.register_uses("client", numbered("u", t),
                         pkg.interface("Engine"));
    }
    for (int t = 0; t < kTenants; ++t)
      fw.connect("client", numbered("u", t), "server", "engine");

    if (fw.member_of("server")) {
      try {
        fw.serve("server", -1);
      } catch (const rt::TimeoutError&) {
      }
      return;
    }

    fabric::Fabric fab;
    std::vector<std::shared_ptr<prmi::RemotePort>> ports;
    for (int t = 0; t < kTenants; ++t) {
      ports.push_back(fw.get_port("client", numbered("u", t)));
      fab.add_prmi_client(numbered("rpc", t), ports.back());
    }

    double best_plain = 1e30, best_batched = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
      // Plain: one round trip per call.
      double t0 = bench::now_s();
      for (auto& p : ports)
        for (int i = 0; i < kCallsPerTenant; ++i)
          (void)p->call_independent("ping", {std::int32_t(i)}, 0);
      best_plain = std::min(best_plain, bench::now_s() - t0);

      // Batched: queue everything, then ONE drain tick — one wire message
      // (and one reply) per tenant for all 16 calls.
      t0 = bench::now_s();
      for (auto& p : ports)
        for (int i = 0; i < kCallsPerTenant; ++i)
          p->queue_independent("ping", {std::int32_t(i)}, 0);
      fab.drain_tick();
      best_batched = std::min(best_batched, bench::now_s() - t0);
    }
    out.unbatched_s = best_plain;
    out.batched_s = best_batched;
    out.speedup = best_plain / best_batched;
    ports[0]->shutdown_provider();
  });
  out.batches = trace::counter("prmi.batches").value() - b0;
  out.batched_calls = trace::counter("prmi.batched_calls").value() - bc0;
  return out;
}

}  // namespace

int main() {
  std::printf("Multi-tenant fabric: %d connections over %d template pairs, "
              "schedule cache budget %zu entries / %zu KiB\n\n",
              kConns, kFields, kCacheEntries, kCacheBytes / 1024);

  const Part1 p1 = run_part1();
  bench::Table t1({"tenants", "establish_s", "steady_s", "p50_us", "p99_us",
                   "xfers/s", "evictions", "misses", "revived", "cache_KiB",
                   "rss_KiB/conn"});
  t1.row({std::to_string(kConns), bench::fmt("%.2f", p1.establish_s),
          bench::fmt("%.2f", p1.steady_s), bench::fmt("%.1f", p1.p50_us),
          bench::fmt("%.1f", p1.p99_us), bench::fmt("%.0f", p1.throughput),
          std::to_string(p1.evictions), std::to_string(p1.misses),
          std::to_string(p1.revived),
          bench::fmt("%.1f", double(p1.bytes) / 1024),
          bench::fmt("%.2f", p1.rss_kib_per_connection)});
  t1.print();

  const Part2 p2 = run_part2();
  std::printf("\nFootprint cache under a %d-entry cap (1024 keys swept "
              "twice):\n", 256);
  bench::Table t2({"hits", "misses", "evictions", "entries", "KiB"});
  t2.row({std::to_string(p2.hits), std::to_string(p2.misses),
          std::to_string(p2.evictions), std::to_string(p2.entries),
          bench::fmt("%.1f", double(p2.bytes) / 1024)});
  t2.print();

  const Part3 p3 = run_part3();
  std::printf("\nPRMI batching, %d tenants x %d calls (best of %d):\n",
              kTenants, kCallsPerTenant, kReps);
  bench::Table t3({"unbatched_ms", "batched_ms", "speedup", "batches",
                   "batched_calls"});
  t3.row({bench::fmt("%.2f", p3.unbatched_s * 1e3),
          bench::fmt("%.2f", p3.batched_s * 1e3),
          bench::fmt("%.2f", p3.speedup), std::to_string(p3.batches),
          std::to_string(p3.batched_calls)});
  t3.print();

  std::FILE* f = std::fopen("BENCH_multitenant.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_multitenant.json\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"multitenant\",\n"
      "  \"connections\": {\"tenants\": %d, \"fields\": %d, \"ticks\": %d,\n"
      "    \"cache_budget_entries\": %zu, \"cache_budget_bytes\": %zu,\n"
      "    \"cache_bytes\": %zu, \"cache_evictions\": %zu,\n"
      "    \"cache_hits\": %zu, \"cache_misses\": %zu, "
      "\"cache_revived\": %zu,\n"
      "    \"rss_kib_per_connection\": %.3f,\n"
      "    \"establish_s\": %.3f, \"steady_s\": %.3f,\n"
      "    \"p50_us\": %.2f, \"p99_us\": %.2f,\n"
      "    \"throughput_transfers_per_s\": %.1f},\n",
      kConns, kFields, kTicks, kCacheEntries, kCacheBytes, p1.bytes,
      p1.evictions, p1.hits, p1.misses, p1.revived,
      p1.rss_kib_per_connection, p1.establish_s, p1.steady_s,
      p1.p50_us, p1.p99_us, p1.throughput);
  std::fprintf(
      f,
      "  \"footprint_cache\": {\"cap_entries\": 256, \"hits\": %zu, "
      "\"misses\": %zu, \"evictions\": %zu, \"entries\": %zu, "
      "\"bytes\": %zu},\n",
      p2.hits, p2.misses, p2.evictions, p2.entries, p2.bytes);
  std::fprintf(
      f,
      "  \"batching\": {\"tenants\": %d, \"calls_per_tenant\": %d,\n"
      "    \"unbatched_s\": %.5f, \"batched_s\": %.5f, \"speedup\": %.3f,\n"
      "    \"batches\": %llu, \"batched_calls\": %llu}\n}\n",
      kTenants, kCallsPerTenant, p3.unbatched_s, p3.batched_s, p3.speedup,
      static_cast<unsigned long long>(p3.batches),
      static_cast<unsigned long long>(p3.batched_calls));
  std::fclose(f);
  std::printf("\nWrote BENCH_multitenant.json\n");
  return 0;
}
