// Tests for the multi-tenant connection fabric (src/fabric): tenant
// registry and per-tenant counters, per-connection transmission-policy
// selection/override, PRMI call batching driven by the fabric's drain tick,
// and exactly-once batch delivery under injected message chaos.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/transmission_policy.hpp"
#include "fabric/fabric.hpp"
#include "rt/runtime.hpp"
#include "sidl/parser.hpp"
#include "trace/trace.hpp"

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace fabric = mxn::fabric;
namespace prmi = mxn::prmi;
namespace rt = mxn::rt;
namespace trace = mxn::trace;
using dad::AxisDist;
using dad::Point;
using prmi::Value;

namespace {

std::uint64_t ctr(const std::string& name) {
  return trace::counter(name).value();
}

std::vector<int> iota_ranks(int from, int count) {
  std::vector<int> r(count);
  for (int i = 0; i < count; ++i) r[i] = from + i;
  return r;
}

const char* kSidl = R"(
  package fab {
    interface Engine {
      independent int ping(in int token);
      independent int bump(in int amount);
      collective double sum(in double x);
    }
  }
)";

/// Client/server harness for the PRMI tenants: m callers + n callees, one
/// connection. `bumps` counts bump() executions per callee rank (the
/// exactly-once witness).
void run_prmi(
    int m, int n,
    const std::function<void(prmi::RemotePort&, rt::Communicator&)>& client,
    const std::function<void(int executed)>& check_server = nullptr,
    const rt::SpawnOptions& opts = {}) {
  rt::spawn(
      m + n,
      [&](rt::Communicator& world) {
        prmi::DistributedFramework fw(world);
        fw.instantiate("client", iota_ranks(0, m));
        fw.instantiate("server", iota_ranks(m, n));
        std::atomic<int> executed{0};
        if (fw.member_of("server")) {
          auto pkg = mxn::sidl::parse_package(kSidl);
          auto servant =
              std::make_shared<prmi::Servant>(pkg.interface("Engine"));
          servant->bind("ping", [](prmi::CalleeContext& ctx,
                                   std::vector<Value>& args) -> Value {
            EXPECT_FALSE(ctx.collective);
            return std::int32_t(std::get<std::int32_t>(args[0]) + 1);
          });
          servant->bind("bump", [&executed](prmi::CalleeContext&,
                                            std::vector<Value>& args) -> Value {
            return std::int32_t(
                executed.fetch_add(std::get<std::int32_t>(args[0])) +
                std::get<std::int32_t>(args[0]));
          });
          servant->bind("sum", [](prmi::CalleeContext& ctx,
                                  std::vector<Value>& args) -> Value {
            return ctx.cohort.allreduce(
                std::get<double>(args[0]) * (ctx.cohort.rank() + 1),
                [](double a, double b) { return a + b; });
          });
          fw.add_provides("server", "engine", servant);
        } else {
          auto pkg = mxn::sidl::parse_package(kSidl);
          fw.register_uses("client", "engine", pkg.interface("Engine"));
        }
        fw.connect("client", "engine", "server", "engine");
        if (fw.member_of("server")) {
          try {
            fw.serve("server", -1);
          } catch (const rt::TimeoutError&) {
          }
          if (check_server) check_server(executed.load());
        } else {
          auto port = fw.get_port("client", "engine");
          auto cohort = fw.cohort("client");
          client(*port, cohort);
          cohort.barrier();  // quiesce before the shutdown notice
          port->shutdown_provider();
        }
      },
      opts);
}

double value_at(const Point& p) { return 3.0 * p[0] + 0.5; }

}  // namespace

// ---------------------------------------------------------------------------
// Connection tenants
// ---------------------------------------------------------------------------

TEST(Fabric, ConnectionTenantsTickThroughRegistry) {
  const int m = 2, n = 2;
  auto src_desc =
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, m)});
  auto dst_desc =
      dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(12, n)});
  const auto tenants0 = ctr("fabric.tenants");
  rt::spawn(m + n, [&](rt::Communicator& world) {
    std::shared_ptr<core::MxNComponent> mxn =
        core::make_paired_mxn(world, m, n);
    const int side = world.rank() < m ? 0 : 1;
    auto cohort = world.split(side, world.rank());

    constexpr int kTenants = 3;
    std::vector<std::unique_ptr<dad::DistArray<double>>> arrs;
    fabric::Fabric fab;
    for (int t = 0; t < kTenants; ++t) {
      arrs.push_back(std::make_unique<dad::DistArray<double>>(
          side == 0 ? src_desc : dst_desc, cohort.rank()));
      if (side == 0) arrs.back()->fill(value_at);
      const std::string fname = "f" + std::to_string(t);
      mxn->register_field(core::make_field(
          fname, arrs.back().get(),
          side == 0 ? core::AccessMode::Read : core::AccessMode::Write));
      core::ConnectionSpec spec;
      spec.src_field = spec.dst_field = fname;
      spec.src_side = 0;
      spec.one_shot = false;
      auto id = mxn->establish(spec);
      EXPECT_EQ(fab.add_connection("tenant" + std::to_string(t), mxn, id),
                t);
    }
    EXPECT_EQ(fab.tenants(), static_cast<std::size_t>(kTenants));

    // Two drain ticks: every tenant transfers twice; non-participants of a
    // connection would simply not advance (here all ranks participate).
    EXPECT_EQ(fab.drain_tick(), static_cast<std::size_t>(kTenants));
    EXPECT_EQ(fab.drain_tick(), static_cast<std::size_t>(kTenants));
    for (int t = 0; t < kTenants; ++t) {
      EXPECT_EQ(fab.stats(t).ticks, 2u);
      EXPECT_EQ(fab.stats(t).advanced, 2u);
      EXPECT_EQ(fab.tenant_name(t), "tenant" + std::to_string(t));
      if (side == 1)
        arrs[t]->for_each_owned([&](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, value_at(p));
        });
    }
  });
  // Registration flowed into the process-wide gauge and per-tenant
  // counters (4 ranks × 3 tenants registered).
  EXPECT_EQ(ctr("fabric.tenants") - tenants0, 12u);
  EXPECT_GE(ctr("fabric.tenant.tenant0.ticks"), 2u);
  EXPECT_GE(ctr("fabric.tenant.tenant0.advanced"), 2u);
}

TEST(Fabric, SameTenantNameSumsOverRankFabricsAndOutlivesThem) {
  // Every rank's Fabric registers the same tenant names, so each name's
  // snapshot value is the sum over the ranks' fabrics, live and after they
  // are destroyed. A watcher thread snapshots the registry all along (the
  // TSan job checks registration and ticks against it).
  const int m = 2, n = 2;
  constexpr int kTenants = 3, kTicks = 4;
  auto src_desc =
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, m)});
  auto dst_desc =
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, n)});
  auto name_of = [](int t, const char* field) {
    return "fabric.tenant.summed" + std::to_string(t) + field;
  };
  auto value = [](const std::map<std::string, std::uint64_t>& snap,
                  const std::string& name) -> std::uint64_t {
    const auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second;
  };
  const auto before = trace::counters();
  std::map<std::string, std::uint64_t> during;
  std::atomic<bool> done{false};
  std::atomic<int> snapshots{0};
  std::thread watcher([&] {
    while (!done.load()) {
      (void)trace::counters();
      snapshots.fetch_add(1);
      std::this_thread::yield();
    }
  });
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto mxn = core::make_paired_mxn(world, m, n);
    const int side = world.rank() < m ? 0 : 1;
    auto cohort = world.split(side, world.rank());
    dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                               cohort.rank());
    if (side == 0) arr.fill(value_at);
    mxn->register_field(core::make_field(
        "f", &arr,
        side == 0 ? core::AccessMode::Read : core::AccessMode::Write));
    fabric::Fabric fab;
    for (int t = 0; t < kTenants; ++t) {
      core::ConnectionSpec spec;
      spec.src_field = spec.dst_field = "f";
      spec.src_side = 0;
      spec.one_shot = false;
      fab.add_connection("summed" + std::to_string(t), mxn,
                         mxn->establish(spec));
    }
    for (int k = 0; k < kTicks; ++k)
      EXPECT_EQ(fab.drain_tick(), static_cast<std::size_t>(kTenants));
    world.barrier();
    if (world.rank() == 0) during = trace::counters();
    world.barrier();
  });
  done = true;
  watcher.join();
  EXPECT_GT(snapshots.load(), 0);
  const auto after = trace::counters();
  const std::uint64_t expect = (m + n) * kTicks;
  for (int t = 0; t < kTenants; ++t)
    for (const char* field : {".ticks", ".advanced"}) {
      SCOPED_TRACE(name_of(t, field));
      const std::string name = name_of(t, field);
      EXPECT_EQ(value(during, name) - value(before, name), expect);
      EXPECT_EQ(value(after, name) - value(before, name), expect);
      EXPECT_EQ(ctr(name) - value(before, name), expect);
    }
}

TEST(Fabric, PolicySelectionFollowsSpecAndCanBeOverridden) {
  const int m = 2, n = 2;
  auto src_desc =
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(8, m)});
  auto dst_desc =
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(8, n)});
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto mxn = core::make_paired_mxn(world, m, n);
    const int side = world.rank() < m ? 0 : 1;
    auto cohort = world.split(side, world.rank());
    dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                               cohort.rank());
    if (side == 0) arr.fill(value_at);
    mxn->register_field(core::make_field(
        "f", &arr,
        side == 0 ? core::AccessMode::Read : core::AccessMode::Write));

    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 0;
    spec.one_shot = false;
    auto eager_id = mxn->establish(spec);
    spec.handshake = true;
    auto rendezvous_id = mxn->establish(spec);
    spec.handshake = false;
    spec.reliable = true;
    spec.timeout_ms = 2000;
    auto reliable_id = mxn->establish(spec);

    // The spec's wire-level flags select the policy on every rank.
    EXPECT_STREQ(mxn->policy_name(eager_id), "eager");
    EXPECT_STREQ(mxn->policy_name(rendezvous_id), "rendezvous");
    EXPECT_STREQ(mxn->policy_name(reliable_id), "reliable-two-phase");

    // All three actually move data under their policies.
    for (auto id : {eager_id, rendezvous_id, reliable_id})
      EXPECT_TRUE(mxn->data_ready_connection(id));
    if (side == 1)
      arr.for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, value_at(p));
      });

    // Per-connection override: swap the rendezvous tenant to eager (a
    // collective decision — every rank swaps, keeping both sides agreed).
    EXPECT_NO_THROW(mxn->set_policy(
        rendezvous_id, core::policy_from_spec(core::ConnectionSpec{})));
    EXPECT_STREQ(mxn->policy_name(rendezvous_id), "eager");
    EXPECT_TRUE(mxn->data_ready_connection(rendezvous_id));
  });
}

// ---------------------------------------------------------------------------
// PRMI batching
// ---------------------------------------------------------------------------

TEST(Fabric, BatchedCallsMatchPlainCallsAcrossTargets) {
  run_prmi(2, 2, [](prmi::RemotePort& port, rt::Communicator& cohort) {
    // Interleave queued pings across both callee ranks; results must come
    // back in queue order with the same values plain calls produce.
    constexpr int kCalls = 6;
    for (int i = 0; i < kCalls; ++i)
      EXPECT_EQ(port.queue_independent(
                    "ping", {std::int32_t(100 * cohort.rank() + i)}, i % 2),
                i);
    EXPECT_EQ(port.queued(), static_cast<std::size_t>(kCalls));

    // A plain call while the batch is open must be rejected: sequence
    // numbers must hit the wire in order.
    EXPECT_THROW(port.call_independent("ping", {std::int32_t(7)}, 0),
                 rt::UsageError);

    auto results = port.flush_batch();
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kCalls));
    EXPECT_EQ(port.queued(), 0u);
    for (int i = 0; i < kCalls; ++i)
      EXPECT_EQ(std::get<std::int32_t>(results[i].ret),
                100 * cohort.rank() + i + 1);

    // The proxy is back to normal: plain calls work after the flush, and
    // an empty flush is a no-op.
    auto r = port.call_independent("ping", {std::int32_t(41)}, 0);
    EXPECT_EQ(std::get<std::int32_t>(r.ret), 42);
    EXPECT_TRUE(port.flush_batch().empty());
  });
}

TEST(Fabric, BatchRejectsUnbatchableMethods) {
  run_prmi(1, 1, [](prmi::RemotePort& port, rt::Communicator&) {
    EXPECT_THROW(port.queue_independent("sum", {1.0}), rt::UsageError);
    EXPECT_THROW(port.queue_independent("ping", {}), rt::UsageError);
    // Nothing half-queued after the rejections.
    EXPECT_EQ(port.queued(), 0u);
    auto r = port.call_independent("ping", {std::int32_t(1)});
    EXPECT_EQ(std::get<std::int32_t>(r.ret), 2);
  });
}

TEST(Fabric, PrmiTenantsFlushOnDrainTick) {
  const auto batches0 = ctr("prmi.batches");
  run_prmi(2, 2, [](prmi::RemotePort& port, rt::Communicator& cohort) {
    // The fabric is the drain clock: queue between ticks, tick coalesces.
    fabric::Fabric fab;
    // Aliasing shared_ptr: the harness owns the port for the test's
    // lifetime; the fabric row only needs a handle.
    const auto id = fab.add_prmi_client(
        "rpc" + std::to_string(cohort.rank()),
        std::shared_ptr<prmi::RemotePort>(std::shared_ptr<void>{}, &port));

    EXPECT_FALSE(fab.tick(id));  // empty queue: no progress
    constexpr int kCalls = 5;
    for (int i = 0; i < kCalls; ++i)
      port.queue_independent("ping", {std::int32_t(i)}, cohort.rank() % 2);
    EXPECT_EQ(fab.drain_tick(), 1u);
    EXPECT_EQ(port.queued(), 0u);
    const auto& results = fab.last_results(id);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kCalls));
    for (int i = 0; i < kCalls; ++i)
      EXPECT_EQ(std::get<std::int32_t>(results[i].ret), i + 1);
    EXPECT_EQ(fab.stats(id).ticks, 2u);
    EXPECT_EQ(fab.stats(id).advanced, 1u);
    EXPECT_EQ(fab.stats(id).calls, static_cast<std::uint64_t>(kCalls));
  });
  // Each caller rank shipped ONE wire message for its 5 calls.
  EXPECT_GT(ctr("prmi.batches"), batches0);
  EXPECT_GE(ctr("prmi.batched_calls"), 10u);
}

TEST(Fabric, BatchExactlyOnceUnderChaos) {
  // 5% drop + 5% dup on every PRMI message across several seeds: batch
  // retransmissions must be absorbed by the provider's seq/dedup machinery
  // — every result correct, and the side-effecting bump() executed exactly
  // once per queued call (the server-side executed total is the witness).
  constexpr int kCalls = 8, kSeeds = 4;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_prmi(
        1, 1,
        [](prmi::RemotePort& port, rt::Communicator&) {
          port.set_retry_policy(prmi::RetryPolicy{
              .timeout_ms = 120, .max_retries = 6, .backoff_ms = 2});
          int expect_total = 0;
          for (int i = 1; i <= kCalls; ++i) {
            port.queue_independent("bump", {std::int32_t(i)}, 0);
            expect_total += i;
          }
          auto results = port.flush_batch();
          ASSERT_EQ(results.size(), static_cast<std::size_t>(kCalls));
          // bump returns the running total: correct values prove each call
          // executed once, in order.
          int running = 0;
          for (int i = 1; i <= kCalls; ++i) {
            running += i;
            EXPECT_EQ(std::get<std::int32_t>(results[i - 1].ret), running);
          }
        },
        [](int executed) {
          EXPECT_EQ(executed, kCalls * (kCalls + 1) / 2);
        },
        {.deadlock_timeout_ms = 8000,
         .default_recv_timeout_ms = 2500,
         .faults = rt::FaultPlan{.seed = static_cast<std::uint64_t>(seed),
                                 .drop = 0.05,
                                 .dup = 0.05,
                                 .min_tag = 1 << 20}});
  }
}


TEST(Fabric, InterleavedPlainAndBatchedCallsExactlyOnceUnderChaos) {
  // Plain and batched calls share one proxy, one sequence counter and one
  // reply stream. Under 5% drop + 5% dup on every PRMI message, each wait
  // must discard duplicated replies of the other kind (stale replies) and
  // the provider must answer duplicated headers of either kind from its
  // reply cache (dup requests) — every result correct, every bump()
  // executed exactly once, in order.
  constexpr int kRounds = 8, kBatch = 4, kSeeds = 6;
  constexpr int kTotal =
      kRounds * kBatch * (kBatch + 1) / 2 + kRounds * (kRounds + 1) / 2;
  const auto stale0 = ctr("prmi.stale_replies");
  const auto dups0 = ctr("prmi.dup_requests");
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_prmi(
        1, 1,
        [&](prmi::RemotePort& port, rt::Communicator&) {
          port.set_retry_policy(prmi::RetryPolicy{
              .timeout_ms = 120, .max_retries = 6, .backoff_ms = 2});
          // bump returns the running total, so each value proves every
          // earlier call executed once.
          int running = 0;
          for (int round = 1; round <= kRounds; ++round) {
            for (int i = 1; i <= kBatch; ++i)
              port.queue_independent("bump", {std::int32_t(i)}, 0);
            const auto results = port.flush_batch();
            ASSERT_EQ(results.size(), static_cast<std::size_t>(kBatch));
            for (int i = 1; i <= kBatch; ++i) {
              running += i;
              EXPECT_EQ(std::get<std::int32_t>(results[i - 1].ret), running);
            }
            const auto r =
                port.call_independent("bump", {std::int32_t(round)}, 0);
            running += round;
            EXPECT_EQ(std::get<std::int32_t>(r.ret), running);
          }
          EXPECT_EQ(running, kTotal);
        },
        [&](int executed) { EXPECT_EQ(executed, kTotal); },
        {.deadlock_timeout_ms = 8000,
         .default_recv_timeout_ms = 2500,
         .faults = rt::FaultPlan{.seed = static_cast<std::uint64_t>(seed),
                                 .drop = 0.05,
                                 .dup = 0.05,
                                 .min_tag = 1 << 20}});
  }
  EXPECT_GT(ctr("prmi.stale_replies"), stale0);
  EXPECT_GT(ctr("prmi.dup_requests"), dups0);
}