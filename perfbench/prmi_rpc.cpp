// prmi_rpc: a 2-rank caller cohort against a 2-rank callee cohort, in a
// closed loop of blocks. A block is a fixed number of small-argument
// collective calls (int in, int out, return replicated) followed by one
// fabric drain tick in which a fixed set of PRMI client tenants flushes a
// fixed count of queued independent calls. PRMI marshal/dispatch/dedup and
// the rt mailbox do the work; sched and dad do none.

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "harness.hpp"
#include "prmi/distributed_framework.hpp"
#include "rt/runtime.hpp"
#include "sidl/parser.hpp"

namespace perfbench {

namespace fabric = mxn::fabric;
namespace prmi = mxn::prmi;
using prmi::Value;

namespace {

constexpr int kCallers = 2;
constexpr int kCallees = 2;
constexpr int kBlock = 32;       // collective calls per block
constexpr int kWarm = 50;        // untimed collective calls
constexpr int kTenants = 16;     // PRMI client tenants per caller rank
constexpr int kQueued = 16;      // independent calls queued per tenant per tick
// Calls of one block: its collective calls and every caller's batched ones.
constexpr long kBlockCalls = kBlock + kCallers * kTenants * kQueued;

const char* kSidl = R"(
  package perfbench {
    interface Counter {
      collective int inc(in int x);
      independent int ping(in int token);
    }
  }
)";

struct Setup {
  std::unique_ptr<prmi::DistributedFramework> fw;
  std::shared_ptr<prmi::RemotePort> port;
  std::vector<std::shared_ptr<prmi::RemotePort>> tenants;
};

Setup setup_rank(rt::Communicator& world) {
  Setup s;
  s.fw = std::make_unique<prmi::DistributedFramework>(world);
  s.fw->instantiate("client", {0, 1});
  s.fw->instantiate("server", {2, 3});
  const auto pkg = mxn::sidl::parse_package(kSidl);
  if (s.fw->member_of("server")) {
    auto servant = std::make_shared<prmi::Servant>(pkg.interface("Counter"));
    auto plus_one = [](prmi::CalleeContext&, std::vector<Value>& args) -> Value {
      return std::int32_t(std::get<std::int32_t>(args[0]) + 1);
    };
    servant->bind("inc", plus_one);
    servant->bind("ping", plus_one);
    s.fw->add_provides("server", "counter", servant);
  } else {
    s.fw->register_uses("client", "rpc", pkg.interface("Counter"));
    for (int t = 0; t < kTenants; ++t)
      s.fw->register_uses("client", "t" + std::to_string(t),
                          pkg.interface("Counter"));
  }
  s.fw->connect("client", "rpc", "server", "counter");
  for (int t = 0; t < kTenants; ++t)
    s.fw->connect("client", "t" + std::to_string(t), "server", "counter");
  if (s.fw->member_of("client")) {
    s.port = s.fw->get_port("client", "rpc");
    for (int t = 0; t < kTenants; ++t)
      s.tenants.push_back(s.fw->get_port("client", "t" + std::to_string(t)));
  }
  return s;
}

}  // namespace

void run_prmi_rpc(const Options& o, Result& r) {
  const std::int32_t base = static_cast<std::int32_t>(Rng(o.seed).range(0, 1 << 20));
  r.env["ranks"] = "2 callers + 2 callees";
  r.env["field"] = std::to_string(kBlock) + " collective calls, then " +
                   std::to_string(kTenants) + " tenants x " +
                   std::to_string(kQueued) +
                   " queued calls per caller rank in one drain tick, per block";
  r.env["field_bytes"] = "0";

  Samples lat, rates;
  double setup_s = 0;
  long coll = 0, sub = 0, bad = 0;
  const Snapshot s0 = Snapshot::take();
  Snapshot s1;
  std::mutex mu;

  auto expect = [&](const Value& ret, std::int32_t x) {
    if (std::get<std::int32_t>(ret) != x + 1) {
      std::lock_guard lock(mu);
      ++bad;
    }
  };

  const double t_spawn = now_s();
  rt::spawn(kCallers + kCallees, [&](rt::Communicator& world) {
    RingGuard ring(world.rank());
    Setup s = setup_rank(world);
    if (s.fw->member_of("server")) {
      s.fw->serve("server", -1);
      return;
    }
    rt::Communicator cohort = s.fw->cohort("client");
    fabric::Fabric fab;
    for (int t = 0; t < kTenants; ++t)
      fab.add_prmi_client("rpc" + std::to_string(t), s.tenants[t]);
    cohort.barrier();
    if (cohort.rank() == 0) setup_s = now_s() - t_spawn;
    if (o.setup_only) {
      s.port->shutdown_provider();
      return;
    }

    for (int i = 0; i < kWarm; ++i) {
      const std::int32_t x = base - 1 - i;
      expect(s.port->call("inc", {x}).ret, x);
    }
    cohort.barrier();
    if (cohort.rank() == 0) {
      s1 = Snapshot::take();
      start_timed_phase(o);
    }
    cohort.barrier();

    Samples local, block_rate;  // block_rate: calls per second of each block
    StopClock clock(o, now_s());
    long n = 0, ticks = 0;
    while (clock.keep_going(cohort, n)) {
      const double b0 = now_s();
      for (int i = 0; i < kBlock; ++i) {
        const auto x = static_cast<std::int32_t>(base + n + i);
        const double u0 = now_s();
        auto res = s.port->call("inc", {x});
        if (cohort.rank() == 0) local.add((now_s() - u0) * 1e6);
        expect(res.ret, x);
      }
      n += kBlock;

      const auto tok = static_cast<std::int32_t>(base + ticks++ * kQueued);
      for (auto& p : s.tenants)
        for (int q = 0; q < kQueued; ++q) p->queue_independent("ping", {tok + q});
      fab.drain_tick();
      for (int t = 0; t < kTenants; ++t) {
        const auto& res = fab.last_results(t);
        if (res.size() != static_cast<std::size_t>(kQueued)) {
          std::lock_guard lock(mu);
          bad += kQueued;
          continue;
        }
        for (int q = 0; q < kQueued; ++q) expect(res[q].ret, tok + q);
      }
      if (cohort.rank() == 0) block_rate.add(kBlockCalls / (now_s() - b0));
    }
    cohort.barrier();
    s.port->shutdown_provider();
    if (cohort.rank() == 0) {
      lat = std::move(local);
      rates = std::move(block_rate);
      coll = n;
      sub = static_cast<long>(kCallers) * ticks * kTenants * kQueued;
    }
  });
  const Snapshot s2 = Snapshot::take();
  r.set_spawn_totals(s0, s2, kWarm + coll + sub);
  r.e2e["setup_s"] = setup_s;
  if (o.setup_only) return;

  const Snapshot run = s2.minus(s1);
  require_no_faults(run, r);
  if (bad != 0)
    r.fail("prmi_rpc: " + std::to_string(bad) + " calls returned a wrong value");
  const double ops = static_cast<double>(coll + sub);
  r.attempted = coll + sub;
  r.failed = bad;
  r.ops = coll;
  r.timing_rank = 0;
  r.e2e["op_p50_us"] = lat.median();
  r.e2e["op_p99_us"] = lat.pct(0.99);
  r.e2e["op_samples"] = static_cast<double>(lat.size());
  r.e2e["ops_per_s"] = rates.median();
  r.e2e["failed_frac"] = ratio(static_cast<double>(bad), ops);

  add_counter_layers(s1.minus(s0), run, ops, ops * 2 * sizeof(std::int32_t), r);
  r.exact["prmi.calls_per_batch"] = r.layers["prmi.calls_per_batch"];
}

}  // namespace perfbench
