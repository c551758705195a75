// Tests for parallel remote method invocation (src/prmi): the distributed
// framework, collective / independent / one-way invocation kinds, ghost
// invocations and return replication at M != N, parallel-argument
// redistribution in both directions, error propagation, and the optional
// simple-argument consistency check.

#include <gtest/gtest.h>

#include <atomic>

#include "prmi/distributed_framework.hpp"
#include "rt/runtime.hpp"
#include "sidl/parser.hpp"

namespace prmi = mxn::prmi;
namespace dad = mxn::dad;
namespace core = mxn::core;
namespace rt = mxn::rt;
using dad::AxisDist;
using dad::Point;
using prmi::Value;

namespace {

const char* kSidl = R"(
  package demo {
    interface Engine {
      collective double scale_sum(in double factor, in int count);
      collective void stats(in int x, out long doubled, inout double acc);
      collective oneway void note(in string tag);
      independent int ping(in int token);
      independent oneway void nudge(in int amount);
      collective void push(in parallel array<double,1> field);
      collective void pull(out parallel array<double,1> field);
      collective void boost(inout parallel array<double,1> field,
                            in double factor);
      collective void fail(in string reason);
    }
  }
)";

std::vector<int> iota_ranks(int from, int count) {
  std::vector<int> r(count);
  for (int i = 0; i < count; ++i) r[i] = from + i;
  return r;
}

struct ServerState {
  std::atomic<int> notes{0};
  std::atomic<int> nudges{0};
};

/// Build the demo servant used throughout. The parallel target array (per
/// cohort rank) backs push/pull/boost.
std::shared_ptr<prmi::Servant> make_engine_servant(
    rt::Communicator cohort, dad::DistArray<double>* target,
    ServerState* state) {
  auto pkg = mxn::sidl::parse_package(kSidl);
  auto servant = std::make_shared<prmi::Servant>(pkg.interface("Engine"));

  servant->bind("scale_sum", [](prmi::CalleeContext& ctx,
                                std::vector<Value>& args) -> Value {
    // An SPMD collective implementation: combine across the callee cohort.
    const double factor = std::get<double>(args[0]);
    const int count = std::get<std::int32_t>(args[1]);
    const double local = factor * count * (ctx.cohort.rank() + 1);
    const double total =
        ctx.cohort.allreduce(local, [](double a, double b) { return a + b; });
    return total;
  });

  servant->bind("stats",
                [](prmi::CalleeContext&, std::vector<Value>& args) -> Value {
                  const int x = std::get<std::int32_t>(args[0]);
                  args[1] = static_cast<std::int64_t>(2 * x);
                  args[2] = std::get<double>(args[2]) + 1.0;
                  return {};
                });

  servant->bind("note",
                [state](prmi::CalleeContext&, std::vector<Value>&) -> Value {
                  ++state->notes;
                  return {};
                });

  servant->bind("ping", [](prmi::CalleeContext& ctx,
                           std::vector<Value>& args) -> Value {
    EXPECT_FALSE(ctx.collective);
    return std::int32_t(std::get<std::int32_t>(args[0]) + 1);
  });

  servant->bind("nudge",
                [state](prmi::CalleeContext&, std::vector<Value>& args) -> Value {
                  state->nudges += std::get<std::int32_t>(args[0]);
                  return {};
                });

  servant->bind("push", [](prmi::CalleeContext&, std::vector<Value>&) -> Value {
    return {};  // data already redistributed into the target
  });

  servant->bind("pull", [](prmi::CalleeContext&, std::vector<Value>&) -> Value {
    return {};  // target contents flow back after the handler
  });

  servant->bind("boost", [target](prmi::CalleeContext&,
                                  std::vector<Value>& args) -> Value {
    const double f = std::get<double>(args[1]);
    for (auto& v : target->local()) v *= f;
    return {};
  });

  servant->bind("fail",
                [](prmi::CalleeContext&, std::vector<Value>& args) -> Value {
                  throw std::runtime_error(std::get<std::string>(args[0]));
                });

  (void)cohort;
  return servant;
}

/// Harness: spawn m client + n server processes, wire one connection, run
/// `client` on client cohort ranks while servers serve `server_calls`
/// invocations (serve-until-shutdown when < 0).
void run_client_server(
    int m, int n, int server_calls,
    const std::function<void(prmi::RemotePort&, rt::Communicator& cohort)>&
        client,
    const dad::DescriptorPtr& target_desc = nullptr,
    const std::function<void(dad::DistArray<double>&, rt::Communicator&)>&
        check_server = nullptr) {
  rt::spawn(m + n, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", iota_ranks(0, m));
    fw.instantiate("server", iota_ranks(m, n));

    ServerState state;
    std::unique_ptr<dad::DistArray<double>> target;

    if (fw.member_of("server")) {
      auto cohort = fw.cohort("server");
      auto desc = target_desc
                      ? target_desc
                      : dad::make_regular(std::vector<AxisDist>{
                            AxisDist::block(12, n)});
      target = std::make_unique<dad::DistArray<double>>(desc, cohort.rank());
      auto servant = make_engine_servant(cohort, target.get(), &state);
      for (const char* meth : {"push", "pull", "boost"})
        servant->set_parallel_target(
            meth, "field",
            core::make_field("field", target.get(),
                             core::AccessMode::ReadWrite));
      fw.add_provides("server", "engine", servant);
    }
    if (fw.member_of("client")) {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "engine", pkg.interface("Engine"));
    }
    fw.connect("client", "engine", "server", "engine");

    if (fw.member_of("server")) {
      fw.serve("server", server_calls);
      if (check_server) {
        auto cohort = fw.cohort("server");
        check_server(*target, cohort);
      }
    } else {
      auto port = fw.get_port("client", "engine");
      auto cohort = fw.cohort("client");
      client(*port, cohort);
      if (server_calls < 0) port->shutdown_provider();
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Collective calls
// ---------------------------------------------------------------------------

TEST(Prmi, CollectiveCallReturnsToEveryCaller) {
  // N=3 servers: scale_sum returns factor*count*(1+2+3).
  run_client_server(2, 3, 1, [](prmi::RemotePort& port, rt::Communicator&) {
    auto r = port.call("scale_sum", {2.0, std::int32_t(5)});
    EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 2.0 * 5 * 6);
  });
}

TEST(Prmi, GhostInvocationsWhenFewerCallers) {
  // M=1 caller, N=4 callees: the caller's invocation fans out to all four
  // callee ranks (ghost invocations) and one return comes back.
  run_client_server(1, 4, 1, [](prmi::RemotePort& port, rt::Communicator&) {
    auto r = port.call("scale_sum", {1.0, std::int32_t(1)});
    EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 1 + 2 + 3 + 4);
  });
}

TEST(Prmi, ReplicatedReturnsWhenMoreCallers) {
  // M=5 callers, N=2 callees: every caller still receives the return value.
  run_client_server(5, 2, 1, [](prmi::RemotePort& port, rt::Communicator&) {
    auto r = port.call("scale_sum", {3.0, std::int32_t(2)});
    EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 3.0 * 2 * 3);
  });
}

TEST(Prmi, OutAndInoutSimpleParameters) {
  run_client_server(2, 2, 1, [](prmi::RemotePort& port, rt::Communicator&) {
    auto r = port.call("stats", {std::int32_t(21), Value{}, 0.5});
    EXPECT_EQ(std::get<std::int64_t>(r.args[1]), 42);
    EXPECT_DOUBLE_EQ(std::get<double>(r.args[2]), 1.5);
  });
}

TEST(Prmi, ConsecutiveCallsKeepOrder) {
  run_client_server(2, 2, 4, [](prmi::RemotePort& port, rt::Communicator&) {
    for (int i = 1; i <= 4; ++i) {
      auto r = port.call("scale_sum", {double(i), std::int32_t(1)});
      EXPECT_DOUBLE_EQ(std::get<double>(r.ret), i * 3.0);
    }
  });
}

TEST(Prmi, RemoteExceptionPropagates) {
  run_client_server(2, 2, 1, [](prmi::RemotePort& port, rt::Communicator&) {
    try {
      port.call("fail", {std::string("it broke")});
      FAIL() << "expected RemoteError";
    } catch (const prmi::RemoteError& e) {
      EXPECT_STREQ(e.what(), "it broke");
    }
  });
}

TEST(Prmi, ArgumentValidation) {
  run_client_server(1, 1, 1, [](prmi::RemotePort& port, rt::Communicator&) {
    EXPECT_THROW(port.call("scale_sum", {2.0}), rt::UsageError);  // arity
    EXPECT_THROW(port.call("scale_sum", {std::int32_t(1), std::int32_t(5)}),
                 prmi::TypeMismatch);
    EXPECT_THROW(port.call("nope", {}), std::out_of_range);
    EXPECT_THROW(port.call("note", {std::string("x")}), rt::UsageError)
        << "oneway methods must go through call_oneway";
    EXPECT_THROW(port.call("ping", {std::int32_t(1)}), rt::UsageError)
        << "independent methods must go through call_independent";
    // Unblock the server's pending serve(1).
    auto r = port.call("scale_sum", {1.0, std::int32_t(1)});
    EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 1.0);
  });
}

TEST(Prmi, SimpleArgConsistencyCheckCatchesDivergence) {
  run_client_server(3, 1, 0, [](prmi::RemotePort& port,
                                rt::Communicator& cohort) {
    port.set_check_simple_args(true);
    // Rank-dependent "simple" argument violates the CCA convention.
    EXPECT_THROW(
        port.call("scale_sum", {double(cohort.rank()), std::int32_t(1)}),
        rt::UsageError);
  });
}

// ---------------------------------------------------------------------------
// One-way and independent calls
// ---------------------------------------------------------------------------

TEST(Prmi, OnewayReturnsImmediatelyAndExecutes) {
  // Server serves 3 oneway notes then 1 regular call (the sync point).
  run_client_server(2, 2, 4, [](prmi::RemotePort& port, rt::Communicator&) {
    for (int i = 0; i < 3; ++i) port.call_oneway("note", {std::string("t")});
    auto r = port.call("scale_sum", {1.0, std::int32_t(1)});
    EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 3.0);
  });
}

TEST(Prmi, IndependentCallRoutesToOneCallee) {
  // Each caller rank i targets callee i % 3 == i, so every callee rank
  // serves exactly one invocation.
  run_client_server(3, 3, 1, [](prmi::RemotePort& port,
                                rt::Communicator& cohort) {
    auto r = port.call_independent("ping",
                                   {std::int32_t(100 + cohort.rank())});
    EXPECT_EQ(std::get<std::int32_t>(r.ret), 101 + cohort.rank());
  });
}

TEST(Prmi, IndependentCallWithExplicitTarget) {
  // All 2 callers target callee rank 1; callee 0 never serves an invoke.
  rt::spawn(4, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", {0, 1});
    fw.instantiate("server", {2, 3});
    ServerState state;
    std::unique_ptr<dad::DistArray<double>> target;
    if (fw.member_of("server")) {
      auto cohort = fw.cohort("server");
      auto desc = dad::make_regular(
          std::vector<AxisDist>{AxisDist::block(12, 2)});
      target = std::make_unique<dad::DistArray<double>>(desc, cohort.rank());
      fw.add_provides("server", "engine",
                      make_engine_servant(cohort, target.get(), &state));
    } else {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "engine", pkg.interface("Engine"));
    }
    fw.connect("client", "engine", "server", "engine");
    if (fw.member_of("server")) {
      const int served = fw.serve("server", fw.cohort("server").rank() == 1
                                                ? 2
                                                : 0);
      EXPECT_EQ(served, fw.cohort("server").rank() == 1 ? 2 : 0);
    } else {
      auto port = fw.get_port("client", "engine");
      auto r = port->call_independent("ping", {std::int32_t(7)}, 1);
      EXPECT_EQ(std::get<std::int32_t>(r.ret), 8);
    }
  });
}

TEST(Prmi, IndependentOnewayNudges) {
  run_client_server(2, 1, 5, [](prmi::RemotePort& port,
                                rt::Communicator& cohort) {
    port.call_independent("nudge", {std::int32_t(10)});
    port.call_independent("nudge", {std::int32_t(5)});
    // Sync with a regular call; nudges land before it per-connection FIFO.
    auto r = port.call("scale_sum", {1.0, std::int32_t(1)});
    EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 1.0);
    (void)cohort;
  });
}

// ---------------------------------------------------------------------------
// Parallel arguments
// ---------------------------------------------------------------------------

TEST(Prmi, ParallelInArgumentRedistributes) {
  const int m = 3, n = 2;
  auto caller_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(12, m)});
  auto callee_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(12, n)});
  run_client_server(
      m, n, 1,
      [&](prmi::RemotePort& port, rt::Communicator& cohort) {
        dad::DistArray<double> mine(caller_desc, cohort.rank());
        mine.fill([](const Point& p) { return 10.0 * p[0]; });
        auto binding =
            core::make_field("field", &mine, core::AccessMode::Read);
        port.call("push", {prmi::ParallelRef{&binding}});
      },
      callee_desc,
      [](dad::DistArray<double>& target, rt::Communicator&) {
        target.for_each_owned([](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, 10.0 * p[0]);
        });
      });
}

TEST(Prmi, ParallelOutArgumentFlowsBack) {
  const int m = 2, n = 3;
  auto caller_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::cyclic(12, m)});
  auto callee_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(12, n)});
  rt::spawn(m + n, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", iota_ranks(0, m));
    fw.instantiate("server", iota_ranks(m, n));
    ServerState state;
    std::unique_ptr<dad::DistArray<double>> target;
    if (fw.member_of("server")) {
      auto cohort = fw.cohort("server");
      target =
          std::make_unique<dad::DistArray<double>>(callee_desc, cohort.rank());
      target->fill([](const Point& p) { return 100.0 + p[0]; });
      auto servant = make_engine_servant(cohort, target.get(), &state);
      servant->set_parallel_target(
          "pull", "field",
          core::make_field("field", target.get(), core::AccessMode::Read));
      fw.add_provides("server", "engine", servant);
      fw.connect("client", "engine", "server", "engine");
      fw.serve("server", 1);
    } else {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "engine", pkg.interface("Engine"));
      fw.connect("client", "engine", "server", "engine");
      auto port = fw.get_port("client", "engine");
      auto cohort = fw.cohort("client");
      dad::DistArray<double> mine(caller_desc, cohort.rank());
      auto binding = core::make_field("field", &mine, core::AccessMode::Write);
      port->call("pull", {prmi::ParallelRef{&binding}});
      mine.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 100.0 + p[0]);
      });
    }
  });
}

TEST(Prmi, ParallelInoutRoundTrips) {
  const int m = 2, n = 2;
  auto caller_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(12, m)});
  auto callee_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::cyclic(12, n)});
  run_client_server(
      m, n, 1,
      [&](prmi::RemotePort& port, rt::Communicator& cohort) {
        dad::DistArray<double> mine(caller_desc, cohort.rank());
        mine.fill([](const Point& p) { return 1.0 + p[0]; });
        auto binding =
            core::make_field("field", &mine, core::AccessMode::ReadWrite);
        port.call("boost", {prmi::ParallelRef{&binding}, 10.0});
        mine.for_each_owned([](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, 10.0 * (1.0 + p[0]));
        });
      },
      callee_desc);
}

TEST(Prmi, MissingTargetForOutParallelParamReportedToCaller) {
  // Deferral only covers inputs: an out/inout parallel parameter without a
  // pre-registered target is a hard error surfaced to the caller.
  rt::spawn(2, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    ServerState state;
    std::unique_ptr<dad::DistArray<double>> target;
    if (fw.member_of("server")) {
      auto cohort = fw.cohort("server");
      auto desc = dad::make_regular(
          std::vector<AxisDist>{AxisDist::block(12, 1)});
      target = std::make_unique<dad::DistArray<double>>(desc, cohort.rank());
      // Deliberately no set_parallel_target for "pull" (out param).
      fw.add_provides("server", "engine",
                      make_engine_servant(cohort, target.get(), &state));
      fw.connect("client", "engine", "server", "engine");
      // Layout requests are control traffic: serve-until-shutdown handles
      // them without counting an invocation.
      EXPECT_EQ(fw.serve("server", -1), 0);
    } else {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "engine", pkg.interface("Engine"));
      fw.connect("client", "engine", "server", "engine");
      auto port = fw.get_port("client", "engine");
      auto desc = dad::make_regular(
          std::vector<AxisDist>{AxisDist::block(12, 1)});
      dad::DistArray<double> mine(desc, 0);
      auto binding = core::make_field("f", &mine, core::AccessMode::Write);
      EXPECT_THROW(port->call("pull", {prmi::ParallelRef{&binding}}),
                   prmi::RemoteError);
      port->shutdown_provider();
    }
  });
}

TEST(Prmi, DeferredParallelInputPulledMidCall) {
  // §2.4's second strategy end to end: the callee registers NO layout for
  // push's parallel input; the handler decides the layout during the call
  // and pulls the data; the parked callers serve the pull and then get the
  // return.
  const int m = 2, n = 2;
  auto caller_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(12, m)});
  auto late_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::cyclic(12, n)});
  rt::spawn(m + n, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", iota_ranks(0, m));
    fw.instantiate("server", iota_ranks(m, n));
    auto pkg = mxn::sidl::parse_package(kSidl);
    if (fw.member_of("server")) {
      auto cohort = fw.cohort("server");
      dad::DistArray<double> late(late_desc, cohort.rank());
      auto servant = std::make_shared<prmi::Servant>(pkg.interface("Engine"));
      servant->bind("push", [&](prmi::CalleeContext& ctx,
                                std::vector<Value>& args) -> Value {
        // The parameter arrives as an unfilled slot; choose the layout NOW
        // and pull.
        EXPECT_TRUE(std::holds_alternative<std::monostate>(args[0]));
        auto target =
            core::make_field("late", &late, core::AccessMode::ReadWrite);
        ctx.pull(0, target);
        double local = 0;
        for (double v : late.local()) local += v;
        const double total = ctx.cohort.allreduce(
            local, [](double a, double b) { return a + b; });
        EXPECT_DOUBLE_EQ(total, 66.0);  // sum 0..11
        return {};
      });
      // NOTE: no set_parallel_target for "push" — it is deferred.
      fw.add_provides("server", "engine", servant);
      fw.connect("client", "engine", "server", "engine");
      EXPECT_EQ(fw.serve("server", 1), 1);
      late.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, double(p[0]));
      });
    } else {
      fw.register_uses("client", "engine", pkg.interface("Engine"));
      fw.connect("client", "engine", "server", "engine");
      auto port = fw.get_port("client", "engine");
      auto cohort = fw.cohort("client");
      dad::DistArray<double> mine(caller_desc, cohort.rank());
      mine.fill([](const Point& p) { return double(p[0]); });
      auto binding = core::make_field("f", &mine, core::AccessMode::Read);
      port->call("push", {prmi::ParallelRef{&binding}});
    }
  });
}

TEST(Prmi, OnewayWithDeferredParamRejected) {
  const char* sidl = R"(
    package d { interface I {
      collective oneway void fire(in parallel array<double,1> d);
    } }
  )";
  rt::spawn(2, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    auto pkg = mxn::sidl::parse_package(sidl);
    if (fw.member_of("server")) {
      auto servant = std::make_shared<prmi::Servant>(pkg.interface("I"));
      servant->bind("fire",
                    [](prmi::CalleeContext&, std::vector<Value>&) -> Value {
                      return {};
                    });
      fw.add_provides("server", "i", servant);  // no target: deferred
      fw.connect("client", "i", "server", "i");
      EXPECT_EQ(fw.serve("server", -1), 0);
    } else {
      fw.register_uses("client", "i", pkg.interface("I"));
      fw.connect("client", "i", "server", "i");
      auto port = fw.get_port("client", "i");
      auto desc = dad::make_regular(
          std::vector<AxisDist>{AxisDist::block(4, 1)});
      dad::DistArray<double> mine(desc, 0);
      auto binding = core::make_field("f", &mine, core::AccessMode::Read);
      EXPECT_THROW(port->call_oneway("fire", {prmi::ParallelRef{&binding}}),
                   rt::UsageError);
      port->shutdown_provider();
    }
  });
}

// ---------------------------------------------------------------------------
// Framework wiring errors
// ---------------------------------------------------------------------------

TEST(Prmi, InterfaceMismatchRejectedAtConnect) {
  rt::spawn(2, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    ServerState state;
    std::unique_ptr<dad::DistArray<double>> target;
    if (fw.member_of("server")) {
      auto cohort = fw.cohort("server");
      auto desc = dad::make_regular(
          std::vector<AxisDist>{AxisDist::block(4, 1)});
      target = std::make_unique<dad::DistArray<double>>(desc, 0);
      fw.add_provides("server", "engine",
                      make_engine_servant(cohort, target.get(), &state));
      fw.connect("client", "engine", "server", "engine");  // provider side ok
    } else {
      auto other = mxn::sidl::parse_package(
          "package other { interface Engine { void f(); } }");
      fw.register_uses("client", "engine", other.interface("Engine"));
      EXPECT_THROW(fw.connect("client", "engine", "server", "engine"),
                   rt::UsageError);
    }
  });
}

TEST(Prmi, UnknownComponentAndPortErrors) {
  rt::spawn(1, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("a", {0});
    EXPECT_THROW(fw.cohort("nope"), rt::UsageError);
    EXPECT_THROW(fw.instantiate("a", {0}), rt::UsageError);
    EXPECT_THROW(fw.instantiate("b", {}), rt::UsageError);
    EXPECT_THROW(fw.instantiate("c", {5}), rt::UsageError);
    EXPECT_THROW(fw.get_port("a", "x"), rt::UsageError);
    EXPECT_THROW(fw.serve("nope"), rt::UsageError);
  });
}

TEST(Prmi, CorruptHeaderIndicesAreUsageErrors) {
  // Indices read off the wire are checked where the provider resolves
  // them: a method index past the interface, a connection id nobody
  // connected, and an empty participant list each make serve() raise the
  // typed rt::UsageError instead of an unchecked lookup failure.
  rt::spawn(2, [&](rt::Communicator& world) {
    prmi::DistributedFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    ServerState state;
    if (fw.member_of("server")) {
      fw.add_provides("server", "engine",
                      make_engine_servant(fw.cohort("server"), nullptr,
                                          &state));
    } else {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "engine", pkg.interface("Engine"));
    }
    fw.connect("client", "engine", "server", "engine");
    if (fw.member_of("server")) {
      for (int i = 0; i < 3; ++i)
        EXPECT_THROW(fw.serve("server", 1), rt::UsageError) << "header " << i;
      EXPECT_EQ(state.nudges.load(), 0);
      return;
    }
    auto header = [](int conn, int method, std::vector<int> participants) {
      rt::PackBuffer b;
      b.pack(static_cast<std::uint8_t>(prmi::MsgKind::InvokeIndependent));
      b.pack(conn);
      b.pack(1);  // seq
      b.pack(0);  // epoch
      b.pack(method);
      b.pack(participants);
      b.pack(std::int32_t(1));  // nudge's `amount`
      return std::move(b).take();
    };
    world.send(1, prmi::listen_tag(1), header(0, 99, {0}));
    world.send(1, prmi::listen_tag(1), header(7, 4, {0}));
    world.send(1, prmi::listen_tag(1), header(0, 4, {}));
  });
}

// Parameterized M x N sweep for collective calls with a parallel argument.
class PrmiShapeSweep : public ::testing::TestWithParam<std::pair<int, int>> {
};

TEST_P(PrmiShapeSweep, ParallelPushAcrossShapes) {
  const auto [m, n] = GetParam();
  auto caller_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(24, m)});
  auto callee_desc = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(24, n)});
  run_client_server(
      m, n, 1,
      [&](prmi::RemotePort& port, rt::Communicator& cohort) {
        dad::DistArray<double> mine(caller_desc, cohort.rank());
        mine.fill([](const Point& p) { return 3.0 * p[0] + 1; });
        auto binding = core::make_field("f", &mine, core::AccessMode::Read);
        port.call("push", {prmi::ParallelRef{&binding}});
      },
      callee_desc,
      [](dad::DistArray<double>& target, rt::Communicator&) {
        target.for_each_owned([](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, 3.0 * p[0] + 1);
        });
      });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrmiShapeSweep,
    ::testing::Values(std::pair{1, 3}, std::pair{3, 1}, std::pair{2, 4},
                      std::pair{4, 2}, std::pair{3, 3}));
