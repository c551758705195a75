// Tests for the Distributed CCA Architecture framework (src/dca):
// communicator-based process participation, barrier-before-delivery (the
// paper's Figure 5 synchronization fix — including reproducing the deadlock
// when the barrier is disabled), alltoallv-style user-specified parallel
// data, Go ports and one-way methods.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "dca/framework.hpp"
#include "rt/runtime.hpp"
#include "sidl/parser.hpp"

namespace dca = mxn::dca;
namespace rt = mxn::rt;
using dca::DcaValue;

namespace {

const char* kSidl = R"(
  package dcademo {
    interface Solver {
      collective double sum_all(in double x);
      collective void deposit(in parallel array<double,1> data);
      collective void minmax(in array<double,1> values, out double lo,
                             out double hi);
      collective oneway void log_event(in string what);
      collective double slow_reduce(in double x);
    }
  }
)";

std::vector<int> iota_ranks(int from, int count) {
  std::vector<int> r(count);
  std::iota(r.begin(), r.end(), from);
  return r;
}

struct ServerData {
  std::vector<double> deposited;  // per callee rank: concatenated chunks
  int events = 0;
};

std::shared_ptr<dca::DcaServant> make_solver(ServerData* data) {
  auto pkg = mxn::sidl::parse_package(kSidl);
  auto s = std::make_shared<dca::DcaServant>(pkg.interface("Solver"));
  s->bind("sum_all",
          [](dca::DcaContext& ctx, std::vector<DcaValue>& args) -> DcaValue {
            const double x = std::get<double>(args[0]);
            return ctx.cohort.allreduce(
                x * (ctx.cohort.rank() + 1),
                [](double a, double b) { return a + b; });
          });
  s->bind("deposit",
          [data](dca::DcaContext&, std::vector<DcaValue>& args) -> DcaValue {
            const auto& in = std::get<dca::ParallelIn>(args[0]);
            data->deposited.clear();
            for (const auto& chunk : in.chunks)
              data->deposited.insert(data->deposited.end(), chunk.begin(),
                                     chunk.end());
            return {};
          });
  s->bind("minmax",
          [](dca::DcaContext&, std::vector<DcaValue>& args) -> DcaValue {
            const auto& v = std::get<std::vector<double>>(args[0]);
            args[1] = *std::min_element(v.begin(), v.end());
            args[2] = *std::max_element(v.begin(), v.end());
            return {};
          });
  s->bind("log_event",
          [data](dca::DcaContext&, std::vector<DcaValue>&) -> DcaValue {
            ++data->events;
            return {};
          });
  s->bind("slow_reduce",
          [](dca::DcaContext& ctx, std::vector<DcaValue>& args) -> DcaValue {
            return ctx.cohort.allreduce(
                std::get<double>(args[0]),
                [](double a, double b) { return a + b; });
          });
  return s;
}

}  // namespace

TEST(Dca, FullCohortCollectiveCall) {
  rt::spawn(5, [](rt::Communicator& world) {
    dca::DcaFramework fw(world);
    fw.instantiate("client", iota_ranks(0, 2));
    fw.instantiate("server", iota_ranks(2, 3));
    ServerData data;
    if (fw.member_of("server"))
      fw.add_provides("server", "solver", make_solver(&data));
    if (fw.member_of("client")) {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "solver", pkg.interface("Solver"));
    }
    fw.connect("client", "solver", "server", "solver");
    if (fw.member_of("server")) {
      EXPECT_EQ(fw.serve("server", 1), 1);
    } else {
      auto port = fw.get_port("client", "solver");
      auto r = port->call(fw.cohort("client"), "sum_all", {2.0});
      EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 2.0 * (1 + 2 + 3));
    }
  });
}

TEST(Dca, SubsetParticipationViaCommunicator) {
  // Only caller ranks {1, 2} of a 3-rank client participate; rank 0 sits
  // out entirely — the participation flexibility the DCA argues for.
  rt::spawn(5, [](rt::Communicator& world) {
    dca::DcaFramework fw(world);
    fw.instantiate("client", iota_ranks(0, 3));
    fw.instantiate("server", iota_ranks(3, 2));
    ServerData data;
    if (fw.member_of("server"))
      fw.add_provides("server", "solver", make_solver(&data));
    if (fw.member_of("client")) {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "solver", pkg.interface("Solver"));
    }
    fw.connect("client", "solver", "server", "solver");
    if (fw.member_of("server")) {
      EXPECT_EQ(fw.serve("server", 1), 1);
    } else {
      auto cohort = fw.cohort("client");
      auto sub = cohort.split(cohort.rank() >= 1 ? 0 : rt::kUndefinedColor,
                              cohort.rank());
      if (!sub.is_null()) {
        auto port = fw.get_port("client", "solver");
        auto r = port->call(sub, "sum_all", {1.0});
        EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 3.0);
      }
    }
  });
}

TEST(Dca, AlltoallvParallelData) {
  // Two participants scatter slices to two callees via counts/displs.
  rt::spawn(4, [](rt::Communicator& world) {
    dca::DcaFramework fw(world);
    fw.instantiate("client", iota_ranks(0, 2));
    fw.instantiate("server", iota_ranks(2, 2));
    ServerData data;
    if (fw.member_of("server"))
      fw.add_provides("server", "solver", make_solver(&data));
    if (fw.member_of("client")) {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "solver", pkg.interface("Solver"));
    }
    fw.connect("client", "solver", "server", "solver");
    if (fw.member_of("server")) {
      fw.serve("server", 1);
      // Callee j receives participant 0's then participant 1's chunk.
      const double base = 100.0 * fw.cohort("server").rank();
      ASSERT_EQ(data.deposited.size(), 4u);
      EXPECT_DOUBLE_EQ(data.deposited[0], base + 0);      // from part 0
      EXPECT_DOUBLE_EQ(data.deposited[1], base + 1);
      EXPECT_DOUBLE_EQ(data.deposited[2], 1000 + base);   // from part 1
      EXPECT_DOUBLE_EQ(data.deposited[3], 1000 + base + 1);
    } else {
      auto cohort = fw.cohort("client");
      auto port = fw.get_port("client", "solver");
      // Participant k's buffer: [to_callee0 x2, to_callee1 x2].
      dca::ParallelOut po;
      const double base = cohort.rank() == 0 ? 0.0 : 1000.0;
      po.data = {base + 0, base + 1, base + 100, base + 101};
      po.counts = {2, 2};
      po.displs = {0, 2};
      port->call(cohort, "deposit", {std::move(po)});
    }
  });
}

TEST(Dca, OutParametersAndReplicatedArrays) {
  rt::spawn(2, [](rt::Communicator& world) {
    dca::DcaFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    ServerData data;
    if (fw.member_of("server")) {
      fw.add_provides("server", "solver", make_solver(&data));
      fw.connect("client", "solver", "server", "solver");
      fw.serve("server", 1);
    } else {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "solver", pkg.interface("Solver"));
      fw.connect("client", "solver", "server", "solver");
      auto port = fw.get_port("client", "solver");
      auto r = port->call(fw.cohort("client"), "minmax",
                          {std::vector<double>{3.5, -2.0, 7.25}, DcaValue{},
                           DcaValue{}});
      EXPECT_DOUBLE_EQ(std::get<double>(r.args[1]), -2.0);
      EXPECT_DOUBLE_EQ(std::get<double>(r.args[2]), 7.25);
    }
  });
}

TEST(Dca, OnewayEventsAndGoPorts) {
  rt::spawn(3, [](rt::Communicator& world) {
    dca::DcaFramework fw(world);
    fw.instantiate("client", iota_ranks(0, 2));
    fw.instantiate("server", {2});
    ServerData data;
    if (fw.member_of("server")) {
      fw.add_provides("server", "solver", make_solver(&data));
      fw.add_go("server", [&] {
        // 2 oneway events + 1 sync call.
        fw.serve("server", 3);
        return data.events == 2 ? 0 : 7;
      });
    }
    if (fw.member_of("client")) {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "solver", pkg.interface("Solver"));
      fw.add_go("client", [&] {
        auto cohort = fw.cohort("client");
        auto port = fw.get_port("client", "solver");
        port->call_oneway(cohort, "log_event", {std::string("a")});
        port->call_oneway(cohort, "log_event", {std::string("b")});
        auto r = port->call(cohort, "sum_all", {1.0});
        return std::get<double>(r.ret) == 1.0 ? 0 : 8;
      });
    }
    fw.connect("client", "solver", "server", "solver");
    EXPECT_EQ(fw.start_all(), 0);
  });
}

TEST(Dca, ParallelOutValidation) {
  rt::spawn(2, [](rt::Communicator& world) {
    dca::DcaFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    ServerData data;
    if (fw.member_of("server")) {
      fw.add_provides("server", "solver", make_solver(&data));
      fw.connect("client", "solver", "server", "solver");
    } else {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "solver", pkg.interface("Solver"));
      fw.connect("client", "solver", "server", "solver");
      auto port = fw.get_port("client", "solver");
      auto cohort = fw.cohort("client");
      dca::ParallelOut bad;
      bad.data = {1.0};
      bad.counts = {5};  // overruns buffer
      bad.displs = {0};
      EXPECT_THROW(port->call(cohort, "deposit", {bad}), rt::UsageError);
      dca::ParallelOut wrong_n;
      wrong_n.data = {1.0};
      wrong_n.counts = {1, 1};  // server has 1 rank
      wrong_n.displs = {0, 0};
      EXPECT_THROW(port->call(cohort, "deposit", {wrong_n}), rt::UsageError);
    }
  });
}

TEST(Dca, MistypedSimpleArgumentIsATypedError) {
  // Simple arguments go through the shared SIDL marshaller, which checks
  // every one against the signature before anything is sent: an int where
  // sum_all declares `in double x` is a typed usage error (TypeMismatch),
  // not a std::bad_variant_access, and the port stays usable.
  rt::spawn(2, [](rt::Communicator& world) {
    dca::DcaFramework fw(world);
    fw.instantiate("client", {0});
    fw.instantiate("server", {1});
    ServerData data;
    if (fw.member_of("server")) {
      fw.add_provides("server", "solver", make_solver(&data));
    } else {
      auto pkg = mxn::sidl::parse_package(kSidl);
      fw.register_uses("client", "solver", pkg.interface("Solver"));
    }
    fw.connect("client", "solver", "server", "solver");
    if (fw.member_of("server")) {
      EXPECT_EQ(fw.serve("server", 1), 1);
    } else {
      auto port = fw.get_port("client", "solver");
      auto cohort = fw.cohort("client");
      EXPECT_THROW(port->call(cohort, "sum_all", {std::int32_t(3)}),
                   rt::UsageError);
      auto r = port->call(cohort, "sum_all", {3.0});
      EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 3.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Figure 5: the synchronization problem
// ---------------------------------------------------------------------------

namespace {

/// The paper's Figure 5 scenario. Client cohort of 3. Processes {1,2} make
/// collective call A; later all of {0,1,2} make collective call B. Process
/// 0 reaches its (only) call immediately; processes 1 and 2 reach call A
/// first. Without barrier-delayed delivery the server can commit to call B
/// (first fragment from process 0) and then wait forever for fragments
/// from processes 1 and 2, which are blocked on call A's return.
void fig5_scenario(bool barrier, int deadlock_timeout_ms) {
  rt::spawn(
      4,
      [&](rt::Communicator& world) {
        dca::DcaFramework fw(world, {.barrier_before_delivery = barrier});
        fw.instantiate("client", iota_ranks(0, 3));
        fw.instantiate("server", {3});
        ServerData data;
        if (fw.member_of("server")) {
          fw.add_provides("server", "solver", make_solver(&data));
          fw.connect("client", "solver", "server", "solver");
          fw.serve("server", 2);
        } else {
          auto pkg = mxn::sidl::parse_package(kSidl);
          fw.register_uses("client", "solver", pkg.interface("Solver"));
          fw.connect("client", "solver", "server", "solver");
          auto cohort = fw.cohort("client");
          auto port = fw.get_port("client", "solver");
          // Subset for call A = cohort ranks {1,2}.
          auto subA = cohort.split(
              cohort.rank() >= 1 ? 0 : rt::kUndefinedColor, cohort.rank());
          if (cohort.rank() == 0) {
            // Reach call B first: without the barrier its fragment is
            // delivered immediately and the server commits to call B.
            port->call(cohort, "slow_reduce", {1.0});  // call B
          } else {
            // Ranks 1,2 arrive later, issue call A, and block on its
            // return — so their call-B fragments never materialize.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            port->call(subA, "sum_all", {1.0});        // call A
            port->call(cohort, "slow_reduce", {1.0});  // call B
          }
        }
      },
      {.deadlock_timeout_ms = deadlock_timeout_ms});
}

}  // namespace

TEST(DcaFig5, BarrierDelayedDeliveryCompletes) {
  // With the barrier, call B's delivery is delayed until ranks 1,2 reach it
  // — which is after call A completes. No deadlock.
  fig5_scenario(/*barrier=*/true, /*deadlock_timeout_ms=*/2000);
}

TEST(DcaFig5, NoBarrierDeadlocks) {
  // Without the barrier the system deadlocks exactly as Figure 5 predicts;
  // the runtime watchdog detects it.
  EXPECT_THROW(fig5_scenario(/*barrier=*/false, /*deadlock_timeout_ms=*/400),
               rt::DeadlockError);
}
