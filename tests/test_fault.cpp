// Chaos / soak tests for the fault-injection harness (src/rt/fault) and the
// failure-semantics hardening built on it: typed per-call deadlines, the
// reliable two-phase M×N transfer, PRMI epoch-keyed retry, and DCA coupling
// under timing chaos. Every scenario runs under a seeded FaultPlan and must
// either complete correctly or raise a typed error on every affected rank —
// no hangs, no partially injected destination state.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mxn_component.hpp"
#include "dca/framework.hpp"
#include "prmi/distributed_framework.hpp"
#include "rt/runtime.hpp"
#include "sidl/parser.hpp"
#include "trace/trace.hpp"

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace dca = mxn::dca;
namespace prmi = mxn::prmi;
namespace rt = mxn::rt;
namespace trace = mxn::trace;
using dad::AxisDist;
using dad::Point;

namespace {

std::uint64_t ctr(const char* name) { return trace::counter(name).value(); }

/// Classify an escaped runtime error so ranks can record "I failed, typed"
/// without the test caring which deadline fired first.
std::string classify(const std::function<void()>& body) {
  try {
    body();
    return "ok";
  } catch (const rt::KilledError&) {
    return "killed";
  } catch (const core::TransferError&) {
    return "transfer";
  } catch (const rt::TimeoutError&) {
    return "timeout";
  } catch (const rt::DeadlockError&) {
    return "deadlock";
  } catch (const rt::AbortError&) {
    return "abort";
  }
}

std::vector<int> iota_ranks(int from, int count) {
  std::vector<int> r(count);
  for (int i = 0; i < count; ++i) r[i] = from + i;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan spec parsing
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParseAndRoundTrip) {
  auto p = rt::FaultPlan::parse(
      "seed=7,drop=0.25,dup=0.5,reorder=0.125,delay=1,delay_ms=3,"
      "kill=2@40,min_tag=1000");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.drop, 0.25);
  EXPECT_DOUBLE_EQ(p.dup, 0.5);
  EXPECT_DOUBLE_EQ(p.reorder, 0.125);
  EXPECT_DOUBLE_EQ(p.delay, 1.0);
  EXPECT_EQ(p.delay_ms, 3);
  EXPECT_EQ(p.kills, (std::vector<rt::KillSpec>{{2, 40}}));
  EXPECT_EQ(p.min_tag, 1000);
  EXPECT_TRUE(p.enabled());

  // to_string() emits valid spec syntax.
  auto q = rt::FaultPlan::parse(p.to_string());
  EXPECT_EQ(q.seed, p.seed);
  EXPECT_DOUBLE_EQ(q.drop, p.drop);
  EXPECT_EQ(q.kills, p.kills);
  EXPECT_EQ(q.min_tag, p.min_tag);

  EXPECT_FALSE(rt::FaultPlan{}.enabled());
}

TEST(FaultPlan, KillListParseAndRoundTrip) {
  // Multi-kill syntax: a "kill=" value is a list of rank@after entries.
  auto p = rt::FaultPlan::parse("seed=3,kill=2@40,5@90,min_tag=900");
  ASSERT_EQ(p.kills.size(), 2u);
  EXPECT_EQ(p.kills[0], (rt::KillSpec{2, 40}));
  EXPECT_EQ(p.kills[1], (rt::KillSpec{5, 90}));
  EXPECT_EQ(p.min_tag, 900);
  EXPECT_TRUE(p.enabled());

  // to_string() re-emits the list and parses back to the same plan.
  auto q = rt::FaultPlan::parse(p.to_string());
  EXPECT_EQ(q.kills, p.kills);
  EXPECT_EQ(q.min_tag, p.min_tag);

  // all_kills() keeps one kill per rank; when a rank appears twice, the
  // earliest operation index wins.
  rt::FaultPlan m;
  m.kills = {{2, 40}, {5, 90}, {2, 10}};
  const auto all = m.all_kills();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], (rt::KillSpec{2, 10}));
  EXPECT_EQ(all[1], (rt::KillSpec{5, 90}));
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(rt::FaultPlan::parse("bogus=1"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("drop"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("drop=abc"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("drop=0.5x"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("drop=1.5"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("dup=-0.1"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("kill=2"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("kill=2@"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("kill=x@4"), rt::UsageError);
  EXPECT_THROW(rt::FaultPlan::parse("kill_rank=2"), rt::UsageError);
}

TEST(FaultPlan, FromEnvironment) {
  ::setenv("MXN_FAULTS", "seed=11,drop=0.1", 1);
  auto p = rt::FaultPlan::from_env();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seed, 11u);
  EXPECT_DOUBLE_EQ(p->drop, 0.1);
  ::unsetenv("MXN_FAULTS");
  EXPECT_FALSE(rt::FaultPlan::from_env().has_value());
}

// ---------------------------------------------------------------------------
// Runtime-level failure semantics
// ---------------------------------------------------------------------------

TEST(FaultRt, RecvTimeoutIsTypedAndPerCall) {
  // One stalled rank fails fast with TimeoutError while its sibling keeps
  // working — distinct from the watchdog's all-ranks-idle DeadlockError.
  rt::spawn(2, [](rt::Communicator& world) {
    if (world.rank() == 0) {
      EXPECT_THROW(world.recv(1, 7, 80), rt::TimeoutError);
    }
  });
}

TEST(FaultRt, DropsAreDeterministicPerSeed) {
  constexpr int kMsgs = 40;
  auto run = [](std::uint64_t seed) {
    const auto dropped_before = ctr("fault.dropped");
    std::atomic<int> received{0};
    rt::spawn(
        2,
        [&](rt::Communicator& world) {
          if (world.rank() == 0) {
            for (int i = 0; i < kMsgs; ++i) world.send_value(1, 7, i);
          } else {
            int last = -1;
            try {
              for (;;) {
                auto m = world.recv(0, 7, 150);
                rt::UnpackBuffer u(m.payload);
                const int v = u.unpack<int>();
                EXPECT_GT(v, last);  // drops never reorder survivors
                last = v;
                ++received;
              }
            } catch (const rt::TimeoutError&) {
              // stream exhausted
            }
          }
        },
        {.faults = rt::FaultPlan{.seed = seed, .drop = 0.3, .min_tag = 1}});
    return std::pair<int, std::uint64_t>(received.load(),
                                         ctr("fault.dropped") - dropped_before);
  };

  auto [recv_a, drop_a] = run(42);
  auto [recv_b, drop_b] = run(42);
  EXPECT_EQ(recv_a, recv_b);  // same seed -> byte-identical fate sequence
  EXPECT_EQ(drop_a, drop_b);
  EXPECT_GT(drop_a, 0u);
  EXPECT_EQ(recv_a + static_cast<int>(drop_a), kMsgs);
}

TEST(FaultRt, DupReorderDelayStillDeliverEverything) {
  // Duplication, reordering and delay are content-preserving: every logical
  // message remains receivable (matched receives pull the right envelope).
  constexpr int kMsgs = 30;
  const auto dup0 = ctr("fault.duplicated");
  const auto reord0 = ctr("fault.reordered");
  rt::spawn(
      2,
      [&](rt::Communicator& world) {
        if (world.rank() == 0) {
          for (int i = 0; i < kMsgs; ++i) world.send_value(1, i + 1, i);
        } else {
          for (int i = 0; i < kMsgs; ++i)
            EXPECT_EQ(world.recv_value<int>(0, i + 1), i);
        }
      },
      {.default_recv_timeout_ms = 2000,
       .faults = rt::FaultPlan{
           .seed = 9, .dup = 0.25, .reorder = 0.25, .delay = 0.2,
           .min_tag = 1}});
  EXPECT_GT(ctr("fault.duplicated") + ctr("fault.reordered"), dup0 + reord0);
}

TEST(FaultRt, KillRaisesTypedErrorsOnEveryRank) {
  // 3-rank message ring; the plan kills rank 1 a few operations in. The
  // killed rank dies with KilledError; the survivors starve and fail their
  // per-call deadlines with TimeoutError. Nobody hangs.
  const auto killed0 = ctr("fault.killed");
  std::array<std::string, 3> outcome;
  rt::spawn(
      3,
      [&](rt::Communicator& world) {
        const int r = world.rank();
        outcome[r] = classify([&] {
          for (int it = 0; it < 10; ++it) {
            world.send_value((r + 1) % 3, 3, it);
            (void)world.recv_value<int>((r + 2) % 3, 3);
          }
        });
      },
      {.default_recv_timeout_ms = 200,
       .faults = rt::FaultPlan{.kills = {{1, 4}}}});

  EXPECT_EQ(outcome[1], "killed");
  EXPECT_EQ(outcome[0], "timeout");
  EXPECT_EQ(outcome[2], "timeout");
  EXPECT_EQ(ctr("fault.killed") - killed0, 1u);
}

TEST(FaultRt, MultiKillFiresEveryScheduledRank) {
  // A kill list takes down two of four ring ranks, each at its own op
  // count; both die typed, the survivors starve typed, and the universe's
  // per-rank death flags name exactly the scheduled victims.
  const auto killed0 = ctr("fault.killed");
  std::array<std::string, 4> outcome;
  std::vector<int> dead_seen;
  EXPECT_THROW(
      rt::spawn(
          4,
          [&](rt::Communicator& world) {
            const int r = world.rank();
            rt::Universe* uni = world.universe();
            outcome[r] = classify([&] {
              for (int it = 0; it < 20; ++it) {
                world.send_value((r + 1) % 4, 3, it);
                // Swallow starvation so a later-scheduled victim keeps
                // making counted ops after an earlier victim dies — only
                // the kill itself may escape.
                try {
                  (void)world.recv_value<int>((r + 3) % 4, 3);
                } catch (const rt::TimeoutError&) {}
              }
            });
            // The runtime notes a death when KilledError UNWINDS the rank's
            // lambda — rethrow so the universe's flags get set (and spawn
            // reports the kill).
            if (outcome[r] == "killed")
              throw rt::KilledError("rethrow scheduled kill");
            if (r == 0) {
              // Both deaths are noted once the killed lambdas unwind.
              for (int i = 0; i < 5000 && uni->dead() < 2; ++i)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              dead_seen = uni->dead_ranks();
            }
          },
          {.default_recv_timeout_ms = 100,
           .faults = rt::FaultPlan{.kills = {{1, 4}, {3, 8}}}}),
      rt::KilledError);

  EXPECT_EQ(outcome[1], "killed");
  EXPECT_EQ(outcome[3], "killed");
  EXPECT_EQ(outcome[0], "ok");
  EXPECT_EQ(outcome[2], "ok");
  EXPECT_EQ(ctr("fault.killed") - killed0, 2u);
  EXPECT_EQ(dead_seen, (std::vector<int>{1, 3}));
}

TEST(FaultRt, SurvivorTimeoutNamesDeadRankAndCountsDetection) {
  // Survivor-side death detection: once the runtime has noted a kill, a
  // survivor's timed-out wait names the dead rank in its message and bumps
  // the fault.dead_rank_detected counter.
  const auto detected0 = ctr("fault.dead_rank_detected");
  std::string seen;
  EXPECT_THROW(
      rt::spawn(
          2,
          [&](rt::Communicator& world) {
            const int r = world.rank();
            rt::Universe* uni = world.universe();
            if (r == 1) {
              // First counted op trips the kill immediately; the KilledError
              // unwinds the lambda, which is what notes the death.
              world.send_value(0, 7, 1);
              return;
            }
            for (int i = 0; i < 5000 && uni->dead() == 0; ++i)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ASSERT_EQ(uni->dead(), 1);
            try {
              (void)world.recv_value<int>(1, 9, nullptr, 100);
              FAIL() << "recv from a dead rank must time out";
            } catch (const rt::TimeoutError& e) {
              seen = e.what();
            }
          },
          {.default_recv_timeout_ms = 2000,
           .faults = rt::FaultPlan{.kills = {{1, 0}}}}),
      rt::KilledError);

  EXPECT_NE(seen.find("known dead rank(s): 1"), std::string::npos) << seen;
  EXPECT_NE(seen.find("fault-injected kill"), std::string::npos) << seen;
  EXPECT_GT(ctr("fault.dead_rank_detected"), detected0);
}

TEST(FaultRt, SelfSendsAreExemptFromChaos) {
  // Regression: a Drop injected on a self-send (e.g. a rank's own alltoall
  // entry) deadlocked the rank waiting on its own message. Self-delivery is
  // a local queue push and bypasses the fault block entirely — even under
  // drop = 1.0 a rank can always talk to itself.
  const auto dropped0 = ctr("fault.dropped");
  rt::spawn(
      2,
      [](rt::Communicator& world) {
        for (int i = 0; i < 10; ++i) {
          world.send_value(world.rank(), 5, i);
          EXPECT_EQ(world.recv_value<int>(world.rank(), 5), i);
        }
      },
      {.default_recv_timeout_ms = 300,
       .faults = rt::FaultPlan{.seed = 5, .drop = 1.0, .min_tag = 1}});
  // No send was eligible for the plan, so nothing was dropped.
  EXPECT_EQ(ctr("fault.dropped") - dropped0, 0u);
}

// ---------------------------------------------------------------------------
// Tree collectives under kill plans: an interior node's death must surface
// as KilledError on the dead rank and TimeoutError on exactly the ranks
// whose tree/exchange path runs through it — never a hang.
// ---------------------------------------------------------------------------

TEST(FaultCollectives, BcastInteriorKillStarvesOnlyItsSubtree) {
  // Binomial bcast, n = 8, root 0: rank 2 receives from 0 and forwards to
  // its only child, rank 3. Killing 2 before its first operation starves 3;
  // the other subtrees (1; 4,5,6,7) complete untouched.
  std::array<std::string, 8> outcome;
  rt::spawn(
      8,
      [&](rt::Communicator& world) {
        const int r = world.rank();
        outcome[r] = classify([&] {
          EXPECT_EQ(world.bcast_value(r == 0 ? 99 : -1, 0), 99);
        });
      },
      {.default_recv_timeout_ms = 200,
       .faults = rt::FaultPlan{.kills = {{2, 0}}}});
  EXPECT_EQ(outcome[2], "killed");
  EXPECT_EQ(outcome[3], "timeout");
  for (int r : {0, 1, 4, 5, 6, 7}) EXPECT_EQ(outcome[r], "ok") << "rank " << r;
}

TEST(FaultCollectives, GatherInteriorKillTimesOutAncestors) {
  // Binomial gather toward root 0, n = 8: rank 6 bundles child 7 and ships
  // to rank 4, which ships to the root. Killing 6 at its first operation
  // (the receive from 7) leaves 7 done (its send does not block) but times
  // out 6's ancestors: 4 and the root.
  std::array<std::string, 8> outcome;
  rt::spawn(
      8,
      [&](rt::Communicator& world) {
        outcome[world.rank()] = classify(
            [&] { (void)world.gather(rt::to_bytes(world.rank()), 0); });
      },
      {.default_recv_timeout_ms = 200,
       .faults = rt::FaultPlan{.kills = {{6, 0}}}});
  EXPECT_EQ(outcome[6], "killed");
  EXPECT_EQ(outcome[4], "timeout");
  EXPECT_EQ(outcome[0], "timeout");
  for (int r : {1, 2, 3, 5, 7}) EXPECT_EQ(outcome[r], "ok") << "rank " << r;
}

TEST(FaultCollectives, BarrierKillTimesOutEverySurvivor) {
  // Dissemination barrier: every rank's exit transitively requires a send
  // rooted at every other rank, so a rank killed before its first send
  // times out ALL survivors — the barrier can never falsely complete.
  std::array<std::string, 6> outcome;
  rt::spawn(
      6,
      [&](rt::Communicator& world) {
        outcome[world.rank()] = classify([&] { world.barrier(); });
      },
      {.default_recv_timeout_ms = 200,
       .faults = rt::FaultPlan{.kills = {{4, 0}}}});
  EXPECT_EQ(outcome[4], "killed");
  for (int r : {0, 1, 2, 3, 5})
    EXPECT_EQ(outcome[r], "timeout") << "rank " << r;
}

TEST(FaultCollectives, AllreduceMidExchangeKillPartitionsOutcomes) {
  // Recursive doubling, n = 8. Rank 5's counted ops: round-1 send (0) and
  // receive (1) with partner 4, then the round-2 send to partner 7 — where
  // its kill at operation 2 fires, before delivery. Round 2 starves 7;
  // round 3 then starves 5's and 7's round-3 partners (1 and 3). The 0/2/4/6
  // exchange subgraph never routes through the dead rank and completes.
  std::array<std::string, 8> outcome;
  rt::spawn(
      8,
      [&](rt::Communicator& world) {
        outcome[world.rank()] = classify([&] {
          (void)world.allreduce(world.rank() + 1,
                                [](int a, int b) { return a + b; });
        });
      },
      {.default_recv_timeout_ms = 250,
       .faults = rt::FaultPlan{.kills = {{5, 2}}}});
  EXPECT_EQ(outcome[5], "killed");
  for (int r : {1, 3, 7}) EXPECT_EQ(outcome[r], "timeout") << "rank " << r;
  for (int r : {0, 2, 4, 6}) EXPECT_EQ(outcome[r], "ok") << "rank " << r;
}

// ---------------------------------------------------------------------------
// Reliable M×N transfer under chaos
// ---------------------------------------------------------------------------

namespace {

double value_at(const Point& p) { return 7.0 * p[0] + p[1]; }
constexpr double kSentinel = -7.5;
double sentinel_at(const Point&) { return kSentinel; }

struct MxnRunResult {
  std::array<std::string, 4> outcome;
  std::array<bool, 2> dst_correct{false, false};    // indexed by dst cohort rank
  std::array<bool, 2> dst_untouched{false, false};
};

/// One 2×2 one-shot reliable transfer under `plan`. Per rank: outcome is
/// "ok" or a typed error name; destination ranks additionally report whether
/// their field ended up fully correct or fully untouched (sentinel).
MxnRunResult run_mxn_chaos(const rt::FaultPlan& plan) {
  const int m = 2, n = 2;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, m), AxisDist::collapsed(5)});
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(12, n), AxisDist::collapsed(5)});
  MxnRunResult res;
  rt::spawn(
      m + n,
      [&](rt::Communicator& world) {
        auto comp = core::make_paired_mxn(world, m, n);
        const int side = world.rank() < m ? 0 : 1;
        auto cohort = world.split(side, world.rank());
        dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                                   cohort.rank());
        arr.fill(side == 0 ? value_at : sentinel_at);
        comp->register_field(core::make_field(
            "f", &arr,
            side == 0 ? core::AccessMode::Read : core::AccessMode::Write));

        res.outcome[world.rank()] = classify([&] {
          core::ConnectionSpec spec;
          spec.src_field = spec.dst_field = "f";
          spec.src_side = 0;
          spec.one_shot = true;
          spec.reliable = true;
          spec.timeout_ms = 120;
          spec.max_retries = 6;
          comp->establish(spec);
          comp->data_ready("f");
        });

        if (side == 1) {
          bool correct = true, untouched = true;
          arr.for_each_owned([&](const Point& p, const double& v) {
            if (v != value_at(p)) correct = false;
            if (v != kSentinel) untouched = false;
          });
          res.dst_correct[cohort.rank()] = correct;
          res.dst_untouched[cohort.rank()] = untouched;
        }
      },
      {.deadlock_timeout_ms = 4000,
       .default_recv_timeout_ms = 400,
       .faults = plan});
  return res;
}

}  // namespace

TEST(FaultMxN, ReliableOneShotUnderChaosSeeds) {
  // Soak: a dozen deterministic drop+dup plans against the reliable one-shot
  // transfer. Invariants, per seed: every rank finishes "ok" or with a typed
  // error (the spawn returning at all proves no hang), and a destination
  // that did not succeed keeps its field byte-identical to the sentinel —
  // the staged-inject guarantee. Retries must absorb most of the chaos.
  const auto retries0 = ctr("mxn.retries");
  const auto dropped0 = ctr("fault.dropped");
  int full_success = 0;
  const int kSeeds = 12;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // min_tag = 1000 scopes the chaos to M×N connection traffic (descriptor
    // exchange, data, acks, commits) and spares rt collectives.
    auto res = run_mxn_chaos(rt::FaultPlan{
        .seed = static_cast<std::uint64_t>(seed),
        .drop = 0.04,
        .dup = 0.05,
        .min_tag = 1000});

    bool all_ok = true;
    for (int r = 0; r < 4; ++r) {
      EXPECT_NE(res.outcome[r], "");  // every rank reached classification
      if (res.outcome[r] != "ok") all_ok = false;
    }
    if (all_ok) {
      ++full_success;
      EXPECT_TRUE(res.dst_correct[0]);
      EXPECT_TRUE(res.dst_correct[1]);
    }
    // Dst invariant regardless of outcome: fully correct or fully untouched.
    for (int d = 0; d < 2; ++d)
      EXPECT_TRUE(res.dst_correct[d] || res.dst_untouched[d])
          << "destination " << d << " holds partially injected state";
  }
  // With 4% drop and 6 retries the large majority of seeds must complete.
  EXPECT_GE(full_success, kSeeds / 2);
  EXPECT_GT(ctr("fault.dropped"), dropped0);
  EXPECT_GT(ctr("mxn.retries"), retries0);
}

TEST(FaultMxN, KillMidStreamFailsTypedEverywhereThenSurvivorsSucceed) {
  // Acceptance scenario: kill one rank mid-way through a stream of reliable
  // transfers. Every survivor must unwind with a typed error within its
  // deadline (no watchdog hang), the surviving destination must hold a
  // consistent iteration snapshot (never a partial mix), and a retry on the
  // surviving configuration must succeed.
  const int m = 2, n = 2, iters = 50;
  auto src_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, m)});
  // Block → cyclic: every destination receives from BOTH sources, so the
  // kill must fail every surviving participant (no untouched 1:1 pairing).
  auto dst_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(8, n)});

  std::array<std::string, 4> outcome;
  std::atomic<int> dst_completed{-1};
  std::atomic<bool> dst_consistent{false};

  rt::spawn(
      m + n,
      [&](rt::Communicator& world) {
        auto comp = core::make_paired_mxn(world, m, n);
        const int side = world.rank() < m ? 0 : 1;
        auto cohort = world.split(side, world.rank());
        dad::DistArray<double> arr(side == 0 ? src_desc : dst_desc,
                                   cohort.rank());
        arr.fill(sentinel_at);
        comp->register_field(core::make_field(
            "f", &arr,
            side == 0 ? core::AccessMode::Read : core::AccessMode::Write));

        int completed = 0;
        outcome[world.rank()] = classify([&] {
          core::ConnectionSpec spec;
          spec.src_field = spec.dst_field = "f";
          spec.src_side = 0;
          spec.one_shot = false;
          spec.reliable = true;
          spec.timeout_ms = 150;
          spec.max_retries = 1;
          comp->establish(spec);
          for (int it = 1; it <= iters; ++it) {
            if (side == 0)
              arr.fill([&](const Point& p) { return 100.0 * it + p[0]; });
            comp->data_ready("f");
            completed = it;
          }
        });

        if (side == 1 && world.rank() == 3) {
          // Atomicity: the surviving destination's field is exactly the
          // snapshot of its last completed iteration (or untouched).
          bool consistent = true;
          arr.for_each_owned([&](const Point& p, const double& v) {
            const double want =
                completed == 0 ? kSentinel : 100.0 * completed + p[0];
            if (v != want) consistent = false;
          });
          dst_completed = completed;
          dst_consistent = consistent;
        }
      },
      {.deadlock_timeout_ms = 5000,
       .default_recv_timeout_ms = 400,
       // Kill the destination leader (world rank 2) ~80 counted ops in:
       // establishment is long done, the transfer stream is in flight.
       .faults = rt::FaultPlan{.kills = {{2, 80}}}});

  EXPECT_EQ(outcome[2], "killed");
  for (int r : {0, 1, 3}) {
    EXPECT_NE(outcome[r], "ok") << "rank " << r
                                << " cannot complete 50 transfers through a "
                                   "dead peer";
    EXPECT_TRUE(outcome[r] == "transfer" || outcome[r] == "timeout")
        << "rank " << r << " got '" << outcome[r] << "'";
  }
  EXPECT_LT(dst_completed.load(), iters);
  EXPECT_TRUE(dst_consistent.load());

  // Retry on the surviving configuration: the application re-couples with a
  // destination decomposition that excludes the dead rank and transfers the
  // same field successfully.
  auto dst1_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, 1)});
  rt::spawn(m + 1, [&](rt::Communicator& world) {
    auto comp = core::make_paired_mxn(world, m, 1);
    const int side = world.rank() < m ? 0 : 1;
    auto cohort = world.split(side, world.rank());
    dad::DistArray<double> arr(side == 0 ? src_desc : dst1_desc,
                               cohort.rank());
    arr.fill(side == 0 ? value_at : sentinel_at);
    comp->register_field(core::make_field(
        "f", &arr,
        side == 0 ? core::AccessMode::Read : core::AccessMode::Write));
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 0;
    spec.one_shot = true;
    spec.reliable = true;
    spec.timeout_ms = 500;
    comp->establish(spec);
    EXPECT_EQ(comp->data_ready("f"), 1);
    if (side == 1)
      arr.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, value_at(p));
      });
  });
}

// ---------------------------------------------------------------------------
// PRMI invocation retry under chaos
// ---------------------------------------------------------------------------

namespace {

const char* kEngineSidl = R"(
  package chaos {
    interface Engine {
      collective double scale_sum(in double factor, in int count);
      independent int ping(in int token);
    }
  }
)";

}  // namespace

TEST(FaultPrmi, InvokeRetriesThroughDupAndDrop) {
  // 2 caller ranks × 2 callee ranks, 5% drop + 5% dup on every PRMI message
  // (min_tag = 1<<20 scopes chaos to invocation headers and replies). The
  // epoch-keyed retry plus servant-side dedup must deliver exactly-once
  // semantics: every collective and independent call returns the correct
  // value, with retries and deduplicated requests visible in the registry.
  const auto retries0 = ctr("prmi.retries");
  const auto dropped0 = ctr("fault.dropped");
  const int kCalls = 10, kSeeds = 8;
  trace::set_enabled(true);

  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::array<std::string, 4> outcome;
    outcome.fill("ok");
    rt::spawn(
        4,
        [&](rt::Communicator& world) {
          prmi::DistributedFramework fw(world);
          fw.instantiate("client", iota_ranks(0, 2));
          fw.instantiate("server", iota_ranks(2, 2));
          if (fw.member_of("server")) {
            auto pkg = mxn::sidl::parse_package(kEngineSidl);
            auto servant =
                std::make_shared<prmi::Servant>(pkg.interface("Engine"));
            servant->bind("scale_sum", [](prmi::CalleeContext& ctx,
                                          std::vector<prmi::Value>& args)
                              -> prmi::Value {
              const double f = std::get<double>(args[0]);
              const int c = std::get<std::int32_t>(args[1]);
              return ctx.cohort.allreduce(
                  f * c * (ctx.cohort.rank() + 1),
                  [](double a, double b) { return a + b; });
            });
            servant->bind("ping", [](prmi::CalleeContext&,
                                     std::vector<prmi::Value>& args)
                              -> prmi::Value {
              return std::int32_t(std::get<std::int32_t>(args[0]) + 1);
            });
            fw.add_provides("server", "engine", servant);
          } else {
            auto pkg = mxn::sidl::parse_package(kEngineSidl);
            fw.register_uses("client", "engine", pkg.interface("Engine"));
          }
          fw.connect("client", "engine", "server", "engine");

          outcome[world.rank()] = classify([&] {
            if (fw.member_of("server")) {
              // Serve until the clients' shutdown notice; if that notice is
              // itself dropped, the idle deadline ends the loop typed.
              try {
                fw.serve("server", -1);
              } catch (const rt::TimeoutError&) {
              }
            } else {
              auto cohort = fw.cohort("client");
              auto port = fw.get_port("client", "engine");
              port->set_retry_policy(prmi::RetryPolicy{
                  .timeout_ms = 120, .max_retries = 6, .backoff_ms = 2});
              for (int i = 1; i <= kCalls; ++i) {
                auto r = port->call("scale_sum", {double(i), std::int32_t{3}});
                // allreduce over 2 callee ranks: i*3*(1+2)
                EXPECT_DOUBLE_EQ(std::get<double>(r.ret), i * 9.0);
                auto p = port->call_independent("ping", {std::int32_t(10 * i)},
                                                cohort.rank() % 2);
                EXPECT_EQ(std::get<std::int32_t>(p.ret), 10 * i + 1);
              }
              cohort.barrier();  // quiesce before the shutdown notice
              port->shutdown_provider();
            }
          });
        },
        {.deadlock_timeout_ms = 8000,
         .default_recv_timeout_ms = 2500,
         .faults = rt::FaultPlan{.seed = static_cast<std::uint64_t>(seed),
                                 .drop = 0.05,
                                 .dup = 0.05,
                                 .min_tag = 1 << 20},
         .trace = true});
    for (int r = 0; r < 4; ++r) EXPECT_EQ(outcome[r], "ok");
  }

  // The chaos must actually have fired, and the retry machinery absorbed it.
  EXPECT_GT(ctr("fault.dropped"), dropped0);
  EXPECT_GT(ctr("prmi.retries"), retries0);

  // Counters (including injected-fault and retry totals) ride along in the
  // Chrome trace export.
  const std::string path = ::testing::TempDir() + "/mxn_chaos_trace.json";
  ASSERT_TRUE(trace::write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("prmi.retries"), std::string::npos);
  EXPECT_NE(json.find("fault.dropped"), std::string::npos);
  trace::set_enabled(false);
}

// ---------------------------------------------------------------------------
// DCA coupling under timing chaos
// ---------------------------------------------------------------------------

TEST(FaultDca, CouplingSurvivesDelayChaos) {
  // Delay faults are content-preserving, so a correct protocol must produce
  // bit-identical results under arbitrary timing skew; this soaks the DCA
  // barrier-before-delivery machinery across every user-visible tag
  // (min_tag = 0; internal negative-tag collectives stay spared).
  const char* kSolverSidl = R"(
    package chaosdca {
      interface Solver {
        collective double sum_all(in double x);
        collective void deposit(in parallel array<double,1> data);
      }
    }
  )";
  const auto delayed0 = ctr("fault.delayed");
  for (int seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    rt::spawn(
        4,
        [&](rt::Communicator& world) {
          dca::DcaFramework fw(world);
          fw.instantiate("client", iota_ranks(0, 2));
          fw.instantiate("server", iota_ranks(2, 2));
          std::vector<double> deposited;
          if (fw.member_of("server")) {
            auto pkg = mxn::sidl::parse_package(kSolverSidl);
            auto s = std::make_shared<dca::DcaServant>(
                pkg.interface("Solver"));
            s->bind("sum_all", [](dca::DcaContext& ctx,
                                  std::vector<dca::DcaValue>& args)
                        -> dca::DcaValue {
              return ctx.cohort.allreduce(
                  std::get<double>(args[0]) * (ctx.cohort.rank() + 1),
                  [](double a, double b) { return a + b; });
            });
            s->bind("deposit", [&](dca::DcaContext&,
                                   std::vector<dca::DcaValue>& args)
                        -> dca::DcaValue {
              const auto& in = std::get<dca::ParallelIn>(args[0]);
              deposited.clear();
              for (const auto& chunk : in.chunks)
                deposited.insert(deposited.end(), chunk.begin(), chunk.end());
              return {};
            });
            fw.add_provides("server", "solver", s);
          } else {
            auto pkg = mxn::sidl::parse_package(kSolverSidl);
            fw.register_uses("client", "solver", pkg.interface("Solver"));
          }
          fw.connect("client", "solver", "server", "solver");
          if (fw.member_of("server")) {
            fw.serve("server", 2);
            const double base = 100.0 * fw.cohort("server").rank();
            ASSERT_EQ(deposited.size(), 2u);
            EXPECT_DOUBLE_EQ(deposited[0], base);
            EXPECT_DOUBLE_EQ(deposited[1], 1000 + base);
          } else {
            auto cohort = fw.cohort("client");
            auto port = fw.get_port("client", "solver");
            auto r = port->call(cohort, "sum_all", {2.0});
            EXPECT_DOUBLE_EQ(std::get<double>(r.ret), 2.0 * (1 + 2));
            dca::ParallelOut po;
            const double base = cohort.rank() == 0 ? 0.0 : 1000.0;
            po.data = {base + 0, base + 100};
            po.counts = {1, 1};
            po.displs = {0, 1};
            port->call(cohort, "deposit", {std::move(po)});
          }
        },
        {.deadlock_timeout_ms = 8000,
         .faults = rt::FaultPlan{.seed = static_cast<std::uint64_t>(seed),
                                 .delay = 0.5,
                                 .delay_ms = 1,
                                 .min_tag = 0}});
  }
  EXPECT_GT(ctr("fault.delayed"), delayed0);
}
