// Tests for elastic M×N rescaling (docs/RESCALING.md): Layout validation,
// schedule-cache epoch lifecycle, live grow/shrink repartitioning with
// element-exact migration, the unchanged-side keep path, and the acceptance
// chaos scenario — a component rescaled 4×3 → 6×2 → 2×5 → 4×3 mid-stream under
// seeded faults, with transfers staying element-exact and an interleaved
// PRMI conversation staying exactly-once.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "core/mxn_component.hpp"
#include "prmi/distributed_framework.hpp"
#include "rt/runtime.hpp"
#include "sched/cache.hpp"
#include "sidl/parser.hpp"
#include "trace/trace.hpp"

namespace core = mxn::core;
namespace dad = mxn::dad;
namespace prmi = mxn::prmi;
namespace rt = mxn::rt;
namespace sched = mxn::sched;
namespace trace = mxn::trace;
using dad::AxisDist;
using dad::Point;

namespace {

constexpr dad::Index kRows = 24;
constexpr dad::Index kCols = 10;

double value_at(const Point& p) { return 7.0 * p[0] + p[1]; }

/// The side-`s` decomposition of the shared kRows×kCols global array for a
/// cohort of `n` ranks. The two sides deliberately use different
/// distribution kinds so every transfer and every migration actually
/// redistributes.
dad::DescriptorPtr desc_for(int s, int n) {
  if (s == 0)
    return dad::make_regular(
        std::vector<AxisDist>{AxisDist::block(kRows, n),
                              AxisDist::collapsed(kCols)});
  return dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(kRows, n), AxisDist::collapsed(kCols)});
}

int index_in(const std::vector<int>& ranks, int r) {
  for (std::size_t i = 0; i < ranks.size(); ++i)
    if (ranks[i] == r) return static_cast<int>(i);
  return -1;
}

void expect_exact(dad::DistArray<double>& arr) {
  arr.for_each_owned([&](const Point& p, const double& v) {
    EXPECT_DOUBLE_EQ(v, value_at(p)) << "at (" << p[0] << "," << p[1] << ")";
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

TEST(RescaleLayout, ValidationAndSideLookup) {
  core::Layout l{{0, 1, 2}, {4, 6}};
  l.validate(8);
  EXPECT_EQ(l.side_of(1), 0);
  EXPECT_EQ(l.side_of(6), 1);
  EXPECT_EQ(l.side_of(3), -1);  // spectator
  EXPECT_EQ(l.side(0).size(), 3u);
  EXPECT_EQ(l.side(1).size(), 2u);

  EXPECT_THROW((core::Layout{{}, {0}}.validate(4)), rt::UsageError);
  EXPECT_THROW((core::Layout{{0}, {}}.validate(4)), rt::UsageError);
  EXPECT_THROW((core::Layout{{0, 4}, {1}}.validate(4)), rt::UsageError);
  EXPECT_THROW((core::Layout{{0, -1}, {1}}.validate(4)), rt::UsageError);
  EXPECT_THROW((core::Layout{{0, 1}, {1, 2}}.validate(4)), rt::UsageError);
  EXPECT_THROW((core::Layout{{0, 0}, {1}}.validate(4)), rt::UsageError);
}

// ---------------------------------------------------------------------------
// ScheduleCache epoch lifecycle
// ---------------------------------------------------------------------------

TEST(ScheduleCacheEpoch, RetireDropsOlderGenerations) {
  sched::ScheduleCache cache;
  auto a = desc_for(0, 2);
  auto b = desc_for(1, 3);
  cache.get_shared(a, b, 0, -1);  // epoch 0 entry
  EXPECT_EQ(cache.size(), 1u);

  cache.set_epoch(1);
  EXPECT_EQ(cache.epoch(), 1u);
  auto c = desc_for(1, 2);
  cache.get_shared(a, c, 0, -1);  // epoch 1 entry
  EXPECT_EQ(cache.size(), 2u);

  EXPECT_EQ(cache.retire_epochs_before(1), 1u);  // only the epoch-0 entry
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.retire_epochs_before(1), 0u);  // idempotent
}

TEST(ScheduleCacheEpoch, HitRestampsEntry) {
  // An entry reused after the epoch advances is touched to the current
  // epoch, so a connection that re-resolved the same schedule across a
  // rescale never sees its reference retired from under it.
  sched::ScheduleCache cache;
  auto a = desc_for(0, 2);
  auto b = desc_for(1, 3);
  cache.get_shared(a, b, 0, -1);  // built at epoch 0
  cache.set_epoch(5);
  cache.get_shared(a, b, 0, -1);  // hit: re-stamped to epoch 5
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.retire_epochs_before(5), 0u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ScheduleCacheEpoch, VersionedDescriptorsAreDistinctKeys) {
  // with_version() changes the structural hash, so descriptors of different
  // rescale generations never collide in the cache even when the
  // decomposition is identical.
  auto a = desc_for(0, 2);
  auto a2 = std::make_shared<const dad::Descriptor>(a->with_version(3));
  EXPECT_FALSE(*a == *a2);
  EXPECT_NE(a->structural_hash(), a2->structural_hash());
  EXPECT_TRUE(a->same_shape(*a2));
  EXPECT_EQ(a2->version(), 3u);

  sched::ScheduleCache cache;
  auto b = desc_for(1, 3);
  cache.get_shared(a, b, 0, -1);
  cache.get_shared(a2, b, 0, -1);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ScheduleCacheEpoch, RetireForgetsPinnedEvictedEntriesOfOlderEpochs) {
  sched::ScheduleCacheConfig cfg;
  cfg.max_entries = 1;
  sched::ScheduleCache cache(cfg);
  auto a = desc_for(0, 2);
  auto b = desc_for(1, 3);
  auto c = desc_for(1, 2);

  const auto old_pin = cache.get_shared(a, b, 0, -1);  // epoch 0
  cache.set_epoch(1);
  cache.get_shared(a, c, 0, -1);  // evicts the pinned epoch-0 entry
  EXPECT_EQ(cache.retire_epochs_before(1), 0u);  // nothing resident is older
  const auto rebuilt = cache.get_shared(a, b, 0, -1);
  EXPECT_NE(rebuilt, old_pin);  // forgotten, not revived across the epoch
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.revived(), 0u);

  // A pinned entry of the current epoch stays revivable across retirement.
  cache.get_shared(a, c, 0, -1);  // evicts `rebuilt`, stamped 1
  EXPECT_EQ(cache.retire_epochs_before(1), 0u);
  EXPECT_EQ(cache.get_shared(a, b, 0, -1), rebuilt);
  EXPECT_EQ(cache.revived(), 1u);
}

// ---------------------------------------------------------------------------
// Elastic components
// ---------------------------------------------------------------------------

TEST(Rescale, NonElasticComponentRejected) {
  rt::spawn(2, [](rt::Communicator& world) {
    auto comp = core::make_paired_mxn(world, 1, 1);
    EXPECT_FALSE(comp->elastic());
    EXPECT_THROW(comp->rescale(core::Layout{{0}, {1}}, {}), rt::UsageError);
  });
}

TEST(Rescale, ElasticRejectsPairedProposals) {
  rt::spawn(3, [](rt::Communicator& world) {
    auto comp = core::make_elastic_mxn(world, core::Layout{{0, 1}, {2}});
    core::ConnectionSpec spec;
    EXPECT_TRUE(comp->elastic());
    EXPECT_THROW(comp->propose(spec), rt::UsageError);
    EXPECT_THROW(comp->accept_proposal(), rt::UsageError);
  });
}

namespace {

/// Drive one rank of an elastic component through the layout sequence:
/// establish a persistent side0→side1 connection, then per epoch transfer,
/// verify element-exactness on BOTH sides (side 0 checks that migration
/// preserved its data — it is only filled once, before the first epoch),
/// and rescale to the next layout.
void run_rescale_sequence(rt::Communicator& world,
                          const std::vector<core::Layout>& layouts,
                          bool reliable, int timeout_ms, int max_retries) {
  const int me = world.rank();
  auto comp = core::make_elastic_mxn(world, layouts[0]);
  EXPECT_EQ(comp->is_member(), layouts[0].side_of(me) >= 0);

  int side = layouts[0].side_of(me);
  std::unique_ptr<dad::DistArray<double>> arr;
  if (side >= 0) {
    const auto& ranks = layouts[0].side(side);
    arr = std::make_unique<dad::DistArray<double>>(
        desc_for(side, static_cast<int>(ranks.size())), index_in(ranks, me));
    if (side == 0) arr->fill(value_at);
    comp->register_field(
        core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
  }

  core::ConnectionSpec spec;
  spec.src_field = spec.dst_field = "f";
  spec.src_side = 0;
  spec.one_shot = false;
  spec.reliable = reliable;
  spec.timeout_ms = timeout_ms;
  spec.max_retries = max_retries;
  comp->establish(spec);

  for (std::size_t e = 0; e < layouts.size(); ++e) {
    if (side >= 0) {
      EXPECT_EQ(comp->data_ready("f"), 1);
      expect_exact(*arr);
    }
    if (e + 1 == layouts.size()) break;

    const core::Layout& next_layout = layouts[e + 1];
    const int next_side = next_layout.side_of(me);
    std::unique_ptr<dad::DistArray<double>> next;
    std::vector<core::FieldRegistration> regs;
    if (next_side >= 0) {
      const auto& ranks = next_layout.side(next_side);
      next = std::make_unique<dad::DistArray<double>>(
          desc_for(next_side, static_cast<int>(ranks.size())),
          index_in(ranks, me));
      regs.push_back(
          core::make_field("f", next.get(), core::AccessMode::ReadWrite));
    }
    comp->rescale(next_layout, std::move(regs), timeout_ms, max_retries);
    arr = std::move(next);  // the old generation's array may die now
    side = next_side;
    EXPECT_EQ(comp->rescale_epoch(), e + 1);
    if (side >= 0) expect_exact(*arr);  // migration was element-exact
  }

  const auto& st = comp->rescale_stats();
  EXPECT_EQ(st.epochs, layouts.size() - 1);
  EXPECT_EQ(comp->layout().side0, layouts.back().side0);
  EXPECT_EQ(comp->layout().side1, layouts.back().side1);
  if (me == 0) {
    // Data moved somewhere in the channel each epoch; this rank saw at
    // least the fence.
    EXPECT_GE(st.stall_ns, 0);
    EXPECT_GE(st.rescale_ns, 0);
  }
}

const std::vector<core::Layout> kAcceptanceLayouts = {
    {{0, 1, 2, 3}, {4, 5, 6}},           // 4×3, spectators 7–11
    {{0, 1, 2, 3, 4, 5}, {6, 7}},        // 6×2: grow side 0, shrink side 1
    {{10, 11}, {2, 3, 4, 5, 6}},         // 2×5: promote cold spectators,
                                         // retire 0/1, flip 2–5 to side 1
    {{0, 1, 2, 3}, {4, 5, 6}},           // back to 4×3: side 1 shrinks INTO
                                         // an overlapping subset — cyclic
                                         // survivors 4/5/6 mutually exchange
                                         // regions (regression: the exchange
                                         // must stage before its ack wait or
                                         // this cycle deadlocks)
};

}  // namespace

TEST(Rescale, GrowShrinkPreservesDataExactly) {
  rt::spawn(12, [&](rt::Communicator& world) {
    run_rescale_sequence(world, kAcceptanceLayouts, /*reliable=*/false,
                         /*timeout_ms=*/-1, /*max_retries=*/2);
  });
}

TEST(Rescale, CountersAdvance) {
  trace::set_enabled(true);
  const auto epochs0 = trace::counter("rescale.epochs").value();
  const auto bytes0 = trace::counter("rescale.migrated_bytes").value() +
                      trace::counter("rescale.local_bytes").value();
  rt::spawn(12, [&](rt::Communicator& world) {
    run_rescale_sequence(world, kAcceptanceLayouts, false, -1, 2);
  });
  // 12 ranks × 3 rescales each.
  EXPECT_EQ(trace::counter("rescale.epochs").value() - epochs0, 36u);
  // Both transitions change every rank list, so the field bytes moved —
  // locally or on the wire — at least once per migrated side.
  EXPECT_GT(trace::counter("rescale.migrated_bytes").value() +
                trace::counter("rescale.local_bytes").value(),
            bytes0);
}

TEST(Rescale, RoundTripUnderAOneEntryCacheRevivesSharedSchedules) {
  // Three connections over two templates ("f" twice, "g" once) and a
  // one-entry schedule cache: every establish and re-establish evicts a
  // schedule the other connections still pin, and the second "f"
  // connection revives it. A -> B -> A must move exact data in every
  // epoch, with one build per template per epoch on every member.
  const core::Layout a{{0, 1}, {2, 3}};
  const core::Layout b{{0, 1, 2}, {3, 4}};
  const std::vector<core::Layout> layouts = {a, b, a};
  rt::spawn(5, [&](rt::Communicator& world) {
    const int me = world.rank();
    auto comp = core::make_elastic_mxn(world, layouts[0]);
    sched::ScheduleCacheConfig cfg;
    cfg.max_entries = 1;
    comp->configure_schedule_cache(cfg);

    // "g" swaps the two sides' decompositions, so it is a distinct key.
    using Array = std::unique_ptr<dad::DistArray<double>>;
    Array f, g;
    auto make_fields = [&](const core::Layout& l, Array& nf, Array& ng) {
      std::vector<core::FieldRegistration> regs;
      const int s = l.side_of(me);
      if (s < 0) return regs;
      const auto n = static_cast<int>(l.side(s).size());
      const int r = index_in(l.side(s), me);
      nf = std::make_unique<dad::DistArray<double>>(desc_for(s, n), r);
      ng = std::make_unique<dad::DistArray<double>>(desc_for(1 - s, n), r);
      regs.push_back(
          core::make_field("f", nf.get(), core::AccessMode::ReadWrite));
      regs.push_back(
          core::make_field("g", ng.get(), core::AccessMode::ReadWrite));
      return regs;
    };
    for (auto& r : make_fields(layouts[0], f, g)) comp->register_field(r);
    if (layouts[0].side_of(me) == 0) {
      f->fill(value_at);
      g->fill(value_at);
    }
    core::ConnectionSpec spec;
    spec.src_side = 0;
    spec.one_shot = false;
    for (const char* name : {"f", "g", "f"}) {
      spec.src_field = spec.dst_field = name;
      comp->establish(spec);
    }

    for (std::size_t e = 0; e < layouts.size(); ++e) {
      if (e > 0) {
        Array nf, ng;  // the old arrays source the migration
        comp->rescale(layouts[e], make_fields(layouts[e], nf, ng));
        f = std::move(nf);
        g = std::move(ng);
      }
      if (layouts[e].side_of(me) < 0) continue;
      EXPECT_EQ(comp->data_ready("f"), 2);
      EXPECT_EQ(comp->data_ready("g"), 1);
      expect_exact(*f);
      expect_exact(*g);
    }
    if (me <= 3) {  // a member in every epoch
      const auto st = comp->schedule_cache_stats();
      EXPECT_EQ(st.misses, 2u * layouts.size());
      EXPECT_GE(st.revived, layouts.size());
    }
  });
}

TEST(Rescale, UnchangedSideKeepsRegistrations) {
  // Side 1's rank list is identical across the rescale, so its members may
  // skip re-registration: the old arrays stay live, untouched.
  rt::spawn(5, [](rt::Communicator& world) {
    const int me = world.rank();
    const core::Layout before{{0, 1}, {2, 3}};
    const core::Layout after{{0, 1, 4}, {2, 3}};
    auto comp = core::make_elastic_mxn(world, before);

    int side = before.side_of(me);
    std::unique_ptr<dad::DistArray<double>> arr;
    if (side >= 0) {
      const auto& ranks = before.side(side);
      arr = std::make_unique<dad::DistArray<double>>(
          desc_for(side, static_cast<int>(ranks.size())),
          index_in(ranks, me));
      if (side == 0) arr->fill(value_at);
      comp->register_field(
          core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
    }
    core::ConnectionSpec spec;
    spec.src_field = spec.dst_field = "f";
    spec.src_side = 0;
    spec.one_shot = false;
    comp->establish(spec);
    if (side >= 0) {
      EXPECT_EQ(comp->data_ready("f"), 1);
    }

    const int next_side = after.side_of(me);
    std::unique_ptr<dad::DistArray<double>> next;
    std::vector<core::FieldRegistration> regs;
    if (next_side == 0) {  // side 0 grew: every member re-registers
      const auto& ranks = after.side(0);
      next = std::make_unique<dad::DistArray<double>>(
          desc_for(0, static_cast<int>(ranks.size())), index_in(ranks, me));
      regs.push_back(
          core::make_field("f", next.get(), core::AccessMode::ReadWrite));
    }
    comp->rescale(after, std::move(regs));
    if (next_side == 0) {
      arr = std::move(next);
      expect_exact(*arr);
    } else if (next_side == 1) {
      // Kept registration: same array object, data intact.
      expect_exact(*arr);
    }
    if (next_side >= 0) {
      const int moved = comp->data_ready("f");
      EXPECT_EQ(moved, 1);
      expect_exact(*arr);
    }
  });
}

TEST(Rescale, ManyPatchGrowCopiesLocallyAndOverTheWire) {
  // Side 0 grows from cyclic over {0,1} to cyclic over {0,1,3}: 8192 and
  // then ~5461 one-element patches per rank. Elements whose owner stays
  // put move by the local copy, the rest over the reliable exchange; both
  // index the named patches on each end.
  constexpr dad::Index kN = 16384;
  rt::spawn(4, [](rt::Communicator& world) {
    const int me = world.rank();
    const core::Layout before{{0, 1}, {2}};  // rank 3 is a spectator
    const core::Layout after{{0, 1, 3}, {2}};
    const auto desc = [](int s, std::size_t n) {
      const int p = static_cast<int>(n);
      return dad::make_regular(std::vector<AxisDist>{
          s == 0 ? AxisDist::cyclic(kN, p) : AxisDist::block(kN, p)});
    };
    const auto value = [](const Point& p) { return 3.0 * p[0] + 0.5; };
    auto comp = core::make_elastic_mxn(world, before);
    const int side = before.side_of(me);
    std::unique_ptr<dad::DistArray<double>> arr;
    if (side >= 0) {
      const auto& ranks = before.side(side);
      arr = std::make_unique<dad::DistArray<double>>(desc(side, ranks.size()),
                                                     index_in(ranks, me));
      arr->fill(value);
      comp->register_field(
          core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
    }
    std::unique_ptr<dad::DistArray<double>> next;
    std::vector<core::FieldRegistration> regs;
    if (after.side_of(me) == 0) {  // side 1 keeps its registration
      const auto& ranks = after.side(0);
      next = std::make_unique<dad::DistArray<double>>(desc(0, ranks.size()),
                                                      index_in(ranks, me));
      regs.push_back(
          core::make_field("f", next.get(), core::AccessMode::ReadWrite));
    }
    comp->rescale(after, std::move(regs));
    if (next) {
      next->for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, value(p));
      });
    }
    if (me == 0 || me == 1) {
      EXPECT_GT(comp->rescale_stats().local_bytes, 0u);
    }
  });
}

TEST(Rescale, OverlapShrinkMutualExchange) {
  // Shrinking a cyclic side into an overlapping subset makes the surviving
  // ranks exchange regions with EACH OTHER: with cyclic(24,3) → cyclic(24,2)
  // on {2,3} ⊂ {2,3,4}, ranks 2 and 3 each send to and receive from the
  // other. The reliable exchange must stage incoming data before waiting
  // for its own acks, or this two-cycle deadlocks (each rank parked in its
  // ack wait, nobody staging).
  rt::spawn(5, [](rt::Communicator& world) {
    run_rescale_sequence(world,
                         {{{0, 1}, {2, 3, 4}}, {{0, 1}, {2, 3}}},
                         /*reliable=*/false, /*timeout_ms=*/-1,
                         /*max_retries=*/2);
  });
}

// ---------------------------------------------------------------------------
// Acceptance: chaos rescale with interleaved exactly-once PRMI
// ---------------------------------------------------------------------------

namespace {

const char* kBumpSidl = R"(
  package elastic {
    interface Steering {
      independent int bump(in int token);
    }
  }
)";

}  // namespace

namespace {

constexpr int kCallsPerEpoch = 2;

/// Per-epoch fault-exempt (< 2^20) marker tag: the client raises it once it
/// holds every reply of the epoch's steering phase, releasing the server
/// from replay duty (below the PRMI tag range and above the migration tag
/// block, so no fault plan in this file touches it with loss).
constexpr int kPhaseDoneTag = 700000;

/// One full acceptance run under `plan`: 12 ranks, the component rescaled
/// 4×3 → 6×2 → 2×5 → 4×3 mid-stream on reliable connections, a PRMI steering
/// conversation interleaved between epochs. Asserts strict success: every
/// transfer and migration element-exact, every PRMI call answered.
/// `executions` counts server-side handler executions for the caller's
/// exactly-once assertion.
void run_chaos_scenario(const rt::FaultPlan& plan,
                        std::atomic<int>& executions) {
  rt::spawn(
      12,
      [&](rt::Communicator& world) {
          const int me = world.rank();
          prmi::DistributedFramework fw(world);
          fw.instantiate("client", {0});
          fw.instantiate("server", {7});
          auto pkg = mxn::sidl::parse_package(kBumpSidl);
          if (me == 7) {
            auto servant =
                std::make_shared<prmi::Servant>(pkg.interface("Steering"));
            servant->bind("bump",
                          [&](prmi::CalleeContext&,
                              std::vector<prmi::Value>& args) -> prmi::Value {
                            executions.fetch_add(1);
                            return std::int32_t(
                                std::get<std::int32_t>(args[0]) + 1);
                          });
            fw.add_provides("server", "steer", servant);
          }
          if (me == 0) fw.register_uses("client", "steer",
                                        pkg.interface("Steering"));
          fw.connect("client", "steer", "server", "steer");

          auto comp = core::make_elastic_mxn(world, kAcceptanceLayouts[0]);
          int side = kAcceptanceLayouts[0].side_of(me);
          std::unique_ptr<dad::DistArray<double>> arr;
          if (side >= 0) {
            const auto& ranks = kAcceptanceLayouts[0].side(side);
            arr = std::make_unique<dad::DistArray<double>>(
                desc_for(side, static_cast<int>(ranks.size())),
                index_in(ranks, me));
            if (side == 0) arr->fill(value_at);
            comp->register_field(
                core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
          }

          core::ConnectionSpec spec;
          spec.src_field = spec.dst_field = "f";
          spec.src_side = 0;
          spec.one_shot = false;
          spec.reliable = true;
          spec.timeout_ms = 200;
          spec.max_retries = 12;
          comp->establish(spec);

          for (std::size_t e = 0; e < kAcceptanceLayouts.size(); ++e) {
            if (side >= 0) {
              EXPECT_EQ(comp->data_ready("f"), 1);
              expect_exact(*arr);
            }

            // Interleaved steering conversation while the coupling is live.
            if (me == 7) {
              // Serve exactly this epoch's quota of REAL invocations:
              // deduplicated retransmissions and stray control notices do
              // not count, so the loop re-enters serve() until the quota is
              // met — immune to duplicated traffic from earlier epochs.
              int served = 0;
              while (served < kCallsPerEpoch)
                served += fw.serve("server", kCallsPerEpoch - served);
              // Quota met is not the same as client satisfied: the reply to
              // the phase's last call may have been dropped, in which case
              // the client keeps retransmitting and needs the dedup replay.
              // Stay on non-blocking replay duty until the client's
              // fault-exempt done marker arrives — a blocking serve() here
              // could park the server past the other ranks' recv deadline
              // at the rescale fence.
              const int done_tag = kPhaseDoneTag + static_cast<int>(e);
              while (!world.probe(0, done_tag)) {
                EXPECT_EQ(fw.drain("server"), 0);  // replays only
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              world.recv(0, done_tag);
            } else if (me == 0) {
              auto port = fw.get_port("client", "steer");
              port->set_retry_policy(prmi::RetryPolicy{
                  .timeout_ms = 150, .max_retries = 8, .backoff_ms = 2});
              for (int i = 0; i < kCallsPerEpoch; ++i) {
                const auto token =
                    std::int32_t(100 * static_cast<int>(e) + i);
                auto r = port->call_independent("bump", {token}, 0);
                EXPECT_EQ(std::get<std::int32_t>(r.ret), token + 1);
              }
              world.send(7, kPhaseDoneTag + static_cast<int>(e),
                         rt::Buffer::allocate(1));
            }

            if (e + 1 == kAcceptanceLayouts.size()) break;
            const core::Layout& next_layout = kAcceptanceLayouts[e + 1];
            const int next_side = next_layout.side_of(me);
            std::unique_ptr<dad::DistArray<double>> next;
            std::vector<core::FieldRegistration> regs;
            if (next_side >= 0) {
              const auto& ranks = next_layout.side(next_side);
              next = std::make_unique<dad::DistArray<double>>(
                  desc_for(next_side, static_cast<int>(ranks.size())),
                  index_in(ranks, me));
              regs.push_back(core::make_field("f", next.get(),
                                              core::AccessMode::ReadWrite));
            }
            comp->rescale(next_layout, std::move(regs), /*timeout_ms=*/200,
                          /*max_retries=*/12);
            arr = std::move(next);
            side = next_side;
            if (side >= 0) expect_exact(*arr);
          }
          EXPECT_EQ(comp->rescale_epoch(), kAcceptanceLayouts.size() - 1);
      },
      {.deadlock_timeout_ms = 15000,
       .default_recv_timeout_ms = 4000,
       .faults = plan,
       .trace = true});
}

}  // namespace

TEST(RescaleChaos, MidStreamUnderDupReorderDelayChaos) {
  // The ISSUE acceptance scenario: a live component is rescaled
  // 4×3 → 6×2 → 2×5 → 4×3 while reliable transfers flow under seeded chaos,
  // with
  // a PRMI steering conversation interleaved between epochs. This variant
  // puts duplication, reordering and delivery delay on EVERY message above
  // tag 900 — connection transfers, migration traffic, PRMI — exercising
  // the stale-serial discard, arrival-order staging and per-epoch migration
  // tag isolation paths. These fault classes lose nothing, so strict
  // success is required: element-exact data everywhere, every PRMI call
  // executed exactly once.
  trace::set_enabled(true);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::atomic<int> executions{0};
    run_chaos_scenario(rt::FaultPlan{.seed = seed,
                                     .dup = 0.15,
                                     .reorder = 0.25,
                                     .delay = 0.5,
                                     .delay_ms = 2,
                                     .min_tag = 900},
                       executions);
    EXPECT_EQ(executions.load(),
              kCallsPerEpoch * static_cast<int>(kAcceptanceLayouts.size()));
  }
}

TEST(RescaleChaos, MigrationTagWrapDrainsOldStragglers) {
  // The migration tag block wraps every 64 epochs. Seventy side swaps under
  // duplication leave duplicated migration messages queued on tags a later
  // epoch reuses; the epoch-seeded attempt serial must drain them as stale
  // instead of staging them as current data. Each epoch refills the field
  // with epoch-stamped values, so a staged straggler shows as a wrong value.
  constexpr int kEpochs = 70;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    rt::spawn(
        4,
        [](rt::Communicator& world) {
          const int me = world.rank();
          const core::Layout a{{0, 1}, {2, 3}};
          const core::Layout b{{2, 3}, {0, 1}};
          auto comp = core::make_elastic_mxn(world, a);
          auto array_for = [&](const core::Layout& l) {
            const int s = l.side_of(me);
            return std::make_unique<dad::DistArray<double>>(
                desc_for(s, 2), index_in(l.side(s), me));
          };
          auto arr = array_for(a);
          comp->register_field(
              core::make_field("f", arr.get(), core::AccessMode::ReadWrite));
          int first_bad = -1;
          for (int e = 1; e <= kEpochs; ++e) {
            const double stamp = 1000.0 * e;
            arr->fill([&](const Point& p) { return value_at(p) + stamp; });
            const core::Layout& next_layout = e % 2 != 0 ? b : a;
            auto next = array_for(next_layout);
            std::vector<core::FieldRegistration> regs;
            regs.push_back(
                core::make_field("f", next.get(), core::AccessMode::ReadWrite));
            comp->rescale(next_layout, std::move(regs), /*timeout_ms=*/1000,
                          /*max_retries=*/2);
            arr = std::move(next);
            arr->for_each_owned([&](const Point& p, const double& v) {
              if (v != value_at(p) + stamp && first_bad < 0) first_bad = e;
            });
          }
          EXPECT_EQ(first_bad, -1) << "rank " << me;
        },
        {.deadlock_timeout_ms = 10000,
         .default_recv_timeout_ms = 2000,
         .faults = rt::FaultPlan{.seed = seed,
                                 .dup = 0.3,
                                 .reorder = 0.2,
                                 .min_tag = 900}});
  }
}

TEST(RescaleChaos, ExactlyOncePrmiUnderDropAndDup) {
  // Same mid-stream rescale sequence, with loss-ful chaos (5% drop + 5%
  // dup) scoped to the PRMI invocation tags (>= 2^20). The epoch-keyed
  // retry plus servant dedup must absorb the loss: every steering call
  // returns the right answer and the handler runs exactly once per call —
  // duplicated or retransmitted requests are answered from the dedup
  // registry, never re-executed — while the surrounding transfers and
  // migrations stay element-exact.
  trace::set_enabled(true);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::atomic<int> executions{0};
    run_chaos_scenario(rt::FaultPlan{.seed = seed,
                                     .drop = 0.05,
                                     .dup = 0.05,
                                     .min_tag = 1 << 20},
                       executions);
    EXPECT_EQ(executions.load(),
              kCallsPerEpoch * static_cast<int>(kAcceptanceLayouts.size()));
  }
}
