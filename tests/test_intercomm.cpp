// Tests for the InterComm layer (src/intercomm): partitioned explicit
// descriptors with the distributed schedule builder, LocalArray, and
// timestamp-coordinated import/export under Exact, LowerBound and
// UpperBound matching.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "core/erased_exec.hpp"
#include "intercomm/coupler.hpp"
#include "intercomm/distributed_schedule.hpp"
#include "intercomm/local_array.hpp"
#include "rt/runtime.hpp"

namespace ic = mxn::intercomm;
namespace dad = mxn::dad;
namespace core = mxn::core;
namespace sched = mxn::sched;
namespace rt = mxn::rt;
using dad::AxisDist;
using dad::Patch;
using dad::Point;

namespace {

Patch patch2(dad::Index lo0, dad::Index hi0, dad::Index lo1, dad::Index hi1) {
  return Patch::make(2, Point{lo0, lo1}, Point{hi0, hi1});
}

/// Endpoint configs for exporter ranks [0,m) and importer ranks [m,m+n).
ic::EndpointConfig make_cfg(rt::Communicator world, rt::Communicator cohort,
                            int m, int n, bool exporter, int id = 0) {
  ic::EndpointConfig cfg;
  cfg.channel = std::move(world);
  cfg.cohort = std::move(cohort);
  std::vector<int> exp(m), imp(n);
  std::iota(exp.begin(), exp.end(), 0);
  std::iota(imp.begin(), imp.end(), m);
  cfg.my_ranks = exporter ? exp : imp;
  cfg.peer_ranks = exporter ? imp : exp;
  cfg.coupling_id = id;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalArray
// ---------------------------------------------------------------------------

TEST(LocalArray, FillAtExtractInject) {
  ic::LocalArray<double> a({patch2(0, 2, 0, 3), patch2(5, 7, 1, 3)});
  a.fill([](const Point& p) { return 10.0 * p[0] + p[1]; });
  EXPECT_DOUBLE_EQ(a.at(Point{1, 2}), 12.0);
  EXPECT_DOUBLE_EQ(a.at(Point{6, 1}), 61.0);
  EXPECT_THROW((void)a.at(Point{3, 0}), rt::UsageError);

  auto region = patch2(5, 7, 2, 3);
  std::vector<double> out(2);
  a.extract(region, out.data());
  EXPECT_DOUBLE_EQ(out[0], 52.0);
  EXPECT_DOUBLE_EQ(out[1], 62.0);
  std::vector<double> in = {-1.0, -2.0};
  a.inject(region, in.data());
  EXPECT_DOUBLE_EQ(a.at(Point{5, 2}), -1.0);
}

TEST(LocalArray, RejectsOverlapAndEmpty) {
  EXPECT_THROW(ic::LocalArray<int>({patch2(0, 2, 0, 2), patch2(1, 3, 0, 2)}),
               rt::UsageError);
  EXPECT_THROW(ic::LocalArray<int>({patch2(0, 0, 0, 2)}), rt::UsageError);
}

TEST(LocalArray, ManyPatchesStillRejectOneOverlap) {
  // A cyclic rank's shape, 32768 one-element patches on every other row,
  // then the same along columns.
  for (const bool rows : {true, false}) {
    const auto cell = [rows](dad::Index lo, dad::Index hi) {
      return rows ? patch2(lo, hi, 0, 1) : patch2(0, 1, lo, hi);
    };
    std::vector<Patch> patches;
    for (dad::Index i = 0; i < 32768; ++i)
      patches.push_back(cell(2 * i, 2 * i + 1));
    EXPECT_EQ(ic::LocalArray<int>(patches).local().size(), 32768u);
    // One patch at the end of the list spans cells 999..1000 and overlaps
    // only the patch at 1000, far from it in list order.
    auto overlapping = patches;
    overlapping.push_back(cell(999, 1001));
    EXPECT_THROW(ic::LocalArray<int>{overlapping}, rt::UsageError);
    // A free cell between two patches is no overlap.
    patches.push_back(cell(999, 1000));
    EXPECT_NO_THROW(ic::LocalArray<int>{patches});
  }
}

// ---------------------------------------------------------------------------
// Distributed (partitioned-descriptor) schedule builder
// ---------------------------------------------------------------------------

TEST(PartitionedSchedule, MatchesReplicatedBuilder) {
  // Same decomposition built both ways must produce identical transfers.
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, 2), AxisDist::block(6, 1)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, 3), AxisDist::block(6, 1)});
  const int m = 2, n = 3;
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    auto replicated = sched::build_region_schedule(*src, *dst, ms, md);
    auto partitioned = ic::build_region_schedule_partitioned(
        ms >= 0 ? src->patches_of(ms) : std::vector<Patch>{},
        md >= 0 ? dst->patches_of(md) : std::vector<Patch>{}, c, 50);
    ASSERT_EQ(partitioned.sends.size(), replicated.sends.size());
    for (std::size_t i = 0; i < partitioned.sends.size(); ++i) {
      EXPECT_EQ(partitioned.sends[i].peer, replicated.sends[i].peer);
      EXPECT_EQ(partitioned.sends[i].regions, replicated.sends[i].regions);
    }
    ASSERT_EQ(partitioned.recvs.size(), replicated.recvs.size());
    for (std::size_t i = 0; i < partitioned.recvs.size(); ++i)
      EXPECT_EQ(partitioned.recvs[i].elements,
                replicated.recvs[i].elements);
  });
}

TEST(PartitionedSchedule, MovesIrregularPatchesEndToEnd) {
  // Source: 2 ranks with irregular patches covering [0,6)x[0,4); importers:
  // 2 ranks with a different irregular cover. No global descriptor exists.
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 2, 2);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::vector<Patch> mine;
    if (ms == 0) mine = {patch2(0, 3, 0, 4)};
    if (ms == 1) mine = {patch2(3, 6, 0, 2), patch2(3, 6, 2, 4)};
    if (md == 0) mine = {patch2(0, 6, 0, 1), patch2(0, 6, 3, 4)};
    if (md == 1) mine = {patch2(0, 6, 1, 3)};

    ic::LocalArray<double> arr(mine);
    if (ms >= 0) arr.fill([](const Point& p) { return 7.0 * p[0] + p[1]; });

    auto s = ic::build_region_schedule_partitioned(
        ms >= 0 ? mine : std::vector<Patch>{},
        md >= 0 ? mine : std::vector<Patch>{}, c, 60);

    // Execute through the erased executor.
    auto field = ic::make_local_field("f", &arr);
    core::execute_erased(s, ms >= 0 ? &field : nullptr,
                         md >= 0 ? &field : nullptr, c, 70);
    if (md >= 0) {
      arr.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 7.0 * p[0] + p[1]);
      });
    }
  });
}

TEST(PartitionedSchedule, MovesManyPatchesEndToEnd) {
  // The LocalArray path with 8192 one-element patches per rank: cyclic
  // sources into block importers, then block sources into cyclic importers.
  constexpr dad::Index kN = 16384;
  const auto cyclic_patches = [](int r) {
    std::vector<Patch> ps;
    for (dad::Index i = r; i < kN; i += 2)
      ps.push_back(Patch::make(1, Point{i}, Point{i + 1}));
    return ps;
  };
  const auto block_patch = [](int r) {
    return std::vector<Patch>{
        Patch::make(1, Point{r * kN / 2}, Point{(r + 1) * kN / 2})};
  };
  const auto value = [](const Point& p) { return 2.0 * p[0] + 1.0; };
  for (const bool cyclic_src : {true, false}) {
    rt::spawn(4, [&](rt::Communicator& world) {
      auto c = sched::split_coupling(world, 2, 2);
      const int ms = c.my_src_rank(), md = c.my_dst_rank();
      const int r = ms >= 0 ? ms : md;
      ic::LocalArray<double> arr((ms >= 0) == cyclic_src ? cyclic_patches(r)
                                                         : block_patch(r));
      if (ms >= 0) arr.fill(value);
      const std::vector<Patch> none;
      auto s = ic::build_region_schedule_partitioned(
          ms >= 0 ? arr.patches() : none, md >= 0 ? arr.patches() : none, c,
          100);
      auto field = ic::make_local_field("f", &arr);
      core::execute_erased(s, ms >= 0 ? &field : nullptr,
                           md >= 0 ? &field : nullptr, c, 110);
      if (md >= 0)
        arr.for_each_owned([&](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, value(p));
        });
    });
  }
}

namespace {

/// A source rank runs the partitioned builder against a destination that
/// answers with `reply` in place of the regions it computed; the source
/// must reject the reply with a UsageError.
void expect_reply_rejected(std::vector<std::byte> reply) {
  rt::spawn(2, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 1, 1);
    if (c.my_src_rank() == 0) {
      EXPECT_THROW((void)ic::build_region_schedule_partitioned(
                       {patch2(0, 4, 0, 4)}, {}, c, 90),
                   rt::UsageError);
    } else {
      (void)world.recv(0, 90);  // the source's patch list
      world.send(0, 91, std::move(reply));
    }
  });
}

std::vector<std::byte> one_region_reply(const Patch& region,
                                        std::uint32_t src_patch) {
  rt::PackBuffer b;
  b.pack(std::uint64_t{1});
  region.pack(b);
  b.pack(src_patch);
  b.pack(std::uint32_t{0});
  return std::move(b).take();
}

}  // namespace

TEST(PartitionedSchedule, RejectsHostileReply) {
  // A region count no payload could hold, with no bytes behind it.
  rt::PackBuffer huge;
  huge.pack(std::uint64_t{1} << 40);
  expect_reply_rejected(std::move(huge).take());
  // A source patch index past the local patch list.
  expect_reply_rejected(one_region_reply(patch2(0, 2, 0, 2), 1));
  // A region outside the local patch it names.
  expect_reply_rejected(one_region_reply(patch2(2, 6, 0, 2), 0));
}

// ---------------------------------------------------------------------------
// Timestamp-coordinated import/export
// ---------------------------------------------------------------------------

namespace {

/// Run an exporter program (m ranks) against an importer program (n ranks).
void run_coupled(
    int m, int n, ic::MatchPolicy policy, int depth,
    const std::function<void(ic::Exporter&, dad::DistArray<double>&,
                             rt::Communicator&)>& exporter_body,
    const std::function<void(ic::Importer&, dad::DistArray<double>&,
                             rt::Communicator&)>& importer_body) {
  auto exp_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, m)});
  auto imp_desc = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(12, n)});
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_exp = world.rank() < m;
    auto cohort = world.split(is_exp ? 0 : 1, world.rank());
    auto cfg = make_cfg(world, cohort, m, n, is_exp);
    if (is_exp) {
      dad::DistArray<double> arr(exp_desc, cohort.rank());
      auto exp = ic::Exporter::replicated(
          cfg, core::make_field("f", &arr, core::AccessMode::Read), policy,
          depth);
      exporter_body(exp, arr, cohort);
      exp.finalize();
    } else {
      dad::DistArray<double> arr(imp_desc, cohort.rank());
      auto imp = ic::Importer::replicated(
          cfg, core::make_field("f", &arr, core::AccessMode::Write), policy);
      importer_body(imp, arr, cohort);
      imp.close();
    }
  });
}

}  // namespace

TEST(Coupler, ExactMatchSamplesEveryOtherStep) {
  // Exporter produces ts = 1..6; importer samples ts = 2, 4, 6. Buffer deep
  // enough that no export ages out regardless of timing.
  run_coupled(
      2, 2, ic::MatchPolicy::Exact, 8,
      [](ic::Exporter& exp, dad::DistArray<double>& arr, rt::Communicator&) {
        for (int t = 1; t <= 6; ++t) {
          arr.fill([t](const Point& p) { return 100.0 * t + p[0]; });
          exp.do_export(t);
        }
      },
      [](ic::Importer& imp, dad::DistArray<double>& arr, rt::Communicator&) {
        for (int t = 2; t <= 6; t += 2) {
          EXPECT_EQ(imp.do_import(t), t);
          arr.for_each_owned([t](const Point& p, const double& v) {
            EXPECT_DOUBLE_EQ(v, 100.0 * t + p[0]);
          });
        }
      });
}

TEST(Coupler, LowerBoundPicksGreatestEarlierExport) {
  // Exports at ts = 10, 20, 30; import at 25 must match 20; import at 31
  // is only decidable at stream end (finalize) and matches 30.
  run_coupled(
      2, 1, ic::MatchPolicy::LowerBound, 4,
      [](ic::Exporter& exp, dad::DistArray<double>& arr, rt::Communicator&) {
        for (int t : {10, 20, 30}) {
          arr.fill([t](const Point& p) { return t + 0.001 * p[0]; });
          exp.do_export(t);
        }
      },
      [](ic::Importer& imp, dad::DistArray<double>& arr, rt::Communicator&) {
        EXPECT_EQ(imp.do_import(25), 20);
        arr.for_each_owned([](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, 20 + 0.001 * p[0]);
        });
        EXPECT_EQ(imp.do_import(31), 30);
      });
}

TEST(Coupler, UpperBoundWaitsForFreshEnoughData) {
  // Exports at ts = 10, 20, 30. An import at 12 must match 20 — and is
  // only decidable once an export >= 12 exists; an import at 31 has no
  // match even at stream end.
  run_coupled(
      1, 2, ic::MatchPolicy::UpperBound, 8,
      [](ic::Exporter& exp, dad::DistArray<double>& arr, rt::Communicator&) {
        for (int t : {10, 20, 30}) {
          arr.fill([t](const Point& p) { return t + 0.5 * p[0]; });
          exp.do_export(t);
        }
      },
      [](ic::Importer& imp, dad::DistArray<double>& arr, rt::Communicator&) {
        EXPECT_EQ(imp.do_import(12), 20);
        arr.for_each_owned([](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, 20 + 0.5 * p[0]);
        });
        EXPECT_EQ(imp.do_import(30), 30);
        EXPECT_THROW(imp.do_import(31), ic::NoMatchError);
      });
}

TEST(Coupler, ExactMissThrowsNoMatch) {
  // Import ts=5 while exports are 2, 4, 6: decidable (max >= 5), no match.
  run_coupled(
      1, 1, ic::MatchPolicy::Exact, 4,
      [](ic::Exporter& exp, dad::DistArray<double>& arr, rt::Communicator&) {
        for (int t : {2, 4, 6}) {
          arr.fill([](const Point&) { return 0.0; });
          exp.do_export(t);
        }
      },
      [](ic::Importer& imp, dad::DistArray<double>&, rt::Communicator&) {
        EXPECT_THROW(imp.do_import(5), ic::NoMatchError);
        EXPECT_EQ(imp.do_import(6), 6);
      });
}

TEST(Coupler, BufferDepthAgesOutOldExports) {
  // Depth 2: after exports 1,2,3 only {2,3} remain; Exact import of 1 fails.
  run_coupled(
      1, 1, ic::MatchPolicy::Exact, 2,
      [](ic::Exporter& exp, dad::DistArray<double>& arr, rt::Communicator&) {
        for (int t : {1, 2, 3}) {
          arr.fill([](const Point&) { return 1.0; });
          exp.do_export(t);
        }
      },
      [](ic::Importer& imp, dad::DistArray<double>&, rt::Communicator&) {
        // Let the exporter finish all three exports first, so ts=1 has
        // deterministically aged out of its depth-2 buffer.
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        EXPECT_THROW(imp.do_import(1), ic::NoMatchError);
        EXPECT_EQ(imp.do_import(3), 3);
      });
}

TEST(Coupler, ExporterRunsAheadWithoutBlocking) {
  // The exporter finishes all its exports before the importer asks for
  // anything — the asynchronous decoupling §4.4 emphasizes.
  run_coupled(
      2, 2, ic::MatchPolicy::LowerBound, 8,
      [](ic::Exporter& exp, dad::DistArray<double>& arr, rt::Communicator&) {
        for (int t = 1; t <= 5; ++t) {
          arr.fill([t](const Point& p) { return 10.0 * t + p[0]; });
          exp.do_export(t);
        }
        // All exports issued; finalize() (in the harness) answers imports.
      },
      [](ic::Importer& imp, dad::DistArray<double>& arr, rt::Communicator&) {
        EXPECT_EQ(imp.do_import(3), 3);
        EXPECT_EQ(imp.do_import(100), 5);  // end-of-stream lower bound
        arr.for_each_owned([](const Point& p, const double& v) {
          EXPECT_DOUBLE_EQ(v, 50.0 + p[0]);
        });
      });
}

TEST(Coupler, StatsCountTransfersAndMisses) {
  run_coupled(
      1, 1, ic::MatchPolicy::Exact, 4,
      [](ic::Exporter& exp, dad::DistArray<double>& arr, rt::Communicator&) {
        arr.fill([](const Point&) { return 0.0; });
        exp.do_export(1);
        exp.do_export(2);
      },
      [](ic::Importer& imp, dad::DistArray<double>&, rt::Communicator&) {
        EXPECT_EQ(imp.do_import(2), 2);
        EXPECT_THROW(imp.do_import(7), ic::NoMatchError);
        EXPECT_EQ(imp.stats().transfers, 1u);
        EXPECT_EQ(imp.stats().requests, 2u);
        EXPECT_EQ(imp.stats().unmatched, 1u);
      });
}

TEST(Coupler, PartitionedCouplingMovesData) {
  // Explicit irregular patches on both sides, coupled with timestamps.
  rt::spawn(3, [&](rt::Communicator& world) {
    const bool is_exp = world.rank() < 2;
    auto cohort = world.split(is_exp ? 0 : 1, world.rank());
    auto cfg = make_cfg(world, cohort, 2, 1, is_exp, 1);
    if (is_exp) {
      std::vector<Patch> mine = cohort.rank() == 0
                                    ? std::vector<Patch>{patch2(0, 4, 0, 2)}
                                    : std::vector<Patch>{patch2(0, 4, 2, 5)};
      ic::LocalArray<double> arr(mine);
      arr.fill([](const Point& p) { return 5.0 * p[0] + p[1]; });
      auto exp = ic::Exporter::partitioned(cfg,
                                           ic::make_local_field("f", &arr),
                                           mine, ic::MatchPolicy::Exact, 2);
      exp.do_export(1);
      exp.finalize();
    } else {
      std::vector<Patch> mine = {patch2(0, 4, 0, 5)};
      ic::LocalArray<double> arr(mine);
      auto imp = ic::Importer::partitioned(cfg,
                                           ic::make_local_field("f", &arr),
                                           mine, ic::MatchPolicy::Exact);
      EXPECT_EQ(imp.do_import(1), 1);
      arr.for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 5.0 * p[0] + p[1]);
      });
      imp.close();
    }
  });
}
