// Tests for communication-schedule computation and execution (src/sched):
// builder correctness, the redistribution-is-a-permutation property across
// random template pairs, linearization-based schedules (incl. transpose),
// the receiver-driven protocol, and the schedule cache.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <type_traits>

#include "rt/runtime.hpp"
#include "sched/cache.hpp"
#include "sched/executor.hpp"
#include "sched/receiver_driven.hpp"

namespace dad = mxn::dad;
namespace lin = mxn::linear;
namespace sched = mxn::sched;
namespace rt = mxn::rt;
using dad::AxisDist;
using dad::Descriptor;
using dad::DescriptorPtr;
using dad::Index;
using dad::Point;

namespace {

double tagged(const Point& p) { return 1000.0 * p[0] + p[1] + 0.25; }
double tagged1(const Point& p) { return static_cast<double>(p[0]) + 0.5; }

/// A 12-byte element: neither of the copy kernels' 4- or 8-byte widths, so
/// it takes the executor's generic-width path end to end.
struct Elem12 {
  float x, y, z;
  bool operator==(const Elem12&) const = default;
};
static_assert(sizeof(Elem12) == 12);

template <class T>
T element(double v) {
  if constexpr (std::is_same_v<T, Elem12>)
    return {static_cast<float>(v), static_cast<float>(2 * v),
            static_cast<float>(-v)};
  else
    return v;
}

/// Run a full M x N redistribution with spawn(M+N) and verify every
/// destination element equals the source value at the same global point.
template <class T = double>
void run_redistribution(const DescriptorPtr& src, const DescriptorPtr& dst) {
  const int m = src->nranks();
  const int n = dst->nranks();
  const auto value = [&](const Point& p) {
    return element<T>(src->ndim() == 1 ? tagged1(p) : tagged(p));
  };
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank();
    const int md = c.my_dst_rank();

    std::unique_ptr<dad::DistArray<T>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<T>>(src, ms);
      a->fill(value);
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<T>>(dst, md);

    auto s = sched::build_region_schedule(*src, *dst, ms, md);
    sched::execute<T>(s, a.get(), b.get(), c, 7);

    if (md >= 0) {
      b->for_each_owned([&](const Point& p, const T& v) {
        EXPECT_EQ(v, value(p)) << "at point " << p[0] << "," << p[1];
      });
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Region schedule builder
// ---------------------------------------------------------------------------

TEST(RegionSchedule, ElementCountsAreConserved) {
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 3)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 4)});
  Index sent = 0, received = 0;
  for (int r = 0; r < 3; ++r)
    sent += sched::build_region_schedule(*src, *dst, r, -1).send_elements();
  for (int r = 0; r < 4; ++r)
    received +=
        sched::build_region_schedule(*src, *dst, -1, r).recv_elements();
  EXPECT_EQ(sent, 24);
  EXPECT_EQ(received, 24);
}

TEST(RegionSchedule, SenderAndReceiverViewsAgree) {
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block_cyclic(20, 2, 3), AxisDist::block(10, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(20, 4), AxisDist::collapsed(10)});
  for (int s = 0; s < src->nranks(); ++s) {
    auto send_view = sched::build_region_schedule(*src, *dst, s, -1);
    for (const auto& pr : send_view.sends) {
      auto recv_view = sched::build_region_schedule(*src, *dst, -1, pr.peer);
      const auto it = std::find_if(
          recv_view.recvs.begin(), recv_view.recvs.end(),
          [&](const sched::PeerRegions& q) { return q.peer == s; });
      ASSERT_NE(it, recv_view.recvs.end());
      EXPECT_EQ(it->elements, pr.elements);
      ASSERT_EQ(it->regions.size(), pr.regions.size());
      for (std::size_t i = 0; i < pr.regions.size(); ++i)
        EXPECT_EQ(it->regions[i], pr.regions[i]) << "piece " << i;
    }
  }
}

TEST(RegionSchedule, IdentityRedistributionIsSelfOnly) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(16, 4)});
  auto s = sched::build_region_schedule(*d, *d, 1, 1);
  ASSERT_EQ(s.sends.size(), 1u);
  EXPECT_EQ(s.sends[0].peer, 1);
  EXPECT_EQ(s.sends[0].elements, 4);
}

TEST(RegionSchedule, ShapeMismatchRejected) {
  auto a = dad::make_regular(std::vector<AxisDist>{AxisDist::block(16, 4)});
  auto b = dad::make_regular(std::vector<AxisDist>{AxisDist::block(17, 4)});
  EXPECT_THROW(sched::build_region_schedule(*a, *b, 0, -1),
               mxn::rt::UsageError);
}

// ---------------------------------------------------------------------------
// End-to-end redistribution: the Figure 1 scenario and friends
// ---------------------------------------------------------------------------

TEST(Redistribute, Fig1EightTo27ThreeDee) {
  // The paper's Figure 1: M=8 (2x2x2 grid) exporting to N=27 (3x3x3 grid).
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, 2), AxisDist::block(12, 2), AxisDist::block(12, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, 3), AxisDist::block(12, 3), AxisDist::block(12, 3)});
  const int m = src->nranks(), n = dst->nranks();
  ASSERT_EQ(m, 8);
  ASSERT_EQ(n, 27);
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<float>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<float>>(src, ms);
      a->fill([](const Point& p) {
        return static_cast<float>(p[0] * 144 + p[1] * 12 + p[2]);
      });
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<float>>(dst, md);
    auto s = sched::build_region_schedule(*src, *dst, ms, md);
    sched::execute<float>(s, a.get(), b.get(), c, 3);
    if (md >= 0) {
      b->for_each_owned([&](const Point& p, const float& v) {
        EXPECT_EQ(v, static_cast<float>(p[0] * 144 + p[1] * 12 + p[2]));
      });
    }
  });
}

TEST(Redistribute, BlockToBlockDifferentCounts) {
  run_redistribution(
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(30, 3)}),
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(30, 5)}));
}

TEST(Redistribute, BlockToCyclic) {
  run_redistribution(
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 4)}),
      dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 3)}));
  // Many-patch input: 8192 one-element patches per rank, on the source side
  // and then on the destination side, so regions index both ends.
  const auto blk =
      dad::make_regular(std::vector<AxisDist>{AxisDist::block(16384, 2)});
  const auto cyc =
      dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(16384, 2)});
  run_redistribution(cyc, blk);
  run_redistribution(blk, cyc);
}

TEST(Redistribute, GeneralizedBlockToExplicit) {
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::generalized_block({7, 0, 9}), AxisDist::block(4, 2)});
  auto dst = dad::make_explicit(
      2, Point{16, 4},
      {{dad::Patch::make(2, Point{0, 0}, Point{16, 1}), 0},
       {dad::Patch::make(2, Point{0, 1}, Point{5, 4}), 1},
       {dad::Patch::make(2, Point{5, 1}, Point{16, 4}), 2}},
      3);
  run_redistribution(src, dst);
}

TEST(Redistribute, ImplicitAxisSource) {
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::implicit({0, 1, 1, 0, 2, 2, 1, 0, 2, 0, 1, 2})});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, 2)});
  run_redistribution(src, dst);
}

TEST(Redistribute, SerialToParallelAndBack) {
  // N=1 on one side: the CUMULVS visualization / steering pattern.
  auto par = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(10, 4), AxisDist::block(6, 1)});
  auto ser = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(10), AxisDist::collapsed(6)});
  run_redistribution(par, ser);
  run_redistribution(ser, par);
}

TEST(Redistribute, SelfCouplingTranspose) {
  // Same cohort re-decomposes a square array from row-block to col-block.
  auto rows = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, 4), AxisDist::collapsed(8)});
  auto cols = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(8), AxisDist::block(8, 4)});
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::self_coupling(world);
    dad::DistArray<double> a(rows, world.rank());
    dad::DistArray<double> b(cols, world.rank());
    a.fill(tagged);
    auto s = sched::build_region_schedule(*rows, *cols, world.rank(),
                                          world.rank());
    sched::execute<double>(s, &a, &b, c, 5);
    b.for_each_owned([&](const Point& p, const double& v) {
      EXPECT_DOUBLE_EQ(v, tagged(p));
    });
  });
}

// Property sweep: random template pairs, checked as full permutations.
class RedistributionSweep : public ::testing::TestWithParam<int> {};

TEST_P(RedistributionSweep, RandomTemplatePairsArePermutations) {
  std::mt19937 rng(GetParam());
  auto rand_axis = [&](Index extent) {
    std::uniform_int_distribution<int> kind(0, 3);
    std::uniform_int_distribution<int> np(1, 4);
    switch (kind(rng)) {
      case 0:
        return AxisDist::block(extent, np(rng));
      case 1:
        return AxisDist::cyclic(extent, np(rng));
      case 2: {
        std::uniform_int_distribution<Index> blk(1, 5);
        return AxisDist::block_cyclic(extent, np(rng), blk(rng));
      }
      default: {
        const int p = np(rng);
        std::vector<Index> sizes(p, 0);
        for (Index i = 0; i < extent; ++i) {
          std::uniform_int_distribution<int> pick(0, p - 1);
          ++sizes[pick(rng)];
        }
        // All-zero guard: dump everything on proc 0 if unlucky.
        Index tot = 0;
        for (auto s : sizes) tot += s;
        if (tot == 0) sizes[0] = extent;
        return AxisDist::generalized_block(std::move(sizes));
      }
    }
  };
  const Index e0 = 11, e1 = 9;
  auto src = std::make_shared<const Descriptor>(
      Descriptor::regular({rand_axis(e0), rand_axis(e1)}));
  auto dst = std::make_shared<const Descriptor>(
      Descriptor::regular({rand_axis(e0), rand_axis(e1)}));
  run_redistribution(src, dst);
  run_redistribution<Elem12>(src, dst);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedistributionSweep,
                         ::testing::Range(1, 13));

TEST(RegionSchedule, PruningIsExact) {
  // Bounding-box pruning must never change the schedule, across irregular
  // template pairs (including ranks owning nothing).
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::generalized_block({7, 0, 9}), AxisDist::block(6, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block_cyclic(16, 3, 2), AxisDist::cyclic(6, 2)});
  for (int r = 0; r < src->nranks(); ++r) {
    auto a = sched::build_region_schedule(*src, *dst, r, -1,
                                          sched::BuildPath::Auto);
    auto b = sched::build_region_schedule(*src, *dst, r, -1,
                                          sched::BuildPath::Reference);
    ASSERT_EQ(a.sends.size(), b.sends.size());
    for (std::size_t i = 0; i < a.sends.size(); ++i) {
      EXPECT_EQ(a.sends[i].peer, b.sends[i].peer);
      EXPECT_EQ(a.sends[i].regions, b.sends[i].regions);
    }
  }
  for (int r = 0; r < dst->nranks(); ++r) {
    auto a = sched::build_region_schedule(*src, *dst, -1, r,
                                          sched::BuildPath::Auto);
    auto b = sched::build_region_schedule(*src, *dst, -1, r,
                                          sched::BuildPath::Reference);
    ASSERT_EQ(a.recvs.size(), b.recvs.size());
    for (std::size_t i = 0; i < a.recvs.size(); ++i)
      EXPECT_EQ(a.recvs[i].elements, b.recvs[i].elements);
  }
}

// ---------------------------------------------------------------------------
// Segment (linearization) schedules
// ---------------------------------------------------------------------------

TEST(SegmentSchedule, MatchesRegionScheduleResult) {
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(12, 2), AxisDist::block(8, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(12, 3), AxisDist::block(8, 2)});
  const auto l = lin::Linearization::row_major(2, Point{12, 8});
  const int m = src->nranks(), n = dst->nranks();
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    std::vector<lin::ProvenancedSegment> pa, pb;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill(tagged);
      pa = lin::footprint_with_provenance(*src, ms, l);
    }
    if (md >= 0) {
      b = std::make_unique<dad::DistArray<double>>(dst, md);
      pb = lin::footprint_with_provenance(*dst, md, l);
    }
    auto s = sched::build_segment_schedule(*src, l, *dst, l, ms, md);
    sched::execute<double>(s, a.get(), ms >= 0 ? &pa : nullptr, b.get(),
                           md >= 0 ? &pb : nullptr, c, 9);
    if (md >= 0)
      b->for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, tagged(p));
      });
  });
}

TEST(SegmentSchedule, MismatchedLinearizationsExpressTranspose) {
  // Source linearized row-major, destination column-major over the
  // transposed shape: dst(i,j) = src(j,i).
  const Index rows = 6, cols = 4;
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(rows, 2), AxisDist::collapsed(cols)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(cols, 2), AxisDist::collapsed(rows)});
  const auto lsrc = lin::Linearization::row_major(2, Point{rows, cols});
  // Column-major over the (cols, rows)-shaped destination enumerates
  // dst(:, k) fastest — the same order as src rows.
  const auto ldst = lin::Linearization::column_major(2, Point{cols, rows});
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 2, 2);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    std::vector<lin::ProvenancedSegment> pa, pb;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill(tagged);
      pa = lin::footprint_with_provenance(*src, ms, lsrc);
    }
    if (md >= 0) {
      b = std::make_unique<dad::DistArray<double>>(dst, md);
      pb = lin::footprint_with_provenance(*dst, md, ldst);
    }
    auto s = sched::build_segment_schedule(*src, lsrc, *dst, ldst, ms, md);
    sched::execute<double>(s, a.get(), ms >= 0 ? &pa : nullptr, b.get(),
                           md >= 0 ? &pb : nullptr, c, 9);
    if (md >= 0)
      b->for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, tagged(Point{p[1], p[0]})) << p[0] << "," << p[1];
      });
  });
}

TEST(SegmentSchedule, TotalMismatchRejected) {
  auto a = dad::make_regular(std::vector<AxisDist>{AxisDist::block(16, 2)});
  auto b = dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, 2)});
  EXPECT_THROW(
      sched::build_segment_schedule(
          *a, lin::Linearization::row_major(1, Point{16}), *b,
          lin::Linearization::row_major(1, Point{12}), 0, -1),
      mxn::rt::UsageError);
}

// ---------------------------------------------------------------------------
// Receiver-driven protocol
// ---------------------------------------------------------------------------

TEST(ReceiverDriven, DeliversWithoutPrecomputedSchedule) {
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(18, 3), AxisDist::block(6, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block_cyclic(18, 2, 4), AxisDist::collapsed(6)});
  const auto l = lin::Linearization::row_major(2, Point{18, 6});
  const int m = src->nranks(), n = dst->nranks();
  rt::spawn(m + n, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, m, n);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a, b;
    if (ms >= 0) {
      a = std::make_unique<dad::DistArray<double>>(src, ms);
      a->fill(tagged);
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);
    sched::redistribute_receiver_driven<double>(a.get(), l, b.get(), l, c,
                                                20);
    if (md >= 0)
      b->for_each_owned([&](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, tagged(p));
      });
  });
}

TEST(ReceiverDriven, SelfCouplingRedistributes) {
  auto rows = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(8, 3), AxisDist::collapsed(5)});
  auto cols = dad::make_regular(std::vector<AxisDist>{
      AxisDist::collapsed(8), AxisDist::block(5, 3)});
  const auto l = lin::Linearization::row_major(2, Point{8, 5});
  rt::spawn(3, [&](rt::Communicator& world) {
    auto c = sched::self_coupling(world);
    dad::DistArray<double> a(rows, world.rank());
    dad::DistArray<double> b(cols, world.rank());
    a.fill(tagged);
    sched::redistribute_receiver_driven<double>(&a, l, &b, l, c, 30);
    b.for_each_owned([&](const Point& p, const double& v) {
      EXPECT_DOUBLE_EQ(v, tagged(p));
    });
  });
}

namespace {

/// A wire segment list: `count` (which may lie), then the (lo, hi) pairs.
std::vector<std::byte> wire_segments(
    std::uint64_t count, const std::vector<std::pair<Index, Index>>& segs,
    std::size_t trailing_bytes = 0) {
  rt::PackBuffer b;
  b.pack(count);
  for (const auto& [lo, hi] : segs) {
    b.pack(lo);
    b.pack(hi);
  }
  (void)b.append_uninitialized(trailing_bytes);
  return std::move(b).take();
}

/// 1 -> 1 receiver-driven transfer of 8 doubles on tags 40 (requests) and
/// 41 (replies). With `hostile_request`, rank 1 sends those bytes to the
/// real source rank 0 in place of its request; otherwise rank 0 answers the
/// real receiver rank 1's request with `bytes`. The real side must reject
/// them with a UsageError.
void expect_receiver_driven_rejects(bool hostile_request,
                                    std::vector<std::byte> bytes) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(8, 1)});
  const auto l = lin::Linearization::row_major(1, Point{8});
  rt::spawn(2, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 1, 1);
    const bool real = hostile_request ? c.my_src_rank() == 0
                                      : c.my_dst_rank() == 0;
    if (real) {
      dad::DistArray<double> a(d, 0);
      EXPECT_THROW(sched::redistribute_receiver_driven<double>(
                       hostile_request ? &a : nullptr, l,
                       hostile_request ? nullptr : &a, l, c, 40),
                   rt::UsageError);
    } else if (hostile_request) {
      world.send(0, 40, std::move(bytes));
    } else {
      (void)world.recv(1, 40);  // the receiver's request
      world.send(1, 41, std::move(bytes));
    }
  });
}

}  // namespace

TEST(ReceiverDriven, RejectsHostileRequestAndReply) {
  for (const bool request : {true, false}) {
    // A segment count no payload could hold, with no bytes behind it.
    expect_receiver_driven_rejects(request,
                                   wire_segments(std::uint64_t{1} << 40, {}));
    // A reversed segment, an empty one, and an overlapping pair.
    expect_receiver_driven_rejects(request, wire_segments(1, {{6, 2}}));
    expect_receiver_driven_rejects(request, wire_segments(1, {{3, 3}}));
    expect_receiver_driven_rejects(request,
                                   wire_segments(2, {{0, 4}, {2, 6}}));
  }
  // Segments out of order.
  expect_receiver_driven_rejects(true, wire_segments(2, {{4, 6}, {0, 2}}));
  // A reply segment outside the receiver's request [0, 8), with its
  // elements attached so only the request check can catch it.
  expect_receiver_driven_rejects(
      false, wire_segments(1, {{6, 10}}, 4 * sizeof(double)));
}

// ---------------------------------------------------------------------------
// Schedule cache
// ---------------------------------------------------------------------------

TEST(ScheduleCache, HitsOnRepeatAndConformingArrays) {
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});
  sched::ScheduleCache cache;
  const auto s1 = cache.get_shared(src, dst, 0, -1);
  const auto s2 = cache.get_shared(src, dst, 0, -1);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // A structurally equal descriptor (different object) also hits.
  auto src2 = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 2)});
  cache.get_shared(src2, dst, 0, -1);
  EXPECT_EQ(cache.hits(), 2u);

  // Different role or template misses.
  cache.get_shared(src, dst, 1, -1);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ScheduleCache, StatsReportPerEntryBuildTime) {
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::block(48, 3)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(48, 4)});
  sched::ScheduleCache cache;
  cache.get_shared(src, dst, 0, -1);
  cache.get_shared(src, dst, 1, -1);
  cache.get_shared(src, dst, 0, -1);  // hit; must not add an entry

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  ASSERT_EQ(stats.entries.size(), 2u);
  for (const auto& e : stats.entries) {
    EXPECT_GT(e.build_ns, 0);
    EXPECT_GT(e.messages, 0u);
    EXPECT_EQ(e.my_dst, -1);
  }
  EXPECT_GT(stats.total_build_ns, 0);
}

TEST(ScheduleCache, CacheHitReturnsFastPathSchedule) {
  // The cache builds through the Auto path (analytic here); a hit must hand
  // back the very same schedule, and it must equal the naive reference.
  auto src = dad::make_regular(std::vector<AxisDist>{
      AxisDist::cyclic(60, 3), AxisDist::block(20, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(60, 2), AxisDist::block_cyclic(20, 2, 3)});
  sched::ScheduleCache cache;
  const auto pin = cache.get_shared(src, dst, 2, 1);
  const auto again = cache.get_shared(src, dst, 2, 1);
  EXPECT_EQ(pin, again);
  const auto& built = *pin;
  EXPECT_EQ(cache.hits(), 1u);

  const auto ref = sched::build_region_schedule(*src, *dst, 2, 1,
                                                sched::BuildPath::Reference);
  ASSERT_EQ(built.sends.size(), ref.sends.size());
  ASSERT_EQ(built.recvs.size(), ref.recvs.size());
  for (std::size_t k = 0; k < ref.sends.size(); ++k) {
    EXPECT_EQ(built.sends[k].peer, ref.sends[k].peer);
    EXPECT_EQ(built.sends[k].elements, ref.sends[k].elements);
    ASSERT_EQ(built.sends[k].regions.size(), ref.sends[k].regions.size());
    for (std::size_t i = 0; i < ref.sends[k].regions.size(); ++i)
      EXPECT_EQ(built.sends[k].regions[i], ref.sends[k].regions[i]);
  }
  for (std::size_t k = 0; k < ref.recvs.size(); ++k) {
    EXPECT_EQ(built.recvs[k].peer, ref.recvs[k].peer);
    EXPECT_EQ(built.recvs[k].elements, ref.recvs[k].elements);
    ASSERT_EQ(built.recvs[k].regions.size(), ref.recvs[k].regions.size());
    for (std::size_t i = 0; i < ref.recvs[k].regions.size(); ++i)
      EXPECT_EQ(built.recvs[k].regions[i], ref.recvs[k].regions[i]);
  }
}

TEST(ScheduleCache, StructuralHashMatchesEquality) {
  auto a = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 2),
                                                   AxisDist::cyclic(10, 3)});
  auto b = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 2),
                                                   AxisDist::cyclic(10, 3)});
  auto c = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 3),
                                                   AxisDist::cyclic(10, 3)});
  // Equal descriptors hash equally (the cache's bucketing invariant)...
  EXPECT_TRUE(*a == *b);
  EXPECT_EQ(a->structural_hash(), b->structural_hash());
  // ...and a different decomposition is expected to land elsewhere (not
  // guaranteed in theory, but a collision here would mean a broken hash).
  EXPECT_FALSE(*a == *c);
  EXPECT_NE(a->structural_hash(), c->structural_hash());
}

TEST(ScheduleCache, CachedScheduleServesEveryConformingArray) {
  // One cached schedule, two different arrays aligned to the same source
  // template: the second transfer must hit the cache and still move the
  // second array's values.
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, 2)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(12, 2)});
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::split_coupling(world, 2, 2);
    const int ms = c.my_src_rank(), md = c.my_dst_rank();
    std::unique_ptr<dad::DistArray<double>> a1, a2, b;
    if (ms >= 0) {
      a1 = std::make_unique<dad::DistArray<double>>(src, ms);
      a1->fill([](const Point& p) { return double(p[0]); });
      a2 = std::make_unique<dad::DistArray<double>>(src, ms);
      a2->fill([](const Point& p) { return 100.0 + double(p[0]); });
    }
    if (md >= 0) b = std::make_unique<dad::DistArray<double>>(dst, md);

    sched::ScheduleCache cache;
    sched::execute<double>(*cache.get_shared(src, dst, ms, md), a1.get(),
                           b.get(), c, 11);
    if (md >= 0)
      b->for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, double(p[0]));
      });
    sched::execute<double>(*cache.get_shared(src, dst, ms, md), a2.get(),
                           b.get(), c, 12);
    if (md >= 0)
      b->for_each_owned([](const Point& p, const double& v) {
        EXPECT_DOUBLE_EQ(v, 100.0 + double(p[0]));
      });
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
  });
}

// ---------------------------------------------------------------------------
// Sharded / bounded schedule cache (multi-tenant fabric, docs/PERFORMANCE.md)
// ---------------------------------------------------------------------------

namespace {

/// Distinct 1-D descriptors over the SAME 24-element template (schedules
/// require identical shapes): varying the block-cyclic block size varies
/// the structural hash, so each index is a distinct cache key family.
DescriptorPtr tenant_desc(int i) {
  return dad::make_regular(
      std::vector<AxisDist>{AxisDist::block_cyclic(24, 2, 1 + i)});
}

}  // namespace

TEST(ScheduleCache, ClearResetsTallies) {
  auto src = tenant_desc(0);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});
  sched::ScheduleCache cache;
  cache.get_shared(src, dst, 0, -1);
  cache.get_shared(src, dst, 0, -1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  // A cleared cache reports a clean slate: tallies must not describe rates
  // against entries that no longer exist.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evicted(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);

  // ...and keeps counting correctly afterwards.
  cache.get_shared(src, dst, 0, -1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ScheduleCache, EntryCapEvictsLeastRecentlyUsed) {
  sched::ScheduleCacheConfig cfg;
  cfg.max_entries = 2;
  sched::ScheduleCache cache(cfg);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});

  cache.get_shared(tenant_desc(0), dst, 0, -1);
  cache.get_shared(tenant_desc(1), dst, 0, -1);
  cache.get_shared(tenant_desc(0), dst, 0, -1);  // touch 0: 1 is now coldest
  EXPECT_EQ(cache.evicted(), 0u);

  cache.get_shared(tenant_desc(2), dst, 0, -1);  // over cap: evicts 1
  EXPECT_EQ(cache.evicted(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  const auto hits_before = cache.hits();
  cache.get_shared(tenant_desc(0), dst, 0, -1);  // survivor: hit
  EXPECT_EQ(cache.hits(), hits_before + 1);
  const auto misses_before = cache.misses();
  cache.get_shared(tenant_desc(1), dst, 0, -1);  // victim: rebuilt
  EXPECT_EQ(cache.misses(), misses_before + 1);
}

TEST(ScheduleCache, ByteBudgetBoundsResidency) {
  // Learn one entry's cost, then budget for ~3 of them and insert 8.
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});
  sched::ScheduleCache probe;
  probe.get_shared(tenant_desc(0), dst, 0, -1);
  const std::size_t per_entry = probe.bytes();
  ASSERT_GT(per_entry, 0u);

  sched::ScheduleCacheConfig cfg;
  cfg.max_bytes = 3 * per_entry + per_entry / 2;
  sched::ScheduleCache cache(cfg);
  for (int i = 0; i < 8; ++i) cache.get_shared(tenant_desc(i), dst, 0, -1);
  EXPECT_GT(cache.evicted(), 0u);
  EXPECT_LE(cache.bytes(), cfg.max_bytes);
  EXPECT_LT(cache.size(), 8u);
}

TEST(ScheduleCache, InsertNeverEvictsTheEntryItAdds) {
  // A byte budget below one entry's cost: each insert keeps the schedule it
  // just built resident and evicts every older entry of its shard.
  sched::ScheduleCacheConfig cfg;
  cfg.max_bytes = 1;
  sched::ScheduleCache cache(cfg);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});

  cache.get_shared(tenant_desc(0), dst, 0, -1);
  cache.get_shared(tenant_desc(0), dst, 0, -1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.evicted(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  cache.get_shared(tenant_desc(1), dst, 0, -1);  // evicts tenant 0's entry
  EXPECT_EQ(cache.evicted(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ScheduleCache, GetSharedPinsScheduleAcrossEviction) {
  sched::ScheduleCacheConfig cfg;
  cfg.max_entries = 1;
  sched::ScheduleCache cache(cfg);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});

  auto pinned = cache.get_shared(tenant_desc(0), dst, 0, -1);
  const std::size_t messages = pinned->message_count();
  cache.get_shared(tenant_desc(1), dst, 0, -1);  // evicts tenant 0's entry
  cache.get_shared(tenant_desc(2), dst, 0, -1);  // evicts tenant 1's entry
  EXPECT_GE(cache.evicted(), 2u);

  // The pin keeps the evicted schedule fully alive and unchanged.
  EXPECT_EQ(pinned->message_count(), messages);
  EXPECT_FALSE(pinned->sends.empty() && pinned->recvs.empty());
}

TEST(ScheduleCache, ConfigureReshardsWithoutLosingEntries) {
  sched::ScheduleCache cache;
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});
  for (int i = 0; i < 6; ++i) cache.get_shared(tenant_desc(i), dst, 0, -1);
  EXPECT_EQ(cache.size(), 6u);
  const std::size_t bytes = cache.bytes();

  sched::ScheduleCacheConfig cfg;
  cfg.shards = 4;  // unbounded, just spread
  cache.configure(cfg);
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_EQ(cache.bytes(), bytes);

  const auto misses_before = cache.misses();
  for (int i = 0; i < 6; ++i) cache.get_shared(tenant_desc(i), dst, 0, -1);
  EXPECT_EQ(cache.misses(), misses_before);  // all redistributed entries hit
}

TEST(ScheduleCache, ConcurrentLookupsAndRetirementStayExact) {
  // TSan-covered: many tenant threads hammer get_shared() across a
  // sharded, budgeted cache while another thread advances the epoch and
  // retires old generations. The tallies must stay exact: every lookup is
  // either a hit or a miss (a lookup that loses a build race is billed as a
  // hit), regardless of interleaving with eviction and retirement.
  sched::ScheduleCacheConfig cfg;
  cfg.shards = 4;
  cfg.max_entries = 16;
  sched::ScheduleCache cache(cfg);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});

  constexpr int kThreads = 4;
  constexpr int kLookups = 200;
  constexpr int kKeys = 24;  // > max_entries, so eviction happens live
  std::vector<DescriptorPtr> descs;
  for (int i = 0; i < kKeys; ++i) descs.push_back(tenant_desc(i));

  std::atomic<bool> stop{false};
  std::thread retirer([&] {
    std::uint64_t e = 1;
    while (!stop.load()) {
      cache.set_epoch(e);
      cache.retire_epochs_before(e);
      ++e;
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> tenants;
  for (int t = 0; t < kThreads; ++t) {
    tenants.emplace_back([&, t] {
      for (int i = 0; i < kLookups; ++i) {
        auto s = cache.get_shared(descs[(t * 7 + i) % kKeys], dst, 0, -1);
        EXPECT_GT(s->message_count(), 0u);
      }
    });
  }
  for (auto& th : tenants) th.join();
  stop.store(true);
  retirer.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) * kLookups);
}

// ---------------------------------------------------------------------------
// Revival of evicted entries that a connection still pins
// ---------------------------------------------------------------------------

TEST(ScheduleCache, PinnedEvictedEntryRevivesAsTheSamePointer) {
  sched::ScheduleCacheConfig cfg;
  cfg.max_entries = 1;
  sched::ScheduleCache cache(cfg);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});
  auto& revived = mxn::trace::counter("sched.cache.revived");

  const auto pinned = cache.get_shared(tenant_desc(0), dst, 0, -1);
  cache.get_shared(tenant_desc(1), dst, 0, -1);  // evicts the pinned entry
  ASSERT_EQ(cache.evicted(), 1u);
  const auto misses = cache.misses();
  const auto hits = cache.hits();
  const auto revived_before = revived.value();

  // A structurally equal key (a fresh descriptor object) finds it too.
  const auto again = cache.get_shared(tenant_desc(0), dst, 0, -1);
  EXPECT_EQ(again, pinned);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.hits(), hits + 1);
  EXPECT_EQ(revived.value(), revived_before + 1);
  EXPECT_EQ(cache.revived(), 1u);
  EXPECT_EQ(cache.stats().revived, 1u);
  // Revived at the warm end under the normal budget: the other key went.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evicted(), 2u);

  // An entry nobody pins is not kept: its key rebuilds.
  cache.get_shared(tenant_desc(1), dst, 0, -1);
  EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(ScheduleCache, ClearForgetsPinnedEvictedEntries) {
  sched::ScheduleCacheConfig cfg;
  cfg.max_entries = 1;
  sched::ScheduleCache cache(cfg);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});

  const auto pinned = cache.get_shared(tenant_desc(0), dst, 0, -1);
  cache.get_shared(tenant_desc(1), dst, 0, -1);  // evicts the pinned entry
  cache.clear();
  const auto rebuilt = cache.get_shared(tenant_desc(0), dst, 0, -1);
  EXPECT_NE(rebuilt, pinned);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.revived(), 0u);
  // The rebuilt schedule equals the one the pin still holds.
  EXPECT_EQ(rebuilt->message_count(), pinned->message_count());
  EXPECT_EQ(rebuilt->byte_size(), pinned->byte_size());
}

TEST(ScheduleCache, RevivalsStayWithinTheByteBudget) {
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});
  sched::ScheduleCache probe;
  std::size_t largest = 0;
  for (int i = 0; i < 8; ++i) {
    probe.clear();
    probe.get_shared(tenant_desc(i), dst, 0, -1);
    largest = std::max(largest, probe.bytes());
  }

  sched::ScheduleCacheConfig cfg;
  cfg.max_bytes = 3 * largest;
  sched::ScheduleCache cache(cfg);
  std::vector<std::shared_ptr<const sched::RegionSchedule>> pins;
  for (int i = 0; i < 8; ++i)
    pins.push_back(cache.get_shared(tenant_desc(i), dst, 0, -1));
  for (int round = 0; round < 3; ++round)
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(cache.get_shared(tenant_desc(i), dst, 0, -1), pins[i]);
      EXPECT_LE(cache.bytes(), cfg.max_bytes);
    }
  EXPECT_EQ(cache.misses(), 8u);
  EXPECT_GT(cache.revived(), 0u);
  EXPECT_LT(cache.size(), 8u);
}

TEST(ScheduleCache, ConcurrentRevivalsRaceEvictionAndRetirement) {
  // TSan-covered: as ConcurrentLookupsAndRetirementStayExact, but every
  // tenant thread holds its last few schedules, so lookups revive evicted
  // entries while other threads evict them and a retirer forgets them. The
  // tallies stay exact, a revival is one of the hits, and every schedule
  // served, built or revived, is the one its key names.
  sched::ScheduleCacheConfig cfg;
  cfg.shards = 4;
  cfg.max_entries = 8;
  sched::ScheduleCache cache(cfg);
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 2)});

  constexpr int kThreads = 4;
  constexpr int kLookups = 300;
  constexpr int kKeys = 24;  // > max_entries, so eviction happens live
  constexpr std::size_t kHeld = 6;
  std::vector<DescriptorPtr> descs;
  std::vector<std::size_t> messages;
  for (int i = 0; i < kKeys; ++i) {
    descs.push_back(tenant_desc(i));
    messages.push_back(
        sched::build_region_schedule(*descs.back(), *dst, 0, -1)
            .message_count());
  }

  std::atomic<bool> stop{false};
  std::thread retirer([&] {
    std::uint64_t e = 1;
    while (!stop.load()) {
      cache.set_epoch(e);
      cache.retire_epochs_before(e);
      ++e;
      for (int i = 0; i < 20; ++i) std::this_thread::yield();
    }
  });
  std::vector<std::thread> tenants;
  for (int t = 0; t < kThreads; ++t) {
    tenants.emplace_back([&, t] {
      std::vector<std::shared_ptr<const sched::RegionSchedule>> held;
      for (int i = 0; i < kLookups; ++i) {
        const int k = (t * 5 + i * 7) % kKeys;
        auto s = cache.get_shared(descs[k], dst, 0, -1);
        EXPECT_EQ(s->message_count(), messages[k]);
        held.push_back(std::move(s));
        if (held.size() > kHeld) held.erase(held.begin());
      }
    });
  }
  for (auto& th : tenants) th.join();
  stop.store(true);
  retirer.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::size_t>(kThreads) * kLookups);
  EXPECT_LE(cache.revived(), cache.hits());
}
