// Unit and property tests for the Distributed Array Descriptor (src/dad):
// patch geometry, per-axis distributions, templates (regular + explicit),
// local storage mapping, and the extract/inject pack kernels. The region
// copy section checks gather_region/scatter_region and every array type
// built on them (DistArray, intercomm::LocalArray, redundancy's blob-backed
// fields, DRI Reorg) against a per-point reference under every ISA tier.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <random>
#include <set>

#include "dad/dist_array.hpp"
#include "dri/dri.hpp"
#include "intercomm/local_array.hpp"
#include "redundancy/redundancy.hpp"
#include "rt/runtime.hpp"
#include "trace/trace.hpp"

namespace dad = mxn::dad;
using dad::AxisDist;
using dad::Descriptor;
using dad::Index;
using dad::Patch;
using dad::Point;

namespace {

Patch patch1(Index lo, Index hi) {
  return Patch::make(1, Point{lo}, Point{hi});
}
Patch patch2(Index lo0, Index hi0, Index lo1, Index hi1) {
  return Patch::make(2, Point{lo0, lo1}, Point{hi0, hi1});
}

}  // namespace

// ---------------------------------------------------------------------------
// Patch geometry
// ---------------------------------------------------------------------------

TEST(Patch, VolumeAndEmptiness) {
  EXPECT_EQ(patch2(0, 4, 0, 5).volume(), 20);
  EXPECT_FALSE(patch2(0, 4, 0, 5).empty());
  EXPECT_TRUE(patch2(2, 2, 0, 5).empty());
}

TEST(Patch, IntersectionBasics) {
  auto a = patch2(0, 10, 0, 10);
  auto b = patch2(5, 15, 3, 8);
  auto c = Patch::intersect(a, b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(*c, patch2(5, 10, 3, 8));
  EXPECT_FALSE(Patch::intersect(patch2(0, 5, 0, 5), patch2(5, 9, 0, 5)));
}

TEST(Patch, OffsetRoundTripRowMajor) {
  auto p = patch2(2, 5, 10, 14);  // 3 x 4
  EXPECT_EQ(p.offset_of(Point{2, 10}), 0);
  EXPECT_EQ(p.offset_of(Point{2, 11}), 1);  // last axis fastest
  EXPECT_EQ(p.offset_of(Point{3, 10}), 4);
  for (Index off = 0; off < p.volume(); ++off)
    EXPECT_EQ(p.offset_of(p.point_at(off)), off);
}

TEST(Patch, ForEachPointVisitsRowMajorOnce) {
  auto p = patch2(0, 2, 0, 3);
  std::vector<Point> visited;
  p.for_each_point([&](const Point& pt) { visited.push_back(pt); });
  ASSERT_EQ(visited.size(), 6u);
  EXPECT_EQ(visited[0], (Point{0, 0}));
  EXPECT_EQ(visited[1], (Point{0, 1}));
  EXPECT_EQ(visited[3], (Point{1, 0}));
}

TEST(Patch, PackUnpackRoundTrip) {
  auto p = Patch::make(3, Point{1, 2, 3}, Point{4, 5, 6});
  mxn::rt::PackBuffer b;
  p.pack(b);
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_EQ(Patch::unpack(u), p);
}

TEST(Patch, UnpackRejectsHostileNdim) {
  // ndim = 64 would write lo/hi past the 4-slot Point.
  mxn::rt::PackBuffer b;
  b.pack(64);
  for (int a = 0; a < 2 * 64; ++a) b.pack(Index{a});
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_THROW((void)Patch::unpack(u), mxn::rt::UsageError);
}

// ---------------------------------------------------------------------------
// Axis distributions
// ---------------------------------------------------------------------------

TEST(AxisDist, BlockSplitsEvenly) {
  auto d = AxisDist::block(10, 3);  // blocks of ceil(10/3)=4: 4,4,2
  EXPECT_EQ(d.local_count(0), 4);
  EXPECT_EQ(d.local_count(1), 4);
  EXPECT_EQ(d.local_count(2), 2);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(3), 0);
  EXPECT_EQ(d.owner(4), 1);
  EXPECT_EQ(d.owner(9), 2);
}

TEST(AxisDist, CyclicDealsRoundRobin) {
  auto d = AxisDist::cyclic(7, 3);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(1), 1);
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_EQ(d.owner(3), 0);
  EXPECT_EQ(d.local_count(0), 3);  // 0,3,6
  EXPECT_EQ(d.local_count(1), 2);
  EXPECT_EQ(d.intervals_of(0).size(), 3u);
}

TEST(AxisDist, BlockCyclicIntermediateBlocks) {
  auto d = AxisDist::block_cyclic(20, 2, 3);
  // blocks: [0,3)p0 [3,6)p1 [6,9)p0 [9,12)p1 [12,15)p0 [15,18)p1 [18,20)p0
  EXPECT_EQ(d.owner(7), 0);
  EXPECT_EQ(d.owner(10), 1);
  EXPECT_EQ(d.local_count(0), 3 + 3 + 3 + 2);
  EXPECT_EQ(d.local_count(1), 9);
  EXPECT_EQ(d.intervals_of(0).back(), (dad::IndexInterval{18, 20}));
}

TEST(AxisDist, GeneralizedBlockUnevenSizes) {
  auto d = AxisDist::generalized_block({5, 0, 7, 3});
  EXPECT_EQ(d.extent(), 15);
  EXPECT_EQ(d.nprocs(), 4);
  EXPECT_EQ(d.owner(4), 0);
  EXPECT_EQ(d.owner(5), 2);  // proc 1 owns nothing
  EXPECT_EQ(d.owner(12), 3);
  EXPECT_TRUE(d.intervals_of(1).empty());
  EXPECT_EQ(d.local_count(2), 7);
}

TEST(AxisDist, ImplicitArbitraryOwners) {
  auto d = AxisDist::implicit({2, 2, 0, 1, 0, 0, 2});
  EXPECT_EQ(d.nprocs(), 3);
  EXPECT_EQ(d.owner(0), 2);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.local_count(0), 3);
  EXPECT_EQ(d.local_count(2), 3);
  // proc 0 owns {2,4,5} -> local offsets 0,1,2
  EXPECT_EQ(d.local_offset(0, 2), 0);
  EXPECT_EQ(d.local_offset(0, 4), 1);
  EXPECT_EQ(d.local_offset(0, 5), 2);
  EXPECT_EQ(d.global_index(0, 1), 4);
}

TEST(AxisDist, ImplicitDescriptorCostIsPerElement) {
  auto implicit = AxisDist::implicit(std::vector<int>(1000, 0), 4);
  auto block = AxisDist::block(1000, 4);
  EXPECT_EQ(implicit.descriptor_entries(), 1000u);
  EXPECT_EQ(block.descriptor_entries(), 0u);
}

TEST(AxisDist, RejectsBadArguments) {
  EXPECT_THROW(AxisDist::block(0, 2), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::block_cyclic(10, 0, 2), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::block_cyclic(10, 2, 0), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::generalized_block({}), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::generalized_block({1, -1}), mxn::rt::UsageError);
  EXPECT_THROW(AxisDist::implicit({0, 3}, 2), mxn::rt::UsageError);
  EXPECT_THROW((void)AxisDist::block(10, 2).owner(10), mxn::rt::UsageError);
  EXPECT_THROW((void)AxisDist::block(10, 2).local_offset(0, 7),
               mxn::rt::UsageError);
}

// Property sweep: for every kind, the per-proc intervals partition [0,extent)
// and local_offset/global_index are inverse bijections.
struct AxisCase {
  std::string name;
  AxisDist dist;
};

class AxisPartitionSweep : public ::testing::TestWithParam<AxisCase> {};

TEST_P(AxisPartitionSweep, IntervalsPartitionTheAxis) {
  const auto& d = GetParam().dist;
  std::vector<int> seen(d.extent(), 0);
  for (int p = 0; p < d.nprocs(); ++p) {
    for (const auto& iv : d.intervals_of(p)) {
      for (Index i = iv.lo; i < iv.hi; ++i) {
        ++seen[i];
        EXPECT_EQ(d.owner(i), p);
      }
    }
  }
  for (Index i = 0; i < d.extent(); ++i) EXPECT_EQ(seen[i], 1) << "index " << i;
}

TEST_P(AxisPartitionSweep, LocalGlobalRoundTrip) {
  const auto& d = GetParam().dist;
  for (int p = 0; p < d.nprocs(); ++p) {
    for (Index l = 0; l < d.local_count(p); ++l) {
      const Index g = d.global_index(p, l);
      EXPECT_EQ(d.owner(g), p);
      EXPECT_EQ(d.local_offset(p, g), l);
    }
  }
}

TEST_P(AxisPartitionSweep, SurvivesSerialization) {
  const auto& d = GetParam().dist;
  mxn::rt::PackBuffer b;
  d.pack(b);
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_EQ(AxisDist::unpack(u), d);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AxisPartitionSweep,
    ::testing::Values(
        AxisCase{"collapsed", AxisDist::collapsed(17)},
        AxisCase{"block_even", AxisDist::block(12, 4)},
        AxisCase{"block_ragged", AxisDist::block(13, 4)},
        AxisCase{"block_more_procs", AxisDist::block(3, 5)},
        AxisCase{"cyclic", AxisDist::cyclic(11, 3)},
        AxisCase{"bc2", AxisDist::block_cyclic(29, 3, 2)},
        AxisCase{"bc5", AxisDist::block_cyclic(29, 4, 5)},
        AxisCase{"genblock", AxisDist::generalized_block({4, 9, 0, 4})},
        AxisCase{"implicit",
                 AxisDist::implicit({1, 0, 1, 2, 2, 0, 0, 1, 2, 0})}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

TEST(Descriptor, RegularGridRankLayout) {
  // 2-D: axis0 block over 2 procs, axis1 block over 3 procs -> 6 ranks,
  // rank = coord0*3 + coord1 (row-major).
  auto d = Descriptor::regular(
      {AxisDist::block(4, 2), AxisDist::block(6, 3)});
  EXPECT_EQ(d.nranks(), 6);
  EXPECT_EQ(d.ndim(), 2);
  EXPECT_EQ(d.owner(Point{0, 0}), 0);
  EXPECT_EQ(d.owner(Point{0, 2}), 1);
  EXPECT_EQ(d.owner(Point{0, 4}), 2);
  EXPECT_EQ(d.owner(Point{2, 0}), 3);
  EXPECT_EQ(d.owner(Point{3, 5}), 5);
  for (int r = 0; r < 6; ++r) {
    ASSERT_EQ(d.patches_of(r).size(), 1u);
    EXPECT_EQ(d.local_volume(r), 4);
  }
}

TEST(Descriptor, CollapsedAxisKeepsAxisOnOneProc) {
  auto d = Descriptor::regular(
      {AxisDist::block(8, 4), AxisDist::collapsed(10)});
  EXPECT_EQ(d.nranks(), 4);
  EXPECT_EQ(d.patches_of(0)[0], patch2(0, 2, 0, 10));
}

TEST(Descriptor, CyclicAxisProducesManyPatches) {
  auto d = Descriptor::regular({AxisDist::cyclic(8, 2)});
  EXPECT_EQ(d.patches_of(0).size(), 4u);
  EXPECT_EQ(d.patches_of(1).size(), 4u);
  EXPECT_EQ(d.local_volume(0), 4);
}

TEST(Descriptor, ExplicitPatchesQuadrants) {
  std::vector<dad::OwnedPatch> ps = {
      {patch2(0, 2, 0, 3), 0},
      {patch2(0, 2, 3, 6), 1},
      {patch2(2, 4, 0, 3), 2},
      {patch2(2, 4, 3, 6), 3},
  };
  auto d = Descriptor::explicit_patches(2, Point{4, 6}, ps, 4);
  EXPECT_TRUE(d.is_explicit());
  EXPECT_EQ(d.owner(Point{1, 2}), 0);
  EXPECT_EQ(d.owner(Point{3, 3}), 3);
  EXPECT_EQ(d.local_volume(1), 6);
  EXPECT_EQ(d.descriptor_entries(), 4u);
}

TEST(Descriptor, ExplicitRejectsOverlap) {
  std::vector<dad::OwnedPatch> ps = {
      {patch1(0, 6), 0},
      {patch1(5, 10), 1},
  };
  EXPECT_THROW(Descriptor::explicit_patches(1, Point{10}, ps, 2),
               mxn::rt::UsageError);
}

TEST(Descriptor, ExplicitRejectsGaps) {
  std::vector<dad::OwnedPatch> ps = {
      {patch1(0, 4), 0},
      {patch1(5, 10), 1},  // index 4 uncovered
  };
  EXPECT_THROW(Descriptor::explicit_patches(1, Point{10}, ps, 2),
               mxn::rt::UsageError);
}

TEST(Descriptor, ExplicitRejectsOutOfBoundsAndBadOwner) {
  EXPECT_THROW(Descriptor::explicit_patches(
                   1, Point{10}, {{patch1(0, 11), 0}}, 1),
               mxn::rt::UsageError);
  EXPECT_THROW(Descriptor::explicit_patches(
                   1, Point{10}, {{patch1(0, 10), 3}}, 2),
               mxn::rt::UsageError);
}

TEST(Descriptor, SameShapeIgnoresDistribution) {
  auto a = Descriptor::regular({AxisDist::block(12, 3)});
  auto b = Descriptor::regular({AxisDist::cyclic(12, 4)});
  auto c = Descriptor::regular({AxisDist::block(13, 3)});
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

TEST(Descriptor, EqualityIsStructural) {
  auto a = Descriptor::regular({AxisDist::block(12, 3)});
  auto b = Descriptor::regular({AxisDist::block(12, 3)});
  auto c = Descriptor::regular({AxisDist::block_cyclic(12, 3, 2)});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

struct DescriptorCase {
  std::string name;
  std::shared_ptr<const Descriptor> desc;
};

DescriptorCase make_case(std::string name, Descriptor d) {
  return {std::move(name),
          std::make_shared<const Descriptor>(std::move(d))};
}

class DescriptorSweep : public ::testing::TestWithParam<DescriptorCase> {};

// Property: the rank patch lists exactly cover the global index space and
// agree with owner().
TEST_P(DescriptorSweep, PatchesExactlyCoverIndexSpace) {
  const auto& d = *GetParam().desc;
  std::map<std::vector<Index>, int> cover;
  Index total = 0;
  for (int r = 0; r < d.nranks(); ++r) {
    for (const auto& p : d.patches_of(r)) {
      p.for_each_point([&](const Point& pt) {
        std::vector<Index> key(pt.begin(), pt.begin() + d.ndim());
        auto [it, inserted] = cover.emplace(key, r);
        EXPECT_TRUE(inserted) << "point covered twice";
        EXPECT_EQ(d.owner(pt), r);
        ++total;
      });
    }
    EXPECT_EQ(d.local_volume(r),
              static_cast<Index>(d.patches_of(r).size()
                                     ? std::accumulate(
                                           d.patches_of(r).begin(),
                                           d.patches_of(r).end(), Index{0},
                                           [](Index acc, const Patch& p) {
                                             return acc + p.volume();
                                           })
                                     : 0));
  }
  EXPECT_EQ(total, d.total_volume());
}

// Property: global_to_local / local_to_global are inverse bijections onto
// [0, local_volume).
TEST_P(DescriptorSweep, LocalStorageMappingIsBijective) {
  const auto& d = *GetParam().desc;
  for (int r = 0; r < d.nranks(); ++r) {
    std::set<Index> offsets;
    for (const auto& p : d.patches_of(r)) {
      p.for_each_point([&](const Point& pt) {
        const Index off = d.global_to_local(r, pt);
        EXPECT_GE(off, 0);
        EXPECT_LT(off, d.local_volume(r));
        EXPECT_TRUE(offsets.insert(off).second);
        EXPECT_EQ(d.local_to_global(r, off), pt);
      });
    }
  }
}

TEST_P(DescriptorSweep, SurvivesSerialization) {
  const auto& d = *GetParam().desc;
  mxn::rt::PackBuffer b;
  d.pack(b);
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_TRUE(Descriptor::unpack(u) == d);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DescriptorSweep,
    ::testing::Values(
        make_case("block1d",
                  Descriptor::regular({AxisDist::block(23, 4)})),
        make_case("cyclic1d",
                  Descriptor::regular({AxisDist::cyclic(17, 3)})),
        make_case("bc2d",
                  Descriptor::regular({AxisDist::block_cyclic(12, 2, 2),
                                       AxisDist::cyclic(9, 3)})),
        make_case("gen2d",
                  Descriptor::regular(
                      {AxisDist::generalized_block({3, 0, 5}),
                       AxisDist::block(7, 2)})),
        make_case("implicit1d",
                  Descriptor::regular({AxisDist::implicit(
                      {0, 1, 0, 2, 2, 1, 0, 0, 1, 2, 2, 0})})),
        make_case("collapsed3d",
                  Descriptor::regular({AxisDist::block(6, 2),
                                       AxisDist::collapsed(5),
                                       AxisDist::cyclic(4, 2)})),
        make_case("explicit2d",
                  Descriptor::explicit_patches(
                      2, Point{6, 6},
                      {{patch2(0, 3, 0, 6), 0},
                       {patch2(3, 6, 0, 2), 1},
                       {patch2(3, 6, 2, 6), 2}},
                      3))),
    [](const auto& info) { return info.param.name; });

TEST(Descriptor, UnpackRejectsHostileNdim) {
  // ndim = 64 would write extents past the 4-slot Point.
  mxn::rt::PackBuffer b;
  b.pack(false);
  b.pack(64);
  for (int a = 0; a < 64; ++a) b.pack(Index{8});
  b.pack(1);
  auto bytes = std::move(b).take();
  mxn::rt::UnpackBuffer u(bytes);
  EXPECT_THROW((void)Descriptor::unpack(u), mxn::rt::UsageError);
}

TEST(Descriptor, UnpackRejectsHostileCounts) {
  // A patch or axis count of 2^40 must fail before it sizes a reservation.
  for (const bool ex : {true, false}) {
    mxn::rt::PackBuffer b;
    b.pack(ex);
    b.pack(1);
    b.pack(Index{8});
    b.pack(1);
    b.pack(std::uint64_t{1} << 40);
    auto bytes = std::move(b).take();
    mxn::rt::UnpackBuffer u(bytes);
    EXPECT_THROW((void)Descriptor::unpack(u), mxn::rt::UsageError)
        << (ex ? "explicit patches" : "regular axes");
  }
}

// ---------------------------------------------------------------------------
// DistArray
// ---------------------------------------------------------------------------

TEST(DistArray, FillAndAtAgree) {
  auto d = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(6, 2), AxisDist::cyclic(6, 3)});
  for (int r = 0; r < d->nranks(); ++r) {
    dad::DistArray<double> a(d, r);
    a.fill([](const Point& p) { return 100.0 * p[0] + p[1]; });
    for (const auto& patch : d->patches_of(r)) {
      patch.for_each_point([&](const Point& pt) {
        EXPECT_DOUBLE_EQ(a.at(pt), 100.0 * pt[0] + pt[1]);
      });
    }
  }
}

TEST(DistArray, ExtractInjectRoundTrip) {
  auto d = dad::make_regular(
      std::vector<AxisDist>{AxisDist::block(8, 2), AxisDist::block(8, 2)});
  dad::DistArray<int> a(d, 0);
  a.fill([](const Point& p) { return static_cast<int>(10 * p[0] + p[1]); });

  // Region inside rank 0's patch [0,4)x[0,4).
  auto region = patch2(1, 3, 1, 4);
  auto vals = a.extract(region);
  ASSERT_EQ(vals.size(), 6u);
  // Row-major region order: (1,1),(1,2),(1,3),(2,1),(2,2),(2,3)
  EXPECT_EQ(vals[0], 11);
  EXPECT_EQ(vals[2], 13);
  EXPECT_EQ(vals[3], 21);

  // Zero the region then inject back.
  std::vector<int> zeros(6, 0);
  a.inject(region, zeros.data());
  EXPECT_EQ(a.at(Point{1, 1}), 0);
  a.inject(region, vals.data());
  EXPECT_EQ(a.at(Point{1, 1}), 11);
  EXPECT_EQ(a.at(Point{2, 3}), 23);
}

TEST(DistArray, ExtractRejectsRegionSpanningPatches) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(8, 2)});
  dad::DistArray<int> a(d, 0);
  // Rank 0 owns {0,2,4,6}: region [0,3) spans two owned patches.
  EXPECT_THROW(a.extract(patch1(0, 3)), mxn::rt::UsageError);
}

TEST(DistArray, LocalSpanMatchesVolume) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(10, 3)});
  dad::DistArray<float> a(d, 2);
  EXPECT_EQ(a.local().size(), static_cast<std::size_t>(d->local_volume(2)));
}

// ---------------------------------------------------------------------------
// Region copies against a per-point reference
// ---------------------------------------------------------------------------

namespace {

using Bytes = std::vector<std::byte>;

/// A 12-byte element: no SIMD lane width divides it.
struct Odd12 {
  std::uint32_t a, b, c;
};

/// Bytes moved by the copy kernels so far, memcpys and block trains.
std::uint64_t kernel_bytes() {
  return mxn::trace::counter("sched.kernel.memcpy_bytes").value() +
         mxn::trace::counter("sched.kernel.simd_bytes").value();
}

Bytes random_bytes(std::mt19937& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::byte>(rng());
  return b;
}

Index pick(std::mt19937& rng, Index lo, Index hi) {  // uniform in [lo, hi]
  return std::uniform_int_distribution<Index>(lo, hi)(rng);
}

dad::DescriptorPtr random_regular(std::mt19937& rng, int ndim) {
  std::vector<AxisDist> axes;
  for (int a = 0; a < ndim; ++a) {
    const Index n = pick(rng, 1, ndim <= 2 ? 13 : 6);
    const int p = static_cast<int>(pick(rng, 1, ndim <= 2 ? 3 : 2));
    switch (pick(rng, 0, 3)) {
      case 0:
        axes.push_back(AxisDist::collapsed(n));
        break;
      case 1:
        axes.push_back(AxisDist::block(n, p));
        break;
      case 2:
        axes.push_back(AxisDist::cyclic(n, p));
        break;
      default:
        axes.push_back(AxisDist::block_cyclic(n, p, pick(rng, 1, 3)));
        break;
    }
  }
  return dad::make_regular(std::move(axes));
}

/// An explicit descriptor: the global box cut into random sub-boxes by
/// repeated splits, dealt to `nranks` owners.
dad::DescriptorPtr random_explicit(std::mt19937& rng, int ndim) {
  Point ext{};
  for (int a = 0; a < ndim; ++a) ext[a] = pick(rng, 1, ndim <= 2 ? 13 : 6);
  std::vector<Patch> boxes{Patch::make(ndim, Point{}, ext)};
  for (int cut = 0; cut < 6; ++cut) {
    const auto i = static_cast<std::size_t>(
        pick(rng, 0, static_cast<Index>(boxes.size()) - 1));
    const int a = static_cast<int>(pick(rng, 0, ndim - 1));
    Patch lo = boxes[i];
    if (lo.extent(a) < 2) continue;
    Patch hi = lo;
    lo.hi[a] = hi.lo[a] = pick(rng, lo.lo[a] + 1, lo.hi[a] - 1);
    boxes[i] = lo;
    boxes.push_back(hi);
  }
  const int nranks = static_cast<int>(pick(rng, 1, 3));
  std::vector<dad::OwnedPatch> owned;
  for (std::size_t i = 0; i < boxes.size(); ++i)
    owned.push_back({boxes[i], static_cast<int>(pick(rng, 0, nranks - 1))});
  return dad::make_explicit(ndim, ext, std::move(owned), nranks);
}

/// Regions of `owned` covering every copy shape: one element, one row, one
/// column (length-1 rows: the strided path), full width (memcpy
/// promotion), the whole patch (outer axes on 3-D/4-D), and random boxes.
std::vector<Patch> regions_of(const Patch& owned, std::mt19937& rng) {
  const int last = owned.ndim - 1;
  auto random_box = [&] {
    Patch r = owned;
    for (int a = 0; a < owned.ndim; ++a) {
      r.lo[a] = pick(rng, owned.lo[a], owned.hi[a] - 1);
      r.hi[a] = pick(rng, r.lo[a] + 1, owned.hi[a]);
    }
    return r;
  };
  Patch element = random_box(), row = random_box(), column = random_box(),
        full_width = random_box();
  for (int a = 0; a < last; ++a) {
    element.hi[a] = element.lo[a] + 1;
    row.hi[a] = row.lo[a] + 1;
  }
  element.hi[last] = element.lo[last] + 1;
  column.hi[last] = column.lo[last] + 1;
  full_width.lo[last] = owned.lo[last];
  full_width.hi[last] = owned.hi[last];
  return {element, row, column, full_width, owned, random_box(), random_box()};
}

/// The region's elements in row-major region order, each found through
/// global_to_local.
Bytes reference_gather(const dad::Descriptor& d, int rank, const Patch& region,
                       const Bytes& local, std::size_t width) {
  Bytes out;
  region.for_each_point([&](const Point& p) {
    const auto off =
        static_cast<std::size_t>(d.global_to_local(rank, p)) * width;
    out.insert(out.end(), local.begin() + static_cast<std::ptrdiff_t>(off),
               local.begin() + static_cast<std::ptrdiff_t>(off + width));
  });
  return out;
}

Bytes reference_scatter(const dad::Descriptor& d, int rank,
                        const Patch& region, Bytes local, const Bytes& in,
                        std::size_t width) {
  std::size_t k = 0;
  region.for_each_point([&](const Point& p) {
    const auto off =
        static_cast<std::size_t>(d.global_to_local(rank, p)) * width;
    std::memcpy(local.data() + off, in.data() + k, width);
    k += width;
  });
  return local;
}

/// One region of one rank: the expected bytes of every direction, and the
/// checks that each copy path reproduces them and counts them as kernel
/// bytes.
struct RegionCase {
  const dad::DescriptorPtr& desc;
  int rank;
  const Patch& region;
  const Bytes& local;  // rank's local storage before the copy
  Bytes in;            // region-ordered input for the scatter direction
  Bytes gathered, scattered;

  RegionCase(const dad::DescriptorPtr& d, int r, const Patch& reg,
             const Bytes& loc, std::size_t w, std::mt19937& rng)
      : desc(d), rank(r), region(reg), local(loc),
        in(random_bytes(rng, static_cast<std::size_t>(reg.volume()) * w)),
        gathered(reference_gather(*d, r, reg, loc, w)),
        scattered(reference_scatter(*d, r, reg, loc, in, w)) {}

  /// `copy(out)` gathers the region into `out`; checks bytes and counters.
  template <class Gather>
  void check_gather(const char* path, Gather&& copy) const {
    Bytes out(gathered.size(), std::byte{0xAA});
    const std::uint64_t before = kernel_bytes();
    copy(out.data());
    EXPECT_EQ(kernel_bytes() - before, gathered.size())
        << path << " " << region.to_string();
    EXPECT_EQ(out, gathered) << path << " " << region.to_string();
  }

  /// `copy(storage)` scatters `in` into `storage`, a copy of `local`.
  template <class Scatter>
  void check_scatter(const char* path, Scatter&& copy) const {
    Bytes storage = local;
    const std::uint64_t before = kernel_bytes();
    copy(storage.data());
    EXPECT_EQ(kernel_bytes() - before, in.size())
        << path << " " << region.to_string();
    EXPECT_EQ(storage, scattered) << path << " " << region.to_string();
  }
};

template <class T>
void check_typed_callers(const RegionCase& c) {
  const auto bytes = c.local.size();
  dad::DistArray<T> arr(c.desc, c.rank);
  mxn::intercomm::LocalArray<T> la(c.desc->patches_of(c.rank));
  auto load = [&](std::span<T> dst, const std::byte* src) {
    if (bytes) std::memcpy(dst.data(), src, bytes);
  };
  load(arr.local(), c.local.data());
  load(la.local(), c.local.data());
  c.check_gather("DistArray::extract", [&](std::byte* out) {
    arr.extract(c.region, reinterpret_cast<T*>(out));
  });
  c.check_gather("LocalArray::extract", [&](std::byte* out) {
    la.extract(c.region, reinterpret_cast<T*>(out));
  });
  c.check_scatter("DistArray::inject", [&](std::byte* storage) {
    arr.inject(c.region, reinterpret_cast<const T*>(c.in.data()));
    std::memcpy(storage, arr.local().data(), bytes);
    load(arr.local(), c.local.data());
  });
  c.check_scatter("LocalArray::inject", [&](std::byte* storage) {
    la.inject(c.region, reinterpret_cast<const T*>(c.in.data()));
    std::memcpy(storage, la.local().data(), bytes);
    load(la.local(), c.local.data());
  });
}

}  // namespace

TEST(RegionCopy, EveryPathMatchesPerPointReferenceOnEveryTier) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 48; ++trial) {
    const int ndim = 1 + trial % 4;
    const auto desc = trial % 8 < 4 ? random_regular(rng, ndim)
                                    : random_explicit(rng, ndim);
    for (std::size_t width : {std::size_t{4}, std::size_t{8}, sizeof(Odd12)}) {
      for (int rank = 0; rank < desc->nranks(); ++rank) {
        const auto& patches = desc->patches_of(rank);
        if (patches.empty()) continue;
        const Bytes local = random_bytes(
            rng, static_cast<std::size_t>(desc->local_volume(rank)) * width);
        // Prefix the blob so the field starts mid-buffer, as in a snapshot.
        Bytes blob_bytes = random_bytes(rng, 24);
        blob_bytes.insert(blob_bytes.end(), local.begin(), local.end());
        const auto blob_field = mxn::redundancy::blob_backed_field(
            "f", desc, width, 24, rank, mxn::rt::Buffer::copy_of(blob_bytes));

        const auto pi = static_cast<std::size_t>(
            pick(rng, 0, static_cast<Index>(patches.size()) - 1));
        const Patch& owned = patches[pi];
        const Index base = desc->patch_base(rank, pi);
        for (const Patch& region : regions_of(owned, rng)) {
          const RegionCase c(desc, rank, region, local, width, rng);
          c.check_gather("gather_region", [&](std::byte* out) {
            dad::gather_region(owned, base, region, local.data(), out, width);
          });
          c.check_scatter("scatter_region", [&](std::byte* storage) {
            dad::scatter_region(owned, base, region, storage, c.in.data(),
                                width);
          });
          c.check_gather("blob_backed_field", [&](std::byte* out) {
            const auto& s = blob_field.storage;
            s.gather(s.find(region), region, out);
          });
          if (width == 4)
            check_typed_callers<std::uint32_t>(c);
          else if (width == 8)
            check_typed_callers<double>(c);
          else
            check_typed_callers<Odd12>(c);
        }
      }
    }
  }
}

TEST(RegionCopy, EmptyRegionCopiesNothing) {
  const Patch owned = patch2(0, 4, 0, 4);
  const Patch empty = patch2(1, 1, 0, 4);
  const std::uint64_t before = kernel_bytes();
  dad::gather_region(owned, 0, empty, nullptr, nullptr, 8);
  dad::scatter_region(owned, 0, empty, nullptr, nullptr, 8);
  EXPECT_EQ(kernel_bytes(), before);
}

TEST(RegionCopy, DriReorgMatchesPerPointReferenceOnEveryTier) {
  namespace dri = mxn::dri;
  std::mt19937 rng(11);
  auto random_partition = [&](Index extent) {
    const int p = static_cast<int>(pick(rng, 1, 2));
    switch (pick(rng, 0, 3)) {
      case 0:
        return dri::Partition::collapsed();
      case 1:
        return dri::Partition::block_over(p);
      case 2:
        return dri::Partition::cyclic_over(p);
      default:
        return dri::Partition::block_cyclic_over(
            p, pick(rng, 1, std::max<Index>(1, extent / 2)));
    }
  };
  for (int trial = 0; trial < 12; ++trial) {
    const int ndim = 1 + trial % 3;
    const auto type =
        trial % 2 ? dri::DataType::Double : dri::DataType::Float;
    std::vector<std::int64_t> extents;
    std::vector<dri::Partition> sp, dp;
    for (int a = 0; a < ndim; ++a) {
      extents.push_back(pick(rng, 2, ndim == 1 ? 40 : 9));
      sp.push_back(random_partition(extents.back()));
      dp.push_back(random_partition(extents.back()));
    }
    const dri::Distribution src(type, extents, sp), dst(type, extents, dp);
    const std::size_t w = src.elem_width();
    // Element bytes are a function of the element's global coordinates.
    auto value = [&](const Point& p, std::size_t byte) {
      std::uint64_t h = 1469598103934665603ull + byte;
      for (int a = 0; a < ndim; ++a)
        h = (h ^ static_cast<std::uint64_t>(p[a])) * 1099511628211ull;
      return static_cast<std::byte>(h >> 29);
    };
    const int world_size = src.nprocs() + dst.nprocs();
    SCOPED_TRACE("trial " + std::to_string(trial));
    mxn::rt::spawn(world_size, [&](mxn::rt::Communicator& world) {
      dri::Reorg reorg(world, src, dst, 31);
      const int me = world.rank();
      const int my_dst = me - src.nprocs();
      Bytes sbuf, dbuf;
      if (me < src.nprocs()) {
        sbuf.resize(src.local_bytes(me));
        const auto& d = *src.descriptor();
        for (const auto& patch : d.patches_of(me))
          patch.for_each_point([&](const Point& p) {
            const auto off =
                static_cast<std::size_t>(d.global_to_local(me, p)) * w;
            for (std::size_t b = 0; b < w; ++b) sbuf[off + b] = value(p, b);
          });
      } else {
        dbuf.resize(dst.local_bytes(my_dst));
      }
      reorg.run(sbuf, dbuf);
      if (my_dst < 0) return;
      const auto& d = *dst.descriptor();
      for (const auto& patch : d.patches_of(my_dst))
        patch.for_each_point([&](const Point& p) {
          const auto off =
              static_cast<std::size_t>(d.global_to_local(my_dst, p)) * w;
          for (std::size_t b = 0; b < w; ++b)
            ASSERT_EQ(dbuf[off + b], value(p, b))
                << "point " << p[0] << "," << p[1] << "," << p[2];
        });
    });
  }
}
