// Tests for the DRI module (§5 related work: the Data Reorganization
// Interface as "a specialized and low-level DAD and M×N component") and for
// HPF-style array-to-template alignment (§2.2.2).

#include <gtest/gtest.h>

#include <complex>
#include <memory>

#include "dad/alignment.hpp"
#include "dri/dri.hpp"
#include "rt/runtime.hpp"
#include "sched/cache.hpp"
#include "sched/executor.hpp"

namespace dri = mxn::dri;
namespace dad = mxn::dad;
namespace sched = mxn::sched;
namespace rt = mxn::rt;
using dad::AxisDist;
using dad::Point;

// ---------------------------------------------------------------------------
// DRI
// ---------------------------------------------------------------------------

TEST(Dri, TypeWidths) {
  EXPECT_EQ(dri::type_width(dri::DataType::Float), 4u);
  EXPECT_EQ(dri::type_width(dri::DataType::ComplexDouble), 16u);
  EXPECT_EQ(dri::type_width(dri::DataType::Short), 2u);
  EXPECT_EQ(dri::type_width(dri::DataType::Byte), 1u);
}

TEST(Dri, DistributionValidation) {
  EXPECT_THROW(dri::Distribution(dri::DataType::Float, {},
                                 {}),
               rt::UsageError);
  EXPECT_THROW(dri::Distribution(dri::DataType::Float, {4, 4, 4, 4},
                                 {dri::Partition::block_over(1),
                                  dri::Partition::block_over(1),
                                  dri::Partition::block_over(1),
                                  dri::Partition::block_over(1)}),
               rt::UsageError)
      << "DRI datasets are limited to three dimensions";
  EXPECT_THROW(dri::Distribution(dri::DataType::Float, {8, 8},
                                 {dri::Partition::block_over(2)}),
               rt::UsageError);
}

TEST(Dri, ReorgRequiresMatchingTypesAndExtents) {
  rt::spawn(2, [](rt::Communicator& world) {
    dri::Distribution a(dri::DataType::Float, {8},
                        {dri::Partition::block_over(2)});
    dri::Distribution b(dri::DataType::Double, {8},
                        {dri::Partition::block_over(2)});
    dri::Distribution c(dri::DataType::Float, {9},
                        {dri::Partition::block_over(2)});
    EXPECT_THROW(dri::Reorg(world, a, b, 3), rt::UsageError);
    EXPECT_THROW(dri::Reorg(world, a, c, 3), rt::UsageError);
  });
}

namespace {

/// Full reorganization between 2-producer / 2-consumer distributions of a
/// 2-D complex<float> dataset, driven with the given chunk size.
void run_reorg(std::size_t chunk_bytes) {
  using cfloat = std::complex<float>;
  rt::spawn(4, [&](rt::Communicator& world) {
    dri::Distribution src(dri::DataType::ComplexFloat, {8, 6},
                          {dri::Partition::block_over(2),
                           dri::Partition::collapsed()});
    dri::Distribution dst(dri::DataType::ComplexFloat, {8, 6},
                          {dri::Partition::collapsed(),
                           dri::Partition::cyclic_over(2)});
    dri::Reorg reorg(world, src, dst, 9);

    // Roles: ranks 0,1 source; ranks 2,3 destination.
    std::vector<cfloat> sbuf, dbuf;
    const int me = world.rank();
    if (me < 2) {
      sbuf.resize(static_cast<std::size_t>(src.local_count(me)));
      // Fill by global coordinates through the descriptor.
      const auto& d = *src.descriptor();
      for (std::size_t l = 0; l < sbuf.size(); ++l) {
        const auto p = d.local_to_global(me, static_cast<dad::Index>(l));
        sbuf[l] = cfloat(float(p[0]), float(p[1]));
      }
    }
    if (me >= 2) dbuf.resize(static_cast<std::size_t>(dst.local_count(me - 2)));

    int steps = 0;
    while (reorg.step(std::as_bytes(std::span<const cfloat>(sbuf)),
                      std::as_writable_bytes(std::span<cfloat>(dbuf)),
                      chunk_bytes))
      ++steps;
    EXPECT_TRUE(reorg.complete());
    if (chunk_bytes < 64) {
      EXPECT_GT(steps, 0);
    }

    if (me >= 2) {
      const auto& d = *dst.descriptor();
      for (std::size_t l = 0; l < dbuf.size(); ++l) {
        const auto p = d.local_to_global(me - 2, static_cast<dad::Index>(l));
        EXPECT_EQ(dbuf[l], cfloat(float(p[0]), float(p[1])));
      }
    }
  });
}

}  // namespace

TEST(Dri, ReorgMovesEverythingAtOnce) { run_reorg(SIZE_MAX); }

TEST(Dri, ChunkedGetPutLoopCompletes) {
  // The DRI model: "the user provides send and receive buffers and
  // repeatedly calls DRI get/put operations until the operation is
  // complete." 48-byte chunks force many rounds.
  run_reorg(48);
}

TEST(Dri, ReorgPlanIsReusableAfterReset) {
  // 16384 is the many-patch input: 8192 one-element destination patches
  // per rank.
  for (const std::int64_t extent : {10, 16384}) {
    rt::spawn(2, [extent](rt::Communicator& world) {
      dri::Distribution src(dri::DataType::Integer, {extent},
                            {dri::Partition::block_over(2)});
      dri::Distribution dst(dri::DataType::Integer, {extent},
                            {dri::Partition::cyclic_over(2)});
      dri::Reorg reorg(world, src, dst, 21);
      for (int round = 0; round < 3; ++round) {
        std::vector<std::int32_t> sbuf(
            static_cast<std::size_t>(src.local_count(world.rank())));
        std::vector<std::int32_t> dbuf(
            static_cast<std::size_t>(dst.local_count(world.rank())));
        const auto& sd = *src.descriptor();
        for (std::size_t l = 0; l < sbuf.size(); ++l)
          sbuf[l] = 100 * round +
                    static_cast<std::int32_t>(
                        sd.local_to_global(world.rank(),
                                           static_cast<dad::Index>(l))[0]);
        reorg.run(std::as_bytes(std::span<const std::int32_t>(sbuf)),
                  std::as_writable_bytes(std::span<std::int32_t>(dbuf)));
        const auto& dd = *dst.descriptor();
        for (std::size_t l = 0; l < dbuf.size(); ++l)
          EXPECT_EQ(dbuf[l],
                    100 * round +
                        static_cast<std::int32_t>(dd.local_to_global(
                            world.rank(), static_cast<dad::Index>(l))[0]));
        reorg.reset();
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Alignment
// ---------------------------------------------------------------------------

TEST(Alignment, InheritsTemplateDistributionShifted) {
  // 12-cell template, 3-rank blocks of 4. An 6-cell array aligned at
  // offset 3 spans template cells [3,9): rank0 owns array [0,1), rank1
  // owns [1,5), rank2 owns [5,6).
  auto tpl = dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, 3)});
  auto arr = dad::align(*tpl, Point{3}, Point{6});
  EXPECT_EQ(arr.nranks(), 3);
  EXPECT_EQ(arr.local_volume(0), 1);
  EXPECT_EQ(arr.local_volume(1), 4);
  EXPECT_EQ(arr.local_volume(2), 1);
  EXPECT_EQ(arr.owner(Point{0}), 0);
  EXPECT_EQ(arr.owner(Point{1}), 1);
  EXPECT_EQ(arr.owner(Point{5}), 2);
}

TEST(Alignment, RanksOutsideWindowOwnNothing) {
  auto tpl = dad::make_regular(std::vector<AxisDist>{AxisDist::block(16, 4)});
  auto arr = dad::align(*tpl, Point{0}, Point{4});
  EXPECT_EQ(arr.local_volume(0), 4);
  for (int r = 1; r < 4; ++r) EXPECT_EQ(arr.local_volume(r), 0);
}

TEST(Alignment, RejectsWindowsOutsideTemplate) {
  auto tpl = dad::make_regular(std::vector<AxisDist>{AxisDist::block(8, 2)});
  EXPECT_THROW(dad::align(*tpl, Point{5}, Point{4}), rt::UsageError);
  EXPECT_THROW(dad::align(*tpl, Point{-1}, Point{4}), rt::UsageError);
  EXPECT_THROW(dad::align(*tpl, Point{0}, Point{0}), rt::UsageError);
}

TEST(Alignment, AlignedArraysRedistributeThroughNormalSchedules) {
  // Two arrays aligned at different offsets of the same 2-D template; a
  // redistribution between them must land src(i,j) at dst(i,j).
  auto tpl = dad::make_regular(std::vector<AxisDist>{
      AxisDist::block(10, 2), AxisDist::block(10, 2)});
  auto a = dad::make_aligned(tpl, Point{0, 0}, Point{6, 6});
  auto b = dad::make_aligned(tpl, Point{4, 4}, Point{6, 6});
  rt::spawn(4, [&](rt::Communicator& world) {
    auto c = sched::self_coupling(world);
    dad::DistArray<double> src(a, world.rank());
    dad::DistArray<double> dst(b, world.rank());
    src.fill([](const Point& p) { return 13.0 * p[0] + p[1]; });
    auto s = sched::build_region_schedule(*a, *b, world.rank(), world.rank());
    sched::execute<double>(s, &src, &dst, c, 31);
    dst.for_each_owned([](const Point& p, const double& v) {
      EXPECT_DOUBLE_EQ(v, 13.0 * p[0] + p[1]);
    });
  });
}

TEST(Alignment, ConformingAlignedArraysShareCachedSchedules) {
  auto tpl = dad::make_regular(std::vector<AxisDist>{AxisDist::block(12, 2)});
  auto a1 = dad::make_aligned(tpl, Point{2}, Point{8});
  auto a2 = dad::make_aligned(tpl, Point{2}, Point{8});  // same alignment
  auto bdesc = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(8, 2)});
  mxn::sched::ScheduleCache cache;
  cache.get_shared(a1, bdesc, 0, -1);
  cache.get_shared(a2, bdesc, 0, -1);  // structurally equal -> hit
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}
