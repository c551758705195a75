// Differential tests for the schedule fast paths: every build path
// (Naive with pruning, Indexed, Analytic, and Auto) must produce a schedule
// element-for-element identical — same peers, same canonical region order,
// same element counts — to the retained naive no-prune reference, across a
// randomized sweep of distribution kinds, dimensionalities and cohort
// sizes. Plus global conservation (sum of sends == sum of recvs == global
// volume) and a differential check of the segment-schedule rewrite against
// the per-peer footprint + intersect formulation it replaced. Every region
// of every schedule (each build path, delta schedules, the partitioned
// builder) must also lie inside the source and destination patches its
// recorded indices name.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <thread>

#include "dad/dist_array.hpp"
#include "intercomm/distributed_schedule.hpp"
#include "linear/linearization.hpp"
#include "rt/runtime.hpp"
#include "sched/schedule.hpp"
#include "trace/trace.hpp"

namespace dad = mxn::dad;
namespace lin = mxn::linear;
namespace sched = mxn::sched;
using dad::AxisDist;
using dad::Descriptor;
using dad::DescriptorPtr;
using dad::Index;
using dad::Point;

namespace {

using Rng = std::mt19937;

int rand_int(Rng& rng, int lo, int hi) {  // inclusive
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// Random distribution for one axis of `extent` over `nprocs` grid coords,
/// covering every AxisKind.
AxisDist random_axis(Rng& rng, Index extent, int nprocs) {
  if (nprocs == 1 && rand_int(rng, 0, 1) == 0)
    return AxisDist::collapsed(extent);
  switch (rand_int(rng, 0, 3)) {
    case 0:
      return AxisDist::block(extent, nprocs);
    case 1:
      return AxisDist::cyclic(extent, nprocs);
    case 2:
      return AxisDist::block_cyclic(
          extent, nprocs, rand_int(rng, 1, static_cast<int>(extent) / 2 + 1));
    default: {
      if (rand_int(rng, 0, 1) == 0) {
        // Generalized block: random positive sizes summing to extent.
        std::vector<Index> sizes(static_cast<std::size_t>(nprocs), 1);
        Index rest = extent - nprocs;
        for (int i = 0; i + 1 < nprocs && rest > 0; ++i) {
          const Index take = rand_int(rng, 0, static_cast<int>(rest));
          sizes[static_cast<std::size_t>(i)] += take;
          rest -= take;
        }
        sizes.back() += rest;
        return AxisDist::generalized_block(std::move(sizes));
      }
      // Implicit: arbitrary owner per index.
      std::vector<int> owners(static_cast<std::size_t>(extent));
      for (auto& o : owners) o = rand_int(rng, 0, nprocs - 1);
      return AxisDist::implicit(std::move(owners), nprocs);
    }
  }
}

/// Random factorization of `nranks` into `ndim` per-axis grid sizes.
std::vector<int> random_grid(Rng& rng, int ndim, int nranks) {
  std::vector<int> g(static_cast<std::size_t>(ndim), 1);
  int rest = nranks;
  for (int a = 0; a < ndim - 1; ++a) {
    std::vector<int> divs;
    for (int d = 1; d <= rest; ++d)
      if (rest % d == 0) divs.push_back(d);
    g[static_cast<std::size_t>(a)] =
        divs[static_cast<std::size_t>(rand_int(rng, 0, static_cast<int>(divs.size()) - 1))];
    rest /= g[static_cast<std::size_t>(a)];
  }
  g[static_cast<std::size_t>(ndim - 1)] = rest;
  std::shuffle(g.begin(), g.end(), rng);
  return g;
}

DescriptorPtr random_regular(Rng& rng, int ndim, int nranks,
                             const Point& extents) {
  const auto grid = random_grid(rng, ndim, nranks);
  std::vector<AxisDist> axes;
  for (int a = 0; a < ndim; ++a)
    axes.push_back(
        random_axis(rng, extents[a], grid[static_cast<std::size_t>(a)]));
  return dad::make_regular(std::move(axes));
}

/// Explicit descriptor with the same patch geometry as `reg` but owners
/// permuted — exercises the explicit/indexed path with a guaranteed exact
/// cover.
DescriptorPtr explicit_from(Rng& rng, const Descriptor& reg) {
  std::vector<int> perm(static_cast<std::size_t>(reg.nranks()));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<dad::OwnedPatch> patches;
  for (int r = 0; r < reg.nranks(); ++r)
    for (const auto& p : reg.patches_of(r))
      patches.push_back({p, perm[static_cast<std::size_t>(r)]});
  return dad::make_explicit(reg.ndim(), reg.extents(), std::move(patches),
                            reg.nranks());
}

DescriptorPtr random_descriptor(Rng& rng, int ndim, int nranks,
                                const Point& extents) {
  auto reg = random_regular(rng, ndim, nranks, extents);
  if (rand_int(rng, 0, 3) == 0) return explicit_from(rng, *reg);
  return reg;
}

/// `region` lies inside patch `idx` of `patches`.
void expect_in_patch(const std::vector<dad::Patch>& patches, std::uint32_t idx,
                     const dad::Patch& region, const std::string& label) {
  ASSERT_LT(idx, patches.size()) << label << " " << region.to_string();
  EXPECT_TRUE(patches[idx].contains(region))
      << label << " " << region.to_string() << " not in patch " << idx << " "
      << patches[idx].to_string();
}

/// Every region of `s`, built for source rank `ms` and destination rank
/// `md`, lies in the source patch its src_patch names and the destination
/// patch its dst_patch names. `dst` may be null where the builder cannot
/// know the destination's patches (partitioned sends).
void expect_named_patches(const sched::RegionSchedule& s,
                          const std::vector<dad::Patch>* mine_src,
                          const std::vector<dad::Patch>* mine_dst,
                          const Descriptor* src, const Descriptor* dst,
                          const std::string& label) {
  for (const auto& pr : s.sends)
    for (const auto& r : pr.regions) {
      expect_in_patch(*mine_src, r.src_patch, r, label + " send src");
      if (dst)
        expect_in_patch(dst->patches_of(pr.peer), r.dst_patch, r,
                        label + " send dst");
    }
  for (const auto& pr : s.recvs)
    for (const auto& r : pr.regions) {
      if (src)
        expect_in_patch(src->patches_of(pr.peer), r.src_patch, r,
                        label + " recv src");
      expect_in_patch(*mine_dst, r.dst_patch, r, label + " recv dst");
    }
}

void expect_named_patches(const sched::RegionSchedule& s,
                          const Descriptor& src, const Descriptor& dst,
                          int ms, int md, const std::string& label) {
  expect_named_patches(s, ms >= 0 ? &src.patches_of(ms) : nullptr,
                       md >= 0 ? &dst.patches_of(md) : nullptr, &src, &dst,
                       label);
}

/// `got` equals `want` region for region (patch indices included), and
/// every region of `got` lies in the patches it names.
void expect_identical(const sched::RegionSchedule& got,
                      const sched::RegionSchedule& want, const Descriptor& src,
                      const Descriptor& dst, int ms, int md,
                      const std::string& label) {
  expect_named_patches(got, src, dst, ms, md, label);
  ASSERT_EQ(got.sends.size(), want.sends.size()) << label;
  ASSERT_EQ(got.recvs.size(), want.recvs.size()) << label;
  for (std::size_t k = 0; k < want.sends.size(); ++k) {
    EXPECT_EQ(got.sends[k].peer, want.sends[k].peer) << label << " send " << k;
    EXPECT_EQ(got.sends[k].elements, want.sends[k].elements)
        << label << " send " << k;
    ASSERT_EQ(got.sends[k].regions.size(), want.sends[k].regions.size())
        << label << " send " << k;
    for (std::size_t i = 0; i < want.sends[k].regions.size(); ++i)
      ASSERT_EQ(got.sends[k].regions[i], want.sends[k].regions[i])
          << label << " send " << k << " region " << i;
  }
  for (std::size_t k = 0; k < want.recvs.size(); ++k) {
    EXPECT_EQ(got.recvs[k].peer, want.recvs[k].peer) << label << " recv " << k;
    EXPECT_EQ(got.recvs[k].elements, want.recvs[k].elements)
        << label << " recv " << k;
    ASSERT_EQ(got.recvs[k].regions.size(), want.recvs[k].regions.size())
        << label << " recv " << k;
    for (std::size_t i = 0; i < want.recvs[k].regions.size(); ++i)
      ASSERT_EQ(got.recvs[k].regions[i], want.recvs[k].regions[i])
          << label << " recv " << k << " region " << i;
  }
}

struct Cohorts {
  int m;
  int n;
};
constexpr Cohorts kCohorts[] = {{4, 3}, {8, 2}, {16, 16}};

Point extents_for(Rng& rng, int ndim) {
  // Small enough that the naive reference stays cheap, large enough to
  // produce multi-interval cyclic/block-cyclic patch sets.
  Point e{};
  for (int a = 0; a < ndim; ++a)
    e[a] = rand_int(rng, 17, ndim == 3 ? 24 : 40);
  return e;
}

}  // namespace

TEST(ScheduleDiff, AllPathsMatchNaiveReferenceAcrossRandomSweep) {
  Rng rng(20260806);
  for (const auto& co : kCohorts) {
    for (int ndim = 1; ndim <= 3; ++ndim) {
      for (int trial = 0; trial < 3; ++trial) {
        const Point extents = extents_for(rng, ndim);
        const auto src = random_descriptor(rng, ndim, co.m, extents);
        const auto dst = random_descriptor(rng, ndim, co.n, extents);
        const bool regular = !src->is_explicit() && !dst->is_explicit();
        const std::string tag = src->to_string() + " -> " + dst->to_string();

        // Every rank of both cohorts, both roles at once where they overlap.
        const int rmax = std::max(co.m, co.n);
        for (int r = 0; r < rmax; ++r) {
          const int ms = r < co.m ? r : -1;
          const int md = r < co.n ? r : -1;
          const auto ref = sched::build_region_schedule(
              *src, *dst, ms, md, sched::BuildPath::Reference);
          expect_named_patches(ref, *src, *dst, ms, md,
                               tag + " [reference r" + std::to_string(r));
          expect_identical(sched::build_region_schedule(
                               *src, *dst, ms, md, sched::BuildPath::Naive),
                           ref, *src, *dst, ms, md,
                           tag + " [naive+prune r" + std::to_string(r));
          expect_identical(sched::build_region_schedule(
                               *src, *dst, ms, md, sched::BuildPath::Indexed),
                           ref, *src, *dst, ms, md,
                           tag + " [indexed r" + std::to_string(r));
          expect_identical(
              sched::build_region_schedule(*src, *dst, ms, md,
                                           sched::BuildPath::Auto),
              ref, *src, *dst, ms, md, tag + " [auto r" + std::to_string(r));
          if (regular)
            expect_identical(
                sched::build_region_schedule(*src, *dst, ms, md,
                                             sched::BuildPath::Analytic),
                ref, *src, *dst, ms, md,
                tag + " [analytic r" + std::to_string(r));
        }
      }
    }
  }
}

TEST(ScheduleDiff, IndexedMatchesReferenceOnRowAndColumnCyclicPatches) {
  // Explicit templates whose patches stack along axis 0 (row-cyclic) or
  // along axis 1 (column-cyclic). The spatial index sweeps each rank's
  // patches along the axis they stack least deeply on, and the indexed
  // schedule must equal the reference for every pairing of orientations.
  Rng rng(20261020);
  const Point extents{36, 40};
  auto cyclic_along = [&](int axis, int nranks, Index block) {
    std::vector<AxisDist> axes;
    for (int a = 0; a < 2; ++a)
      axes.push_back(a == axis
                         ? AxisDist::block_cyclic(extents[a], nranks, block)
                         : AxisDist::collapsed(extents[a]));
    return explicit_from(rng, *dad::make_regular(std::move(axes)));
  };
  for (int src_axis = 0; src_axis < 2; ++src_axis) {
    for (int dst_axis = 0; dst_axis < 2; ++dst_axis) {
      const auto src = cyclic_along(src_axis, 4, 1);
      const auto dst = cyclic_along(dst_axis, 3, 2);
      for (int r = 0; r < 4; ++r)
        EXPECT_EQ(src->spatial_index()[static_cast<std::size_t>(r)].axis,
                  src_axis);
      for (int r = 0; r < 4; ++r) {
        const int ms = r;
        const int md = r < 3 ? r : -1;
        const std::string tag = "src axis " + std::to_string(src_axis) +
                                ", dst axis " + std::to_string(dst_axis) +
                                " r" + std::to_string(r);
        const auto ref = sched::build_region_schedule(
            *src, *dst, ms, md, sched::BuildPath::Reference);
        expect_identical(sched::build_region_schedule(
                             *src, *dst, ms, md, sched::BuildPath::Indexed),
                         ref, *src, *dst, ms, md, tag);
      }
    }
  }
}

TEST(ScheduleDiff, PartitionedBuilderMatchesReferenceAndNamesPatches) {
  // InterComm's partitioned builder sees only each rank's own patches; its
  // destinations intersect and reply with the regions and their indices.
  // Sources must end up with the reference schedule, indices included,
  // and destinations with the reference's receive side.
  Rng rng(5150);
  for (int trial = 0; trial < 6; ++trial) {
    const int ndim = rand_int(rng, 1, 3);
    const int m = rand_int(rng, 1, 4), n = rand_int(rng, 1, 4);
    const Point extents = extents_for(rng, ndim);
    const auto src = random_descriptor(rng, ndim, m, extents);
    const auto dst = random_descriptor(rng, ndim, n, extents);
    const std::string tag = src->to_string() + " -> " + dst->to_string();
    mxn::rt::spawn(m + n, [&](mxn::rt::Communicator& world) {
      auto c = sched::split_coupling(world, m, n);
      const int ms = c.my_src_rank(), md = c.my_dst_rank();
      const auto got = mxn::intercomm::build_region_schedule_partitioned(
          ms >= 0 ? src->patches_of(ms) : std::vector<dad::Patch>{},
          md >= 0 ? dst->patches_of(md) : std::vector<dad::Patch>{}, c, 80);
      const auto ref = sched::build_region_schedule(
          *src, *dst, ms, md, sched::BuildPath::Reference);
      expect_identical(got, ref, *src, *dst, ms, md, tag + " [partitioned]");
    });
  }
}

TEST(ScheduleDiff, GlobalConservationEveryDistributionKind) {
  Rng rng(987654321);
  for (const auto& co : kCohorts) {
    for (int ndim = 1; ndim <= 3; ++ndim) {
      const Point extents = extents_for(rng, ndim);
      const auto src = random_descriptor(rng, ndim, co.m, extents);
      const auto dst = random_descriptor(rng, ndim, co.n, extents);
      const Index volume = src->total_volume();
      ASSERT_EQ(volume, dst->total_volume());

      Index sent = 0, received = 0;
      for (int s = 0; s < co.m; ++s)
        sent += sched::build_region_schedule(*src, *dst, s, -1).send_elements();
      for (int d = 0; d < co.n; ++d)
        received +=
            sched::build_region_schedule(*src, *dst, -1, d).recv_elements();
      EXPECT_EQ(sent, volume) << src->to_string() << " -> " << dst->to_string();
      EXPECT_EQ(received, volume)
          << src->to_string() << " -> " << dst->to_string();
    }
  }
}

TEST(ScheduleDiff, SegmentScheduleMatchesPerPeerIntersection) {
  Rng rng(424242);
  for (int trial = 0; trial < 6; ++trial) {
    const int ndim = rand_int(rng, 1, 3);
    const Point extents = extents_for(rng, ndim);
    const auto src = random_descriptor(rng, ndim, 6, extents);
    const auto dst = random_descriptor(rng, ndim, 4, extents);
    const auto src_lin = rand_int(rng, 0, 1) == 0
                             ? lin::Linearization::row_major(ndim, extents)
                             : lin::Linearization::column_major(ndim, extents);
    const auto dst_lin = rand_int(rng, 0, 1) == 0
                             ? lin::Linearization::row_major(ndim, extents)
                             : lin::Linearization::column_major(ndim, extents);

    for (int r = 0; r < 6; ++r) {
      const int ms = r;
      const int md = r < 4 ? r : -1;
      const auto got =
          sched::build_segment_schedule(*src, src_lin, *dst, dst_lin, ms, md);

      // Reference: the per-peer footprint + intersect formulation.
      sched::SegmentSchedule want;
      const auto mine_s = lin::footprint(*src, ms, src_lin);
      for (int d = 0; d < dst->nranks(); ++d) {
        auto common = lin::intersect(mine_s, lin::footprint(*dst, d, dst_lin));
        if (common.empty()) continue;
        sched::PeerSegments ps;
        ps.peer = d;
        ps.elements = lin::total_length(common);
        ps.segs = std::move(common);
        want.sends.push_back(std::move(ps));
      }
      if (md >= 0) {
        const auto mine_d = lin::footprint(*dst, md, dst_lin);
        for (int s = 0; s < src->nranks(); ++s) {
          auto common =
              lin::intersect(lin::footprint(*src, s, src_lin), mine_d);
          if (common.empty()) continue;
          sched::PeerSegments ps;
          ps.peer = s;
          ps.elements = lin::total_length(common);
          ps.segs = std::move(common);
          want.recvs.push_back(std::move(ps));
        }
      }

      ASSERT_EQ(got.sends.size(), want.sends.size());
      ASSERT_EQ(got.recvs.size(), want.recvs.size());
      for (std::size_t k = 0; k < want.sends.size(); ++k) {
        EXPECT_EQ(got.sends[k].peer, want.sends[k].peer);
        EXPECT_EQ(got.sends[k].elements, want.sends[k].elements);
        EXPECT_EQ(got.sends[k].segs, want.sends[k].segs);
      }
      for (std::size_t k = 0; k < want.recvs.size(); ++k) {
        EXPECT_EQ(got.recvs[k].peer, want.recvs[k].peer);
        EXPECT_EQ(got.recvs[k].elements, want.recvs[k].elements);
        EXPECT_EQ(got.recvs[k].segs, want.recvs[k].segs);
      }
    }
  }
}

TEST(ScheduleDiff, AnalyticPathRejectsExplicitTemplates) {
  Rng rng(7);
  auto reg = random_regular(rng, 2, 4, Point{12, 12, 0, 0});
  auto exp = explicit_from(rng, *reg);
  EXPECT_THROW(sched::build_region_schedule(*exp, *reg, 0, 0,
                                            sched::BuildPath::Analytic),
               mxn::rt::UsageError);
  EXPECT_THROW(sched::build_region_schedule(*reg, *exp, 0, 0,
                                            sched::BuildPath::Analytic),
               mxn::rt::UsageError);
}

TEST(ScheduleDiff, FastPathCountersAdvance) {
  auto a = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(64, 4)});
  auto b = dad::make_regular(std::vector<AxisDist>{AxisDist::block(64, 3)});

  const auto fast0 = mxn::trace::counter("sched.fastpath.hits").value();
  (void)sched::build_region_schedule(*a, *b, 0, 0, sched::BuildPath::Analytic);
  EXPECT_GT(mxn::trace::counter("sched.fastpath.hits").value(), fast0);

  const auto idx0 = mxn::trace::counter("sched.index.hits").value();
  const auto builds0 = mxn::trace::counter("sched.index.builds").value();
  (void)sched::build_region_schedule(*a, *b, 0, 0, sched::BuildPath::Indexed);
  EXPECT_GT(mxn::trace::counter("sched.index.hits").value(), idx0);
  EXPECT_GT(mxn::trace::counter("sched.index.builds").value(), builds0);
  // The spatial index is memoized per descriptor: a second indexed build
  // reuses it.
  const auto builds1 = mxn::trace::counter("sched.index.builds").value();
  (void)sched::build_region_schedule(*a, *b, 0, 0, sched::BuildPath::Indexed);
  EXPECT_EQ(mxn::trace::counter("sched.index.builds").value(), builds1);
}

TEST(ScheduleDiff, FootprintCacheHitsOnRepeatedSegmentBuilds) {
  auto src = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(96, 6)});
  auto dst = dad::make_regular(std::vector<AxisDist>{AxisDist::block(96, 4)});
  const auto l = lin::Linearization::row_major(1, Point{96, 0, 0, 0});

  lin::footprint_cache_clear();
  (void)sched::build_segment_schedule(*src, l, *dst, l, 0, 0);
  const auto first = lin::footprint_cache_stats();
  EXPECT_GT(first.misses, 0u);
  (void)sched::build_segment_schedule(*src, l, *dst, l, 1, 1);
  const auto second = lin::footprint_cache_stats();
  // The first build's ownership maps already cached every rank's footprint
  // on both sides, so the second rank's build is served entirely from cache.
  EXPECT_GT(second.hits, first.hits);
  EXPECT_EQ(second.misses, first.misses);
}

// ---------------------------------------------------------------------------
// Delta schedules (elastic rescaling, docs/RESCALING.md)
// ---------------------------------------------------------------------------

namespace {

/// Channel-rank overlap patterns between a cohort of `m` and a cohort of
/// `n`: the delta builder's local/wire split depends only on which slots
/// map to the same channel rank, so these cover pure-wire (disjoint),
/// full-survival (identical), and mixed retire/survive/admit layouts.
std::pair<std::vector<int>, std::vector<int>> overlap_lists(int pattern,
                                                            int m, int n) {
  std::vector<int> from(static_cast<std::size_t>(m));
  std::vector<int> to(static_cast<std::size_t>(n));
  switch (pattern) {
    case 0:  // disjoint: every element moves on the wire
      std::iota(from.begin(), from.end(), 0);
      std::iota(to.begin(), to.end(), m);
      break;
    case 1:  // identical prefix: maximal same-rank overlap
      std::iota(from.begin(), from.end(), 0);
      std::iota(to.begin(), to.end(), 0);
      break;
    default:  // staggered: retire the first half, admit at the tail
      std::iota(from.begin(), from.end(), 0);
      std::iota(to.begin(), to.end(), m / 2);
      break;
  }
  return {std::move(from), std::move(to)};
}

double global_value(const Point& p) {
  return 13.0 * p[0] + 3.0 * p[1] + p[2];
}

}  // namespace

TEST(DeltaSchedule, SplitsFullScheduleExactlyIntoLocalAndWire) {
  // For every participant the delta must partition the full redistribution
  // schedule: wire traffic plus same-channel-rank local regions account for
  // every element, and no wire pair connects a rank to itself.
  Rng rng(20260808);
  for (const auto& co : kCohorts) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      const auto [from_ranks, to_ranks] =
          overlap_lists(pattern, co.m, co.n);
      for (int ndim = 1; ndim <= 3; ++ndim) {
        const Point extents = extents_for(rng, ndim);
        const auto from = random_descriptor(rng, ndim, co.m, extents);
        const auto to = random_descriptor(rng, ndim, co.n, extents);

        Index moved_out = 0, moved_in = 0, local_total = 0;
        const int channel_size = 64;
        for (int ch = 0; ch < channel_size; ++ch) {
          int my_from = -1, my_to = -1;
          for (std::size_t i = 0; i < from_ranks.size(); ++i)
            if (from_ranks[i] == ch) my_from = static_cast<int>(i);
          for (std::size_t i = 0; i < to_ranks.size(); ++i)
            if (to_ranks[i] == ch) my_to = static_cast<int>(i);
          if (my_from < 0 && my_to < 0) continue;

          const auto delta = sched::build_delta_schedule(
              *from, *to, my_from, my_to, from_ranks, to_ranks);
          const auto full = sched::build_region_schedule(
              *from, *to, my_from, my_to);

          // Partition: wire + local == full, on both roles.
          EXPECT_EQ(delta.wire_send_elements() + delta.local_elements,
                    full.send_elements())
              << "pattern " << pattern << " rank " << ch;
          EXPECT_EQ(delta.wire_recv_elements() + delta.local_elements,
                    full.recv_elements())
              << "pattern " << pattern << " rank " << ch;

          // No self-pairs on the wire.
          for (const auto& pr : delta.wire.sends)
            EXPECT_NE(to_ranks.at(static_cast<std::size_t>(pr.peer)), ch);
          for (const auto& pr : delta.wire.recvs)
            EXPECT_NE(from_ranks.at(static_cast<std::size_t>(pr.peer)), ch);

          // Local regions really are owned on both sides by this rank, in
          // the patches they name; wire regions name theirs too.
          Index local_vol = 0;
          for (const auto& r : delta.local) {
            local_vol += r.volume();
            expect_in_patch(from->patches_of(my_from), r.src_patch, r,
                            "delta local src");
            expect_in_patch(to->patches_of(my_to), r.dst_patch, r,
                            "delta local dst");
          }
          EXPECT_EQ(local_vol, delta.local_elements);
          expect_named_patches(delta.wire, *from, *to, my_from, my_to,
                               "delta wire rank " + std::to_string(ch));

          moved_out += delta.wire_send_elements();
          moved_in += delta.wire_recv_elements();
          local_total += delta.local_elements;
        }
        // Conservation across the channel: everything sent is received,
        // and wire + local covers the global volume exactly once.
        EXPECT_EQ(moved_out, moved_in);
        EXPECT_EQ(moved_out + local_total, from->total_volume())
            << "pattern " << pattern << ": " << from->to_string() << " -> "
            << to->to_string();
      }
    }
  }
}

TEST(DeltaSchedule, SimulatedMigrationMatchesDirectRedistribution) {
  // The end-to-end differential: materialize the old decomposition, apply
  // the delta (local extract→inject moves plus simulated wire transfers),
  // and require the new decomposition to be element-for-element identical
  // to building the new state directly. Runs across random distribution
  // kinds and all three overlap patterns.
  Rng rng(77002026);
  for (int trial = 0; trial < 12; ++trial) {
    const int pattern = trial % 3;
    const int m = rand_int(rng, 2, 6), n = rand_int(rng, 2, 6);
    const auto [from_ranks, to_ranks] = overlap_lists(pattern, m, n);
    const int ndim = rand_int(rng, 1, 3);
    const Point extents = extents_for(rng, ndim);
    const auto from = random_descriptor(rng, ndim, m, extents);
    const auto to = random_descriptor(rng, ndim, n, extents);

    // Old state: every from-rank's array filled from the global function.
    std::vector<dad::DistArray<double>> old_arrays;
    old_arrays.reserve(static_cast<std::size_t>(m));
    for (int r = 0; r < m; ++r) {
      old_arrays.emplace_back(from, r);
      old_arrays.back().fill(global_value);
    }
    std::vector<dad::DistArray<double>> new_arrays;
    new_arrays.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) new_arrays.emplace_back(to, r);

    // Apply each participant's delta. Wire recvs pull straight from the
    // sending rank's array — canonical region nesting guarantees the
    // receiver's region list equals the sender's for the pair.
    for (int d = 0; d < n; ++d) {
      const int ch = to_ranks[static_cast<std::size_t>(d)];
      int my_from = -1;
      for (std::size_t i = 0; i < from_ranks.size(); ++i)
        if (from_ranks[i] == ch) my_from = static_cast<int>(i);
      const auto delta = sched::build_delta_schedule(*from, *to, my_from, d,
                                                     from_ranks, to_ranks);
      for (const auto& region : delta.local) {
        const auto buf =
            old_arrays[static_cast<std::size_t>(my_from)].extract(region);
        new_arrays[static_cast<std::size_t>(d)].inject(region, buf.data());
      }
      for (const auto& pr : delta.wire.recvs) {
        auto& src_arr = old_arrays[static_cast<std::size_t>(pr.peer)];
        for (const auto& region : pr.regions) {
          const auto buf = src_arr.extract(region);
          new_arrays[static_cast<std::size_t>(d)].inject(region, buf.data());
        }
      }
    }

    // Every new rank must now hold exactly the directly-built state.
    for (int d = 0; d < n; ++d) {
      new_arrays[static_cast<std::size_t>(d)].for_each_owned(
          [&](const Point& p, const double& v) {
            ASSERT_DOUBLE_EQ(v, global_value(p))
                << "trial " << trial << " rank " << d;
          });
    }
  }
}

TEST(DeltaSchedule, ValidatesChannelRankLists) {
  auto from = dad::make_regular(std::vector<AxisDist>{AxisDist::block(24, 2)});
  auto to = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(24, 3)});
  const std::vector<int> from_ranks{0, 1};
  const std::vector<int> to_ranks{1, 2, 3};
  // Wrong list lengths.
  EXPECT_THROW(
      sched::build_delta_schedule(*from, *to, 0, -1, {0}, to_ranks),
      mxn::rt::UsageError);
  EXPECT_THROW(
      sched::build_delta_schedule(*from, *to, 0, -1, from_ranks, {1, 2}),
      mxn::rt::UsageError);
  // Inconsistent slots: claims from-slot 1 (channel 1) and to-slot 2
  // (channel 3) simultaneously.
  EXPECT_THROW(
      sched::build_delta_schedule(*from, *to, 1, 2, from_ranks, to_ranks),
      mxn::rt::UsageError);
  // Consistent: from-slot 1 and to-slot 0 both map to channel rank 1.
  const auto d =
      sched::build_delta_schedule(*from, *to, 1, 0, from_ranks, to_ranks);
  EXPECT_EQ(d.wire_send_elements() + d.wire_recv_elements() +
                2 * d.local_elements,
            d.wire.send_elements() + d.wire.recv_elements() +
                2 * d.local_elements);
}

// ---------------------------------------------------------------------------
// Footprint/ownership cache accounting (ISSUE 9 satellite bugfixes)
// ---------------------------------------------------------------------------

TEST(FootprintCache, ClearResetsTallies) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(48, 4)});
  const auto l = lin::Linearization::row_major(1, Point{48, 0, 0, 0});

  lin::footprint_cache_clear();
  (void)lin::footprint_cached(*d, 0, l);
  (void)lin::footprint_cached(*d, 0, l);
  (void)lin::ownership_map_cached(*d, l);
  auto s = lin::footprint_cache_stats();
  EXPECT_GT(s.hits + s.misses + s.ownership_hits + s.ownership_misses, 0u);

  lin::footprint_cache_clear();
  s = lin::footprint_cache_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.ownership_hits, 0u);
  EXPECT_EQ(s.ownership_misses, 0u);
  EXPECT_EQ(s.races, 0u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(FootprintCache, OwnershipBilledToItsOwnCounters) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::cyclic(96, 6)});
  const auto l = lin::Linearization::row_major(1, Point{96, 0, 0, 0});

  lin::footprint_cache_clear();
  // A cold ownership-map build is ONE ownership miss — the per-rank
  // footprint lookups its build path runs internally are a build detail
  // and must not inflate the footprint tallies.
  (void)lin::ownership_map_cached(*d, l);
  auto s = lin::footprint_cache_stats();
  EXPECT_EQ(s.ownership_misses, 1u);
  EXPECT_EQ(s.ownership_hits, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);

  // The build did seed the per-rank footprint entries, though: a real
  // application footprint lookup now hits, billed to the footprint tally.
  (void)lin::footprint_cached(*d, 3, l);
  s = lin::footprint_cache_stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);

  // And a repeat ownership lookup is an ownership hit, not a footprint one.
  (void)lin::ownership_map_cached(*d, l);
  s = lin::footprint_cache_stats();
  EXPECT_EQ(s.ownership_hits, 1u);
  EXPECT_EQ(s.ownership_misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  lin::footprint_cache_clear();
}

TEST(FootprintCache, ConcurrentColdLookupsCountOneMissRestRacesOrHits) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(256, 8)});
  const auto l = lin::Linearization::row_major(1, Point{256, 0, 0, 0});

  lin::footprint_cache_clear();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  std::vector<lin::SegmentsPtr> out(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {}  // start line: maximize the race
      out[t] = lin::footprint_cached(*d, 5, l);
    });
  }
  for (auto& th : threads) th.join();

  // Everyone got the same immutable footprint...
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(*out[t], *out[0]);
  // ...and the tallies stay exact: exactly one thread's build won (the
  // miss); every other thread either hit or lost the insert race — a racer
  // performed a redundant build but neither hit nor missed the cache.
  const auto s = lin::footprint_cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits + s.races, static_cast<std::size_t>(kThreads) - 1);
  lin::footprint_cache_clear();
}

TEST(FootprintCache, InsertNeverEvictsTheEntryItAdds) {
  // Same rule as the schedule cache: under a byte budget below one entry's
  // cost, a fresh footprint stays resident and evicts the older one.
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(48, 4)});
  const auto l = lin::Linearization::row_major(1, Point{48, 0, 0, 0});

  lin::footprint_cache_clear();
  lin::FootprintCacheConfig cfg;
  cfg.max_bytes = 1;
  lin::footprint_cache_configure(cfg);

  (void)lin::footprint_cached(*d, 0, l);
  (void)lin::footprint_cached(*d, 0, l);
  auto s = lin::footprint_cache_stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);

  (void)lin::footprint_cached(*d, 1, l);  // evicts rank 0's footprint
  s = lin::footprint_cache_stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 1u);

  lin::footprint_cache_configure(lin::FootprintCacheConfig{});
  lin::footprint_cache_clear();
}

TEST(FootprintCache, BudgetEvictsButHandlesStayValid) {
  auto d = dad::make_regular(std::vector<AxisDist>{AxisDist::block(512, 32)});
  const auto l = lin::Linearization::row_major(1, Point{512, 0, 0, 0});

  lin::footprint_cache_clear();
  lin::FootprintCacheConfig cfg;
  cfg.shards = 2;
  cfg.max_entries = 8;
  lin::footprint_cache_configure(cfg);

  std::vector<lin::SegmentsPtr> held;
  for (int r = 0; r < 32; ++r) held.push_back(lin::footprint_cached(*d, r, l));
  auto s = lin::footprint_cache_stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.entries, cfg.max_entries);

  // Eviction drops the cache's reference only; every handle stays usable.
  for (int r = 0; r < 32; ++r) {
    ASSERT_TRUE(held[r]);
    EXPECT_EQ(lin::total_length(*held[r]), 512 / 32);
  }

  lin::footprint_cache_configure(lin::FootprintCacheConfig{});
  lin::footprint_cache_clear();
}
