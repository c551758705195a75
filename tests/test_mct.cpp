// Tests for the Model Coupling Toolkit layer (src/mct): GlobalSegMap,
// AttrVect, Router/Rearranger, distributed sparse-matrix interpolation,
// accumulators, merging, grids and conservative integrals.

#include <gtest/gtest.h>

#include <barrier>
#include <numeric>

#include "mct/accumulator.hpp"
#include "mct/attr_vect.hpp"
#include "mct/global_seg_map.hpp"
#include "mct/grid.hpp"
#include "mct/merge.hpp"
#include "mct/registry.hpp"
#include "mct/router.hpp"
#include "mct/sparse_matrix.hpp"
#include "rt/runtime.hpp"
#include "sched/executor.hpp"

namespace mct = mxn::mct;
namespace rt = mxn::rt;
using mct::AttrVect;
using mct::GlobalSegMap;
using mct::Index;

// ---------------------------------------------------------------------------
// GlobalSegMap
// ---------------------------------------------------------------------------

TEST(GlobalSegMap, BlockDecomposition) {
  auto g = GlobalSegMap::block(10, 3);
  EXPECT_EQ(g.nprocs(), 3);
  EXPECT_EQ(g.local_size(0), 4);
  EXPECT_EQ(g.local_size(2), 2);
  EXPECT_EQ(g.owner(0), 0);
  EXPECT_EQ(g.owner(9), 2);
  EXPECT_EQ(g.local_index(1, 5), 1);
  EXPECT_EQ(g.global_index(1, 1), 5);
}

TEST(GlobalSegMap, CyclicDecomposition) {
  auto g = GlobalSegMap::cyclic(8, 2, 2);
  // Chunks: [0,2)p0 [2,4)p1 [4,6)p0 [6,8)p1
  EXPECT_EQ(g.owner(3), 1);
  EXPECT_EQ(g.owner(5), 0);
  EXPECT_EQ(g.local_size(0), 4);
  EXPECT_EQ(g.local_index(0, 4), 2);
  EXPECT_EQ(g.footprint(0),
            (std::vector<mxn::linear::Segment>{{0, 2}, {4, 6}}));
}

TEST(GlobalSegMap, ValidationRejectsBadPartitions) {
  using Seg = GlobalSegMap::Seg;
  EXPECT_THROW(GlobalSegMap(10, {Seg{0, 5, 0}}), rt::UsageError);  // gap
  EXPECT_THROW(GlobalSegMap(10, {Seg{0, 6, 0}, Seg{5, 5, 1}}),
               rt::UsageError);  // overlap
  EXPECT_THROW(GlobalSegMap(10, {Seg{0, 11, 0}}), rt::UsageError);
  EXPECT_THROW(GlobalSegMap(10, {Seg{0, 10, -1}}), rt::UsageError);
}

TEST(GlobalSegMap, LocalGlobalRoundTrip) {
  auto g = GlobalSegMap::cyclic(23, 4, 3);
  for (int r = 0; r < g.nprocs(); ++r) {
    for (Index l = 0; l < g.local_size(r); ++l) {
      const Index gi = g.global_index(r, l);
      EXPECT_EQ(g.owner(gi), r);
      EXPECT_EQ(g.local_index(r, gi), l);
    }
  }
}

TEST(GlobalSegMap, PackUnpackRoundTrip) {
  auto g = GlobalSegMap::cyclic(17, 3, 2);
  rt::PackBuffer b;
  g.pack(b);
  auto bytes = std::move(b).take();
  rt::UnpackBuffer u(bytes);
  EXPECT_TRUE(GlobalSegMap::unpack(u) == g);
}

TEST(GlobalSegMap, RankPastLastOwnerOwnsNothing) {
  // block(2, 4) has only two non-empty blocks, so ranks 2 and 3 own nothing.
  auto g = GlobalSegMap::block(2, 4);
  EXPECT_EQ(g.nprocs(), 2);
  EXPECT_TRUE(g.segs_of(3).empty());
  EXPECT_TRUE(g.footprint(3).empty());
  EXPECT_EQ(g.local_size(3), 0);
  EXPECT_EQ(g.local_size(1), 1);
  EXPECT_THROW((void)g.segs_of(-1), rt::UsageError);
  EXPECT_THROW((void)g.local_size(-1), rt::UsageError);
}

TEST(GlobalSegMap, UnpackRejectsHostileSegmentCount) {
  // A count larger than the payload can hold fails typed before anything is
  // sized by it: 2^40 would throw bad_alloc, 2^24 would allocate ~400 MB.
  for (const std::uint64_t n : {std::uint64_t{1} << 40,
                                std::uint64_t{1} << 24, std::uint64_t{2}}) {
    rt::PackBuffer b;
    b.pack(Index{10});
    b.pack(n);
    b.pack(Index{0});  // one whole segment: {0, 10, owner 0}
    b.pack(Index{10});
    b.pack(0);
    auto bytes = std::move(b).take();
    rt::UnpackBuffer u(bytes);
    EXPECT_THROW((void)GlobalSegMap::unpack(u), rt::UsageError) << n;
  }
}

// ---------------------------------------------------------------------------
// AttrVect
// ---------------------------------------------------------------------------

TEST(AttrVect, FieldsAreNamedAndContiguous) {
  AttrVect av({"temp", "salt"}, 5);
  EXPECT_EQ(av.nfields(), 2);
  EXPECT_EQ(av.length(), 5);
  av.field("temp")[3] = 7.5;
  av.at(av.field_index("salt"), 0) = -1.0;
  EXPECT_DOUBLE_EQ(av.at(0, 3), 7.5);
  EXPECT_DOUBLE_EQ(av.field(1)[0], -1.0);
  EXPECT_THROW((void)av.field("ghost"), rt::UsageError);
  EXPECT_THROW(AttrVect({"a", "a"}, 3), rt::UsageError);
}

TEST(AttrVect, LikeCopiesSchemaNotData) {
  AttrVect av({"x"}, 4);
  av.field(0)[0] = 9;
  auto b = AttrVect::like(av, 7);
  EXPECT_EQ(b.length(), 7);
  EXPECT_EQ(b.nfields(), 1);
  EXPECT_DOUBLE_EQ(b.field(0)[0], 0.0);
}

// ---------------------------------------------------------------------------
// Router and Rearranger
// ---------------------------------------------------------------------------

TEST(Router, MovesMultiFieldDataBetweenComponents) {
  const Index gsize = 24;
  const int m = 3, n = 2;
  auto src_map = GlobalSegMap::block(gsize, m);
  auto dst_map = GlobalSegMap::cyclic(gsize, n, 3);
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < m;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    mct::RouterConfig cfg;
    cfg.channel = world;
    cfg.cohort = cohort;
    std::vector<int> a(m), b(n);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), m);
    cfg.my_ranks = is_src ? a : b;
    cfg.peer_ranks = is_src ? b : a;
    cfg.tag = 10;

    if (is_src) {
      auto router = mct::Router::source(cfg, src_map);
      AttrVect av({"u", "v"}, src_map.local_size(cohort.rank()));
      for (Index l = 0; l < av.length(); ++l) {
        const Index g = src_map.global_index(cohort.rank(), l);
        av.field("u")[l] = 1.0 * g;
        av.field("v")[l] = -2.0 * g;
      }
      router.send(av);
    } else {
      auto router = mct::Router::destination(cfg, dst_map);
      AttrVect av({"u", "v"}, dst_map.local_size(cohort.rank()));
      router.recv(av);
      for (Index l = 0; l < av.length(); ++l) {
        const Index g = dst_map.global_index(cohort.rank(), l);
        EXPECT_DOUBLE_EQ(av.field("u")[l], 1.0 * g);
        EXPECT_DOUBLE_EQ(av.field("v")[l], -2.0 * g);
      }
    }
  });
}

TEST(Router, RepeatedTransfersReuseSchedule) {
  const Index gsize = 12;
  auto src_map = GlobalSegMap::block(gsize, 2);
  auto dst_map = GlobalSegMap::block(gsize, 2);
  rt::spawn(4, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < 2;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    mct::RouterConfig cfg;
    cfg.channel = world;
    cfg.cohort = cohort;
    cfg.my_ranks = is_src ? std::vector<int>{0, 1} : std::vector<int>{2, 3};
    cfg.peer_ranks = is_src ? std::vector<int>{2, 3} : std::vector<int>{0, 1};
    cfg.tag = 20;
    if (is_src) {
      auto router = mct::Router::source(cfg, src_map);
      AttrVect av({"f"}, src_map.local_size(cohort.rank()));
      for (int step = 0; step < 5; ++step) {
        for (Index l = 0; l < av.length(); ++l)
          av.field(0)[l] = step * 100.0 + src_map.global_index(cohort.rank(), l);
        router.send(av);
      }
    } else {
      auto router = mct::Router::destination(cfg, dst_map);
      AttrVect av({"f"}, dst_map.local_size(cohort.rank()));
      for (int step = 0; step < 5; ++step) {
        router.recv(av);
        for (Index l = 0; l < av.length(); ++l)
          EXPECT_DOUBLE_EQ(av.field(0)[l],
                           step * 100.0 +
                               dst_map.global_index(cohort.rank(), l));
      }
    }
  });
}

TEST(Rearranger, IntraComponentRedistribution) {
  const Index gsize = 20;
  auto block = GlobalSegMap::block(gsize, 4);
  auto cyc = GlobalSegMap::cyclic(gsize, 4, 2);
  rt::spawn(4, [&](rt::Communicator& world) {
    mct::Rearranger rearr(world, block, cyc, 30);
    AttrVect src({"q"}, block.local_size(world.rank()));
    AttrVect dst({"q"}, cyc.local_size(world.rank()));
    for (Index l = 0; l < src.length(); ++l)
      src.field(0)[l] = 3.0 * block.global_index(world.rank(), l);
    rearr.rearrange(src, dst);
    for (Index l = 0; l < dst.length(); ++l)
      EXPECT_DOUBLE_EQ(dst.field(0)[l],
                       3.0 * cyc.global_index(world.rank(), l));
  });
}

namespace {

/// Router binding for an m-rank source component on world ranks [0, m) and
/// an n-rank destination component on [m, m + n).
mct::RouterConfig split_config(rt::Communicator& world,
                               rt::Communicator cohort, int m, int n,
                               int tag) {
  const bool is_src = world.rank() < m;
  std::vector<int> a(static_cast<std::size_t>(m)),
      b(static_cast<std::size_t>(n));
  std::iota(a.begin(), a.end(), 0);
  std::iota(b.begin(), b.end(), m);
  mct::RouterConfig cfg;
  cfg.channel = world;
  cfg.cohort = std::move(cohort);
  cfg.my_ranks = is_src ? a : b;
  cfg.peer_ranks = is_src ? b : a;
  cfg.tag = tag;
  return cfg;
}

/// Fill every field f of `av` with value(f, global index) under `map`.
template <class Value>
void fill(AttrVect& av, const GlobalSegMap& map, int rank,
          const Value& value) {
  for (int f = 0; f < av.nfields(); ++f)
    for (Index l = 0; l < av.length(); ++l)
      av.field(f)[l] = value(f, map.global_index(rank, l));
}

/// Expect every field f of `av` to hold value(f, global index) exactly.
template <class Value>
void expect_exact(const AttrVect& av, const GlobalSegMap& map, int rank,
                  const Value& value) {
  for (int f = 0; f < av.nfields(); ++f)
    for (Index l = 0; l < av.length(); ++l)
      ASSERT_EQ(av.field(f)[l], value(f, map.global_index(rank, l)))
          << "field " << f << " local " << l;
}

/// Run `xfer` between quiescent points of `gate` and return the messages the
/// whole universe sent meanwhile. Call it only once every rank is past any
/// step that can throw outside `xfer` (e.g. after a world.barrier()).
template <class Xfer>
std::uint64_t count_messages(rt::Communicator& world, std::barrier<>& gate,
                             const Xfer& xfer) {
  gate.arrive_and_wait();
  const auto before = world.stats().messages;
  gate.arrive_and_wait();
  try {
    xfer();
  } catch (...) {
    gate.arrive_and_drop();  // release the ranks waiting below
    throw;
  }
  gate.arrive_and_wait();
  return world.stats().messages - before;
}

}  // namespace

TEST(Router, RankOwningNoPointsMovesNothing) {
  // block(2, 3) over a 3-rank source cohort leaves rank 2 without points;
  // the destination map swaps the two points between its ranks.
  const int m = 3, n = 2;
  auto src_map = GlobalSegMap::block(2, m);
  GlobalSegMap dst_map(2, {{0, 1, 1}, {1, 1, 0}});
  const auto value = [](int f, Index g) { return 10.0 * g + f + 1; };
  std::barrier<> gate(m + n);
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < m;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    const int me = cohort.rank();
    auto cfg = split_config(world, cohort, m, n, 40);
    if (is_src) {
      auto router = mct::Router::source(cfg, src_map);
      AttrVect av({"u", "v"}, src_map.local_size(me));
      fill(av, src_map, me, value);
      if (me == 2) {
        EXPECT_EQ(router.local_size(), 0);
        EXPECT_EQ(router.peer_count(), 0u);
      }
      world.barrier();
      // One payload per point; nothing from rank 2.
      EXPECT_EQ(count_messages(world, gate, [&] { router.send(av); }), 2u);
    } else {
      auto router = mct::Router::destination(cfg, dst_map);
      AttrVect av({"u", "v"}, dst_map.local_size(me));
      world.barrier();
      EXPECT_EQ(count_messages(world, gate, [&] { router.recv(av); }), 2u);
      expect_exact(av, dst_map, me, value);
    }
  });
}

TEST(Rearranger, RankOwningNoPointsMovesNothing) {
  // Rank 2 owns nothing under either map; ranks 0 and 1 swap their points.
  auto src_map = GlobalSegMap::block(2, 3);
  GlobalSegMap dst_map(2, {{0, 1, 1}, {1, 1, 0}});
  const auto value = [](int f, Index g) { return 3.0 * g - f; };
  std::barrier<> gate(3);
  rt::spawn(3, [&](rt::Communicator& world) {
    const int me = world.rank();
    mct::Rearranger rearr(world, src_map, dst_map, 41);
    AttrVect src({"q", "r"}, src_map.local_size(me));
    AttrVect dst({"q", "r"}, dst_map.local_size(me));
    fill(src, src_map, me, value);
    world.barrier();
    EXPECT_EQ(
        count_messages(world, gate, [&] { rearr.rearrange(src, dst); }), 2u);
    expect_exact(dst, dst_map, me, value);
  });
}

TEST(Router, RejectsMapNamingOwnersThePeerLacks) {
  // A 2-rank destination component whose map names owners 0-3: half the
  // points have no receiver, so both sides refuse before any data moves.
  const int m = 2, n = 2;
  auto src_map = GlobalSegMap::block(8, m);
  auto dst_map = GlobalSegMap::block(8, 4);
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < m;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    auto cfg = split_config(world, cohort, m, n, 50);
    if (is_src)
      EXPECT_THROW((void)mct::Router::source(cfg, src_map), rt::UsageError);
    else
      EXPECT_THROW((void)mct::Router::destination(cfg, dst_map),
                   rt::UsageError);
  });
}

TEST(Rearranger, RejectsMapNamingOwnersTheCohortLacks) {
  rt::spawn(2, [&](rt::Communicator& world) {
    auto two = GlobalSegMap::block(8, 2);
    auto four = GlobalSegMap::block(8, 4);
    EXPECT_THROW(mct::Rearranger(world, four, two, 51), rt::UsageError);
    EXPECT_THROW(mct::Rearranger(world, two, four, 51), rt::UsageError);
  });
}

TEST(Router, FieldCountMismatchIsATypedError) {
  const int m = 2, n = 2;
  auto src_map = GlobalSegMap::block(8, m);
  auto dst_map = GlobalSegMap::cyclic(8, n);
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < m;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    auto cfg = split_config(world, cohort, m, n, 52);
    if (is_src) {
      auto router = mct::Router::source(cfg, src_map);
      router.send(AttrVect({"u", "v"}, src_map.local_size(cohort.rank())));
    } else {
      auto router = mct::Router::destination(cfg, dst_map);
      AttrVect av({"u"}, dst_map.local_size(cohort.rank()));
      EXPECT_THROW(router.recv(av), rt::UsageError);
    }
  });
}

TEST(Router, ExactUnderSeededDelayChaos) {
  // Delay-only chaos scoped to the data tag (the GSMap swap is spared):
  // senders sleep before some deliveries, so payloads land out of schedule
  // order while per-source FIFO holds — all MCT relies on, since it frames
  // no serial. The source queues every step before the destination drains.
  const int m = 3, n = 2, steps = 6, tag = 60;
  auto src_map = GlobalSegMap::block(96, m);
  auto dst_map = GlobalSegMap::cyclic(96, n, 5);
  rt::SpawnOptions opts;
  opts.deadlock_timeout_ms = 20000;
  opts.faults = rt::FaultPlan{
      .seed = 41, .delay = 0.5, .delay_ms = 3, .min_tag = tag + 1};
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < m;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    const int me = cohort.rank();
    auto cfg = split_config(world, cohort, m, n, tag);
    if (is_src) {
      auto router = mct::Router::source(cfg, src_map);
      AttrVect av({"u", "v", "w"}, src_map.local_size(me));
      for (int step = 0; step < steps; ++step) {
        fill(av, src_map, me,
             [&](int f, Index g) { return 1000.0 * step + 100.0 * f + g; });
        router.send(av);
      }
      world.barrier();
    } else {
      auto router = mct::Router::destination(cfg, dst_map);
      AttrVect av({"u", "v", "w"}, dst_map.local_size(me));
      world.barrier();
      for (int step = 0; step < steps; ++step) {
        router.recv(av);
        expect_exact(av, dst_map, me, [&](int f, Index g) {
          return 1000.0 * step + 100.0 * f + g;
        });
      }
    }
  }, opts);
}

TEST(Router, ChunkedMultiFieldTransferIsExact) {
  // 2 -> 2 with 4 fields: each source sends each destination 16384 points
  // x 32 bytes (512 KiB), above the split threshold, so every peer's
  // payload goes out as several field-major chunks. A second transfer with
  // one field (128 KiB per peer, unsplit) recompiles the chunk plans.
  const int m = 2, n = 2, tag = 70;
  const Index gsize = 65536;
  auto src_map = GlobalSegMap::block(gsize, m);
  auto dst_map = GlobalSegMap::cyclic(gsize, n, 16);
  ASSERT_GE(static_cast<std::size_t>(gsize / (m * n)) * 4 * sizeof(double),
            2 * mxn::sched::kChunkBytes);
  const auto value = [](int step) {
    return [step](int f, Index g) { return 1e7 * step + 1e6 * f + g; };
  };
  rt::spawn(m + n, [&](rt::Communicator& world) {
    const bool is_src = world.rank() < m;
    auto cohort = world.split(is_src ? 0 : 1, world.rank());
    const int me = cohort.rank();
    auto cfg = split_config(world, cohort, m, n, tag);
    const std::vector<std::vector<std::string>> schemas = {
        {"a", "b", "c", "d"}, {"a"}};
    if (is_src) {
      auto router = mct::Router::source(cfg, src_map);
      for (int step = 0; step < 2; ++step) {
        AttrVect av(schemas[step], src_map.local_size(me));
        fill(av, src_map, me, value(step));
        router.send(av);
      }
    } else {
      auto router = mct::Router::destination(cfg, dst_map);
      for (int step = 0; step < 2; ++step) {
        AttrVect av(schemas[step], dst_map.local_size(me));
        router.recv(av);
        expect_exact(av, dst_map, me, value(step));
      }
    }
  });
}

TEST(Rearranger, ExactUnderSeededDelayChaos) {
  // Every rank has several peers (block -> cyclic chunks of 3) and steps
  // run back to back on one tag under delay-only chaos.
  const int procs = 4, steps = 6, tag = 70;
  auto block = GlobalSegMap::block(60, procs);
  auto cyc = GlobalSegMap::cyclic(60, procs, 3);
  rt::SpawnOptions opts;
  opts.deadlock_timeout_ms = 20000;
  opts.faults = rt::FaultPlan{
      .seed = 43, .delay = 0.5, .delay_ms = 3, .min_tag = tag};
  rt::spawn(procs, [&](rt::Communicator& world) {
    const int me = world.rank();
    mct::Rearranger rearr(world, block, cyc, tag);
    AttrVect src({"q", "r"}, block.local_size(me));
    AttrVect dst({"q", "r"}, cyc.local_size(me));
    for (int step = 0; step < steps; ++step) {
      const auto value = [&](int f, Index g) {
        return 1000.0 * step + 100.0 * f + g;
      };
      fill(src, block, me, value);
      rearr.rearrange(src, dst);
      expect_exact(dst, cyc, me, value);
    }
  }, opts);
}

// ---------------------------------------------------------------------------
// Sparse matrix interpolation
// ---------------------------------------------------------------------------

namespace {

/// Linear interpolation matrix from a coarse grid of `nc` points to a fine
/// grid of `nf = 2*nc - 1` points: fine point 2i maps to coarse i; fine
/// point 2i+1 averages coarse i and i+1. Rows owned per row_map.
std::vector<mct::SparseMatrix::Element> interp_rows(
    const GlobalSegMap& row_map, int rank) {
  std::vector<mct::SparseMatrix::Element> es;
  for (const auto& s : row_map.segs_of(rank)) {
    for (Index r = s.start; r < s.start + s.length; ++r) {
      if (r % 2 == 0) {
        es.push_back({r, r / 2, 1.0});
      } else {
        es.push_back({r, r / 2, 0.5});
        es.push_back({r, r / 2 + 1, 0.5});
      }
    }
  }
  return es;
}

}  // namespace

TEST(SparseMatrix, DistributedInterpolationMatchesSerial) {
  const Index nc = 9, nf = 2 * nc - 1;
  auto col_map = GlobalSegMap::block(nc, 3);
  auto row_map = GlobalSegMap::cyclic(nf, 3, 2);
  rt::spawn(3, [&](rt::Communicator& world) {
    const int me = world.rank();
    mct::SparseMatrix A(world, row_map, col_map, interp_rows(row_map, me),
                        40);
    AttrVect x({"t", "p"}, col_map.local_size(me));
    for (Index l = 0; l < x.length(); ++l) {
      const Index g = col_map.global_index(me, l);
      x.field("t")[l] = 2.0 * g;        // linear: interpolation is exact
      x.field("p")[l] = 5.0 - 0.5 * g;
    }
    AttrVect y({"t", "p"}, row_map.local_size(me));
    A.matvec(x, y);
    for (Index l = 0; l < y.length(); ++l) {
      const Index g = row_map.global_index(me, l);
      const double coarse_coord = g / 2.0;  // fine g sits at coarse g/2
      EXPECT_DOUBLE_EQ(y.field("t")[l], 2.0 * coarse_coord);
      EXPECT_DOUBLE_EQ(y.field("p")[l], 5.0 - 0.5 * coarse_coord);
    }
  });
}

TEST(SparseMatrix, HaloOnlyFetchesRemoteColumns) {
  const Index n = 12;
  auto map = GlobalSegMap::block(n, 2);
  rt::spawn(2, [&](rt::Communicator& world) {
    // Identity matrix: every needed column is local; halo must be empty.
    std::vector<mct::SparseMatrix::Element> es;
    for (const auto& s : map.segs_of(world.rank()))
      for (Index r = s.start; r < s.start + s.length; ++r)
        es.push_back({r, r, 1.0});
    mct::SparseMatrix A(world, map, map, es, 41);
    EXPECT_EQ(A.halo_size(), 0u);
    AttrVect x({"f"}, map.local_size(world.rank()));
    for (Index l = 0; l < x.length(); ++l) x.field(0)[l] = l + 1.0;
    AttrVect y({"f"}, map.local_size(world.rank()));
    A.matvec(x, y);
    for (Index l = 0; l < y.length(); ++l)
      EXPECT_DOUBLE_EQ(y.field(0)[l], l + 1.0);
  });
}

TEST(SparseMatrix, RejectsForeignRows) {
  auto map = GlobalSegMap::block(8, 2);
  rt::spawn(2, [&](rt::Communicator& world) {
    if (world.rank() == 0) {
      // Row 7 belongs to rank 1.
      EXPECT_THROW(mct::SparseMatrix(world, map, map, {{7, 0, 1.0}}, 42),
                   rt::UsageError);
    }
    // Note: constructor is collective; rank 1 builds an empty matrix and
    // the alltoall pairs with rank 0's failed constructor — so rank 0 must
    // also complete the collective. Build a valid empty one instead.
    mct::SparseMatrix ok(world, map, map, {}, 43);
    EXPECT_EQ(ok.local_nnz(), 0u);
  });
}

// ---------------------------------------------------------------------------
// Accumulator, merge, grid integrals
// ---------------------------------------------------------------------------

TEST(Accumulator, AveragesOverSteps) {
  mct::Accumulator acc({"h"}, 3);
  AttrVect av({"h"}, 3);
  for (int step = 1; step <= 4; ++step) {
    for (Index i = 0; i < 3; ++i) av.field(0)[i] = step * (i + 1.0);
    acc.accumulate(av);
  }
  EXPECT_EQ(acc.steps(), 4);
  auto mean = acc.average();
  EXPECT_DOUBLE_EQ(mean.field(0)[0], 2.5);       // (1+2+3+4)/4
  EXPECT_DOUBLE_EQ(mean.field(0)[2], 3 * 2.5);
  acc.reset();
  EXPECT_EQ(acc.steps(), 0);
  EXPECT_THROW(acc.average(), rt::UsageError);
}

TEST(Merge, FractionWeightedBlend) {
  AttrVect ocean({"flux"}, 2), ice({"flux"}, 2), out({"flux"}, 2);
  ocean.field(0)[0] = 10.0;
  ocean.field(0)[1] = 20.0;
  ice.field(0)[0] = 30.0;
  ice.field(0)[1] = 40.0;
  std::vector<double> f_ocean = {0.75, 0.0};
  std::vector<double> f_ice = {0.25, 0.5};
  mct::merge(out, {{&ocean, f_ocean}, {&ice, f_ice}});
  EXPECT_DOUBLE_EQ(out.field(0)[0], 0.75 * 10 + 0.25 * 30);
  EXPECT_DOUBLE_EQ(out.field(0)[1], 40.0);  // normalized: only ice covers
}

TEST(Merge, Validation) {
  AttrVect a({"x"}, 2), out({"x"}, 2);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(mct::merge(out, {}), rt::UsageError);
  EXPECT_THROW(mct::merge(out, {{&a, zero}}), rt::UsageError);
}

TEST(Grid, MaskedIntegralAndAverage) {
  rt::spawn(2, [](rt::Communicator& world) {
    // 4 local points each; one masked out on rank 1.
    mct::GeneralGrid grid({"x"}, 4);
    for (Index i = 0; i < 4; ++i) grid.area()[i] = 0.5;
    if (world.rank() == 1) grid.mask()[3] = 0;
    AttrVect av({"t"}, 4);
    for (Index i = 0; i < 4; ++i)
      av.field(0)[i] = world.rank() * 4.0 + i;  // values 0..7
    const double integral = mct::spatial_integral(av, 0, grid, world);
    // Unmasked values: 0..6 (7 masked), each weighted 0.5.
    EXPECT_DOUBLE_EQ(integral, 0.5 * (0 + 1 + 2 + 3 + 4 + 5 + 6));
    const double avg = mct::spatial_average(av, 0, grid, world);
    EXPECT_DOUBLE_EQ(avg, 3.0);
  });
}

TEST(Grid, ConservativeInterpolationPreservesIntegral) {
  // Paired integrals around a conservative (row-sum preserving by area)
  // interpolation: coarse -> fine with linear weights, fine areas half the
  // coarse ones except endpoints — built so total integral is conserved.
  const Index nc = 5, nf = 2 * nc - 1;
  auto col_map = GlobalSegMap::block(nc, 2);
  auto row_map = GlobalSegMap::block(nf, 2);
  rt::spawn(2, [&](rt::Communicator& world) {
    const int me = world.rank();
    mct::SparseMatrix A(world, row_map, col_map, interp_rows(row_map, me),
                        44);
    // Coarse field and grid: unit areas.
    AttrVect x({"q"}, col_map.local_size(me));
    mct::GeneralGrid coarse({"x"}, col_map.local_size(me));
    for (Index l = 0; l < x.length(); ++l) {
      const Index g = col_map.global_index(me, l);
      x.field(0)[l] = 1.0 + g;
      // Interior coarse points spread half their weight to each neighbor
      // midpoint; end points keep 3/4. Choose areas that make the matrix
      // conservative: w_c = A^T w_f with fine areas below.
      coarse.area()[l] = (g == 0 || g == nc - 1) ? 0.75 : 1.0;
    }
    AttrVect y({"q"}, row_map.local_size(me));
    A.matvec(x, y);
    mct::GeneralGrid fine({"x"}, row_map.local_size(me));
    for (Index l = 0; l < fine.length(); ++l) fine.area()[l] = 0.5;
    const double before = mct::spatial_integral(x, 0, coarse, world);
    const double after = mct::spatial_integral(y, 0, fine, world);
    EXPECT_NEAR(before, after, 1e-12);
  });
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, ProcessIdLookup) {
  mct::Registry reg;
  reg.add("atm", {0, 1, 2});
  reg.add("ocn", {3, 4});
  EXPECT_EQ(reg.world_rank("ocn", 1), 4);
  EXPECT_TRUE(reg.member("atm", 2));
  EXPECT_FALSE(reg.member("atm", 3));
  EXPECT_EQ(reg.cohort_rank("ocn", 3), 0);
  EXPECT_EQ(reg.cohort_rank("ocn", 0), -1);
  EXPECT_THROW(reg.add("atm", {5}), rt::UsageError);
  EXPECT_THROW((void)reg.ranks_of("ice"), rt::UsageError);
  EXPECT_THROW((void)reg.world_rank("atm", 9), rt::UsageError);
}
