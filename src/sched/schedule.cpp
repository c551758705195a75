#include "sched/schedule.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "rt/error.hpp"
#include "trace/trace.hpp"

namespace mxn::sched {

using rt::UsageError;

namespace {

void check_shapes(const Descriptor& src, const Descriptor& dst) {
  if (!src.same_shape(dst))
    throw UsageError("redistribution requires identically shaped templates (" +
                     src.to_string() + " vs " + dst.to_string() + ")");
}

/// The one peer loop every build path shares. As a sender, this rank's
/// source rank pairs with each destination rank; as a receiver, each source
/// rank pairs with this rank's destination rank. With `prune`, pairs where
/// a side owns nothing or the bounding boxes miss are skipped.
/// `pair(s, d, sending, pr)` fills `pr` with the regions of source rank s
/// and destination rank d in the canonical (source patch, destination
/// patch) nesting; empty entries are dropped.
template <class Pair>
RegionSchedule for_each_pair(const Descriptor& src, const Descriptor& dst,
                             int my_src_rank, int my_dst_rank, bool prune,
                             Pair&& pair) {
  RegionSchedule out;
  const auto visit = [&](int s, int d, bool sending) {
    if (prune && (src.local_volume(s) == 0 || dst.local_volume(d) == 0 ||
                  !src.bounding_box(s).overlaps(dst.bounding_box(d))))
      return;
    PeerRegions pr;
    pr.peer = sending ? d : s;
    pair(s, d, sending, pr);
    if (!pr.regions.empty())
      (sending ? out.sends : out.recvs).push_back(std::move(pr));
  };
  if (my_src_rank >= 0)
    for (int d = 0; d < dst.nranks(); ++d) visit(my_src_rank, d, true);
  if (my_dst_rank >= 0)
    for (int s = 0; s < src.nranks(); ++s) visit(s, my_dst_rank, false);
  return out;
}

// ---------------------------------------------------------------------------
// Naive path: nested patch-pair loops, the reference all others must match.
// ---------------------------------------------------------------------------

RegionSchedule build_naive(const Descriptor& src, const Descriptor& dst,
                           int my_src_rank, int my_dst_rank, bool prune) {
  return for_each_pair(
      src, dst, my_src_rank, my_dst_rank, prune,
      [&](int s, int d, bool, PeerRegions& pr) {
        const auto& sp = src.patches_of(s);
        const auto& dp = dst.patches_of(d);
        for (std::size_t i = 0; i < sp.size(); ++i)
          for (std::size_t j = 0; j < dp.size(); ++j)
            if (auto r = Patch::intersect(sp[i], dp[j])) {
              pr.regions.push_back({*r, static_cast<std::uint32_t>(i),
                                    static_cast<std::uint32_t>(j)});
              pr.elements += r->volume();
            }
      });
}

// ---------------------------------------------------------------------------
// Analytic path (regular x regular): per-axis closed-form interval overlaps
// crossed into regions directly in the canonical nesting.
// ---------------------------------------------------------------------------

/// One axis' overlap pairs for a (source coord, dest coord) pair, grouped by
/// source interval index. axis_overlaps emits (a_iv, b_iv)-lexicographically
/// with A = the source side, so groups are contiguous runs with ascending
/// a_iv, and within a group b_iv ascends. `a_count` / `b_count` are the two
/// coordinates' interval counts on this axis.
struct AxisGroups {
  std::vector<dad::AxisOverlap> pairs;
  struct Group {
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  std::vector<Group> groups;
  std::uint32_t a_count = 0, b_count = 0;

  void rebuild_groups() {
    groups.clear();
    std::size_t i = 0;
    while (i < pairs.size()) {
      std::size_t j = i;
      while (j < pairs.size() && pairs[j].a_iv == pairs[i].a_iv) ++j;
      groups.push_back({i, j - i});
      i = j;
    }
  }
};

/// Emit the intersection regions for one peer from the per-axis overlap
/// groups, reproducing the naive (source patch, dest patch) nesting exactly.
/// Source patches are the row-major cross product of per-axis source
/// intervals; enumerating group tuples row-major (groups ascend by source
/// interval index) visits exactly the source patches with any overlap, in
/// naive order. For a fixed source patch the overlapping dest patches are
/// the cross product of the per-axis b_iv choices within each group;
/// enumerating those row-major matches the naive inner loop's filtered
/// order. Every emitted region is non-empty by construction, and its patch
/// indices are the row-major combination of its per-axis interval indices.
void emit_analytic(const std::array<AxisGroups, dad::kMaxNdim>& ax, int ndim,
                   PeerRegions& pr) {
  if (ndim == 1) {
    // In 1-D the canonical nesting is exactly the (a_iv, b_iv)-lex order
    // axis_overlaps already emits — no grouping needed. Sized write into
    // the region list: per-push bookkeeping would dominate at cyclic
    // extents (measured ~6x slower).
    const auto& pairs = ax[0].pairs;
    pr.regions.resize(pairs.size());
    Region* out = pr.regions.data();
    Index elements = 0;
    for (const auto& p : pairs) {
      out->ndim = 1;
      out->lo[0] = p.lo;
      out->hi[0] = p.hi;
      out->src_patch = static_cast<std::uint32_t>(p.a_iv);
      out->dst_patch = static_cast<std::uint32_t>(p.b_iv);
      ++out;
      elements += p.hi - p.lo;
    }
    pr.elements = elements;
    return;
  }
  std::array<std::size_t, dad::kMaxNdim> g{};
  while (true) {
    std::array<std::size_t, dad::kMaxNdim> m{};
    while (true) {
      Region& r = pr.regions.emplace_back();
      r.ndim = ndim;
      for (int a = 0; a < ndim; ++a) {
        const auto& grp = ax[a].groups[g[a]];
        const auto& p = ax[a].pairs[grp.begin + m[a]];
        r.lo[a] = p.lo;
        r.hi[a] = p.hi;
        r.src_patch = r.src_patch * ax[a].a_count +
                      static_cast<std::uint32_t>(p.a_iv);
        r.dst_patch = r.dst_patch * ax[a].b_count +
                      static_cast<std::uint32_t>(p.b_iv);
      }
      pr.elements += r.volume();
      int a = ndim - 1;
      while (a >= 0) {
        if (++m[a] < ax[a].groups[g[a]].count) break;
        m[a] = 0;
        --a;
      }
      if (a < 0) break;
    }
    int a = ndim - 1;
    while (a >= 0) {
      if (++g[a] < ax[a].groups.size()) break;
      g[a] = 0;
      --a;
    }
    if (a < 0) break;
  }
}

RegionSchedule build_analytic(const Descriptor& src, const Descriptor& dst,
                              int my_src_rank, int my_dst_rank) {
  static trace::Counter& hits = trace::counter("sched.fastpath.hits");
  hits.add(1);
  const int ndim = src.ndim();
  std::array<AxisGroups, dad::kMaxNdim> ax;
  return for_each_pair(
      src, dst, my_src_rank, my_dst_rank, /*prune=*/true,
      [&](int s, int d, bool, PeerRegions& pr) {
        const auto sc = src.grid_coords(s);
        const auto dc = dst.grid_coords(d);
        for (int a = 0; a < ndim; ++a) {
          const auto& sa = src.axes()[a];
          const auto& da = dst.axes()[a];
          ax[a].pairs.clear();
          dad::axis_overlaps(sa, sc[a], da, dc[a], ax[a].pairs);
          if (ax[a].pairs.empty()) return;  // the patch sets cannot meet
          if (ndim > 1) ax[a].rebuild_groups();
          ax[a].a_count =
              static_cast<std::uint32_t>(sa.intervals_of(sc[a]).size());
          ax[a].b_count =
              static_cast<std::uint32_t>(da.intervals_of(dc[a]).size());
        }
        emit_analytic(ax, ndim, pr);
      });
}

// ---------------------------------------------------------------------------
// Indexed path: binary search + bounded sweep over the peer's sorted patch
// index, then re-sort the pairs into the canonical nesting.
// ---------------------------------------------------------------------------

void indexed_peer_regions(const std::vector<Patch>& locals,
                          const Descriptor::RankIndex& index,
                          bool local_is_source, PeerRegions& pr) {
  struct Pair {
    std::int64_t key;  // (source patch idx << 32) | dest patch idx
    Patch region;
  };
  const auto& peers = index.entries;
  const int ax = index.axis;
  std::vector<Pair> found;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    const Patch& mine = locals[i];
    // Entries before `first` all have hi[ax] <= mine.lo[ax] (the prefix max
    // proves it), so they cannot overlap along the index axis. Entries at
    // or past the first whose lo[ax] >= mine.hi[ax] cannot either; the list
    // is sorted by lo[ax], so the scan stops there.
    auto first = std::partition_point(
        peers.begin(), peers.end(), [&](const Descriptor::IndexedPatch& e) {
          return e.max_hi <= mine.lo[ax];
        });
    for (auto it = first; it != peers.end() && it->patch.lo[ax] < mine.hi[ax];
         ++it) {
      if (auto r = Patch::intersect(mine, it->patch)) {
        const auto a = local_is_source ? static_cast<std::int64_t>(i)
                                       : static_cast<std::int64_t>(it->idx);
        const auto b = local_is_source ? static_cast<std::int64_t>(it->idx)
                                       : static_cast<std::int64_t>(i);
        found.push_back({(a << 32) | b, *r});
      }
    }
  }
  std::sort(found.begin(), found.end(),
            [](const Pair& x, const Pair& y) { return x.key < y.key; });
  pr.regions.reserve(pr.regions.size() + found.size());
  for (const auto& f : found) {
    pr.regions.push_back({f.region, static_cast<std::uint32_t>(f.key >> 32),
                          static_cast<std::uint32_t>(f.key)});
    pr.elements += f.region.volume();
  }
}

RegionSchedule build_indexed(const Descriptor& src, const Descriptor& dst,
                             int my_src_rank, int my_dst_rank) {
  static trace::Counter& hits = trace::counter("sched.index.hits");
  hits.add(1);
  return for_each_pair(
      src, dst, my_src_rank, my_dst_rank, /*prune=*/true,
      [&](int s, int d, bool sending, PeerRegions& pr) {
        if (sending)
          indexed_peer_regions(src.patches_of(s), dst.spatial_index()[d],
                               /*local_is_source=*/true, pr);
        else
          indexed_peer_regions(dst.patches_of(d), src.spatial_index()[s],
                               /*local_is_source=*/false, pr);
      });
}

}  // namespace

void pack_regions(std::span<const Region> regions,
                  const dad::PatchStorage& from, std::byte* out) {
  for (const Region& r : regions) {
    from.gather(r.src_patch, r, out);
    out += static_cast<std::size_t>(r.volume()) * from.width;
  }
}

void unpack_regions(std::span<const Region> regions,
                    const dad::PatchStorage& to, const std::byte* in) {
  for (const Region& r : regions) {
    to.scatter(r.dst_patch, r, in);
    in += static_cast<std::size_t>(r.volume()) * to.width;
  }
}

RegionSchedule build_region_schedule(const Descriptor& src,
                                     const Descriptor& dst, int my_src_rank,
                                     int my_dst_rank, BuildPath path) {
  static trace::Histogram& build_ns = trace::histogram("sched.build_ns");
  trace::Span span("sched.build", "sched", 0, &build_ns);
  check_shapes(src, dst);
  if (path == BuildPath::Auto)
    path = (src.is_explicit() || dst.is_explicit()) ? BuildPath::Indexed
                                                    : BuildPath::Analytic;
  switch (path) {
    case BuildPath::Naive:
      return build_naive(src, dst, my_src_rank, my_dst_rank, /*prune=*/true);
    case BuildPath::Reference:
      return build_naive(src, dst, my_src_rank, my_dst_rank, /*prune=*/false);
    case BuildPath::Indexed:
      return build_indexed(src, dst, my_src_rank, my_dst_rank);
    case BuildPath::Analytic:
      if (src.is_explicit() || dst.is_explicit())
        throw UsageError(
            "analytic schedule construction requires regular templates on "
            "both sides");
      return build_analytic(src, dst, my_src_rank, my_dst_rank);
    case BuildPath::Auto:
      break;  // resolved above
  }
  throw UsageError("unknown schedule build path");
}

DeltaSchedule build_delta_schedule(const Descriptor& from,
                                   const Descriptor& to, int my_from_rank,
                                   int my_to_rank,
                                   const std::vector<int>& from_channel_ranks,
                                   const std::vector<int>& to_channel_ranks) {
  trace::Span span("sched.build_delta", "sched");
  if (static_cast<int>(from_channel_ranks.size()) != from.nranks())
    throw UsageError("delta: old channel-rank list does not match the old "
                     "descriptor's cohort size");
  if (static_cast<int>(to_channel_ranks.size()) != to.nranks())
    throw UsageError("delta: new channel-rank list does not match the new "
                     "descriptor's cohort size");
  const int my_channel =
      my_from_rank >= 0   ? from_channel_ranks.at(my_from_rank)
      : my_to_rank >= 0   ? to_channel_ranks.at(my_to_rank)
                          : -1;
  if (my_from_rank >= 0 && my_to_rank >= 0 &&
      to_channel_ranks.at(my_to_rank) != my_channel)
    throw UsageError("delta: this rank's old and new cohort slots map to "
                     "different channel ranks");

  RegionSchedule full = build_region_schedule(from, to, my_from_rank,
                                              my_to_rank, BuildPath::Auto);
  DeltaSchedule d;
  // A region whose destination is this same channel rank appears in BOTH the
  // send and the recv list (identical canonical region list); claim it from
  // the send side and drop the mirrored recv entry.
  for (auto& pr : full.sends) {
    if (to_channel_ranks.at(pr.peer) == my_channel) {
      d.local.insert(d.local.end(), pr.regions.begin(), pr.regions.end());
      d.local_elements += pr.elements;
    } else {
      d.wire.sends.push_back(std::move(pr));
    }
  }
  for (auto& pr : full.recvs) {
    if (from_channel_ranks.at(pr.peer) == my_channel) continue;
    d.wire.recvs.push_back(std::move(pr));
  }
  return d;
}

std::vector<PeerSegments> sweep_owners(
    const std::vector<linear::Segment>& mine,
    const std::vector<linear::OwnedSegment>& owned, int nowners) {
  std::vector<std::vector<linear::Segment>> buckets(
      static_cast<std::size_t>(nowners));
  std::size_t i = 0, j = 0;
  while (i < mine.size() && j < owned.size()) {
    if (owned[j].owner < 0 || owned[j].owner >= nowners)
      throw UsageError("ownership run names owner " +
                       std::to_string(owned[j].owner) + " of a " +
                       std::to_string(nowners) + "-rank cohort");
    const Index lo = std::max(mine[i].lo, owned[j].seg.lo);
    const Index hi = std::min(mine[i].hi, owned[j].seg.hi);
    if (lo < hi)
      buckets[static_cast<std::size_t>(owned[j].owner)].push_back({lo, hi});
    if (mine[i].hi < owned[j].seg.hi)
      ++i;
    else
      ++j;
  }
  std::vector<PeerSegments> out;
  for (int r = 0; r < nowners; ++r) {
    auto& segs = buckets[static_cast<std::size_t>(r)];
    if (segs.empty()) continue;
    PeerSegments ps;
    ps.peer = r;
    ps.elements = linear::total_length(segs);
    ps.segs = std::move(segs);
    out.push_back(std::move(ps));
  }
  return out;
}

SegmentSchedule build_segment_schedule(const Descriptor& src,
                                       const linear::Linearization& src_lin,
                                       const Descriptor& dst,
                                       const linear::Linearization& dst_lin,
                                       int my_src_rank, int my_dst_rank) {
  if (src_lin.total() != dst_lin.total())
    throw UsageError(
        "source and destination linearizations must cover the same number of "
        "elements");
  static trace::Histogram& build_ns = trace::histogram("sched.build_ns");
  trace::Span span("sched.build_segments", "sched", 0, &build_ns);
  SegmentSchedule out;

  if (my_src_rank >= 0) {
    const auto mine = linear::footprint_cached(src, my_src_rank, src_lin);
    const auto owned = linear::ownership_map_cached(dst, dst_lin);
    out.sends = sweep_owners(*mine, *owned, dst.nranks());
  }

  if (my_dst_rank >= 0) {
    const auto mine = linear::footprint_cached(dst, my_dst_rank, dst_lin);
    const auto owned = linear::ownership_map_cached(src, src_lin);
    out.recvs = sweep_owners(*mine, *owned, src.nranks());
  }

  return out;
}

}  // namespace mxn::sched
