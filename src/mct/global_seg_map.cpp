#include "mct/global_seg_map.hpp"

#include <algorithm>

#include "rt/error.hpp"

namespace mxn::mct {

using rt::UsageError;

GlobalSegMap::GlobalSegMap(Index gsize, std::vector<Seg> segs)
    : gsize_(gsize), segs_(std::move(segs)) {
  if (gsize <= 0) throw UsageError("GlobalSegMap gsize must be positive");
  Index covered = 0;
  int maxo = -1;
  for (const auto& s : segs_) {
    if (s.length <= 0) throw UsageError("segment length must be positive");
    if (s.start < 0 || s.start + s.length > gsize_)
      throw UsageError("segment out of range");
    if (s.owner < 0) throw UsageError("segment owner must be >= 0");
    covered += s.length;
    maxo = std::max(maxo, s.owner);
  }
  if (covered != gsize_)
    throw UsageError("segments must cover exactly gsize points (" +
                     std::to_string(covered) + " of " +
                     std::to_string(gsize_) + ")");
  // Disjointness: sort by start and check adjacency; combined with the
  // coverage count this proves an exact partition.
  sorted_.reserve(segs_.size());
  for (std::size_t i = 0; i < segs_.size(); ++i)
    sorted_.emplace_back(segs_[i].start, i);
  std::sort(sorted_.begin(), sorted_.end());
  Index expect = 0;
  for (const auto& [start, i] : sorted_) {
    if (start != expect) throw UsageError("segments overlap or leave gaps");
    expect = start + segs_[i].length;
  }

  nprocs_ = maxo + 1;
  by_rank_.assign(nprocs_, {});
  for (const auto& s : segs_) by_rank_[s.owner].push_back(s);

  // Ownership runs: adjacent same-owner segments merge, matching the
  // normalization footprint() applies per rank.
  runs_.reserve(sorted_.size());
  for (const auto& [start, i] : sorted_) {
    const auto& s = segs_[i];
    if (!runs_.empty() && runs_.back().owner == s.owner &&
        runs_.back().seg.hi == s.start)
      runs_.back().seg.hi = s.start + s.length;
    else
      runs_.push_back({{s.start, s.start + s.length}, s.owner});
  }
}

GlobalSegMap GlobalSegMap::block(Index gsize, int nprocs) {
  if (nprocs <= 0) throw UsageError("nprocs must be positive");
  std::vector<Seg> segs;
  const Index chunk = (gsize + nprocs - 1) / nprocs;
  Index start = 0;
  for (int p = 0; p < nprocs && start < gsize; ++p) {
    const Index len = std::min(chunk, gsize - start);
    segs.push_back({start, len, p});
    start += len;
  }
  // Segments must be non-empty, so ranks past the last block get none and
  // nprocs() can be below `nprocs`; segs_of() reports them as owning nothing.
  return GlobalSegMap(gsize, std::move(segs));
}

GlobalSegMap GlobalSegMap::cyclic(Index gsize, int nprocs, Index chunk) {
  if (nprocs <= 0 || chunk <= 0) throw UsageError("bad cyclic parameters");
  std::vector<Seg> segs;
  Index start = 0;
  int p = 0;
  while (start < gsize) {
    const Index len = std::min(chunk, gsize - start);
    segs.push_back({start, len, p});
    start += len;
    p = (p + 1) % nprocs;
  }
  return GlobalSegMap(gsize, std::move(segs));
}

GlobalSegMap GlobalSegMap::from_descriptor(const dad::Descriptor& desc,
                                           const linear::Linearization& lin) {
  // The cached ownership map already holds every rank's normalized
  // footprint; per-rank segment order (ascending) is unchanged.
  std::vector<Seg> segs;
  for (const auto& os : linear::ownership_map(desc, lin))
    segs.push_back({os.seg.lo, os.seg.hi - os.seg.lo, os.owner});
  return GlobalSegMap(lin.total(), std::move(segs));
}

const std::vector<GlobalSegMap::Seg>& GlobalSegMap::segs_of(int rank) const {
  static const std::vector<Seg> kNone;
  if (rank < 0) throw UsageError("GlobalSegMap rank must be >= 0");
  return rank < nprocs_ ? by_rank_[rank] : kNone;
}

Index GlobalSegMap::local_size(int rank) const {
  Index n = 0;
  for (const auto& s : segs_of(rank)) n += s.length;
  return n;
}

int GlobalSegMap::owner(Index gidx) const {
  if (gidx < 0 || gidx >= gsize_) throw UsageError("global index out of range");
  auto it = std::upper_bound(
      sorted_.begin(), sorted_.end(), std::make_pair(gidx, SIZE_MAX));
  const auto& [start, i] = *std::prev(it);
  (void)start;
  return segs_[i].owner;
}

Index GlobalSegMap::local_index(int rank, Index gidx) const {
  Index off = 0;
  for (const auto& s : segs_of(rank)) {
    if (gidx >= s.start && gidx < s.start + s.length)
      return off + (gidx - s.start);
    off += s.length;
  }
  throw UsageError("global index not owned by rank");
}

Index GlobalSegMap::global_index(int rank, Index lidx) const {
  Index off = 0;
  for (const auto& s : segs_of(rank)) {
    if (lidx < off + s.length) return s.start + (lidx - off);
    off += s.length;
  }
  throw UsageError("local index out of range");
}

std::vector<linear::Segment> GlobalSegMap::footprint(int rank) const {
  std::vector<linear::Segment> out;
  out.reserve(segs_of(rank).size());
  for (const auto& s : segs_of(rank))
    out.push_back({s.start, s.start + s.length});
  return linear::normalize(std::move(out));
}

void GlobalSegMap::pack(rt::PackBuffer& b) const {
  b.pack(gsize_);
  b.pack(static_cast<std::uint64_t>(segs_.size()));
  for (const auto& s : segs_) {
    b.pack(s.start);
    b.pack(s.length);
    b.pack(s.owner);
  }
}

GlobalSegMap GlobalSegMap::unpack(rt::UnpackBuffer& u) {
  const auto gsize = u.unpack<Index>();
  const auto n = u.unpack<std::uint64_t>();
  // A packed Seg is start + length + owner: 20 bytes. Compare the count, not
  // n * 20, so a hostile count can neither wrap nor size the allocation.
  if (n > u.remaining() / (2 * sizeof(Index) + sizeof(int)))
    throw UsageError("GlobalSegMap: segment count exceeds the payload");
  std::vector<Seg> segs(n);
  for (auto& s : segs) {
    s.start = u.unpack<Index>();
    s.length = u.unpack<Index>();
    s.owner = u.unpack<int>();
  }
  return GlobalSegMap(gsize, std::move(segs));
}

}  // namespace mxn::mct
