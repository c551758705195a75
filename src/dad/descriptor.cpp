#include "dad/descriptor.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "trace/trace.hpp"

namespace mxn::dad {

using rt::UsageError;

Descriptor Descriptor::regular(std::vector<AxisDist> axes) {
  if (axes.empty() || axes.size() > kMaxNdim)
    throw UsageError("descriptor needs 1.." + std::to_string(kMaxNdim) +
                     " axes");
  Descriptor d;
  d.explicit_ = false;
  d.ndim_ = static_cast<int>(axes.size());
  d.nranks_ = 1;
  for (int a = 0; a < d.ndim_; ++a) {
    d.extents_[a] = axes[a].extent();
    d.nranks_ *= axes[a].nprocs();
  }
  d.axes_ = std::move(axes);
  d.finalize();
  return d;
}

Descriptor Descriptor::explicit_patches(int ndim, const Point& extents,
                                        std::vector<OwnedPatch> patches,
                                        int nranks) {
  if (ndim < 1 || ndim > kMaxNdim) throw UsageError("bad ndim");
  if (nranks < 1) throw UsageError("nranks must be positive");
  Descriptor d;
  d.explicit_ = true;
  d.ndim_ = ndim;
  d.extents_ = extents;
  d.nranks_ = nranks;

  Patch bounds;
  bounds.ndim = ndim;
  bounds.lo = Point{};
  bounds.hi = extents;

  Index covered = 0;
  for (const auto& op : patches) {
    if (op.patch.ndim != ndim)
      throw UsageError("explicit patch dimensionality mismatch");
    if (op.patch.empty()) throw UsageError("explicit patch must be non-empty");
    if (!bounds.contains(op.patch))
      throw UsageError("explicit patch " + op.patch.to_string() +
                       " out of bounds");
    if (op.owner < 0 || op.owner >= nranks)
      throw UsageError("explicit patch owner out of range");
    covered += op.patch.volume();
  }
  for (std::size_t i = 0; i < patches.size(); ++i)
    for (std::size_t j = i + 1; j < patches.size(); ++j)
      if (patches[i].patch.overlaps(patches[j].patch))
        throw UsageError("explicit patches overlap: " +
                         patches[i].patch.to_string() + " and " +
                         patches[j].patch.to_string());
  if (covered != bounds.volume())
    throw UsageError("explicit patches must exactly cover the template (" +
                     std::to_string(covered) + " of " +
                     std::to_string(bounds.volume()) + " elements covered)");

  d.all_patches_ = std::move(patches);
  d.finalize();
  return d;
}

void Descriptor::rehash() {
  // Structural hash: FNV-1a over the canonical serialization, which covers
  // exactly the fields operator== compares (including the version stamp).
  rt::PackBuffer b;
  pack(b);
  const auto bytes = std::move(b).take();
  std::size_t h = 1469598103934665603ull;
  for (std::byte c : bytes) {
    h ^= static_cast<std::size_t>(c);
    h *= 1099511628211ull;
  }
  hash_ = h;
}

Descriptor Descriptor::with_version(std::uint64_t v) const {
  Descriptor d = *this;  // derived tables and spatial index are shared/equal
  d.version_ = v;
  d.rehash();
  return d;
}

void Descriptor::finalize() {
  rehash();
  rank_patches_.assign(nranks_, {});
  if (explicit_) {
    for (const auto& op : all_patches_)
      rank_patches_[op.owner].push_back(op.patch);
  } else {
    // Process grid coordinates: axis a has axes_[a].nprocs() coordinates;
    // rank is the row-major composition (last axis fastest).
    for (int r = 0; r < nranks_; ++r) {
      const std::array<int, kMaxNdim> coords = grid_coords(r);
      // Cartesian product of the per-axis interval lists, lexicographic by
      // interval index (row-major, last axis fastest).
      std::array<const std::vector<IndexInterval>*, kMaxNdim> ivs{};
      std::array<std::size_t, kMaxNdim> k{};
      bool any_empty = false;
      for (int a = 0; a < ndim_; ++a) {
        ivs[a] = &axes_[a].intervals_of(coords[a]);
        if (ivs[a]->empty()) any_empty = true;
      }
      if (any_empty) continue;
      while (true) {
        Patch p;
        p.ndim = ndim_;
        for (int a = 0; a < ndim_; ++a) {
          p.lo[a] = (*ivs[a])[k[a]].lo;
          p.hi[a] = (*ivs[a])[k[a]].hi;
        }
        rank_patches_[r].push_back(p);
        int a = ndim_ - 1;
        while (a >= 0) {
          if (++k[a] < ivs[a]->size()) break;
          k[a] = 0;
          --a;
        }
        if (a < 0) break;
      }
    }
  }
  rank_patch_bases_.assign(nranks_, {});
  rank_volumes_.assign(nranks_, 0);
  rank_bboxes_.assign(nranks_, Patch{});
  for (int r = 0; r < nranks_; ++r) {
    Index acc = 0;
    rank_patch_bases_[r].reserve(rank_patches_[r].size());
    Patch box;
    box.ndim = ndim_;
    bool first = true;
    for (const auto& p : rank_patches_[r]) {
      rank_patch_bases_[r].push_back(acc);
      acc += p.volume();
      if (first) {
        box = p;
        first = false;
      } else {
        for (int a = 0; a < ndim_; ++a) {
          box.lo[a] = std::min(box.lo[a], p.lo[a]);
          box.hi[a] = std::max(box.hi[a], p.hi[a]);
        }
      }
    }
    rank_volumes_[r] = acc;
    rank_bboxes_[r] = box;
  }
  index_ = std::make_shared<SpatialIndex>();
}

std::array<int, kMaxNdim> Descriptor::grid_coords(int rank) const {
  if (explicit_)
    throw UsageError("grid_coords is defined for regular templates only");
  if (rank < 0 || rank >= nranks_) throw UsageError("rank out of range");
  std::array<int, kMaxNdim> coords{};
  int rem = rank;
  for (int a = ndim_ - 1; a >= 0; --a) {
    coords[a] = rem % axes_[a].nprocs();
    rem /= axes_[a].nprocs();
  }
  return coords;
}

const std::vector<Descriptor::RankIndex>& Descriptor::spatial_index() const {
  std::call_once(index_->once, [this] {
    static trace::Counter& builds = trace::counter("sched.index.builds");
    builds.add(1);
    auto& per_rank = index_->per_rank;
    per_rank.resize(nranks_);
    for (int r = 0; r < nranks_; ++r) {
      const auto& patches = rank_patches_[r];
      const Patch& box = rank_bboxes_[r];
      int ax = 0;
      double best_depth = 0;
      for (int a = 0; a < ndim_ && !patches.empty(); ++a) {
        Index sum = 0;
        for (const Patch& p : patches) sum += p.extent(a);
        const double depth =
            static_cast<double>(sum) /
            static_cast<double>(std::max<Index>(1, box.extent(a)));
        if (a == 0 || depth < best_depth) {
          ax = a;
          best_depth = depth;
        }
      }
      auto& v = per_rank[r].entries;
      per_rank[r].axis = ax;
      v.reserve(patches.size());
      for (std::size_t i = 0; i < patches.size(); ++i)
        v.push_back({patches[i], static_cast<std::int32_t>(i), 0});
      std::sort(v.begin(), v.end(),
                [ax](const IndexedPatch& a, const IndexedPatch& b) {
                  return a.patch.lo[ax] != b.patch.lo[ax]
                             ? a.patch.lo[ax] < b.patch.lo[ax]
                             : a.idx < b.idx;
                });
      Index running = std::numeric_limits<Index>::min();
      for (auto& e : v) {
        running = std::max(running, e.patch.hi[ax]);
        e.max_hi = running;
      }
    }
  });
  return index_->per_rank;
}

int Descriptor::owner(const Point& p) const {
  for (int a = 0; a < ndim_; ++a)
    if (p[a] < 0 || p[a] >= extents_[a])
      throw UsageError("point out of template bounds");
  if (explicit_) {
    for (const auto& op : all_patches_)
      if (op.patch.contains(p)) return op.owner;
    throw UsageError("explicit template does not cover point (corrupt)");
  }
  int rank = 0;
  for (int a = 0; a < ndim_; ++a)
    rank = rank * axes_[a].nprocs() + axes_[a].owner(p[a]);
  return rank;
}

Index Descriptor::global_to_local(int rank, const Point& p) const {
  const auto& patches = rank_patches_.at(rank);
  for (std::size_t i = 0; i < patches.size(); ++i) {
    if (patches[i].contains(p))
      return rank_patch_bases_[rank][i] + patches[i].offset_of(p);
  }
  throw UsageError("rank does not own point");
}

Point Descriptor::local_to_global(int rank, Index offset) const {
  const auto& bases = rank_patch_bases_.at(rank);
  if (offset < 0 || offset >= rank_volumes_.at(rank))
    throw UsageError("local offset out of range");
  auto it = std::upper_bound(bases.begin(), bases.end(), offset);
  const std::size_t i = static_cast<std::size_t>(it - bases.begin()) - 1;
  return rank_patches_[rank][i].point_at(offset - bases[i]);
}

bool Descriptor::same_shape(const Descriptor& other) const {
  if (ndim_ != other.ndim_) return false;
  for (int a = 0; a < ndim_; ++a)
    if (extents_[a] != other.extents_[a]) return false;
  return true;
}

std::size_t Descriptor::descriptor_entries() const {
  if (explicit_) return all_patches_.size();
  std::size_t n = 0;
  for (const auto& ax : axes_) n += ax.descriptor_entries();
  return n + static_cast<std::size_t>(ndim_);
}

std::string Descriptor::to_string() const {
  std::ostringstream os;
  if (explicit_) {
    os << "explicit{" << all_patches_.size() << " patches, " << nranks_
       << " ranks}";
  } else {
    os << "regular{";
    for (int a = 0; a < ndim_; ++a) {
      if (a) os << " x ";
      os << extents_[a] << ":" << dad::to_string(axes_[a].kind()) << "("
         << axes_[a].nprocs() << ")";
    }
    os << "}";
  }
  return os.str();
}

void Descriptor::pack(rt::PackBuffer& b) const {
  b.pack(explicit_);
  b.pack(ndim_);
  for (int a = 0; a < ndim_; ++a) b.pack(extents_[a]);
  b.pack(nranks_);
  if (explicit_) {
    b.pack(static_cast<std::uint64_t>(all_patches_.size()));
    for (const auto& op : all_patches_) {
      op.patch.pack(b);
      b.pack(op.owner);
    }
  } else {
    b.pack(static_cast<std::uint64_t>(axes_.size()));
    for (const auto& ax : axes_) ax.pack(b);
  }
  b.pack(version_);
}

Descriptor Descriptor::unpack(rt::UnpackBuffer& u) {
  const bool ex = u.unpack<bool>();
  const int ndim = u.unpack<int>();
  if (ndim < 0 || ndim > kMaxNdim)
    throw UsageError("Descriptor: ndim out of range");
  Point extents{};
  for (int a = 0; a < ndim; ++a) extents[a] = u.unpack<Index>();
  const int nranks = u.unpack<int>();
  // Compare wire counts against the bytes that remain, as counts, so a
  // hostile header can neither wrap nor size an allocation. A packed patch
  // is its ndim, lo/hi per axis and an owner; a packed axis is at least its
  // kind, extent, nprocs, block and two empty vectors.
  const auto count = [&u](std::size_t min_bytes) {
    const auto n = u.unpack<std::uint64_t>();
    if (n > u.remaining() / min_bytes)
      throw UsageError("Descriptor: count exceeds the payload");
    return n;
  };
  if (ex) {
    const auto n = count(2 * sizeof(int) +
                         2 * sizeof(Index) * static_cast<std::size_t>(ndim));
    std::vector<OwnedPatch> patches;
    patches.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      OwnedPatch op;
      op.patch = Patch::unpack(u);
      op.owner = u.unpack<int>();
      patches.push_back(op);
    }
    Descriptor d =
        explicit_patches(ndim, extents, std::move(patches), nranks);
    d.version_ = u.unpack<std::uint64_t>();
    if (d.version_ != 0) d.rehash();
    return d;
  }
  const auto n = count(1 + sizeof(int) + 2 * sizeof(Index) +
                       2 * sizeof(std::uint64_t));
  std::vector<AxisDist> axes;
  axes.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) axes.push_back(AxisDist::unpack(u));
  Descriptor d = regular(std::move(axes));
  d.version_ = u.unpack<std::uint64_t>();
  if (d.version_ != 0) d.rehash();
  return d;
}

bool operator==(const Descriptor& a, const Descriptor& b) {
  if (a.explicit_ != b.explicit_ || a.ndim_ != b.ndim_ ||
      a.nranks_ != b.nranks_ || a.version_ != b.version_)
    return false;
  for (int i = 0; i < a.ndim_; ++i)
    if (a.extents_[i] != b.extents_[i]) return false;
  if (a.explicit_) {
    if (a.all_patches_.size() != b.all_patches_.size()) return false;
    for (std::size_t i = 0; i < a.all_patches_.size(); ++i)
      if (!(a.all_patches_[i].patch == b.all_patches_[i].patch) ||
          a.all_patches_[i].owner != b.all_patches_[i].owner)
        return false;
    return true;
  }
  return a.axes_ == b.axes_;
}

}  // namespace mxn::dad
