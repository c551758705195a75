#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dad/axis.hpp"
#include "dad/geometry.hpp"

namespace mxn::dad {

/// A patch assigned to a rank — the unit of the DAD "explicit" distribution.
struct OwnedPatch {
  Patch patch;
  int owner = 0;
};

/// Distributed Array Descriptor template (paper §2.2.2): the virtual array
/// that specifies the logical distribution of data across the cohort of a
/// parallel component. Any number of actual arrays (DistArray) can be
/// aligned to one template; communication schedules are computed from — and
/// cached against — templates, so they are reused across conforming arrays.
///
/// Two families:
///  - regular: per-axis AxisDist over a process grid whose axis sizes are
///    the axes' nprocs (HPF model: collapsed / block-cyclic / generalized
///    block / implicit per axis);
///  - explicit: array-global list of non-overlapping rectangular patches,
///    each assigned to a rank, that exactly covers the index space.
///
/// Immutable after construction; all per-rank patch lists and prefix volumes
/// are precomputed, so concurrent queries from all cohort threads are safe.
class Descriptor {
 public:
  /// Regular HPF-style template; the process grid is the row-major product
  /// of the axes' nprocs values, so nranks() == prod(axes[a].nprocs()).
  static Descriptor regular(std::vector<AxisDist> axes);

  /// Explicit template. Throws unless the patches are in-bounds, mutually
  /// disjoint and exactly cover the global index space.
  static Descriptor explicit_patches(int ndim, const Point& extents,
                                     std::vector<OwnedPatch> patches,
                                     int nranks);

  [[nodiscard]] bool is_explicit() const { return explicit_; }
  [[nodiscard]] int ndim() const { return ndim_; }
  [[nodiscard]] Index extent(int axis) const { return extents_[axis]; }
  [[nodiscard]] const Point& extents() const { return extents_; }
  [[nodiscard]] int nranks() const { return nranks_; }

  [[nodiscard]] Index total_volume() const {
    Index v = 1;
    for (int a = 0; a < ndim_; ++a) v *= extents_[a];
    return v;
  }

  /// The axis distributions (regular templates only).
  [[nodiscard]] const std::vector<AxisDist>& axes() const { return axes_; }

  /// Patches owned by `rank`, in canonical (storage) order. Local storage of
  /// an aligned array is the concatenation of these patches, each row-major.
  [[nodiscard]] const std::vector<Patch>& patches_of(int rank) const {
    return rank_patches_.at(rank);
  }

  /// Storage offset of the first element of patches_of(rank)[i].
  [[nodiscard]] Index patch_base(int rank, std::size_t i) const {
    return rank_patch_bases_.at(rank).at(i);
  }

  /// `rank`'s local storage at `data`, `width` bytes per element: its
  /// patches at their patch_base offsets.
  [[nodiscard]] PatchStorage storage(int rank, std::byte* data,
                                     std::size_t width) const {
    return {rank_patches_.at(rank), rank_patch_bases_.at(rank), data, width};
  }

  /// Elements owned by `rank`.
  [[nodiscard]] Index local_volume(int rank) const {
    return rank_volumes_.at(rank);
  }

  /// Bounding box of `rank`'s patches (meaningless when the rank owns
  /// nothing — check local_volume first). Schedule builders use it to skip
  /// rank pairs that cannot exchange anything.
  [[nodiscard]] const Patch& bounding_box(int rank) const {
    return rank_bboxes_.at(rank);
  }

  /// Rank owning a global point.
  [[nodiscard]] int owner(const Point& p) const;

  /// Per-axis process-grid coordinates of `rank` (regular templates only):
  /// the inverse of the row-major rank composition, so
  /// patches_of(rank) == cross product of axes()[a].intervals_of(coords[a]).
  [[nodiscard]] std::array<int, kMaxNdim> grid_coords(int rank) const;

  /// One rank's patches indexed for overlap queries along `axis`, the axis
  /// they stack least deeply along (total extent over span), so row- and
  /// column-distributed patches alike stay O(log P + overlaps) per query:
  /// sorted by lo[axis], with a running maximum of hi[axis] so a query can
  /// binary-search to the first candidate and stop at the first entry
  /// starting past it.
  struct IndexedPatch {
    Patch patch;
    std::int32_t idx = 0;  // position in patches_of(rank)
    Index max_hi = 0;      // max hi[axis] over entries [0 .. this]
  };
  struct RankIndex {
    int axis = 0;
    std::vector<IndexedPatch> entries;
  };

  /// Memoized per-rank spatial index over the owned patches. Built lazily,
  /// once per descriptor (thread-safe; copies share it), and counted by the
  /// `sched.index.builds` trace counter. The schedule builders use it to
  /// find overlapping peer patches by binary search + bounded sweep instead
  /// of a full patch-pair scan.
  [[nodiscard]] const std::vector<RankIndex>& spatial_index() const;

  /// Storage offset (within rank's concatenated patch storage) of an owned
  /// global point. Throws if `rank` does not own `p`.
  [[nodiscard]] Index global_to_local(int rank, const Point& p) const;

  /// Inverse of global_to_local.
  [[nodiscard]] Point local_to_global(int rank, Index offset) const;

  /// Same global index space (shape), regardless of distribution. Arrays on
  /// same-shape templates can be coupled by redistribution.
  [[nodiscard]] bool same_shape(const Descriptor& other) const;

  /// Lifecycle stamp for elastic components (docs/RESCALING.md): a rescale
  /// re-registers fields under descriptors stamped with the new epoch, so
  /// two epochs whose layouts happen to coincide still key distinct
  /// ScheduleCache / footprint-cache generations. Version participates in
  /// pack(), operator== and structural_hash(); 0 (the default) is the
  /// pre-rescale generation.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Copy of this descriptor stamped with `v` (distribution unchanged; the
  /// lazily built spatial index is shared — same structure, same index).
  [[nodiscard]] Descriptor with_version(std::uint64_t v) const;

  /// Hash of the full structural identity (kind, extents, axes / patch
  /// list): equal descriptors hash equally. Precomputed at construction, so
  /// lookups keyed by it (e.g. ScheduleCache) pay O(1) per query.
  [[nodiscard]] std::size_t structural_hash() const { return hash_; }

  /// Size of the descriptor metadata proportional to the array (counts the
  /// per-element entries of implicit axes and the patch list of explicit
  /// templates). Compact descriptors have O(P) entries; structureless ones
  /// O(elements) — the trade-off §2.2.2 closes on.
  [[nodiscard]] std::size_t descriptor_entries() const;

  [[nodiscard]] std::string to_string() const;

  void pack(rt::PackBuffer& b) const;
  static Descriptor unpack(rt::UnpackBuffer& u);

  friend bool operator==(const Descriptor& a, const Descriptor& b);

 private:
  Descriptor() = default;
  void finalize();  // builds rank_patches_, hash_, etc.
  void rehash();    // recompute hash_ from the canonical serialization

  bool explicit_ = false;
  int ndim_ = 0;
  Point extents_{};
  int nranks_ = 0;
  std::uint64_t version_ = 0;
  std::vector<AxisDist> axes_;            // regular only
  std::vector<OwnedPatch> all_patches_;   // explicit only
  std::size_t hash_ = 0;

  // Derived, precomputed:
  std::vector<std::vector<Patch>> rank_patches_;
  std::vector<std::vector<Index>> rank_patch_bases_;
  std::vector<Index> rank_volumes_;
  std::vector<Patch> rank_bboxes_;

  // Lazily built spatial index, shared between copies (same structure ⇒
  // same index). The holder is allocated eagerly in finalize() so the
  // descriptor itself stays copyable.
  struct SpatialIndex {
    std::once_flag once;
    std::vector<RankIndex> per_rank;
  };
  std::shared_ptr<SpatialIndex> index_;
};

/// Shared immutable descriptor handle; cohort threads and the framework pass
/// these around freely.
using DescriptorPtr = std::shared_ptr<const Descriptor>;

template <class... Args>
DescriptorPtr make_regular(Args&&... args) {
  return std::make_shared<const Descriptor>(
      Descriptor::regular(std::forward<Args>(args)...));
}

inline DescriptorPtr make_explicit(int ndim, const Point& extents,
                                   std::vector<OwnedPatch> patches,
                                   int nranks) {
  return std::make_shared<const Descriptor>(Descriptor::explicit_patches(
      ndim, extents, std::move(patches), nranks));
}

}  // namespace mxn::dad
