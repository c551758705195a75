#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "rt/serialize.hpp"

namespace mxn::dad {

/// Global array index type.
using Index = std::int64_t;

/// Maximum array dimensionality supported by the descriptor, matching the
/// DRI-1.0 floor of 3 dims plus one to exercise the "optional higher
/// dimensions" clause.
inline constexpr int kMaxNdim = 4;

/// A point in global index space. Only the first `ndim` coordinates of an
/// array's points are meaningful.
using Point = std::array<Index, kMaxNdim>;

/// Half-open interval [lo, hi) of indices along one axis.
struct IndexInterval {
  Index lo = 0;
  Index hi = 0;

  [[nodiscard]] Index length() const { return hi - lo; }
  [[nodiscard]] bool empty() const { return hi <= lo; }
  [[nodiscard]] bool contains(Index i) const { return i >= lo && i < hi; }

  friend bool operator==(const IndexInterval&, const IndexInterval&) = default;
};

/// A half-open multidimensional rectangular region [lo, hi). This is the
/// unit of data description in the CCA DAD's "explicit" distribution and the
/// unit of intersection when communication schedules are computed.
struct Patch {
  int ndim = 0;
  Point lo{};
  Point hi{};

  static Patch make(int ndim, const Point& lo, const Point& hi) {
    Patch p;
    p.ndim = ndim;
    p.lo = lo;
    p.hi = hi;
    return p;
  }

  [[nodiscard]] Index extent(int axis) const { return hi[axis] - lo[axis]; }

  [[nodiscard]] Index volume() const {
    Index v = 1;
    for (int a = 0; a < ndim; ++a) v *= extent(a);
    return v;
  }

  [[nodiscard]] bool empty() const {
    for (int a = 0; a < ndim; ++a)
      if (hi[a] <= lo[a]) return true;
    return ndim == 0;
  }

  [[nodiscard]] bool contains(const Point& p) const {
    for (int a = 0; a < ndim; ++a)
      if (p[a] < lo[a] || p[a] >= hi[a]) return false;
    return true;
  }

  [[nodiscard]] bool contains(const Patch& other) const {
    for (int a = 0; a < ndim; ++a)
      if (other.lo[a] < lo[a] || other.hi[a] > hi[a]) return false;
    return true;
  }

  /// Row-major (last axis fastest) offset of a contained point relative to
  /// this patch's origin.
  [[nodiscard]] Index offset_of(const Point& p) const {
    Index off = 0;
    for (int a = 0; a < ndim; ++a) off = off * extent(a) + (p[a] - lo[a]);
    return off;
  }

  /// Inverse of offset_of.
  [[nodiscard]] Point point_at(Index offset) const {
    Point p{};
    for (int a = ndim - 1; a >= 0; --a) {
      const Index e = extent(a);
      p[a] = lo[a] + offset % e;
      offset /= e;
    }
    return p;
  }

  [[nodiscard]] static std::optional<Patch> intersect(const Patch& a,
                                                      const Patch& b) {
    Patch r;
    r.ndim = a.ndim;
    for (int i = 0; i < a.ndim; ++i) {
      r.lo[i] = std::max(a.lo[i], b.lo[i]);
      r.hi[i] = std::min(a.hi[i], b.hi[i]);
      if (r.hi[i] <= r.lo[i]) return std::nullopt;
    }
    return r;
  }

  [[nodiscard]] bool overlaps(const Patch& other) const {
    return intersect(*this, other).has_value();
  }

  /// Visit every contained point in row-major order.
  template <class Fn>
  void for_each_point(Fn&& fn) const {
    if (empty()) return;
    Point p = lo;
    while (true) {
      fn(const_cast<const Point&>(p));
      int a = ndim - 1;
      while (a >= 0) {
        if (++p[a] < hi[a]) break;
        p[a] = lo[a];
        --a;
      }
      if (a < 0) return;
    }
  }

  [[nodiscard]] std::string to_string() const;

  void pack(rt::PackBuffer& b) const {
    b.pack(ndim);
    for (int a = 0; a < ndim; ++a) {
      b.pack(lo[a]);
      b.pack(hi[a]);
    }
  }

  static Patch unpack(rt::UnpackBuffer& u) {
    Patch p;
    p.ndim = u.unpack<int>();
    if (p.ndim < 0 || p.ndim > kMaxNdim)
      throw rt::UsageError("Patch: ndim out of range");
    for (int a = 0; a < p.ndim; ++a) {
      p.lo[a] = u.unpack<Index>();
      p.hi[a] = u.unpack<Index>();
    }
    return p;
  }

  friend bool operator==(const Patch& a, const Patch& b) {
    if (a.ndim != b.ndim) return false;
    for (int i = 0; i < a.ndim; ++i)
      if (a.lo[i] != b.lo[i] || a.hi[i] != b.hi[i]) return false;
    return true;
  }
};

/// Copy `region`, which must lie inside `owned`, out of the row-major
/// storage of `owned` (whose first element is element `base` of `storage`)
/// into `out`, packed in row-major region order. `width` is the element
/// size in bytes. The region's shape states its copy pattern: axes it spans
/// fully fold into one contiguous block, the next axis becomes one
/// constant-stride block train, and only the axes outside those two are
/// looped over. Each train is one rt::kernels::BlockRun, dispatched and
/// accounted by rt::kernels::gather_run (docs/PERFORMANCE.md).
void gather_region(const Patch& owned, Index base, const Patch& region,
                   const void* storage, void* out, std::size_t width);

/// Inverse of gather_region: storage <- `in`, through
/// rt::kernels::scatter_run.
void scatter_region(const Patch& owned, Index base, const Patch& region,
                    void* storage, const void* in, std::size_t width);

/// One rank's local storage of an array: patch i's elements, row-major,
/// start at element `bases[i]` of `data`, `width` bytes each. DistArray,
/// intercomm::LocalArray and redundancy snapshot blobs all fit it, so one
/// view serves every M×N copy path (§2.2.2). The view owns nothing.
struct PatchStorage {
  std::span<const Patch> patches;
  std::span<const Index> bases;
  std::byte* data = nullptr;
  std::size_t width = 0;

  /// Bytes held: the patches' total volume times the width. The storage is
  /// exactly this many bytes from `data`.
  [[nodiscard]] std::size_t bytes() const {
    if (patches.empty()) return 0;
    return static_cast<std::size_t>(bases.back() + patches.back().volume()) *
           width;
  }

  /// gather_region / scatter_region of `region`, which must lie inside
  /// patch `i` (checked, so a schedule of another layout fails here).
  void gather(std::size_t i, const Patch& region, void* out) const;
  void scatter(std::size_t i, const Patch& region, const void* in) const;

  /// fn(point, element) for every element, read as a T, in storage order.
  template <class T, class Fn>
  void for_each_element(Fn&& fn) const {
    for (std::size_t i = 0; i < patches.size(); ++i) {
      T* e = reinterpret_cast<T*>(data) + bases[i];
      patches[i].for_each_point([&](const Point& p) { fn(p, *e++); });
    }
  }

  /// Index of the patch holding `region`, by a linear scan. For callers of
  /// one region that names no patch (DistArray and LocalArray extract /
  /// inject); schedule paths carry the index.
  [[nodiscard]] std::size_t find(const Patch& region) const;
};

}  // namespace mxn::dad
