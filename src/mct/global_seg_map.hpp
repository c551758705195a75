#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dad/descriptor.hpp"
#include "linear/linearization.hpp"
#include "rt/serialize.hpp"

namespace mxn::mct {

using Index = std::int64_t;

/// MCT's domain decomposition descriptor (paper §4.5): the physical grid's
/// points carry a global 1-D numbering, and a GlobalSegMap assigns segments
/// of that numbering to the processes of a component. It is the mesh-level
/// counterpart of a linearization footprint — "distributed array
/// descriptors are essentially implemented at the mesh level".
///
/// A rank's local storage order is its segments in the order given,
/// concatenated (MCT convention). Segments of one rank must be disjoint;
/// together all segments must partition [0, gsize).
class GlobalSegMap {
 public:
  struct Seg {
    Index start = 0;
    Index length = 0;
    int owner = 0;
    friend bool operator==(const Seg&, const Seg&) = default;
  };

  GlobalSegMap(Index gsize, std::vector<Seg> segs);

  /// Contiguous block decomposition over `nprocs` ranks.
  static GlobalSegMap block(Index gsize, int nprocs);

  /// Round-robin decomposition with the given chunk size.
  static GlobalSegMap cyclic(Index gsize, int nprocs, Index chunk = 1);

  /// Bridge from the CCA descriptor world: number the grid points of a DAD
  /// template by `lin` and derive each rank's segments from its footprint.
  /// An AttrVect on the resulting GSMap stores points in ascending linear
  /// order, so MCT Routers can couple directly against components that
  /// describe their data with Distributed Array Descriptors.
  static GlobalSegMap from_descriptor(const dad::Descriptor& desc,
                                      const linear::Linearization& lin);

  [[nodiscard]] Index gsize() const { return gsize_; }
  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] const std::vector<Seg>& segs() const { return segs_; }

  /// This rank's segments, in local storage order. A rank at or above
  /// nprocs() owns nothing; a negative rank is a UsageError.
  [[nodiscard]] const std::vector<Seg>& segs_of(int rank) const;

  [[nodiscard]] Index local_size(int rank) const;

  [[nodiscard]] int owner(Index gidx) const;

  /// Position of `gidx` within `rank`'s concatenated segments.
  [[nodiscard]] Index local_index(int rank, Index gidx) const;

  /// Inverse of local_index.
  [[nodiscard]] Index global_index(int rank, Index lidx) const;

  /// The rank's owned global indices as normalized linear segments — the
  /// bridge to the generic schedule machinery.
  [[nodiscard]] std::vector<linear::Segment> footprint(int rank) const;

  /// The whole map as ascending (segment, owner) runs exactly covering
  /// [0, gsize), with adjacent same-owner runs coalesced — so the runs of
  /// one owner equal footprint(owner). A single sweep of a local footprint
  /// against this list replaces per-peer footprint + intersect. Precomputed
  /// at construction.
  [[nodiscard]] const std::vector<linear::OwnedSegment>& ownership_runs()
      const {
    return runs_;
  }

  void pack(rt::PackBuffer& b) const;
  static GlobalSegMap unpack(rt::UnpackBuffer& u);

  friend bool operator==(const GlobalSegMap& a, const GlobalSegMap& b) {
    return a.gsize_ == b.gsize_ && a.segs_ == b.segs_;
  }

 private:
  Index gsize_ = 0;
  int nprocs_ = 0;
  std::vector<Seg> segs_;
  std::vector<std::vector<Seg>> by_rank_;
  // Sorted (start, seg index) for owner lookups.
  std::vector<std::pair<Index, std::size_t>> sorted_;
  // Ascending coalesced ownership runs (see ownership_runs()).
  std::vector<linear::OwnedSegment> runs_;
};

}  // namespace mxn::mct
