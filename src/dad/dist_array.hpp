#pragma once

#include <span>
#include <vector>

#include "dad/descriptor.hpp"

namespace mxn::dad {

/// An actual array aligned to a Descriptor template: this rank's local
/// storage is the concatenation of its owned patches, each row-major. This
/// is the "direct access to the DA's local memory" model the paper adopts
/// for M×N transfers (§2.2.2) — redistribution reads and writes these
/// buffers without going through any DA package interface.
template <class T>
  requires std::is_trivially_copyable_v<T>
class DistArray {
 public:
  DistArray(DescriptorPtr desc, int rank)
      : desc_(std::move(desc)),
        rank_(rank),
        data_(static_cast<std::size_t>(desc_->local_volume(rank))) {}

  [[nodiscard]] const Descriptor& descriptor() const { return *desc_; }
  [[nodiscard]] const DescriptorPtr& descriptor_ptr() const { return desc_; }
  [[nodiscard]] int rank() const { return rank_; }

  [[nodiscard]] std::span<T> local() { return data_; }
  [[nodiscard]] std::span<const T> local() const { return data_; }

  /// Element access by global point; the point must be owned by this rank.
  [[nodiscard]] T& at(const Point& p) {
    return data_[static_cast<std::size_t>(desc_->global_to_local(rank_, p))];
  }
  [[nodiscard]] const T& at(const Point& p) const {
    return data_[static_cast<std::size_t>(desc_->global_to_local(rank_, p))];
  }

  /// Initialize every owned element from its global coordinates.
  template <class Fn>
  void fill(Fn&& fn) {
    for_each_owned([&](const Point& p, T& v) { v = fn(p); });
  }

  template <class Fn>
  void for_each_owned(Fn&& fn) {
    storage().template for_each_element<T>(fn);
  }

  template <class Fn>
  void for_each_owned(Fn&& fn) const {
    const_cast<DistArray*>(this)->for_each_owned(
        [&](const Point& p, T& v) { fn(p, const_cast<const T&>(v)); });
  }

  /// This rank's storage as the view M×N transfers copy through.
  [[nodiscard]] PatchStorage storage() {
    return desc_->storage(rank_, reinterpret_cast<std::byte*>(data_.data()),
                          sizeof(T));
  }

  /// Copy `region` (which must lie inside a single owned patch) into `out`
  /// in row-major region order: full-width slabs as one memcpy, thinner
  /// regions (column blocks, halo columns) as block trains (gather_region).
  /// A single-region convenience that finds the patch by a scan; schedule
  /// paths go through storage() with the region's recorded patch.
  void extract(const Patch& region, T* out) const {
    // The view is only read through here.
    const PatchStorage s = const_cast<DistArray*>(this)->storage();
    s.gather(s.find(region), region, out);
  }

  /// Inverse of extract.
  void inject(const Patch& region, const T* in) {
    const PatchStorage s = storage();
    s.scatter(s.find(region), region, in);
  }

  [[nodiscard]] std::vector<T> extract(const Patch& region) const {
    std::vector<T> out(static_cast<std::size_t>(region.volume()));
    extract(region, out.data());
    return out;
  }

 private:
  DescriptorPtr desc_;
  int rank_;
  std::vector<T> data_;
};

}  // namespace mxn::dad
