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
    const auto& patches = desc_->patches_of(rank_);
    for (std::size_t i = 0; i < patches.size(); ++i) {
      Index off = desc_->patch_base(rank_, i);
      patches[i].for_each_point([&](const Point& p) {
        fn(p, data_[static_cast<std::size_t>(off)]);
        ++off;
      });
    }
  }

  template <class Fn>
  void for_each_owned(Fn&& fn) const {
    const_cast<DistArray*>(this)->for_each_owned(
        [&](const Point& p, T& v) { fn(p, const_cast<const T&>(v)); });
  }

  /// Copy `region` (which must lie inside a single owned patch — schedule
  /// builders guarantee this by intersecting patch-by-patch) into `out` in
  /// row-major region order: full-width slabs as one memcpy, thinner
  /// regions (column blocks, halo columns) as block trains (gather_region).
  void extract(const Patch& region, T* out) const {
    const std::size_t pi = desc_->patch_containing(rank_, region);
    gather_region(desc_->patches_of(rank_)[pi], desc_->patch_base(rank_, pi),
                  region, data_.data(), out, sizeof(T));
  }

  /// Inverse of extract.
  void inject(const Patch& region, const T* in) {
    const std::size_t pi = desc_->patch_containing(rank_, region);
    scatter_region(desc_->patches_of(rank_)[pi],
                   desc_->patch_base(rank_, pi), region, data_.data(), in,
                   sizeof(T));
  }

  /// extract/inject as byte-level (region, bytes) callables: the form
  /// sched::pack_regions / unpack_regions and field registrations take.
  [[nodiscard]] auto extractor() const {
    return [this](const Patch& region, std::byte* out) {
      extract(region, reinterpret_cast<T*>(out));
    };
  }
  [[nodiscard]] auto injector() {
    return [this](const Patch& region, const std::byte* in) {
      inject(region, reinterpret_cast<const T*>(in));
    };
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
