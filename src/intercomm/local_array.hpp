#pragma once

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/field.hpp"
#include "dad/geometry.hpp"
#include "rt/error.hpp"

namespace mxn::intercomm {

using dad::Index;
using dad::Patch;
using dad::Point;

/// Local portion of an array under InterComm's *partitioned* descriptor
/// regime (paper §4.4): for explicit (irregular) distributions "there is a
/// one-to-one correspondence between the elements of the array and the
/// number of entries in the data descriptor, therefore ... the descriptor
/// itself is rather large and must be partitioned across the participating
/// processes." A rank holds only its own rectangular patches; nobody holds
/// the global patch list.
template <class T>
  requires std::is_trivially_copyable_v<T>
class LocalArray {
 public:
  explicit LocalArray(std::vector<Patch> patches)
      : patches_(std::move(patches)) {
    bases_.reserve(patches_.size());
    Index acc = 0;
    for (const Patch& p : patches_) {
      if (p.empty()) throw rt::UsageError("local patches must be non-empty");
      bases_.push_back(acc);
      acc += p.volume();
    }
    reject_overlap();
    data_.resize(static_cast<std::size_t>(acc));
  }

  [[nodiscard]] const std::vector<Patch>& patches() const { return patches_; }
  [[nodiscard]] std::span<T> local() { return data_; }
  [[nodiscard]] std::span<const T> local() const { return data_; }

  [[nodiscard]] T& at(const Point& p) {
    for (std::size_t i = 0; i < patches_.size(); ++i)
      if (patches_[i].contains(p))
        return data_[static_cast<std::size_t>(bases_[i] +
                                              patches_[i].offset_of(p))];
    throw rt::UsageError("point not owned by this local array");
  }

  template <class Fn>
  void fill(Fn&& fn) {
    storage().template for_each_element<T>(
        [&](const Point& p, T& v) { v = fn(p); });
  }

  template <class Fn>
  void for_each_owned(Fn&& fn) const {
    const_cast<LocalArray*>(this)->storage().template for_each_element<T>(
        [&](const Point& p, T& v) { fn(p, const_cast<const T&>(v)); });
  }

  /// This rank's storage as the view transfers copy through.
  [[nodiscard]] dad::PatchStorage storage() {
    return {patches_, bases_, reinterpret_cast<std::byte*>(data_.data()),
            sizeof(T)};
  }

  /// Copy `region` (inside one owned patch) out in row-major region order;
  /// a single-region convenience that finds the patch by a scan.
  void extract(const Patch& region, T* out) const {
    // The view is only read through here.
    const dad::PatchStorage s = const_cast<LocalArray*>(this)->storage();
    s.gather(s.find(region), region, out);
  }

  void inject(const Patch& region, const T* in) {
    const dad::PatchStorage s = storage();
    s.scatter(s.find(region), region, in);
  }

 private:
  /// Sort the patches by their low corner along one axis and sweep: a
  /// patch can overlap only an earlier one whose high corner passes its
  /// low one. The prefix max of the high corners finds the first such by
  /// binary search, as the indexed schedule builder does. The axis is the
  /// one the patches stack least deeply along (total extent over span), so
  /// row- and column-distributed arrays alike cost O(P log P).
  void reject_overlap() const {
    if (patches_.empty()) return;
    int ndim = patches_[0].ndim;
    for (const Patch& p : patches_) ndim = std::min(ndim, p.ndim);
    int ax = 0;
    double best_depth = 0;
    for (int a = 0; a < ndim; ++a) {
      Index lo = patches_[0].lo[a], hi = patches_[0].hi[a], sum = 0;
      for (const Patch& p : patches_) {
        lo = std::min(lo, p.lo[a]);
        hi = std::max(hi, p.hi[a]);
        sum += p.extent(a);
      }
      const double depth =
          static_cast<double>(sum) / static_cast<double>(hi - lo);
      if (a == 0 || depth < best_depth) {
        ax = a;
        best_depth = depth;
      }
    }
    std::vector<std::size_t> order(patches_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return patches_[a].lo[ax] < patches_[b].lo[ax];
    });
    std::vector<Index> max_hi(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Patch& p = patches_[order[k]];
      max_hi[k] = k == 0 ? p.hi[ax] : std::max(max_hi[k - 1], p.hi[ax]);
      const auto first = static_cast<std::size_t>(
          std::partition_point(max_hi.begin(),
                               max_hi.begin() + static_cast<std::ptrdiff_t>(k),
                               [&](Index h) { return h <= p.lo[ax]; }) -
          max_hi.begin());
      for (std::size_t j = first; j < k; ++j)
        if (patches_[order[j]].overlaps(p))
          throw rt::UsageError("local patches must not overlap");
    }
  }

  std::vector<Patch> patches_;
  std::vector<Index> bases_;
  std::vector<T> data_;
};

/// Bind a LocalArray as a type-erased field (descriptor-less: only the
/// storage view is meaningful). The array must outlive the registration.
template <class T>
core::FieldRegistration make_local_field(std::string name,
                                         LocalArray<T>* array) {
  return {std::move(name), nullptr, core::AccessMode::ReadWrite,
          array->storage(), {}};
}

}  // namespace mxn::intercomm
