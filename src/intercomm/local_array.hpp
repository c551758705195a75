#pragma once

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
    for (std::size_t i = 0; i < patches_.size(); ++i) {
      if (patches_[i].empty())
        throw rt::UsageError("local patches must be non-empty");
      for (std::size_t j = 0; j < i; ++j)
        if (patches_[i].overlaps(patches_[j]))
          throw rt::UsageError("local patches must not overlap");
      bases_.push_back(acc);
      acc += patches_[i].volume();
    }
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
