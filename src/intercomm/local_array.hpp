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
    for (std::size_t i = 0; i < patches_.size(); ++i) {
      Index off = bases_[i];
      patches_[i].for_each_point([&](const Point& p) {
        data_[static_cast<std::size_t>(off++)] = fn(p);
      });
    }
  }

  template <class Fn>
  void for_each_owned(Fn&& fn) const {
    for (std::size_t i = 0; i < patches_.size(); ++i) {
      Index off = bases_[i];
      patches_[i].for_each_point([&](const Point& p) {
        fn(p, data_[static_cast<std::size_t>(off++)]);
      });
    }
  }

  /// Copy `region` (inside one owned patch) out in row-major region order.
  void extract(const Patch& region, T* out) const {
    const std::size_t pi = containing(region);
    dad::gather_region(patches_[pi], bases_[pi], region, data_.data(), out,
                       sizeof(T));
  }

  void inject(const Patch& region, const T* in) {
    const std::size_t pi = containing(region);
    dad::scatter_region(patches_[pi], bases_[pi], region, data_.data(), in,
                        sizeof(T));
  }

 private:
  [[nodiscard]] std::size_t containing(const Patch& region) const {
    for (std::size_t i = 0; i < patches_.size(); ++i)
      if (patches_[i].contains(region)) return i;
    throw rt::UsageError("region not inside a single local patch");
  }

  std::vector<Patch> patches_;
  std::vector<Index> bases_;
  std::vector<T> data_;
};

/// Bind a LocalArray as a type-erased field (descriptor-less: only the
/// extract/inject closures and element size are meaningful).
template <class T>
core::FieldRegistration make_local_field(std::string name,
                                         LocalArray<T>* array) {
  core::FieldRegistration f;
  f.name = std::move(name);
  f.elem_size = sizeof(T);
  f.mode = core::AccessMode::ReadWrite;
  f.extract = [array](const Patch& region, std::byte* out) {
    array->extract(region, reinterpret_cast<T*>(out));
  };
  f.inject = [array](const Patch& region, const std::byte* in) {
    array->inject(region, reinterpret_cast<const T*>(in));
  };
  return f;
}

}  // namespace mxn::intercomm
