#pragma once

#include <functional>
#include <string>

#include "dad/dist_array.hpp"

namespace mxn::core {

/// Allowed M×N transfer directions for a registered field (paper §4.1: the
/// registration "indicates which access modes for M×N transfers with that
/// data field are allowed — read, write or read/write").
enum class AccessMode { Read, Write, ReadWrite };

[[nodiscard]] inline bool readable(AccessMode m) {
  return m != AccessMode::Write;
}
[[nodiscard]] inline bool writable(AccessMode m) {
  return m != AccessMode::Read;
}

/// Type-erased handle onto one registered parallel data field: the DAD plus
/// direct access to this process's patch storage, exposed as pack/unpack
/// closures. This is the "short-circuit the DA package, go straight at the
/// local memory" model §2.2.2 argues for.
struct FieldRegistration {
  std::string name;
  dad::DescriptorPtr descriptor;
  std::size_t elem_size = 0;
  AccessMode mode = AccessMode::ReadWrite;
  /// Copy `region` (inside one owned patch) out of local storage, row-major.
  std::function<void(const dad::Patch&, std::byte*)> extract;
  /// Inverse of extract.
  std::function<void(const dad::Patch&, const std::byte*)> inject;
};

/// Bind a typed DistArray as a registerable field. The array must outlive
/// the registration.
template <class T>
FieldRegistration make_field(std::string name, dad::DistArray<T>* array,
                             AccessMode mode) {
  FieldRegistration f;
  f.name = std::move(name);
  f.descriptor = array->descriptor_ptr();
  f.elem_size = sizeof(T);
  f.mode = mode;
  if (readable(mode)) f.extract = array->extractor();
  if (writable(mode)) f.inject = array->injector();
  return f;
}

}  // namespace mxn::core
