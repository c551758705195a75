#pragma once

#include <string>

#include "dad/dist_array.hpp"
#include "rt/buffer.hpp"

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
/// a view of this process's patch storage. This is the "short-circuit the
/// DA package, go straight at the local memory" model §2.2.2 argues for.
/// Whether transfers may read or write the storage is `mode`'s to say.
struct FieldRegistration {
  std::string name;
  dad::DescriptorPtr descriptor;
  AccessMode mode = AccessMode::ReadWrite;
  /// This process's storage: descriptor->patches_of(its cohort rank) at
  /// their bases (intercomm's descriptor-less fields: the local patches).
  dad::PatchStorage storage;
  /// Holds the bytes `storage` points into when the registration owns them
  /// (a redundancy blob-backed field); empty when a caller's array does.
  rt::Buffer backing;
};

/// Bind a typed DistArray as a registerable field. The array must outlive
/// the registration.
template <class T>
FieldRegistration make_field(std::string name, dad::DistArray<T>* array,
                             AccessMode mode) {
  return {std::move(name), array->descriptor_ptr(), mode, array->storage(),
          {}};
}

}  // namespace mxn::core
