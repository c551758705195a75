#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/field.hpp"
#include "sidl/marshal.hpp"

namespace mxn::prmi {

/// Reference to a parallel (decomposed) array argument: the caller passes a
/// binding onto its local patch storage; the callee sees a binding onto its
/// pre-registered target array. The framework moves the data between the
/// two layouts (paper §2.4, "parallel arguments ... must be gathered and
/// transferred, and possibly redistributed according to the corresponding
/// M×N layout").
struct ParallelRef {
  const core::FieldRegistration* binding = nullptr;
};

/// Dynamic value for PRMI marshalling. Simple arguments must hold the same
/// actual value on every caller rank (the CCA convention, §2.4); the proxy
/// can optionally enforce this. Non-parallel arrays are replicated and
/// marshalled flat (row-major).
using Value = std::variant<std::monostate, bool, std::int32_t, std::int64_t,
                           float, double, std::string,
                           std::vector<std::int32_t>,
                           std::vector<std::int64_t>, std::vector<float>,
                           std::vector<double>, ParallelRef>;

using sidl::RemoteError;
using sidl::TypeMismatch;

/// Does `v` hold a value of SIDL type `t`? (ParallelRef matches any
/// parallel array type whose element width equals the binding's; simple
/// types are checked by the shared marshaller, sidl/marshal.hpp.)
[[nodiscard]] bool conforms(const Value& v, const sidl::TypeRef& t);

/// A short content hash used by the optional same-value-on-every-rank check
/// for simple arguments.
[[nodiscard]] std::uint64_t value_hash(const Value& v, const sidl::TypeRef& t);

/// Element width in bytes for a SIDL array element kind.
[[nodiscard]] std::size_t elem_width(sidl::TypeKind k);

}  // namespace mxn::prmi
