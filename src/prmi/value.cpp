#include "prmi/value.hpp"

namespace mxn::prmi {

using sidl::TypeKind;
using sidl::TypeRef;

std::size_t elem_width(TypeKind k) {
  switch (k) {
    case TypeKind::Int: return sizeof(std::int32_t);
    case TypeKind::Long: return sizeof(std::int64_t);
    case TypeKind::Float: return sizeof(float);
    case TypeKind::Double: return sizeof(double);
    default:
      throw TypeMismatch("type has no array element width: " +
                         sidl::to_string(k));
  }
}

bool conforms(const Value& v, const TypeRef& t) {
  if (!t.parallel) return sidl::conforms(v, t);
  const auto* p = std::get_if<ParallelRef>(&v);
  return p && p->binding && p->binding->storage.width == elem_width(t.elem) &&
         p->binding->descriptor->ndim() == t.array_ndim;
}

std::uint64_t value_hash(const Value& v, const TypeRef& t) {
  rt::PackBuffer b;
  sidl::pack_value(b, v, t);
  // FNV-1a over the canonical encoding.
  std::uint64_t h = 1469598103934665603ull;
  for (std::byte byte : b.bytes()) {
    h ^= static_cast<std::uint64_t>(byte);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace mxn::prmi
