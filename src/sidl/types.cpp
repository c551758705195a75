#include "sidl/types.hpp"

#include <stdexcept>

#include "rt/error.hpp"

namespace mxn::sidl {

std::string to_string(TypeKind k) {
  switch (k) {
    case TypeKind::Void: return "void";
    case TypeKind::Bool: return "bool";
    case TypeKind::Int: return "int";
    case TypeKind::Long: return "long";
    case TypeKind::Float: return "float";
    case TypeKind::Double: return "double";
    case TypeKind::String: return "string";
    case TypeKind::Array: return "array";
  }
  return "?";
}

std::string TypeRef::to_string() const {
  std::string s;
  if (parallel) s += "parallel ";
  if (kind == TypeKind::Array) {
    s += "array<" + sidl::to_string(elem) + "," +
         std::to_string(array_ndim) + ">";
  } else {
    s += sidl::to_string(kind);
  }
  return s;
}

std::string to_string(Mode m) {
  switch (m) {
    case Mode::In: return "in";
    case Mode::Out: return "out";
    case Mode::InOut: return "inout";
  }
  return "?";
}

std::string to_string(InvocationKind k) {
  return k == InvocationKind::Collective ? "collective" : "independent";
}

const Method& Interface::method(const std::string& name) const {
  for (const auto& m : methods)
    if (m.name == name) return m;
  throw std::out_of_range("interface " + qualified + " has no method '" +
                          name + "'");
}

int Interface::method_index(const std::string& name) const {
  for (std::size_t i = 0; i < methods.size(); ++i)
    if (methods[i].name == name) return static_cast<int>(i);
  throw std::out_of_range("interface " + qualified + " has no method '" +
                          name + "'");
}

const Method& Interface::method_at(int index) const {
  if (index < 0 || index >= static_cast<int>(methods.size()))
    throw rt::UsageError("interface " + qualified + " has no method #" +
                         std::to_string(index));
  return methods[static_cast<std::size_t>(index)];
}

const Interface& Package::interface(const std::string& name) const {
  for (const auto& i : interfaces)
    if (i.name == name || i.qualified == name) return i;
  throw std::out_of_range("package " + this->name + " has no interface '" +
                          name + "'");
}

}  // namespace mxn::sidl
