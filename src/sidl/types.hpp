#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mxn::sidl {

/// Scalar and array types of the SIDL subset. The paper's systems marshal
/// exactly this inventory: SIDL scalars plus (optionally distributed)
/// rectangular arrays (§2.4, §4.2, §4.3; compare the DRI-1.0 type list §5).
enum class TypeKind : std::uint8_t {
  Void,
  Bool,
  Int,     // 32-bit
  Long,    // 64-bit
  Float,
  Double,
  String,
  Array,   // array<elem, ndim>
};

[[nodiscard]] std::string to_string(TypeKind k);

struct TypeRef {
  TypeKind kind = TypeKind::Void;
  TypeKind elem = TypeKind::Void;  // Array only
  int array_ndim = 0;              // Array only
  /// DCA-style `parallel` attribute: the argument is decomposed across the
  /// caller's cohort and must be redistributed to the callee's layout
  /// (§2.4 "simple and parallel arguments").
  bool parallel = false;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const TypeRef&, const TypeRef&) = default;
};

/// Argument passing modes (SIDL in/out/inout).
enum class Mode : std::uint8_t { In, Out, InOut };

[[nodiscard]] std::string to_string(Mode m);

struct Param {
  Mode mode = Mode::In;
  TypeRef type;
  std::string name;
  friend bool operator==(const Param&, const Param&) = default;
};

/// How a method is invoked across a parallel component (the SCIRun2 SIDL
/// extension, §4.2): collective = all-to-all, every cohort rank of caller
/// and callee participates in one logical invocation; independent =
/// one-to-one, ordinary serial RMI between one caller rank and one callee
/// rank.
enum class InvocationKind : std::uint8_t { Collective, Independent };

[[nodiscard]] std::string to_string(InvocationKind k);

struct Method {
  InvocationKind kind = InvocationKind::Collective;
  /// One-way methods return immediately on the caller (adopted from CORBA,
  /// §2.4); they must have void return and no out/inout parameters.
  bool oneway = false;
  TypeRef ret;
  std::string name;
  std::vector<Param> params;

  friend bool operator==(const Method&, const Method&) = default;
};

struct Interface {
  std::string name;       // unqualified
  std::string qualified;  // package.name
  std::vector<Method> methods;

  [[nodiscard]] const Method& method(const std::string& name) const;
  [[nodiscard]] int method_index(const std::string& name) const;
  /// Method by wire index; rt::UsageError when out of range.
  [[nodiscard]] const Method& method_at(int index) const;
};

struct Package {
  std::string name;
  std::string version;
  std::vector<Interface> interfaces;

  [[nodiscard]] const Interface& interface(const std::string& name) const;
};

}  // namespace mxn::sidl
