#pragma once

#include <cstdint>
#include <exception>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "rt/serialize.hpp"
#include "sidl/types.hpp"

namespace mxn::sidl {

// The SIDL argument marshaller both distributed frameworks share — the
// analog of the Babel-generated glue that performs "the same argument
// marshalling" under every parallel RMI system (paper §2.4, §4.2, §4.3).
// It is templated over the framework's value variant: a framework adds its
// own parallel-argument alternatives, the simple ones are marshalled here.

/// Raised when an argument's runtime type does not match the SIDL signature.
class TypeMismatch : public rt::UsageError {
 public:
  using rt::UsageError::UsageError;
};

/// Raised on the caller when the remote handler failed.
class RemoteError : public rt::Error {
 public:
  using rt::Error::Error;
};

/// Status byte leading every reply record.
enum class CallStatus : std::uint8_t { Ok, Error };

[[nodiscard]] inline bool takes_input(Mode m) { return m != Mode::Out; }
[[nodiscard]] inline bool yields_output(Mode m) { return m != Mode::In; }

/// Is T one of the alternatives of the variant V?
template <class T, class V>
inline constexpr bool alternative_of = false;
template <class T, class... Ts>
inline constexpr bool alternative_of<T, std::variant<Ts...>> =
    (std::is_same_v<T, Ts> || ...);

/// The one SIDL type switch: calls `f.template operator()<T>()` with the C++
/// type T that carries a simple value of type `t` (std::monostate for void,
/// std::vector<E> for a flat array).
template <class F>
decltype(auto) with_cpp_type(const TypeRef& t, F&& f) {
  switch (t.kind) {
    case TypeKind::Void: return f.template operator()<std::monostate>();
    case TypeKind::Bool: return f.template operator()<bool>();
    case TypeKind::Int: return f.template operator()<std::int32_t>();
    case TypeKind::Long: return f.template operator()<std::int64_t>();
    case TypeKind::Float: return f.template operator()<float>();
    case TypeKind::Double: return f.template operator()<double>();
    case TypeKind::String: return f.template operator()<std::string>();
    case TypeKind::Array:
      switch (t.elem) {
        case TypeKind::Int:
          return f.template operator()<std::vector<std::int32_t>>();
        case TypeKind::Long:
          return f.template operator()<std::vector<std::int64_t>>();
        case TypeKind::Float:
          return f.template operator()<std::vector<float>>();
        case TypeKind::Double:
          return f.template operator()<std::vector<double>>();
        default: break;
      }
      break;
  }
  throw TypeMismatch("no value representation for SIDL type " +
                     t.to_string());
}

/// Does `v` hold a simple value of SIDL type `t`? Parallel types never
/// conform here: each framework checks its own parallel handles.
template <class V>
[[nodiscard]] bool conforms(const V& v, const TypeRef& t) {
  if (t.parallel) return false;
  return with_cpp_type(t, [&]<class T>() {
    if constexpr (alternative_of<T, V>) return std::holds_alternative<T>(v);
    return false;
  });
}

/// Marshal `v` as simple SIDL type `t`.
template <class V>
void pack_value(rt::PackBuffer& b, const V& v, const TypeRef& t) {
  if (!conforms(v, t))
    throw TypeMismatch("value does not match SIDL type " + t.to_string());
  with_cpp_type(t, [&]<class T>() {
    if constexpr (alternative_of<T, V> && !std::is_same_v<T, std::monostate>)
      b.pack(std::get<T>(v));
  });
}

/// Inverse of pack_value.
template <class V>
[[nodiscard]] V unpack_value(rt::UnpackBuffer& u, const TypeRef& t) {
  if (t.parallel)
    throw TypeMismatch("parallel arguments are redistributed, not packed");
  return with_cpp_type(t, [&]<class T>() -> V {
    if constexpr (!alternative_of<T, V>) {
      throw TypeMismatch("SIDL type " + t.to_string() +
                         " has no value alternative");
    } else if constexpr (std::is_same_v<T, std::monostate>) {
      return V(std::in_place_type<T>);
    } else if constexpr (std::is_same_v<T, bool>) {
      // One byte on the wire; loading any value but 0 or 1 as a bool would
      // be undefined behaviour.
      static_assert(sizeof(bool) == 1);
      const auto byte = u.unpack<std::uint8_t>();
      if (byte > 1) throw rt::UsageError("corrupt bool value");
      return V(std::in_place_type<T>, byte == 1);
    } else if constexpr (std::is_same_v<T, std::string>) {
      return V(std::in_place_type<T>, u.unpack_string());
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      return V(std::in_place_type<T>, u.unpack<T>());
    } else {
      return V(std::in_place_type<T>,
               u.unpack_vector<typename T::value_type>());
    }
  });
}

/// Check a call's arguments against its signature: the arity, then every
/// argument the caller supplies against `fits(value, type)` (a simple out
/// slot is the callee's to fill and is not checked).
template <class V, class Fits>
void check_args(const Method& m, const std::vector<V>& args, Fits&& fits) {
  if (args.size() != m.params.size())
    throw rt::UsageError("method '" + m.name + "' takes " +
                         std::to_string(m.params.size()) +
                         " arguments, got " + std::to_string(args.size()));
  for (std::size_t i = 0; i < args.size(); ++i) {
    const Param& p = m.params[i];
    if (!p.type.parallel && p.mode == Mode::Out) continue;
    if (!fits(args[i], p.type))
      throw TypeMismatch("argument '" + p.name + "' of '" + m.name +
                         "' does not match " + p.type.to_string());
  }
}

/// The one handler dispatch: run `handler()` (it fills the out/inout slots
/// of `args` and returns the method's return value), then pack the reply
/// record — status, the call's `id`, and either the return value and every
/// simple out/inout argument or the handler's error text. Returns whether
/// the handler succeeded.
template <class V, class Id, class Handler>
bool run_handler(rt::PackBuffer& reply, const Method& m, Id id,
                 std::vector<V>& args, Handler&& handler) {
  V ret;
  std::string error;
  bool ok = true;
  try {
    ret = handler();
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }
  reply.pack(static_cast<std::uint8_t>(ok ? CallStatus::Ok
                                          : CallStatus::Error));
  reply.pack(id);
  if (!ok) {
    reply.pack(error);
    return false;
  }
  if (m.ret.kind != TypeKind::Void) pack_value(reply, ret, m.ret);
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const Param& p = m.params[i];
    if (!p.type.parallel && yields_output(p.mode))
      pack_value(reply, args[i], p.type);
  }
  return true;
}

/// Inverse of run_handler for the call `id`: fills `ret` and the simple
/// out/inout slots of `args`. Throws RemoteError with the handler's message
/// when it failed, UsageError when the record answers another call.
template <class V, class Id>
void unpack_reply(rt::UnpackBuffer& u, const Method& m, Id id, V& ret,
                  std::vector<V>& args) {
  const auto status = static_cast<CallStatus>(u.unpack<std::uint8_t>());
  const Id rid = u.unpack<Id>();
  if (rid != id)
    throw rt::UsageError("reply for call " + std::to_string(rid) +
                         " where call " + std::to_string(id) +
                         " was expected");
  if (status == CallStatus::Error) throw RemoteError(u.unpack_string());
  if (status != CallStatus::Ok) throw rt::UsageError("corrupt reply status");
  if (m.ret.kind != TypeKind::Void) ret = unpack_value<V>(u, m.ret);
  for (std::size_t i = 0; i < m.params.size(); ++i) {
    const Param& p = m.params[i];
    if (!p.type.parallel && yields_output(p.mode))
      args[i] = unpack_value<V>(u, p.type);
  }
}

}  // namespace mxn::sidl
