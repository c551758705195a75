// Tests for the SIDL-subset parser (src/sidl) that drives the PRMI proxy
// layers: grammar coverage, semantic rules, and error reporting; and for the
// shared argument marshaller (sidl/marshal.hpp) under PRMI and DCA.

#include <gtest/gtest.h>

#include "sidl/marshal.hpp"
#include "sidl/parser.hpp"

namespace sidl = mxn::sidl;
using sidl::InvocationKind;
using sidl::Mode;
using sidl::TypeKind;

TEST(SidlParser, MinimalPackage) {
  auto pkg = sidl::parse_package("package p { }");
  EXPECT_EQ(pkg.name, "p");
  EXPECT_TRUE(pkg.interfaces.empty());
}

TEST(SidlParser, PackageWithVersion) {
  auto pkg = sidl::parse_package("package climate version 1.2 { }");
  EXPECT_EQ(pkg.version, "1.2");
}

TEST(SidlParser, FullInterface) {
  const char* src = R"(
    // Coupled-model flux exchange, in the spirit of the paper's examples.
    package climate version 0.9 {
      interface FluxExchange {
        collective void exchange(in parallel array<double,2> flux,
                                 out double norm);
        collective array<double,1> sample(in int count);
        independent int ping(in int token);
        collective oneway void steer(in string name, in double value);
        /* inout round-trips a buffer */
        collective void scale(inout parallel array<double,2> field,
                              in double factor);
      }
    }
  )";
  auto pkg = sidl::parse_package(src);
  ASSERT_EQ(pkg.interfaces.size(), 1u);
  const auto& i = pkg.interface("FluxExchange");
  EXPECT_EQ(i.qualified, "climate.FluxExchange");
  ASSERT_EQ(i.methods.size(), 5u);

  const auto& ex = i.method("exchange");
  EXPECT_EQ(ex.kind, InvocationKind::Collective);
  EXPECT_FALSE(ex.oneway);
  EXPECT_EQ(ex.ret.kind, TypeKind::Void);
  ASSERT_EQ(ex.params.size(), 2u);
  EXPECT_EQ(ex.params[0].mode, Mode::In);
  EXPECT_TRUE(ex.params[0].type.parallel);
  EXPECT_EQ(ex.params[0].type.kind, TypeKind::Array);
  EXPECT_EQ(ex.params[0].type.elem, TypeKind::Double);
  EXPECT_EQ(ex.params[0].type.array_ndim, 2);
  EXPECT_EQ(ex.params[1].mode, Mode::Out);
  EXPECT_EQ(ex.params[1].type.kind, TypeKind::Double);

  const auto& sample = i.method("sample");
  EXPECT_EQ(sample.ret.kind, TypeKind::Array);
  EXPECT_EQ(sample.ret.array_ndim, 1);

  const auto& ping = i.method("ping");
  EXPECT_EQ(ping.kind, InvocationKind::Independent);
  EXPECT_EQ(ping.ret.kind, TypeKind::Int);

  const auto& steer = i.method("steer");
  EXPECT_TRUE(steer.oneway);

  EXPECT_EQ(i.method_index("scale"), 4);
  EXPECT_THROW((void)i.method("nope"), std::out_of_range);
}

TEST(SidlParser, MethodsDefaultToCollective) {
  auto pkg = sidl::parse_package(
      "package p { interface I { void f(); } }");
  EXPECT_EQ(pkg.interface("I").method("f").kind,
            InvocationKind::Collective);
}

TEST(SidlParser, CommentsAreSkipped) {
  auto pkg = sidl::parse_package(R"(
    package p { // trailing
      /* block
         comment */
      interface I { void f(); }
    }
  )");
  EXPECT_EQ(pkg.interfaces.size(), 1u);
}

TEST(SidlParser, AllScalarTypes) {
  auto pkg = sidl::parse_package(R"(
    package p { interface I {
      void f(in bool a, in int b, in long c, in float d, in double e,
             in string s);
    } }
  )");
  const auto& m = pkg.interface("I").method("f");
  EXPECT_EQ(m.params[0].type.kind, TypeKind::Bool);
  EXPECT_EQ(m.params[1].type.kind, TypeKind::Int);
  EXPECT_EQ(m.params[2].type.kind, TypeKind::Long);
  EXPECT_EQ(m.params[3].type.kind, TypeKind::Float);
  EXPECT_EQ(m.params[4].type.kind, TypeKind::Double);
  EXPECT_EQ(m.params[5].type.kind, TypeKind::String);
}

TEST(SidlParser, OnewayMustReturnVoid) {
  EXPECT_THROW(sidl::parse_package(
                   "package p { interface I { oneway int f(); } }"),
               sidl::ParseError);
}

TEST(SidlParser, OnewayMayNotHaveOutParams) {
  EXPECT_THROW(
      sidl::parse_package(
          "package p { interface I { oneway void f(out int x); } }"),
      sidl::ParseError);
}

TEST(SidlParser, IndependentMayNotTakeParallelArgs) {
  EXPECT_THROW(sidl::parse_package(R"(
    package p { interface I {
      independent void f(in parallel array<double,1> x);
    } }
  )"),
               sidl::ParseError);
}

TEST(SidlParser, ParallelOnlyOnArrays) {
  EXPECT_THROW(
      sidl::parse_package(
          "package p { interface I { void f(in parallel int x); } }"),
      sidl::ParseError);
}

TEST(SidlParser, DuplicateMethodRejected) {
  EXPECT_THROW(sidl::parse_package(
                   "package p { interface I { void f(); void f(); } }"),
               sidl::ParseError);
}

TEST(SidlParser, BadArrayDimRejected) {
  EXPECT_THROW(sidl::parse_package(
                   "package p { interface I { void f(in array<double,0> x); "
                   "} }"),
               sidl::ParseError);
  EXPECT_THROW(sidl::parse_package(
                   "package p { interface I { void f(in array<double,9> x); "
                   "} }"),
               sidl::ParseError);
  EXPECT_THROW(sidl::parse_package(
                   "package p { interface I { void f(in array<string,1> x); "
                   "} }"),
               sidl::ParseError);
}

TEST(SidlParser, ErrorsCarryLineNumbers) {
  try {
    sidl::parse_package("package p {\n interface I {\n bogus f();\n } }");
    FAIL() << "expected ParseError";
  } catch (const sidl::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(SidlParser, UnterminatedCommentRejected) {
  EXPECT_THROW(sidl::parse_package("package p { /* oops"),
               sidl::ParseError);
}

TEST(SidlParser, TrailingGarbageRejected) {
  EXPECT_THROW(sidl::parse_package("package p { } extra"),
               sidl::ParseError);
}

TEST(SidlParser, TypeToStringRoundsTrip) {
  auto pkg = sidl::parse_package(R"(
    package p { interface I {
      void f(in parallel array<double,2> x);
    } }
  )");
  EXPECT_EQ(pkg.interface("I").method("f").params[0].type.to_string(),
            "parallel array<double,2>");
}

// A value variant without float alternatives, like DCA's.
using NoFloat = std::variant<std::monostate, bool, std::int32_t, double,
                             std::string, std::vector<double>>;

TEST(SidlMarshal, RoundTripsEverySupportedAlternative) {
  const std::vector<std::pair<sidl::TypeRef, NoFloat>> cases = {
      {{.kind = TypeKind::Bool}, true},
      {{.kind = TypeKind::Int}, std::int32_t(-7)},
      {{.kind = TypeKind::Double}, 2.5},
      {{.kind = TypeKind::String}, std::string("flux")},
      {{.kind = TypeKind::Array, .elem = TypeKind::Double, .array_ndim = 1},
       std::vector<double>{1.0, 2.0}},
  };
  for (const auto& [t, v] : cases) {
    mxn::rt::PackBuffer b;
    sidl::pack_value(b, v, t);
    const auto bytes = std::move(b).take();
    mxn::rt::UnpackBuffer u(bytes);
    EXPECT_EQ(sidl::unpack_value<NoFloat>(u, t), v) << t.to_string();
    EXPECT_TRUE(u.empty());
  }
}

TEST(SidlMarshal, RejectsMistypedUnsupportedAndCorruptValues) {
  const sidl::TypeRef dbl{.kind = TypeKind::Double};
  const sidl::TypeRef flt{.kind = TypeKind::Float};
  mxn::rt::PackBuffer b;
  EXPECT_THROW(sidl::pack_value(b, NoFloat{std::int32_t(3)}, dbl),
               sidl::TypeMismatch);
  EXPECT_FALSE(sidl::conforms(NoFloat{2.5}, flt));
  const auto four = mxn::rt::to_bytes(1.0f);
  mxn::rt::UnpackBuffer f(four);
  EXPECT_THROW((void)sidl::unpack_value<NoFloat>(f, flt), sidl::TypeMismatch);
  // Only 0 and 1 are bools on the wire.
  const auto two = mxn::rt::to_bytes(std::uint8_t{2});
  mxn::rt::UnpackBuffer u(two);
  EXPECT_THROW((void)sidl::unpack_value<NoFloat>(u, {.kind = TypeKind::Bool}),
               mxn::rt::UsageError);
}
