#include "sidl/parser.hpp"

#include <cctype>
#include <charconv>
#include <optional>
#include <vector>

namespace mxn::sidl {

namespace {

struct Token {
  enum Kind { Ident, Number, Punct, End } kind = End;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) { advance(); }

  [[nodiscard]] const Token& peek() const { return tok_; }

  Token take() {
    Token t = tok_;
    advance();
    return t;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(tok_.line ? tok_.line : line_, what);
  }

 private:
  void advance() {
    skip_ws_and_comments();
    tok_ = Token{};
    tok_.line = line_;
    if (pos_ >= src_.size()) {
      tok_.kind = Token::End;
      return;
    }
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      tok_.kind = Token::Ident;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_' || src_[pos_] == '.')) {
        tok_.text += src_[pos_++];
      }
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      tok_.kind = Token::Number;
      while (pos_ < src_.size() &&
             (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '.')) {
        tok_.text += src_[pos_++];
      }
      return;
    }
    tok_.kind = Token::Punct;
    tok_.text = std::string(1, c);
    ++pos_;
  }

  void skip_ws_and_comments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() &&
                 src_[pos_ + 1] == '/') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else if (c == '/' && pos_ + 1 < src_.size() &&
                 src_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < src_.size() &&
               !(src_[pos_] == '*' && src_[pos_ + 1] == '/')) {
          if (src_[pos_] == '\n') ++line_;
          ++pos_;
        }
        if (pos_ + 1 >= src_.size())
          throw ParseError(line_, "unterminated block comment");
        pos_ += 2;
      } else {
        return;
      }
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token tok_;
};

class Parser {
 public:
  explicit Parser(const std::string& src) : lex_(src) {}

  Package parse() {
    expect_ident("package");
    Package pkg;
    pkg.name = expect(Token::Ident, "package name").text;
    if (peek_is_ident("version")) {
      lex_.take();
      const Token v = lex_.take();
      if (v.kind != Token::Number && v.kind != Token::Ident)
        lex_.fail("expected version");
      pkg.version = v.text;
    }
    expect_punct("{");
    while (!peek_is_punct("}")) {
      if (lex_.peek().kind == Token::End) lex_.fail("unexpected end of input");
      pkg.interfaces.push_back(parse_interface(pkg.name));
    }
    expect_punct("}");
    if (lex_.peek().kind != Token::End)
      lex_.fail("trailing input after package");
    return pkg;
  }

 private:
  Interface parse_interface(const std::string& pkg) {
    expect_ident("interface");
    Interface iface;
    iface.name = expect(Token::Ident, "interface name").text;
    iface.qualified = pkg + "." + iface.name;
    expect_punct("{");
    while (!peek_is_punct("}")) {
      if (lex_.peek().kind == Token::End) lex_.fail("unexpected end of input");
      iface.methods.push_back(parse_method());
    }
    expect_punct("}");
    for (std::size_t i = 0; i < iface.methods.size(); ++i)
      for (std::size_t j = i + 1; j < iface.methods.size(); ++j)
        if (iface.methods[i].name == iface.methods[j].name)
          lex_.fail("duplicate method '" + iface.methods[i].name +
                    "' (overloading is not supported)");
    return iface;
  }

  Method parse_method() {
    Method m;
    if (peek_is_ident("collective")) {
      lex_.take();
      m.kind = InvocationKind::Collective;
    } else if (peek_is_ident("independent")) {
      lex_.take();
      m.kind = InvocationKind::Independent;
    }
    if (peek_is_ident("oneway")) {
      lex_.take();
      m.oneway = true;
    }
    m.ret = parse_type();
    m.name = expect(Token::Ident, "method name").text;
    expect_punct("(");
    if (!peek_is_punct(")")) {
      m.params.push_back(parse_param());
      while (peek_is_punct(",")) {
        lex_.take();
        m.params.push_back(parse_param());
      }
    }
    expect_punct(")");
    expect_punct(";");

    if (m.oneway) {
      if (m.ret.kind != TypeKind::Void)
        lex_.fail("oneway method '" + m.name + "' must return void");
      for (const auto& p : m.params)
        if (p.mode != Mode::In)
          lex_.fail("oneway method '" + m.name +
                    "' may not have out/inout parameters");
    }
    if (m.ret.parallel)
      lex_.fail("method '" + m.name +
                "' may not return a parallel array; use an out parameter");
    if (m.kind == InvocationKind::Independent) {
      for (const auto& p : m.params)
        if (p.type.parallel)
          lex_.fail("independent method '" + m.name +
                    "' may not take parallel arguments");
      if (m.ret.parallel)
        lex_.fail("independent method '" + m.name +
                  "' may not return a parallel array");
    }
    return m;
  }

  Param parse_param() {
    Param p;
    if (peek_is_ident("in"))
      p.mode = Mode::In;
    else if (peek_is_ident("out"))
      p.mode = Mode::Out;
    else if (peek_is_ident("inout"))
      p.mode = Mode::InOut;
    else
      lex_.fail("expected parameter mode (in/out/inout)");
    lex_.take();
    p.type = parse_type();
    p.name = expect(Token::Ident, "parameter name").text;
    return p;
  }

  TypeRef parse_type() {
    TypeRef t;
    if (peek_is_ident("parallel")) {
      lex_.take();
      t.parallel = true;
    }
    const Token name = expect(Token::Ident, "type name");
    if (name.text == "void")
      t.kind = TypeKind::Void;
    else if (name.text == "bool")
      t.kind = TypeKind::Bool;
    else if (name.text == "int")
      t.kind = TypeKind::Int;
    else if (name.text == "long")
      t.kind = TypeKind::Long;
    else if (name.text == "float")
      t.kind = TypeKind::Float;
    else if (name.text == "double")
      t.kind = TypeKind::Double;
    else if (name.text == "string")
      t.kind = TypeKind::String;
    else if (name.text == "array") {
      t.kind = TypeKind::Array;
      expect_punct("<");
      const Token elem = expect(Token::Ident, "array element type");
      if (elem.text == "int")
        t.elem = TypeKind::Int;
      else if (elem.text == "long")
        t.elem = TypeKind::Long;
      else if (elem.text == "float")
        t.elem = TypeKind::Float;
      else if (elem.text == "double")
        t.elem = TypeKind::Double;
      else
        lex_.fail("unsupported array element type '" + elem.text + "'");
      expect_punct(",");
      const Token n = expect(Token::Number, "array dimensionality");
      const char* end = n.text.data() + n.text.size();
      const auto [used, ec] = std::from_chars(n.text.data(), end, t.array_ndim);
      if (ec != std::errc{} || used != end || t.array_ndim < 1 ||
          t.array_ndim > 4)
        lex_.fail("array dimensionality must be 1..4");
      expect_punct(">");
    } else {
      lex_.fail("unknown type '" + name.text + "'");
    }
    if (t.parallel && t.kind != TypeKind::Array)
      lex_.fail("'parallel' applies only to array types");
    return t;
  }

  Token expect(Token::Kind kind, const std::string& what) {
    if (lex_.peek().kind != kind)
      lex_.fail("expected " + what + ", got '" + lex_.peek().text + "'");
    return lex_.take();
  }

  void expect_ident(const std::string& word) {
    if (!peek_is_ident(word))
      lex_.fail("expected '" + word + "', got '" + lex_.peek().text + "'");
    lex_.take();
  }

  void expect_punct(const std::string& p) {
    if (!peek_is_punct(p))
      lex_.fail("expected '" + p + "', got '" + lex_.peek().text + "'");
    lex_.take();
  }

  [[nodiscard]] bool peek_is_ident(const std::string& word) const {
    return lex_.peek().kind == Token::Ident && lex_.peek().text == word;
  }
  [[nodiscard]] bool peek_is_punct(const std::string& p) const {
    return lex_.peek().kind == Token::Punct && lex_.peek().text == p;
  }

  Lexer lex_;
};

}  // namespace

Package parse_package(const std::string& source) {
  return Parser(source).parse();
}

}  // namespace mxn::sidl
