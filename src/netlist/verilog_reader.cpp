#include "netlist/verilog_reader.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netlist/expr_synth.hpp"
#include "netlist/techlib.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {

// --- lexing -----------------------------------------------------------------

struct Token {
  enum class Kind { Ident, Literal, Punct, End };
  Kind kind = Kind::End;
  std::string text;
  int line = 0;
};

[[noreturn]] void fail_at(const std::string& filename, int line, const std::string& message) {
  throw Error(filename + ":" + std::to_string(line) + ": " + message);
}

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

std::vector<Token> tokenize(const std::string& text, const std::string& filename) {
  std::vector<Token> tokens;
  std::size_t pos = 0;
  int line = 1;
  while (pos < text.size()) {
    const char c = text[pos];
    if (c == '\n') {
      ++line;
      ++pos;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (c == '/' && pos + 1 < text.size() && text[pos + 1] == '/') {
      while (pos < text.size() && text[pos] != '\n') {
        ++pos;
      }
      continue;
    }
    if (c == '/' && pos + 1 < text.size() && text[pos + 1] == '*') {
      const int start_line = line;
      pos += 2;
      while (pos + 1 < text.size() && !(text[pos] == '*' && text[pos + 1] == '/')) {
        if (text[pos] == '\n') {
          ++line;
        }
        ++pos;
      }
      if (pos + 1 >= text.size()) {
        fail_at(filename, start_line, "unterminated block comment");
      }
      pos += 2;
      continue;
    }
    if (c == '\\') {
      fail_at(filename, line, "escaped identifiers (\\name) are unsupported");
    }
    if (ident_start(c)) {
      std::size_t end = pos;
      while (end < text.size() && ident_char(text[end])) {
        ++end;
      }
      tokens.push_back({Token::Kind::Ident, text.substr(pos, end - pos), line});
      pos = end;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Decimal digits, optionally a based literal tail: 1'b0, 4'hF, ...
      std::size_t end = pos;
      while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      if (end < text.size() && text[end] == '\'') {
        ++end;
        if (end < text.size() && std::isalpha(static_cast<unsigned char>(text[end]))) {
          ++end;
        }
        while (end < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[end])) || text[end] == '_')) {
          ++end;
        }
      }
      tokens.push_back({Token::Kind::Literal, text.substr(pos, end - pos), line});
      pos = end;
      continue;
    }
    // Two-character operators first (the expression subset plus the common
    // unsupported ones, so they reach the parser as one token and earn a
    // targeted diagnostic instead of a lex error).
    static const char* kTwoCharOps[] = {"==", "!=", "<<", ">>", "&&", "||", "<=", ">="};
    if (pos + 1 < text.size()) {
      const std::string pair = text.substr(pos, 2);
      bool matched = false;
      for (const char* op : kTwoCharOps) {
        if (pair == op) {
          tokens.push_back({Token::Kind::Punct, pair, line});
          pos += 2;
          matched = true;
          break;
        }
      }
      if (matched) {
        continue;
      }
    }
    const std::string punct = "(),;.=#[]:~&|^?{}<>!+-*/%";
    if (punct.find(c) != std::string::npos) {
      tokens.push_back({Token::Kind::Punct, std::string(1, c), line});
      ++pos;
      continue;
    }
    fail_at(filename, line, std::string("unexpected character '") + c + "'");
  }
  tokens.push_back({Token::Kind::End, "", line});
  return tokens;
}

// --- parsing ----------------------------------------------------------------

/// One pin/net connection of an instantiation, before name resolution.
struct Connection {
  std::string pin;   ///< empty for positional connections
  std::string net;   ///< identifier, or empty when constant >= 0
  int constant = -1; ///< 0 / 1 for 1'b0 / 1'b1 connections
  int index = -1;    ///< bus bit select (net[index]), -1 for scalar refs
  int line = 0;
};

struct Instance {
  std::string type_name;
  std::string name;  ///< optional instance name
  std::vector<Connection> connections;
  bool named = false;  ///< named (.pin(net)) vs positional connections
  int line = 0;
};

enum class DeclKind { Input, Output, Wire };

struct Declaration {
  std::string name;
  DeclKind kind;
  int line;
  bool vector = false;  ///< declared with a [msb:lsb] range
  int msb = 0;
  int lsb = 0;
};

/// One target of an `assign`, before name resolution: a whole signal, a bit
/// select, or a part select. msb < 0 means the whole signal.
struct LValueRef {
  std::string name;
  int msb = -1;
  int lsb = -1;
  int line = 0;
};

struct AssignStmt {
  std::vector<LValueRef> lhs;  ///< MSB-first as written ({a, b} puts a high)
  NetExpr rhs;
  int line = 0;
};

/// Recursive-descent parser over the token stream; collects declarations and
/// instances first, then builds the Netlist so that declaration order in the
/// file does not matter (standard Verilog allows use-before-declare).
class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string filename)
      : tokens_(std::move(tokens)), filename_(std::move(filename)) {}

  Netlist parse() {
    parse_module();
    return build();
  }

 private:
  const Token& peek() const { return tokens_[index_]; }
  Token advance() { return tokens_[index_++]; }

  [[noreturn]] void fail(int line, const std::string& message) const {
    fail_at(filename_, line, message);
  }

  Token expect_ident(const std::string& what) {
    if (peek().kind != Token::Kind::Ident) {
      fail(peek().line, "expected " + what + ", got '" + describe(peek()) + "'");
    }
    return advance();
  }

  bool at_punct(char c) const {
    return peek().kind == Token::Kind::Punct && peek().text.size() == 1 &&
           peek().text[0] == c;
  }

  void expect_punct(char c, const std::string& context) {
    if (!at_punct(c)) {
      fail(peek().line, "expected '" + std::string(1, c) + "' " + context + ", got '" +
                            describe(peek()) + "'");
    }
    advance();
  }

  bool accept_punct(char c) {
    if (at_punct(c)) {
      advance();
      return true;
    }
    return false;
  }

  bool accept_op(const char* op) {
    if (peek().kind == Token::Kind::Punct && peek().text == op) {
      advance();
      return true;
    }
    return false;
  }

  int expect_number(const std::string& what) {
    if (peek().kind != Token::Kind::Literal) {
      fail(peek().line, "expected " + what + ", got '" + describe(peek()) + "'");
    }
    const Token tok = advance();
    for (const char c : tok.text) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        fail(tok.line, "expected a plain decimal number for " + what + ", got '" +
                           tok.text + "'");
      }
    }
    if (tok.text.size() > 7) {
      fail(tok.line, "number '" + tok.text + "' is implausibly large for " + what);
    }
    return std::stoi(tok.text);
  }

  static std::string describe(const Token& token) {
    return token.kind == Token::Kind::End ? "end of file" : token.text;
  }

  void parse_module() {
    const Token keyword = expect_ident("'module'");
    if (keyword.text != "module") {
      fail(keyword.line, "expected 'module', got '" + keyword.text + "'");
    }
    module_line_ = keyword.line;
    module_name_ = expect_ident("module name").text;
    if (accept_punct('(')) {
      if (!accept_punct(')')) {
        while (true) {
          const Token port = expect_ident("port name in module header");
          if (port.text == "input" || port.text == "output" || port.text == "wire" ||
              port.text == "reg") {
            fail(port.line,
                 "ANSI-style port declarations are unsupported — list plain port "
                 "names in the header and declare directions in the module body");
          }
          header_ports_.emplace_back(port.text, port.line);
          if (accept_punct(')')) {
            break;
          }
          expect_punct(',', "between header ports");
        }
      }
    }
    expect_punct(';', "after the module header");

    while (true) {
      const Token item = expect_ident("a declaration, an instantiation or 'endmodule'");
      if (item.text == "endmodule") {
        break;
      }
      if (item.text == "input" || item.text == "output" || item.text == "wire") {
        parse_declaration(item);
      } else if (item.text == "assign") {
        parse_assign(item);
      } else if (item.text == "reg" || item.text == "always" || item.text == "initial" ||
                 item.text == "parameter" || item.text == "specify" ||
                 item.text == "supply0" || item.text == "supply1" ||
                 item.text == "tri" || item.text == "integer" || item.text == "function" ||
                 item.text == "task" || item.text == "generate") {
        fail(item.line, "'" + item.text +
                            "' is unsupported — only the structural gate-level "
                            "subset is accepted (see docs/verilog-frontend.md)");
      } else {
        parse_instantiation(item);
      }
    }
    if (peek().kind != Token::Kind::End) {
      if (peek().kind == Token::Kind::Ident && peek().text == "module") {
        fail(peek().line, "multiple modules per file are unsupported");
      }
      fail(peek().line, "unexpected '" + describe(peek()) + "' after endmodule");
    }
  }

  void parse_declaration(const Token& keyword) {
    const DeclKind kind = keyword.text == "input"    ? DeclKind::Input
                          : keyword.text == "output" ? DeclKind::Output
                                                     : DeclKind::Wire;
    Declaration proto;
    proto.kind = kind;
    if (accept_punct('[')) {
      const int range_line = peek().line;
      proto.msb = expect_number("the bus msb");
      expect_punct(':', "in the [msb:lsb] range");
      proto.lsb = expect_number("the bus lsb");
      expect_punct(']', "after the bus range");
      if (proto.msb < proto.lsb) {
        fail(range_line, "ascending bit range [" + std::to_string(proto.msb) + ":" +
                             std::to_string(proto.lsb) +
                             "] is unsupported — declare [msb:lsb] with msb >= lsb");
      }
      proto.vector = true;
    }
    while (true) {
      const Token name = expect_ident("net name in " + keyword.text + " declaration");
      Declaration decl = proto;
      decl.name = name.text;
      decl.line = name.line;
      declarations_.push_back(std::move(decl));
      if (accept_punct(';')) {
        break;
      }
      expect_punct(',', "between declared nets");
    }
  }

  Connection parse_net_ref(const std::string& context) {
    Connection conn;
    conn.line = peek().line;
    if (peek().kind == Token::Kind::Literal) {
      const Token literal = advance();
      if (literal.text == "1'b0" || literal.text == "1'B0") {
        conn.constant = 0;
      } else if (literal.text == "1'b1" || literal.text == "1'B1") {
        conn.constant = 1;
      } else {
        fail(literal.line, "unsupported literal '" + literal.text +
                               "' — only the 1'b0 / 1'b1 constants are accepted");
      }
      return conn;
    }
    conn.net = expect_ident("net name " + context).text;
    if (accept_punct('[')) {
      conn.index = expect_number("the bit index");
      expect_punct(']', "after the bit index");
    }
    return conn;
  }

  void parse_instantiation(const Token& type_token) {
    while (true) {
      Instance inst;
      inst.type_name = type_token.text;
      inst.line = type_token.line;
      if (peek().kind == Token::Kind::Ident) {
        inst.name = advance().text;
      }
      expect_punct('(', "to open the connection list");
      if (accept_punct(')')) {
        fail(type_token.line, "instance of '" + inst.type_name + "' has no connections");
      }
      inst.named = peek().kind == Token::Kind::Punct && peek().text[0] == '.';
      while (true) {
        if (inst.named) {
          expect_punct('.', "before a pin name");
          Connection conn;
          const Token pin = expect_ident("pin name after '.'");
          conn.pin = pin.text;
          conn.line = pin.line;
          expect_punct('(', "after pin name");
          if (peek().kind == Token::Kind::Punct && peek().text[0] == ')') {
            fail(pin.line, "pin ." + conn.pin + " is unconnected — every listed pin "
                               "must name a net");
          }
          const Connection ref = parse_net_ref("inside .(...)");
          conn.net = ref.net;
          conn.constant = ref.constant;
          conn.index = ref.index;
          expect_punct(')', "after the pin's net");
          inst.connections.push_back(std::move(conn));
        } else {
          inst.connections.push_back(parse_net_ref("in the connection list"));
        }
        if (accept_punct(')')) {
          break;
        }
        expect_punct(',', "between connections");
      }
      instances_.push_back(std::move(inst));
      if (accept_punct(';')) {
        break;
      }
      expect_punct(',', "between instances (or ';' to end the statement)");
    }
  }

  // --- assign statements and the expression subset ---------------------------

  LValueRef parse_lvalue_ref() {
    LValueRef ref;
    const Token name = expect_ident("a net name on the left of the assign");
    ref.name = name.text;
    ref.line = name.line;
    if (accept_punct('[')) {
      ref.msb = expect_number("the bit index");
      ref.lsb = accept_punct(':') ? expect_number("the part-select lsb") : ref.msb;
      expect_punct(']', "after the select");
    }
    return ref;
  }

  void parse_assign(const Token& keyword) {
    AssignStmt stmt;
    stmt.line = keyword.line;
    if (accept_punct('{')) {
      while (true) {
        stmt.lhs.push_back(parse_lvalue_ref());
        if (accept_punct('}')) {
          break;
        }
        expect_punct(',', "between concatenated assign targets");
      }
    } else {
      stmt.lhs.push_back(parse_lvalue_ref());
    }
    expect_punct('=', "in the assign statement");
    stmt.rhs = parse_expression();
    expect_punct(';', "after the assign statement");
    assigns_.push_back(std::move(stmt));
  }

  /// Operators that exist in Verilog but are outside the synthesizable
  /// subset get a targeted diagnostic instead of a generic parse error.
  void reject_unsupported_op() {
    static const char* kUnsupported[] = {"+",  "-",  "*",  "/", "%", "<",
                                         ">",  "<=", ">=", "&&", "||", "!"};
    if (peek().kind != Token::Kind::Punct) {
      return;
    }
    for (const char* op : kUnsupported) {
      if (peek().text == op) {
        fail(peek().line,
             "operator '" + peek().text +
                 "' is unsupported — the synthesizable expression subset is "
                 "~ & | ^ ?: == != << >> and {concatenation} "
                 "(see docs/verilog-frontend.md)");
      }
    }
  }

  // Precedence (loosest to tightest), matching Verilog for the subset:
  // ?:  <  |  <  ^  <  &  <  == !=  <  << >>  <  ~  <  primary.
  NetExpr parse_expression() { return parse_ternary(); }

  NetExpr parse_ternary() {
    NetExpr cond = parse_or();
    if (at_punct('?')) {
      const int line = advance().line;
      NetExpr then_arm = parse_expression();
      expect_punct(':', "in the '?:' expression");
      NetExpr else_arm = parse_ternary();
      NetExpr mux;
      mux.kind = NetExpr::Kind::Mux;
      mux.line = line;
      mux.args.push_back(std::move(cond));
      mux.args.push_back(std::move(then_arm));
      mux.args.push_back(std::move(else_arm));
      return mux;
    }
    return cond;
  }

  NetExpr binary_node(NetExpr::Kind kind, int line, NetExpr lhs, NetExpr rhs) {
    NetExpr node;
    node.kind = kind;
    node.line = line;
    node.args.push_back(std::move(lhs));
    node.args.push_back(std::move(rhs));
    return node;
  }

  NetExpr parse_or() {
    NetExpr lhs = parse_xor();
    while (true) {
      reject_unsupported_op();
      if (!at_punct('|')) {
        return lhs;
      }
      const int line = advance().line;
      lhs = binary_node(NetExpr::Kind::Or, line, std::move(lhs), parse_xor());
    }
  }

  NetExpr parse_xor() {
    NetExpr lhs = parse_and();
    while (at_punct('^')) {
      const int line = advance().line;
      lhs = binary_node(NetExpr::Kind::Xor, line, std::move(lhs), parse_and());
    }
    return lhs;
  }

  NetExpr parse_and() {
    NetExpr lhs = parse_equality();
    while (at_punct('&')) {
      const int line = advance().line;
      lhs = binary_node(NetExpr::Kind::And, line, std::move(lhs), parse_equality());
    }
    return lhs;
  }

  NetExpr parse_equality() {
    NetExpr lhs = parse_shift();
    while (peek().kind == Token::Kind::Punct &&
           (peek().text == "==" || peek().text == "!=")) {
      const Token op = advance();
      lhs = binary_node(op.text == "==" ? NetExpr::Kind::Eq : NetExpr::Kind::Ne,
                        op.line, std::move(lhs), parse_shift());
    }
    return lhs;
  }

  NetExpr parse_shift() {
    NetExpr lhs = parse_unary();
    while (peek().kind == Token::Kind::Punct &&
           (peek().text == "<<" || peek().text == ">>")) {
      const Token op = advance();
      NetExpr node;
      node.kind = op.text == "<<" ? NetExpr::Kind::Shl : NetExpr::Kind::Shr;
      node.line = op.line;
      if (peek().kind != Token::Kind::Literal) {
        fail(peek().line, "shift amount must be a constant — variable shifts are "
                          "unsupported (build the mux stages explicitly)");
      }
      node.amount = static_cast<std::uint64_t>(expect_number("the shift amount"));
      node.args.push_back(std::move(lhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  NetExpr parse_unary() {
    reject_unsupported_op();
    if (at_punct('~')) {
      const int line = advance().line;
      NetExpr node;
      node.kind = NetExpr::Kind::Not;
      node.line = line;
      node.args.push_back(parse_unary());
      return node;
    }
    return parse_primary();
  }

  NetExpr parse_primary() {
    if (accept_punct('(')) {
      NetExpr inner = parse_expression();
      expect_punct(')', "to close the parenthesized expression");
      return inner;
    }
    if (at_punct('{')) {
      NetExpr node;
      node.kind = NetExpr::Kind::Concat;
      node.line = advance().line;
      while (true) {
        node.args.push_back(parse_expression());
        if (accept_punct('}')) {
          return node;
        }
        expect_punct(',', "between concatenation operands");
      }
    }
    if (peek().kind == Token::Kind::Literal) {
      return parse_sized_literal(advance());
    }
    const Token name = expect_ident("an operand (net, literal, '(' or '{')");
    NetExpr ref;
    ref.kind = NetExpr::Kind::Ref;
    ref.name = name.text;
    ref.line = name.line;
    if (accept_punct('[')) {
      ref.sel_msb = expect_number("the bit index");
      ref.sel_lsb = accept_punct(':') ? expect_number("the part-select lsb") : ref.sel_msb;
      expect_punct(']', "after the select");
    }
    return ref;
  }

  NetExpr parse_sized_literal(const Token& tok) {
    std::string text;
    for (const char c : tok.text) {
      if (c != '_') {
        text.push_back(c);
      }
    }
    const std::size_t tick = text.find('\'');
    if (tick == std::string::npos) {
      fail(tok.line, "unsized literal '" + tok.text +
                         "' — size it as <width>'b/<width>'h/<width>'d so "
                         "bit-blasting has a width");
    }
    const int width = std::stoi(text.substr(0, tick));
    if (width < 1 || width > 64) {
      fail(tok.line, "literal width " + std::to_string(width) + " is out of the "
                         "supported 1..64 range");
    }
    if (tick + 1 >= text.size()) {
      fail(tok.line, "malformed literal '" + tok.text + "'");
    }
    const char base = static_cast<char>(
        std::tolower(static_cast<unsigned char>(text[tick + 1])));
    const std::string digits = text.substr(tick + 2);
    if (digits.empty()) {
      fail(tok.line, "malformed literal '" + tok.text + "' — no digits after the base");
    }
    std::uint64_t value = 0;
    for (const char raw : digits) {
      const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(raw)));
      int digit = -1;
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = 10 + (c - 'a');
      }
      if (c == 'x' || c == 'z') {
        fail(tok.line, "x/z digits in '" + tok.text +
                           "' are unsupported — the subset is two-valued");
      }
      switch (base) {
        case 'b':
          if (digit < 0 || digit > 1) {
            fail(tok.line, "bad binary digit in '" + tok.text + "'");
          }
          value = (value << 1) | static_cast<std::uint64_t>(digit);
          break;
        case 'h':
          if (digit < 0) {
            fail(tok.line, "bad hex digit in '" + tok.text + "'");
          }
          value = (value << 4) | static_cast<std::uint64_t>(digit);
          break;
        case 'd':
          if (digit < 0 || digit > 9) {
            fail(tok.line, "bad decimal digit in '" + tok.text + "'");
          }
          value = value * 10 + static_cast<std::uint64_t>(digit);
          break;
        default:
          fail(tok.line, "unsupported literal base '" + std::string(1, base) +
                             "' — use 'b, 'h or 'd");
      }
    }
    NetExpr node;
    node.kind = NetExpr::Kind::Const;
    node.line = tok.line;
    node.bits.resize(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      node.bits[static_cast<std::size_t>(i)] = ((value >> i) & 1) != 0;
    }
    return node;
  }

  // --- netlist construction -------------------------------------------------

  /// Per-bit bookkeeping: buses are bit-blasted at declaration time, so
  /// drivers and reads are tracked at the bit level (a bus may mix assign-
  /// and instance-driven bits).
  struct BitRecord {
    NetId net = kNullNet;
    int driver_line = -1;  ///< line of the driver, -1 if undriven
    int first_read_line = -1;
  };

  struct NetRecord {
    DeclKind kind = DeclKind::Wire;
    int decl_line = 0;
    bool vector = false;
    int msb = 0;
    int lsb = 0;
    std::vector<BitRecord> bits;  ///< LSB-first; scalars have exactly one
  };

  /// Display name of one bit: `name` for scalars, `name[v]` for bus bits.
  static std::string bit_label(const std::string& name, const NetRecord& record,
                               std::size_t bit) {
    return record.vector
               ? name + "[" + std::to_string(record.lsb + static_cast<int>(bit)) + "]"
               : name;
  }

  NetRecord& resolve(const std::string& name, int line) {
    const auto it = nets_.find(name);
    if (it == nets_.end()) {
      fail(line, "undeclared net '" + name + "' — declare it with `wire " + name +
                     ";` (or as a port)");
    }
    return it->second;
  }

  /// Resolve a scalar bit reference: a plain name for scalar nets, or
  /// name[index] for one bit of a bus. Connection lists are scalar contexts.
  BitRecord& select_bit(NetRecord& record, const std::string& name, int index, int line) {
    if (index < 0) {
      if (record.vector) {
        fail(line, "'" + name + "' is a " + std::to_string(record.bits.size()) +
                       "-bit bus — select one bit (" + name + "[i]) in this context");
      }
      return record.bits[0];
    }
    if (!record.vector) {
      fail(line, "'" + name + "' is a scalar net — bit select " + name + "[" +
                     std::to_string(index) + "] is invalid");
    }
    if (index < record.lsb || index > record.msb) {
      fail(line, "bit select " + name + "[" + std::to_string(index) +
                     "] is out of range [" + std::to_string(record.msb) + ":" +
                     std::to_string(record.lsb) + "]");
    }
    return record.bits[static_cast<std::size_t>(index - record.lsb)];
  }

  /// ExprSynth resolver: a whole-signal, bit-select or part-select read in
  /// an assign expression, returned LSB-first with read lines recorded.
  std::vector<NetId> resolve_expr_ref(const std::string& name, int msb, int lsb,
                                      int line) {
    NetRecord& record = resolve(name, line);
    std::vector<NetId> out;
    const auto mark_read = [&](BitRecord& bit) {
      if (bit.first_read_line < 0) {
        bit.first_read_line = line;
      }
      out.push_back(bit.net);
    };
    if (msb < 0) {
      for (BitRecord& bit : record.bits) {
        mark_read(bit);
      }
      return out;
    }
    if (!record.vector) {
      fail(line, "'" + name + "' is a scalar net — bit select " + name + "[" +
                     std::to_string(msb) + "] is invalid");
    }
    if (msb < lsb) {
      fail(line, "part select [" + std::to_string(msb) + ":" + std::to_string(lsb) +
                     "] has msb < lsb");
    }
    if (lsb < record.lsb || msb > record.msb) {
      fail(line, "select " + name + "[" + std::to_string(msb) + ":" +
                     std::to_string(lsb) + "] is out of range [" +
                     std::to_string(record.msb) + ":" + std::to_string(record.lsb) +
                     "]");
    }
    for (int v = lsb; v <= msb; ++v) {
      mark_read(record.bits[static_cast<std::size_t>(v - record.lsb)]);
    }
    return out;
  }

  NetId read_net(Netlist& nl, const Connection& conn) {
    if (conn.constant >= 0) {
      NetId& cache = const_nets_[conn.constant];
      if (cache == kNullNet) {
        cache = nl.n_const(conn.constant == 1);
      }
      return cache;
    }
    NetRecord& record = resolve(conn.net, conn.line);
    BitRecord& bit = select_bit(record, conn.net, conn.index, conn.line);
    if (bit.first_read_line < 0) {
      bit.first_read_line = conn.line;
    }
    return bit.net;
  }

  NetId claim_output(const Connection& conn, const std::string& inst_label) {
    if (conn.constant >= 0) {
      fail(conn.line, "a constant cannot be an output connection (" + inst_label + ")");
    }
    NetRecord& record = resolve(conn.net, conn.line);
    if (record.kind == DeclKind::Input) {
      fail(conn.line, "gate output cannot drive input port '" + conn.net + "'");
    }
    BitRecord& bit = select_bit(record, conn.net, conn.index, conn.line);
    if (bit.driver_line >= 0) {
      const std::string label =
          conn.index >= 0 ? conn.net + "[" + std::to_string(conn.index) + "]" : conn.net;
      fail(conn.line, "net '" + label + "' is already driven (first driver at line " +
                          std::to_string(bit.driver_line) + ")");
    }
    bit.driver_line = conn.line;
    return bit.net;
  }

  /// Primitive gate table: the Verilog gate name, the 2-input fold cell and
  /// the cell of the final stage (they differ for the inverting gates:
  /// nand(a,b,c) = ~(a&b&c) folds with And2 and finishes with Nand2).
  struct Primitive {
    const char* name;
    CellType fold;
    CellType final;
    bool unary;
  };
  static const Primitive* primitive(const std::string& name) {
    static const Primitive table[] = {
        {"and", CellType::And2, CellType::And2, false},
        {"or", CellType::Or2, CellType::Or2, false},
        {"xor", CellType::Xor2, CellType::Xor2, false},
        {"nand", CellType::And2, CellType::Nand2, false},
        {"nor", CellType::Or2, CellType::Nor2, false},
        {"xnor", CellType::Xor2, CellType::Xnor2, false},
        {"not", CellType::Not, CellType::Not, true},
        {"buf", CellType::Buf, CellType::Buf, true},
    };
    for (const Primitive& p : table) {
      if (name == p.name) {
        return &p;
      }
    }
    return nullptr;
  }

  void build_primitive(Netlist& nl, const Instance& inst, const Primitive& prim) {
    if (inst.named) {
      fail(inst.line, "primitive gate '" + inst.type_name +
                          "' uses positional connections (output first), not "
                          "named pins");
    }
    const std::string label = inst.name.empty() ? inst.type_name : inst.name;
    if (prim.unary) {
      if (inst.connections.size() != 2) {
        fail(inst.line, "'" + inst.type_name + "' takes exactly (out, in); got " +
                            std::to_string(inst.connections.size()) + " connections");
      }
    } else if (inst.connections.size() < 3) {
      fail(inst.line, "'" + inst.type_name + "' needs an output and at least two "
                          "inputs; got " + std::to_string(inst.connections.size()) +
                          " connections");
    }
    const NetId out = claim_output(inst.connections[0], label);
    std::vector<NetId> inputs;
    for (std::size_t i = 1; i < inst.connections.size(); ++i) {
      inputs.push_back(read_net(nl, inst.connections[i]));
    }
    if (prim.unary) {
      nl.add_cell_bound(prim.final, {inputs[0]}, out, inst.name);
      return;
    }
    // Left-fold all but the last input with the non-inverting cell, then a
    // single final-stage cell onto the declared output net: Verilog's
    // reduction semantics for every arity, with inversion only at the end.
    NetId acc = inputs[0];
    for (std::size_t i = 1; i + 1 < inputs.size(); ++i) {
      acc = nl.cell(nl.add_cell(prim.fold, {acc, inputs[i]})).out;
    }
    nl.add_cell_bound(prim.final, {acc, inputs.back()}, out, inst.name);
  }

  void build_techlib(Netlist& nl, const Instance& inst, const TechCellSpec& spec) {
    if (!inst.named) {
      fail(inst.line, "techlib cell '" + inst.type_name +
                          "' needs named pin connections (." +
                          (spec.input_pins[0] ? spec.input_pins[0] : spec.output_pin) +
                          "(net), ...) — positional order is tool-specific");
    }
    const std::string label = inst.name.empty() ? inst.type_name : inst.name;
    const std::size_t fanin_count = cell_fanin_count(spec.type);
    std::vector<const Connection*> fanin(fanin_count, nullptr);
    const Connection* output = nullptr;
    for (const Connection& conn : inst.connections) {
      std::string pin;
      for (const char c : conn.pin) {
        pin.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
      }
      if (pin == spec.output_pin) {
        if (output != nullptr) {
          fail(conn.line, "pin ." + conn.pin + " connected twice on '" + label + "'");
        }
        output = &conn;
        continue;
      }
      if ((pin == "CK" || pin == "CLK") && cell_is_sequential(spec.type)) {
        // Every flop/latch shares the library's implicit global clock; the
        // pin is accepted (and the net must exist) but connects to nothing.
        read_net(nl, conn);
        continue;
      }
      bool matched = false;
      for (std::size_t i = 0; i < fanin_count; ++i) {
        if (pin == spec.input_pins[i]) {
          if (fanin[i] != nullptr) {
            fail(conn.line, "pin ." + conn.pin + " connected twice on '" + label + "'");
          }
          fanin[i] = &conn;
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::string expected = std::string(".") + spec.output_pin;
        for (std::size_t i = 0; i < fanin_count; ++i) {
          expected += std::string(" .") + spec.input_pins[i];
        }
        fail(conn.line, "cell '" + std::string(spec.name) + "' has no pin ." + conn.pin +
                            " (pins: " + expected + ")");
      }
    }
    if (output == nullptr) {
      fail(inst.line, "instance '" + label + "' of " + spec.name + " leaves output pin ." +
                          spec.output_pin + " unconnected");
    }
    std::vector<NetId> fanin_nets;
    for (std::size_t i = 0; i < fanin_count; ++i) {
      if (fanin[i] == nullptr) {
        fail(inst.line, "instance '" + label + "' of " + spec.name + " leaves input pin ." +
                            spec.input_pins[i] + " unconnected");
      }
      fanin_nets.push_back(read_net(nl, *fanin[i]));
    }
    const NetId out = claim_output(*output, label);
    nl.add_cell_bound(spec.type, std::move(fanin_nets), out, inst.name);
  }

  Netlist build() {
    Netlist nl(module_name_);

    std::unordered_set<std::string> header_names;
    for (const auto& [name, line] : header_ports_) {
      if (!header_names.insert(name).second) {
        fail(line, "port '" + name + "' listed twice in the module header");
      }
    }
    for (const Declaration& decl : declarations_) {
      if (nets_.contains(decl.name)) {
        fail(decl.line, "'" + decl.name + "' is declared twice (first at line " +
                            std::to_string(nets_.at(decl.name).decl_line) + ")");
      }
      if (decl.kind != DeclKind::Wire && !header_ports_.empty() &&
          !header_names.contains(decl.name)) {
        fail(decl.line, "port '" + decl.name + "' is missing from the module header");
      }
      NetRecord record;
      record.kind = decl.kind;
      record.decl_line = decl.line;
      record.vector = decl.vector;
      record.msb = decl.msb;
      record.lsb = decl.lsb;
      const int width = decl.vector ? decl.msb - decl.lsb + 1 : 1;
      record.bits.resize(static_cast<std::size_t>(width));
      for (int i = 0; i < width; ++i) {
        const std::string bit_name =
            decl.vector ? decl.name + "[" + std::to_string(decl.lsb + i) + "]"
                        : decl.name;
        BitRecord& bit = record.bits[static_cast<std::size_t>(i)];
        if (decl.kind == DeclKind::Input) {
          bit.net = nl.add_input(bit_name);
          bit.driver_line = decl.line;  // driven by the Input port cell
        } else {
          bit.net = nl.add_net(bit_name);
        }
      }
      nets_.emplace(decl.name, std::move(record));
    }
    for (const auto& [name, line] : header_ports_) {
      const auto it = nets_.find(name);
      if (it == nets_.end() || it->second.kind == DeclKind::Wire) {
        fail(line, "header port '" + name + "' has no input/output declaration");
      }
    }

    for (const Instance& inst : instances_) {
      if (const Primitive* prim = primitive(inst.type_name)) {
        build_primitive(nl, inst, *prim);
      } else if (const TechCellSpec* spec = techlib_cell(inst.type_name)) {
        build_techlib(nl, inst, *spec);
      } else {
        fail(inst.line,
             "unknown gate or cell '" + inst.type_name +
                 "' — supported: the and/or/nand/nor/xor/xnor/not/buf primitives "
                 "and the techlib cells (INVX1, NAND2X1, DFFX1, ... — see "
                 "docs/verilog-frontend.md for the full table)");
      }
    }

    // Continuous assigns: lower each right-hand side through the expression
    // synthesizer, then bind the result onto the (bit-blasted) targets with
    // buffers so bit-level driver bookkeeping stays uniform with instances.
    ExprSynth synth(
        nl,
        [this](const std::string& name, int msb, int lsb, int line) {
          return this->resolve_expr_ref(name, msb, lsb, line);
        },
        filename_);
    for (const AssignStmt& stmt : assigns_) {
      const std::vector<NetId> rhs = synth.lower(stmt.rhs);
      // Flatten the (MSB-first) target list into LSB-first bit records: the
      // last concat operand takes the low bits, matching Concat lowering.
      std::vector<std::pair<BitRecord*, std::string>> targets;
      for (auto it = stmt.lhs.rbegin(); it != stmt.lhs.rend(); ++it) {
        NetRecord& record = resolve(it->name, it->line);
        if (record.kind == DeclKind::Input) {
          fail(it->line, "assign cannot drive input port '" + it->name + "'");
        }
        int lo = record.lsb;
        int hi = record.msb;
        if (it->msb >= 0) {
          if (!record.vector) {
            fail(it->line, "'" + it->name + "' is a scalar net — bit select " +
                               it->name + "[" + std::to_string(it->msb) +
                               "] is invalid");
          }
          if (it->msb < it->lsb) {
            fail(it->line, "part select [" + std::to_string(it->msb) + ":" +
                               std::to_string(it->lsb) + "] has msb < lsb");
          }
          if (it->lsb < record.lsb || it->msb > record.msb) {
            fail(it->line, "select " + it->name + "[" + std::to_string(it->msb) +
                               ":" + std::to_string(it->lsb) + "] is out of range [" +
                               std::to_string(record.msb) + ":" +
                               std::to_string(record.lsb) + "]");
          }
          lo = it->lsb;
          hi = it->msb;
        }
        for (int v = lo; v <= hi; ++v) {
          BitRecord& bit = record.bits[static_cast<std::size_t>(v - record.lsb)];
          const std::string label =
              record.vector ? it->name + "[" + std::to_string(v) + "]" : it->name;
          targets.emplace_back(&bit, label);
        }
      }
      if (targets.size() != rhs.size()) {
        fail(stmt.line, "width mismatch: assign target is " +
                            std::to_string(targets.size()) +
                            " bits but the expression is " +
                            std::to_string(rhs.size()) + " bits");
      }
      for (std::size_t i = 0; i < targets.size(); ++i) {
        BitRecord& bit = *targets[i].first;
        if (bit.driver_line >= 0) {
          fail(stmt.line, "net '" + targets[i].second +
                              "' is already driven (first driver at line " +
                              std::to_string(bit.driver_line) + ")");
        }
        bit.driver_line = stmt.line;
        nl.add_cell_bound(CellType::Buf, {rhs[i]}, bit.net);
      }
    }

    // Structural soundness with source locations, so downstream consumers
    // (lint, compile, SimEngine) never see an unbuildable import.
    for (const Declaration& decl : declarations_) {
      const NetRecord& record = nets_.at(decl.name);
      for (std::size_t i = 0; i < record.bits.size(); ++i) {
        const BitRecord& bit = record.bits[i];
        if (record.kind == DeclKind::Output && bit.driver_line < 0) {
          fail(decl.line,
               "output port '" + bit_label(decl.name, record, i) + "' is never driven");
        }
        if (record.kind == DeclKind::Wire && bit.driver_line < 0 &&
            bit.first_read_line >= 0) {
          fail(bit.first_read_line, "wire '" + bit_label(decl.name, record, i) +
                                        "' is read here but never driven");
        }
      }
    }
    for (const Declaration& decl : declarations_) {
      if (decl.kind != DeclKind::Output) {
        continue;
      }
      const NetRecord& record = nets_.at(decl.name);
      for (std::size_t i = 0; i < record.bits.size(); ++i) {
        nl.add_output(bit_label(decl.name, record, i), record.bits[i].net);
      }
    }
    try {
      (void)nl.combinational_order();
    } catch (const Error&) {
      fail(module_line_, "combinational cycle detected in module '" + module_name_ +
                             "' — feedback must go through a flip-flop");
    }
    return nl;
  }

  std::vector<Token> tokens_;
  std::string filename_;
  std::size_t index_ = 0;

  int module_line_ = 1;
  std::string module_name_;
  std::vector<std::pair<std::string, int>> header_ports_;
  std::vector<Declaration> declarations_;
  std::vector<Instance> instances_;
  std::vector<AssignStmt> assigns_;
  std::unordered_map<std::string, NetRecord> nets_;
  NetId const_nets_[2] = {kNullNet, kNullNet};
};

}  // namespace

Netlist read_verilog_text(const std::string& text, const std::string& filename) {
  return Parser(tokenize(text, filename), filename).parse();
}

Netlist Netlist::from_verilog(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open Verilog file '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_verilog_text(buffer.str(), path);
}

// --- export -----------------------------------------------------------------

namespace {

bool verilog_ident(const std::string& name) {
  static const std::unordered_set<std::string> kKeywords = {
      "module", "endmodule", "input",  "output", "wire",   "assign", "and",
      "or",     "nand",      "nor",    "xor",    "xnor",   "not",    "buf",
      "reg",    "always",    "initial", "parameter"};
  if (name.empty() || !ident_start(name[0])) {
    return false;
  }
  for (const char c : name) {
    if (!ident_char(c)) {
      return false;
    }
  }
  return !kKeywords.contains(name);
}

std::string unique_name(std::string candidate, std::unordered_set<std::string>& used) {
  while (used.contains(candidate)) {
    candidate += "_";
  }
  used.insert(candidate);
  return candidate;
}

/// Legal-identifier form of a name that isn't one: bus bit nets like `a[3]`
/// become `a_3_` so exported netlists keep recognizable (and stable) names
/// instead of falling back to n<id>. Empty when no legal form exists.
std::string sanitized_ident(const std::string& name) {
  if (name.empty() || !ident_start(name[0])) {
    return {};
  }
  std::string out = name;
  for (char& c : out) {
    if (!ident_char(c)) {
      c = '_';
    }
  }
  return verilog_ident(out) ? out : std::string{};
}

std::string ident_candidate(const std::string& name) {
  return verilog_ident(name) ? name : sanitized_ident(name);
}

}  // namespace

void write_verilog(std::ostream& os, const Netlist& netlist) {
  // Resolve a Verilog-safe, collision-free name for every net (named nets
  // keep their name when it is a legal identifier; everything else becomes
  // n<id>) and every instance (u<id> fallback).
  std::unordered_set<std::string> used;
  std::vector<std::string> net_names(netlist.net_count());
  for (NetId net = 0; net < netlist.net_count(); ++net) {
    const std::string candidate = ident_candidate(netlist.net_name(net));
    if (!candidate.empty() && !used.contains(candidate)) {
      net_names[net] = candidate;
      used.insert(candidate);
    }
  }
  for (NetId net = 0; net < netlist.net_count(); ++net) {
    if (net_names[net].empty()) {
      net_names[net] = unique_name("n" + std::to_string(net), used);
    }
  }

  // Output ports are named nets in Verilog: when the port name differs from
  // the net feeding it, a buffer bridges the two.
  struct PortBuffer {
    std::string port;
    NetId source;
  };
  std::vector<std::string> output_ports;
  std::vector<PortBuffer> buffers;
  for (const CellId id : netlist.outputs()) {
    const Cell& cell = netlist.cell(id);
    const NetId source = cell.fanin[0];
    const std::string candidate = ident_candidate(cell.name);
    if (!candidate.empty() && candidate == net_names[source]) {
      output_ports.push_back(net_names[source]);
    } else {
      const std::string port = unique_name(
          !candidate.empty() ? candidate : "po" + std::to_string(id), used);
      output_ports.push_back(port);
      buffers.push_back({port, source});
    }
  }

  const std::string module_name =
      verilog_ident(netlist.name()) ? netlist.name() : "top";
  os << "// exported by retscan write_verilog — structural gate-level subset\n";
  os << "module " << module_name << " (";
  bool first = true;
  for (const CellId id : netlist.inputs()) {
    os << (first ? "" : ", ") << net_names[netlist.cell(id).out];
    first = false;
  }
  for (const std::string& port : output_ports) {
    os << (first ? "" : ", ") << port;
    first = false;
  }
  os << ");\n";

  std::unordered_set<std::string> port_nets;
  for (const CellId id : netlist.inputs()) {
    os << "  input " << net_names[netlist.cell(id).out] << ";\n";
    port_nets.insert(net_names[netlist.cell(id).out]);
  }
  for (const std::string& port : output_ports) {
    os << "  output " << port << ";\n";
    port_nets.insert(port);
  }
  for (NetId net = 0; net < netlist.net_count(); ++net) {
    const CellId driver = netlist.driver(net);
    if (driver == kNullCell && netlist.fanouts()[net].empty()) {
      continue;  // orphaned net: nothing would reference the wire
    }
    if (!port_nets.contains(net_names[net])) {
      os << "  wire " << net_names[net] << ";\n";
    }
  }

  // Verilog puts nets and instances in one module namespace, so instance
  // names are made unique against the net/port names too — external tools
  // reject the clash even though retscan's own reader tolerates it.
  std::unordered_set<std::string> instance_names = used;
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    const Cell& cell = netlist.cell(id);
    if (cell.type == CellType::Input || cell.type == CellType::Output) {
      continue;
    }
    const TechCellSpec& spec = techlib_cell_for(cell.type);
    const std::string inst = unique_name(
        verilog_ident(cell.name) ? cell.name : "u" + std::to_string(id),
        instance_names);
    os << "  " << spec.name << " " << inst << " (";
    for (std::size_t pin = 0; pin < cell.fanin.size(); ++pin) {
      os << "." << spec.input_pins[pin] << "(" << net_names[cell.fanin[pin]] << "), ";
    }
    os << "." << spec.output_pin << "(" << net_names[cell.out] << "));\n";
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    os << "  BUFX1 " << unique_name("ob" + std::to_string(i), instance_names)
       << " (.A(" << net_names[buffers[i].source] << "), .Y(" << buffers[i].port
       << "));\n";
  }
  os << "endmodule\n";
}

}  // namespace retscan
