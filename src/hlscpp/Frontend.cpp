#include "hlscpp/Frontend.h"

#include "lir/IRBuilder.h"
#include "lir/Intrinsics.h"
#include "lir/LContext.h"
#include "lir/transforms/Transforms.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>

namespace mha::hlscpp {

namespace {

using lir::IRBuilder;
using lir::Opcode;

// ============================ Lexer ============================

enum class Tok {
  Eof,
  Ident,
  Int,
  Float,
  Pragma, // whole pragma line text
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Assign,     // =
  PlusAssign, // +=
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Lt,
  Le,
  Gt,
  Ge,
  EqEq,
  NotEq,
  Question,
  Colon,
};

struct Token {
  Tok kind = Tok::Eof;
  std::string text;
  int64_t intValue = 0;
  double fpValue = 0;
  SrcLoc loc;
};

class Lexer {
public:
  Lexer(std::string_view text, DiagnosticEngine &diags)
      : text_(text), diags_(diags) {
    advance();
  }

  const Token &cur() const { return cur_; }
  Token take() {
    Token t = cur_;
    advance();
    return t;
  }

  void advance() {
    skipTrivia();
    cur_ = Token{};
    cur_.loc = {line_, col_};
    if (pos_ >= text_.size()) {
      cur_.kind = Tok::Eof;
      return;
    }
    char c = text_[pos_];
    auto two = [&](char second, Tok ifTwo, Tok ifOne) {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == second) {
        cur_.kind = ifTwo;
        pos_ += 2;
        col_ += 2;
      } else {
        cur_.kind = ifOne;
        ++pos_;
        ++col_;
      }
    };
    switch (c) {
    case '#': {
      // Pragma line (or include — skipped in trivia? includes start with
      // '#' too, handle here).
      size_t end = text_.find('\n', pos_);
      if (end == std::string_view::npos)
        end = text_.size();
      std::string line(text_.substr(pos_, end - pos_));
      pos_ = end;
      if (startsWith(line, "#pragma")) {
        cur_.kind = Tok::Pragma;
        cur_.text = line;
      } else {
        advance(); // #include etc.: skip
      }
      return;
    }
    case '(': single(Tok::LParen); return;
    case ')': single(Tok::RParen); return;
    case '{': single(Tok::LBrace); return;
    case '}': single(Tok::RBrace); return;
    case '[': single(Tok::LBracket); return;
    case ']': single(Tok::RBracket); return;
    case ';': single(Tok::Semi); return;
    case ',': single(Tok::Comma); return;
    case '?': single(Tok::Question); return;
    case ':': single(Tok::Colon); return;
    case '+': two('=', Tok::PlusAssign, Tok::Plus); return;
    case '-': single(Tok::Minus); return;
    case '*': single(Tok::Star); return;
    case '/': single(Tok::Slash); return;
    case '%': single(Tok::Percent); return;
    case '<': two('=', Tok::Le, Tok::Lt); return;
    case '>': two('=', Tok::Ge, Tok::Gt); return;
    case '=': two('=', Tok::EqEq, Tok::Assign); return;
    case '!': two('=', Tok::NotEq, Tok::NotEq); return;
    default:
      break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      lexNumber();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      cur_.kind = Tok::Ident;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        cur_.text += text_[pos_];
        ++pos_;
        ++col_;
      }
      return;
    }
    diags_.error(strfmt("hls-frontend: unexpected character '%c'", c),
                 cur_.loc);
    ++pos_;
    ++col_;
    advance();
  }

private:
  void single(Tok kind) {
    cur_.kind = kind;
    ++pos_;
    ++col_;
  }

  void lexNumber() {
    size_t start = pos_;
    bool isFloat = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_; ++col_;
      } else if (c == '.' || c == 'e' || c == 'E' ||
                 ((c == '+' || c == '-') && pos_ > start &&
                  (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))) {
        isFloat = true;
        ++pos_; ++col_;
      } else {
        break;
      }
    }
    std::string word(text_.substr(start, pos_ - start));
    if (isFloat) {
      cur_.kind = Tok::Float;
      if (std::optional<double> v = parseDouble(word))
        cur_.fpValue = *v;
      else
        diags_.error(strfmt("hls-frontend: invalid or out-of-range float "
                            "literal '%s'",
                            word.c_str()),
                     cur_.loc);
    } else {
      cur_.kind = Tok::Int;
      if (std::optional<int64_t> v = parseInt(word))
        cur_.intValue = *v;
      else
        diags_.error(strfmt("hls-frontend: invalid or out-of-range integer "
                            "literal '%s'",
                            word.c_str()),
                     cur_.loc);
    }
  }

  void skipTrivia() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_; col_ = 1; ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_; ++col_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n')
          ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  DiagnosticEngine &diags_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  Token cur_;
};

// ============================ Parser / codegen ============================

/// A C variable binding: either a scalar alloca or an array base pointer.
struct VarInfo {
  lir::Value *storage = nullptr; // alloca (scalar/array) or argument
  lir::Type *valueType = nullptr; // scalar element type
  lir::ArrayType *arrayType = nullptr; // set for arrays
};

struct PragmaInfo {
  std::optional<int64_t> pipelineII;
  std::optional<int64_t> unrollFactor;
};

class Frontend {
public:
  Frontend(std::string_view source, lir::LContext &ctx,
           DiagnosticEngine &diags)
      : lex_(source, diags), ctx_(ctx), diags_(diags), builder_(ctx) {}

  std::unique_ptr<lir::Module> run() {
    ctx_.emitOpaquePointers = false; // legacy frontend: typed pointers
    auto module = std::make_unique<lir::Module>(ctx_, "hls-cpp");
    module_ = module.get();
    module_->flags()["opaque-pointers"] = "false";
    module_->flags()["ir-producer"] = "hls-cpp-frontend";
    while (lex_.cur().kind != Tok::Eof && !diags_.hadError())
      parseFunction();
    if (diags_.hadError())
      return nullptr;
    return module;
  }

private:
  /// Reports a parse error, except while a too-deep parse unwinds: its
  /// one nesting error says all there is to say.
  void error(std::string message, SrcLoc loc = {}) {
    if (!nesting_.exceeded())
      diags_.error(std::move(message), loc);
  }

  Token expect(Tok kind, const char *what) {
    if (lex_.cur().kind != kind) {
      error(strfmt("hls-frontend: expected %s, got '%s'", what,
                   lex_.cur().text.c_str()),
            lex_.cur().loc);
      return Token{};
    }
    return lex_.take();
  }

  bool accept(Tok kind) {
    if (lex_.cur().kind == kind) {
      lex_.advance();
      return true;
    }
    return false;
  }

  lir::Type *parseCType(const std::string &word) {
    if (word == "double")
      return ctx_.doubleTy();
    if (word == "float")
      return ctx_.floatTy();
    if (word == "int")
      return ctx_.i32();
    if (word == "int64_t")
      return ctx_.i64();
    if (word == "bool")
      return ctx_.i1();
    return nullptr;
  }

  bool atType() {
    return lex_.cur().kind == Tok::Ident &&
           parseCType(lex_.cur().text) != nullptr;
  }

  void parseFunction() {
    Token ret = expect(Tok::Ident, "'void'");
    if (ret.text != "void") {
      error("hls-frontend: only void top functions are supported", ret.loc);
      return;
    }
    Token name = expect(Tok::Ident, "function name");
    expect(Tok::LParen, "'('");

    struct Param {
      std::string name;
      lir::Type *type;              // LLVM-level parameter type
      lir::Type *scalarType;        // element/value type
      lir::ArrayType *arrayType = nullptr;
    };
    std::vector<Param> params;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        Token typeTok = expect(Tok::Ident, "parameter type");
        lir::Type *elem = parseCType(typeTok.text);
        if (!elem) {
          error("hls-frontend: unknown type " + typeTok.text, typeTok.loc);
          return;
        }
        Token pname = expect(Tok::Ident, "parameter name");
        std::vector<int64_t> dims;
        while (accept(Tok::LBracket)) {
          Token dim = expect(Tok::Int, "array dimension");
          expect(Tok::RBracket, "']'");
          dims.push_back(dim.intValue);
        }
        Param p;
        p.name = pname.text;
        p.scalarType = elem;
        if (dims.empty()) {
          p.type = elem;
        } else {
          lir::Type *arr = elem;
          for (auto it = dims.rbegin(); it != dims.rend(); ++it)
            arr = ctx_.arrayTy(arr, static_cast<uint64_t>(*it));
          p.arrayType = cast<lir::ArrayType>(arr);
          p.type = ctx_.ptrTy(arr);
        }
        params.push_back(p);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");

    std::vector<lir::Type *> paramTypes;
    for (const Param &p : params)
      paramTypes.push_back(p.type);
    fn_ = module_->createFunction(ctx_.fnTy(ctx_.voidTy(), paramTypes),
                                  name.text);
    lir::BasicBlock *entry = fn_->createBlock("entry");
    builder_.setInsertPoint(entry);

    vars_.clear();
    argIndexByName_.clear();
    for (unsigned i = 0; i < params.size(); ++i) {
      lir::Argument *arg = fn_->arg(i);
      arg->setName(params[i].name);
      argIndexByName_[params[i].name] = i;
      VarInfo info;
      if (params[i].arrayType) {
        arg->attrs().insert("noalias");
        info.storage = arg;
        info.valueType = params[i].scalarType;
        info.arrayType = params[i].arrayType;
      } else {
        // C scalars are mutable locals initialized from the argument.
        lir::Instruction *slot =
            builder_.createAlloca(params[i].scalarType, params[i].name +
                                                            ".addr");
        builder_.createStore(arg, slot);
        info.storage = slot;
        info.valueType = params[i].scalarType;
      }
      vars_[params[i].name] = info;
    }

    expect(Tok::LBrace, "'{'");
    parseStatements();
    expect(Tok::RBrace, "'}'");
    builder_.createRet();
  }

  /// Parses statements until the closing '}' of the current scope.
  void parseStatements() {
    while (lex_.cur().kind != Tok::RBrace && lex_.cur().kind != Tok::Eof &&
           !diags_.hadError()) {
      parseStatement();
    }
  }

  void parseStatement() {
    if (lex_.cur().kind == Tok::Pragma) {
      handlePragma(lex_.take());
      return;
    }
    if (lex_.cur().kind == Tok::Ident && lex_.cur().text == "for") {
      parseFor();
      return;
    }
    if (atType()) {
      parseDeclaration();
      return;
    }
    // Assignment: lvalue '=' expr ';'
    Token name = expect(Tok::Ident, "identifier");
    auto it = vars_.find(name.text);
    if (it == vars_.end()) {
      error("hls-frontend: unknown variable " + name.text, name.loc);
      return;
    }
    lir::Value *addr = parseLValueAddress(it->second);
    expect(Tok::Assign, "'='");
    lir::Value *value = parseExpr();
    expect(Tok::Semi, "';'");
    if (value)
      builder_.createStore(coerce(value, it->second.valueType), addr);
  }

  void parseDeclaration() {
    Token typeTok = lex_.take();
    lir::Type *elem = parseCType(typeTok.text);
    Token name = expect(Tok::Ident, "variable name");
    // Array declaration?
    std::vector<int64_t> dims;
    while (accept(Tok::LBracket)) {
      Token dim = expect(Tok::Int, "array dimension");
      expect(Tok::RBracket, "']'");
      dims.push_back(dim.intValue);
    }
    VarInfo info;
    info.valueType = elem;
    if (!dims.empty()) {
      lir::Type *arr = elem;
      for (auto it = dims.rbegin(); it != dims.rend(); ++it)
        arr = ctx_.arrayTy(arr, static_cast<uint64_t>(*it));
      info.arrayType = cast<lir::ArrayType>(arr);
      info.storage = createEntryAlloca(arr, name.text);
      vars_[name.text] = info;
      expect(Tok::Semi, "';'");
      return;
    }
    info.storage = createEntryAlloca(elem, name.text + ".addr");
    vars_[name.text] = info;
    if (accept(Tok::Assign)) {
      lir::Value *value = parseExpr();
      if (value)
        builder_.createStore(coerce(value, elem), info.storage);
    }
    expect(Tok::Semi, "';'");
  }

  lir::Instruction *createEntryAlloca(lir::Type *type,
                                      const std::string &name) {
    lir::BasicBlock *entry = fn_->entry();
    IRBuilder entryBuilder(ctx_);
    entryBuilder.setInsertPoint(entry, entry->firstNonPhi());
    return entryBuilder.createAlloca(type, name);
  }

  /// Parses optional subscripts after an identifier and returns the
  /// address to load/store.
  lir::Value *parseLValueAddress(const VarInfo &info) {
    if (!info.arrayType)
      return info.storage;
    std::vector<lir::Value *> indices{ctx_.constI32(0)};
    while (accept(Tok::LBracket)) {
      lir::Value *idx = parseExpr();
      expect(Tok::RBracket, "']'");
      indices.push_back(idx ? idx : static_cast<lir::Value *>(
                                        ctx_.constI32(0)));
    }
    return builder_.createGEP(info.arrayType, info.storage, indices,
                              "arrayidx");
  }

  // --- expressions ---

  lir::Value *coerce(lir::Value *value, lir::Type *to) {
    if (!value || value->type() == to)
      return value;
    if (value->type()->isInteger() && to->isFloatingPoint())
      return builder_.createCast(Opcode::SIToFP, value, to, "conv");
    if (value->type()->isFloatingPoint() && to->isInteger())
      return builder_.createCast(Opcode::FPToSI, value, to, "conv");
    if (value->type()->isInteger() && to->isInteger()) {
      unsigned from = cast<lir::IntType>(value->type())->width();
      unsigned toW = cast<lir::IntType>(to)->width();
      return builder_.createCast(from < toW ? Opcode::SExt : Opcode::Trunc,
                                 value, to, "conv");
    }
    if (value->type()->isFloatingPoint() && to->isFloatingPoint())
      return builder_.createCast(value->type()->sizeInBytes() <
                                         to->sizeInBytes()
                                     ? Opcode::FPExt
                                     : Opcode::FPTrunc,
                                 value, to, "conv");
    error("hls-frontend: cannot convert between types");
    return value;
  }

  /// Usual arithmetic conversions for a binary op.
  void usualConversions(lir::Value *&lhs, lir::Value *&rhs) {
    if (!lhs || !rhs)
      return;
    if (lhs->type() == rhs->type())
      return;
    // Prefer double > float > wider int.
    auto rankOf = [&](lir::Type *t) {
      if (t->kind() == lir::Type::Kind::Double)
        return 100;
      if (t->kind() == lir::Type::Kind::Float)
        return 90;
      return static_cast<int>(cast<lir::IntType>(t)->width());
    };
    if (rankOf(lhs->type()) >= rankOf(rhs->type()))
      rhs = coerce(rhs, lhs->type());
    else
      lhs = coerce(lhs, rhs->type());
  }

  lir::Value *parseExpr() {
    NestingLimit::Level level(nesting_, lex_.cur().loc);
    return level.ok() ? parseTernary() : nullptr;
  }

  lir::Value *parseTernary() {
    lir::Value *cond = parseComparison();
    if (!accept(Tok::Question))
      return cond;
    lir::Value *t = parseExpr();
    expect(Tok::Colon, "':'");
    lir::Value *f = parseExpr();
    if (!cond || !t || !f)
      return nullptr;
    usualConversions(t, f);
    cond = coerce(cond, ctx_.i1());
    return builder_.createSelect(cond, t, f, "cond");
  }

  lir::Value *parseComparison() {
    lir::Value *lhs = parseAddSub();
    Tok k = lex_.cur().kind;
    if (k != Tok::Lt && k != Tok::Le && k != Tok::Gt && k != Tok::Ge &&
        k != Tok::EqEq && k != Tok::NotEq)
      return lhs;
    lex_.advance();
    lir::Value *rhs = parseAddSub();
    if (!lhs || !rhs)
      return nullptr;
    usualConversions(lhs, rhs);
    bool isFP = lhs->type()->isFloatingPoint();
    lir::CmpPred pred;
    switch (k) {
    case Tok::Lt: pred = isFP ? lir::CmpPred::OLT : lir::CmpPred::SLT; break;
    case Tok::Le: pred = isFP ? lir::CmpPred::OLE : lir::CmpPred::SLE; break;
    case Tok::Gt: pred = isFP ? lir::CmpPred::OGT : lir::CmpPred::SGT; break;
    case Tok::Ge: pred = isFP ? lir::CmpPred::OGE : lir::CmpPred::SGE; break;
    case Tok::EqEq: pred = isFP ? lir::CmpPred::OEQ : lir::CmpPred::EQ; break;
    default: pred = isFP ? lir::CmpPred::ONE : lir::CmpPred::NE; break;
    }
    return isFP ? builder_.createFCmp(pred, lhs, rhs, "cmp")
                : builder_.createICmp(pred, lhs, rhs, "cmp");
  }

  lir::Value *parseAddSub() {
    lir::Value *lhs = parseMulDiv();
    while (lex_.cur().kind == Tok::Plus || lex_.cur().kind == Tok::Minus) {
      bool isAdd = lex_.take().kind == Tok::Plus;
      lir::Value *rhs = parseMulDiv();
      if (!lhs || !rhs)
        return nullptr;
      usualConversions(lhs, rhs);
      bool isFP = lhs->type()->isFloatingPoint();
      Opcode op = isFP ? (isAdd ? Opcode::FAdd : Opcode::FSub)
                       : (isAdd ? Opcode::Add : Opcode::Sub);
      lhs = builder_.createBinOp(op, lhs, rhs, isAdd ? "add" : "sub");
    }
    return lhs;
  }

  lir::Value *parseMulDiv() {
    lir::Value *lhs = parseUnary();
    while (lex_.cur().kind == Tok::Star || lex_.cur().kind == Tok::Slash ||
           lex_.cur().kind == Tok::Percent) {
      Tok k = lex_.take().kind;
      lir::Value *rhs = parseUnary();
      if (!lhs || !rhs)
        return nullptr;
      usualConversions(lhs, rhs);
      bool isFP = lhs->type()->isFloatingPoint();
      Opcode op;
      if (k == Tok::Star)
        op = isFP ? Opcode::FMul : Opcode::Mul;
      else if (k == Tok::Slash)
        op = isFP ? Opcode::FDiv : Opcode::SDiv;
      else
        op = Opcode::SRem;
      lhs = builder_.createBinOp(op, lhs, rhs, "bin");
    }
    return lhs;
  }

  lir::Value *parseUnary() {
    NestingLimit::Level level(nesting_, lex_.cur().loc);
    if (!level.ok())
      return nullptr;
    if (accept(Tok::Minus)) {
      lir::Value *v = parseUnary();
      if (!v)
        return nullptr;
      if (v->type()->isFloatingPoint())
        return builder_.createFNeg(v, "neg");
      return builder_.createBinOp(
          Opcode::Sub, ctx_.constInt(cast<lir::IntType>(v->type()), 0), v,
          "neg");
    }
    return parsePrimary();
  }

  lir::Value *parsePrimary() {
    const Token &t = lex_.cur();
    if (t.kind == Tok::Int) {
      Token v = lex_.take();
      // C literal typing: a decimal literal keeps type int only when it
      // fits; otherwise it is (long) long. Truncating here would silently
      // fold e.g. INT64_MAX to -1.
      if (v.intValue >= INT32_MIN && v.intValue <= INT32_MAX)
        return ctx_.constI32(static_cast<int32_t>(v.intValue));
      return ctx_.constInt(ctx_.i64(), v.intValue);
    }
    if (t.kind == Tok::Float) {
      Token v = lex_.take();
      return ctx_.constFP(ctx_.doubleTy(), v.fpValue);
    }
    if (t.kind == Tok::LParen) {
      lex_.advance();
      // Cast or parenthesized expression.
      if (atType()) {
        lir::Type *to = parseCType(lex_.take().text);
        expect(Tok::RParen, "')'");
        lir::Value *v = parseUnary();
        return coerce(v, to);
      }
      lir::Value *v = parseExpr();
      expect(Tok::RParen, "')'");
      return v;
    }
    if (t.kind == Tok::Ident) {
      Token name = lex_.take();
      // math.h non-finite constant macros (the emitter's spelling for
      // folded inf/nan values).
      if (name.text == "INFINITY")
        return ctx_.constFP(ctx_.doubleTy(),
                            std::numeric_limits<double>::infinity());
      if (name.text == "NAN")
        return ctx_.constFP(ctx_.doubleTy(),
                            std::numeric_limits<double>::quiet_NaN());
      if (lex_.cur().kind == Tok::LParen)
        return parseCall(name.text);
      auto it = vars_.find(name.text);
      if (it == vars_.end()) {
        error("hls-frontend: unknown variable " + name.text, name.loc);
        return nullptr;
      }
      const VarInfo &info = it->second;
      if (info.arrayType && lex_.cur().kind != Tok::LBracket)
        return info.storage; // array decays to pointer
      lir::Value *addr = parseLValueAddress(info);
      return builder_.createLoad(info.valueType, addr, name.text + ".val");
    }
    error(strfmt("hls-frontend: unexpected token '%s' in expression",
                 t.text.c_str()),
          t.loc);
    lex_.advance();
    return nullptr;
  }

  lir::Value *parseCall(const std::string &name) {
    expect(Tok::LParen, "'('");
    std::vector<lir::Value *> args;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        lir::Value *arg = parseExpr();
        if (!arg)
          return nullptr;
        args.push_back(arg);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");
    // Math library calls map onto the HLS math cores.
    static const std::map<std::string, const char *> mathMap = {
        {"sqrt", "sqrt"}, {"exp", "exp"},  {"fabs", "fabs"},
        {"log", "log"},   {"sin", "sin"},  {"cos", "cos"},
        {"pow", "pow"},   {"sqrtf", "sqrt"}};
    auto it = mathMap.find(name);
    if (it != mathMap.end() && !args.empty()) {
      lir::Value *arg0 = coerce(args[0], ctx_.doubleTy());
      std::vector<lir::Value *> callArgs{arg0};
      if (args.size() > 1)
        callArgs.push_back(coerce(args[1], ctx_.doubleTy()));
      lir::Function *callee =
          lir::getHlsMathFunction(*module_, it->second, ctx_.doubleTy());
      return builder_.createCall(callee, callArgs, name);
    }
    error("hls-frontend: call to unsupported function " + name);
    return nullptr;
  }

  // --- loops & pragmas ---

  void parseFor() {
    NestingLimit::Level level(nesting_, lex_.cur().loc);
    if (!level.ok())
      return;
    lex_.advance(); // 'for'
    expect(Tok::LParen, "'('");
    Token intKw = expect(Tok::Ident, "'int'");
    (void)intKw;
    Token ivName = expect(Tok::Ident, "loop variable");
    expect(Tok::Assign, "'='");
    lir::Value *init = parseExpr();
    expect(Tok::Semi, "';'");
    Token condVar = expect(Tok::Ident, "loop variable");
    if (condVar.text != ivName.text)
      error("hls-frontend: loop condition must test the loop var", condVar.loc);
    bool strict = true;
    if (accept(Tok::Lt))
      strict = true;
    else if (accept(Tok::Le))
      strict = false;
    else
      error("hls-frontend: loop condition must be < or <=", lex_.cur().loc);
    lir::Value *bound = parseExpr();
    expect(Tok::Semi, "';'");
    Token stepVar = expect(Tok::Ident, "loop variable");
    if (stepVar.text != ivName.text)
      error("hls-frontend: loop step must update the loop var", stepVar.loc);
    expect(Tok::PlusAssign, "'+='");
    lir::Value *step = parseExpr();
    expect(Tok::RParen, "')'");
    expect(Tok::LBrace, "'{'");

    // The loop variable is a fresh local (scoped); shadowing restored at
    // the end.
    auto shadow = vars_.find(ivName.text);
    std::optional<VarInfo> shadowed;
    if (shadow != vars_.end())
      shadowed = shadow->second;
    VarInfo ivInfo;
    ivInfo.valueType = ctx_.i32();
    ivInfo.storage = createEntryAlloca(ctx_.i32(), ivName.text + ".addr");
    vars_[ivName.text] = ivInfo;

    if (init)
      builder_.createStore(coerce(init, ctx_.i32()), ivInfo.storage);

    lir::BasicBlock *header = fn_->createBlock("for.cond");
    lir::BasicBlock *body = fn_->createBlock("for.body");
    lir::BasicBlock *exit = fn_->createBlock("for.end");
    builder_.createBr(header);

    builder_.setInsertPoint(header);
    lir::Value *iv =
        builder_.createLoad(ctx_.i32(), ivInfo.storage, ivName.text);
    lir::Value *cmp = builder_.createICmp(
        strict ? lir::CmpPred::SLT : lir::CmpPred::SLE, iv,
        coerce(bound, ctx_.i32()), "loopcond");
    builder_.createCondBr(cmp, body, exit);

    builder_.setInsertPoint(body);
    // Pragmas immediately inside the loop body configure this loop.
    PragmaInfo pragmas;
    while (lex_.cur().kind == Tok::Pragma)
      parseLoopPragma(lex_.take(), pragmas);

    parseStatements();
    expect(Tok::RBrace, "'}'");

    // Latch: iv += step; back to the header.
    lir::Value *ivAgain =
        builder_.createLoad(ctx_.i32(), ivInfo.storage, ivName.text);
    lir::Value *ivNext = builder_.createBinOp(
        Opcode::Add, ivAgain, coerce(step, ctx_.i32()), ivName.text + ".next");
    builder_.createStore(ivNext, ivInfo.storage);
    lir::Instruction *latch = builder_.createBr(header);
    if (pragmas.pipelineII)
      latch->setMetadata("xlx.pipeline",
                         lir::MDNode::ofInt(*pragmas.pipelineII));
    if (pragmas.unrollFactor)
      latch->setMetadata("xlx.unroll",
                         lir::MDNode::ofInt(*pragmas.unrollFactor));
    // Trip-count hint when the bounds are literal (frontends compute it).
    if (auto *initC = dyn_cast<lir::ConstantInt>(init ? init : nullptr)) {
      if (auto *boundC = dyn_cast<lir::ConstantInt>(bound)) {
        if (auto *stepC = dyn_cast<lir::ConstantInt>(step)) {
          int64_t span = boundC->value() - initC->value() + (strict ? 0 : 1);
          if (stepC->value() > 0 && span > 0)
            latch->setMetadata(
                "xlx.tripcount",
                lir::MDNode::ofInt((span + stepC->value() - 1) /
                                   stepC->value()));
        }
      }
    }

    builder_.setInsertPoint(exit);
    if (shadowed)
      vars_[ivName.text] = *shadowed;
    else
      vars_.erase(ivName.text);
  }

  /// The N of a pragma word `key=N` (`keyLen` covers "key="); a located
  /// error, not a throw, when N is not an integer.
  std::optional<int64_t> pragmaValue(const std::string &word, size_t keyLen,
                                     SrcLoc loc) {
    std::optional<int64_t> value = parseInt(word.substr(keyLen));
    if (!value)
      error("hls-frontend: bad pragma value '" + word + "'", loc);
    return value;
  }

  void handlePragma(const Token &pragma) {
    // Function-scope pragmas: dataflow, array_partition.
    const std::string &line = pragma.text;
    std::vector<std::string> words = splitString(line, ' ');
    if (words.size() >= 3 && words[2] == "dataflow") {
      fn_->attrs().insert("xlx.dataflow");
      return;
    }
    if (words.size() >= 3 && words[2] == "array_partition") {
      std::string variable, kind = "cyclic";
      int64_t factor = 1, dim = 1;
      for (const std::string &word : words) {
        if (startsWith(word, "variable="))
          variable = word.substr(9);
        else if (startsWith(word, "factor="))
          factor = pragmaValue(word, 7, pragma.loc).value_or(factor);
        else if (startsWith(word, "dim="))
          dim = pragmaValue(word, 4, pragma.loc).value_or(dim);
        else if (word == "cyclic" || word == "block")
          kind = word;
      }
      auto it = argIndexByName_.find(variable);
      if (it == argIndexByName_.end()) {
        diags_.warning("hls-frontend: array_partition on unknown variable " +
                       variable);
        return;
      }
      lir::Argument *arg = fn_->arg(it->second);
      auto nodeIt = arg->metadata().find("xlx.array_partition");
      lir::MDNode *node;
      if (nodeIt == arg->metadata().end()) {
        auto fresh = std::make_unique<lir::MDNode>();
        node = fresh.get();
        arg->metadata()["xlx.array_partition"] = std::move(fresh);
      } else {
        node = nodeIt->second.get();
      }
      auto triple = std::make_unique<lir::MDNode>();
      triple->addInt(dim - 1); // back to 0-based
      triple->addInt(factor);
      triple->addString(kind);
      node->addNode(std::move(triple));
      return;
    }
    diags_.warning("hls-frontend: ignored pragma: " + line);
  }

  void parseLoopPragma(const Token &pragma, PragmaInfo &out) {
    std::vector<std::string> words = splitString(pragma.text, ' ');
    for (size_t i = 0; i < words.size(); ++i) {
      if (words[i] == "pipeline") {
        out.pipelineII = 1;
        for (const std::string &word : words)
          if (startsWith(word, "II="))
            out.pipelineII = pragmaValue(word, 3, pragma.loc).value_or(1);
      } else if (words[i] == "unroll") {
        out.unrollFactor = 0; // full unroll by default
        for (const std::string &word : words)
          if (startsWith(word, "factor="))
            out.unrollFactor = pragmaValue(word, 7, pragma.loc).value_or(0);
        if (*out.unrollFactor == 0)
          out.unrollFactor = 1 << 30; // "full": clamped to trip count later
      }
    }
  }

  Lexer lex_;
  lir::LContext &ctx_;
  DiagnosticEngine &diags_;
  IRBuilder builder_;
  lir::Module *module_ = nullptr;
  lir::Function *fn_ = nullptr;
  std::map<std::string, VarInfo> vars_;
  std::map<std::string, unsigned> argIndexByName_;
  // One level per parenthesized, unary, cast or conditional
  // sub-expression and per loop body (a parenthesis costs two: the
  // expression and its operand).
  NestingLimit nesting_{diags_, "hls-frontend: "};
};

} // namespace

void buildFrontendPipeline(lir::PassManager &pm) {
  // The frontend's "O2-lite": promote locals, canonicalize loops.
  pm.add(lir::createMem2RegPass());
  pm.add(lir::createInstCombinePass());
  pm.add(lir::createCSEPass());
  pm.add(lir::createDCEPass());
  pm.add(lir::createSimplifyCFGPass());
  pm.add(lir::createLICMPass());
  pm.add(lir::createDCEPass());
}

std::unique_ptr<lir::Module> parseHlsCpp(std::string_view source,
                                         lir::LContext &ctx,
                                         DiagnosticEngine &diags,
                                         bool optimize) {
  Frontend frontend(source, ctx, diags);
  std::unique_ptr<lir::Module> module = frontend.run();
  if (!module || !optimize)
    return module;
  lir::PassManager pm(/*verifyEach=*/true);
  buildFrontendPipeline(pm);
  if (!pm.run(*module, diags))
    return nullptr;
  return module;
}

} // namespace mha::hlscpp
