#include "mir/Parser.h"

#include "mir/Builder.h"
#include "mir/MContext.h"
#include "support/StringUtils.h"

#include <cctype>
#include <map>

namespace mha::mir {

namespace {

enum class Tok {
  Eof,
  Ident,
  Percent, // %name
  At,      // @name
  Caret,   // ^name
  Int,
  Float,
  String,
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Less,
  Greater,
  Comma,
  Equal,
  Colon,
  Plus,
  Star,
  Arrow, // ->
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
    auto single = [&](Tok kind) {
      cur_.kind = kind;
      ++pos_;
      ++col_;
    };
    switch (c) {
    case '(': single(Tok::LParen); return;
    case ')': single(Tok::RParen); return;
    case '{': single(Tok::LBrace); return;
    case '}': single(Tok::RBrace); return;
    case '[': single(Tok::LBracket); return;
    case ']': single(Tok::RBracket); return;
    case '<': single(Tok::Less); return;
    case '>': single(Tok::Greater); return;
    case ',': single(Tok::Comma); return;
    case '=': single(Tok::Equal); return;
    case ':': single(Tok::Colon); return;
    case '+': single(Tok::Plus); return;
    case '*': single(Tok::Star); return;
    case '%': {
      ++pos_; ++col_;
      cur_.kind = Tok::Percent;
      cur_.text = lexWord();
      return;
    }
    case '@': {
      ++pos_; ++col_;
      cur_.kind = Tok::At;
      cur_.text = lexWord();
      return;
    }
    case '^': {
      ++pos_; ++col_;
      cur_.kind = Tok::Caret;
      cur_.text = lexWord();
      return;
    }
    case '"': {
      ++pos_; ++col_;
      cur_.kind = Tok::String;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        cur_.text += text_[pos_];
        ++pos_; ++col_;
      }
      if (pos_ < text_.size()) { ++pos_; ++col_; }
      return;
    }
    case '-':
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
        cur_.kind = Tok::Arrow;
        pos_ += 2;
        col_ += 2;
        return;
      }
      lexNumber();
      return;
    default:
      break;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      lexNumber();
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      cur_.kind = Tok::Ident;
      cur_.text = lexWord();
      return;
    }
    diags_.error(strfmt("unexpected character '%c'", c), cur_.loc);
    ++pos_; ++col_;
    advance();
  }

private:
  std::string lexWord() {
    std::string word;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.') {
        word += c;
        ++pos_; ++col_;
      } else
        break;
    }
    return word;
  }

  void lexNumber() {
    size_t start = pos_;
    if (text_[pos_] == '-') { ++pos_; ++col_; }
    bool isFloat = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_; ++col_;
      } else if (c == '.' || c == 'e' || c == 'E' ||
                 ((c == '+' || c == '-') &&
                  (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))) {
        // Don't swallow the 'x' of shapes like 32x32 or dims like 1.5e3,
        // but do accept a signed exponent: the shortest-round-trip
        // printer emits forms like 1e-05.
        char next = pos_ + 1 < text_.size() ? text_[pos_ + 1] : 'q';
        char after = pos_ + 2 < text_.size() ? text_[pos_ + 2] : 'q';
        bool signedExponent =
            (c == 'e' || c == 'E') && (next == '+' || next == '-') &&
            std::isdigit(static_cast<unsigned char>(after));
        if (c == '.' ||
            std::isdigit(static_cast<unsigned char>(next)) ||
            signedExponent)
          isFloat = true;
        else
          break;
        ++pos_; ++col_;
      } else
        break;
    }
    std::string word(text_.substr(start, pos_ - start));
    if (isFloat) {
      cur_.kind = Tok::Float;
      if (std::optional<double> v = parseDouble(word))
        cur_.fpValue = *v;
      else
        diags_.error(strfmt("invalid or out-of-range float literal '%s'",
                            word.c_str()),
                     cur_.loc);
    } else {
      cur_.kind = Tok::Int;
      if (std::optional<int64_t> v = parseInt(word))
        cur_.intValue = *v;
      else
        diags_.error(strfmt("invalid or out-of-range integer literal '%s'",
                            word.c_str()),
                     cur_.loc);
    }
    cur_.text = std::move(word);
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
      } else
        break;
    }
  }

  std::string_view text_;
  DiagnosticEngine &diags_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  Token cur_;
};

class MirParser {
public:
  MirParser(std::string_view text, MContext &ctx, DiagnosticEngine &diags)
      : lex_(text, diags), ctx_(ctx), diags_(diags), nesting_(diags) {}

  std::optional<OwnedModule> parse() {
    if (!expectIdent("builtin.module"))
      return std::nullopt;
    expect(Tok::LBrace, "'{'");
    OwnedModule module = OpBuilder::createModule();
    OpBuilder builder(ctx_);
    builder.setInsertPoint(module.get().body());
    while (lex_.cur().kind != Tok::RBrace && lex_.cur().kind != Tok::Eof &&
           !diags_.hadError())
      parseFunc(builder);
    expect(Tok::RBrace, "'}'");
    if (diags_.hadError())
      return std::nullopt;
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
      error(strfmt("expected %s, got '%s'", what, lex_.cur().text.c_str()),
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

  bool expectIdent(const char *word) {
    if (lex_.cur().kind == Tok::Ident && lex_.cur().text == word) {
      lex_.advance();
      return true;
    }
    error(strfmt("expected '%s'", word), lex_.cur().loc);
    return false;
  }

  /// The width of an `iN` type word ("i32" -> 32): a located error, not a
  /// throw, when N is not a width the IR supports.
  std::optional<unsigned> intWidth(const std::string &word, SrcLoc loc) {
    std::optional<int64_t> width = parseInt(word.substr(1));
    if (width && *width >= 1 && *width <= 64)
      return static_cast<unsigned>(*width);
    error(strfmt("bad integer type '%s' (width must be 1 to 64)",
                 word.c_str()),
          loc);
    return std::nullopt;
  }

  // --- Types ---
  Type *parseType() {
    const SrcLoc loc = lex_.cur().loc;
    if (lex_.cur().kind != Tok::Ident) {
      error("expected type", loc);
      return nullptr;
    }
    std::string w = lex_.take().text;
    if (w == "index")
      return ctx_.indexTy();
    if (w == "none")
      return ctx_.noneTy();
    if (w == "f32")
      return ctx_.f32();
    if (w == "f64")
      return ctx_.f64();
    if (w.size() > 1 && w[0] == 'i' &&
        std::isdigit(static_cast<unsigned char>(w[1]))) {
      std::optional<unsigned> width = intWidth(w, loc);
      return width ? ctx_.intTy(*width) : nullptr;
    }
    if (w == "memref") {
      expect(Tok::Less, "'<'");
      // Shape: 32x32xf64 lexes as Int("32"), Ident("x32xf64") — handle by
      // re-lexing from tokens: ints separated by idents starting with 'x'.
      std::vector<int64_t> shape;
      Type *elem = nullptr;
      while (true) {
        if (lex_.cur().kind == Tok::Int) {
          shape.push_back(lex_.take().intValue);
          continue;
        }
        if (lex_.cur().kind == Tok::Ident) {
          const SrcLoc wordLoc = lex_.cur().loc;
          std::string word = lex_.take().text;
          // word looks like "x32x..." and/or ends with the element type.
          size_t i = 0;
          while (i < word.size()) {
            if (word[i] == 'x') {
              ++i;
              size_t j = i;
              while (j < word.size() &&
                     std::isdigit(static_cast<unsigned char>(word[j])))
                ++j;
              if (j > i) {
                std::optional<int64_t> dim = parseInt(word.substr(i, j - i));
                if (!dim) {
                  error(strfmt("memref dimension '%s' out of range",
                               word.substr(i, j - i).c_str()),
                        wordLoc);
                  return nullptr;
                }
                shape.push_back(*dim);
                i = j;
                continue;
              }
            }
            // Rest is the element type.
            elem = typeFromWord(word.substr(i), wordLoc);
            if (!elem)
              return nullptr;
            i = word.size();
          }
          if (elem)
            break;
          continue;
        }
        error("bad memref shape", lex_.cur().loc);
        return nullptr;
      }
      expect(Tok::Greater, "'>'");
      if (!elem)
        return nullptr;
      return ctx_.memrefTy(std::move(shape), elem);
    }
    error(strfmt("unknown type '%s'", w.c_str()), loc);
    return nullptr;
  }

  Type *typeFromWord(const std::string &w, SrcLoc loc) {
    if (w == "f32")
      return ctx_.f32();
    if (w == "f64")
      return ctx_.f64();
    if (w == "index")
      return ctx_.indexTy();
    if (w.size() > 1 && w[0] == 'i') {
      std::optional<unsigned> width = intWidth(w, loc);
      return width ? ctx_.intTy(*width) : nullptr;
    }
    error(strfmt("unknown element type '%s'", w.c_str()), loc);
    return nullptr;
  }

  // --- Affine maps ---
  // expr    := product ('+' product)*    where a + b + c is a + (b + c)
  // product := term (('*' | 'mod' | 'floordiv' | 'ceildiv') term)*
  // term    := integer | dN | sN | '(' expr ')'
  // Each returns null after reporting an error.
  const AffineExpr *parseAffineExpr(unsigned numDims, unsigned numSyms) {
    std::vector<const AffineExpr *> products;
    do {
      const AffineExpr *product = parseAffineProduct(numDims, numSyms);
      if (!product)
        return nullptr;
      products.push_back(product);
    } while (accept(Tok::Plus));
    const AffineExpr *sum = products.back();
    for (size_t i = products.size() - 1; i-- > 0;)
      sum = ctx_.affineAdd(products[i], sum);
    return sum;
  }

  const AffineExpr *parseAffineProduct(unsigned numDims, unsigned numSyms) {
    using Combine = const AffineExpr *(MContext::*)(const AffineExpr *,
                                                    const AffineExpr *);
    const AffineExpr *lhs = parseAffineTerm(numDims, numSyms);
    while (lhs) {
      const Token &t = lex_.cur();
      Combine combine = nullptr;
      if (t.kind == Tok::Star)
        combine = &MContext::affineMul;
      else if (t.kind == Tok::Ident && t.text == "mod")
        combine = &MContext::affineMod;
      else if (t.kind == Tok::Ident && t.text == "floordiv")
        combine = &MContext::affineFloorDiv;
      else if (t.kind == Tok::Ident && t.text == "ceildiv")
        combine = &MContext::affineCeilDiv;
      else
        break;
      lex_.advance();
      const AffineExpr *rhs = parseAffineTerm(numDims, numSyms);
      lhs = rhs ? (ctx_.*combine)(lhs, rhs) : nullptr;
    }
    return lhs;
  }

  const AffineExpr *parseAffineTerm(unsigned numDims, unsigned numSyms) {
    const Token &t = lex_.cur();
    const SrcLoc loc = t.loc;
    if (t.kind == Tok::Int)
      return ctx_.affineConst(lex_.take().intValue);
    if (t.kind == Tok::LParen) {
      NestingLimit::Level level(nesting_, loc);
      if (!level.ok())
        return nullptr;
      lex_.advance();
      const AffineExpr *e = parseAffineExpr(numDims, numSyms);
      expect(Tok::RParen, "')'");
      return e;
    }
    if (t.kind == Tok::Ident && t.text.size() >= 2 &&
        (t.text[0] == 'd' || t.text[0] == 's')) {
      std::string w = lex_.take().text;
      const bool dim = w[0] == 'd';
      const unsigned count = dim ? numDims : numSyms;
      std::optional<int64_t> pos = parseInt(w.substr(1));
      if (!pos || *pos < 0 || *pos >= count) {
        error(strfmt("bad affine %s '%s' (map has %u %ss)",
                     dim ? "dimension" : "symbol", w.c_str(), count,
                     dim ? "dimension" : "symbol"),
              loc);
        return nullptr;
      }
      const unsigned p = static_cast<unsigned>(*pos);
      return dim ? ctx_.affineDim(p) : ctx_.affineSymbol(p);
    }
    error("bad affine expression", loc);
    return nullptr;
  }

  AffineMap parseAffineMapBody() {
    // (d0, d1)[s0] -> (expr, expr)
    expect(Tok::LParen, "'('");
    unsigned numDims = 0;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        expect(Tok::Ident, "dim");
        ++numDims;
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");
    unsigned numSyms = 0;
    if (accept(Tok::LBracket)) {
      if (lex_.cur().kind != Tok::RBracket) {
        do {
          expect(Tok::Ident, "symbol");
          ++numSyms;
        } while (accept(Tok::Comma));
      }
      expect(Tok::RBracket, "']'");
    }
    expect(Tok::Arrow, "'->'");
    expect(Tok::LParen, "'('");
    std::vector<const AffineExpr *> results;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        const AffineExpr *e = parseAffineExpr(numDims, numSyms);
        if (!e)
          break;
        results.push_back(e);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");
    return AffineMap(numDims, numSyms, std::move(results));
  }

  // --- Attributes ---
  const Attribute *parseAttrValue() {
    const Token &t = lex_.cur();
    if (t.kind == Tok::Int)
      return ctx_.intAttr(lex_.take().intValue);
    if (t.kind == Tok::Float)
      return ctx_.floatAttr(lex_.take().fpValue);
    if (t.kind == Tok::String)
      return ctx_.stringAttr(lex_.take().text);
    if (t.kind == Tok::LBracket) {
      NestingLimit::Level level(nesting_, t.loc);
      if (!level.ok())
        return nullptr;
      lex_.advance();
      std::vector<const Attribute *> elems;
      if (lex_.cur().kind != Tok::RBracket) {
        do {
          const Attribute *a = parseAttrValue();
          if (!a)
            return nullptr;
          elems.push_back(a);
        } while (accept(Tok::Comma));
      }
      expect(Tok::RBracket, "']'");
      return ctx_.arrayAttr(std::move(elems));
    }
    if (t.kind == Tok::Ident && t.text == "unit") {
      lex_.advance();
      return ctx_.unitAttr();
    }
    if (t.kind == Tok::Ident && t.text == "type") {
      lex_.advance();
      expect(Tok::LParen, "'('");
      Type *type = parseType();
      expect(Tok::RParen, "')'");
      return type ? ctx_.typeAttr(type) : nullptr;
    }
    if (t.kind == Tok::Ident && t.text == "affine_map") {
      lex_.advance();
      expect(Tok::Less, "'<'");
      AffineMap map = parseAffineMapBody();
      expect(Tok::Greater, "'>'");
      return ctx_.affineMapAttr(std::move(map));
    }
    error("bad attribute value", t.loc);
    return nullptr;
  }

  /// Parses `{k = v, ...}` into `op` (caller checked LBrace).
  void parseAttrDict(Operation *op) {
    expect(Tok::LBrace, "'{'");
    if (lex_.cur().kind != Tok::RBrace) {
      do {
        Token key = expect(Tok::Ident, "attribute name");
        expect(Tok::Equal, "'='");
        const Attribute *value = parseAttrValue();
        if (!value)
          return;
        op->setAttr(key.text, value);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RBrace, "'}'");
  }

  // --- Functions and ops ---
  void parseFunc(OpBuilder &moduleBuilder) {
    if (!expectIdent("func.func"))
      return;
    Token name = expect(Tok::At, "function name");
    expect(Tok::LParen, "'('");
    std::vector<std::string> argNames;
    std::vector<Type *> argTypes;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        Token argName = expect(Tok::Percent, "argument");
        expect(Tok::Colon, "':'");
        Type *type = parseType();
        if (!type)
          return;
        argNames.push_back(argName.text);
        argTypes.push_back(type);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");

    FuncOp fn = moduleBuilder.createFunc(name.text, ctx_.fnTy(argTypes, {}));
    if (lex_.cur().kind == Tok::Ident && lex_.cur().text == "attributes") {
      lex_.advance();
      parseAttrDict(fn.op);
    }

    values_.clear();
    for (unsigned i = 0; i < fn.numArgs(); ++i)
      values_[argNames[i]] = fn.arg(i);

    expect(Tok::LBrace, "'{'");
    OpBuilder builder(ctx_);
    builder.setInsertPoint(fn.entryBlock());
    while (lex_.cur().kind != Tok::RBrace && lex_.cur().kind != Tok::Eof &&
           !diags_.hadError())
      parseOp(builder);
    expect(Tok::RBrace, "'}'");
  }

  Value *lookup(const std::string &name, SrcLoc loc) {
    auto it = values_.find(name);
    if (it == values_.end()) {
      error(strfmt("unknown value %%%s", name.c_str()), loc);
      return nullptr;
    }
    return it->second;
  }

  void parseOp(OpBuilder &builder) {
    // Results.
    std::vector<std::string> resultNames;
    if (lex_.cur().kind == Tok::Percent) {
      do {
        resultNames.push_back(expect(Tok::Percent, "result").text);
      } while (accept(Tok::Comma));
      expect(Tok::Equal, "'='");
    }
    Token name = expect(Tok::String, "op name");
    expect(Tok::LParen, "'('");
    std::vector<Value *> operands;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        Token opName = expect(Tok::Percent, "operand");
        Value *v = lookup(opName.text, opName.loc);
        if (!v)
          return;
        operands.push_back(v);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");

    auto op = Operation::create(name.text, std::move(operands), {});

    // Optional regions: `( { ... }, { ... } )`.
    if (lex_.cur().kind == Tok::LParen) {
      lex_.advance();
      do {
        parseRegion(op.get());
      } while (accept(Tok::Comma));
      expect(Tok::RParen, "')'");
    }
    if (lex_.cur().kind == Tok::LBrace)
      parseAttrDict(op.get());

    // Trailing type signature: `: (i64, i64) -> (i64)`.
    expect(Tok::Colon, "':'");
    expect(Tok::LParen, "'('");
    unsigned nOperandTypes = 0;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        parseType();
        ++nOperandTypes;
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");
    expect(Tok::Arrow, "'->'");
    expect(Tok::LParen, "'('");
    std::vector<Type *> resultTypes;
    if (lex_.cur().kind != Tok::RParen) {
      do {
        Type *type = parseType();
        if (!type)
          return;
        resultTypes.push_back(type);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "')'");

    // Rebuild with result types (Operation::create fixes result count).
    auto finalOp = Operation::create(op->name(), op->operandValues(),
                                     resultTypes);
    for (const auto &[k, v] : op->attrs())
      finalOp->setAttr(k, v);
    // Transfer regions.
    for (unsigned r = 0; r < op->numRegions(); ++r) {
      Region *src = op->region(r);
      Region *dst = finalOp->addRegion();
      for (auto &block : *src) {
        Block *newBlock = dst->addBlock();
        for (unsigned i = 0; i < block->numArgs(); ++i) {
          BlockArgument *newArg = newBlock->addArg(block->arg(i)->type());
          block->arg(i)->replaceAllUsesWith(newArg);
          // Keep name mapping pointing at the final arg.
          for (auto &[n, v] : values_)
            if (v == block->arg(i))
              values_[n] = newArg;
        }
        for (Operation *child : block->opPtrs())
          newBlock->append(child->removeFromParent());
      }
    }
    Operation *result = builder.insertOp(std::move(finalOp));

    if (resultNames.size() != result->numResults()) {
      error("result count mismatch", name.loc);
      return;
    }
    for (unsigned i = 0; i < result->numResults(); ++i)
      values_[resultNames[i]] = result->result(i);
  }

  void parseRegion(Operation *op) {
    NestingLimit::Level level(nesting_, lex_.cur().loc);
    if (!level.ok())
      return;
    expect(Tok::LBrace, "'{'");
    Region *region = op->addRegion();
    Block *block = region->addBlock();
    // Optional block header `^bb(%x: index):`.
    if (lex_.cur().kind == Tok::Caret) {
      lex_.advance();
      expect(Tok::LParen, "'('");
      if (lex_.cur().kind != Tok::RParen) {
        do {
          Token argName = expect(Tok::Percent, "block argument");
          expect(Tok::Colon, "':'");
          Type *type = parseType();
          if (!type)
            return;
          values_[argName.text] = block->addArg(type);
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')'");
      expect(Tok::Colon, "':'");
    }
    OpBuilder builder(ctx_);
    builder.setInsertPoint(block);
    while (lex_.cur().kind != Tok::RBrace && lex_.cur().kind != Tok::Eof &&
           !diags_.hadError())
      parseOp(builder);
    expect(Tok::RBrace, "'}'");
  }

  Lexer lex_;
  MContext &ctx_;
  DiagnosticEngine &diags_;
  // One level per parenthesized affine sub-expression, array attribute
  // and op region.
  NestingLimit nesting_;
  std::map<std::string, Value *> values_;
};

} // namespace

std::optional<OwnedModule> parseModule(std::string_view text, MContext &ctx,
                                       DiagnosticEngine &diags) {
  return MirParser(text, ctx, diags).parse();
}

} // namespace mha::mir
