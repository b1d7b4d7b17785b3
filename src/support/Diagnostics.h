// Diagnostics.h - error reporting shared by IR verifiers, parsers and flows.
//
// Diagnostics are collected in a DiagnosticEngine rather than thrown, so a
// verifier can report every problem in one pass and tests can assert on the
// exact set of messages.
#pragma once

#include <string>
#include <vector>

namespace mha {

/// A source position inside a textual IR buffer (1-based line/column).
struct SrcLoc {
  int line = 0;
  int col = 0;
  bool isValid() const { return line > 0; }
  std::string str() const;
};

enum class DiagSeverity { Note, Warning, Error };

/// A single reported problem.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::Error;
  SrcLoc loc;
  std::string message;

  std::string str() const;
};

/// Accumulates diagnostics; the owning driver decides how to surface them.
class DiagnosticEngine {
public:
  void error(std::string message, SrcLoc loc = {});
  void warning(std::string message, SrcLoc loc = {});
  void note(std::string message, SrcLoc loc = {});
  /// Adds an already-built diagnostic (e.g. one replayed from a cache).
  void report(Diagnostic diag);

  bool hadError() const { return numErrors_ > 0; }
  size_t errorCount() const { return numErrors_; }
  const std::vector<Diagnostic> &diagnostics() const { return diags_; }

  /// All diagnostics rendered one per line, for test assertions and logs.
  std::string str() const;

  void clear() {
    diags_.clear();
    numErrors_ = 0;
  }

private:
  std::vector<Diagnostic> diags_;
  size_t numErrors_ = 0;
};

/// The deepest the recursive-descent parsers (mir, lir and the C
/// frontend) go. Far above what the printers and the C++ emitter write
/// and above C's 63 parenthesis levels, and far below what a worker
/// thread's stack holds, even with sanitizer frames.
constexpr int kMaxNestingDepth = 256;

/// One parse's recursion depth, checked against kMaxNestingDepth. Each
/// level of descent holds a Level for its lifetime. Past the limit the
/// first Level reports one located error ("<prefix>nesting deeper than
/// 256 levels") and every Level after it fails, so the parse unwinds
/// without descending further; exceeded() lets the parser drop the
/// follow-on errors of that unwinding.
class NestingLimit {
public:
  explicit NestingLimit(DiagnosticEngine &diags, const char *prefix = "")
      : diags_(diags), prefix_(prefix) {}

  class Level {
  public:
    Level(NestingLimit &limit, SrcLoc loc);
    ~Level() { --limit_.depth_; }
    Level(const Level &) = delete;
    Level &operator=(const Level &) = delete;

    /// False past the limit: the caller returns without descending.
    bool ok() const { return ok_; }

  private:
    NestingLimit &limit_;
    bool ok_;
  };

  bool exceeded() const { return exceeded_; }

private:
  DiagnosticEngine &diags_;
  const char *prefix_;
  int depth_ = 0;
  bool exceeded_ = false;
};

} // namespace mha
