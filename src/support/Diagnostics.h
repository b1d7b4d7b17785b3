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

} // namespace mha
