#include "support/Diagnostics.h"

#include "support/StringUtils.h"

namespace mha {

std::string SrcLoc::str() const {
  if (!isValid())
    return "<unknown>";
  return strfmt("%d:%d", line, col);
}

std::string Diagnostic::str() const {
  const char *sev = severity == DiagSeverity::Error     ? "error"
                    : severity == DiagSeverity::Warning ? "warning"
                                                        : "note";
  if (loc.isValid())
    return strfmt("%s: %s: %s", loc.str().c_str(), sev, message.c_str());
  return strfmt("%s: %s", sev, message.c_str());
}

void DiagnosticEngine::error(std::string message, SrcLoc loc) {
  diags_.push_back({DiagSeverity::Error, loc, std::move(message)});
  ++numErrors_;
}

void DiagnosticEngine::warning(std::string message, SrcLoc loc) {
  diags_.push_back({DiagSeverity::Warning, loc, std::move(message)});
}

void DiagnosticEngine::note(std::string message, SrcLoc loc) {
  diags_.push_back({DiagSeverity::Note, loc, std::move(message)});
}

void DiagnosticEngine::report(Diagnostic diag) {
  if (diag.severity == DiagSeverity::Error)
    ++numErrors_;
  diags_.push_back(std::move(diag));
}

std::string DiagnosticEngine::str() const {
  std::string out;
  for (const Diagnostic &d : diags_) {
    out += d.str();
    out += '\n';
  }
  return out;
}

} // namespace mha
