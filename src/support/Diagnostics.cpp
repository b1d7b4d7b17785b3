#include "support/Diagnostics.h"

#include "support/StringUtils.h"

namespace mha {

std::string SrcLoc::str() const {
  if (!isValid())
    return "<unknown>";
  return strfmt("%d:%d", line, col);
}

NestingLimit::Level::Level(NestingLimit &limit, SrcLoc loc)
    : limit_(limit),
      ok_(++limit.depth_ <= kMaxNestingDepth && !limit.exceeded_) {
  if (ok_ || limit_.exceeded_)
    return;
  limit_.exceeded_ = true;
  limit_.diags_.error(strfmt("%snesting deeper than %d levels",
                             limit_.prefix_, kMaxNestingDepth),
                      loc);
}

namespace {

/// Appends `diag` as "[line:col: ]severity: message". Concatenated rather
/// than formatted: a cached flow stage replays its diagnostics on every
/// hit, and each flow run renders all of them.
void render(const Diagnostic &diag, std::string &out) {
  if (diag.loc.isValid())
    out.append(diag.loc.str()).append(": ");
  out.append(diag.severity == DiagSeverity::Error     ? "error"
             : diag.severity == DiagSeverity::Warning ? "warning"
                                                      : "note");
  out.append(": ").append(diag.message);
}

} // namespace

std::string Diagnostic::str() const {
  std::string out;
  render(*this, out);
  return out;
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
    render(d, out);
    out += '\n';
  }
  return out;
}

} // namespace mha
