// Verifier.h - structural and SSA well-formedness checks for MiniLLVM.
#pragma once

#include "support/Diagnostics.h"

namespace mha::lir {

class Module;
class Function;

/// Verifies the module; reports problems into `diags` and returns true when
/// no errors were found. Checks: terminators, phi/predecessor agreement,
/// per-opcode operand typing, call signatures, and SSA dominance (only a
/// phi may use its own result).
///
/// Verification is not read-only: it first canonicalizes each function's
/// value and block names (Function::renumberValues — unnamed values are
/// numbered, duplicates get ".N" suffixes). Those names show in printed
/// LIR, in the StageCache synth key hashed from it and in report loop
/// names, so where verification runs is visible in the output. Renaming
/// is idempotent: verifying an unchanged, verified module changes nothing.
bool verifyModule(const Module &module, DiagnosticEngine &diags);
bool verifyFunction(const Function &fn, DiagnosticEngine &diags);

} // namespace mha::lir
