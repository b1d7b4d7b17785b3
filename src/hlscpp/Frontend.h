// Frontend.h - a C-subset frontend modelling the HLS tool's C++ parser.
//
// Parses the HLS C++ produced by the emitter (functions over static
// arrays, perfect for-loops, #pragma HLS directives, scalar locals) and
// generates *legacy-dialect* MiniLLVM directly: typed pointers, shaped
// GEPs, xlx.* directive metadata — the native output of an old-LLVM-based
// HLS frontend. Locals start as allocas; the embedded "O2-lite" pipeline
// (mem2reg, simplifycfg, instcombine, cse, dce) then promotes them, as
// clang+opt do inside the real tool.
#pragma once

#include "lir/Function.h"
#include "lir/PassManager.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>

namespace mha::hlscpp {

/// Parses `source` into a MiniLLVM module in the HLS frontend's dialect.
/// Returns nullptr on error. When `optimize` is set, runs the frontend's
/// standard cleanup pipeline (canonical loop form for the scheduler).
std::unique_ptr<lir::Module> parseHlsCpp(std::string_view source,
                                         lir::LContext &ctx,
                                         DiagnosticEngine &diags,
                                         bool optimize = true);

/// Adds the frontend's standard cleanup pipeline (the passes parseHlsCpp
/// runs when `optimize` is set) to `pm`.
void buildFrontendPipeline(lir::PassManager &pm);

} // namespace mha::hlscpp
