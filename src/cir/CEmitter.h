//===- cir/CEmitter.h - unparse C-IR to C with intrinsics ------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unparses a C-IR function into single-source C (paper Stage 3). Vector
/// instructions map to AVX/AVX2 (nu = 4) or SSE2 (nu = 2) intrinsics;
/// leftover lanes use masked loads/stores; VShuffle is lowered to
/// blend/permute sequences (the output of the load/store analysis,
/// paper Fig. 12b).
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_CIR_CEMITTER_H
#define SLINGEN_CIR_CEMITTER_H

#include "cir/CIR.h"

#include <string>
#include <vector>

namespace slingen {
namespace cir {

/// Returns the C definition of \p F (a `void NAME(double*, ...)` function).
/// The translation unit prelude (includes) is NOT included; see
/// emitTranslationUnit.
std::string emitFunction(const Function &F);

/// Like emitFunction, but very large kernels (more than \p MaxInstsPerPart
/// instructions) are split into a chain of static part-functions called in
/// sequence from the named entry point. Splits happen only at top-level
/// points where no virtual register is live across, so semantics are
/// unchanged; compiler temporaries (Locals) stay in the entry function's
/// frame and are passed to every part, so the kernel stays re-entrant.
/// Splitting keeps the C compiler's
/// per-function analyses (which scale superlinearly) fast on the fully
/// unrolled large-size kernels.
std::string emitFunctionSplit(const Function &F, int MaxInstsPerPart);

/// Returns a complete compilable C translation unit containing \p F.
/// Kernels beyond ~64k instructions are emitted via emitFunctionSplit.
std::string emitTranslationUnit(const Function &F);

/// One translation unit defining every function of \p Fs under a single
/// prelude -- e.g. the tuning unit that holds every candidate variant, so
/// the C compiler runs once for all of them. Names must be distinct.
std::string emitTranslationUnit(const std::vector<const Function *> &Fs);

/// The C prototype of \p F ("void name(double *A, const double *B)").
std::string emitPrototype(const Function &F);

} // namespace cir
} // namespace slingen

#endif // SLINGEN_CIR_CEMITTER_H
