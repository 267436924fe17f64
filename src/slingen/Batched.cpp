//===- slingen/Batched.cpp - batched entry-point emission -----------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batched codegen strategies behind `<name>_batch(int count, ...)`
// (paper Sec. 5). ScalarLoop wraps the single-instance kernel in a loop
// over instances; InstanceParallelFused widens the kernel's scalar C-IR to
// one vector lane per instance with lane-strided parameter accesses (see
// cir/Widen.h), so the block kernel reads and writes the batch ABI
// directly, and runs the count % Nu remainder through one runtime-masked
// widened block (`_fusedtail`) so odd counts never drop out of vector
// code. Every strategy also emits the
// `<name>_batch_span(int start, int count, ...)` sub-range entry the
// runtime batch thread pool dispatches blocks through. A tuning unit holds
// several strategies in one translation unit: the single-instance kernel
// and the widened block kernels once, each strategy's entry points under
// its own `<name>_<strategy>` prefix.
//
//===----------------------------------------------------------------------===//

#include "slingen/SLinGen.h"

#include "cir/CEmitter.h"
#include "cir/Passes.h"
#include "cir/Verify.h"
#include "cir/Widen.h"
#include "support/Format.h"

#include <cassert>

using namespace slingen;

const char *slingen::batchStrategyName(BatchStrategy S) {
  switch (S) {
  case BatchStrategy::ScalarLoop:
    return "loop";
  case BatchStrategy::InstanceParallelFused:
    return "fused";
  case BatchStrategy::Auto:
    return "auto";
  }
  return "loop";
}

std::optional<BatchStrategy>
slingen::batchStrategyByName(const std::string &Name) {
  if (Name == "loop")
    return BatchStrategy::ScalarLoop;
  if (Name == "fused" || Name == "vec")
    return BatchStrategy::InstanceParallelFused;
  if (Name == "auto")
    return BatchStrategy::Auto;
  return std::nullopt;
}

namespace {

/// `double *__restrict A` / `const double *__restrict B`, matching the
/// kernel's writability convention.
std::string batchParamDecl(const cir::Function &F, size_t I) {
  bool W = F.ParamWritable.empty() || F.ParamWritable[I];
  return std::string(W ? "" : "const ") + "double *__restrict " +
         F.Params[I]->Name;
}

long paramSize(const cir::Function &F, size_t I) {
  return static_cast<long>(F.Params[I]->Rows) * F.Params[I]->Cols;
}

/// The hoisted per-parameter instance strides `const long s_i = Rows_i*Cols_i;`.
std::string strideDecls(const cir::Function &F) {
  std::string C;
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("  const long s_%zu = %ld;\n", I, paramSize(F, I));
  return C;
}

/// The `<P>_batch` signature plus the stride constants.
std::string batchHeader(const cir::Function &F, const std::string &P) {
  std::string C = "\nvoid " + P + "_batch(int count";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += ", " + batchParamDecl(F, I);
  C += ") {\n";
  C += strideDecls(F);
  return C;
}

/// One scalar call over instance b's slices, e.g. `kern(A + b * s_0, ...)`.
std::string scalarCall(const cir::Function &F, const char *Idx) {
  std::string C = F.Name + "(";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("%s%s + %s * s_%zu", I ? ", " : "",
                 F.Params[I]->Name.c_str(), Idx, I);
  return C + ")";
}

/// `<P>_batch_span(int start, int count, ...)`: the sub-range entry the
/// batch thread pool calls -- instances [start, start+count) of the batch,
/// forwarded to `<P>_batch` at per-parameter offsets. Every strategy emits
/// it, so a shared object supports threaded dispatch regardless of which
/// emission won.
std::string batchSpan(const cir::Function &F, const std::string &P) {
  std::string C = "void " + P + "_batch_span(int start, int count";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += ", " + batchParamDecl(F, I);
  C += ") {\n";
  C += strideDecls(F);
  C += "  " + P + "_batch(count";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf(", %s + (long)start * s_%zu", F.Params[I]->Name.c_str(), I);
  C += ");\n}\n";
  return C;
}

/// `<P>_batch` and `<P>_batch_span` for strategy \p S around the
/// single-instance kernel F, calling W's widened kernels (all printed
/// earlier in the unit).
std::string batchBody(const cir::Function &F, const std::string &P,
                      BatchStrategy S, const WidenedKernels *W) {
  const int Nu = F.Nu;
  std::string C;
  if (S == BatchStrategy::ScalarLoop) {
    C += batchHeader(F, P);
    C += "  for (int b = 0; b < count; ++b)\n    " + scalarCall(F, "b") +
         ";\n}\n";
    return C + batchSpan(F, P);
  }
  // The block kernel (lane l of every vector register holds instance
  // b*Nu + l, element e of lane l at offset l*s_i + e, gathered/scattered
  // by the strided accesses) is handed the block base pointers of the
  // caller's buffers directly. Block bases
  // are kept in running pointers bumped by the (hoisted, constant) block
  // strides so the loop body carries no per-iteration multiplies, and
  // the count % Nu remainder is one masked block call instead of a
  // scalar loop.
  C += batchHeader(F, P);
  for (size_t I = 0; I < F.Params.size(); ++I) {
    bool Writable = F.ParamWritable.empty() || F.ParamWritable[I];
    C += formatf("  %sdouble *bp_%zu = %s;\n", Writable ? "" : "const ", I,
                 F.Params[I]->Name.c_str());
  }
  C += "  int b = 0;\n";
  C += formatf("  for (; b + %d <= count; b += %d) {\n", Nu, Nu);
  C += "    " + W->Fused.Func.Name + "(";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("%sbp_%zu", I ? ", " : "", I);
  C += ");\n";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("    bp_%zu += %d * s_%zu;\n", I, Nu, I);
  C += "  }\n";
  C += "  if (b < count)\n";
  C += "    " + W->FusedTail.Func.Name + "(";
  for (size_t I = 0; I < F.Params.size(); ++I)
    C += formatf("%sbp_%zu", I ? ", " : "", I);
  C += formatf("%scount - b);\n", F.Params.empty() ? "" : ", ");
  C += "}\n";
  return C + batchSpan(F, P);
}

/// The scalar (nu = 1) re-compilation of \p R.Basic the wideners consume
/// (see widenKernels).
std::optional<ScalarRecompile> recompileScalar(const GenResult &R,
                                               const GenOptions *Opts) {
  ScalarRecompile S;
  S.Basic = R.Basic.clone();
  GenOptions O;
  if (Opts)
    O = *Opts;
  O.Isa = &scalarIsa();
  O.FuncName = R.Func.Name;
  S.Func = compileBasicProgram(S.Basic, O);
  // The widened kernel is called positionally from the batch driver, so the
  // scalar signature must line up with R.Func's.
  if (S.Func.Params.size() != R.Func.Params.size())
    return std::nullopt;
  for (size_t I = 0; I < S.Func.Params.size(); ++I)
    if (S.Func.Params[I]->Name != R.Func.Params[I]->Name)
      return std::nullopt;
  return S;
}

} // namespace

std::optional<WidenedKernels> slingen::widenKernels(const GenResult &R,
                                                    const GenOptions *Opts) {
  const int Nu = R.Func.Nu;
  if (Nu < 2)
    return std::nullopt; // scalar target: no lanes to parallelize across
  std::optional<ScalarRecompile> Scalar = recompileScalar(R, Opts);
  if (!Scalar)
    return std::nullopt;
  const cir::Function &SF = Scalar->Func;
  const std::string &N = R.Func.Name;
  // The block kernel plus its runtime-masked tail: one widened block that
  // executes exactly the first `active_` lanes' instances, so count % Nu
  // never drops out of vector code.
  auto Blk = cir::widenAcrossInstancesFused(SF, Nu, N + "_fusedblk");
  auto Tail = cir::widenAcrossInstancesFusedMasked(SF, Nu, N + "_fusedtail");
  if (!Blk || !Tail)
    return std::nullopt;
  WidenedKernels W{std::move(*Scalar), std::move(*Blk), std::move(*Tail)};
  // Contract mul+add chains into hardware FMAs on ISAs that have them
  // (Nu >= 4: AVX/AVX-512). Applied identically to both widened kernels so
  // tail lanes stay bit-identical to full-block lanes; never applied inside
  // the wideners themselves, keeping the hermetic widen-vs-scalar
  // interpreter tests exact.
  if (Nu >= 4)
    for (cir::WidenedFunction *WF : {&W.Fused, &W.FusedTail})
      cir::contractFma(WF->Func);
  return W;
}

std::optional<cir::VerifyError>
slingen::verifyKernels(const GenResult &R, const WidenedKernels *W) {
  if (auto E = cir::verifyFirst(R.Func))
    return E;
  if (!W)
    return std::nullopt;
  for (const cir::Function *F :
       {&W->Scalar.Func, &W->Fused.Func, &W->FusedTail.Func})
    if (auto E = cir::verifyFirst(*F))
      return E;
  return std::nullopt;
}

std::string slingen::batchCandidateName(const std::string &FuncName,
                                        BatchStrategy S) {
  return FuncName + "_" + batchStrategyName(S);
}

std::string slingen::emitBatchUnit(const GenResult &R,
                                   const std::vector<BatchStrategy> &Ss,
                                   const WidenedKernels *W) {
  const cir::Function &F = R.Func;
  std::vector<const cir::Function *> Fs = {&F};
  for (BatchStrategy S : Ss) {
    assert((S == BatchStrategy::ScalarLoop || W) &&
           "strategy without its widened kernels");
    if (S == BatchStrategy::InstanceParallelFused) {
      Fs.push_back(&W->Fused.Func);
      Fs.push_back(&W->FusedTail.Func);
    }
  }
  std::string C = cir::emitTranslationUnit(Fs);
  for (BatchStrategy S : Ss) {
    if (Ss.size() == 1) {
      C += batchBody(F, F.Name, S, W);
      continue;
    }
    // A candidate's own name for the shared single-instance kernel, so
    // `<candidate>_entry` resolves like the unsuffixed form's.
    std::string P = batchCandidateName(F.Name, S);
    C += "\nextern __typeof__(" + F.Name + ") " + P +
         " __attribute__((alias(\"" + F.Name + "\")));\n";
    C += batchBody(F, P, S, W);
  }
  return C;
}

std::string slingen::emitBatchedC(const GenResult &R) {
  return emitBatchUnit(R, {BatchStrategy::ScalarLoop}, nullptr);
}

std::string slingen::emitBatchedVectorFusedC(const GenResult &R,
                                             const GenOptions *Opts,
                                             bool *UsedVector) {
  std::optional<WidenedKernels> W = widenKernels(R, Opts);
  if (UsedVector)
    *UsedVector = W.has_value();
  if (!W)
    return emitBatchedC(R);
  for (const cir::Function *F : {&W->Fused.Func, &W->FusedTail.Func})
    cir::verifyAssert(*F, "batched-widen");
  return emitBatchUnit(R, {BatchStrategy::InstanceParallelFused}, &*W);
}

std::string slingen::emitBatchedVectorC(const GenResult &R,
                                        const GenOptions *Opts,
                                        bool *UsedVector) {
  return emitBatchedVectorFusedC(R, Opts, UsedVector);
}

std::optional<cir::VerifyError>
slingen::verifyEmittedIR(const GenResult &R, const GenOptions *Opts,
                         bool Batched, BatchStrategy Strategy) {
  std::optional<WidenedKernels> W;
  if (Batched && Strategy != BatchStrategy::ScalarLoop)
    W = widenKernels(R, Opts);
  return verifyKernels(R, W ? &*W : nullptr);
}
