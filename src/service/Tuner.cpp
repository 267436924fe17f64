//===- service/Tuner.cpp --------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Tuner.h"

#include "cir/CEmitter.h"
#include "expr/Operand.h"
#include "isa/ISA.h"
#include "obs/Trace.h"
#include "runtime/BatchPool.h"
#include "runtime/Jit.h"
#include "support/AlignedBuffer.h"
#include "support/Format.h"
#include "support/Random.h"

#include <algorithm>
#include <functional>
#include <vector>

using namespace slingen;
using namespace slingen::service;

namespace {

/// Deterministic, structure-respecting data for one instance of \p P:
/// SPD for positive-definite operands, well-conditioned triangular for
/// triangular ones, uniform [1, 2) (positive, denormal-free) otherwise --
/// so the div/sqrt chains the cost comparison hinges on run on numerically
/// realistic values instead of NaNs from e.g. sqrt of a negative.
void fillInstance(const Operand *P, Rng &Rand, double *Out) {
  const int Rows = P->Rows, Cols = P->Cols;
  if (P->PosDef && Rows == Cols && Rows > 1) {
    std::vector<double> G(static_cast<size_t>(Rows) * Rows);
    for (double &V : G)
      V = Rand.uniform(-1.0, 1.0);
    for (int I = 0; I < Rows; ++I)
      for (int J = 0; J < Rows; ++J) {
        double Acc = I == J ? Rows : 0.0;
        for (int K = 0; K < Rows; ++K)
          Acc += G[K * Rows + I] * G[K * Rows + J];
        Out[I * Rows + J] = Acc;
      }
    return;
  }
  if (Rows == Cols && Rows > 1 &&
      (P->Structure == StructureKind::LowerTriangular ||
       P->Structure == StructureKind::UpperTriangular)) {
    bool Lower = P->Structure == StructureKind::LowerTriangular;
    for (int I = 0; I < Rows; ++I)
      for (int J = 0; J < Rows; ++J) {
        bool Stored = I == J || (Lower ? J < I : J > I);
        Out[I * Rows + J] =
            I == J ? Rand.uniform(1.0, 2.0) + 2.0
                   : (Stored ? Rand.uniform(-1.0, 1.0) : 0.0);
      }
    return;
  }
  for (long I = 0; I < static_cast<long>(Rows) * Cols; ++I)
    Out[I] = Rand.uniform(1.0, 2.0);
}

/// Deterministic parameter buffers (see fillInstance) refilled identically
/// before each candidate so in-place kernels (which overwrite their
/// operands between repeats) are ranked on equal inputs.
void fillBuffers(const GenResult &R, std::vector<AlignedBuffer> &Store,
                 std::vector<double *> &Bufs) {
  Store.clear();
  Bufs.clear();
  uint64_t Seed = 0x5eedULL;
  for (const Operand *P : R.Func.Params) {
    Rng Rand(Seed += 0x9e3779b97f4a7c15ULL);
    auto &Buf = Store.emplace_back(static_cast<size_t>(P->Rows) * P->Cols);
    fillInstance(P, Rand, Buf.data());
  }
  for (auto &S : Store)
    Bufs.push_back(S.data());
}

} // namespace

namespace {

/// Deterministic per-parameter instance arrays for a Count-instance batch
/// (see fillInstance), 64-byte aligned like production batch buffers.
/// Fresh keeps an untouched copy so in-place kernels can be re-run on
/// unfactored data.
struct BatchBuffers {
  std::vector<AlignedBuffer> Store, Fresh;
  std::vector<double *> Bufs;

  BatchBuffers(const GenResult &R, int Count) {
    uint64_t Seed = 0x5eedULL;
    for (const Operand *P : R.Func.Params) {
      Rng Rand(Seed += 0x9e3779b97f4a7c15ULL);
      size_t Sz = static_cast<size_t>(P->Rows) * P->Cols;
      auto &Buf = Store.emplace_back(Sz * Count);
      for (int Inst = 0; Inst < Count; ++Inst)
        fillInstance(P, Rand, Buf.data() + Inst * Sz);
    }
    for (auto &S : Store) {
      Fresh.emplace_back(S);
      Bufs.push_back(S.data());
    }
  }

  void refill() {
    for (size_t I = 0; I < Store.size(); ++I)
      std::copy(Fresh[I].data(), Fresh[I].data() + Fresh[I].size(),
                Store[I].data());
  }
};

/// Compiles the tuning unit \p U (Source and FuncName set) once, with
/// \p More as further entry prefixes, through the artifact's compile path.
/// Returns false (CompileErr set) when the compiler rejects it.
bool compileUnit(TuningUnit &U, int NumParams, const TuneOptions &T,
                 bool Batched, std::vector<std::string> More) {
  runtime::CompileOptions CO;
  CO.ExtraFlags = T.ExtraFlags;
  CO.KeepSoPath = T.KeepSoPath;
  CO.WithBatchEntry = Batched;
  CO.MoreEntries = std::move(More);
  ++U.Compiles;
  obs::ScopedSpan Cc("compile", "tuner");
  auto K = runtime::JitKernel::compile(U.Source, U.FuncName, NumParams, CO,
                                       U.CompileErr);
  U.CompileUs += Cc.finish();
  if (!K)
    return false;
  U.Kernel = std::make_shared<runtime::JitKernel>(std::move(*K));
  return true;
}

/// Median cycles of \p Run under \p T, with the wall time added to
/// \p U.MeasureUs.
double timeCandidate(TuningUnit &U, const TuneOptions &T,
                     const std::function<void()> &Run) {
  obs::ScopedSpan Meas("tuner-measure", "tuner",
                       &obs::Registry::global().histogram("tuner.measure.us"));
  double Median = runtime::measureCycles(Run, T.Measure).Median;
  U.MeasureUs += Meas.finish();
  return Median;
}

} // namespace

BatchChoice service::chooseBatchStrategy(const GenResult &R,
                                         const GenOptions &O,
                                         const TuneOptions &T,
                                         bool AllowCompile,
                                         int ThreadsPolicy) {
  BatchChoice C;
  C.Threads = ThreadsPolicy >= 1 ? ThreadsPolicy : 1;
  const int Nu = O.Isa->Nu;
  // Measure when possible; running a wider ISA than the host executes
  // would fault, not measure.
  const bool CanMeasure = AllowCompile && runtime::haveSystemCompiler() &&
                          runtime::haveCycleCounter() && Nu <= hostIsa().Nu;

  // One scalar recompile feeds both widened kernels printed below;
  // without them there is only the scalar loop to serve.
  std::optional<WidenedKernels> W = widenKernels(R, &O);

  // Static cost model: one block amortizes the widened kernel (same
  // instruction count as the scalar kernel, vector-width issue) over Nu
  // instances; the fused form's gathers/scatters touch elements one lane
  // at a time, modeled as a fraction of a cycle per element. Compare per
  // instance against the scalar-loop estimate.
  std::vector<BatchStrategy> Cands = {BatchStrategy::ScalarLoop};
  if (W) {
    long SumElems = 0;
    for (const Operand *P : R.Func.Params)
      SumElems += static_cast<long>(P->Rows) * P->Cols;
    long FusedPerInst = staticCost(W->Scalar.Func) / Nu + SumElems / 2;
    if (FusedPerInst < staticCost(R.Func))
      C.Strategy = BatchStrategy::InstanceParallelFused;
    Cands.push_back(BatchStrategy::InstanceParallelFused);
  }
  const WidenedKernels *WP = W ? &*W : nullptr;
  // What ships when nothing was measured: the static choice's own
  // emission, for the caller to compile.
  auto KeepStatic = [&] {
    C.Unit.Kernel.reset();
    C.Unit.Source = emitBatchUnit(R, {C.Strategy}, WP);
    C.Unit.FuncName = R.Func.Name;
    return std::move(C);
  };
  if (!CanMeasure || Cands.size() < 2) {
    C.Rejected = verifyKernels(
        R, C.Strategy == BatchStrategy::ScalarLoop ? nullptr : WP);
    return C.Rejected ? C : KeepStatic();
  }

  // The tuning unit: every candidate, each verified before the one
  // compile, under its batchCandidateName prefix.
  if ((C.Rejected = verifyKernels(R, WP)))
    return C;
  std::vector<std::string> Names;
  for (BatchStrategy S : Cands)
    Names.push_back(batchCandidateName(R.Func.Name, S));
  C.Unit.Source = emitBatchUnit(R, Cands, WP);
  C.Unit.FuncName = Names.front();
  const int NumParams = static_cast<int>(R.Func.Params.size());
  if (!compileUnit(C.Unit, NumParams, T, /*Batched=*/true,
                   {Names.begin() + 1, Names.end()}))
    return KeepStatic();
  runtime::JitKernel &K = *C.Unit.Kernel;

  // Two probe batches: one divisible by every supported Nu (pure
  // full-block path) and one remainder-heavy (count % Nu == Nu/2, the
  // masked-tail path production batches pay on ragged counts). Ranking by
  // the sum of the two medians keeps a strategy with a fast block loop but
  // a slow tail from winning on divisible counts alone.
  const int ProbeCounts[2] = {64, 64 + Nu / 2};
  int Best = -1;
  double BestCycles = 0.0;
  for (size_t I = 0; I < Cands.size(); ++I) {
    std::string Err;
    if (!K.bind(Names[I], Err))
      continue;
    double Sum = 0.0;
    for (int Count : ProbeCounts) {
      BatchBuffers B(R, Count);
      Sum += timeCandidate(C.Unit, T, [&] {
        B.refill();
        K.callBatch(Count, B.Bufs.data());
      });
    }
    (Cands[I] == BatchStrategy::ScalarLoop ? C.LoopCycles : C.FusedCycles) =
        Sum;
    if (Best < 0 || Sum < BestCycles) {
      Best = static_cast<int>(I);
      BestCycles = Sum;
    }
  }
  std::string Err;
  if (Best < 0 || !K.bind(Names[Best], Err))
    return KeepStatic();
  C.Measured = true;
  C.Strategy = Cands[Best];
  C.Unit.FuncName = Names[Best];

  // Thread resolution (auto policy only): re-time the winner over a batch
  // large enough to amortize a pool wakeup, single-threaded versus spread
  // across the host's cores, and keep whichever is faster. Pinned
  // policies skip this -- the caller already decided.
  if (ThreadsPolicy == 0) {
    const int N = runtime::defaultBatchThreads();
    if (N > 1 && K.hasBatchSpan()) {
      // Large enough to amortize the pool wakeup, plus a ragged tail so
      // the threaded timing includes the masked remainder block.
      const int CountMT = 64 * Nu + Nu / 2;
      BatchBuffers B(R, CountMT);
      C.SingleCycles = timeCandidate(C.Unit, T, [&] {
        B.refill();
        K.callBatch(CountMT, B.Bufs.data());
      });
      C.ThreadedCycles = timeCandidate(C.Unit, T, [&] {
        B.refill();
        runtime::callBatchParallel(K, CountMT, B.Bufs.data(), Nu, N);
      });
      C.ThreadsMeasured = true;
      C.Threads = C.ThreadedCycles < C.SingleCycles ? N : 1;
    }
  }
  return C;
}

std::optional<TuneResult> service::tuneKernel(const Generator &G,
                                              const TuneOptions &T,
                                              std::string &Err) {
  return tuneVariants(G.enumerate(T.MaxVariants), T, Err);
}

std::optional<TuneResult> service::tuneVariants(std::vector<GenResult> All,
                                                const TuneOptions &T,
                                                std::string &Err) {
  if (All.empty()) {
    Err = "no feasible variant";
    return std::nullopt;
  }

  TuneResult Best;
  // Static fallback (enumerate() already sorted by the cost model) when we
  // cannot compile, cannot time, or the target ISA is wider than the host
  // can execute -- running such a candidate would fault, not measure.
  if (!runtime::haveSystemCompiler() || !runtime::haveCycleCounter() ||
      All.front().Func.Nu > hostIsa().Nu) {
    Best.Result = std::move(All.front());
    return Best;
  }

  // The tuning unit: the top-K variants under `<name>_v<i>`, each verified
  // before the one compile.
  const int TopK =
      std::min<int>(std::max(T.TopK, 1), static_cast<int>(All.size()));
  const std::string Base = All.front().Func.Name;
  std::vector<const cir::Function *> Fs;
  std::vector<std::string> Names;
  for (int I = 0; I < TopK; ++I) {
    if (TopK > 1)
      All[I].Func.Name = formatf("%s_v%d", Base.c_str(), I);
    Names.push_back(All[I].Func.Name);
    Fs.push_back(&All[I].Func);
    if (!Best.Rejected)
      Best.Rejected = cir::verifyFirst(All[I].Func);
  }
  auto Finish = [&](int Idx) -> std::optional<TuneResult> {
    for (int I = 0; I < TopK; ++I)
      All[I].Func.Name = Base;
    Best.Result = std::move(All[Idx]);
    return std::move(Best);
  };
  if (Best.Rejected)
    return Finish(0);
  Best.Unit.Source = cir::emitTranslationUnit(Fs);
  Best.Unit.FuncName = Names.front();
  if (!compileUnit(Best.Unit, static_cast<int>(All[0].Func.Params.size()),
                   T, /*Batched=*/false, {Names.begin() + 1, Names.end()})) {
    // The unit failed to compile (e.g. cross-ISA flags the local compiler
    // rejects): fall back to the static ranking rather than fail.
    Err = Best.Unit.CompileErr;
    return Finish(0);
  }
  runtime::JitKernel &K = *Best.Unit.Kernel;
  int BestIdx = -1;
  double BestCycles = 0.0;
  for (int I = 0; I < TopK; ++I) {
    if (!K.bind(Names[I], Err))
      continue;
    ++Best.CandidatesMeasured;
    std::vector<AlignedBuffer> Store;
    std::vector<double *> Bufs;
    fillBuffers(All[I], Store, Bufs);
    double Median =
        timeCandidate(Best.Unit, T, [&] { K.call(Bufs.data()); });
    if (BestIdx < 0 || Median < BestCycles) {
      BestIdx = I;
      BestCycles = Median;
    }
  }
  if (BestIdx < 0 || !K.bind(Names[BestIdx], Err)) {
    Best.Unit.Kernel.reset();
    return Finish(0);
  }
  Best.Unit.FuncName = Names[BestIdx];
  Best.Measured = true;
  Best.MedianCycles = BestCycles;
  return Finish(BestIdx);
}
