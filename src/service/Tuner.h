//===- service/Tuner.h - measured variant autotuning ----------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's "measure the generated function" autotuning step, fully
/// wired: the static cost model pre-ranks Generator::enumerate() output,
/// the top-K candidates are timed with median-of-k runs on deterministic
/// inputs, and the fastest measured variant wins. The batch-strategy
/// chooser does the same over the loop/fused emissions of one kernel.
///
/// Each tuning stage verifies every cir::Function it prints, then puts all
/// of its candidates into one translation unit under per-candidate symbol
/// prefixes and compiles that unit once -- with the flags and output path
/// of the artifact it may become -- so the object that was timed is the
/// object the service ships. When the environment cannot measure (no
/// system C compiler, no cycle counter, a target wider than the host) or
/// the unit fails to compile, tuning degrades to the static ranking -- the
/// same policy Generator::best() implements -- and says so in the result.
///
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SERVICE_TUNER_H
#define SLINGEN_SERVICE_TUNER_H

#include "runtime/Jit.h"
#include "runtime/Timing.h"
#include "slingen/SLinGen.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace slingen {
namespace service {

struct TuneOptions {
  int TopK = 4;         ///< candidates measured (by static-cost rank)
  int MaxVariants = 16; ///< Generator::enumerate() budget
  runtime::MeasureOptions Measure{/*Repeats=*/9, /*Warmup=*/2,
                                  /*MinCycles=*/10000};
  std::string ExtraFlags; ///< compiler flags (e.g. isaCompileFlags)
  /// Where the tuning unit's shared object is published when it is the
  /// artifact to ship (the service passes its disk-tier path): the unit
  /// then compiles exactly as a shipped artifact does. Empty compiles a
  /// process-local object. See runtime::CompileOptions::KeepSoPath.
  std::string KeepSoPath;
};

/// The one shared object a tuning stage builds: every candidate of the
/// stage in one translation unit, each under its own symbol prefix.
struct TuningUnit {
  std::string Source;   ///< the whole translation unit
  std::string FuncName; ///< the winner's symbol prefix in Source
  /// The compiled unit, bound to FuncName; null when the stage did not
  /// compile (nothing to measure) or the compile failed.
  std::shared_ptr<runtime::JitKernel> Kernel;
  int Compiles = 0;       ///< C compiler runs started (0 or 1)
  long CompileUs = 0;     ///< wall time of that run
  long MeasureUs = 0;     ///< wall time spent timing candidates
  std::string CompileErr; ///< diagnostics when the compile failed
};

struct TuneResult {
  GenResult Result; ///< the winner, under the generator's function name
  bool Measured = false;      ///< ranking came from real timings
  double MedianCycles = 0.0;  ///< winner's median (when Measured)
  int CandidatesMeasured = 0; ///< variants timed
  /// When Measured: the compiled unit of the top-K variants, `<name>_v<i>`
  /// each (just `<name>` when only one variant competed).
  TuningUnit Unit;
  /// A candidate failed cir::verify: nothing was compiled or run.
  std::optional<cir::VerifyError> Rejected;
};

/// Picks the best variant of \p G. Returns std::nullopt (with \p Err) only
/// when no variant can be generated at all.
std::optional<TuneResult> tuneKernel(const Generator &G, const TuneOptions &T,
                                     std::string &Err);

/// As tuneKernel over variants the caller already enumerated (sorted by
/// static cost, as Generator::enumerate() returns them).
std::optional<TuneResult> tuneVariants(std::vector<GenResult> All,
                                       const TuneOptions &T,
                                       std::string &Err);

/// Outcome of resolving BatchStrategy::Auto for one batched kernel.
struct BatchChoice {
  BatchStrategy Strategy = BatchStrategy::ScalarLoop; ///< never Auto
  /// Resolved dispatch width (>= 1): how many threads the batch thread
  /// pool should spread Nu-instance blocks across for this kernel. 1 means
  /// single-threaded dispatch.
  int Threads = 1;
  bool Measured = false; ///< strategy choice came from real timings
  /// Sum of the median cycles over the two probe batches (one Nu-divisible,
  /// one remainder-heavy; when Measured). Lower is better.
  double LoopCycles = 0.0;
  double FusedCycles = 0.0;
  /// True when the thread count was resolved by measurement (an auto
  /// policy on a multicore host with a runnable kernel).
  bool ThreadsMeasured = false;
  double SingleCycles = 0.0;   ///< winner at the large batch, one thread
  double ThreadedCycles = 0.0; ///< winner at the large batch, Threads wide
  /// The verified translation unit to ship for Strategy. When Measured it
  /// is the compiled tuning unit of every candidate (Unit.FuncName the
  /// winner's batchCandidateName); otherwise the chosen strategy's own
  /// emission under R.Func.Name, not compiled.
  TuningUnit Unit;
  /// A printed function failed cir::verify: nothing was compiled or run,
  /// and Unit is empty.
  std::optional<cir::VerifyError> Rejected;
};

/// Resolves BatchStrategy::Auto for the tuned kernel \p R generated under
/// \p O: when a compiler, a cycle counter, and a host that can execute the
/// target ISA are all available (and \p AllowCompile), both batched
/// emissions -- the scalar loop and the fused instance-parallel form --
/// are compiled as one tuning unit and timed over
/// two deterministic instance batches (one divisible by every supported
/// Nu, one remainder-heavy to exercise the masked tail) and the lowest
/// summed median wins; otherwise the static cost model compares the
/// scalar-loop estimate against the fused estimate (scalar kernel cost
/// over Nu lanes plus the strided-access overhead). Scalar targets always
/// resolve to ScalarLoop.
///
/// \p ThreadsPolicy pins the dispatch width when >= 1; 0 asks the chooser
/// to resolve it: the winning strategy is re-timed over a larger batch
/// single-threaded versus spread across defaultBatchThreads() cores, and
/// Threads records whichever won. Unmeasurable environments resolve an
/// auto policy to 1.
BatchChoice chooseBatchStrategy(const GenResult &R, const GenOptions &O,
                                const TuneOptions &T, bool AllowCompile,
                                int ThreadsPolicy = 0);

} // namespace service
} // namespace slingen

#endif // SLINGEN_SERVICE_TUNER_H
