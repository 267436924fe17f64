//===- perfbench/Kernels.h - timing served kernels and their baselines ----===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Harnesses around served sl::Kernel handles: a single-instance kernel
/// timed interleaved with the in-tree baselines of its computation
/// (src/baselines: refblas, smallet, naive, cl1ck) on identical inputs, and
/// a batched kernel timed over a set of instance counts. Both check their
/// outputs against expr::Evaluator after timing.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KERNELS_H
#define PERFBENCH_KERNELS_H

#include "Common.h"

#include "support/AlignedBuffer.h"

#include <functional>
#include <memory>

namespace perfbench {

/// TSC ticks per nanosecond, measured once against the steady clock.
double ticksPerNs();

/// A served single-instance kernel with seeded inputs, its reference
/// outputs and the baselines that compute the same thing.
struct SingleBench {
  ReqSpec Spec;
  ProgramInfo Info;
  sl::Kernel K;
  std::vector<std::vector<double>> In, Want;
  std::vector<slingen::AlignedBuffer> Bufs; ///< 64-byte aligned parameters
  std::vector<double *> Ptrs;
  std::vector<int> Reset; ///< parameters read and written: restored per call

  struct Impl {
    std::string Name;
    std::function<void()> Fn;
  };
  std::vector<Impl> Baselines;
  std::vector<slingen::AlignedBuffer> Work; ///< baseline working storage
  double Scalars[3] = {0, 0, 0}; ///< scalar outputs of the gpr baselines

  /// Per-round cycles per call: [0] the generated kernel, then one entry
  /// per baseline.
  std::vector<std::vector<double>> Cycles;
  int Reps = 1;          ///< calls per timing window

  /// Prepares inputs from \p Seed, the reference and the baselines (K may
  /// be attached afterwards).
  bool prepare(uint64_t Seed, std::string &Err);
  /// One call of the generated kernel on the prepared inputs.
  void callGenerated() const;
  /// Warms caches and picks the calls per timing window.
  void warm();
  /// One timing window of the generated kernel, then one of each baseline.
  void round();
  /// Runs the kernel once on fresh inputs and compares every output.
  bool check();

  /// Cycles per call of the generated kernel (mid-mean over windows).
  double genCycles() const { return midMean(Cycles[0]); }
  double bestBaselineCycles() const;
};

/// A served batched kernel over up to MaxCount instances per parameter in
/// 64-byte aligned storage.
struct BatchBench {
  ReqSpec Spec;
  ProgramInfo Info;
  sl::Kernel K;
  int MaxCount = 0;
  std::vector<slingen::AlignedBuffer> Bufs, Orig;
  std::vector<double *> Ptrs;
  /// Want[param][instance]: reference outputs of every instance.
  std::vector<std::vector<std::vector<double>>> Want;

  struct Row {
    int Count = 0;
    int Reps = 1;
    std::vector<double> NsPerCall; ///< one sample per timing round
    /// The same instances through the fastest in-tree baseline, one call
    /// per instance, timed right after each NsPerCall sample.
    std::vector<double> RefNsPerCall;
  };
  std::vector<Row> Rows;

  /// Seeded inputs and reference outputs for \p MaxCount instances.
  bool prepare(uint64_t Seed, int MaxCount, std::string &Err);
  /// Adds the per-instance baseline reference (families with baselines).
  bool prepareReference(uint64_t Seed, std::string &Err);
  /// Sets the timed rows (K attached) and picks each row's repetitions.
  void calibrate(const std::vector<int> &Counts);
  /// Runs one timing round over every row.
  void round();
  /// Calls each row's count once on fresh inputs and compares every
  /// instance, including a ragged tail, against its reference; instances
  /// past the count must stay untouched.
  bool check(int Count);

private:
  void restore(int Count);
  void callReference(int Count);

  std::vector<std::unique_ptr<SingleBench>> RefInstances; ///< reference data
  int BestBaseline = -1;
};

} // namespace perfbench

#endif // PERFBENCH_KERNELS_H
