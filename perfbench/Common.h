//===- perfbench/Common.h - shared pieces of the SLinGen benchmark --------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics, failure tallies, the benchmark's own span recorder, request
/// descriptions, seeded inputs, and the output checker against the dense
/// reference evaluator (expr::Evaluator). Everything here only calls the
/// library's public entry points; nothing inside src/ is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "slingen/client.h"

#include "expr/Evaluator.h"
#include "expr/Program.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using slingen::Rng;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile (0 for an empty sample).
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Geometric mean of the positive entries (0 when there are none).
inline double geomean(const std::vector<double> &V) {
  double LogSum = 0.0;
  int N = 0;
  for (double X : V)
    if (X > 0.0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / N) : 0.0;
}

/// Mean of the middle half (values between the quartiles): steadier than
/// the median when host noise makes a timing distribution bimodal.
inline double midMean(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Lo = V.size() / 4, Hi = V.size() - V.size() / 4;
  double S = 0.0;
  for (size_t I = Lo; I < Hi; ++I)
    S += V[I];
  return S / static_cast<double>(Hi - Lo);
}

inline double mean(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / static_cast<double>(V.size());
}

//===----------------------------------------------------------------------===//
// Failures
//===----------------------------------------------------------------------===//

/// Operations attempted and failed, with a count per failure class: the
/// sl::Code name of an API failure, or "output-mismatch" /
/// "artifact-mismatch" for a result the checker refused. Known failures
/// (see knownFailure) count like any other; every other failure makes the
/// run incorrect.
struct Tally {
  long Attempted = 0;
  long Failed = 0;
  long Known = 0;
  std::map<std::string, long> ByCode;

  void ok() { ++Attempted; }
  void fail(const std::string &Code, bool IsKnown = false) {
    ++Attempted;
    ++Failed;
    Known += IsKnown;
    ++ByCode[Code];
  }
  void merge(const Tally &O) {
    Attempted += O.Attempted;
    Failed += O.Failed;
    Known += O.Known;
    for (const auto &[C, N] : O.ByCode)
      ByCode[C] += N;
  }
  double failFrac() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 0.0;
  }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The benchmark's own spans around each call into a layer. Kept in memory
/// while tracing is on and written out as Chrome trace-event JSON at exit.
class SpanLog {
public:
  void enable(bool On) { Enabled = On; }
  void add(const char *Name, int64_t BeginNs, int64_t EndNs);
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chromeJson() const;

private:
  struct Span {
    std::string Name;
    int64_t B, E;
    int Tid;
  };
  bool Enabled = false;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

SpanLog &spans();

/// Times one call into a layer: stop() returns the elapsed microseconds and
/// records a span when tracing is on.
class LayerTimer {
public:
  explicit LayerTimer(const char *Layer) : Name(Layer), B(nowNs()) {}
  double stop() {
    int64_t E = nowNs();
    spans().add(Name, B, E);
    return static_cast<double>(E - B) / 1e3;
  }

private:
  const char *Name;
  int64_t B;
};

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

enum class ReqKind { Single, Batched, Measured };

/// One kernel request of a workload. Label doubles as the generated
/// function name, so every request has its own cache key.
struct ReqSpec {
  std::string Family; ///< potrf trsyl trlya trtri kf gpr l1a
  int N = 0;          ///< problem size (kf: state size)
  int K = 0;          ///< kf observation size
  bool Batched = false;
  bool Measure = false;
  int Threads = 0; ///< batched dispatch width (0 = serving side's policy)
  std::string Label;

  ReqKind kind() const {
    return Measure ? ReqKind::Measured
                   : (Batched ? ReqKind::Batched : ReqKind::Single);
  }
  std::string source() const;
  sl::Result<sl::Request> request(bool WantObject = true) const;
};

ReqSpec makeSpec(const std::string &Family, int N, int K = 0,
                 bool Batched = false, bool Measure = false, int Threads = 0);

/// The failures the library is known to give on these requests: the Kalman
/// filter with state 28 is rejected on avx as invalid-kernel-ir (the C-IR
/// verifier finds an access outside F). They stay in the tally.
bool knownFailure(const ReqSpec &Spec, const std::string &Code);

const char *kindName(ReqKind K);

//===----------------------------------------------------------------------===//
// Inputs, references and the output checker
//===----------------------------------------------------------------------===//

/// One kernel parameter: a root operand of the program's declarations, in
/// signature order (the order Kernel::call expects its buffers).
struct ParamInfo {
  std::string Name;
  int Rows = 0, Cols = 0;
  bool Input = false;   ///< read by the program (In / InOut root)
  bool Written = false; ///< written by the program (an output lives here)
  slingen::StructureKind Structure = slingen::StructureKind::General;
  bool PosDef = false;
  size_t size() const { return static_cast<size_t>(Rows) * Cols; }
};

/// The parsed program plus its parameter list and nominal flop count.
struct ProgramInfo {
  std::optional<slingen::Program> Prog;
  std::vector<ParamInfo> Params;
  double Flops = 0.0;
  int index(const std::string &Name) const;
};

/// Parses \p Source; false (with \p Err) when it does not parse.
bool analyze(const std::string &Source, ProgramInfo &Info, std::string &Err);

/// Seeded instance data for every parameter, from the test suites'
/// generators (tests/TestData.h): SPD for <PD>, dominant diagonals for
/// triangular inputs, symmetric for symmetric ones, uniform otherwise,
/// zeros for pure outputs.
std::vector<std::vector<double>> makeInputs(const ProgramInfo &Info, Rng &R);

/// Reference outputs from the dense evaluator, one vector per parameter
/// (empty for parameters the program does not write).
std::vector<std::vector<double>>
referenceOutputs(const ProgramInfo &Info,
                 const std::vector<std::vector<double>> &Inputs);

/// Normwise relative error of \p Got against \p Want: max |got - want| over
/// max(max |want|, 1). Infinity when \p Got holds a NaN or infinity.
double relError(const double *Got, const std::vector<double> &Want);

/// Tolerance of the output checker.
constexpr double CheckTolerance = 1e-8;

/// True when every written parameter matches its reference.
bool outputsMatch(const ProgramInfo &Info, double *const *Bufs,
                  const std::vector<std::vector<double>> &Want);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
