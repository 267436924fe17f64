//===- perfbench/Serving.h - cold passes, the daemon, per-layer probes ----===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-side pieces shared by the workloads: a private sld daemon,
/// the cold pass (a fresh `local:` cache, every request a miss, every
/// served kernel checked once), and the traced run's per-layer probes,
/// which call each layer's entry point directly with a span around it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SERVING_H
#define PERFBENCH_SERVING_H

#include "Common.h"

#include <functional>
#include <memory>
#include <sys/types.h>

namespace perfbench {

/// Per-layer metric samples by metric name, reduced to one value each when
/// the run reports.
using LayerSamples = std::map<std::string, std::vector<double>>;

/// A private sld on its own socket and cache directory.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  /// Spawns \p SldPath serving \p CacheDir on \p Socket and waits until it
  /// accepts connections.
  bool start(const std::string &SldPath, const std::string &Socket,
             const std::string &CacheDir, const std::string &LogPath,
             std::string &Err);
  /// SIGTERM, then waits for the process to exit.
  void stop();
  const std::string &address() const { return Address; }

private:
  pid_t Pid = -1;
  std::string Address;
};

/// One `cc` run that compiled a translation unit, from the counting
/// compiler wrapper's log.
struct CcRun {
  double WallMs = 0;
  long TuBytes = 0;
};

/// One cold request's outcome.
struct ColdSample {
  ReqSpec Spec;
  bool Ok = false;
  double LatencyUs = 0;
  double RefUs = 0; ///< what the Between hook returned before the request
  sl::TimingBreakdown Timing;
  std::vector<CcRun> Cc; ///< compiler runs attributed to this request
  sl::Kernel K;
};

struct SingleBench;
struct BatchBench;

/// Seeded inputs and reference outputs for a list of requests, prepared
/// once; check() runs a served kernel on them and compares every output.
class ServedChecker {
public:
  ServedChecker();
  ~ServedChecker();
  /// Prepares every request of \p Reqs; false (with \p Err) when one of
  /// them does not parse.
  bool prepare(const std::vector<ReqSpec> &Reqs, uint64_t Seed,
               std::string &Err);
  /// True when the served kernel's outputs match the reference; a batched
  /// kernel runs 3 of 4 prepared instances (a ragged count).
  bool check(const ColdSample &C);
  /// The prepared single-instance request \p Label, or null.
  SingleBench *single(const std::string &Label);

private:
  std::map<std::string, std::unique_ptr<SingleBench>> Singles;
  std::map<std::string, std::unique_ptr<BatchBench>> Batches;
};

/// Serves \p Order one request at a time through a fresh `local:` session
/// over \p CacheDir (every request misses), then runs \p Check (prepared
/// for these requests) on each served kernel outside the timed span.
/// \p CcLog, when non-empty, is the counting wrapper's log to attribute
/// compiler runs from. \p WallS gets the wall time of the gets alone.
/// \p Between, when set, runs before each request, outside the timed span;
/// its result goes to the request's ColdSample::RefUs.
std::vector<ColdSample> coldPass(const std::vector<ReqSpec> &Order,
                                 const std::string &CacheDir,
                                 ServedChecker &Check, Tally &T,
                                 const std::string &CcLog, double &WallS,
                                 const std::function<double()> &Between = {});

/// Direct calls into la, normalize, gen, cir.verify, cir.emit and the
/// service tuner for every request, each under its own span.
void probeGenerator(const std::vector<ReqSpec> &Reqs, LayerSamples &L);

/// runtime.jit load: dlopen of each served object, staged to \p Dir.
void probeLoad(const std::vector<ColdSample> &Served, const std::string &Dir,
               LayerSamples &L);

/// The warm hit path of every served request: `unix:` gets against a
/// private daemon on \p CacheDir versus `local:` gets, the wire share, the
/// client-side load of the shipped object, and the daemon's hit mix.
void probeWarm(const std::vector<ColdSample> &Served,
               const std::string &SldPath, const std::string &WorkDir,
               const std::string &CacheDir, LayerSamples &L, Tally &T);

/// Cold-path layer samples of a cold pass: the service's phase breakdown
/// and the compiler runs per request kind.
void coldLayers(const std::vector<ColdSample> &Pass, LayerSamples &L);

} // namespace perfbench

#endif // PERFBENCH_SERVING_H
