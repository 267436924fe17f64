//===- perfbench/slbench.cpp - the SLinGen benchmark program --------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload through the public API and prints every metric by name
// with its unit; the last stdout line is the JSON result. perfbench/run.py
// builds this binary and is the entry point:
//
//   slbench --workload <cold_miss|kernel_single|batch_stream>
//           --seed N --seconds S --trace 0|1 --work DIR --cache DIR
//           --results DIR --sld PATH --cc-wrapper PATH
//   slbench --self-check --work DIR --sld PATH --cc-wrapper PATH
//
// --trace 0 measures the end-to-end metrics. --trace 1 measures the
// workload twice (untraced, then traced: the tracing overhead), probes every
// layer directly on the workload's requests and reports the per-layer
// metrics; spans go to <results>/<workload>-seed<N>.trace.json.
//
// --cache is the warm workloads' persistent kernel cache; run.py names it
// after a digest of the sources, so kernels compiled by other code are
// never served.
//
//===----------------------------------------------------------------------===//

#include "Kernels.h"
#include "Serving.h"

#include "isa/ISA.h"
#include "runtime/Jit.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Options {
  std::string Workload, Work = ".bench_work", Cache, Results, Sld, CcWrapper;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool SelfCheck = false;
};

Options Opt;

double processPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// What one measurement reports: the workload's unit-operation latency
/// and rate, plus its own named figures and table rows.
struct Figures {
  /// Geometric mean over the workload's request kinds (kernels, rows) of
  /// each kind's median latency.
  double LatencyUs = 0;
  double TailUs = 0, OpsPerS = 0;
  /// The same operations' time relative to a reference measured between
  /// them in the same run (host speed cancels): see each workload.
  double RelTime = 0;
  std::vector<std::pair<std::string, double>> Named;
  std::vector<std::string> Rows;
};

std::string fmt(const char *F, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char *F, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, F);
  vsnprintf(Buf, sizeof(Buf), F, Ap);
  va_end(Ap);
  return Buf;
}

/// A request kind the workload lacks is probed on this request in traced
/// runs, so every layer has work in every workload.
ReqSpec probeFor(ReqKind K) {
  return makeSpec("potrf", 8, 0, /*Batched=*/K == ReqKind::Batched,
                  /*Measure=*/K == ReqKind::Measured);
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

class Workload {
public:
  virtual ~Workload() = default;
  /// The workload's requests (all ISA avx).
  virtual std::vector<ReqSpec> requests() const = 0;
  /// One set-up; runs several times, each replacing the last one's state.
  virtual bool setup(Tally &T) = 0;
  /// Measures for about \p Seconds. \p CcLog is the counting compiler
  /// wrapper's log in traced runs and empty otherwise.
  virtual Figures measure(double Seconds, Tally &T,
                          const std::string &CcLog) = 0;
  /// The traced run's cold path: a workload that serves cold itself gives
  /// its last pass and that pass's cache directory.
  virtual bool lastColdPass(std::vector<ColdSample> &, std::string &) const {
    return false;
  }
  virtual std::vector<SingleBench *> singleKernels() { return {}; }
  virtual std::vector<BatchBench *> batchKernels() { return {}; }
};

std::vector<ReqSpec> hlacs(const std::vector<int> &Sizes) {
  std::vector<ReqSpec> R;
  for (const char *F : {"potrf", "trsyl", "trlya", "trtri"})
    for (int N : Sizes)
      R.push_back(makeSpec(F, N));
  return R;
}

/// A fixed translation unit in the style of a generated kernel (the same
/// prelude, then straight-line AVX code over 16 vector registers) that
/// takes about as long to compile as a small cold request: compiling it
/// measures what `cc` costs on this host right now.
const std::string &referenceTu() {
  static const std::string Tu = [] {
    std::string S = "#include <immintrin.h>\n#include <math.h>\n"
                    "void perfbench_ref(double *restrict x) {\n";
    for (int V = 0; V < 16; ++V)
      S += fmt("  __m256d v%d = _mm256_loadu_pd(x + %d);\n", V, 4 * V);
    for (int I = 0; I < 1000; ++I) {
      S += fmt("  v%d = _mm256_fmadd_pd(v%d, v%d, _mm256_loadu_pd(x + %d));\n",
               I % 16, (I * 7 + 3) % 16, (I * 5 + 1) % 16, (I * 4) % 256);
      if (I % 64 == 63)
        S += fmt("  _mm256_storeu_pd(x + %d, v%d);\n", (I * 4) % 256, I % 16);
    }
    for (int V = 0; V < 16; ++V)
      S += fmt("  _mm256_storeu_pd(x + %d, v%d);\n", 4 * V, V);
    return S + "}\n";
  }();
  return Tu;
}

/// cold_miss: one client, closed loop, every request a miss.
class ColdMiss : public Workload {
public:
  std::vector<ReqSpec> requests() const override {
    std::vector<ReqSpec> R = hlacs({4, 12, 28});
    for (int N : {4, 12})
      R.push_back(makeSpec("kf", N, N));
    R.push_back(makeSpec("kf", 28, 4));
    for (const char *F : {"gpr", "l1a"})
      for (int N : {4, 12})
        R.push_back(makeSpec(F, N));
    R.push_back(makeSpec("potrf", 4, 0, true));
    R.push_back(makeSpec("potrf", 8, 0, true));
    R.push_back(makeSpec("trsyl", 4, 0, true));
    R.push_back(makeSpec("kf", 4, 4, true));
    R.push_back(makeSpec("potrf", 8, 0, false, true));
    R.push_back(makeSpec("trsyl", 8, 0, false, true));
    R.push_back(makeSpec("potrf", 8, 0, true, true));
    return R;
  }

  bool setup(Tally &) override {
    // The seeded order, and the checker's inputs and reference outputs.
    Order = requests();
    Rng R(Opt.Seed);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.next() % I]);
    std::string Err;
    return Checker.prepare(Order, Opt.Seed, Err);
  }

  Figures measure(double Seconds, Tally &T,
                  const std::string &CcLog) override {
    std::vector<double> All, Single, Batched, Totals;
    std::map<std::string, std::vector<double>> ByRequest, RelByRequest;
    // The reference: the JIT compile of a fixed translation unit just
    // before every request; rel_time pairs each request with it, so a
    // stretch of slow host shows in both. Traced runs skip it, so the
    // counting wrapper sees only the requests' compiles.
    std::vector<double> RefUs;
    auto Reference = [&CcLog, &RefUs]() -> double {
      if (!CcLog.empty())
        return 0;
      std::string Err;
      int64_t B = nowNs();
      auto K = slingen::runtime::JitKernel::compile(
          referenceTu(), "perfbench_ref", 1, Err,
          slingen::runtime::isaCompileFlags(slingen::avxIsa()));
      if (!K)
        return 0;
      RefUs.push_back(static_cast<double>(nowNs() - B) / 1e3);
      return RefUs.back();
    };
    int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
    do {
      double WallS = 0;
      Tally PassTally;
      std::error_code Ec;
      if (!LastDir.empty())
        fs::remove_all(LastDir, Ec);
      LastDir = fmt("%s/cold-%d", Opt.Work.c_str(), Passes++);
      Last = coldPass(Order, LastDir, Checker, PassTally, CcLog, WallS,
                      Reference);
      T.merge(PassTally);
      Totals.push_back(WallS);
      for (const ColdSample &C : Last) {
        All.push_back(C.LatencyUs);
        ByRequest[C.Spec.Label].push_back(C.LatencyUs);
        if (C.RefUs > 0)
          RelByRequest[C.Spec.Label].push_back(C.LatencyUs / C.RefUs);
        (C.Spec.Batched ? Batched : Single).push_back(C.LatencyUs);
      }
    } while (nowNs() < End);
    Figures F;
    std::vector<double> Medians, RelMedians;
    for (const auto &[Label, Lat] : ByRequest)
      Medians.push_back(median(Lat));
    for (const auto &[Label, Rel] : RelByRequest)
      RelMedians.push_back(median(Rel));
    F.LatencyUs = geomean(Medians);
    F.TailUs = quantile(All, 0.9);
    F.RelTime = geomean(RelMedians);
    double Sum = 0;
    for (double S : Totals)
      Sum += S;
    F.OpsPerS = Sum > 0 ? static_cast<double>(All.size()) / Sum : 0;
    F.Named = {{"cold_single_p50_ms", median(Single) / 1e3},
               {"cold_batched_p50_ms", median(Batched) / 1e3},
               {"cold_total_s", median(Totals)},
               {"cold_passes", static_cast<double>(Totals.size())},
               {"reference_compile_ms", median(RefUs) / 1e3}};
    for (const ColdSample &C : Last)
      F.Rows.push_back(fmt("cold %-14s %-8s %10.1f ms  gen %8.1f ms  tune "
                           "%8.1f ms  cc %8.1f ms  %s",
                           C.Spec.Label.c_str(), kindName(C.Spec.kind()),
                           C.LatencyUs / 1e3, C.Timing.GenUs / 1e3,
                           C.Timing.TuneUs / 1e3, C.Timing.CompileUs / 1e3,
                           C.Ok ? "ok" : "FAILED"));
    return F;
  }

  bool lastColdPass(std::vector<ColdSample> &Served,
                    std::string &CacheDir) const override {
    Served = Last;
    CacheDir = LastDir;
    return true;
  }

private:
  std::vector<ReqSpec> Order;
  ServedChecker Checker;
  std::vector<ColdSample> Last;
  std::string LastDir; ///< cache directory of the last pass
  int Passes = 0;
};

/// Opens `local:` on the benchmark's persistent cache: the first run of
/// these sources compiles, later set-ups load from disk.
sl::Result<sl::Session> warmSession() {
  return sl::Session::open("local:" + Opt.Cache);
}

/// kernel_single: warm, single thread, Kernel::call interleaved with the
/// baselines.
class KernelSingle : public Workload {
public:
  std::vector<ReqSpec> requests() const override {
    std::vector<ReqSpec> R = hlacs({4, 12, 28});
    for (int N : {4, 12})
      R.push_back(makeSpec("kf", N, N));
    for (int K : {4, 12})
      R.push_back(makeSpec("kf", 28, K));
    for (const char *F : {"gpr", "l1a"})
      for (int N : {4, 12, 28})
        R.push_back(makeSpec(F, N));
    return R;
  }

  bool setup(Tally &T) override {
    Kernels.clear();
    auto S = warmSession();
    if (!S)
      return false;
    for (const ReqSpec &Spec : requests()) {
      auto R = Spec.request(/*WantObject=*/false);
      auto K = S->get(*R);
      if (!K) {
        std::string Code = sl::codeName(K.code());
        T.fail(Code, knownFailure(Spec, Code));
        continue;
      }
      auto B = std::make_unique<SingleBench>();
      B->Spec = Spec;
      B->K = *K;
      std::string Err;
      if (!B->prepare(Opt.Seed, Err))
        return false;
      Kernels.push_back(std::move(B));
    }
    return true;
  }

  Figures measure(double Seconds, Tally &T, const std::string &) override {
    const double Rate = ticksPerNs();
    for (auto &K : Kernels) {
      K->Cycles.assign(K->Cycles.size(), {});
      K->warm();
    }
    // Passes over the kernel list, each kernel timed for a short warm-cache
    // slice per pass: a burst of host noise lands on one slice of one
    // kernel, not on a kernel's whole sample.
    constexpr int Passes = 10;
    const int64_t Slice = static_cast<int64_t>(
        Seconds * 1e9 / Passes / std::max<size_t>(Kernels.size(), 1));
    for (int P = 0; P < Passes; ++P)
      for (auto &K : Kernels) {
        LayerTimer KT("kernel");
        for (int R = 0; R < 3; ++R) // re-warm caches, untimed
          K->callGenerated();
        int64_t End = nowNs() + Slice;
        while (nowNs() < End)
          K->round();
        KT.stop();
      }
    std::vector<double> P50, Tail, Fpc, Speedup, SpeedupN4;
    Figures F;
    for (auto &K : Kernels) {
      if (K->check())
        T.ok();
      else
        T.fail("output-mismatch");
      double Gen = K->genCycles(), Base = K->bestBaselineCycles();
      P50.push_back(Gen / Rate / 1e3);
      Tail.push_back(quantile(K->Cycles[0], 0.9) / Rate / 1e3);
      Fpc.push_back(K->Info.Flops / Gen);
      if (Base > 0) {
        Speedup.push_back(Base / Gen);
        if (K->Spec.N == 4)
          SpeedupN4.push_back(Base / Gen);
      }
      std::string Bases;
      for (size_t I = 0; I < K->Baselines.size(); ++I)
        Bases += fmt(" %s=%.0f", K->Baselines[I].Name.c_str(),
                     midMean(K->Cycles[I + 1]));
      F.Rows.push_back(fmt("kernel %-8s %9.0f cycles  %6.3f f/c  x%5.2f "
                           "vs best |%s",
                           K->Spec.Label.c_str(), Gen, K->Info.Flops / Gen,
                           Base > 0 ? Base / Gen : 0.0, Bases.c_str()));
    }
    F.LatencyUs = geomean(P50);
    F.TailUs = geomean(Tail);
    F.OpsPerS = 1e6 / F.LatencyUs;
    F.RelTime = 1.0 / geomean(Speedup);
    F.Named = {{"kernel_fpc_geomean", geomean(Fpc)},
               {"kernel_speedup_geomean", geomean(Speedup)},
               {"kernel_n4_speedup_geomean", geomean(SpeedupN4)}};
    return F;
  }

  std::vector<SingleBench *> singleKernels() override {
    std::vector<SingleBench *> V;
    for (auto &K : Kernels)
      V.push_back(K.get());
    return V;
  }

private:
  std::vector<std::unique_ptr<SingleBench>> Kernels;
};

/// batch_stream: warm, threads(1), Kernel::callBatch over ragged counts.
class BatchStream : public Workload {
public:
  static constexpr int Counts[] = {1, 3, 5, 32, 33, 1024, 1025};

  std::vector<ReqSpec> requests() const override {
    std::vector<ReqSpec> R;
    for (int N : {4, 8, 16})
      R.push_back(makeSpec("potrf", N, 0, true, false, 1));
    for (int N : {4, 8})
      R.push_back(makeSpec("trsyl", N, 0, true, false, 1));
    return R;
  }

  bool setup(Tally &T) override {
    Kernels.clear();
    auto S = warmSession();
    if (!S)
      return false;
    for (const ReqSpec &Spec : requests()) {
      auto R = Spec.request(/*WantObject=*/false);
      auto K = S->get(*R);
      if (!K) {
        std::string Code = sl::codeName(K.code());
        T.fail(Code, knownFailure(Spec, Code));
        continue;
      }
      auto B = std::make_unique<BatchBench>();
      B->Spec = Spec;
      B->K = *K;
      std::string Err;
      if (!B->prepare(Opt.Seed, 1025, Err) ||
          !B->prepareReference(Opt.Seed, Err))
        return false;
      B->calibrate(std::vector<int>(std::begin(Counts), std::end(Counts)));
      Kernels.push_back(std::move(B));
    }
    return true;
  }

  Figures measure(double Seconds, Tally &T, const std::string &) override {
    for (auto &K : Kernels) {
      for (auto &Rw : K->Rows) {
        Rw.NsPerCall.clear();
        Rw.RefNsPerCall.clear();
      }
    }
    int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
    while (nowNs() < End)
      for (auto &K : Kernels) {
        LayerTimer KT("kernel");
        K->round();
        KT.stop();
      }
    Figures F;
    std::vector<double> P50, Tail, Large, Small, Rel;
    for (auto &K : Kernels) {
      for (const auto &Rw : K->Rows) {
        if (K->check(Rw.Count))
          T.ok();
        else
          T.fail("output-mismatch");
        double Med = midMean(Rw.NsPerCall);
        P50.push_back(Med / Rw.Count / 1e3);
        if (!Rw.RefNsPerCall.empty())
          Rel.push_back(Med / midMean(Rw.RefNsPerCall));
        Tail.push_back(quantile(Rw.NsPerCall, 0.99) / Rw.Count / 1e3);
        (Rw.Count >= 32 ? Large : Small)
            .push_back(Rw.Count >= 32 ? Med / Rw.Count : Med);
        F.Rows.push_back(fmt("batch %-10s count %5d  %10.1f ns/call  %8.2f "
                             "ns/instance  strategy %s threads %d",
                             K->Spec.Label.c_str(), Rw.Count, Med,
                             Med / Rw.Count, K->K.strategy().c_str(),
                             K->K.batchThreads()));
      }
    }
    F.LatencyUs = geomean(P50);
    F.TailUs = geomean(Tail);
    F.OpsPerS = 1e6 / F.LatencyUs; // instances per second
    F.RelTime = geomean(Rel);
    F.Named = {{"batch_ns_per_instance", geomean(Large)},
               {"batch_small_ns_per_call", geomean(Small)}};
    return F;
  }

  std::vector<BatchBench *> batchKernels() override {
    std::vector<BatchBench *> V;
    for (auto &K : Kernels)
      V.push_back(K.get());
    return V;
  }

private:
  std::vector<std::unique_ptr<BatchBench>> Kernels;
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "cold_miss")
    return std::make_unique<ColdMiss>();
  if (Name == "kernel_single")
    return std::make_unique<KernelSingle>();
  if (Name == "batch_stream")
    return std::make_unique<BatchStream>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

struct LayerMetric {
  const char *Name;
  const char *Unit;
  bool Geomean; ///< reduce by geometric mean (ratios, kernel times)
};

/// Every per-layer metric; a traced run reports all of them.
const LayerMetric PerLayer[] = {
    {"la.parse_us", "us", false},
    {"normalize_us", "us", false},
    {"gen.enumerate_ms", "ms", false},
    {"gen.variants", "count", false},
    {"cir.verify_us", "us", false},
    {"cir.emit_us", "us", false},
    {"cir.tu_bytes", "bytes", false},
    {"cir.tu_bytes_batched", "bytes", false},
    {"runtime.jit.cc_ms", "ms", false},
    {"runtime.jit.dlopen_us", "us", false},
    {"runtime.jit.cc_runs_single", "count", false},
    {"runtime.jit.cc_runs_batched", "count", false},
    {"runtime.jit.cc_runs_measured", "count", false},
    {"service.tuner.strategy_ms", "ms", false},
    {"service.tuner.variant_ms", "ms", false},
    {"service.gen_us", "us", false},
    {"service.tune_us", "us", false},
    {"service.compile_us", "us", false},
    {"service.total_us", "us", false},
    {"service.unaccounted_us", "us", false},
    {"kernel.call_ns", "ns", true},
    {"baseline.call_ns", "ns", true},
    {"kernel.speedup_geomean", "x", true},
    {"kernel.fpc_geomean", "flops/cycle", true},
    {"model.cost_over_cycles", "ratio", true},
    {"batch.ns_per_instance", "ns", true},
    {"batch.small_ns_per_call", "ns", true},
    {"batch.tail_extra_ns", "ns", false},
    {"batch.threads", "count", false},
    {"warm.local_hit_us", "us", false},
    {"warm.parse_normalize_us", "us", false},
    {"warm.response_bytes", "bytes", false},
    {"warm.load_from_bytes_us", "us", false},
    {"warm.wire_us", "us", false},
    {"warm.mem_hit_frac", "ratio", false},
    {"trace.overhead_pct", "%", false},
};

void kernelLayers(const std::vector<SingleBench *> &Ks, LayerSamples &L) {
  const double Rate = ticksPerNs();
  for (SingleBench *K : Ks) {
    double Gen = K->genCycles(), Base = K->bestBaselineCycles();
    if (Gen <= 0)
      continue;
    L["kernel.call_ns"].push_back(Gen / Rate);
    L["kernel.fpc_geomean"].push_back(K->Info.Flops / Gen);
    L["model.cost_over_cycles"].push_back(
        static_cast<double>(K->K.staticCost()) / Gen);
    if (Base > 0) {
      L["baseline.call_ns"].push_back(Base / Rate);
      L["kernel.speedup_geomean"].push_back(Base / Gen);
    }
  }
}

void batchLayers(const std::vector<BatchBench *> &Ks, LayerSamples &L) {
  for (BatchBench *K : Ks) {
    double C32 = 0, C33 = 0;
    for (const auto &Rw : K->Rows) {
      double Med = midMean(Rw.NsPerCall);
      if (Rw.Count == 32 || Rw.Count == 33)
        L["batch.ns_per_instance"].push_back(Med / Rw.Count);
      if (Rw.Count <= 5)
        L["batch.small_ns_per_call"].push_back(Med);
      if (Rw.Count == 32)
        C32 = Med;
      if (Rw.Count == 33)
        C33 = Med;
    }
    L["batch.tail_extra_ns"].push_back(C33 - C32);
    L["batch.threads"].push_back(K->K.batchThreads());
  }
}

/// Short kernel-layer probe on the single-instance kernels of a cold pass.
void probeKernels(const std::vector<ColdSample> &Served, LayerSamples &L,
                  Tally &T) {
  std::vector<std::unique_ptr<SingleBench>> Singles;
  std::vector<std::unique_ptr<BatchBench>> Batches;
  for (const ColdSample &C : Served) {
    if (!C.Ok)
      continue;
    std::string Err;
    LayerTimer KT("kernel");
    if (C.Spec.Batched) {
      auto B = std::make_unique<BatchBench>();
      B->Spec = C.Spec;
      B->K = C.K;
      if (B->prepare(Opt.Seed, 33, Err)) {
        B->calibrate({1, 3, 5, 32, 33});
        for (int R = 0; R < 200; ++R)
          B->round();
        Batches.push_back(std::move(B));
      }
    } else {
      auto S = std::make_unique<SingleBench>();
      S->Spec = C.Spec;
      S->K = C.K;
      if (S->prepare(Opt.Seed, Err)) {
        S->warm();
        for (int R = 0; R < 200; ++R)
          S->round();
        if (S->check())
          T.ok();
        else
          T.fail("output-mismatch");
        Singles.push_back(std::move(S));
      }
    }
    KT.stop();
  }
  std::vector<SingleBench *> SP;
  for (auto &S : Singles)
    SP.push_back(S.get());
  std::vector<BatchBench *> BP;
  for (auto &B : Batches)
    BP.push_back(B.get());
  kernelLayers(SP, L);
  batchLayers(BP, L);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

std::string resultJson(bool Correct, const Tally &T,
                       const std::vector<Metric> &Ms) {
  std::string S = fmt("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                      "\"metrics\": {",
                      Correct ? "true" : "false", T.Attempted, T.Failed);
  for (size_t I = 0; I < Ms.size(); ++I)
    S += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", I ? ", " : "",
             Ms[I].Name.c_str(), Ms[I].Value, Ms[I].Unit.c_str());
  return S + "}}";
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
}

/// The run's full record: every metric, the named figures, the table
/// rows and the failure classes. perfbench/run.py adds provenance.
void writeDetails(const Figures &F, const Tally &T,
                  const std::vector<Metric> &Ms) {
  std::string S = "{\n";
  S += fmt("  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"trace\": %d,\n",
           Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
           Opt.Trace ? 1 : 0);
  S += fmt("  \"requested_isa\": \"avx\",\n  \"host_isa\": \"%s\",\n",
           slingen::hostIsa().Name);
  S += fmt("  \"tsc_ticks_per_ns\": %.6f,\n", ticksPerNs());
  S += fmt("  \"attempted\": %ld,\n  \"failed\": %ld,\n  \"failures\": {",
           T.Attempted, T.Failed);
  bool First = true;
  for (const auto &[C, N] : T.ByCode) {
    S += fmt("%s\"%s\": %ld", First ? "" : ", ", C.c_str(), N);
    First = false;
  }
  S += "},\n  \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I)
    S += fmt("%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             I ? "," : "", Ms[I].Name.c_str(), Ms[I].Value,
             Ms[I].Unit.c_str());
  S += "\n  },\n  \"figures\": {";
  for (size_t I = 0; I < F.Named.size(); ++I)
    S += fmt("%s\n    \"%s\": %.17g", I ? "," : "", F.Named[I].first.c_str(),
             F.Named[I].second);
  S += "\n  },\n  \"rows\": [";
  for (size_t I = 0; I < F.Rows.size(); ++I) {
    std::string Row;
    for (char Ch : F.Rows[I])
      Row += Ch == '"' ? '\'' : Ch;
    S += fmt("%s\n    \"", I ? "," : "") + Row + "\"";
  }
  S += "\n  ]\n}\n";
  writeFile(fmt("%s/%s-seed%llu-trace%d.details.json", Opt.Results.c_str(),
                Opt.Workload.c_str(),
                static_cast<unsigned long long>(Opt.Seed), Opt.Trace ? 1 : 0),
            S);
}

void printFigures(const Figures &F) {
  for (const std::string &R : F.Rows)
    printf("  %s\n", R.c_str());
  for (const auto &[N, V] : F.Named)
    printf("  %-28s %.6g\n", N.c_str(), V);
}

//===----------------------------------------------------------------------===//
// Runs
//===----------------------------------------------------------------------===//

int run() {
  std::unique_ptr<Workload> W = makeWorkload(Opt.Workload);
  if (!W) {
    fprintf(stderr, "perfbench: unknown workload '%s'\n",
            Opt.Workload.c_str());
    return 2;
  }
  std::error_code Ec;
  fs::create_directories(Opt.Results, Ec);
  unsetenv("SLINGEN_CC"); // untraced measurements use the plain `cc`
  ticksPerNs();

  // Set-up runs at least five times, and a short one until the reps add up
  // to a second: the median is setup_s, and the last one's state is
  // measured. The median of five millisecond set-ups moved by a third
  // between runs; of a few hundred, by a few percent.
  constexpr int MinSetupReps = 5, MaxSetupReps = 500;
  constexpr int64_t SetupBudgetNs = 1'000'000'000;
  std::vector<double> SetupS;
  Tally SetupTally;
  for (int64_t Begin = nowNs();
       SetupS.size() < MinSetupReps ||
       (SetupS.size() < MaxSetupReps && nowNs() - Begin < SetupBudgetNs);) {
    SetupTally = Tally();
    int64_t B = nowNs();
    if (!W->setup(SetupTally)) {
      fprintf(stderr, "perfbench: set-up of %s failed\n", Opt.Workload.c_str());
      return 1;
    }
    SetupS.push_back(static_cast<double>(nowNs() - B) / 1e9);
  }
  Tally T = SetupTally;

  printf("perfbench %s seed=%llu seconds=%g trace=%d isa=avx host=%s\n",
         Opt.Workload.c_str(), static_cast<unsigned long long>(Opt.Seed),
         Opt.Seconds, Opt.Trace ? 1 : 0, slingen::hostIsa().Name);
  std::vector<Metric> Ms;
  Figures F;
  if (!Opt.Trace) {
    F = W->measure(Opt.Seconds, T, "");
    // The gated metrics. Absolute times (latency_us, ops_per_s) are
    // printed with the figures: on a shared host a whole run can be 30-40%
    // slower than the next, while rel_time stays within a few percent.
    Ms = {{"setup_s", "s", median(SetupS)},
          {"rel_time", "ratio", F.RelTime},
          {"peak_rss_mb", "MB", processPeakRssMb()},
          {"ok_frac", "ratio", 1.0 - T.failFrac()}};
  } else {
    // The same measurement untraced, then traced: the overhead.
    Tally Untraced;
    Figures U = W->measure(Opt.Seconds / 2, Untraced, "");
    std::string CcLog = Opt.Work + "/cc.log";
    setenv("SLINGEN_CC", ("sh " + Opt.CcWrapper).c_str(), 1);
    setenv("PERFBENCH_CC_LOG", CcLog.c_str(), 1);
    spans().enable(true);
    sl::setTracing(true);
    F = W->measure(Opt.Seconds / 2, T, CcLog);

    LayerSamples L;
    L["trace.overhead_pct"].push_back(
        U.LatencyUs > 0 ? (F.LatencyUs - U.LatencyUs) / U.LatencyUs * 100.0
                        : 0.0);
    // Cold path of the workload's requests (plus a probe request for each
    // kind it lacks): the cold pass itself for cold_miss, a traced cold
    // serve through a fresh cache for the warm workloads.
    std::vector<ReqSpec> Reqs = W->requests();
    for (ReqKind K : {ReqKind::Single, ReqKind::Batched, ReqKind::Measured})
      if (std::none_of(Reqs.begin(), Reqs.end(),
                       [K](const ReqSpec &S) { return S.kind() == K; }))
        Reqs.push_back(probeFor(K));
    std::vector<ColdSample> Served;
    std::string ProbeCache = Opt.Work + "/cold-probe";
    if (!W->lastColdPass(Served, ProbeCache)) {
      ServedChecker Check;
      std::string Err;
      if (!Check.prepare(Reqs, Opt.Seed, Err)) {
        fprintf(stderr, "perfbench: %s\n", Err.c_str());
        return 1;
      }
      double WallS = 0;
      Served = coldPass(Reqs, ProbeCache, Check, T, CcLog, WallS);
    }
    coldLayers(Served, L);
    probeGenerator(Reqs, L);
    probeLoad(Served, Opt.Work, L);
    probeWarm(Served, Opt.Sld, Opt.Work, ProbeCache, L, T);
    kernelLayers(W->singleKernels(), L);
    batchLayers(W->batchKernels(), L);
    // Layers the workload's own measurement left empty come from short
    // probes of the kernels served above.
    LayerSamples Probe;
    probeKernels(Served, Probe, T);
    for (auto &[N, V] : Probe)
      if (!L.count(N))
        L[N] = V;
    sl::setTracing(false);

    for (const LayerMetric &M : PerLayer) {
      const std::vector<double> &V = L[M.Name];
      Ms.push_back({M.Name, M.Unit, M.Geomean ? geomean(V) : mean(V)});
    }
    printf("tracing overhead: latency %.6g us untraced, %.6g us traced\n",
           U.LatencyUs, F.LatencyUs);
    std::string Base = fmt("%s/%s-seed%llu", Opt.Results.c_str(),
                           Opt.Workload.c_str(),
                           static_cast<unsigned long long>(Opt.Seed));
    writeFile(Base + ".trace.json", spans().chromeJson());
    std::string Err;
    sl::exportTraceJson(Base + ".program-trace.json", Err);
  }
  F.Named.push_back({"setup_reps", static_cast<double>(SetupS.size())});
  F.Named.push_back({"latency_us", F.LatencyUs});
  F.Named.push_back({"ops_per_s", F.OpsPerS});
  F.Named.push_back({"tail_us", F.TailUs});
  printFigures(F);
  for (const auto &[C, N] : T.ByCode)
    printf("  failures %-24s %ld\n", C.c_str(), N);
  for (const Metric &M : Ms)
    printf("%-30s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  writeDetails(F, T, Ms);
  // Any failure but the known ones (an API error as much as a wrong
  // output) makes the run incorrect.
  bool Correct = T.Attempted > T.Failed && T.Failed == T.Known;
  printf("%s\n", resultJson(Correct, T, Ms).c_str());
  fflush(stdout);
  return Correct ? 0 : 1;
}

/// Asserts that the checker refuses a perturbed output and that an
/// unparsable LA request counts as a failed operation.
int selfCheck() {
  int Bad = 0;
  auto expect = [&](bool Cond, const char *What) {
    printf("  %-56s %s\n", What, Cond ? "ok" : "FAILED");
    Bad += !Cond;
  };
  ReqSpec Good = makeSpec("potrf", 4);
  ReqSpec Unparsable;
  Unparsable.Family = "Mat A(4, 4) <In>;\nthis is not LA;\n";
  Unparsable.Label = "unparsable";

  ServedChecker Check;
  std::string Err;
  expect(Check.prepare({Good}, Opt.Seed, Err), "the checker prepares potrf4");
  Tally T;
  double WallS = 0;
  auto Pass = coldPass({Good, Unparsable}, Opt.Work + "/selfcheck", Check, T,
                       "", WallS);
  expect(T.Attempted == 2 && T.Failed == 1,
         "one of two requests fails");
  expect(T.ByCode.count("parse-error") == 1,
         "the failure is tallied as parse-error");
  expect(T.failFrac() > 0.49 && T.failFrac() < 0.51, "fail_frac is 1/2");
  expect(T.Known == 0, "the failure is not a known one: the run is incorrect");
  expect(!Pass.empty() && Pass[0].Ok,
         "the good request was served and checked");
  if (SingleBench *S = Check.single(Good.Label); S && !Pass.empty() &&
                                                  Pass[0].Ok) {
    SingleBench &B = *S;
    expect(outputsMatch(B.Info, B.Ptrs.data(), B.Want),
           "the checker accepts the served output");
    int X = B.Info.index("X");
    B.Ptrs[X][B.Info.Params[X].Cols - 1] *= 1.0 + 1e-6;
    expect(!outputsMatch(B.Info, B.Ptrs.data(), B.Want),
           "the checker rejects a perturbed output");
  }
  printf("self-check: %s\n", Bad ? "FAILED" : "ok");
  return Bad ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto next = [&]() -> std::string {
      if (I + 1 >= argc) {
        fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        exit(2);
      }
      return argv[++I];
    };
    if (A == "--workload")
      Opt.Workload = next();
    else if (A == "--seed")
      Opt.Seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (A == "--seconds")
      Opt.Seconds = std::atof(next().c_str());
    else if (A == "--trace")
      Opt.Trace = next() == "1";
    else if (A == "--work")
      Opt.Work = next();
    else if (A == "--cache")
      Opt.Cache = next();
    else if (A == "--results")
      Opt.Results = next();
    else if (A == "--sld")
      Opt.Sld = next();
    else if (A == "--cc-wrapper")
      Opt.CcWrapper = next();
    else if (A == "--self-check")
      Opt.SelfCheck = true;
    else {
      fprintf(stderr, "perfbench: unknown argument %s\n", A.c_str());
      return 2;
    }
  }
  if (Opt.Results.empty())
    Opt.Results = Opt.Work;
  if (Opt.Cache.empty())
    Opt.Cache = Opt.Work + "/cache";
  // This run's scratch (cold caches, the compiler log, the probe daemon's
  // socket) is its own, so runs sharing --work cannot delete each other's.
  Opt.Work += fmt("/run-%d", static_cast<int>(getpid()));
  std::error_code Ec;
  fs::create_directories(Opt.Work, Ec);
  int Rc = Opt.SelfCheck ? selfCheck() : run();
  fs::remove_all(Opt.Work, Ec);
  return Rc;
}
