//===- perfbench/Kernels.cpp - timing served kernels and their baselines --===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Kernels.h"

#include "baselines/Apps.h"
#include "baselines/Cl1ckBlas.h"
#include "baselines/Naive.h"
#include "baselines/RefBlas.h"
#include "runtime/Timing.h"

#include <cstring>
#include <thread>

using namespace slingen;

namespace perfbench {

namespace {

/// Ticks one timing window should span, so the counter's own cost and its
/// jitter stay negligible.
constexpr double WindowTicks = 20000.0;

/// Calls of \p Fn that fill one timing window, measured on warm caches.
int repsPerWindow(const std::function<void()> &Fn) {
  for (int R = 0; R < 3; ++R)
    Fn();
  constexpr int Probe = 8;
  uint64_t T0 = runtime::readCycles();
  for (int R = 0; R < Probe; ++R)
    Fn();
  double One = static_cast<double>(runtime::readCycles() - T0) / Probe;
  return std::max(1, static_cast<int>(WindowTicks / std::max(One, 1.0)));
}

slingen::AlignedBuffer alignedCopy(const std::vector<double> &V) {
  slingen::AlignedBuffer B(V.size());
  std::copy(V.begin(), V.end(), B.data());
  return B;
}

} // namespace

double ticksPerNs() {
  static const double Rate = [] {
    int64_t N0 = nowNs();
    uint64_t T0 = runtime::readCycles();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int64_t N1 = nowNs();
    uint64_t T1 = runtime::readCycles();
    double R = static_cast<double>(T1 - T0) / static_cast<double>(N1 - N0);
    return R > 0.0 ? R : 1.0;
  }();
  return Rate;
}

//===----------------------------------------------------------------------===//
// SingleBench
//===----------------------------------------------------------------------===//

bool SingleBench::prepare(uint64_t Seed, std::string &Err) {
  if (!analyze(Spec.source(), Info, Err))
    return false;
  // An HLAC statement has no closed-form flop count in the program; use
  // the paper's Table 3 costs.
  double N3 = static_cast<double>(Spec.N) * Spec.N * Spec.N;
  if (Spec.Family == "potrf" || Spec.Family == "trtri")
    Info.Flops = N3 / 3.0;
  else if (Spec.Family == "trsyl")
    Info.Flops = 2.0 * N3;
  else if (Spec.Family == "trlya")
    Info.Flops = N3;
  Rng R(Seed);
  In = makeInputs(Info, R);
  Want = referenceOutputs(Info, In);
  // Aligned storage, so a kernel's speed does not depend on where the
  // allocator happened to place its operands.
  Bufs.clear();
  for (const auto &V : In)
    Bufs.push_back(alignedCopy(V));
  Ptrs.clear();
  Reset.clear();
  for (size_t I = 0; I < Bufs.size(); ++I) {
    Ptrs.push_back(Bufs[I].data());
    if (Info.Params[I].Input && Info.Params[I].Written)
      Reset.push_back(static_cast<int>(I));
  }

  // Baselines run on their own copies; in-place arguments are restored
  // before every call, as the generated kernel's are.
  const int N = Spec.N, Kk = Spec.K ? Spec.K : Spec.N;
  auto in = [&](const char *Name) -> const double * {
    return In[Info.index(Name)].data();
  };
  auto copyOf = [&](const char *Name) {
    Work.push_back(alignedCopy(In[Info.index(Name)]));
    return Work.size() - 1;
  };
  Baselines.clear();
  Work.clear();
  Work.reserve(8);
  auto add = [&](const char *Name, std::function<void()> Fn) {
    Baselines.push_back({Name, std::move(Fn)});
  };
  const std::string &F = Spec.Family;
  if (F == "potrf" || F == "trtri") {
    const double *A = in(F == "potrf" ? "A" : "L");
    double *W = Work[copyOf(F == "potrf" ? "A" : "L")].data();
    size_t Bytes = sizeof(double) * N * N;
    if (F == "potrf") {
      add("refblas", [=] { memcpy(W, A, Bytes); refblas::potrfUpper(N, W, N); });
      add("smallet", [=] { memcpy(W, A, Bytes); apps::potrfSmallet(N, W); });
      add("naive", [=] { memcpy(W, A, Bytes); naive::potrfUpper(N, W); });
      add("cl1ck", [=] { memcpy(W, A, Bytes); cl1ck::potrfUpper(N, 4, W, N); });
      memcpy(W, A, Bytes);
      if (!apps::potrfSmallet(N, W))
        Baselines.erase(Baselines.begin() + 1);
    } else {
      add("refblas", [=] { memcpy(W, A, Bytes); refblas::trtriLower(N, W, N); });
      add("smallet", [=] { memcpy(W, A, Bytes); apps::trtriSmallet(N, W); });
      add("naive", [=] { memcpy(W, A, Bytes); naive::trtriLower(N, W); });
      add("cl1ck", [=] { memcpy(W, A, Bytes); cl1ck::trtriLower(N, 4, W, N); });
      memcpy(W, A, Bytes);
      if (!apps::trtriSmallet(N, W))
        Baselines.erase(Baselines.begin() + 1);
    }
  } else if (F == "trsyl") {
    const double *L = in("L"), *U = in("U"), *C = in("C");
    double *W = Work[copyOf("C")].data();
    size_t Bytes = sizeof(double) * N * N;
    add("refblas", [=] {
      memcpy(W, C, Bytes);
      refblas::trsylLowerUpper(N, N, L, N, U, N, W, N);
    });
    add("smallet", [=] { memcpy(W, C, Bytes); apps::trsylSmallet(N, L, U, W); });
    add("naive", [=] { memcpy(W, C, Bytes); naive::trsylLowerUpper(N, L, U, W); });
    add("cl1ck", [=] {
      memcpy(W, C, Bytes);
      cl1ck::trsylLowerUpper(N, N, 4, L, N, U, N, W, N);
    });
    if (!apps::trsylSmallet(N, L, U, W))
      Baselines.erase(Baselines.begin() + 1);
  } else if (F == "trlya") {
    const double *L = in("L"), *S = in("S");
    double *W = Work[copyOf("S")].data();
    size_t Bytes = sizeof(double) * N * N;
    add("refblas", [=] { memcpy(W, S, Bytes); refblas::trlyaLower(N, L, N, W, N); });
    add("smallet", [=] { memcpy(W, S, Bytes); apps::trlyaSmallet(N, L, W); });
    add("naive", [=] { memcpy(W, S, Bytes); naive::trlyaLower(N, L, W); });
    add("cl1ck", [=] { memcpy(W, S, Bytes); cl1ck::trlyaLower(N, 4, L, N, W, N); });
    if (!apps::trlyaSmallet(N, L, W))
      Baselines.erase(Baselines.begin() + 1);
  } else if (F == "kf") {
    const double *Fm = in("F"), *Bm = in("Bm"), *Q = in("Q"), *H = in("H"),
                 *Rm = in("R"), *u = in("u"), *z = in("z"), *x = in("x"),
                 *P = in("P");
    double *XW = Work[copyOf("x")].data(), *PW = Work[copyOf("P")].data();
    Work.emplace_back(8 * N * N + 8 * N + 64);
    double *Scratch = Work.back().data();
    size_t XB = sizeof(double) * N, PB = sizeof(double) * N * N;
    add("refblas", [=] {
      memcpy(XW, x, XB);
      memcpy(PW, P, PB);
      apps::kalmanRefblas(N, Kk, Fm, Bm, Q, H, Rm, u, z, XW, PW, Scratch);
    });
    add("smallet", [=] {
      memcpy(XW, x, XB);
      memcpy(PW, P, PB);
      apps::kalmanSmallet(N, Kk, Fm, Bm, Q, H, Rm, u, z, XW, PW);
    });
    add("naive", [=] {
      memcpy(XW, x, XB);
      memcpy(PW, P, PB);
      naive::kalman(N, Kk, Fm, Bm, Q, H, Rm, u, z, XW, PW, Scratch);
    });
    if (!apps::kalmanSmallet(N, Kk, Fm, Bm, Q, H, Rm, u, z, XW, PW))
      Baselines.erase(Baselines.begin() + 1);
  } else if (F == "gpr") {
    const double *Km = in("K"), *X = in("X"), *x = in("x"), *y = in("y");
    Work.emplace_back(N * N + 4 * N + 64);
    double *Scratch = Work.back().data();
    double *Out = Scalars;
    add("refblas", [=] {
      apps::gprRefblas(N, Km, X, x, y, Out, Out + 1, Out + 2, Scratch);
    });
    add("smallet", [=] {
      apps::gprSmallet(N, Km, X, x, y, Out, Out + 1, Out + 2);
    });
    add("naive", [=] {
      naive::gpr(N, Km, X, x, y, Out, Out + 1, Out + 2, Scratch);
    });
    if (!apps::gprSmallet(N, Km, X, x, y, Out, Out + 1, Out + 2))
      Baselines.erase(Baselines.begin() + 1);
  } else if (F == "l1a") {
    const double *W = in("W"), *A = in("A"), *x0 = in("x0"), *y = in("y");
    double Alpha = *in("alpha"), Beta = *in("beta"), Tau = *in("tau");
    const double *V1 = in("v1"), *Z1 = in("z1"), *V2 = in("v2"),
                 *Z2 = in("z2");
    double *V1W = Work[copyOf("v1")].data(), *Z1W = Work[copyOf("z1")].data(),
           *V2W = Work[copyOf("v2")].data(), *Z2W = Work[copyOf("z2")].data();
    Work.emplace_back(4 * N + 64);
    double *Scratch = Work.back().data();
    size_t VB = sizeof(double) * N;
    auto restore = [=] {
      memcpy(V1W, V1, VB);
      memcpy(Z1W, Z1, VB);
      memcpy(V2W, V2, VB);
      memcpy(Z2W, Z2, VB);
    };
    add("refblas", [=] {
      restore();
      apps::l1aRefblas(N, W, A, x0, y, Alpha, Beta, Tau, V1W, Z1W, V2W, Z2W,
                       Scratch);
    });
    add("smallet", [=] {
      restore();
      apps::l1aSmallet(N, W, A, x0, y, Alpha, Beta, Tau, V1W, Z1W, V2W, Z2W);
    });
    add("naive", [=] {
      restore();
      naive::l1a(N, W, A, x0, y, Alpha, Beta, Tau, V1W, Z1W, V2W, Z2W,
                 Scratch);
    });
    if (!apps::l1aSmallet(N, W, A, x0, y, Alpha, Beta, Tau, V1W, Z1W, V2W,
                          Z2W))
      Baselines.erase(Baselines.begin() + 1);
  }
  Cycles.assign(1 + Baselines.size(), {});
  return true;
}

void SingleBench::callGenerated() const {
  for (int I : Reset)
    memcpy(Ptrs[I], In[I].data(), sizeof(double) * In[I].size());
  (void)K.call(Ptrs.data());
}

void SingleBench::warm() {
  Reps = repsPerWindow([this] { callGenerated(); });
  for (int R = 0; R < Reps; ++R)
    callGenerated();
  for (const Impl &B : Baselines)
    for (int R = 0; R < Reps; ++R)
      B.Fn();
}

void SingleBench::round() {
  for (size_t I = 0; I <= Baselines.size(); ++I) {
    uint64_t B = runtime::readCycles();
    if (I == 0)
      for (int R = 0; R < Reps; ++R)
        callGenerated();
    else
      for (int R = 0; R < Reps; ++R)
        Baselines[I - 1].Fn();
    Cycles[I].push_back(static_cast<double>(runtime::readCycles() - B) / Reps);
  }
}

bool SingleBench::check() {
  if (K.numParams() != static_cast<int>(Info.Params.size()))
    return false;
  for (size_t I = 0; I < Bufs.size(); ++I)
    std::copy(In[I].begin(), In[I].end(), Bufs[I].data());
  if (!K.call(Ptrs.data()).ok())
    return false;
  return outputsMatch(Info, Ptrs.data(), Want);
}

double SingleBench::bestBaselineCycles() const {
  double Best = 0.0;
  for (size_t I = 1; I < Cycles.size(); ++I) {
    double M = midMean(Cycles[I]);
    if (M > 0.0 && (Best == 0.0 || M < Best))
      Best = M;
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// BatchBench
//===----------------------------------------------------------------------===//

bool BatchBench::prepare(uint64_t Seed, int Max, std::string &Err) {
  if (!analyze(Spec.source(), Info, Err))
    return false;
  MaxCount = Max;
  size_t NP = Info.Params.size();
  Bufs.clear();
  Orig.clear();
  for (const ParamInfo &P : Info.Params)
    Orig.emplace_back(P.size() * MaxCount);
  Want.assign(NP, std::vector<std::vector<double>>(MaxCount));
  for (int B = 0; B < MaxCount; ++B) {
    Rng R(Seed * 1000003u + static_cast<uint64_t>(B));
    auto In = makeInputs(Info, R);
    auto Ref = referenceOutputs(Info, In);
    for (size_t I = 0; I < NP; ++I) {
      std::copy(In[I].begin(), In[I].end(),
                Orig[I].data() + B * Info.Params[I].size());
      Want[I][B] = std::move(Ref[I]);
    }
  }
  Bufs = Orig;
  Ptrs.clear();
  for (auto &Buf : Bufs)
    Ptrs.push_back(Buf.data());
  return true;
}

bool BatchBench::prepareReference(uint64_t Seed, std::string &Err) {
  RefInstances.clear();
  for (int B = 0; B < MaxCount; ++B) {
    auto S = std::make_unique<SingleBench>();
    S->Spec = Spec;
    if (!S->prepare(Seed * 1000003u + static_cast<uint64_t>(B), Err))
      return false;
    if (S->Baselines.empty())
      return true; // no in-tree baseline computes this program
    RefInstances.push_back(std::move(S));
  }
  // The fastest baseline on instance 0 is the reference.
  double Best = 0;
  for (size_t I = 0; I < RefInstances[0]->Baselines.size(); ++I) {
    const auto &Fn = RefInstances[0]->Baselines[I].Fn;
    Fn();
    uint64_t T0 = runtime::readCycles();
    for (int R = 0; R < 200; ++R)
      Fn();
    double Dt = static_cast<double>(runtime::readCycles() - T0);
    if (BestBaseline < 0 || Dt < Best) {
      Best = Dt;
      BestBaseline = static_cast<int>(I);
    }
  }
  return true;
}

void BatchBench::callReference(int Count) {
  for (int B = 0; B < Count; ++B)
    RefInstances[B]->Baselines[BestBaseline].Fn();
}

void BatchBench::calibrate(const std::vector<int> &Counts) {
  Rows.clear();
  for (int C : Counts) {
    Row Rw;
    Rw.Count = C;
    Rows.push_back(Rw);
  }
  // One window per sample, as for single calls.
  for (Row &Rw : Rows)
    Rw.Reps = repsPerWindow([&] { (void)K.callBatch(Rw.Count, Ptrs.data()); });
}

void BatchBench::restore(int Count) {
  for (size_t I = 0; I < Bufs.size(); ++I)
    if (Info.Params[I].Input && Info.Params[I].Written)
      memcpy(Bufs[I].data(), Orig[I].data(),
             sizeof(double) * Info.Params[I].size() * Count);
}

void BatchBench::round() {
  const double Rate = ticksPerNs();
  for (Row &Rw : Rows) {
    uint64_t B = runtime::readCycles();
    for (int R = 0; R < Rw.Reps; ++R) {
      restore(Rw.Count);
      (void)K.callBatch(Rw.Count, Ptrs.data());
    }
    double Ns = static_cast<double>(runtime::readCycles() - B) / Rate;
    Rw.NsPerCall.push_back(Ns / Rw.Reps);
    if (BestBaseline < 0)
      continue;
    B = runtime::readCycles();
    for (int R = 0; R < Rw.Reps; ++R)
      callReference(Rw.Count);
    Rw.RefNsPerCall.push_back(
        static_cast<double>(runtime::readCycles() - B) / Rate / Rw.Reps);
  }
}

bool BatchBench::check(int Count) {
  if (K.numParams() != static_cast<int>(Info.Params.size()) ||
      Count > MaxCount)
    return false;
  for (size_t I = 0; I < Bufs.size(); ++I)
    memcpy(Bufs[I].data(), Orig[I].data(),
           sizeof(double) * Info.Params[I].size() * MaxCount);
  if (!K.callBatch(Count, Ptrs.data()).ok())
    return false;
  for (size_t I = 0; I < Info.Params.size(); ++I) {
    if (!Info.Params[I].Written)
      continue;
    size_t Sz = Info.Params[I].size();
    for (int B = 0; B < Count; ++B)
      if (!(relError(Bufs[I].data() + B * Sz, Want[I][B]) <= CheckTolerance))
        return false;
    for (int B = Count; B < MaxCount; ++B) // past the count: untouched
      if (memcmp(Bufs[I].data() + B * Sz, Orig[I].data() + B * Sz,
                 sizeof(double) * Sz) != 0)
        return false;
  }
  return true;
}

} // namespace perfbench
