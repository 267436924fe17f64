//===- tests/jit_test.cpp - generated-C integration tests ------------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// Compiles the emitted C with the system compiler, loads it, and checks it
// against the dense evaluator -- the path every benchmark uses. Skipped
// when no C compiler is available.
//===----------------------------------------------------------------------===//

#include "cir/CEmitter.h"
#include "expr/Evaluator.h"
#include "la/Lower.h"
#include "la/Programs.h"
#include "runtime/Jit.h"
#include "runtime/Timing.h"
#include "slingen/SLinGen.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

using namespace slingen;
using namespace slingen::testdata;

namespace {

#define SKIP_WITHOUT_CC()                                                     \
  if (!runtime::haveSystemCompiler())                                         \
  GTEST_SKIP() << "no system C compiler"

/// Generates, JIT-compiles and runs \p Source; compares all outputs against
/// the dense evaluator.
void checkJit(const std::string &Source,
              const std::vector<std::pair<std::string, std::vector<double>>>
                  &Inputs,
              const GenOptions &O, double Tol) {
  std::string Err;
  auto Ref = la::compileLa(Source, Err);
  ASSERT_TRUE(Ref) << Err;
  Env E;
  for (const auto &[Name, Data] : Inputs)
    E.set(Ref->findOperand(Name), Data);
  evalProgram(*Ref, E);

  auto Gen = la::compileLa(Source, Err);
  ASSERT_TRUE(Gen) << Err;
  Generator G(std::move(*Gen), O);
  ASSERT_TRUE(G.isValid()) << G.error();
  auto R = G.best(4);
  ASSERT_TRUE(R);

  std::string C = emitC(*R);
  auto K = runtime::JitKernel::compile(
      C, R->Func.Name, static_cast<int>(R->Func.Params.size()), Err);
  ASSERT_TRUE(K) << Err << "\n--- source ---\n" << C;

  std::vector<std::vector<double>> Storage;
  std::vector<double *> Bufs;
  for (const Operand *P : R->Func.Params) {
    Storage.emplace_back(static_cast<size_t>(P->Rows) * P->Cols, 0.0);
    for (const auto &[Name, Data] : Inputs)
      if (Name == P->Name)
        Storage.back() = Data;
  }
  for (auto &S : Storage)
    Bufs.push_back(S.data());
  K->call(Bufs.data());

  for (const Operand *Op : R->Basic.operands()) {
    if (Op->IsTemp || !Op->isWritable())
      continue;
    std::vector<double> Want = E.get(Ref->findOperand(Op->Name));
    const Operand *Root = Op->root();
    size_t Idx = 0;
    for (; Idx < R->Func.Params.size(); ++Idx)
      if (R->Func.Params[Idx] == Root)
        break;
    ASSERT_LT(Idx, R->Func.Params.size());
    double MaxDiff = 0.0;
    for (size_t I = 0; I < Want.size(); ++I)
      MaxDiff = std::max(MaxDiff, std::fabs(Want[I] - Storage[Idx][I]));
    EXPECT_LT(MaxDiff, Tol) << "output " << Op->Name;
  }
}

GenOptions hostOpts() {
  GenOptions O;
  O.Isa = &hostIsa();
  return O;
}

TEST(Jit, CompilerProbe) { SUCCEED() << runtime::haveSystemCompiler(); }

TEST(Jit, PotrfCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 11, 16, 24}) {
    Rng R(N);
    checkJit(la::potrfSource(N), {{"A", spd(N, R)}}, hostOpts(), 1e-8 * N);
  }
}

TEST(Jit, TrsylCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 12}) {
    Rng R(N + 1);
    checkJit(la::trsylSource(N),
             {{"L", lowerTri(N, R)},
              {"U", upperTri(N, R)},
              {"C", general(N, N, R)}},
             hostOpts(), 1e-7 * N);
  }
}

TEST(Jit, TrlyaCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 12}) {
    Rng R(N + 2);
    checkJit(la::trlyaSource(N),
             {{"L", lowerTri(N, R)}, {"S", symmetric(N, R)}}, hostOpts(),
             1e-7 * N);
  }
}

TEST(Jit, TrtriCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  for (int N : {4, 12}) {
    Rng R(N + 3);
    checkJit(la::trtriSource(N), {{"L", lowerTri(N, R)}}, hostOpts(),
             1e-7 * N);
  }
}

TEST(Jit, KalmanCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  int N = 8;
  Rng R(99);
  checkJit(la::kalmanSource(N, N),
           {{"F", general(N, N, R)},
            {"Bm", general(N, N, R)},
            {"Q", spd(N, R)},
            {"H", general(N, N, R)},
            {"R", spd(N, R)},
            {"P", spd(N, R)},
            {"u", general(N, 1, R)},
            {"x", general(N, 1, R)},
            {"z", general(N, 1, R)}},
           hostOpts(), 1e-6);
}

TEST(Jit, GprCompiledMatchesOracle) {
  SKIP_WITHOUT_CC();
  int N = 12;
  Rng R(77);
  checkJit(la::gprSource(N),
           {{"K", spd(N, R)},
            {"X", general(N, N, R)},
            {"x", general(N, 1, R)},
            {"y", general(N, 1, R)}},
           hostOpts(), 1e-6);
}

TEST(Jit, Avx512CompilesAndRunsWhenHosted) {
  SKIP_WITHOUT_CC();
  if (hostIsa().Nu < 8)
    GTEST_SKIP() << "host has no AVX-512";
  GenOptions O;
  O.Isa = &avx512Isa();
  Rng R(6);
  checkJit(la::potrfSource(16), {{"A", spd(16, R)}}, O, 1e-8);
  Rng R2(7);
  checkJit(la::trsylSource(12),
           {{"L", lowerTri(12, R2)},
            {"U", upperTri(12, R2)},
            {"C", general(12, 12, R2)}},
           O, 1e-7);
}

TEST(Jit, ScalarIsaAlsoCompiles) {
  SKIP_WITHOUT_CC();
  GenOptions O;
  O.Isa = &scalarIsa();
  Rng R(5);
  checkJit(la::potrfSource(8), {{"A", spd(8, R)}}, O, 1e-8);
}

TEST(Jit, MeasurementHarnessProducesStableCycles) {
  SKIP_WITHOUT_CC();
  // Measure a trivial known workload and check the harness invariants:
  // positive median, quartiles bracket it.
  volatile double Sink = 0.0;
  auto M = runtime::measureCycles(
      [&] {
        double S = 0.0;
        for (int I = 0; I < 256; ++I)
          S += I * 1.5;
        Sink = S;
      },
      15, 2);
  EXPECT_GT(M.Median, 0.0);
  EXPECT_LE(M.Q1, M.Median);
  EXPECT_LE(M.Median, M.Q3);
}

/// Runs \p Call(T) -- one kernel call on thread T's own buffers -- from
/// four threads at once, many times each, and returns how many calls left
/// outputs that fail \p Matches(T).
int racedMismatches(const std::function<void(int)> &Call,
                    const std::function<bool(int)> &Matches) {
  constexpr int Threads = 4, Calls = 4000;
  std::atomic<int> Ready{0}, Bad{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      ++Ready;
      while (Ready.load() < Threads) {
      }
      for (int C = 0; C < Calls; ++C) {
        Call(T);
        Bad += !Matches(T);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  return Bad.load();
}

std::string splitUnit(const cir::Function &F, int MaxInstsPerPart) {
  return "#include <math.h>\n#include <immintrin.h>\n\n" +
         cir::emitFunctionSplit(F, MaxInstsPerPart);
}

TEST(Jit, SplitKernelIsReentrant) {
  SKIP_WITHOUT_CC();
  // A split gpr4 (its temporaries are tmp0/tmp1) keeps them in the entry
  // function's frame, so one kernel shared by four threads gives each
  // call the result it gives alone.
  std::string Err;
  auto P = la::compileLa(la::gprSource(4), Err);
  ASSERT_TRUE(P) << Err;
  Generator G(std::move(*P), hostOpts());
  ASSERT_TRUE(G.isValid()) << G.error();
  auto R = G.best(4);
  ASSERT_TRUE(R);
  const cir::Function &F = R->Func;
  ASSERT_FALSE(F.Locals.empty());
  std::string C = splitUnit(F, 1);
  ASSERT_NE(C.find(F.Name + "_part1("), std::string::npos) << "not split";
  EXPECT_EQ(C.find("static double"), std::string::npos) << C;
  auto K = runtime::JitKernel::compile(
      C, F.Name, static_cast<int>(F.Params.size()), Err);
  ASSERT_TRUE(K) << Err << "\n--- source ---\n" << C;

  // Per-thread inputs and the result of a call made alone.
  std::vector<std::vector<std::vector<double>>> In(4), Out(4), Want(4);
  std::vector<std::vector<double *>> Ptrs(4);
  for (int T = 0; T < 4; ++T) {
    Rng Gen(900 + T);
    for (const Operand *Op : F.Params) {
      std::vector<double> V(static_cast<size_t>(Op->Rows) * Op->Cols, 0.0);
      if (Op->Name == "K")
        V = spd(4, Gen);
      else if (Op->Name == "X" || Op->Name == "x" || Op->Name == "y")
        V = general(Op->Rows, Op->Cols, Gen);
      In[T].push_back(V);
    }
    Out[T] = In[T];
    for (auto &V : Out[T])
      Ptrs[T].push_back(V.data());
    K->call(Ptrs[T].data());
    Want[T] = Out[T];
  }
  int Bad = racedMismatches(
      [&](int T) {
        for (size_t I = 0; I < In[T].size(); ++I)
          std::copy(In[T][I].begin(), In[T][I].end(), Out[T][I].begin());
        K->call(Ptrs[T].data());
      },
      [&](int T) { return Out[T] == Want[T]; });
  EXPECT_EQ(Bad, 0);
}

TEST(Jit, SplitKernelPartsShareOnlyTheirCallsTemporaries) {
  SKIP_WITHOUT_CC();
  // T = 2A in one part, C = T + A in the next: the temporary carries data
  // across the split. If the parts shared one T between concurrent calls,
  // a call would read another thread's doubled A.
  constexpr int N = 64;
  Program Prog;
  Operand *A = Prog.addOperand("A", N, 1);
  Operand *Cv = Prog.addOperand("C", N, 1);
  Operand *T = Prog.addOperand("T", N, 1);
  cir::FuncBuilder B("carry", 1);
  int Two = B.sconst(2.0);
  int I0 = B.beginLoop(0, N, 1);
  B.sstore(B.addr(T, 0, {{I0, 1}}),
           B.sbin(cir::Op::SMul, B.sload(B.addr(A, 0, {{I0, 1}})), Two));
  B.endLoop();
  int I1 = B.beginLoop(0, N, 1);
  B.sstore(B.addr(Cv, 0, {{I1, 1}}),
           B.sbin(cir::Op::SAdd, B.sload(B.addr(T, 0, {{I1, 1}})),
                  B.sload(B.addr(A, 0, {{I1, 1}}))));
  B.endLoop();
  cir::Function F = B.take({A, Cv});
  F.ParamWritable = {false, true};
  F.Locals = {T};
  std::string C = splitUnit(F, 1);
  ASSERT_NE(C.find("carry_part1("), std::string::npos) << "not split";
  std::string Err;
  auto K = runtime::JitKernel::compile(C, "carry", 2, Err);
  ASSERT_TRUE(K) << Err << "\n--- source ---\n" << C;

  std::vector<std::vector<double>> AIn(4), COut(4, std::vector<double>(N));
  for (int Th = 0; Th < 4; ++Th)
    for (int E = 0; E < N; ++E)
      AIn[Th].push_back(1000.0 * Th + E);
  int Bad = racedMismatches(
      [&](int Th) {
        double *Bufs[] = {AIn[Th].data(), COut[Th].data()};
        K->call(Bufs);
      },
      [&](int Th) {
        for (int E = 0; E < N; ++E)
          if (COut[Th][E] != 3.0 * AIn[Th][E])
            return false;
        return true;
      });
  EXPECT_EQ(Bad, 0);
}

TEST(Jit, CompileErrorIsReported) {
  SKIP_WITHOUT_CC();
  std::string Err;
  auto K = runtime::JitKernel::compile("void broken(double *a) { this is "
                                       "not C; }",
                                       "broken", 1, Err);
  EXPECT_FALSE(K);
  EXPECT_FALSE(Err.empty());
}

} // namespace
