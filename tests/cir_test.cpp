//===- tests/cir_test.cpp - C-IR, interpreter, and pass tests --------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/CEmitter.h"
#include "cir/CIR.h"
#include "cir/Interp.h"
#include "cir/Verify.h"
#include "cir/Passes.h"
#include "expr/Program.h"
#include "isa/ISA.h"
#include "lgen/Tiler.h"
#include "runtime/Jit.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <regex>

using namespace slingen;
using namespace slingen::cir;

namespace {

/// Oracle hook: every function this suite executes must pass the static
/// verifier first (cir/Verify.h), so the whole hand-built and pass-produced
/// IR corpus doubles as the verifier's clean set. All interpret() calls
/// below route through here.
void interpretVerified(const Function &F,
                       const std::map<const Operand *, double *> &Buffers) {
  std::vector<VerifyError> Errors = verify(F);
  for (const VerifyError &E : Errors)
    ADD_FAILURE() << "verifier rejected interpreted IR: " << E.str();
  interpret(F, Buffers);
}

void interpretVerified(const Function &F,
                       const std::map<const Operand *, double *> &Buffers,
                       int Active) {
  std::vector<VerifyError> Errors = verify(F);
  for (const VerifyError &E : Errors)
    ADD_FAILURE() << "verifier rejected interpreted IR: " << E.str();
  interpret(F, Buffers, Active);
}

/// Convenience: an environment with one 4x4 input A and one 4x4 output C.
struct Kernel2 {
  Program P;
  Operand *A, *C;
  std::vector<double> ABuf, CBuf;

  Kernel2() {
    A = P.addOperand("A", 4, 4);
    C = P.addOperand("C", 4, 4);
    C->IO = IOKind::Out;
    ABuf.resize(16);
    CBuf.assign(16, 0.0);
    for (int I = 0; I < 16; ++I)
      ABuf[I] = I + 1;
  }

  std::map<const Operand *, double *> buffers() {
    return {{A, ABuf.data()}, {C, CBuf.data()}};
  }
};

TEST(CirInterp, ScalarLoop) {
  // C[i] = A[i] * 2 + 1 for i in [0,16).
  Kernel2 K;
  FuncBuilder B("k", 1);
  int Two = B.sconst(2.0);
  int One = B.sconst(1.0);
  int IV = B.beginLoop(0, 16, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 1}}));
  int M = B.sbin(Op::SMul, V, Two);
  int R = B.sbin(Op::SAdd, M, One);
  B.sstore(B.addr(K.C, 0, {{IV, 1}}), R);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  for (int I = 0; I < 16; ++I)
    EXPECT_DOUBLE_EQ(K.CBuf[I], K.ABuf[I] * 2.0 + 1.0);
}

TEST(CirInterp, VectorOpsAndMaskedTail) {
  // C[0:3) = A[0:3) + A[4:7) using a masked 3-lane AVX-style load/store.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 3);
  int V2 = B.vload(B.addr(K.A, 4), 3);
  int S = B.vbin(Op::VAdd, V1, V2);
  B.vstore(B.addr(K.C, 0), S, 3);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  for (int I = 0; I < 3; ++I)
    EXPECT_DOUBLE_EQ(K.CBuf[I], K.ABuf[I] + K.ABuf[4 + I]);
  EXPECT_DOUBLE_EQ(K.CBuf[3], 0.0); // untouched
}

TEST(CirInterp, StridedColumnAccessAndShuffle) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  // Load column 1 of A (stride 4), reverse it with a shuffle, store to row 0
  // of C.
  int Col = B.vloadStrided(B.addr(K.A, 1), 4, 4);
  int Rev = B.vshuffle(Col, Col, {3, 2, 1, 0});
  B.vstore(B.addr(K.C, 0), Rev, 4);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  for (int L = 0; L < 4; ++L)
    EXPECT_DOUBLE_EQ(K.CBuf[L], K.ABuf[(3 - L) * 4 + 1]);
}

TEST(CirInterp, ShuffleZeroAndTwoSource) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);  // 1 2 3 4
  int V2 = B.vload(B.addr(K.A, 4), 4);  // 5 6 7 8
  int Sh = B.vshuffle(V1, V2, {1, 4, -1, 7}); // 2 5 0 8
  B.vstore(B.addr(K.C, 0), Sh, 4);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0);
  EXPECT_DOUBLE_EQ(K.CBuf[1], 5.0);
  EXPECT_DOUBLE_EQ(K.CBuf[2], 0.0);
  EXPECT_DOUBLE_EQ(K.CBuf[3], 8.0);
}

TEST(CirInterp, ReduceExtractBroadcastFma) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4); // 1 2 3 4
  int Red = B.vreduceAdd(V1);          // 10
  B.sstore(B.addr(K.C, 0), Red);
  int E2 = B.vextract(V1, 2); // 3
  B.sstore(B.addr(K.C, 1), E2);
  int Bc = B.vbroadcast(E2);
  int Fma = B.vfma(Bc, V1, V1); // 3*A + A = 4A
  B.vstore(B.addr(K.C, 4), Fma, 4);
  Function F = B.take({K.A, K.C});
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 10.0);
  EXPECT_DOUBLE_EQ(K.CBuf[1], 3.0);
  for (int L = 0; L < 4; ++L)
    EXPECT_DOUBLE_EQ(K.CBuf[4 + L], 4.0 * K.ABuf[L]);
}

//===----------------------------------------------------------------------===//
// Passes.
//===----------------------------------------------------------------------===//

TEST(CirPasses, UnrollFoldsAddresses) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int IV = B.beginLoop(0, 4, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 4}}));
  B.sstore(B.addr(K.C, 0, {{IV, 4}}), V);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  unrollLoops(F, 8);
  EXPECT_EQ(countInsts(F), 8);
  // No loops remain.
  for (const Node &N : F.Body)
    EXPECT_TRUE(std::holds_alternative<Inst>(N));
  interpretVerified(F, K.buffers());
  for (int I = 0; I < 4; ++I)
    EXPECT_DOUBLE_EQ(K.CBuf[I * 4], K.ABuf[I * 4]);
}

TEST(CirPasses, UnrollKeepsLargeLoops) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int IV = B.beginLoop(0, 16, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 1}}));
  B.sstore(B.addr(K.C, 0, {{IV, 1}}), V);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  unrollLoops(F, 8);
  ASSERT_EQ(F.Body.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<Loop>(F.Body[0]));
}

TEST(CirPasses, CseDeduplicates) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int V1 = B.sload(B.addr(K.A, 0));
  int V2 = B.sload(B.addr(K.A, 1));
  int M1 = B.sbin(Op::SMul, V1, V2);
  int M2 = B.sbin(Op::SMul, V2, V1); // commutative duplicate
  int S = B.sbin(Op::SAdd, M1, M2);
  B.sstore(B.addr(K.C, 0), S);
  Function F = B.take({K.A, K.C});
  int Before = countInsts(F);
  cse(F);
  dce(F);
  EXPECT_LT(countInsts(F), Before);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0 * K.ABuf[0] * K.ABuf[1]);
}

TEST(CirPasses, DceRemovesUnusedChains) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int V1 = B.sload(B.addr(K.A, 0));
  int Dead1 = B.sbin(Op::SMul, V1, V1);
  B.sbin(Op::SAdd, Dead1, V1); // dead
  B.sstore(B.addr(K.C, 0), V1);
  Function F = B.take({K.A, K.C});
  dce(F);
  EXPECT_EQ(countInsts(F), 2);
}

TEST(CirPasses, StoreToLoadForwardingBecomesShuffle) {
  // The Fig. 11/12 scenario: two masked stores followed by a load that
  // gathers lanes from both stored vectors; after the pass the reload is a
  // shuffle and no load instruction remains.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 4);
  B.vstore(B.addr(K.C, 0), V1, 3);  // C[0..2] = A[0..2]
  B.vstore(B.addr(K.C, 3), V2, 2);  // C[3..4] = A[4..5]
  int Re = B.vload(B.addr(K.C, 1), 4); // lanes from both stores
  int Double_ = B.vbin(Op::VAdd, Re, Re);
  B.vstore(B.addr(K.C, 8), Double_, 4);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  int Loads = 0, Shuffles = 0;
  for (const Node &N : F.Body) {
    const Inst &I = std::get<Inst>(N);
    Loads += I.K == Op::VLoad && I.Address.Buf == K.C;
    Shuffles += I.K == Op::VShuffle;
  }
  EXPECT_EQ(Loads, 0) << F.str();
  EXPECT_EQ(Shuffles, 1) << F.str();
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[8], 2.0 * K.ABuf[1]);
  EXPECT_DOUBLE_EQ(K.CBuf[9], 2.0 * K.ABuf[2]);
  EXPECT_DOUBLE_EQ(K.CBuf[10], 2.0 * K.ABuf[4]);
  EXPECT_DOUBLE_EQ(K.CBuf[11], 2.0 * K.ABuf[5]);
}

TEST(CirPasses, ScalarForwardingAndExtract) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  B.vstore(B.addr(K.C, 0), V1, 4);
  int S = B.sload(B.addr(K.C, 2)); // becomes extract lane 2 of V1
  int D = B.sbin(Op::SAdd, S, S);
  B.sstore(B.addr(K.C, 4), D);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  bool SawExtract = false;
  for (const Node &N : F.Body) {
    const Inst &I = std::get<Inst>(N);
    EXPECT_NE(I.K, Op::SLoad);
    SawExtract |= I.K == Op::VExtract;
  }
  EXPECT_TRUE(SawExtract);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[4], 2.0 * K.ABuf[2]);
}

TEST(CirPasses, DeadStoreElimination) {
  Kernel2 K;
  FuncBuilder B("k", 1);
  int V1 = B.sload(B.addr(K.A, 0));
  int V2 = B.sload(B.addr(K.A, 1));
  B.sstore(B.addr(K.C, 0), V1); // dead: overwritten below, never read
  B.sstore(B.addr(K.C, 0), V2);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  int Stores = 0;
  for (const Node &N : F.Body)
    Stores += isStore(std::get<Inst>(N).K);
  EXPECT_EQ(Stores, 1);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], K.ABuf[1]);
}

TEST(CirPasses, RedundantLoadReuse) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 0), 4); // redundant
  int S = B.vbin(Op::VAdd, V1, V2);
  B.vstore(B.addr(K.C, 0), S, 4);
  Function F = B.take({K.A, K.C});
  loadStoreOpt(F);
  dce(F);
  int Loads = 0;
  for (const Node &N : F.Body)
    Loads += std::get<Inst>(N).K == Op::VLoad;
  EXPECT_EQ(Loads, 1);
  interpretVerified(F, K.buffers());
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0 * K.ABuf[0]);
}

TEST(CirPasses, OptimizePreservesSemantics) {
  // A mixed kernel exercised before/after the full pipeline.
  for (int Nu : {1, 4}) {
    Kernel2 K;
    FuncBuilder B("k", Nu);
    if (Nu == 1) {
      int IV = B.beginLoop(0, 4, 1);
      int V = B.sload(B.addr(K.A, 0, {{IV, 4}}));
      int W = B.sload(B.addr(K.A, 0, {{IV, 4}}));
      int M = B.sbin(Op::SMul, V, W);
      B.sstore(B.addr(K.C, 0, {{IV, 4}}), M);
      B.endLoop();
    } else {
      int V = B.vload(B.addr(K.A, 0), 4);
      B.vstore(B.addr(K.C, 0), V, 4);
      int R = B.vload(B.addr(K.C, 0), 4);
      int M = B.vbin(Op::VMul, R, R);
      B.vstore(B.addr(K.C, 4), M, 4);
    }
    Function F = B.take({K.A, K.C});
    // Reference run on separate buffers bound to the same operands.
    std::vector<double> RefA = K.ABuf, RefC = K.CBuf;
    std::map<const Operand *, double *> RefBufs = {{K.A, RefA.data()},
                                                   {K.C, RefC.data()}};
    interpretVerified(F, RefBufs);
    optimize(F);
    interpretVerified(F, K.buffers());
    EXPECT_EQ(RefC, K.CBuf) << "nu=" << Nu;
  }
}

/// Opcode histogram over the whole function body.
std::map<Op, int> opCounts(const Function &F) {
  std::map<Op, int> C;
  std::function<void(const std::vector<Node> &)> Walk =
      [&](const std::vector<Node> &Body) {
        for (const Node &N : Body) {
          if (const auto *I = std::get_if<Inst>(&N))
            ++C[I->K];
          else
            Walk(std::get<Loop>(N).Body);
        }
      };
  Walk(F.Body);
  return C;
}

/// Number of loads from \p Buf.
int loadsOf(const Function &F, const Operand *Buf) {
  int Loads = 0;
  for (const Node &N : F.Body)
    if (const auto *I = std::get_if<Inst>(&N))
      Loads += (I->K == Op::SLoad || I->K == Op::VLoad ||
                I->K == Op::VLoadStrided) &&
               I->Address.Buf == Buf;
  return Loads;
}

/// Interprets \p F before and after \p Pass on copies of the same inputs
/// and expects identical outputs.
void expectPassPreserves(Function &F, Kernel2 &K,
                         const std::function<void(Function &)> &Pass) {
  std::vector<double> RefA = K.ABuf, RefC = K.CBuf;
  interpretVerified(F, {{K.A, RefA.data()}, {K.C, RefC.data()}});
  Pass(F);
  interpretVerified(F, K.buffers());
  EXPECT_EQ(RefC, K.CBuf) << F.str();
}

TEST(CirPasses, StoredLanesAreRebuiltFromRegisters) {
  // Row 0 of C is written by a 3-lane masked store plus one scalar store,
  // column 0 by that store's lane 0 plus three scalar stores. Reloading
  // either as a vector would wait for the stores; both are rebuilt from
  // the producing registers (broadcasts and blends) instead.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V = B.vload(B.addr(K.A, 0), 4);
  B.vstore(B.addr(K.C, 0), B.vbin(Op::VAdd, V, V), 3);
  for (int R = 1; R < 4; ++R) {
    int S = B.sload(B.addr(K.A, 4 * R));
    B.sstore(B.addr(K.C, 4 * R), B.sbin(Op::SMul, S, S));
  }
  B.sstore(B.addr(K.C, 3), B.sload(B.addr(K.A, 15)));
  int Row = B.vload(B.addr(K.C, 0), 4);
  int Col = B.vloadStrided(B.addr(K.C, 0), 4, 4);
  B.vstore(B.addr(K.C, 8), B.vbin(Op::VSub, Row, Col), 4);
  Function F = B.take({K.A, K.C});
  expectPassPreserves(F, K, [](Function &G) {
    loadStoreOpt(G);
    dce(G);
  });
  EXPECT_EQ(loadsOf(F, K.C), 0) << F.str();
  std::map<Op, int> C = opCounts(F);
  EXPECT_GE(C[Op::VBroadcast], 3) << F.str();
  EXPECT_GE(C[Op::VShuffle], 3) << F.str();
}

TEST(CirPasses, StridedReloadOfLoadedLanesStaysALoad) {
  // The column's lanes sit in four scalar registers, but they came from
  // loads: a reload waits on no store, so it stays one strided load rather
  // than four broadcasts and three blends.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int Sum = B.sconst(0.0);
  for (int R = 0; R < 4; ++R)
    Sum = B.sbin(Op::SAdd, Sum, B.sload(B.addr(K.A, 4 * R)));
  int Col = B.vloadStrided(B.addr(K.A, 0), 4, 4);
  B.vstore(B.addr(K.C, 0), B.vbin(Op::VMul, Col, B.vbroadcast(Sum)), 4);
  Function F = B.take({K.A, K.C});
  expectPassPreserves(F, K, [](Function &G) {
    loadStoreOpt(G);
    dce(G);
  });
  std::map<Op, int> C = opCounts(F);
  EXPECT_EQ(C[Op::VLoadStrided], 1) << F.str();
  EXPECT_EQ(C[Op::VShuffle], 0) << F.str();
}

TEST(CirPasses, AccumulatorsStartAtTheirFirstTerm) {
  // C = A*B + C as broadcast-FMA tiles (nu = 4), y = A*x as grouped row
  // dots, and the scalar (nu = 1) form of both: no accumulator chain may
  // start with `0 + x` or `fma(a, b, 0)`.
  for (int Nu : {1, 4}) {
    Program P;
    Operand *A = P.addOperand("A", 4, 4);
    Operand *Bm = P.addOperand("B", 4, 4);
    Operand *Cm = P.addOperand("C", 4, 4);
    Operand *X = P.addOperand("x", 4, 1);
    Operand *Y = P.addOperand("y", 4, 1);
    Cm->IO = IOKind::InOut;
    Y->IO = IOKind::Out;
    P.append({view(Cm), add(mul(view(A), view(Bm)), view(Cm))});
    P.append({view(Y), mul(view(A), view(X))});
    lgen::TileOptions Opt;
    Opt.Nu = Nu;
    FuncBuilder B("acc", Nu);
    std::set<const Operand *> Defined = P.initiallyDefined();
    for (const EqStmt &S : P.stmts()) {
      classifyStmt(S, Defined);
      lgen::compileSBlac(B, S, Opt);
    }
    Function F = B.take({A, Bm, Cm, X, Y});
    optimize(F);
    std::set<int> Zeros;
    for (const Node &N : F.Body) {
      const Inst &I = std::get<Inst>(N);
      if ((I.K == Op::VConst || I.K == Op::SConst) && I.Imm == 0.0)
        Zeros.insert(I.Dst);
      bool Accumulates = I.K == Op::VAdd || I.K == Op::SAdd ||
                         I.K == Op::VSub || I.K == Op::SSub ||
                         I.K == Op::VFma;
      EXPECT_FALSE(Accumulates && (Zeros.count(I.A) || Zeros.count(I.B) ||
                                   Zeros.count(I.C)))
          << "nu=" << Nu << ": " << I.str();
    }
    std::vector<double> Buf[5];
    for (int O = 0; O < 5; ++O)
      for (int E = 0; E < (O < 3 ? 16 : 4); ++E)
        Buf[O].push_back(O == 4 ? 0.0 : 0.25 * (E % 7) - 0.5 * O);
    std::vector<double> C0 = Buf[2];
    interpretVerified(F, {{A, Buf[0].data()},
                          {Bm, Buf[1].data()},
                          {Cm, Buf[2].data()},
                          {X, Buf[3].data()},
                          {Y, Buf[4].data()}});
    for (int R = 0; R < 4; ++R) {
      double Dot = 0.0;
      for (int P_ = 0; P_ < 4; ++P_)
        Dot += Buf[0][R * 4 + P_] * Buf[3][P_];
      EXPECT_NEAR(Buf[4][R], Dot, 1e-12) << "nu=" << Nu;
      for (int Cc = 0; Cc < 4; ++Cc) {
        double Want = C0[R * 4 + Cc];
        for (int P_ = 0; P_ < 4; ++P_)
          Want += Buf[0][R * 4 + P_] * Buf[1][P_ * 4 + Cc];
        EXPECT_NEAR(Buf[2][R * 4 + Cc], Want, 1e-12) << "nu=" << Nu;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// C emitter (textual checks; compile-and-run is covered by the JIT tests).
//===----------------------------------------------------------------------===//

TEST(CEmitter, LaneAccessesTakeNoStackTemporary) {
  // Every lane extract and a strided store of every lane, per ISA: the
  // lanes are reached through register moves (castpd/extractf128/
  // extractf64x4 + unpackhi), never a store to a stack array and a reload.
  for (const VectorISA *Isa : {&sse2Isa(), &avxIsa(), &avx512Isa()}) {
    const int Nu = Isa->Nu;
    Program P;
    Operand *A = P.addOperand("A", 8, 8);
    Operand *C = P.addOperand("C", 8, 8);
    C->IO = IOKind::Out;
    FuncBuilder B("lanes", Nu);
    int V = B.vbin(Op::VMul, B.vload(B.addr(A, 0), Nu),
                   B.vload(B.addr(A, 8), Nu));
    for (int L = 0; L < Nu; ++L)
      B.sstore(B.addr(C, L), B.sbin(Op::SAdd, B.vextract(V, L),
                                    B.sload(B.addr(A, 16 + L))));
    B.vstoreStrided(B.addr(C, 8), V, 7, Nu);
    Function F = B.take({A, C});
    F.ParamWritable = {false, true};
    std::string Src = emitTranslationUnit(F);
    EXPECT_FALSE(std::regex_search(Src, std::regex("r[0-9]+ = t[0-9]+_\\[")))
        << Src;
    EXPECT_EQ(Src.find("double t"), std::string::npos) << Src;

    std::vector<double> In(64), Want(64, 0.0), Got(64, 0.0);
    for (int E = 0; E < 64; ++E)
      In[E] = 1.0 + 0.125 * E;
    interpretVerified(F, {{A, In.data()}, {C, Want.data()}});
    if (!runtime::haveSystemCompiler() || hostIsa().Nu < Nu)
      continue; // the host cannot run this width
    std::string Err;
    runtime::CompileOptions CO;
    CO.ExtraFlags = runtime::isaCompileFlags(*Isa);
    auto K = runtime::JitKernel::compile(Src, "lanes", 2, CO, Err);
    ASSERT_TRUE(K) << Err;
    double *Bufs[] = {In.data(), Got.data()};
    K->call(Bufs);
    EXPECT_EQ(Got, Want) << Isa->Name;
  }
}

TEST(CEmitter, ScalarKernelText) {
  Kernel2 K;
  FuncBuilder B("saxpyish", 1);
  int IV = B.beginLoop(0, 16, 1);
  int V = B.sload(B.addr(K.A, 0, {{IV, 1}}));
  int M = B.sbin(Op::SMul, V, V);
  B.sstore(B.addr(K.C, 0, {{IV, 1}}), M);
  B.endLoop();
  Function F = B.take({K.A, K.C});
  F.ParamWritable = {false, true};
  std::string C = emitTranslationUnit(F);
  EXPECT_NE(C.find("void saxpyish(const double *__restrict A, "
                   "double *__restrict C)"),
            std::string::npos)
      << C;
  EXPECT_NE(C.find("for (int i0 = 0; i0 < 16; i0 += 1)"), std::string::npos);
  EXPECT_EQ(C.find("immintrin"), std::string::npos);
}

TEST(CEmitter, VectorKernelUsesIntrinsics) {
  Kernel2 K;
  FuncBuilder B("vk", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 3); // masked
  int S = B.vbin(Op::VAdd, V1, V2);
  int Sh = B.vshuffle(S, S, {2, 3, 0, 1});  // swaps 128-bit halves
  int Rev = B.vshuffle(S, S, {3, 2, 1, 0}); // needs a full permute
  int Bl = B.vshuffle(V1, V2, {0, 5, 2, 7});
  int Fma = B.vfma(Rev, Sh, Bl);
  B.vstore(B.addr(K.C, 0), Fma, 4);
  B.vstore(B.addr(K.C, 8), S, 2);
  Function F = B.take({K.A, K.C});
  std::string C = emitTranslationUnit(F);
  EXPECT_NE(C.find("_mm256_loadu_pd"), std::string::npos) << C;
  EXPECT_NE(C.find("_mm256_maskload_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_maskstore_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_permute4x64_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_permute2f128_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_blend_pd"), std::string::npos);
  EXPECT_NE(C.find("_mm256_fmadd_pd"), std::string::npos);
  EXPECT_NE(C.find("mk3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// FMA contraction and runtime-masked lane-strided ops.
//===----------------------------------------------------------------------===//


TEST(CirPasses, ContractFmaFusesMulAddAndMulSub) {
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 4);
  int V3 = B.vload(B.addr(K.A, 8), 4);
  int M1 = B.vbin(Op::VMul, V1, V2);
  int S1 = B.vbin(Op::VAdd, M1, V3); // -> VFma(V1, V2, V3)
  B.vstore(B.addr(K.C, 0), S1, 4);
  int M2 = B.vbin(Op::VMul, V1, V3);
  int S2 = B.vbin(Op::VSub, V2, M2); // c - a*b -> VFnma(V1, V3, V2)
  B.vstore(B.addr(K.C, 4), S2, 4);
  Function F = B.take({K.A, K.C});
  contractFma(F);
  std::map<Op, int> C = opCounts(F);
  EXPECT_EQ(C[Op::VMul], 0) << F.str();
  EXPECT_EQ(C[Op::VAdd], 0) << F.str();
  EXPECT_EQ(C[Op::VSub], 0) << F.str();
  EXPECT_EQ(C[Op::VFma], 1) << F.str();
  EXPECT_EQ(C[Op::VFnma], 1) << F.str();
  interpretVerified(F, K.buffers());
  for (int L = 0; L < 4; ++L) {
    EXPECT_DOUBLE_EQ(K.CBuf[L],
                     std::fma(K.ABuf[L], K.ABuf[4 + L], K.ABuf[8 + L]));
    EXPECT_DOUBLE_EQ(K.CBuf[4 + L],
                     std::fma(-K.ABuf[L], K.ABuf[8 + L], K.ABuf[4 + L]));
  }
}

TEST(CirPasses, ContractFmaLeavesMultiUseMulAlone) {
  // The product feeds both an add and a store: fusing would change the
  // stored value's rounding, so the mul must survive and the add must not
  // be contracted.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V1 = B.vload(B.addr(K.A, 0), 4);
  int V2 = B.vload(B.addr(K.A, 4), 4);
  int M = B.vbin(Op::VMul, V1, V2);
  int S = B.vbin(Op::VAdd, M, V1);
  B.vstore(B.addr(K.C, 0), M, 4);
  B.vstore(B.addr(K.C, 4), S, 4);
  Function F = B.take({K.A, K.C});
  contractFma(F);
  std::map<Op, int> C = opCounts(F);
  EXPECT_EQ(C[Op::VMul], 1) << F.str();
  EXPECT_EQ(C[Op::VAdd], 1) << F.str();
  EXPECT_EQ(C[Op::VFma], 0) << F.str();
}

TEST(CirInterp, MaskedStridedOpsHonorActiveLanes) {
  // Lane-strided masked load/store against a 4-element-stride column;
  // active_ = 2 must read/write lanes {0, 1} only and zero dead load lanes.
  Kernel2 K;
  FuncBuilder B("k", 4);
  int V = B.vloadStridedMasked(B.addr(K.A, 0), 4, 4);
  int D = B.vbin(Op::VAdd, V, V);
  B.vstoreStridedMasked(B.addr(K.C, 0), D, 4, 4);
  Function F = B.take({K.A, K.C});
  F.HasTailMask = true;
  interpretVerified(F, K.buffers(), /*Active=*/2);
  EXPECT_DOUBLE_EQ(K.CBuf[0], 2.0 * K.ABuf[0]);
  EXPECT_DOUBLE_EQ(K.CBuf[4], 2.0 * K.ABuf[4]);
  EXPECT_DOUBLE_EQ(K.CBuf[8], 0.0) << "inactive lane stored";
  EXPECT_DOUBLE_EQ(K.CBuf[12], 0.0) << "inactive lane stored";
}

TEST(CEmitter, MaskedOpsTakeActiveParamPerIsa) {
  // Each width lowers the runtime tail mask differently: AVX-512 k-masks,
  // AVX2 compare-derived integer masks, SSE2 lane-split scalar moves. All
  // gain the trailing `int active_` parameter.
  for (int Nu : {2, 4, 8}) {
    Kernel2 K;
    FuncBuilder B("mk", Nu);
    int V = B.vloadStridedMasked(B.addr(K.A, 0), 4, Nu);
    B.vstoreStridedMasked(B.addr(K.C, 0), V, 4, Nu);
    Function F = B.take({K.A, K.C});
    F.HasTailMask = true;
    std::string C = emitTranslationUnit(F);
    EXPECT_NE(C.find("int active_"), std::string::npos) << C;
    if (Nu == 8) {
      EXPECT_NE(C.find("kact_"), std::string::npos) << C;
      EXPECT_NE(C.find("_mm512_mask_i64gather_pd"), std::string::npos) << C;
      EXPECT_NE(C.find("_mm512_mask_i64scatter_pd"), std::string::npos) << C;
    } else if (Nu == 4) {
      EXPECT_NE(C.find("mact_"), std::string::npos) << C;
      EXPECT_NE(C.find("_mm256_mask_i64gather_pd"), std::string::npos) << C;
    } else {
      EXPECT_NE(C.find("active_ > 1"), std::string::npos) << C;
    }
  }
}

} // namespace
