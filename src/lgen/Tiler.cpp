//===- lgen/Tiler.cpp -----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lgen/Tiler.h"

#include "lgen/NuBlacs.h"

#include <algorithm>
#include <cassert>

using namespace slingen;
using namespace slingen::lgen;
using cir::FuncBuilder;
using cir::Op;

//===----------------------------------------------------------------------===//
// Term flattening.
//===----------------------------------------------------------------------===//

static bool flattenInto(const ExprPtr &E, int Sign, std::vector<Term> &Out) {
  switch (E->kind()) {
  case ExprKind::Add: {
    const auto *B = cast<BinaryExpr>(E.get());
    return flattenInto(B->L, Sign, Out) && flattenInto(B->R, Sign, Out);
  }
  case ExprKind::Sub: {
    const auto *B = cast<BinaryExpr>(E.get());
    return flattenInto(B->L, Sign, Out) && flattenInto(B->R, -Sign, Out);
  }
  case ExprKind::Neg:
    return flattenInto(cast<UnaryExpr>(E.get())->Sub, -Sign, Out);
  case ExprKind::Mul: {
    const auto *B = cast<BinaryExpr>(E.get());
    std::vector<Term> L, R;
    if (!flattenInto(B->L, Sign, L) || !flattenInto(B->R, 1, R))
      return false;
    if (L.size() != 1 || R.size() != 1)
      return false; // no distribution: SLinGen pre-normalizes
    Term T;
    T.Sign = L[0].Sign * R[0].Sign;
    T.Mat = L[0].Mat;
    T.Mat.insert(T.Mat.end(), R[0].Mat.begin(), R[0].Mat.end());
    T.Sca = L[0].Sca;
    T.Sca.insert(T.Sca.end(), R[0].Sca.begin(), R[0].Sca.end());
    if (T.Mat.size() > 2)
      return false;
    Out.push_back(std::move(T));
    return true;
  }
  case ExprKind::View:
  case ExprKind::Trans:
  case ExprKind::Const: {
    Term T;
    T.Sign = Sign;
    if (E->isScalarShaped()) {
      T.Sca.push_back(E);
    } else {
      bool Tr = false;
      const ViewExpr *V = asViewMaybeTrans(E, Tr);
      if (!V)
        return false;
      T.Mat.push_back({V, Tr});
    }
    Out.push_back(std::move(T));
    return true;
  }
  default:
    return false; // Div/Sqrt/Inv do not appear in sBLACs
  }
}

bool lgen::flattenRhs(const ExprPtr &E, std::vector<Term> &Out) {
  Out.clear();
  return flattenInto(E, 1, Out);
}

//===----------------------------------------------------------------------===//
// Scalar statements.
//===----------------------------------------------------------------------===//

static int emitScalarExpr(FuncBuilder &B, const ExprPtr &E) {
  assert(E->isScalarShaped() && "non-scalar in scalar statement");
  if (const auto *V = dyn_cast<ViewExpr>(E))
    return loadElem(B, *V, false, 0, 0);
  if (const auto *C = dyn_cast<ConstExpr>(E))
    return B.sconst(C->Value);
  if (const auto *U = dyn_cast<UnaryExpr>(E)) {
    switch (U->kind()) {
    case ExprKind::Trans:
      return emitScalarExpr(B, U->Sub);
    case ExprKind::Neg:
      return B.sneg(emitScalarExpr(B, U->Sub));
    case ExprKind::Sqrt:
      return B.ssqrt(emitScalarExpr(B, U->Sub));
    default:
      assert(false && "bad scalar unary");
    }
  }
  const auto *Bin = cast<BinaryExpr>(E.get());
  int L = emitScalarExpr(B, Bin->L);
  int R = emitScalarExpr(B, Bin->R);
  switch (Bin->kind()) {
  case ExprKind::Add:
    return B.sbin(Op::SAdd, L, R);
  case ExprKind::Sub:
    return B.sbin(Op::SSub, L, R);
  case ExprKind::Mul:
    return B.sbin(Op::SMul, L, R);
  case ExprKind::Div:
    return B.sbin(Op::SDiv, L, R);
  default:
    assert(false && "bad scalar binary");
    return -1;
  }
}

void lgen::compileScalarStmt(FuncBuilder &B, const EqStmt &S) {
  const auto *L = cast<ViewExpr>(S.Lhs.get());
  int R = emitScalarExpr(B, S.Rhs);
  storeElem(B, *L, false, 0, 0, R);
}

//===----------------------------------------------------------------------===//
// Tiled emission.
//===----------------------------------------------------------------------===//

namespace {

class SBlacTiler {
public:
  SBlacTiler(FuncBuilder &B, const EqStmt &S, const TileOptions &Opt)
      : B(B), Opt(Opt), Nu(Opt.Nu), Lhs(cast<ViewExpr>(S.Lhs.get())) {
    [[maybe_unused]] bool Ok = flattenRhs(S.Rhs, Terms);
    assert(Ok && "unsupported sBLAC shape reached the tiler");
    checkAliasing();
    hoistScalars();
  }

  void run() {
    int M = Lhs->rows(), N = Lhs->cols();
    if (M == 1 && N == 1) {
      emitReducedRow(Pos(0), /*Constant=*/true);
      return;
    }
    if (Nu == 1) {
      emitScalarized();
      return;
    }
    if (N == 1) {
      bool HasProduct = false;
      for (const Term &T : Terms)
        HasProduct |= T.Mat.size() == 2;
      if (HasProduct)
        emitReducedRows();
      else
        emitLinearColumn();
      return;
    }
    emitBroadcastTiles();
  }

private:
  FuncBuilder &B;
  const TileOptions &Opt;
  int Nu;
  const ViewExpr *Lhs;
  std::vector<Term> Terms;
  std::vector<int> CoefReg; ///< per-term signed scalar coefficient (or -1)

  /// RHS views must be identical to or disjoint from the LHS region.
  void checkAliasing() const {
    for (const Term &T : Terms)
      for (const Factor &F : T.Mat) {
        if (!F.V->overlaps(*Lhs))
          continue;
        [[maybe_unused]] bool Same =
            F.V->Op->root() == Lhs->Op->root() && F.V->R0 == Lhs->R0 &&
            F.V->C0 == Lhs->C0 && F.V->rows() == Lhs->rows() &&
            F.V->cols() == Lhs->cols() && !F.Trans &&
            T.Mat.size() == 1;
        assert(Same && "partial aliasing between LHS and RHS views");
      }
  }

  /// Evaluates the scalar coefficient of each term once, folding the sign.
  /// CoefReg[t] < 0 means "no coefficient" (sign handled at use sites).
  void hoistScalars() {
    CoefReg.assign(Terms.size(), -1);
    for (size_t T = 0; T < Terms.size(); ++T) {
      if (Terms[T].Sca.empty())
        continue;
      int R = -1;
      for (const ExprPtr &S : Terms[T].Sca) {
        int V = emitScalarExpr(B, S);
        R = R < 0 ? V : B.sbin(Op::SMul, R, V);
      }
      if (Terms[T].Sign < 0) {
        R = B.sneg(R);
        Terms[T].Sign = 1;
      }
      CoefReg[T] = R;
    }
  }

  bool symOutUpper() const {
    return Lhs->structure() == StructureKind::SymmetricUpper;
  }
  bool symOutLower() const {
    return Lhs->structure() == StructureKind::SymmetricLower;
  }

  /// Inner-index range [Lo, Hi) with possible non-zeros for a product term,
  /// given the output tile rows [RLo, RHi) and cols [CLo, CHi). Constant
  /// positions only (unrolled mode).
  static std::pair<int, int> nonzeroPRange(const Factor &A, const Factor &X,
                                           int K, int RLo, int RHi, int CLo,
                                           int CHi) {
    int Lo = 0, Hi = K;
    switch (A.effStructure()) {
    case StructureKind::LowerTriangular:
      Hi = std::min(Hi, RHi);
      break;
    case StructureKind::UpperTriangular:
      Lo = std::max(Lo, RLo);
      break;
    case StructureKind::Diagonal:
    case StructureKind::Identity:
      Lo = std::max(Lo, RLo);
      Hi = std::min(Hi, RHi);
      break;
    case StructureKind::Zero:
      return {0, 0};
    default:
      break;
    }
    switch (X.effStructure()) {
    case StructureKind::LowerTriangular:
      Lo = std::max(Lo, CLo);
      break;
    case StructureKind::UpperTriangular:
      Hi = std::min(Hi, CHi);
      break;
    case StructureKind::Diagonal:
    case StructureKind::Identity:
      Lo = std::max(Lo, CLo);
      Hi = std::min(Hi, CHi);
      break;
    case StructureKind::Zero:
      return {0, 0};
    default:
      break;
    }
    return {Lo, std::max(Lo, Hi)};
  }

  static bool termIsZero(const Term &T) {
    for (const Factor &F : T.Mat)
      if (F.effStructure() == StructureKind::Zero)
        return true;
    return false;
  }

  /// The one way a term enters an accumulator chain: returns Acc + Sign*V,
  /// or Acc + V*W for a product (W >= 0; fused on vectors). Acc < 0 is the
  /// empty chain, which starts at the term itself. A zero start would put
  /// `0 + x` or `fma(a, b, 0)` on the serial dependency chain, and the C
  /// compiler may not fold either (x + 0.0 is not x for x = -0.0); starting
  /// at the term changes only the sign of an exact zero result.
  int accumulate(int Acc, bool Vec, int V, int Sign = 1, int W = -1) {
    if (W >= 0) {
      assert(Sign > 0 && "products carry their sign in a factor");
      if (Vec)
        return Acc < 0 ? B.vbin(Op::VMul, V, W) : B.vfma(V, W, Acc);
      int P = B.sbin(Op::SMul, V, W);
      return Acc < 0 ? P : B.sbin(Op::SAdd, Acc, P);
    }
    if (Acc < 0)
      return Sign > 0 ? V : (Vec ? B.vbin(Op::VNeg, V, -1) : B.sneg(V));
    if (Vec)
      return B.vbin(Sign > 0 ? Op::VAdd : Op::VSub, Acc, V);
    return B.sbin(Sign > 0 ? Op::SAdd : Op::SSub, Acc, V);
  }

  //===--------------------------------------------------------------------===//
  // Matrix output: broadcast-FMA register tiles.
  //===--------------------------------------------------------------------===//

  void emitBroadcastTiles() {
    int M = Lhs->rows(), N = Lhs->cols();
    int TilesR = (M + Nu - 1) / Nu, TilesC = (N + Nu - 1) / Nu;
    long TileCount = static_cast<long>(TilesR) * TilesC;
    bool Divisible = M % Nu == 0 && N % Nu == 0;
    if (!Divisible || TileCount <= Opt.UnrollTiles) {
      for (int R0 = 0; R0 < M; R0 += Nu)
        for (int C0 = 0; C0 < N; C0 += Nu) {
          int TR = std::min(Nu, M - R0), TC = std::min(Nu, N - C0);
          if (symOutUpper() && R0 >= C0 + TC)
            continue; // strictly below the diagonal: mirrored later
          if (symOutLower() && C0 >= R0 + TR)
            continue;
          emitOneTile(Pos(R0), Pos(C0), TR, TC, /*Constant=*/true);
        }
      return;
    }
    // Loop mode (full tiles only; divisibility checked above). Symmetric
    // outputs get a triangular iteration space via the affine lower bound.
    int RV = B.beginLoop(0, M, Nu);
    int CV;
    if (symOutUpper())
      CV = B.beginLoopAffine(0, RV, 1, N, Nu);
    else
      CV = B.beginLoop(0, N, Nu);
    if (symOutLower()) {
      // Iterate the lower triangle: rows from the column tile downwards.
      // (Equivalent to swapping the roles of RV/CV in the upper case.)
    }
    emitOneTile(Pos::var(RV), Pos::var(CV), Nu, Nu, /*Constant=*/false);
    B.endLoop();
    B.endLoop();
  }

  void emitOneTile(Pos R0, Pos C0, int TR, int TC, bool Constant) {
    std::vector<int> Acc(TR, -1);
    for (size_t T = 0; T < Terms.size(); ++T) {
      const Term &Tm = Terms[T];
      if (termIsZero(Tm))
        continue;
      if (Tm.Mat.empty()) {
        // Pure scalar term broadcast over the tile (e.g. "view = 0").
        int BC = B.vbroadcast(CoefReg[T]);
        for (int R = 0; R < TR; ++R)
          Acc[R] = accumulate(Acc[R], true, BC);
      } else if (Tm.Mat.size() == 1)
        emitLinearTermTile(Tm, CoefReg[T], R0, C0, TR, TC, Acc);
      else
        emitProductTermTile(Tm, CoefReg[T], R0, C0, TR, TC, Constant, Acc);
    }
    for (int R = 0; R < TR; ++R)
      storeSpan(B, *Lhs, false, R0.plus(R), C0, TC, /*AlongCols=*/true,
                Acc[R] < 0 ? B.vconst(0.0) : Acc[R]);
  }

  void emitLinearTermTile(const Term &Tm, int Coef, Pos R0, Pos C0, int TR,
                          int TC, std::vector<int> &Acc) {
    const Factor &F = Tm.Mat[0];
    int BCoef = Coef >= 0 ? B.vbroadcast(Coef) : -1;
    for (int R = 0; R < TR; ++R) {
      int Span = loadSpan(B, *F.V, F.Trans, R0.plus(R), C0, TC,
                          /*AlongCols=*/true);
      Acc[R] = BCoef >= 0 ? accumulate(Acc[R], true, BCoef, 1, Span)
                          : accumulate(Acc[R], true, Span, Tm.Sign);
    }
  }

  void emitProductTermTile(const Term &Tm, int Coef, Pos R0, Pos C0, int TR,
                           int TC, bool Constant, std::vector<int> &Acc) {
    const Factor &A = Tm.Mat[0], &X = Tm.Mat[1];
    int K = A.cols();
    assert(K == X.rows() && "inner dimension mismatch in term");
    int PLo = 0, PHi = K;
    if (Constant) {
      auto [Lo, Hi] = nonzeroPRange(A, X, K, R0.Const, R0.Const + TR,
                                    C0.Const, C0.Const + TC);
      PLo = Lo;
      PHi = Hi;
    }
    // One rank-1 update of the tile rows at inner index P; InPlace
    // re-assigns the chains (loop-carried accumulators).
    auto Step = [&](Pos P, std::vector<int> &Chain, bool InPlace) {
      int BSpan = loadSpan(B, *X.V, X.Trans, P, C0, TC, /*AlongCols=*/true);
      for (int R = 0; R < TR; ++R) {
        int AElem = loadElem(B, *A.V, A.Trans, R0.plus(R), P);
        int BC = B.vbroadcast(scaleElem(AElem, Tm.Sign, Coef));
        if (InPlace)
          B.vfmaInto(Chain[R], BC, BSpan, Chain[R]);
        else
          Chain[R] = accumulate(Chain[R], true, BC, 1, BSpan);
      }
    };
    if (PHi - PLo > std::max(Opt.UnrollK, 1)) {
      // Materialize the reduction as a loop with stable accumulators; the
      // peeled first step starts them.
      std::vector<int> LoopAcc(TR, -1);
      Step(Pos(PLo), LoopAcc, false);
      int PV = B.beginLoop(PLo + 1, PHi, 1);
      Step(Pos::var(PV), LoopAcc, true);
      B.endLoop();
      for (int R = 0; R < TR; ++R)
        Acc[R] = accumulate(Acc[R], true, LoopAcc[R]);
      return;
    }
    for (int P = PLo; P < PHi; ++P)
      Step(Pos(P), Acc, false);
  }

  int scaleElem(int Reg, int Sign, int Coef) {
    if (Coef >= 0)
      return B.sbin(Op::SMul, Reg, Coef); // sign already folded into Coef
    return Sign > 0 ? Reg : B.sneg(Reg);
  }

  //===--------------------------------------------------------------------===//
  // Column-vector output without products: 1-D span kernel.
  //===--------------------------------------------------------------------===//

  void emitLinearColumn() {
    int M = Lhs->rows();
    auto EmitChunk = [&](Pos R0, int Count) {
      int Acc = -1;
      for (size_t T = 0; T < Terms.size(); ++T) {
        const Term &Tm = Terms[T];
        if (termIsZero(Tm))
          continue;
        if (Tm.Mat.empty()) {
          Acc = accumulate(Acc, true, B.vbroadcast(CoefReg[T]));
          continue;
        }
        assert(Tm.Mat.size() == 1 && "product in linear kernel");
        const Factor &F = Tm.Mat[0];
        int Span = loadSpan(B, *F.V, F.Trans, R0, 0, Count,
                            /*AlongCols=*/false);
        Acc = CoefReg[T] >= 0
                  ? accumulate(Acc, true, B.vbroadcast(CoefReg[T]), 1, Span)
                  : accumulate(Acc, true, Span, Tm.Sign);
      }
      storeSpan(B, *Lhs, false, R0, 0, Count, /*AlongCols=*/false,
                Acc < 0 ? B.vconst(0.0) : Acc);
    };
    int Tiles = (M + Nu - 1) / Nu;
    if (M % Nu != 0 || Tiles <= Opt.UnrollTiles) {
      for (int R0 = 0; R0 < M; R0 += Nu)
        EmitChunk(Pos(R0), std::min(Nu, M - R0));
      return;
    }
    int RV = B.beginLoop(0, M, Nu);
    EmitChunk(Pos::var(RV), Nu);
    B.endLoop();
  }

  //===--------------------------------------------------------------------===//
  // Column-vector / scalar output with products: per-row dot reductions.
  //===--------------------------------------------------------------------===//

  void emitReducedRows() {
    int M = Lhs->rows();
    if (M <= Opt.UnrollTiles * Nu) {
      for (int R0 = 0; R0 < M; R0 += Nu) {
        int Cnt = std::min(Nu, M - R0);
        if (Cnt > 1)
          emitReducedRowGroup(R0, Cnt);
        else
          emitReducedRow(Pos(R0), /*Constant=*/true);
      }
      return;
    }
    int RV = B.beginLoop(0, M, 1);
    emitReducedRow(Pos::var(RV), /*Constant=*/false);
    B.endLoop();
  }

  /// Inner-index range [Lo, Hi) of a dot product for output row R: the
  /// structural nonzeros at constant positions, the whole range otherwise.
  static std::pair<int, int> dotRange(const Factor &A, const Factor &X, Pos R,
                                      bool Constant) {
    int K = A.cols();
    assert(K == X.rows() && "inner dimension mismatch in term");
    if (!Constant)
      return {0, K};
    return nonzeroPRange(A, X, K, R.Const, R.Const + 1, 0, 1);
  }

  /// Row R of A times X (Nu > 1) as one vector whose lanes sum to the dot
  /// product, or -1 when the inner range is empty.
  int dotLanes(const Factor &A, const Factor &X, Pos R, bool Constant) {
    auto [PLo, PHi] = dotRange(A, X, R, Constant);
    // Elementwise products of Cnt-lane spans at inner index P.
    auto Span = [&](Pos P, int Cnt, int &VA, int &VX) {
      VA = loadSpan(B, *A.V, A.Trans, R, P, Cnt, /*AlongCols=*/true);
      VX = loadSpan(B, *X.V, X.Trans, P, 0, Cnt, /*AlongCols=*/false);
    };
    int Acc = -1, VA, VX, P = PLo;
    if (PHi - PLo > Opt.UnrollK * Nu) {
      // A loop over the full spans; the peeled first one starts Acc.
      int Full = PLo + (PHi - PLo) / Nu * Nu;
      if (Full > P) {
        Span(Pos(P), Nu, VA, VX);
        Acc = accumulate(Acc, true, VA, 1, VX);
        P += Nu;
      }
      if (Full > P) {
        int PV = B.beginLoop(P, Full, Nu);
        Span(Pos::var(PV), Nu, VA, VX);
        B.vfmaInto(Acc, VA, VX, Acc);
        B.endLoop();
        P = Full;
      }
    }
    for (; P < PHi; P += Nu) {
      Span(Pos(P), std::min(Nu, PHi - P), VA, VX);
      Acc = accumulate(Acc, true, VA, 1, VX);
    }
    return Acc;
  }

  /// Sums the lanes of each vector of \p Rows (at most Nu of them) into one
  /// vector whose lane i is the sum of Rows[i]: a tree of pairwise
  /// shuffle+add steps, each halving the vectors while doubling the lanes
  /// summed. Lanes past Rows.size() are left unspecified.
  int reduceRows(std::vector<int> Rows) {
    Rows.resize(Nu, -1);
    for (int S = 1; S < Nu; S *= 2) {
      std::vector<int> Lo(Nu), Hi(Nu);
      for (int L = 0; L < Nu; ++L) {
        Lo[L] = (L & S ? Nu : 0) + (L & ~S);
        Hi[L] = Lo[L] + S;
      }
      std::vector<int> Next;
      for (size_t I = 0; I < Rows.size(); I += 2) {
        int X = Rows[I], Y = Rows[I + 1] < 0 ? X : Rows[I + 1];
        Next.push_back(X < 0 ? -1
                             : B.vbin(Op::VAdd, B.vshuffle(X, Y, Lo),
                                      B.vshuffle(X, Y, Hi)));
      }
      Rows = std::move(Next);
    }
    return Rows[0];
  }

  /// Output rows [R0, R0 + Cnt) (1 < Cnt <= Nu) as one vector: the rows'
  /// dot products are reduced together (reduceRows), then combined and
  /// stored as vectors, instead of one scalar reduction, combine and store
  /// per row -- scalars a later vector load would have to gather back.
  void emitReducedRowGroup(int R0, int Cnt) {
    int Acc = -1;
    for (size_t T = 0; T < Terms.size(); ++T) {
      const Term &Tm = Terms[T];
      if (termIsZero(Tm))
        continue;
      if (Tm.Mat.empty()) {
        Acc = accumulate(Acc, true, B.vbroadcast(CoefReg[T]));
        continue;
      }
      int V;
      if (Tm.Mat.size() == 1) {
        V = loadSpan(B, *Tm.Mat[0].V, Tm.Mat[0].Trans, Pos(R0), 0, Cnt,
                     /*AlongCols=*/false);
      } else {
        std::vector<int> Rows(Cnt);
        bool Any = false;
        for (int R = 0; R < Cnt; ++R) {
          Rows[R] = dotLanes(Tm.Mat[0], Tm.Mat[1], Pos(R0 + R), true);
          Any |= Rows[R] >= 0;
        }
        if (!Any)
          continue; // empty inner ranges: the term is zero
        for (int &R : Rows)
          R = R < 0 ? B.vconst(0.0) : R;
        V = reduceRows(std::move(Rows));
      }
      Acc = CoefReg[T] >= 0
                ? accumulate(Acc, true, B.vbroadcast(CoefReg[T]), 1, V)
                : accumulate(Acc, true, V, Tm.Sign);
    }
    storeSpan(B, *Lhs, false, Pos(R0), 0, Cnt, /*AlongCols=*/false,
              Acc < 0 ? B.vconst(0.0) : Acc);
  }

  void emitReducedRow(Pos R, bool Constant) {
    int Result = -1; // scalar accumulator chain
    for (size_t T = 0; T < Terms.size(); ++T) {
      const Term &Tm = Terms[T];
      if (termIsZero(Tm))
        continue;
      if (Tm.Mat.empty()) {
        Result = accumulate(Result, false, CoefReg[T]);
        continue;
      }
      if (Tm.Mat.size() == 1) {
        int E = loadElem(B, *Tm.Mat[0].V, Tm.Mat[0].Trans, R, 0);
        if (CoefReg[T] >= 0)
          E = B.sbin(Op::SMul, E, CoefReg[T]);
        Result = accumulate(Result, false, E, CoefReg[T] >= 0 ? 1 : Tm.Sign);
        continue;
      }
      const Factor &A = Tm.Mat[0], &X = Tm.Mat[1];
      int Dot = -1;
      if (Nu > 1) {
        int Lanes = dotLanes(A, X, R, Constant);
        if (Lanes >= 0)
          Dot = B.vreduceAdd(Lanes);
      } else {
        auto [PLo, PHi] = dotRange(A, X, R, Constant);
        for (int P = PLo; P < PHi; ++P) {
          int EA = loadElem(B, *A.V, A.Trans, R, Pos(P));
          int EX = loadElem(B, *X.V, X.Trans, Pos(P), 0);
          Dot = accumulate(Dot, false, EA, 1, EX);
        }
      }
      if (Dot < 0)
        continue; // empty inner range: the term is zero
      if (CoefReg[T] >= 0)
        Dot = B.sbin(Op::SMul, Dot, CoefReg[T]);
      Result = accumulate(Result, false, Dot, CoefReg[T] >= 0 ? 1 : Tm.Sign);
    }
    if (Result < 0)
      Result = B.sconst(0.0);
    storeElem(B, *Lhs, false, R, 0, Result);
  }

  //===--------------------------------------------------------------------===//
  // Scalar (nu = 1) fallback for matrix outputs.
  //===--------------------------------------------------------------------===//

  void emitScalarized() {
    int M = Lhs->rows(), N = Lhs->cols();
    for (int R = 0; R < M; ++R)
      for (int C = 0; C < N; ++C) {
        if (symOutUpper() && R > C)
          continue;
        if (symOutLower() && C > R)
          continue;
        int Result = -1;
        for (size_t T = 0; T < Terms.size(); ++T) {
          const Term &Tm = Terms[T];
          if (termIsZero(Tm))
            continue;
          if (Tm.Mat.empty()) {
            Result = accumulate(Result, false, CoefReg[T]);
            continue;
          }
          int Val;
          if (Tm.Mat.size() == 1) {
            Val = loadElem(B, *Tm.Mat[0].V, Tm.Mat[0].Trans, R, C);
          } else {
            const Factor &A = Tm.Mat[0], &X = Tm.Mat[1];
            auto [PLo, PHi] = nonzeroPRange(A, X, A.cols(), R, R + 1, C,
                                            C + 1);
            Val = -1;
            for (int P = PLo; P < PHi; ++P) {
              int EA = loadElem(B, *A.V, A.Trans, R, P);
              int EX = loadElem(B, *X.V, X.Trans, P, C);
              Val = accumulate(Val, false, EA, 1, EX);
            }
            if (Val < 0)
              continue; // empty inner range: the term is zero
          }
          if (CoefReg[T] >= 0)
            Val = B.sbin(Op::SMul, Val, CoefReg[T]);
          Result =
              accumulate(Result, false, Val, CoefReg[T] >= 0 ? 1 : Tm.Sign);
        }
        if (Result < 0)
          Result = B.sconst(0.0);
        storeElem(B, *Lhs, false, R, C, Result);
      }
  }
};

} // namespace

static bool allViewsScalar(const ExprPtr &E) {
  if (const auto *V = dyn_cast<ViewExpr>(E))
    return V->rows() == 1 && V->cols() == 1;
  if (isa<ConstExpr>(E))
    return true;
  if (const auto *U = dyn_cast<UnaryExpr>(E))
    return allViewsScalar(U->Sub);
  const auto *B = cast<BinaryExpr>(E.get());
  return allViewsScalar(B->L) && allViewsScalar(B->R);
}

void lgen::compileSBlac(FuncBuilder &B, const EqStmt &S,
                        const TileOptions &Opt) {
  const auto *L = cast<ViewExpr>(S.Lhs.get());
  if (L->rows() == 1 && L->cols() == 1 && allViewsScalar(S.Rhs)) {
    // Pure scalar statements take the direct path (they may contain
    // division and sqrt, which the tiler rejects).
    compileScalarStmt(B, S);
    return;
  }
  SBlacTiler T(B, S, Opt);
  T.run();
}

void lgen::emitStructureNormalize(cir::FuncBuilder &B, const ViewExpr &V,
                                  const TileOptions &Opt) {
  StructureKind S = V.structure();
  int N = V.rows();
  if (N != V.cols())
    return;
  auto MirrorOrZero = [&](bool Mirror, bool UpperStored) {
    // Iterate the non-stored triangle as (outer, inner) with an affine
    // inner lower bound so both loops have constant upper bounds.
    if (N <= Opt.UnrollTiles) {
      for (int R = 0; R < N; ++R)
        for (int C = R + 1; C < N; ++C) {
          // (R, C) is in the upper triangle.
          Pos Dst[2] = {UpperStored ? Pos(C) : Pos(R),
                        UpperStored ? Pos(R) : Pos(C)};
          Pos Src[2] = {UpperStored ? Pos(R) : Pos(C),
                        UpperStored ? Pos(C) : Pos(R)};
          int Val = Mirror ? loadElem(B, V, false, Src[0], Src[1])
                           : B.sconst(0.0);
          storeElem(B, V, false, Dst[0], Dst[1], Val);
        }
      return;
    }
    int RV = B.beginLoop(0, N, 1);
    int CV = B.beginLoopAffine(1, RV, 1, N, 1);
    Pos RP = Pos::var(RV), CP = Pos::var(CV);
    Pos Dst[2] = {UpperStored ? CP : RP, UpperStored ? RP : CP};
    Pos Src[2] = {UpperStored ? RP : CP, UpperStored ? CP : RP};
    int Val =
        Mirror ? loadElem(B, V, false, Src[0], Src[1]) : B.sconst(0.0);
    storeElem(B, V, false, Dst[0], Dst[1], Val);
    B.endLoop();
    B.endLoop();
  };
  switch (S) {
  case StructureKind::SymmetricUpper:
    MirrorOrZero(/*Mirror=*/true, /*UpperStored=*/true);
    break;
  case StructureKind::SymmetricLower:
    MirrorOrZero(/*Mirror=*/true, /*UpperStored=*/false);
    break;
  case StructureKind::UpperTriangular:
    MirrorOrZero(/*Mirror=*/false, /*UpperStored=*/true);
    break;
  case StructureKind::LowerTriangular:
    MirrorOrZero(/*Mirror=*/false, /*UpperStored=*/false);
    break;
  default:
    break;
  }
}
