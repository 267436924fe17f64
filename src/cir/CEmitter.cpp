//===- cir/CEmitter.cpp ---------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "cir/CEmitter.h"

#include "support/Format.h"

#include <cassert>
#include <map>
#include <set>

using namespace slingen;
using namespace slingen::cir;

namespace {

class Emitter {
public:
  explicit Emitter(const Function &F) : F(F), Nu(F.Nu) {
    for (const Operand *L : F.Locals)
      Locals.insert(L);
    collectBroadcasts();
  }

  std::string run() {
    Sink.line(prototype(F) + " {");
    Sink.indent();
    emitLocalDecls();
    emitRegDecls();
    emitMaskDecls();
    emitBlock(F.Body);
    Sink.dedent();
    Sink.line("}");
    return Sink.str();
  }

  /// Splits the body into static part-functions of roughly
  /// \p MaxInstsPerPart instructions, cut only where no register is live
  /// across (see the header comment on emitFunctionSplit).
  std::string runSplit(int MaxInstsPerPart) {
    std::vector<std::pair<size_t, size_t>> Parts = partition(MaxInstsPerPart);
    if (Parts.size() <= 1)
      return run();

    // Compiler temporaries live in the entry function's frame and reach
    // the parts as extra pointer parameters, so concurrent calls of one
    // kernel (kernels are shared across threads, and batch workers run
    // instance kernels in parallel) never share scratch space.
    for (size_t P = 0; P < Parts.size(); ++P) {
      std::string Name = formatf("%s_part%zu", F.Name.c_str(), P);
      Sink.line("static " + prototype(F, Name.c_str(), /*WithLocals=*/true) +
                " {");
      Sink.indent();
      emitRegDeclsForRange(Parts[P].first, Parts[P].second);
      emitMaskDeclsForRange(Parts[P].first, Parts[P].second);
      for (size_t I = Parts[P].first; I < Parts[P].second; ++I)
        emitNode(F.Body[I]);
      Sink.dedent();
      Sink.line("}");
      Sink.line("");
    }

    Sink.line(prototype(F) + " {");
    Sink.indent();
    emitLocalDecls();
    std::string Args =
        join(signature(F, /*WithLocals=*/true, /*Types=*/false));
    for (size_t P = 0; P < Parts.size(); ++P)
      Sink.line(formatf("%s_part%zu(%s);", F.Name.c_str(), P, Args.c_str()));
    Sink.dedent();
    Sink.line("}");
    return Sink.str();
  }

  /// The parameter list of \p F -- its operands, the tail mask's lane
  /// count, and with \p WithLocals its temporaries -- as declarations or,
  /// without \p Types, as the argument names.
  static std::vector<std::string> signature(const Function &F, bool WithLocals,
                                            bool Types) {
    std::vector<std::string> Ps;
    auto Add = [&](const char *Type, const std::string &Name) {
      Ps.push_back(Types ? Type + Name : Name);
    };
    for (size_t I = 0; I < F.Params.size(); ++I) {
      bool Writable = F.ParamWritable.empty() || F.ParamWritable[I];
      Add(Writable ? "double *__restrict " : "const double *__restrict ",
          F.Params[I]->Name);
    }
    if (F.HasTailMask)
      Add("int ", "active_");
    if (WithLocals)
      for (const Operand *L : F.Locals)
        Add("double *__restrict ", L->Name);
    return Ps;
  }

  static std::string join(const std::vector<std::string> &Ps) {
    std::string S;
    for (const std::string &P : Ps)
      S += (S.empty() ? "" : ", ") + P;
    return S;
  }

  static std::string prototype(const Function &F,
                               const char *NameOverride = nullptr,
                               bool WithLocals = false) {
    std::vector<std::string> Ps = signature(F, WithLocals, /*Types=*/true);
    return formatf("void %s(%s)", NameOverride ? NameOverride : F.Name.c_str(),
                   Ps.empty() ? "void" : join(Ps).c_str());
  }

private:
  const Function &F;
  int Nu;
  CodeSink Sink;
  std::set<const Operand *> Locals;

  /// True when the address provably sits at a full-vector boundary of a
  /// 64-byte-aligned local array: every offset contribution (constant and
  /// per-variable coefficient) is a multiple of Nu doubles. Such accesses
  /// use aligned vector moves. Parameters are never eligible -- their
  /// alignment is the caller's business (the batch ABI asserts it, but
  /// block base pointers advance by instance strides that need not keep
  /// 64-byte alignment).
  bool alignedLocalAddr(const Addr &A) const {
    if (Nu < 2 || !Locals.count(A.Buf) || A.Const % Nu != 0)
      return false;
    for (auto [Var, Coeff] : A.Terms) {
      (void)Var;
      if (Coeff % Nu != 0)
        return false;
    }
    return true;
  }

  std::string reg(int Id) const { return formatf("r%d", Id); }
  std::string var(int Id) const { return formatf("i%d", Id); }

  std::string address(const Addr &A) const {
    std::string S = A.Buf->Name;
    S += formatf(" + %d", A.Const);
    for (auto [Var, Coeff] : A.Terms) {
      if (Coeff == 1)
        S += formatf(" + %s", var(Var).c_str());
      else
        S += formatf(" + %d*%s", Coeff, var(Var).c_str());
    }
    return S;
  }

  void collectMaskLanes(const std::vector<Node> &Body,
                        std::set<int> &Out) const {
    for (const Node &N : Body) {
      if (const auto *L = std::get_if<Loop>(&N)) {
        collectMaskLanes(L->Body, Out);
        continue;
      }
      const Inst &I = std::get<Inst>(N);
      if ((I.K == Op::VLoad || I.K == Op::VStore) && I.Lanes < Nu)
        Out.insert(I.Lanes);
    }
  }

  static bool isMaskedOp(Op K) {
    return K == Op::VLoadStridedMasked || K == Op::VStoreStridedMasked;
  }

  bool hasMaskedOps(const std::vector<Node> &Body) const {
    for (const Node &N : Body) {
      if (const auto *L = std::get_if<Loop>(&N)) {
        if (hasMaskedOps(L->Body))
          return true;
        continue;
      }
      if (isMaskedOp(std::get<Inst>(N).K))
        return true;
    }
    return false;
  }

  void emitLocalDecls() {
    // Locals are 64-byte aligned so full-width accesses at Nu-multiple
    // offsets can use aligned vector moves (see alignedLocalAddr).
    for (const Operand *L : F.Locals)
      Sink.line(formatf(
          "double %s[%d] __attribute__((aligned(64))) = {0.0};",
          L->Name.c_str(), L->Rows * L->Cols * F.LocalVecWidth));
  }

  void emitRegDecls() {
    for (int R = 0; R < F.NumRegs; ++R) {
      if (F.RegIsVec[R])
        Sink.line(formatf("%s r%d;", vecType(), R));
      else
        Sink.line(formatf("double r%d;", R));
    }
  }

  const char *vecType() const {
    return Nu == 8 ? "__m512d" : (Nu == 4 ? "__m256d" : "__m128d");
  }

  void emitMaskDecls() {
    if (Nu == 4) {
      std::set<int> Lanes;
      collectMaskLanes(F.Body, Lanes);
      emitMaskLines(Lanes);
    }
    if (hasMaskedOps(F.Body))
      emitActiveMaskLines();
  }

  /// The runtime tail mask derived from the `int active_` parameter: lanes
  /// [0, active_) on. AVX-512 wants a k-register mask; AVX wants a per-lane
  /// all-ones/all-zeros __m256i for maskload/maskstore (built with an AVX2
  /// compare, which the avx target enables); SSE2 branches on active_
  /// inline and needs no materialized mask.
  void emitActiveMaskLines() {
    if (Nu == 8)
      Sink.line("const __mmask8 kact_ = (__mmask8)((1u << active_) - 1);");
    else if (Nu == 4)
      Sink.line("const __m256i mact_ = "
                "_mm256_cmpgt_epi64(_mm256_set1_epi64x(active_), "
                "_mm256_set_epi64x(3, 2, 1, 0));");
  }

  void emitMaskLines(const std::set<int> &Lanes) {
    for (int L : Lanes) {
      assert(L >= 1 && L <= 3 && "bad AVX mask lane count");
      std::string Args;
      for (int I = 3; I >= 0; --I)
        Args += formatf("%s%s", I == 3 ? "" : ", ", I < L ? "-1ll" : "0ll");
      Sink.line(formatf("const __m256i mk%d = _mm256_set_epi64x(%s);", L,
                        Args.c_str()));
    }
  }

  void emitBlock(const std::vector<Node> &Body) {
    for (const Node &N : Body)
      emitNode(N);
  }

  void emitNode(const Node &N) {
    if (const auto *L = std::get_if<Loop>(&N)) {
      std::string LoStr = formatf("%d", L->Lo);
      if (L->LoVar >= 0)
        LoStr += formatf(" + %d*%s", L->LoVarCoeff, var(L->LoVar).c_str());
      Sink.line(formatf("for (int %s = %s; %s < %d; %s += %d) {",
                        var(L->Var).c_str(), LoStr.c_str(),
                        var(L->Var).c_str(), L->Hi, var(L->Var).c_str(),
                        L->Step));
      Sink.indent();
      emitBlock(L->Body);
      Sink.dedent();
      Sink.line("}");
      return;
    }
    emitInst(std::get<Inst>(N));
  }

  //===--------------------------------------------------------------------===//
  // Splitting machinery.
  //===--------------------------------------------------------------------===//

  /// Applies \p Fn to every register id an instruction touches.
  template <typename FnT>
  static void forEachReg(const Inst &I, FnT Fn) {
    if (hasDst(I.K) && I.Dst >= 0)
      Fn(I.Dst);
    for (int R : {I.A, I.B, I.C})
      if (R >= 0)
        Fn(R);
  }

  template <typename FnT>
  static void forEachInst(const Node &N, FnT Fn) {
    if (const auto *I = std::get_if<Inst>(&N)) {
      Fn(*I);
      return;
    }
    for (const Node &Sub : std::get<Loop>(N).Body)
      forEachInst(Sub, Fn);
  }

  /// Registers holding pure constants (single def, SConst/VConst): CSE
  /// makes them live across the entire function, which would forbid every
  /// split point. They are rematerialized per part instead, so liveness
  /// ignores them. ConstDefs maps such a register to its defining
  /// instruction.
  std::map<int, const Inst *> ConstDefs;

  void collectConstDefs() {
    std::vector<int> Defs(F.NumRegs, 0);
    std::map<int, const Inst *> Single;
    for (const Node &N : F.Body)
      forEachInst(N, [&](const Inst &In) {
        if (!hasDst(In.K) || In.Dst < 0)
          return;
        if (++Defs[In.Dst] == 1 &&
            (In.K == Op::SConst || In.K == Op::VConst))
          Single[In.Dst] = &In;
      });
    for (auto [R, I] : Single)
      if (Defs[R] == 1)
        ConstDefs[R] = I;
  }

  bool isConstReg(int R) const { return ConstDefs.count(R) != 0; }

  /// Single-def VBroadcast registers and the scalar each splats: a shuffle
  /// whose every lane is such a scalar (or zero) is built from the scalars.
  std::map<int, int> BroadcastOf;

  void collectBroadcasts() {
    std::vector<int> Defs(F.NumRegs, 0);
    for (const Node &N : F.Body)
      forEachInst(N, [&](const Inst &In) {
        if (!hasDst(In.K) || In.Dst < 0)
          return;
        ++Defs[In.Dst];
        if (In.K == Op::VBroadcast)
          BroadcastOf[In.Dst] = In.A;
      });
    std::erase_if(BroadcastOf,
                  [&](const auto &E) { return Defs[E.first] > 1; });
  }

  /// Greedy partition of the top-level body into [first, last) ranges of
  /// at least MaxInstsPerPart instructions, cut only at nodes after which
  /// no (non-constant) register is live.
  std::vector<std::pair<size_t, size_t>> partition(int MaxInstsPerPart) {
    collectConstDefs();
    size_t NNodes = F.Body.size();
    std::vector<int> InstCount(NNodes, 0);
    std::vector<int> LastTouch(F.NumRegs, -1);
    for (size_t I = 0; I < NNodes; ++I)
      forEachInst(F.Body[I], [&](const Inst &In) {
        ++InstCount[I];
        forEachReg(In, [&](int R) { LastTouch[R] = static_cast<int>(I); });
      });
    long Active = -1;
    std::vector<std::pair<size_t, size_t>> Parts;
    size_t Start = 0;
    long Accum = 0;
    for (size_t I = 0; I < NNodes; ++I) {
      forEachInst(F.Body[I], [&](const Inst &In) {
        forEachReg(In, [&](int R) {
          if (!isConstReg(R))
            Active = std::max(Active, static_cast<long>(LastTouch[R]));
        });
      });
      Accum += InstCount[I];
      bool Clean = Active <= static_cast<long>(I);
      if (Clean && Accum >= MaxInstsPerPart && I + 1 < NNodes) {
        Parts.push_back({Start, I + 1});
        Start = I + 1;
        Accum = 0;
      }
    }
    if (Start < NNodes || Parts.empty())
      Parts.push_back({Start, NNodes});
    return Parts;
  }

  void emitRegDeclsForRange(size_t First, size_t Last) {
    std::set<int> Regs, Defined;
    for (size_t I = First; I < Last; ++I)
      forEachInst(F.Body[I], [&](const Inst &In) {
        forEachReg(In, [&](int R) { Regs.insert(R); });
        if (hasDst(In.K) && In.Dst >= 0)
          Defined.insert(In.Dst);
      });
    for (int R : Regs) {
      if (F.RegIsVec[R])
        Sink.line(formatf("%s r%d;", vecType(), R));
      else
        Sink.line(formatf("double r%d;", R));
    }
    // Rematerialize constants defined in other parts.
    for (int R : Regs)
      if (!Defined.count(R)) {
        auto It = ConstDefs.find(R);
        assert(It != ConstDefs.end() &&
               "non-constant register live across a split point");
        emitInst(*It->second);
      }
  }

  void emitMaskDeclsForRange(size_t First, size_t Last) {
    bool Masked = false;
    std::set<int> Lanes;
    for (size_t I = First; I < Last; ++I)
      forEachInst(F.Body[I], [&](const Inst &In) {
        if ((In.K == Op::VLoad || In.K == Op::VStore) && In.Lanes < Nu)
          Lanes.insert(In.Lanes);
        Masked |= isMaskedOp(In.K);
      });
    if (Nu == 4)
      emitMaskLines(Lanes);
    if (Masked)
      emitActiveMaskLines();
  }

  void emitInst(const Inst &I) {
    switch (I.K) {
    case Op::SConst:
      Sink.line(formatf("r%d = %.17g;", I.Dst, I.Imm));
      break;
    case Op::SLoad:
      Sink.line(formatf("r%d = *(%s);", I.Dst, address(I.Address).c_str()));
      break;
    case Op::SStore:
      Sink.line(formatf("*(%s) = r%d;", address(I.Address).c_str(), I.A));
      break;
    case Op::SAdd:
      Sink.line(formatf("r%d = r%d + r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SSub:
      Sink.line(formatf("r%d = r%d - r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SMul:
      Sink.line(formatf("r%d = r%d * r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SDiv:
      Sink.line(formatf("r%d = r%d / r%d;", I.Dst, I.A, I.B));
      break;
    case Op::SSqrt:
      Sink.line(formatf("r%d = sqrt(r%d);", I.Dst, I.A));
      break;
    case Op::SNeg:
      Sink.line(formatf("r%d = -r%d;", I.Dst, I.A));
      break;
    default:
      emitVector(I);
      break;
    }
  }

  const char *pfx() const {
    return Nu == 8 ? "_mm512" : (Nu == 4 ? "_mm256" : "_mm");
  }

  /// The 128-bit half of vector register \p Reg that holds lane \p Lane
  /// (as its low double for even lanes, its high double for odd ones),
  /// reached through register moves: lane accesses never take a round trip
  /// through a stack temporary.
  std::string half(int Reg, int Lane) const {
    std::string V = reg(Reg);
    if (Nu == 8)
      V = formatf(Lane < 4 ? "_mm512_castpd512_pd256(%s)"
                           : "_mm512_extractf64x4_pd(%s, 1)",
                  V.c_str());
    if (Nu >= 4)
      V = formatf(Lane % 4 < 2 ? "_mm256_castpd256_pd128(%s)"
                               : "_mm256_extractf128_pd(%s, 1)",
                  V.c_str());
    return V;
  }

  void emitVector(const Inst &I) {
    assert(Nu > 1 && "vector instruction in a scalar function");
    switch (I.K) {
    case Op::VConst:
      Sink.line(formatf("r%d = %s_set1_pd(%.17g);", I.Dst, pfx(), I.Imm));
      break;
    case Op::VBroadcast:
      Sink.line(formatf("r%d = %s_set1_pd(r%d);", I.Dst, pfx(), I.A));
      break;
    case Op::VLoad:
      if (I.Lanes == Nu) {
        Sink.line(formatf("r%d = %s_load%s_pd(%s);", I.Dst, pfx(),
                          alignedLocalAddr(I.Address) ? "" : "u",
                          address(I.Address).c_str()));
      } else if (Nu == 8) {
        // AVX-512 masked loads take an immediate lane mask; masked-off
        // lanes are zeroed (maskz), matching VLoad semantics.
        Sink.line(formatf(
            "r%d = _mm512_maskz_loadu_pd((__mmask8)0x%x, %s);", I.Dst,
            (1 << I.Lanes) - 1, address(I.Address).c_str()));
      } else if (Nu == 4) {
        Sink.line(formatf("r%d = _mm256_maskload_pd(%s, mk%d);", I.Dst,
                          address(I.Address).c_str(), I.Lanes));
      } else { // SSE2 single lane
        Sink.line(formatf("r%d = _mm_load_sd(%s);", I.Dst,
                          address(I.Address).c_str()));
      }
      break;
    case Op::VStore:
      if (I.Lanes == Nu) {
        Sink.line(formatf("%s_store%s_pd(%s, r%d);", pfx(),
                          alignedLocalAddr(I.Address) ? "" : "u",
                          address(I.Address).c_str(), I.A));
      } else if (Nu == 8) {
        Sink.line(formatf("_mm512_mask_storeu_pd(%s, (__mmask8)0x%x, r%d);",
                          address(I.Address).c_str(), (1 << I.Lanes) - 1,
                          I.A));
      } else if (Nu == 4) {
        Sink.line(formatf("_mm256_maskstore_pd(%s, mk%d, r%d);",
                          address(I.Address).c_str(), I.Lanes, I.A));
      } else {
        Sink.line(formatf("_mm_store_sd(%s, r%d);",
                          address(I.Address).c_str(), I.A));
      }
      break;
    case Op::VLoadStrided: {
      // Gather a strided (column) access with a set; lanes beyond the
      // active count become zero.
      std::string Args;
      for (int L = Nu - 1; L >= 0; --L) {
        if (L < I.Lanes)
          Args += formatf("(%s)[%d]", address(I.Address).c_str(),
                          L * I.Stride);
        else
          Args += "0.0";
        if (L)
          Args += ", ";
      }
      Sink.line(formatf("r%d = %s_set_pd(%s);", I.Dst, pfx(), Args.c_str()));
      break;
    }
    case Op::VStoreStrided:
      for (int L = 0; L < I.Lanes; ++L)
        Sink.line(formatf("%s(&(%s)[%d], %s);",
                          L % 2 ? "_mm_storeh_pd" : "_mm_store_sd",
                          address(I.Address).c_str(),
                          L * I.Stride, half(I.A, L).c_str()));
      break;
    case Op::VLoadStridedMasked:
      // Runtime-masked lane-strided load for the batch tail: lanes
      // [0, active_) gather instance data, dead lanes are zeroed so their
      // garbage can never raise FP exceptions into real results.
      if (Nu == 8 && I.Stride == 1) {
        Sink.line(formatf("r%d = _mm512_maskz_loadu_pd(kact_, %s);", I.Dst,
                          address(I.Address).c_str()));
      } else if (Nu == 8) {
        Sink.line(formatf(
            "r%d = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), kact_, "
            "_mm512_set_epi64(%d, %d, %d, %d, %d, %d, %d, 0), %s, 8);",
            I.Dst, 7 * I.Stride, 6 * I.Stride, 5 * I.Stride, 4 * I.Stride,
            3 * I.Stride, 2 * I.Stride, I.Stride,
            address(I.Address).c_str()));
      } else if (Nu == 4 && I.Stride == 1) {
        Sink.line(formatf("r%d = _mm256_maskload_pd(%s, mact_);", I.Dst,
                          address(I.Address).c_str()));
      } else if (Nu == 4) {
        Sink.line(formatf(
            "r%d = _mm256_mask_i64gather_pd(_mm256_setzero_pd(), %s, "
            "_mm256_set_epi64x(%d, %d, %d, 0), _mm256_castsi256_pd(mact_), "
            "8);",
            I.Dst, address(I.Address).c_str(), 3 * I.Stride, 2 * I.Stride,
            I.Stride));
      } else { // SSE2: lane 0 is always active (active_ >= 1)
        Sink.line(formatf(
            "r%d = _mm_set_pd(active_ > 1 ? (%s)[%d] : 0.0, (%s)[0]);",
            I.Dst, address(I.Address).c_str(), I.Stride,
            address(I.Address).c_str()));
      }
      break;
    case Op::VStoreStridedMasked:
      if (Nu == 8 && I.Stride == 1) {
        Sink.line(formatf("_mm512_mask_storeu_pd(%s, kact_, r%d);",
                          address(I.Address).c_str(), I.A));
      } else if (Nu == 8) {
        Sink.line(formatf(
            "_mm512_mask_i64scatter_pd(%s, kact_, "
            "_mm512_set_epi64(%d, %d, %d, %d, %d, %d, %d, 0), r%d, 8);",
            address(I.Address).c_str(), 7 * I.Stride, 6 * I.Stride,
            5 * I.Stride, 4 * I.Stride, 3 * I.Stride, 2 * I.Stride, I.Stride,
            I.A));
      } else if (Nu == 4 && I.Stride == 1) {
        Sink.line(formatf("_mm256_maskstore_pd(%s, mact_, r%d);",
                          address(I.Address).c_str(), I.A));
      } else if (Nu == 4) {
        // No AVX scatter: spill and store the active lanes scalarly.
        Sink.line("{");
        Sink.indent();
        Sink.line(formatf("double t%d_[4];", I.A));
        Sink.line(formatf("_mm256_storeu_pd(t%d_, r%d);", I.A, I.A));
        Sink.line(formatf("for (int l_ = 0; l_ < active_; ++l_)"));
        Sink.indent();
        Sink.line(formatf("(%s)[l_ * %d] = t%d_[l_];",
                          address(I.Address).c_str(), I.Stride, I.A));
        Sink.dedent();
        Sink.dedent();
        Sink.line("}");
      } else {
        Sink.line(formatf("_mm_store_sd(%s, r%d);",
                          address(I.Address).c_str(), I.A));
        Sink.line(formatf("if (active_ > 1) _mm_storeh_pd((%s) + %d, r%d);",
                          address(I.Address).c_str(), I.Stride, I.A));
      }
      break;
    case Op::VAdd:
      Sink.line(formatf("r%d = %s_add_pd(r%d, r%d);", I.Dst, pfx(), I.A,
                        I.B));
      break;
    case Op::VSub:
      Sink.line(formatf("r%d = %s_sub_pd(r%d, r%d);", I.Dst, pfx(), I.A,
                        I.B));
      break;
    case Op::VMul:
      Sink.line(formatf("r%d = %s_mul_pd(r%d, r%d);", I.Dst, pfx(), I.A,
                        I.B));
      break;
    case Op::VDiv:
      Sink.line(formatf("r%d = %s_div_pd(r%d, r%d);", I.Dst, pfx(), I.A,
                        I.B));
      break;
    case Op::VSqrt:
      Sink.line(formatf("r%d = %s_sqrt_pd(r%d);", I.Dst, pfx(), I.A));
      break;
    case Op::VNeg:
      // Sign-bit flip, not 0-x: subtraction would turn -0.0 into +0.0 and
      // diverge from the scalar kernel's `-r` through later divisions.
      // _mm512_xor_pd is AVX-512DQ, which the avx512 target deliberately
      // does not enable (see isaCompileFlags), so Nu == 8 flips the sign
      // through the AVX-512F integer xor instead.
      if (Nu == 8)
        Sink.line(formatf(
            "r%d = _mm512_castsi512_pd(_mm512_xor_epi64(_mm512_castpd_si512("
            "r%d), _mm512_castpd_si512(_mm512_set1_pd(-0.0))));",
            I.Dst, I.A));
      else
        Sink.line(formatf("r%d = %s_xor_pd(%s_set1_pd(-0.0), r%d);", I.Dst,
                          pfx(), pfx(), I.A));
      break;
    case Op::VFma:
      if (Nu == 8)
        Sink.line(formatf("r%d = _mm512_fmadd_pd(r%d, r%d, r%d);", I.Dst,
                          I.A, I.B, I.C));
      else if (Nu == 4)
        Sink.line(formatf("r%d = _mm256_fmadd_pd(r%d, r%d, r%d);", I.Dst,
                          I.A, I.B, I.C));
      else
        Sink.line(formatf("r%d = _mm_add_pd(_mm_mul_pd(r%d, r%d), r%d);",
                          I.Dst, I.A, I.B, I.C));
      break;
    case Op::VFnma:
      if (Nu == 8)
        Sink.line(formatf("r%d = _mm512_fnmadd_pd(r%d, r%d, r%d);", I.Dst,
                          I.A, I.B, I.C));
      else if (Nu == 4)
        Sink.line(formatf("r%d = _mm256_fnmadd_pd(r%d, r%d, r%d);", I.Dst,
                          I.A, I.B, I.C));
      else
        Sink.line(formatf("r%d = _mm_sub_pd(r%d, _mm_mul_pd(r%d, r%d));",
                          I.Dst, I.C, I.A, I.B));
      break;
    case Op::VExtract:
      if (I.Lanes == 0) {
        Sink.line(formatf("r%d = %s_cvtsd_f64(r%d);", I.Dst, pfx(), I.A));
      } else {
        std::string H = half(I.A, I.Lanes);
        if (I.Lanes % 2)
          H = formatf("_mm_unpackhi_pd(%s, %s)", H.c_str(), H.c_str());
        Sink.line(formatf("r%d = _mm_cvtsd_f64(%s);", I.Dst, H.c_str()));
      }
      break;
    case Op::VReduceAdd:
      if (Nu == 8) {
        Sink.line(
            formatf("r%d = _mm512_reduce_add_pd(r%d);", I.Dst, I.A));
      } else if (Nu == 2) {
        Sink.line(formatf(
            "r%d = _mm_cvtsd_f64(_mm_add_sd(r%d, _mm_unpackhi_pd(r%d, "
            "r%d)));",
            I.Dst, I.A, I.A, I.A));
      } else {
        Sink.line("{");
        Sink.indent();
        Sink.line(formatf("__m128d t%d_lo = _mm256_castpd256_pd128(r%d);",
                          I.Dst, I.A));
        Sink.line(formatf("__m128d t%d_hi = _mm256_extractf128_pd(r%d, 1);",
                          I.Dst, I.A));
        Sink.line(formatf("t%d_lo = _mm_add_pd(t%d_lo, t%d_hi);", I.Dst,
                          I.Dst, I.Dst));
        Sink.line(formatf("r%d = _mm_cvtsd_f64(_mm_add_sd(t%d_lo, "
                          "_mm_unpackhi_pd(t%d_lo, t%d_lo)));",
                          I.Dst, I.Dst, I.Dst, I.Dst));
        Sink.dedent();
        Sink.line("}");
      }
      break;
    case Op::VShuffle:
      emitShuffle(I);
      break;
    default:
      assert(false && "unhandled opcode");
    }
  }

  void emitShuffle(const Inst &I) {
    // Every lane a broadcast scalar or zero: set the vector from the
    // scalars, one unpack/insert per pair instead of a splat-and-blend.
    std::string Lanes;
    bool FromScalars = true;
    for (int L = Nu - 1; L >= 0 && FromScalars; --L) {
      int S = I.Sel[L];
      auto It = BroadcastOf.find(S < Nu ? I.A : I.B);
      FromScalars = S < 0 || It != BroadcastOf.end();
      if (FromScalars)
        Lanes += (S < 0 ? "0.0" : reg(It->second)) + (L ? ", " : "");
    }
    if (FromScalars) {
      Sink.line(
          formatf("r%d = %s_set_pd(%s);", I.Dst, pfx(), Lanes.c_str()));
      return;
    }
    if (Nu == 2) {
      // _mm_shuffle_pd(x, y, imm) yields {x[imm&1], y[imm>>1]}; choose x
      // and y independently among rA, rB, and a zero vector.
      std::string Src[2];
      int LaneBit[2];
      for (int L = 0; L < 2; ++L) {
        int S = I.Sel[L];
        if (S < 0) {
          Src[L] = "_mm_setzero_pd()";
          LaneBit[L] = 0;
        } else if (S < 2) {
          Src[L] = reg(I.A);
          LaneBit[L] = S;
        } else {
          Src[L] = reg(I.B);
          LaneBit[L] = S - 2;
        }
      }
      Sink.line(formatf("r%d = _mm_shuffle_pd(%s, %s, %d);", I.Dst,
                        Src[0].c_str(), Src[1].c_str(),
                        LaneBit[0] | (LaneBit[1] << 1)));
      return;
    }
    if (Nu == 8) {
      // One masked two-source lane permutation covers every selector:
      // index bits [2:0] pick the element, bit 3 picks the source, and
      // the zeroing mask clears the -1 lanes (VShuffle semantics).
      int Mask = 0;
      std::string Idx;
      for (int L = 7; L >= 0; --L) {
        int S = I.Sel[L];
        if (S >= 0)
          Mask |= 1 << L;
        Idx += formatf("%s%d", L == 7 ? "" : ", ", S < 0 ? 0 : S);
      }
      Sink.line(formatf("r%d = _mm512_maskz_permutex2var_pd((__mmask8)0x%x, "
                        "r%d, _mm512_set_epi64(%s), r%d);",
                        I.Dst, Mask, I.A, Idx.c_str(),
                        I.B < 0 ? I.A : I.B));
      return;
    }
    assert(Nu == 4 && "unsupported vector width");
    bool UsesA = false, UsesB = false, HasZero = false;
    bool PerLane = true; // every lane L selects L from A or L from B
    for (int L = 0; L < 4; ++L) {
      int S = I.Sel[L];
      if (S < 0)
        HasZero = true;
      else if (S < 4) {
        UsesA = true;
        if (S != L)
          PerLane = false;
      } else {
        UsesB = true;
        if (S - 4 != L)
          PerLane = false;
      }
    }
    int ZeroMask = 0;
    for (int L = 0; L < 4; ++L)
      if (I.Sel[L] < 0)
        ZeroMask |= 1 << L;

    auto BlendZero = [&](const std::string &Expr) {
      if (!HasZero)
        return Expr;
      return formatf("_mm256_blend_pd(%s, _mm256_setzero_pd(), %d)",
                     Expr.c_str(), ZeroMask);
    };

    if (PerLane) {
      // Pure blend (possibly with zeroing).
      if (UsesA && UsesB) {
        int BMask = 0;
        for (int L = 0; L < 4; ++L)
          if (I.Sel[L] >= 4)
            BMask |= 1 << L;
        Sink.line(formatf(
            "r%d = %s;", I.Dst,
            BlendZero(formatf("_mm256_blend_pd(r%d, r%d, %d)", I.A, I.B,
                              BMask))
                .c_str()));
      } else {
        int Src = UsesB ? I.B : I.A;
        Sink.line(
            formatf("r%d = %s;", I.Dst, BlendZero(reg(Src)).c_str()));
      }
      return;
    }

    // vshufpd: lanes 0/2 take the low or high double of A's 128-bit
    // halves, lanes 1/3 that of B's.
    bool ShufPd = !HasZero;
    int ShufImm = 0;
    for (int L = 0; L < 4 && ShufPd; ++L) {
      int S = I.Sel[L];
      ShufPd = (S >= 4) == (L % 2 == 1) && (S % 4) / 2 == L / 2;
      ShufImm |= (S % 2) << L;
    }
    if (ShufPd) {
      Sink.line(formatf("r%d = _mm256_shuffle_pd(r%d, r%d, %d);", I.Dst, I.A,
                        I.B, ShufImm));
      return;
    }
    // vperm2f128: each 128-bit half of the result is a whole half of A or
    // B, or zero.
    bool Perm2 = true;
    int Perm2Imm = 0;
    for (int H = 0; H < 2 && Perm2; ++H) {
      int S0 = I.Sel[2 * H], S1 = I.Sel[2 * H + 1];
      if (S0 < 0 && S1 < 0)
        Perm2Imm |= 8 << (4 * H);
      else
        Perm2 = S0 >= 0 && S0 % 2 == 0 && S1 == S0 + 1;
      Perm2Imm |= (S0 < 0 ? 0 : S0 / 2) << (4 * H);
    }
    if (Perm2) {
      Sink.line(formatf("r%d = _mm256_permute2f128_pd(r%d, r%d, 0x%02x);",
                        I.Dst, I.A, I.B < 0 ? I.A : I.B, Perm2Imm));
      return;
    }

    // General case: permute each source with AVX2 permute4x64, then blend.
    auto PermImm = [&](bool FromB) {
      int Imm = 0;
      for (int L = 0; L < 4; ++L) {
        int S = I.Sel[L];
        int Lane = 0;
        if (S >= 0 && (S >= 4) == FromB)
          Lane = FromB ? S - 4 : S;
        Imm |= Lane << (2 * L);
      }
      return Imm;
    };
    if (UsesA && UsesB) {
      int BMask = 0;
      for (int L = 0; L < 4; ++L)
        if (I.Sel[L] >= 4)
          BMask |= 1 << L;
      std::string PA =
          formatf("_mm256_permute4x64_pd(r%d, %d)", I.A, PermImm(false));
      std::string PB =
          formatf("_mm256_permute4x64_pd(r%d, %d)", I.B, PermImm(true));
      Sink.line(formatf("r%d = %s;", I.Dst,
                        BlendZero(formatf("_mm256_blend_pd(%s, %s, %d)",
                                          PA.c_str(), PB.c_str(), BMask))
                            .c_str()));
    } else {
      int Src = UsesB ? I.B : I.A;
      Sink.line(formatf(
          "r%d = %s;", I.Dst,
          BlendZero(formatf("_mm256_permute4x64_pd(r%d, %d)", Src,
                            PermImm(UsesB)))
              .c_str()));
    }
  }
};

} // namespace

std::string cir::emitFunction(const Function &F) {
  Emitter E(F);
  return E.run();
}

std::string cir::emitFunctionSplit(const Function &F, int MaxInstsPerPart) {
  Emitter E(F);
  return E.runSplit(MaxInstsPerPart);
}

std::string cir::emitPrototype(const Function &F) {
  return Emitter::prototype(F);
}

std::string cir::emitTranslationUnit(const Function &F) {
  return emitTranslationUnit(std::vector<const Function *>{&F});
}

std::string cir::emitTranslationUnit(const std::vector<const Function *> &Fs) {
  bool Vector = false;
  for (const Function *F : Fs)
    Vector |= F->Nu > 1;
  std::string S;
  S += "#include <math.h>\n";
  if (Vector)
    S += "#include <immintrin.h>\n";
  // Very large fully-unrolled kernels are split into part-functions to
  // keep the C compiler's superlinear per-function analyses tractable.
  for (const Function *F : Fs)
    S += "\n" + emitFunctionSplit(*F, /*MaxInstsPerPart=*/1 << 14);
  return S;
}
