//===- cir/LoadStoreOpt.cpp - the domain-specific load/store analysis -----==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Implements the paper's Stage-3 load/store analysis (Sec. 3.3, Figs. 11/12):
// memory is tracked at element granularity through constant addresses; a
// vector load (contiguous or strided) whose lanes were all produced by
// earlier stores (or loads) is rebuilt from the producing registers with
// broadcasts and shuffles/blends, a scalar load becomes a lane extract, and
// stores that are overwritten before any read are deleted.
//
//===----------------------------------------------------------------------===//

#include "cir/Passes.h"

#include "cir/Verify.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <set>

using namespace slingen;
using namespace slingen::cir;

namespace {

/// Where a memory element currently lives in registers: lane -1 means a
/// scalar register holds it.
struct LaneVal {
  int Reg = -1;
  int Lane = -1;
  long Time = 0;      ///< clock value at publication (for the age window)
  bool Stored = false; ///< published by a store, not by a load
};

using MemKey = std::pair<const Operand *, int>; // (buffer, element offset)

class LoadStorePass {
public:
  LoadStorePass(Function &F, int WindowInsts)
      : F(F), Window(WindowInsts), Defs(F.NumRegs, 0), NextReg(F.NumRegs) {
    countDefs(F.Body);
    RegIsVec = F.RegIsVec;
    Rename.resize(F.NumRegs);
    for (int I = 0; I < F.NumRegs; ++I)
      Rename[I] = I;
    runBlock(F.Body);
    // Compiler temporaries are dead when the function returns: a store to
    // one that nothing reads afterwards is dead too.
    std::set<MemKey> DeadAtExit;
    for (const Operand *L : F.Locals)
      for (int E = 0; E < L->Rows * L->Cols * F.LocalVecWidth; ++E)
        DeadAtExit.insert({L, E});
    deadStores(F.Body, std::move(DeadAtExit));
    F.NumRegs = NextReg;
    F.RegIsVec = RegIsVec;
  }

private:
  Function &F;
  int Window;
  /// How far back the oldest producer of a rebuilt (strided, scalar-sourced
  /// or multi-source) reload may lie. Longer live ranges cost the C
  /// compiler's register allocator more than the rebuilds save: unbounded,
  /// trsyl28 took 19-21 s to compile (9-12 s at the parent emission); at
  /// 256 it takes 9-11 s with n=4/n=12 kernel cycles unchanged, while 64
  /// gave back much of the gain (trsyl4 136 -> 232 cycles, gpr12 1003 ->
  /// 1114; AVX emission, AVX-512 Xeon host).
  static constexpr long RebuildWindowInsts = 256;
  long Clock = 0;
  std::vector<int> Defs;
  std::vector<int> Rename;
  std::vector<bool> RegIsVec;
  int NextReg;
  std::map<MemKey, LaneVal> Mem;

  void countDefs(const std::vector<Node> &Body) {
    for (const Node &N : Body) {
      if (const auto *I = std::get_if<Inst>(&N)) {
        if (hasDst(I->K) && I->Dst >= 0)
          ++Defs[I->Dst];
      } else {
        countDefs(std::get<Loop>(N).Body);
      }
    }
  }

  bool singleDef(int R) const { return R >= 0 && Defs[R] == 1; }

  int freshVReg() {
    RegIsVec.push_back(true);
    Defs.push_back(1);
    Rename.push_back(NextReg);
    return NextReg++;
  }

  void invalidateBuffer(const Operand *Buf) {
    for (auto It = Mem.begin(); It != Mem.end();)
      It = It->first.first == Buf ? Mem.erase(It) : std::next(It);
  }

  void recordStore(const Operand *Buf, int Off, int Reg, int Lane) {
    if (singleDef(Reg))
      Mem[{Buf, Off}] = {Reg, Lane, Clock, /*Stored=*/true};
    else
      Mem.erase({Buf, Off});
  }

  /// Publishes the lanes of a kept vector load for later reuse.
  void recordLoad(const Inst &I, int Stride) {
    if (singleDef(I.Dst))
      for (int L = 0; L < I.Lanes; ++L)
        Mem[{I.Address.Buf, I.Address.Const + L * Stride}] = {I.Dst, L,
                                                              Clock};
  }

  /// Window-checked lookup: entries older than Window instructions are
  /// treated as absent. Bounding the forwarding distance keeps register
  /// live ranges local in the very large unrolled kernels -- both the C
  /// compiler's register allocator and the function splitter depend on
  /// that locality; the paper's Fig. 11/12 patterns span only a few
  /// statements, far below any reasonable window.
  const LaneVal *lookup(const Operand *Buf, int Off) {
    auto It = Mem.find({Buf, Off});
    if (It == Mem.end())
      return nullptr;
    if (Window > 0 && Clock - It->second.Time > Window) {
      Mem.erase(It);
      return nullptr;
    }
    return &It->second;
  }

  /// A VShuffle of A and B into a fresh vector register.
  Inst shuffle(int A, int B, std::vector<int> Sel) {
    Inst Sh;
    Sh.K = Op::VShuffle;
    Sh.Dst = freshVReg();
    Sh.A = A;
    Sh.B = B;
    Sh.Sel = std::move(Sel);
    return Sh;
  }

  /// Tries to synthesize the value of a vector load (Lanes active lanes at
  /// Base + L * Stride of Buf) out of live registers. Appends replacement
  /// instructions to Out and returns the register holding the value, or -1.
  ///
  /// Lanes held by at most two vector registers take one shuffle (or none).
  /// Anything more -- scalar producers, more sources -- takes a broadcast
  /// per scalar and a chain of two-source shuffles, which pays only when
  /// some lane was published by a store: such a reload cannot be served by
  /// store-to-load forwarding (it spans several stores, or is a masked
  /// load) and waits for the stores to reach the cache. A reload of loaded
  /// lanes waits on nothing and stays a load. Counting only stores still in
  /// flight (a bound of 4 to 64 instructions on the newest stored lane) was
  /// measured on the n=4 and n=12 kernel_single kernels and lost to no
  /// bound every time (trsyl4 127 -> 255 cycles at 8, trlya12 1053 -> 1325
  /// at 32; AVX emission, AVX-512 Xeon host). The bound that remains,
  /// RebuildWindowInsts, is on live ranges.
  int synthesize(const Operand *Buf, int Base, int Stride, int Lanes,
                 std::vector<Node> &Out) {
    const int Nu = F.Nu;
    LaneVal Vals[8];
    bool Stored = false;
    long Age = 0; // distance back to the oldest producer
    for (int L = 0; L < Lanes; ++L) {
      const LaneVal *V = lookup(Buf, Base + L * Stride);
      if (!V)
        return -1;
      Vals[L] = *V;
      Stored |= V->Stored;
      Age = std::max(Age, Clock - V->Time);
    }
    // The distinct producers, oldest first: the chain merges the value
    // produced last in its final shuffle.
    std::vector<LaneVal> Srcs;
    for (int L = 0; L < Lanes; ++L) {
      bool Seen = false;
      for (const LaneVal &S : Srcs)
        Seen |= S.Reg == Vals[L].Reg;
      if (!Seen)
        Srcs.push_back(Vals[L]);
    }
    std::stable_sort(Srcs.begin(), Srcs.end(),
                     [](const LaneVal &X, const LaneVal &Y) {
                       return X.Time < Y.Time;
                     });
    bool AllVector = true;
    for (const LaneVal &S : Srcs)
      AllVector &= S.Lane >= 0;
    // Contiguous lanes of at most two vector registers take one shuffle or
    // none, at any distance in the window. Every other rebuild keeps all its
    // producers live up to the reload, so all must be recent; and beyond
    // one shuffle it pays only when a lane waits on a store.
    bool OneShuffle = AllVector && Srcs.size() <= 2;
    if (!(OneShuffle && Stride == 1) &&
        (Age > RebuildWindowInsts ||
         (!OneShuffle && !Stored)))
      return -1;

    // The source lane that holds lane L of the load. A broadcast scalar
    // sits in every lane: taking lane L keeps the shuffle a per-lane blend.
    auto Pick = [&](int L) { return Vals[L].Lane < 0 ? L : Vals[L].Lane; };
    std::vector<int> SrcReg;
    for (const LaneVal &S : Srcs) {
      if (S.Lane >= 0) {
        SrcReg.push_back(S.Reg);
        continue;
      }
      Inst Bc;
      Bc.K = Op::VBroadcast;
      Bc.Dst = freshVReg();
      Bc.A = S.Reg;
      SrcReg.push_back(Bc.Dst);
      Out.push_back(std::move(Bc));
    }
    // The first shuffle places the two oldest sources and zeroes every
    // other lane: inactive lanes stay zero (VLoad semantics), the rest are
    // placeholders. Each later shuffle keeps every lane but those of one
    // more source, which it blends in.
    std::vector<int> Sel(Nu, -1);
    bool Identity = Lanes == Nu && Srcs.size() == 1;
    for (int L = 0; L < Lanes; ++L) {
      if (Vals[L].Reg == Srcs[0].Reg)
        Sel[L] = Pick(L);
      else if (Srcs.size() > 1 && Vals[L].Reg == Srcs[1].Reg)
        Sel[L] = Nu + Pick(L);
      Identity &= Sel[L] == L;
    }
    if (Identity)
      return SrcReg[0]; // direct reuse, no instruction needed
    int Acc = SrcReg[0];
    Out.push_back(shuffle(Acc, Srcs.size() > 1 ? SrcReg[1] : Acc, Sel));
    Acc = std::get<Inst>(Out.back()).Dst;
    for (size_t I = 2; I < Srcs.size(); ++I) {
      for (int L = 0; L < Nu; ++L)
        Sel[L] = L < Lanes && Vals[L].Reg == Srcs[I].Reg ? Nu + Pick(L) : L;
      Out.push_back(shuffle(Acc, SrcReg[I], Sel));
      Acc = std::get<Inst>(Out.back()).Dst;
    }
    return Acc;
  }

  void runBlock(std::vector<Node> &Body) {
    std::vector<Node> Out;
    for (Node &N : Body) {
      if (auto *LP = std::get_if<Loop>(&N)) {
        // Conservative barriers: forget everything around loops.
        Mem.clear();
        runBlock(LP->Body);
        Mem.clear();
        Out.push_back(std::move(N));
        continue;
      }
      Inst I = std::move(std::get<Inst>(N));
      ++Clock;
      if (I.A >= 0)
        I.A = Rename[I.A];
      if (I.B >= 0)
        I.B = Rename[I.B];
      if (I.C >= 0)
        I.C = Rename[I.C];

      switch (I.K) {
      case Op::SStore:
        if (I.Address.isConstant()) {
          recordStore(I.Address.Buf, I.Address.Const, I.A, -1);
        } else {
          invalidateBuffer(I.Address.Buf);
        }
        Out.push_back(std::move(I));
        continue;
      case Op::VStore:
        if (I.Address.isConstant()) {
          for (int L = 0; L < I.Lanes; ++L)
            recordStore(I.Address.Buf, I.Address.Const + L, I.A, L);
        } else {
          invalidateBuffer(I.Address.Buf);
        }
        Out.push_back(std::move(I));
        continue;
      case Op::VStoreStrided:
        if (I.Address.isConstant()) {
          for (int L = 0; L < I.Lanes; ++L)
            recordStore(I.Address.Buf, I.Address.Const + L * I.Stride, I.A,
                        L);
        } else {
          invalidateBuffer(I.Address.Buf);
        }
        Out.push_back(std::move(I));
        continue;
      case Op::VStoreStridedMasked:
        // Runtime-masked coverage is unknown at compile time: treat as a
        // may-write of the whole buffer, never a forwarding source.
        invalidateBuffer(I.Address.Buf);
        Out.push_back(std::move(I));
        continue;
      case Op::SLoad: {
        if (I.Address.isConstant()) {
          const LaneVal *V = lookup(I.Address.Buf, I.Address.Const);
          if (V) {
            if (V->Lane < 0 && singleDef(I.Dst)) {
              // Forward the scalar directly.
              Rename[I.Dst] = V->Reg;
              continue;
            }
            if (V->Lane >= 0) {
              // Replace the load with a lane extract.
              Inst Ex;
    Ex.K = Op::VExtract;
              Ex.Dst = I.Dst;
              Ex.A = V->Reg;
              Ex.Lanes = V->Lane;
              Out.push_back(std::move(Ex));
              continue;
            }
          }
          // A kept load publishes its destination for later reuse.
          if (singleDef(I.Dst))
            Mem[{I.Address.Buf, I.Address.Const}] = {I.Dst, -1, Clock};
        }
        Out.push_back(std::move(I));
        continue;
      }
      case Op::VLoad:
      case Op::VLoadStrided: {
        int Stride = I.K == Op::VLoad ? 1 : I.Stride;
        if (I.Address.isConstant() && singleDef(I.Dst)) {
          int R = synthesize(I.Address.Buf, I.Address.Const, Stride, I.Lanes,
                             Out);
          if (R >= 0) {
            Rename[I.Dst] = R;
            continue;
          }
          recordLoad(I, Stride);
        }
        Out.push_back(std::move(I));
        continue;
      }
      default:
        Out.push_back(std::move(I));
        continue;
      }
    }
    Body = std::move(Out);
  }

  /// Backward dead-store elimination within straight-line regions: a store
  /// all of whose elements are overwritten before any read (and before any
  /// loop) is removed. \p Overwritten starts as the elements dead at the
  /// end of \p Body.
  void deadStores(std::vector<Node> &Body, std::set<MemKey> Overwritten) {
    std::vector<Node> Out;
    for (auto It = Body.rbegin(); It != Body.rend(); ++It) {
      Node &N = *It;
      if (auto *LP = std::get_if<Loop>(&N)) {
        deadStores(LP->Body, {});
        Overwritten.clear();
        Out.push_back(std::move(N));
        continue;
      }
      Inst &I = std::get<Inst>(N);
      auto Covered = [&](const Operand *Buf, int Off, int Count,
                         int Stride) {
        for (int L = 0; L < Count; ++L)
          if (!Overwritten.count({Buf, Off + L * Stride}))
            return false;
        return true;
      };
      auto MarkStore = [&](const Operand *Buf, int Off, int Count,
                           int Stride) {
        for (int L = 0; L < Count; ++L)
          Overwritten.insert({Buf, Off + L * Stride});
      };
      auto MarkRead = [&](const Operand *Buf, int Off, int Count,
                          int Stride) {
        for (int L = 0; L < Count; ++L)
          Overwritten.erase({Buf, Off + L * Stride});
      };
      switch (I.K) {
      case Op::SStore:
        if (I.Address.isConstant()) {
          if (Covered(I.Address.Buf, I.Address.Const, 1, 1))
            continue; // dead
          MarkStore(I.Address.Buf, I.Address.Const, 1, 1);
        } else {
          Overwritten.clear();
        }
        break;
      case Op::VStore:
        if (I.Address.isConstant()) {
          if (Covered(I.Address.Buf, I.Address.Const, I.Lanes, 1))
            continue;
          MarkStore(I.Address.Buf, I.Address.Const, I.Lanes, 1);
        } else {
          Overwritten.clear();
        }
        break;
      case Op::VStoreStrided:
        if (I.Address.isConstant()) {
          if (Covered(I.Address.Buf, I.Address.Const, I.Lanes, I.Stride))
            continue;
          MarkStore(I.Address.Buf, I.Address.Const, I.Lanes, I.Stride);
        } else {
          Overwritten.clear();
        }
        break;
      case Op::VStoreStridedMasked:
      case Op::VLoadStridedMasked:
        // Unknown runtime coverage: may write less than it claims / may
        // read anything -- never prove an earlier store dead across one.
        Overwritten.clear();
        break;
      case Op::SLoad:
        if (I.Address.isConstant())
          MarkRead(I.Address.Buf, I.Address.Const, 1, 1);
        else
          Overwritten.clear();
        break;
      case Op::VLoad:
        if (I.Address.isConstant())
          MarkRead(I.Address.Buf, I.Address.Const, I.Lanes, 1);
        else
          Overwritten.clear();
        break;
      case Op::VLoadStrided:
        if (I.Address.isConstant())
          MarkRead(I.Address.Buf, I.Address.Const, I.Lanes, I.Stride);
        else
          Overwritten.clear();
        break;
      default:
        break;
      }
      Out.push_back(std::move(N));
    }
    std::reverse(Out.begin(), Out.end());
    Body = std::move(Out);
  }
};

} // namespace

void cir::loadStoreOpt(Function &F, int WindowInsts) {
  LoadStorePass Pass(F, WindowInsts);
  verifyAssert(F, "load-store-opt");
}
