//===- perfbench/Common.cpp - shared pieces of the SLinGen benchmark ------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "bench/BenchCommon.h"
#include "tests/TestData.h"

#include <atomic>
#include <cstdio>
#include <thread>

using namespace slingen;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
int threadIndex() {
  static std::atomic<int> Next{1};
  thread_local int Tid = Next++;
  return Tid;
}
} // namespace

SpanLog &spans() {
  static SpanLog L;
  return L;
}

void SpanLog::add(const char *Name, int64_t BeginNs, int64_t EndNs) {
  if (!Enabled)
    return;
  std::lock_guard<std::mutex> G(M);
  Spans.push_back({Name, BeginNs, EndNs, threadIndex()});
}

std::string SpanLog::chromeJson() const {
  std::lock_guard<std::mutex> G(M);
  std::string Out = "{\"traceEvents\":[";
  int64_t T0 = Spans.empty() ? 0 : Spans.front().B;
  for (const Span &S : Spans)
    T0 = std::min(T0, S.B);
  char Buf[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    snprintf(Buf, sizeof(Buf),
             "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
             "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
             I ? "," : "", S.Name.c_str(), (S.B - T0) / 1e3,
             (S.E - S.B) / 1e3, S.Tid);
    Out += Buf;
  }
  Out += "]}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

const char *kindName(ReqKind K) {
  switch (K) {
  case ReqKind::Single:
    return "single";
  case ReqKind::Batched:
    return "batched";
  case ReqKind::Measured:
    return "measured";
  }
  return "?";
}

ReqSpec makeSpec(const std::string &Family, int N, int K, bool Batched,
                 bool Measure, int Threads) {
  ReqSpec S;
  S.Family = Family;
  S.N = N;
  S.K = K;
  S.Batched = Batched;
  S.Measure = Measure;
  S.Threads = Threads;
  S.Label = Family + std::to_string(N);
  if (Family == "kf" && K != N)
    S.Label += "k" + std::to_string(K);
  if (Batched)
    S.Label += Threads ? "_b" + std::to_string(Threads) : "_b";
  if (Measure)
    S.Label += "_m";
  return S;
}

std::string ReqSpec::source() const {
  if (Family == "potrf")
    return la::potrfSource(N);
  if (Family == "trsyl")
    return la::trsylSource(N);
  if (Family == "trlya")
    return la::trlyaSource(N);
  if (Family == "trtri")
    return la::trtriSource(N);
  if (Family == "kf")
    return la::kalmanSource(N, K ? K : N);
  if (Family == "gpr")
    return la::gprSource(N);
  if (Family == "l1a")
    return la::l1aSource(N);
  return Family; // raw LA text (the self-check's unparsable request)
}

bool knownFailure(const ReqSpec &Spec, const std::string &Code) {
  return Spec.Family == "kf" && Spec.N == 28 && Code == "invalid-kernel-ir";
}

sl::Result<sl::Request> ReqSpec::request(bool WantObject) const {
  sl::RequestBuilder B;
  B.source(source()).name(Label).isa("avx").wantTiming(true).wantObject(
      WantObject);
  if (Batched) {
    B.batched().strategy("auto");
    if (Threads)
      B.threads(Threads);
  }
  if (Measure)
    B.measure();
  return B.build();
}

//===----------------------------------------------------------------------===//
// Inputs, references and the checker
//===----------------------------------------------------------------------===//

int ProgramInfo::index(const std::string &Name) const {
  for (size_t I = 0; I < Params.size(); ++I)
    if (Params[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

bool analyze(const std::string &Source, ProgramInfo &Info, std::string &Err) {
  Info = ProgramInfo();
  Info.Prog = la::compileLa(Source, Err);
  if (!Info.Prog)
    return false;
  // The generator's signature rule: root operands of the declarations, in
  // declaration order.
  std::vector<const Operand *> Roots;
  for (const Operand *Op : Info.Prog->operands()) {
    const Operand *R = Op->root();
    if (!R->IsTemp && std::find(Roots.begin(), Roots.end(), R) == Roots.end())
      Roots.push_back(R);
  }
  for (const Operand *R : Roots) {
    ParamInfo P;
    P.Name = R->Name;
    P.Rows = R->Rows;
    P.Cols = R->Cols;
    P.Input = R->IO != IOKind::Out;
    P.Structure = R->Structure;
    P.PosDef = R->PosDef;
    Info.Params.push_back(P);
  }
  for (const Operand *Op : Info.Prog->operands())
    if (!Op->IsTemp && Op->isWritable())
      Info.Params[Info.index(Op->root()->Name)].Written = true;
  Info.Flops = bench::laFlops(Source);
  return true;
}

std::vector<std::vector<double>> makeInputs(const ProgramInfo &Info, Rng &R) {
  std::vector<std::vector<double>> In;
  for (const ParamInfo &P : Info.Params) {
    if (!P.Input)
      In.emplace_back(P.size(), 0.0);
    else if (P.PosDef)
      In.push_back(testdata::spd(P.Rows, R));
    else if (P.Structure == StructureKind::LowerTriangular)
      In.push_back(testdata::lowerTri(P.Rows, R));
    else if (P.Structure == StructureKind::UpperTriangular)
      In.push_back(testdata::upperTri(P.Rows, R));
    else if (P.Structure == StructureKind::SymmetricUpper ||
             P.Structure == StructureKind::SymmetricLower)
      In.push_back(testdata::symmetric(P.Rows, R));
    else
      In.push_back(testdata::general(P.Rows, P.Cols, R));
  }
  return In;
}

std::vector<std::vector<double>>
referenceOutputs(const ProgramInfo &Info,
                 const std::vector<std::vector<double>> &Inputs) {
  Env E;
  for (size_t I = 0; I < Info.Params.size(); ++I)
    if (Info.Params[I].Input)
      E.set(Info.Prog->findOperand(Info.Params[I].Name), Inputs[I]);
  evalProgram(*Info.Prog, E);
  std::vector<std::vector<double>> Out(Info.Params.size());
  for (size_t I = 0; I < Info.Params.size(); ++I)
    if (Info.Params[I].Written)
      Out[I] = E.get(Info.Prog->findOperand(Info.Params[I].Name));
  return Out;
}

double relError(const double *Got, const std::vector<double> &Want) {
  double Diff = 0.0, Scale = 1.0;
  for (size_t I = 0; I < Want.size(); ++I) {
    if (!std::isfinite(Got[I]))
      return INFINITY;
    Diff = std::max(Diff, std::fabs(Got[I] - Want[I]));
    Scale = std::max(Scale, std::fabs(Want[I]));
  }
  return Diff / Scale;
}

bool outputsMatch(const ProgramInfo &Info, double *const *Bufs,
                  const std::vector<std::vector<double>> &Want) {
  for (size_t I = 0; I < Info.Params.size(); ++I)
    if (Info.Params[I].Written &&
        !(relError(Bufs[I], Want[I]) <= CheckTolerance))
      return false;
  return true;
}

} // namespace perfbench
