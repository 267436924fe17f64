//===- perfbench/Serving.cpp - cold passes, the daemon, per-layer probes --===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include "Kernels.h"

#include "isa/ISA.h"
#include "runtime/Jit.h"
#include "service/Tuner.h"
#include "slingen/SLinGen.h"

#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

using namespace slingen;
namespace fs = std::filesystem;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

bool Daemon::start(const std::string &SldPath, const std::string &Socket,
                   const std::string &CacheDir, const std::string &LogPath,
                   std::string &Err) {
  std::error_code Ec;
  fs::remove(Socket, Ec);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 1, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&FA, 1, 2);
  std::vector<std::string> Args{SldPath, "-socket", Socket, "-cache-dir",
                                CacheDir};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  int Rc = posix_spawn(&Pid, SldPath.c_str(), &FA, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Rc != 0) {
    Pid = -1;
    Err = "cannot spawn " + SldPath + ": " + strerror(Rc);
    return false;
  }
  Address = "unix:" + Socket;
  sl::SessionConfig Cfg;
  Cfg.MaxRetries = 0;
  Cfg.ConnectTimeoutMs = 500;
  int64_t Deadline = nowNs() + 20'000'000'000LL;
  while (nowNs() < Deadline) {
    int Status = 0;
    if (waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Err = "sld exited during start-up (see " + LogPath + ")";
      return false;
    }
    if (fs::exists(Socket, Ec) && sl::Session::open(Address, Cfg).ok())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Err = "sld did not accept connections";
  stop();
  return false;
}

void Daemon::stop() {
  if (Pid <= 0)
    return;
  kill(Pid, SIGTERM);
  int Status = 0;
  for (int I = 0; I < 500; ++I) {
    if (waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(Pid, SIGKILL);
  waitpid(Pid, &Status, 0);
  Pid = -1;
}

//===----------------------------------------------------------------------===//
// Cold passes
//===----------------------------------------------------------------------===//

namespace {

/// The wrapper's log lines from \p Offset on; advances \p Offset.
std::vector<CcRun> readCcLog(const std::string &Path, size_t &Offset) {
  std::vector<CcRun> Runs;
  std::ifstream In(Path);
  if (!In)
    return Runs;
  In.seekg(static_cast<std::streamoff>(Offset));
  std::string Line;
  while (std::getline(In, Line)) {
    Offset += Line.size() + 1;
    long long B = 0, E = 0, Bytes = 0;
    int Status = 0;
    if (sscanf(Line.c_str(), "%lld %lld %lld %d", &B, &E, &Bytes, &Status) ==
            4 &&
        Bytes > 0)
      Runs.push_back({static_cast<double>(E - B) / 1e6, static_cast<long>(Bytes)});
  }
  return Runs;
}

} // namespace

ServedChecker::ServedChecker() = default;
ServedChecker::~ServedChecker() = default;

bool ServedChecker::prepare(const std::vector<ReqSpec> &Reqs, uint64_t Seed,
                            std::string &Err) {
  Singles.clear();
  Batches.clear();
  for (const ReqSpec &S : Reqs) {
    if (S.Batched) {
      auto B = std::make_unique<BatchBench>();
      B->Spec = S;
      if (!B->prepare(Seed, 4, Err))
        return false;
      Batches[S.Label] = std::move(B);
    } else {
      auto B = std::make_unique<SingleBench>();
      B->Spec = S;
      if (!B->prepare(Seed, Err))
        return false;
      Singles[S.Label] = std::move(B);
    }
  }
  return true;
}

bool ServedChecker::check(const ColdSample &C) {
  if (C.Spec.Batched) {
    auto It = Batches.find(C.Spec.Label);
    if (It == Batches.end())
      return false;
    It->second->K = C.K;
    return It->second->check(3);
  }
  SingleBench *S = single(C.Spec.Label);
  if (!S)
    return false;
  S->K = C.K;
  return S->check();
}

SingleBench *ServedChecker::single(const std::string &Label) {
  auto It = Singles.find(Label);
  return It == Singles.end() ? nullptr : It->second.get();
}

std::vector<ColdSample> coldPass(const std::vector<ReqSpec> &Order,
                                 const std::string &CacheDir,
                                 ServedChecker &Check, Tally &T,
                                 const std::string &CcLog, double &WallS,
                                 const std::function<double()> &Between) {
  std::error_code Ec;
  fs::remove_all(CacheDir, Ec);
  fs::create_directories(CacheDir, Ec);
  std::vector<ColdSample> Out;
  auto S = sl::Session::open("local:" + CacheDir);
  if (!S) {
    for (const ReqSpec &Spec : Order) {
      (void)Spec;
      T.fail(sl::codeName(S.code()));
    }
    WallS = 0;
    return Out;
  }
  size_t Offset = 0;
  if (!CcLog.empty())
    readCcLog(CcLog, Offset); // skip earlier runs
  double BetweenS = 0;
  int64_t Begin = nowNs();
  for (const ReqSpec &Spec : Order) {
    ColdSample C;
    C.Spec = Spec;
    if (Between) {
      int64_t B = nowNs();
      C.RefUs = Between();
      BetweenS += static_cast<double>(nowNs() - B) / 1e9;
    }
    auto R = Spec.request();
    if (!R) {
      T.fail(sl::codeName(R.code()));
      continue;
    }
    LayerTimer Svc("service");
    auto K = S->get(*R);
    C.LatencyUs = Svc.stop();
    if (!CcLog.empty())
      C.Cc = readCcLog(CcLog, Offset);
    if (!K) {
      std::string Code = sl::codeName(K.code());
      T.fail(Code, knownFailure(Spec, Code));
      Out.push_back(std::move(C));
      continue;
    }
    C.Ok = true;
    C.K = *K;
    if (const sl::TimingBreakdown *TB = K->timing())
      C.Timing = *TB;
    Out.push_back(std::move(C));
  }
  WallS = static_cast<double>(nowNs() - Begin) / 1e9 - BetweenS;
  for (ColdSample &C : Out) {
    if (!C.Ok)
      continue;
    LayerTimer KT("kernel");
    bool Good = Check.check(C);
    KT.stop();
    if (Good)
      T.ok();
    else {
      C.Ok = false;
      T.fail("output-mismatch");
    }
  }
  return Out;
}

void coldLayers(const std::vector<ColdSample> &Pass, LayerSamples &L) {
  for (const ColdSample &C : Pass) {
    if (!C.Ok)
      continue;
    const sl::TimingBreakdown &TB = C.Timing;
    L["service.gen_us"].push_back(TB.GenUs);
    if (C.Spec.kind() != ReqKind::Single)
      L["service.tune_us"].push_back(TB.TuneUs);
    L["service.compile_us"].push_back(TB.CompileUs);
    L["service.total_us"].push_back(TB.TotalUs);
    L["service.unaccounted_us"].push_back(TB.TotalUs - TB.GenUs -
                                          TB.TuneUs - TB.CompileUs);
    L[std::string("runtime.jit.cc_runs_") + kindName(C.Spec.kind())]
        .push_back(static_cast<double>(C.Cc.size()));
    for (const CcRun &R : C.Cc)
      L["runtime.jit.cc_ms"].push_back(R.WallMs);
  }
}

//===----------------------------------------------------------------------===//
// Per-layer probes
//===----------------------------------------------------------------------===//

void probeGenerator(const std::vector<ReqSpec> &Reqs, LayerSamples &L) {
  service::TuneOptions TO;
  TO.ExtraFlags = runtime::isaCompileFlags(avxIsa());
  for (const ReqSpec &Spec : Reqs) {
    std::string Err;
    LayerTimer Parse("la");
    auto P = la::compileLa(Spec.source(), Err);
    L["la.parse_us"].push_back(Parse.stop());
    if (!P)
      continue;
    GenOptions O;
    O.Isa = &avxIsa();
    O.FuncName = Spec.Label;
    LayerTimer Norm("normalize");
    Generator G(std::move(*P), O);
    L["normalize_us"].push_back(Norm.stop());
    if (!G.isValid())
      continue;
    LayerTimer Gen("gen");
    std::vector<GenResult> All = G.enumerate(TO.MaxVariants);
    L["gen.enumerate_ms"].push_back(Gen.stop() / 1e3);
    L["gen.variants"].push_back(static_cast<double>(All.size()));
    if (All.empty())
      continue;
    GenResult R = std::move(All.front());
    if (Spec.Measure) {
      LayerTimer Tune("service.tuner");
      auto TR = service::tuneKernel(G, TO, Err);
      L["service.tuner.variant_ms"].push_back(Tune.stop() / 1e3);
      if (TR)
        R = std::move(TR->Result);
    }
    BatchStrategy S = BatchStrategy::ScalarLoop;
    if (Spec.Batched) {
      LayerTimer Tune("service.tuner");
      service::BatchChoice BC = service::chooseBatchStrategy(
          R, O, TO, /*AllowCompile=*/true, Spec.Threads);
      L["service.tuner.strategy_ms"].push_back(Tune.stop() / 1e3);
      S = BC.Strategy;
    }
    LayerTimer Verify("cir.verify");
    auto VE = verifyEmittedIR(R, &O, Spec.Batched, S);
    L["cir.verify_us"].push_back(Verify.stop());
    if (VE)
      continue;
    LayerTimer Emit("cir.emit");
    std::string C;
    if (!Spec.Batched)
      C = emitC(R);
    else if (S == BatchStrategy::InstanceParallelFused)
      C = emitBatchedVectorFusedC(R, &O);
    else if (S == BatchStrategy::InstanceParallel)
      C = emitBatchedVectorC(R, &O);
    else
      C = emitBatchedC(R);
    L["cir.emit_us"].push_back(Emit.stop());
    L[Spec.Batched ? "cir.tu_bytes_batched" : "cir.tu_bytes"].push_back(
        static_cast<double>(C.size()));
  }
}

void probeLoad(const std::vector<ColdSample> &Served, const std::string &Dir,
               LayerSamples &L) {
  for (const ColdSample &C : Served) {
    if (!C.Ok || C.K.objectBytes().empty())
      continue;
    std::string Path = Dir + "/" + C.Spec.Label + ".so";
    {
      std::ofstream Out(Path, std::ios::binary);
      Out << C.K.objectBytes();
    }
    std::string Err;
    LayerTimer Load("runtime.jit");
    auto K = runtime::JitKernel::load(Path, C.K.functionName(),
                                      C.K.numParams(), Err, C.K.batched());
    double Us = Load.stop();
    if (K)
      L["runtime.jit.dlopen_us"].push_back(Us);
    std::error_code Ec;
    fs::remove(Path, Ec);
  }
}

namespace {

std::map<std::string, long> parseStats(const std::string &Text) {
  std::map<std::string, long> KV;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Eq = Line.find('=');
    if (Eq != std::string::npos)
      KV[Line.substr(0, Eq)] = std::atol(Line.c_str() + Eq + 1);
  }
  return KV;
}

} // namespace

void probeWarm(const std::vector<ColdSample> &Served,
               const std::string &SldPath, const std::string &WorkDir,
               const std::string &CacheDir, LayerSamples &L, Tally &T) {
  constexpr int Rounds = 10;
  Daemon D;
  std::string Err;
  if (!D.start(SldPath, WorkDir + "/probe.sock", CacheDir,
               WorkDir + "/sld.log", Err)) {
    fprintf(stderr, "perfbench: %s\n", Err.c_str());
    T.fail("connect-failed");
    return;
  }
  auto Remote = sl::Session::open(D.address());
  auto Local = sl::Session::open("local:" + CacheDir);
  if (!Remote || !Local) {
    T.fail("connect-failed");
    return;
  }
  std::vector<std::pair<ReqSpec, sl::Kernel>> First;
  for (const ColdSample &C : Served) {
    if (!C.Ok)
      continue;
    auto R = C.Spec.request();
    auto K = Remote->get(*R);
    auto KL = Local->get(*R);
    if (!K || !KL) {
      T.fail(sl::codeName(!K ? K.code() : KL.code()));
      continue;
    }
    First.emplace_back(C.Spec, *K);
    // Front-end work every hit repeats to compute its key.
    std::string PErr;
    int64_t B = nowNs();
    if (auto P = la::compileLa(C.Spec.source(), PErr)) {
      GenOptions O;
      O.Isa = &avxIsa();
      O.FuncName = C.Spec.Label;
      Generator G(std::move(*P), O);
    }
    L["warm.parse_normalize_us"].push_back((nowNs() - B) / 1e3);
  }
  auto Before = Remote->stats();
  long Gets = 0;
  for (int Round = 0; Round < Rounds; ++Round)
    for (const auto &[Spec, Want] : First) {
      auto R = Spec.request();
      LayerTimer Net("net");
      auto K = Remote->get(*R);
      Net.stop();
      ++Gets;
      if (!K) {
        T.fail(sl::codeName(K.code()));
        continue;
      }
      if (K->key() != Want.key() || K->objectBytes() != Want.objectBytes()) {
        T.fail("artifact-mismatch");
        continue;
      }
      T.ok();
      if (const sl::TimingBreakdown *TB = K->timing())
        L["warm.wire_us"].push_back(TB->RoundTripUs - TB->TotalUs);
      L["warm.response_bytes"].push_back(
          static_cast<double>(K->objectBytes().size() + K->cSource().size()));
      LayerTimer Svc("service");
      (void)Local->get(*R);
      L["warm.local_hit_us"].push_back(Svc.stop());
      std::string Err2;
      LayerTimer Load("runtime.jit");
      auto J = runtime::JitKernel::loadFromBytes(K->objectBytes(),
                                                 K->functionName(),
                                                 K->numParams(), Err2,
                                                 K->batched());
      double Us = Load.stop();
      if (J)
        L["warm.load_from_bytes_us"].push_back(Us);
    }
  auto After = Remote->stats();
  if (Before && After && Gets > 0) {
    auto B = parseStats(*Before), A = parseStats(*After);
    double Mem = A["mem-hits"] - B["mem-hits"];
    double All = Mem + (A["disk-hits"] - B["disk-hits"]) +
                 (A["misses"] - B["misses"]);
    if (All > 0)
      L["warm.mem_hit_frac"].push_back(Mem / All);
  }
}

} // namespace perfbench
