//===- tests/chaos_test.cpp - fault-injection (chaos) suite ----------------===//
//
// Part of the SLinGen reproduction. MIT license.
//===----------------------------------------------------------------------===//
// The resilience contract under injected faults (support/FaultInject.h):
// corrupt disk-cache entries are quarantined and regenerated byte-identical,
// store failures degrade to memory-only serving, the generation-admission
// gate sheds excess misses with Overloaded while cache hits keep serving,
// deadlines bound a stalled daemon on both sides of the wire, and a storm
// of concurrent clients against a fault-armed daemon finishes in bounded
// time with only the documented error codes.
//===----------------------------------------------------------------------===//

#include "la/Programs.h"
#include "net/Server.h"
#include "obs/Metrics.h"
#include "runtime/Jit.h"
#include "service/KernelService.h"
#include "slingen/client.h"
#include "support/FaultInject.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace slingen;
using namespace slingen::testdata;
namespace fs = std::filesystem;

namespace {

/// RAII temporary directory (socket files, cache dirs).
struct TempDir {
  TempDir() {
    char Tmpl[] = "/tmp/slingen_chaos_XXXXXX";
    Path = mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string Path;
};

/// A daemon over a temp Unix socket plus its backing service.
struct TestDaemon {
  explicit TestDaemon(service::ServiceConfig SC = {}) : Svc(std::move(SC)) {
    net::ServerConfig NC;
    NC.UnixPath = Dir.Path + "/sld.sock";
    Srv.emplace(Svc, NC);
    std::string Err;
    Ok = Srv->start(Err);
    if (!Ok)
      ADD_FAILURE() << "server start failed: " << Err;
  }

  TempDir Dir;
  service::KernelService Svc;
  std::optional<net::Server> Srv;
  bool Ok = false;
};

/// Every test disarms whatever it armed, even on assertion failure.
class Chaos : public ::testing::Test {
protected:
  void TearDown() override { fault::reset(); }
};

GenOptions scalarOptions(const std::string &Func) {
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = Func;
  return O;
}

/// Files under \p Dir whose final extension is \p Ext (e.g. ".bad").
int countFilesWithExtension(const std::string &Dir, const std::string &Ext) {
  int N = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir))
    if (E.is_regular_file() && E.path().extension() == Ext)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Crash-safe cache: quarantine and regeneration
//===----------------------------------------------------------------------===//

TEST_F(Chaos, CorruptCachedSourceIsQuarantinedAndRegenerated) {
  TempDir Dir;
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  SC.CacheDir = Dir.Path;
  GenOptions O = scalarOptions("chaos_qsrc");

  std::string Expected, Key;
  {
    service::KernelService A(SC);
    service::GetResult R = A.get(la::potrfSource(8), O);
    ASSERT_TRUE(R) << R.Error;
    Expected = R->CSource;
    Key = R->Key;
  }

  // Flip the published source out from under the cache -- a torn disk, a
  // stray editor, bit rot; the meta's content hash no longer matches.
  int Corrupted = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir.Path))
    if (E.is_regular_file() && E.path().extension() == ".c") {
      std::ofstream Out(E.path(), std::ios::trunc);
      Out << "/* bit rot */\n";
      ++Corrupted;
    }
  ASSERT_EQ(Corrupted, 1);

  // A fresh service must not serve the garbage: the entry is quarantined,
  // the kernel regenerated, and the result is byte-identical to the
  // original -- the determinism the cache is allowed to rely on.
  service::KernelService B(SC);
  service::GetResult R2 = B.get(la::potrfSource(8), O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(R2->Key, Key);
  EXPECT_EQ(R2->CSource, Expected);
  service::ServiceStats St = B.stats();
  EXPECT_EQ(St.Quarantined, 1);
  EXPECT_EQ(St.DiskHits, 0);
  EXPECT_EQ(St.Generations, 1);
  // The poisoned files moved aside as .bad -- kept for forensics,
  // invisible to lookups and the GC.
  EXPECT_GE(countFilesWithExtension(Dir.Path, ".bad"), 2);

  // And the regenerated entry is a clean disk hit for the next service.
  service::KernelService C(SC);
  service::GetResult R3 = C.get(la::potrfSource(8), O);
  ASSERT_TRUE(R3) << R3.Error;
  EXPECT_EQ(R3->CSource, Expected);
  EXPECT_EQ(C.stats().DiskHits, 1);
  EXPECT_EQ(C.stats().Quarantined, 0);
}

TEST_F(Chaos, TornWriteIsQuarantinedOnNextLoad) {
  TempDir Dir;
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  SC.CacheDir = Dir.Path;
  GenOptions O = scalarOptions("chaos_torn");

  std::string Expected;
  fault::arm("torn-write", /*Count=*/1);
  {
    service::KernelService A(SC);
    // The request itself succeeds -- only the *stored* copy is torn.
    service::GetResult R = A.get(la::potrfSource(8), O);
    ASSERT_TRUE(R) << R.Error;
    Expected = R->CSource;
  }
  fault::reset();

  service::KernelService B(SC);
  service::GetResult R2 = B.get(la::potrfSource(8), O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(R2->CSource, Expected);
  EXPECT_EQ(B.stats().Quarantined, 1);
  EXPECT_EQ(B.stats().Generations, 1);
}

TEST_F(Chaos, CorruptSharedObjectIsQuarantinedNotLoaded) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  TempDir Dir;
  service::ServiceConfig SC;
  SC.CacheDir = Dir.Path;
  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = "chaos_qso";

  std::string Expected;
  {
    service::KernelService A(SC);
    service::GetResult R = A.get(la::potrfSource(8), O);
    ASSERT_TRUE(R) << R.Error;
    ASSERT_TRUE(R->isCallable());
    Expected = R->CSource;
  }

  // Garbage where the object was: the hash check must catch it *before*
  // dlopen gets a chance to crash the process on it.
  int Corrupted = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir.Path))
    if (E.is_regular_file() && E.path().extension() == ".so") {
      std::ofstream Out(E.path(), std::ios::trunc | std::ios::binary);
      Out << "not an ELF";
      ++Corrupted;
    }
  ASSERT_EQ(Corrupted, 1);

  service::KernelService B(SC);
  service::GetResult R2 = B.get(la::potrfSource(8), O);
  ASSERT_TRUE(R2) << R2.Error;
  ASSERT_TRUE(R2->isCallable());
  EXPECT_EQ(R2->CSource, Expected);
  EXPECT_EQ(B.stats().Quarantined, 1);
}

TEST_F(Chaos, StoreFailureDegradesToMemoryOnlyServing) {
  TempDir Dir;
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  SC.CacheDir = Dir.Path;
  GenOptions O = scalarOptions("chaos_eio");

  fault::arm("eio-on-store", /*Count=*/1);
  service::KernelService A(SC);
  service::GetResult R = A.get(la::potrfSource(8), O);
  ASSERT_TRUE(R) << "a failed disk store must not fail the request: "
                 << R.Error;
  // The entry still serves from memory...
  service::GetResult R2 = A.get(la::potrfSource(8), O);
  ASSERT_TRUE(R2);
  EXPECT_EQ(A.stats().MemHits, 1);
  // ...but nothing reached the disk tier.
  EXPECT_EQ(A.stats().DiskEntries, 0);

  // A fresh service over the same directory regenerates from scratch.
  fault::reset();
  service::KernelService B(SC);
  service::GetResult R3 = B.get(la::potrfSource(8), O);
  ASSERT_TRUE(R3) << R3.Error;
  EXPECT_EQ(B.stats().DiskHits, 0);
  EXPECT_EQ(B.stats().Generations, 1);
}

//===----------------------------------------------------------------------===//
// Admission control and deadlines
//===----------------------------------------------------------------------===//

TEST_F(Chaos, GenerationCapShedsMissesButServesHits) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  SC.MaxConcurrentGen = 1;
  service::KernelService Svc(SC);

  // Cache one key before arming so the hit path can be probed while the
  // gate is saturated.
  GenOptions Cached = scalarOptions("chaos_gate_hot");
  ASSERT_TRUE(Svc.get(la::potrfSource(8), Cached));

  fault::arm("slow-generate", /*Count=*/0, /*Ms=*/400);

  // One leader occupies the gate for ~400ms; concurrent misses on other
  // keys must be shed with Overloaded instead of queueing unboundedly.
  const int NumThreads = 4;
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<int> Success{0}, Shed{0}, Other{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      GenOptions O = scalarOptions("chaos_gate_" + std::to_string(T));
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      service::GetResult R = Svc.get(la::potrfSource(8), O);
      if (R)
        ++Success;
      else if (R.Code == service::Errc::Overloaded)
        ++Shed;
      else
        ++Other;
    });
  while (Ready.load() < NumThreads)
    std::this_thread::yield();
  Go = true;

  // While the gate is held, a hit on the cached key serves immediately --
  // shedding must never starve the cheap path.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  service::GetResult Hot = Svc.get(la::potrfSource(8), Cached);
  EXPECT_TRUE(Hot) << Hot.Error;

  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Success + Shed, NumThreads);
  EXPECT_EQ(Other, 0);
  EXPECT_GE(Success.load(), 1);
  EXPECT_GE(Shed.load(), 1);
  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.Shed, Shed.load());
  EXPECT_EQ(St.Errors, Shed.load());
}

TEST_F(Chaos, ExpiredDeadlineIsShedBeforeGeneration) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  service::KernelService Svc(SC);
  GenOptions O = scalarOptions("chaos_ddl");

  service::RequestOptions Req;
  Req.DeadlineUs = obs::nowUs() - 1000; // already expired on arrival
  service::GetResult R = Svc.get(la::potrfSource(8), O, Req);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Code, service::Errc::DeadlineExceeded);
  service::ServiceStats St = Svc.stats();
  EXPECT_EQ(St.DeadlineExpired, 1);
  EXPECT_EQ(St.Generations, 0) << "no work for a request nobody waits for";

  // Cache hits ignore the deadline: serve what is already paid for.
  ASSERT_TRUE(Svc.get(la::potrfSource(8), O));
  service::GetResult Hit = Svc.get(la::potrfSource(8), O, Req);
  EXPECT_TRUE(Hit) << Hit.Error;
}

TEST_F(Chaos, ClientDeadlineBoundsAStalledDaemon) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();

  fault::arm("slow-generate", /*Count=*/0, /*Ms=*/2000);
  auto R = sl::RequestBuilder()
               .source(la::potrfSource(8))
               .name("chaos_stall")
               .isa("scalar")
               .deadlineMs(100)
               .build();
  ASSERT_TRUE(R) << R.message();

  auto Start = std::chrono::steady_clock::now();
  auto K = S->get(*R);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_FALSE(K);
  EXPECT_EQ(K.code(), sl::Code::DeadlineExceeded) << K.message();
  // The wait ended near the budget, not at the daemon's convenience
  // (generous upper bound: CI boxes stall too).
  EXPECT_GE(ElapsedMs, 100);
  EXPECT_LT(ElapsedMs, 1500);
  fault::reset();

  // The session recovers: the connection was condemned (the late reply
  // would desync it), and the next request reconnects and serves. No
  // deadline this time -- it may legitimately join the still-running
  // generation the first request abandoned and wait it out.
  auto R2 = sl::RequestBuilder()
                .source(la::potrfSource(8))
                .name("chaos_stall")
                .isa("scalar")
                .build();
  ASSERT_TRUE(R2) << R2.message();
  auto K2 = S->get(*R2);
  EXPECT_TRUE(K2) << K2.message();
}

//===----------------------------------------------------------------------===//
// Verifier gate: corrupted IR is refused, locally and over the wire
//===----------------------------------------------------------------------===//

TEST_F(Chaos, CorruptIRIsRefusedAsInvalidKernelIR) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  service::KernelService Svc(SC);
  GenOptions O = scalarOptions("chaos_vir");

  // The corrupt-ir fault breaks the generated function's register file the
  // way a real generator bug would; the verifier gate in produce() must
  // refuse it as a structured error, never hand it to emission/JIT.
  int64_t Before =
      obs::Registry::global().counter("cir.verify_rejected").value();
  fault::arm("corrupt-ir", /*Count=*/1);
  service::GetResult R = Svc.get(la::potrfSource(8), O);
  EXPECT_FALSE(R);
  EXPECT_EQ(R.Code, service::Errc::InvalidKernelIR) << R.Error;
  EXPECT_NE(R.Error.find("bad-register"), std::string::npos) << R.Error;
  EXPECT_EQ(obs::Registry::global().counter("cir.verify_rejected").value(),
            Before + 1);
  fault::reset();

  // The rejection is not sticky: the next request regenerates clean IR.
  service::GetResult R2 = Svc.get(la::potrfSource(8), O);
  EXPECT_TRUE(R2) << R2.Error;
}

TEST_F(Chaos, CorruptIRInATuningUnitIsRefusedBeforeAnyCompile) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  // Compiler on: a batched-auto request compiles its strategies unit and
  // a measured request its variants unit. Both units are verified before
  // their one compile, so a corrupt candidate never reaches cc -- let
  // alone runs.
  service::ServiceConfig SC;
  SC.MeasureRepeats = 3;
  service::KernelService Svc(SC);
  obs::Counter &Jit = obs::Registry::global().counter("runtime.jit-compiles");
  GenOptions O;
  O.Isa = &hostIsa();
  struct Case {
    const char *Func;
    bool Batched, Measure;
  };
  for (Case C : {Case{"chaos_tu_batch", true, false},
                 Case{"chaos_tu_measure", false, true}}) {
    SCOPED_TRACE(C.Func);
    O.FuncName = C.Func;
    service::RequestOptions Req;
    Req.Batched = C.Batched;
    Req.Measure = C.Measure;
    const int64_t JitBefore = Jit.value();
    const long SvcBefore = Svc.stats().Compilations;
    fault::arm("corrupt-ir", /*Count=*/1);
    service::GetResult R = Svc.get(la::potrfSource(8), O, Req);
    fault::reset();
    EXPECT_FALSE(R);
    EXPECT_EQ(R.Code, service::Errc::InvalidKernelIR) << R.Error;
    EXPECT_NE(R.Error.find("bad-register"), std::string::npos) << R.Error;
    EXPECT_EQ(Jit.value(), JitBefore) << "a corrupt candidate was compiled";
    EXPECT_EQ(Svc.stats().Compilations, SvcBefore);

    // The service keeps serving: the same request now compiles once.
    service::GetResult R2 = Svc.get(la::potrfSource(8), O, Req);
    ASSERT_TRUE(R2) << R2.Error;
    EXPECT_TRUE(R2->isCallable());
    EXPECT_EQ(Jit.value(), JitBefore + 1);
  }
}

TEST_F(Chaos, CorruptIRTravelsTheWireAsInvalidKernelIR) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();

  fault::arm("corrupt-ir", /*Count=*/1);
  auto R = sl::RequestBuilder()
               .source(la::potrfSource(8))
               .name("chaos_vir_wire")
               .isa("scalar")
               .build();
  ASSERT_TRUE(R) << R.message();
  auto K = S->get(*R);
  EXPECT_FALSE(K);
  EXPECT_EQ(K.code(), sl::Code::InvalidKernelIR) << K.message();
  EXPECT_NE(K.message().find("C-IR verification failed"), std::string::npos)
      << K.message();
  fault::reset();

  // Same session, same request: the daemon recovers and serves.
  auto K2 = S->get(*R);
  EXPECT_TRUE(K2) << K2.message();
}

//===----------------------------------------------------------------------===//
// The storm: concurrent clients against a fault-armed daemon
//===----------------------------------------------------------------------===//

TEST_F(Chaos, ConcurrentClientsUnderFaultsFinishBoundedWithTypedErrors) {
  service::ServiceConfig SC;
  SC.UseCompiler = false;
  SC.MaxConcurrentGen = 2;
  TestDaemon D(SC);
  ASSERT_TRUE(D.Ok);

  // Every generation is slow, so the admission gate actually bites.
  fault::arm("slow-generate", /*Count=*/0, /*Ms=*/100);

  const int NumClients = 8;
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<sl::Code> Codes(NumClients, sl::Code::InternalError);
  std::vector<std::string> Messages(NumClients);
  std::vector<std::thread> Threads;
  auto Start = std::chrono::steady_clock::now();
  for (int T = 0; T < NumClients; ++T)
    Threads.emplace_back([&, T] {
      sl::SessionConfig Cfg;
      Cfg.MaxRetries = 3;
      Cfg.RetryBackoffMs = 25;
      auto S = sl::Session::open(D.Srv->unixPath(), Cfg);
      if (!S) {
        Codes[T] = S.code();
        Messages[T] = S.message();
        return;
      }
      auto R = sl::RequestBuilder()
                   .source(la::potrfSource(8))
                   .name("chaos_storm_" + std::to_string(T))
                   .isa("scalar")
                   .deadlineMs(20000)
                   .build();
      if (!R) {
        Codes[T] = R.code();
        Messages[T] = R.message();
        return;
      }
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      auto K = S->get(*R);
      Codes[T] = K ? sl::Code::Ok : K.code();
      Messages[T] = K ? "" : K.message();
    });
  while (Ready.load() < NumClients)
    std::this_thread::yield();
  Go = true;
  for (auto &T : Threads)
    T.join();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  // Bounded wall clock: nothing hung. (8 generations x 100ms over 2 gate
  // slots plus retry backoff is well under this.)
  EXPECT_LT(ElapsedMs, 30000);

  int Served = 0;
  for (int T = 0; T < NumClients; ++T) {
    // Only the documented outcomes: served, shed (retries exhausted), or
    // out of deadline. Anything else is a resilience bug.
    EXPECT_TRUE(Codes[T] == sl::Code::Ok ||
                Codes[T] == sl::Code::Overloaded ||
                Codes[T] == sl::Code::DeadlineExceeded)
        << sl::codeName(Codes[T]) << ": " << Messages[T];
    if (Codes[T] == sl::Code::Ok)
      ++Served;
  }
  EXPECT_GE(Served, 1) << "the daemon shed everything";

  // Shed requests were answered, not dropped: the daemon survived and
  // still serves.
  auto S = sl::Session::open(D.Srv->unixPath());
  ASSERT_TRUE(S) << S.message();
  EXPECT_TRUE(S->ping());
}

//===----------------------------------------------------------------------===//
// Flight recorder survives a fatal signal
//===----------------------------------------------------------------------===//

#ifndef SLINGEN_SLD_PATH
#define SLINGEN_SLD_PATH "sld"
#endif

TEST_F(Chaos, FaultKilledDaemonLeavesParseableFlightRecorderDump) {
  TempDir Dir;
  std::string Sock = Dir.Path + "/sld.sock";
  std::string Dump = Dir.Path + "/sld.crash";

  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    // The injected stall keeps the GET below mid-generation when the
    // SIGSEGV lands: the black box must name a request that never
    // finished.
    setenv("SLINGEN_FAULTS", "slow-generate:0:20000", 1);
    int Null = ::open("/dev/null", O_WRONLY);
    if (Null >= 0)
      dup2(Null, 2);
    execl(SLINGEN_SLD_PATH, "sld", "-socket", Sock.c_str(), "-crash-dump",
          Dump.c_str(), static_cast<char *>(nullptr));
    _exit(127);
  }

  bool Up = false;
  for (int I = 0; I < 200 && !Up; ++I) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    Up = fs::exists(Sock);
  }
  ASSERT_TRUE(Up) << "sld never bound its socket";

  std::thread Inflight([&] {
    sl::SessionConfig C;
    C.MaxRetries = 0;
    auto S = sl::Session::open("unix:" + Sock, C);
    if (!S)
      return;
    auto R = sl::RequestBuilder()
                 .source(la::potrfSource(8))
                 .name("chaos_crash")
                 .isa("scalar")
                 .build();
    if (R)
      (void)S->get(*R); // dies with the daemon; the failure is the point
  });
  // Long enough for the request to be admitted (and recorded) before the
  // process is shot; the stall guarantees it has not completed.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));

  kill(Pid, SIGSEGV);
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  Inflight.join();
  ASSERT_TRUE(WIFSIGNALED(Status));
  EXPECT_EQ(WTERMSIG(Status), SIGSEGV);

  // The handler dumped the ring on the way down, and the dump names the
  // in-flight GET: a "start" record with no latency yet and no matching
  // "done"/"fail" line.
  std::ifstream In(Dump);
  ASSERT_TRUE(In) << "no crash dump at " << Dump;
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  EXPECT_NE(Text.find("sld: fatal SIGSEGV"), std::string::npos) << Text;
  EXPECT_NE(Text.find("flight-recorder dump:"), std::string::npos) << Text;
  bool SawInflight = false;
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.rfind("flight ", 0) != 0)
      continue;
    // Every record line is fully tokenized -- parseable, not torn.
    for (const char *Tok : {" trace=", " phase=", " verb=", " kernel=",
                            " peer=", " tier=", " errc=", " lat-us="})
      EXPECT_NE(Line.find(Tok), std::string::npos) << Line;
    if (Line.find("phase=start") != std::string::npos &&
        Line.find("verb=get") != std::string::npos &&
        Line.find("lat-us=-1") != std::string::npos)
      SawInflight = true;
    EXPECT_EQ(Line.find("phase=done"), std::string::npos)
        << "the stalled request cannot have finished: " << Line;
  }
  EXPECT_TRUE(SawInflight) << "dump does not list the in-flight request:\n"
                           << Text;
}

} // namespace
