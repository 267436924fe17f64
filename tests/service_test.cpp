//===- tests/service_test.cpp - KernelService subsystem tests --------------===//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
// The serving runtime: content-addressed caching (memory LRU + disk tier),
// single-flight concurrent generation, the measured autotuner and its
// static fallback, and batched dispatch. Tests that need the C compiler or
// vector execution on the host are gated; the cache/single-flight/fallback
// logic is exercised everywhere.
//===----------------------------------------------------------------------===//

#include "la/Lower.h"
#include "la/Programs.h"
#include "obs/Metrics.h"
#include "runtime/Timing.h"
#include "service/KernelService.h"
#include "support/AlignedBuffer.h"
#include "slingen/SLinGen.h"
#include "support/Hash.h"
#include "support/Random.h"

#include "TestData.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include <stdlib.h>

using namespace slingen;
using namespace slingen::service;
using namespace slingen::testdata;

namespace {

GenOptions hostOpts(const std::string &Name) {
  GenOptions O;
  O.Isa = &hostIsa();
  O.FuncName = Name;
  return O;
}

/// RAII temporary directory for disk-tier tests.
struct TempDir {
  TempDir() {
    char Tmpl[] = "/tmp/slingen_service_XXXXXX";
    Path = mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string Path;
};

/// Canonical sharded entry path: `<dir>/ab/cdef...<ext>`.
std::string shardedPath(const std::string &Dir, const std::string &Key,
                        const char *Ext) {
  return Dir + "/" + Key.substr(0, 2) + "/" + Key.substr(2) + Ext;
}

TEST(ServiceCache, RepeatedGetHitsMemoryTier) {
  KernelService S;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf8");

  GetResult First = S.get(Src, O);
  ASSERT_TRUE(First) << First.Error;
  ASSERT_EQ(S.stats().Misses, 1);
  ASSERT_EQ(S.stats().Generations, 1);
  long CompilesAfterFirst = S.stats().Compilations;

  GetResult Second = S.get(Src, O);
  ASSERT_TRUE(Second);
  // The acceptance bar: a repeated get() returns the cached kernel without
  // re-invoking the generator or the C compiler.
  EXPECT_EQ(Second.Kernel.get(), First.Kernel.get());
  EXPECT_EQ(S.stats().MemHits, 1);
  EXPECT_EQ(S.stats().Generations, 1);
  EXPECT_EQ(S.stats().Compilations, CompilesAfterFirst);
  EXPECT_FALSE(First->CSource.empty());
  EXPECT_EQ(First->Key.size(), 16u);
}

TEST(ServiceCache, DistinctProgramsAndOptionsGetDistinctEntries) {
  KernelService S;
  GetResult A = S.get(la::potrfSource(8), hostOpts("k8"));
  GetResult B = S.get(la::potrfSource(12), hostOpts("k12"));
  ASSERT_TRUE(A && B);
  EXPECT_NE(A->Key, B->Key);
  EXPECT_EQ(S.cachedKernels(), 2u);
  // Same program, different ISA: also distinct.
  GenOptions Scalar;
  Scalar.Isa = &scalarIsa();
  Scalar.FuncName = "k8";
  GetResult C = S.get(la::potrfSource(8), Scalar);
  ASSERT_TRUE(C);
  EXPECT_NE(C->Key, A->Key);
  EXPECT_EQ(S.stats().Generations, 3);
}

TEST(ServiceCache, LruEvictionBoundsMemoryTier) {
  ServiceConfig C;
  C.MemCapacity = 2;
  C.UseCompiler = false; // eviction logic is compiler-independent
  KernelService S(C);
  GenOptions O;
  O.Isa = &scalarIsa();

  O.FuncName = "p6";
  ASSERT_TRUE(S.get(la::potrfSource(6), O));
  O.FuncName = "p8";
  ASSERT_TRUE(S.get(la::potrfSource(8), O));
  O.FuncName = "p10";
  ASSERT_TRUE(S.get(la::potrfSource(10), O));

  EXPECT_EQ(S.cachedKernels(), 2u);
  EXPECT_EQ(S.stats().Evictions, 1);
  EXPECT_EQ(S.stats().Generations, 3);

  // p6 was least recently used and must have been evicted: a fresh get
  // re-generates it.
  O.FuncName = "p6";
  ASSERT_TRUE(S.get(la::potrfSource(6), O));
  EXPECT_EQ(S.stats().Generations, 4);

  // p10 survived: served from memory.
  O.FuncName = "p10";
  ASSERT_TRUE(S.get(la::potrfSource(10), O));
  EXPECT_EQ(S.stats().Generations, 4);
  EXPECT_EQ(S.stats().MemHits, 1);
}

TEST(ServiceCache, DiskTierServesFreshServiceInstance) {
  TempDir Dir;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_disk");

  ArtifactPtr FirstArtifact;
  {
    ServiceConfig C;
    C.CacheDir = Dir.Path;
    KernelService S1(C);
    GetResult R = S1.get(Src, O);
    ASSERT_TRUE(R) << R.Error;
    FirstArtifact = R.Kernel;
    EXPECT_EQ(S1.stats().Generations, 1);
    EXPECT_TRUE(std::filesystem::exists(shardedPath(Dir.Path, R->Key,
                                                    ".meta")));
    EXPECT_TRUE(std::filesystem::exists(shardedPath(Dir.Path, R->Key,
                                                    ".c")));
  }

  // A second service instance pointed at the same directory serves the
  // kernel without generating or compiling anything.
  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().DiskHits, 1);
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_EQ(S2.stats().Compilations, 0);
  EXPECT_EQ(R2->Key, FirstArtifact->Key);
  EXPECT_EQ(R2->CSource, FirstArtifact->CSource);
  EXPECT_EQ(R2->Choice, FirstArtifact->Choice);
  EXPECT_EQ(R2->StaticCost, FirstArtifact->StaticCost);

  if (!runtime::haveSystemCompiler())
    return;
  // The reloaded kernel is callable and agrees with the original.
  ASSERT_TRUE(FirstArtifact->isCallable());
  ASSERT_TRUE(R2->isCallable());
  const int N = 8;
  Rng Rand(3);
  std::vector<double> A = spd(N, Rand);
  std::vector<double> X1(N * N, 0.0), X2(N * N, 0.0), ACopy = A;
  double *Bufs1[2] = {A.data(), X1.data()};
  FirstArtifact->call(Bufs1);
  double *Bufs2[2] = {ACopy.data(), X2.data()};
  R2->call(Bufs2);
  EXPECT_LT(maxAbsDiff(X1, X2), 1e-14);
  double Nonzero = 0.0;
  for (double V : X1)
    Nonzero += std::fabs(V);
  EXPECT_GT(Nonzero, 0.0);
}

TEST(ServiceCache, DiskEntryWithoutSoIsRecompiledNotRegenerated) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  TempDir Dir;
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_resurrect");
  std::string Key;
  {
    ServiceConfig C;
    C.CacheDir = Dir.Path;
    KernelService S1(C);
    GetResult R = S1.get(Src, O);
    ASSERT_TRUE(R) << R.Error;
    Key = R->Key;
  }
  // Simulate a cache rsync'd without binaries (or a stale .so wiped by an
  // operator): source + meta survive, the object does not.
  std::filesystem::remove(shardedPath(Dir.Path, Key, ".so"));

  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().Generations, 0); // no re-generation...
  EXPECT_EQ(S2.stats().Compilations, 1); // ...just a recompile
  EXPECT_TRUE(R2->isCallable());
  EXPECT_TRUE(std::filesystem::exists(shardedPath(Dir.Path, Key, ".so")));
}

TEST(ServiceCache, FlatPreShardEntriesStillServe) {
  TempDir Dir;
  std::string Src = la::potrfSource(8);
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "potrf_flat";
  std::string Key;
  {
    ServiceConfig C;
    C.CacheDir = Dir.Path;
    C.UseCompiler = false; // layout logic is compiler-independent
    KernelService S1(C);
    GetResult R = S1.get(Src, O);
    ASSERT_TRUE(R) << R.Error;
    Key = R->Key;
  }
  // Rewrite the entry in the pre-shard flat layout (what a cache directory
  // written before sharding looks like).
  ASSERT_TRUE(std::filesystem::exists(shardedPath(Dir.Path, Key, ".meta")));
  for (const char *Ext : {".meta", ".c"})
    std::filesystem::rename(shardedPath(Dir.Path, Key, Ext),
                            Dir.Path + "/" + Key + Ext);
  std::filesystem::remove_all(Dir.Path + "/" + Key.substr(0, 2));

  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  C2.UseCompiler = false;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().DiskHits, 1);
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_EQ(R2->Key, Key);
  EXPECT_FALSE(R2->CSource.empty());
}

// Unit-level GC: fabricated entries with controlled mtimes are evicted
// oldest-first until the tier fits the budget; the protected key survives
// even under a budget smaller than one entry.
TEST(ServiceCache, DiskBudgetEvictsOldestEntriesFirst) {
  TempDir Dir;
  KernelCache Cache(4, Dir.Path);
  auto MakeEntry = [&](const std::string &Key, int AgeSeconds) {
    KernelArtifact A;
    A.Key = Key;
    A.FuncName = "f";
    A.IsaName = "avx";
    A.NumParams = 1;
    A.CSource = std::string(1024, 'x');
    std::string Err;
    ASSERT_TRUE(Cache.storeToDisk(A, Err)) << Err;
    // Pin mtimes explicitly: sub-second store times are not ordered.
    for (const char *Ext : {".c", ".meta"}) {
      std::string P = shardedPath(Dir.Path, Key, Ext);
      std::filesystem::last_write_time(
          P, std::filesystem::file_time_type::clock::now() -
                 std::chrono::seconds(AgeSeconds));
    }
  };
  MakeEntry("00aaaaaaaaaaaaaa", 300); // oldest
  MakeEntry("11bbbbbbbbbbbbbb", 200);
  MakeEntry("22cccccccccccccc", 100); // newest
  ASSERT_TRUE(Cache.onDisk("00aaaaaaaaaaaaaa"));

  // Entries are ~1 KiB of source plus a small meta: a 2.5 KiB budget keeps
  // two of them.
  size_t Evicted =
      Cache.enforceDiskBudget(2560, /*KeepKey=*/"22cccccccccccccc");
  EXPECT_EQ(Evicted, 1u);
  EXPECT_FALSE(Cache.onDisk("00aaaaaaaaaaaaaa")) << "oldest must go first";
  EXPECT_TRUE(Cache.onDisk("11bbbbbbbbbbbbbb"));
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));

  // A budget below a single entry still never evicts the protected key.
  Evicted = Cache.enforceDiskBudget(1, "22cccccccccccccc");
  EXPECT_EQ(Evicted, 1u);
  EXPECT_FALSE(Cache.onDisk("11bbbbbbbbbbbbbb"));
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));

  // Under budget: no-op.
  EXPECT_EQ(Cache.enforceDiskBudget(1 << 20, "22cccccccccccccc"), 0u);
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));
}

// Incremental accounting: the tier is scanned exactly once -- the first
// budget enforcement -- and every later store/evict updates the running
// byte total in place, so GC on a warm cache touches only the entry being
// stored and the files it evicts (the ROADMAP's O(evicted)-per-store
// item), while eviction order and the KeepKey guarantee are unchanged.
TEST(ServiceCache, DiskBudgetAccountingIsIncremental) {
  TempDir Dir;
  KernelCache Cache(4, Dir.Path);
  auto MakeEntry = [&](const std::string &Key) {
    KernelArtifact A;
    A.Key = Key;
    A.FuncName = "f";
    A.IsaName = "avx";
    A.NumParams = 1;
    A.CSource = std::string(1024, 'x');
    std::string Err;
    ASSERT_TRUE(Cache.storeToDisk(A, Err)) << Err;
  };

  MakeEntry("00aaaaaaaaaaaaaa");
  EXPECT_EQ(Cache.diskScans(), 0u) << "no budget enforced yet";

  // First enforcement: the one and only full scan. Budget of 1 byte, but
  // the just-stored key is protected -- nothing else exists to evict.
  EXPECT_EQ(Cache.enforceDiskBudget(1, "00aaaaaaaaaaaaaa"), 0u);
  EXPECT_EQ(Cache.diskScans(), 1u);
  EXPECT_TRUE(Cache.onDisk("00aaaaaaaaaaaaaa"));

  // Stores on the warm cache: each enforcement evicts the older entry
  // without ever rescanning the tier.
  MakeEntry("11bbbbbbbbbbbbbb");
  EXPECT_EQ(Cache.enforceDiskBudget(1, "11bbbbbbbbbbbbbb"), 1u);
  EXPECT_EQ(Cache.diskScans(), 1u) << "a store must not rescan the tier";
  EXPECT_FALSE(Cache.onDisk("00aaaaaaaaaaaaaa"));
  EXPECT_TRUE(Cache.onDisk("11bbbbbbbbbbbbbb"));

  MakeEntry("22cccccccccccccc");
  EXPECT_EQ(Cache.enforceDiskBudget(1, "22cccccccccccccc"), 1u);
  EXPECT_EQ(Cache.diskScans(), 1u);
  EXPECT_FALSE(Cache.onDisk("11bbbbbbbbbbbbbb"));
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));

  // Under budget: no-op, and still no rescan. A re-store of an existing
  // key replaces its accounting instead of double-counting.
  MakeEntry("22cccccccccccccc");
  EXPECT_EQ(Cache.enforceDiskBudget(1 << 20, "22cccccccccccccc"), 0u);
  EXPECT_EQ(Cache.diskScans(), 1u);
  EXPECT_TRUE(Cache.onDisk("22cccccccccccccc"));
}

// Config-level GC: a service with cache-max-bytes evicts older entries as
// new ones are stored, never the entry a store just produced, and the
// memory tier keeps serving what it already loaded.
TEST(ServiceCache, CacheMaxBytesBoundsDiskTierAcrossStores) {
  TempDir Dir;
  ServiceConfig C;
  C.CacheDir = Dir.Path;
  C.UseCompiler = false; // GC logic is compiler-independent
  C.CacheMaxBytes = 1;   // every store triggers eviction of everything else
  KernelService S(C);

  GetResult A = S.get(la::potrfSource(6), hostOpts("gc6"));
  ASSERT_TRUE(A) << A.Error;
  EXPECT_TRUE(std::filesystem::exists(
      shardedPath(Dir.Path, A->Key, ".meta")))
      << "the triggering store itself must survive GC";

  GetResult B = S.get(la::potrfSource(8), hostOpts("gc8"));
  ASSERT_TRUE(B) << B.Error;
  EXPECT_TRUE(
      std::filesystem::exists(shardedPath(Dir.Path, B->Key, ".meta")));
  EXPECT_FALSE(std::filesystem::exists(
      shardedPath(Dir.Path, A->Key, ".meta")))
      << "the older entry must have been evicted";

  // The evicted key still serves from the memory tier...
  GetResult A2 = S.get(la::potrfSource(6), hostOpts("gc6"));
  ASSERT_TRUE(A2);
  EXPECT_EQ(S.stats().MemHits, 1);
  // ...and a cold service regenerates it (the disk entry is gone).
  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  C2.UseCompiler = false;
  KernelService S2(C2);
  GetResult A3 = S2.get(la::potrfSource(6), hostOpts("gc6"));
  ASSERT_TRUE(A3);
  EXPECT_EQ(S2.stats().DiskHits, 0);
  EXPECT_EQ(S2.stats().Generations, 1);
  EXPECT_EQ(A3->Key, A->Key);
}

TEST(ServicePrefetch, WarmedKeyIsServedWithoutGenerating) {
  ServiceConfig C;
  C.UseCompiler = false;
  KernelService S(C);
  std::string Src = la::potrfSource(8);
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "potrf_warm";

  S.prefetch(Src, O);
  S.drainPrefetches();
  EXPECT_EQ(S.stats().Prefetches, 1);
  EXPECT_EQ(S.stats().Generations, 1);
  EXPECT_EQ(S.pendingPrefetches(), 0u);

  // The foreground request finds the warmed artifact in the memory tier.
  GetResult R = S.get(Src, O);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(S.stats().Generations, 1);
  EXPECT_EQ(S.stats().MemHits, 1);

  // Re-warming a cached key is a cheap no-op.
  S.prefetch(Src, O);
  S.drainPrefetches();
  EXPECT_EQ(S.stats().Generations, 1);
}

TEST(ServicePrefetch, ManyWarmsAcrossWorkersAllLand) {
  ServiceConfig C;
  C.UseCompiler = false;
  C.PrefetchWorkers = 4;
  KernelService S(C);
  GenOptions O;
  O.Isa = &scalarIsa();
  const int Sizes[] = {4, 6, 8, 10, 12};
  for (int N : Sizes) {
    O.FuncName = "pw" + std::to_string(N);
    S.prefetch(la::potrfSource(N), O);
  }
  S.drainPrefetches();
  EXPECT_EQ(S.stats().Prefetches, 5);
  EXPECT_EQ(S.stats().Generations, 5);
  EXPECT_EQ(S.cachedKernels(), 5u);
}

TEST(ServiceFlight, ConcurrentMissesTriggerOneGeneration) {
  ServiceConfig C;
  C.UseCompiler = false; // keep the hammer portable and deterministic
  KernelService S(C);
  std::string Src = la::kalmanSource(8, 8); // multi-HLAC: generation is slow
  GenOptions O;
  O.Isa = &scalarIsa();
  O.FuncName = "kf_flight";

  const int NumThreads = 8;
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<ArtifactPtr> Results(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      ++Ready;
      while (!Go.load())
        std::this_thread::yield();
      GetResult R = S.get(Src, O);
      Results[T] = R.Kernel;
    });
  while (Ready.load() < NumThreads)
    std::this_thread::yield();
  Go = true;
  for (auto &T : Threads)
    T.join();

  ServiceStats St = S.stats();
  EXPECT_EQ(St.Generations, 1) << "single-flight must dedup generation";
  EXPECT_EQ(St.Misses, 1);
  EXPECT_EQ(St.MemHits + St.FlightJoins, NumThreads - 1);
  for (int T = 0; T < NumThreads; ++T) {
    ASSERT_TRUE(Results[T] != nullptr);
    EXPECT_EQ(Results[T].get(), Results[0].get())
        << "all requesters share one artifact";
  }
}

TEST(ServiceTuner, FallsBackToStaticCostWithoutCompiler) {
  ServiceConfig C;
  C.Measure = true;
  C.UseCompiler = false; // same path haveSystemCompiler()==false takes
  KernelService S(C);
  std::string Src = la::potrfSource(8);
  GenOptions O = hostOpts("potrf_fb");

  GetResult R = S.get(Src, O);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_FALSE(R->Measured);
  EXPECT_EQ(R->MeasuredCycles, 0.0);
  EXPECT_FALSE(R->isCallable());
  EXPECT_FALSE(R->CSource.empty());
  EXPECT_EQ(S.stats().TunerRuns, 0);
  EXPECT_EQ(S.stats().Compilations, 0);

  // The fallback ranking matches the cost-model policy of Generator::best.
  std::string Err;
  auto P = la::compileLa(Src, Err);
  ASSERT_TRUE(P) << Err;
  Generator G(std::move(*P), O);
  ASSERT_TRUE(G.isValid());
  auto Best = G.best(C.MaxVariants);
  ASSERT_TRUE(Best);
  EXPECT_EQ(R->StaticCost, Best->Cost);
  EXPECT_EQ(R->Choice, Best->Choice);
}

TEST(ServiceTuner, MeasuresAndPersistsWinningChoice) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  if (!runtime::haveCycleCounter())
    GTEST_SKIP() << "no cycle counter on this target";
  TempDir Dir;
  ServiceConfig C;
  C.Measure = true;
  C.CacheDir = Dir.Path;
  C.MeasureRepeats = 5; // tuning only needs a stable ranking
  KernelService S(C);
  std::string Src = la::potrfSource(8); // 3 algorithmic variants
  GenOptions O = hostOpts("potrf_tuned");

  GetResult R = S.get(Src, O);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_TRUE(R->Measured);
  EXPECT_GT(R->MeasuredCycles, 0.0);
  EXPECT_EQ(S.stats().TunerRuns, 1);

  // The winning choice vector and tuning provenance survive in the disk
  // tier and come back in a fresh service.
  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  KernelService S2(C2);
  GetResult R2 = S2.get(Src, O);
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().DiskHits, 1);
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_TRUE(R2->Measured);
  EXPECT_EQ(R2->Choice, R->Choice);
  EXPECT_NEAR(R2->MeasuredCycles, R->MeasuredCycles, 1e-6);
}

//===----------------------------------------------------------------------===//
// One compile per cold request: each tuning stage compiles its candidates
// as one unit, and the unit that decides the artifact is what ships.
//===----------------------------------------------------------------------===//

/// C compiler runs a request started, as the service counts them
/// (stats().Compilations) and as the JIT counts them (every compile in the
/// process).
struct CompileDelta {
  long Service = 0;
  int64_t Jit = 0;
};

CompileDelta countCompiles(KernelService &S, const std::function<void()> &Fn) {
  obs::Counter &Jit = obs::Registry::global().counter("runtime.jit-compiles");
  CompileDelta D{-S.stats().Compilations, -Jit.value()};
  Fn();
  D.Service += S.stats().Compilations;
  D.Jit += Jit.value();
  return D;
}

TEST(ServiceCompiles, OneCompilePerTuningStage) {
  if (!runtime::haveSystemCompiler() || !runtime::haveCycleCounter())
    GTEST_SKIP() << "needs a system C compiler and a cycle counter";
  struct Kind {
    const char *Func;
    bool Batched, Measure;
    int Compiles;
  };
  // single 1; batched-auto 1 (loop/fused in one unit); measured 1 (the
  // top-K variants in one unit); measured+batched 2 (the variants unit,
  // then the winner's strategies unit, which ships).
  for (Kind K : {Kind{"cc_single", false, false, 1},
                 Kind{"cc_batched", true, false, 1},
                 Kind{"cc_measured", false, true, 1},
                 Kind{"cc_measured_b", true, true, 2}}) {
    SCOPED_TRACE(K.Func);
    TempDir Dir;
    ServiceConfig C;
    C.CacheDir = Dir.Path;
    C.MeasureRepeats = 3;
    KernelService S(C);
    RequestOptions Req;
    Req.Batched = K.Batched;
    Req.Measure = K.Measure;
    GetResult R;
    CompileDelta D = countCompiles(S, [&] {
      R = S.get(la::potrfSource(8), hostOpts(K.Func), Req);
    });
    ASSERT_TRUE(R) << R.Error;
    EXPECT_TRUE(R->isCallable());
    EXPECT_EQ(D.Service, K.Compiles);
    EXPECT_EQ(D.Jit, K.Compiles);
    // The shipped object is the one at the disk-tier path.
    EXPECT_EQ(R->Kernel->soPath(), shardedPath(Dir.Path, R->Key, ".so"));
  }
}

TEST(ServiceCompiles, BatchedAutoShipsTheObjectItTimed) {
  if (!runtime::haveSystemCompiler() || !runtime::haveCycleCounter())
    GTEST_SKIP() << "needs a system C compiler and a cycle counter";
  if (hostIsa().Nu < 2)
    GTEST_SKIP() << "scalar host: only the loop strategy, nothing to time";
  TempDir Dir;
  ServiceConfig C;
  C.CacheDir = Dir.Path;
  C.MeasureRepeats = 3;
  KernelService S(C);
  const std::string Name = "cc_timed";
  GetResult R;
  CompileDelta D = countCompiles(S, [&] {
    R = S.get(la::potrfSource(8), hostOpts(Name), /*Batched=*/true);
  });
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(S.stats().TunerRuns, 1) << "the strategy choice was measured";
  EXPECT_EQ(D.Service, 1);
  EXPECT_EQ(D.Jit, 1) << "the winner was not recompiled";
  const std::string So = shardedPath(Dir.Path, R->Key, ".so");
  EXPECT_EQ(R->Kernel->soPath(), So);
  // The served entry is the winner's prefix inside the strategies unit,
  // and the persisted object still holds every timed candidate.
  EXPECT_EQ(R->FuncName, batchCandidateName(Name, R->Strategy));
  for (BatchStrategy St :
       {BatchStrategy::ScalarLoop, BatchStrategy::InstanceParallelFused}) {
    std::string Err;
    EXPECT_TRUE(runtime::JitKernel::load(So, batchCandidateName(Name, St),
                                         R->NumParams, Err,
                                         /*WithBatchEntry=*/true))
        << Err;
  }

  // A disk entry that lost its object recompiles the persisted unit once,
  // and the winner's entry resolves in the new object.
  std::filesystem::remove(So);
  ServiceConfig C2;
  C2.CacheDir = Dir.Path;
  KernelService S2(C2);
  GetResult R2;
  CompileDelta D2 = countCompiles(S2, [&] {
    R2 = S2.get(la::potrfSource(8), hostOpts(Name), /*Batched=*/true);
  });
  ASSERT_TRUE(R2) << R2.Error;
  EXPECT_EQ(S2.stats().Generations, 0);
  EXPECT_EQ(D2.Service, 1);
  EXPECT_EQ(D2.Jit, 1);
  EXPECT_EQ(R2->FuncName, R->FuncName);
  EXPECT_TRUE(R2->Kernel->hasBatchEntry());
}

TEST(ServiceBatch, DispatchMatchesIndividualCalls) {
  if (!runtime::haveSystemCompiler())
    GTEST_SKIP() << "no system C compiler";
  KernelService S;
  const int N = 8, Count = 4;
  std::string Src = la::potrfSource(N);
  GenOptions O = hostOpts("potrf_srv");

  // Reference: the plain (non-batched) artifact, one call per instance.
  GetResult Single = S.get(Src, O);
  ASSERT_TRUE(Single) << Single.Error;
  ASSERT_TRUE(Single->isCallable());
  ASSERT_EQ(Single->NumParams, 2); // A (in), X (out)

  std::vector<double> ARef(Count * N * N), XRef(Count * N * N, 0.0);
  // Batch buffers are cache-line aligned per the `_batch` ABI contract.
  AlignedBuffer ABatch(Count * N * N), XBatch(Count * N * N);
  for (int B = 0; B < Count; ++B) {
    Rng Rand(500 + B);
    auto A = spd(N, Rand);
    std::copy(A.begin(), A.end(), ARef.begin() + B * N * N);
  }
  std::copy(ARef.begin(), ARef.end(), ABatch.begin());
  for (int B = 0; B < Count; ++B) {
    double *Bufs[2] = {ARef.data() + B * N * N, XRef.data() + B * N * N};
    Single->call(Bufs);
  }

  // Batched: one dispatch over contiguous instance arrays.
  double *Bufs[2] = {ABatch.data(), XBatch.data()};
  GetResult Batched = S.dispatchBatch(Src, O, Count, Bufs);
  ASSERT_TRUE(Batched) << Batched.Error;
  EXPECT_TRUE(Batched->Batched);
  EXPECT_NE(Batched->Key, Single->Key)
      << "batched kernels get their own cache entry";
  EXPECT_LT(maxAbsDiff(XBatch, XRef), 1e-12);

  // Second dispatch reuses the cached batched kernel.
  long Gens = S.stats().Generations;
  std::fill(XBatch.begin(), XBatch.end(), 0.0);
  std::copy(ARef.begin(), ARef.end(), ABatch.begin());
  GetResult Again = S.dispatchBatch(Src, O, Count, Bufs);
  ASSERT_TRUE(Again) << Again.Error;
  EXPECT_EQ(S.stats().Generations, Gens);
  EXPECT_LT(maxAbsDiff(XBatch, XRef), 1e-12);
}

TEST(ServiceKey, FingerprintIsStableAndContentSensitive) {
  // Equal sources (modulo whitespace) hash equal; different content or
  // options hash differently.
  std::string A = "Mat A(8, 8) <In, UpSym, PD>;\n"
                  "Mat X(8, 8) <Out, UpTri, NS>;\n"
                  "X' * X = A;\n";
  std::string B = "Mat A(8, 8)   <In, UpSym, PD>;\n\n"
                  "Mat X(8, 8) <Out, UpTri, NS>;\n"
                  "X' * X   =   A;\n";
  std::string Err;
  auto PA = la::compileLa(A, Err);
  auto PB = la::compileLa(B, Err);
  ASSERT_TRUE(PA && PB);
  EXPECT_EQ(programFingerprint(*PA), programFingerprint(*PB));

  auto PC = la::compileLa(la::potrfSource(12), Err);
  ASSERT_TRUE(PC);
  EXPECT_NE(programFingerprint(*PA), programFingerprint(*PC));

  GenOptions O1, O2;
  O2.Isa = &scalarIsa();
  EXPECT_NE(optionsFingerprint(O1), optionsFingerprint(O2));
  GenOptions O3;
  EXPECT_EQ(optionsFingerprint(O1), optionsFingerprint(O3));

  EXPECT_EQ(hexDigest(0), "0000000000000000");
  EXPECT_EQ(hexDigest(0xdeadbeefULL), "00000000deadbeef");
}

} // namespace
