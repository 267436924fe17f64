//===- runtime/Jit.cpp ----------------------------------------------------==//
//
// Part of the SLinGen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Jit.h"

#include "isa/ISA.h"
#include "obs/Trace.h"
#include "support/File.h"
#include "support/Format.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace slingen;
using namespace slingen::runtime;

namespace {

std::string uniqueBase() {
  static std::atomic<int> Counter{0};
  const char *Dir = getenv("TMPDIR");
  return formatf("%s/slingen_%d_%d", Dir ? Dir : "/tmp", getpid(),
                 Counter.fetch_add(1));
}

/// A private temporary directory for one compile's .c and log. The source
/// always gets the same basename inside it (slingen_tu.c): the compiler
/// embeds the input basename in the object's symbol table (STT_FILE), so a
/// per-process name would make byte-identical translation units compile to
/// byte-different shared objects. With a fixed basename, equal TU + equal
/// flags => equal .so bytes across processes and machines sharing a
/// toolchain -- the identity the client facade's local/daemon smoke diffs.
std::string makeCompileDir() {
  const char *Dir = getenv("TMPDIR");
  std::string Tmpl = std::string(Dir ? Dir : "/tmp") + "/slingen_ccXXXXXX";
  if (!mkdtemp(Tmpl.data()))
    return {};
  return Tmpl;
}

const char *compilerPath() {
  const char *Env = getenv("SLINGEN_CC");
  return Env ? Env : "cc";
}

/// Appends the uniform trampolines to \p Out: `<func>_entry(double **)` for
/// single-instance calls and, when requested, `<func>_batch_entry(int,
/// double **)` forwarding to the batched kernel plus -- when the source
/// defines the `_batch_span` sub-range entry -- `<func>_batch_span_entry`
/// for threaded dispatch. The span trampoline is gated on \p WithSpan so
/// cached sources persisted before span emission existed still compile and
/// dlopen (RTLD_NOW would otherwise fail on the undefined symbol).
void appendTrampolines(std::ostream &Out, const std::string &FuncName,
                       int NumParams, bool WithBatchEntry, bool WithSpan) {
  Out << "\nvoid " << FuncName << "_entry(double *const *bufs) {\n  "
      << FuncName << "(";
  for (int I = 0; I < NumParams; ++I)
    Out << (I ? ", " : "") << "bufs[" << I << "]";
  Out << ");\n}\n";
  if (!WithBatchEntry)
    return;
  Out << "void " << FuncName
      << "_batch_entry(int count, double *const *bufs) {\n  " << FuncName
      << "_batch(count";
  for (int I = 0; I < NumParams; ++I)
    Out << ", bufs[" << I << "]";
  Out << ");\n}\n";
  if (!WithSpan)
    return;
  Out << "void " << FuncName
      << "_batch_span_entry(int start, int count, double *const *bufs) {\n  "
      << FuncName << "_batch_span(start, count";
  for (int I = 0; I < NumParams; ++I)
    Out << ", bufs[" << I << "]";
  Out << ");\n}\n";
}

} // namespace

JitKernel::JitKernel(JitKernel &&O) noexcept
    : Handle(O.Handle), Entry(O.Entry), BatchEntry(O.BatchEntry),
      BatchSpanEntry(O.BatchSpanEntry), NumParams(O.NumParams),
      OwnsSo(O.OwnsSo), SoPath(std::move(O.SoPath)) {
  O.Handle = nullptr;
  O.Entry = nullptr;
  O.BatchEntry = nullptr;
  O.BatchSpanEntry = nullptr;
}

JitKernel &JitKernel::operator=(JitKernel &&O) noexcept {
  if (this != &O) {
    this->~JitKernel();
    new (this) JitKernel(std::move(O));
  }
  return *this;
}

JitKernel::~JitKernel() {
  if (Handle)
    dlclose(Handle);
  if (OwnsSo && !SoPath.empty())
    unlink(SoPath.c_str());
}

std::optional<JitKernel> JitKernel::compile(const std::string &CSource,
                                            const std::string &FuncName,
                                            int NumParams, std::string &Err,
                                            const std::string &ExtraFlags) {
  CompileOptions Opts;
  Opts.ExtraFlags = ExtraFlags;
  return compile(CSource, FuncName, NumParams, Opts, Err);
}

std::optional<JitKernel> JitKernel::compile(const std::string &CSource,
                                            const std::string &FuncName,
                                            int NumParams,
                                            const CompileOptions &Opts,
                                            std::string &Err) {
  // Every JIT compile in the process funnels through this overload:
  // service misses, tuner candidates, client-side loads all land in one
  // compile-latency histogram.
  static obs::Histogram &CompileUs =
      obs::Registry::global().histogram("runtime.jit-compile.us");
  static obs::Counter &Compiles =
      obs::Registry::global().counter("runtime.jit-compiles");
  Compiles.add();
  obs::ScopedSpan Span("jit-compile", "runtime", &CompileUs);
  std::string CDir = makeCompileDir();
  if (CDir.empty()) {
    Err = "cannot create compile directory in TMPDIR";
    return std::nullopt;
  }
  std::string CPath = CDir + "/slingen_tu.c", LogPath = CDir + "/cc.log";
  bool KeepSo = !Opts.KeepSoPath.empty();
  // Persistent objects are compiled to a temporary and renamed into place,
  // so concurrent processes sharing a cache directory never dlopen a
  // half-written file.
  std::string FinalSoPath = KeepSo ? Opts.KeepSoPath : uniqueBase() + ".so";
  std::string SoPath = KeepSo ? Opts.KeepSoPath + formatf(".tmp%d", getpid())
                              : FinalSoPath;
  auto RemoveCompileDir = [&] { rmdir(CDir.c_str()); };

  {
    std::ofstream Out(CPath);
    if (!Out) {
      Err = "cannot write " + CPath;
      RemoveCompileDir();
      return std::nullopt;
    }
    Out << CSource;
    std::vector<std::string> Entries = Opts.MoreEntries;
    Entries.insert(Entries.begin(), FuncName);
    for (const std::string &Name : Entries) {
      bool WithSpan =
          Opts.WithBatchEntry &&
          CSource.find(Name + "_batch_span(") != std::string::npos;
      appendTrampolines(Out, Name, NumParams, Opts.WithBatchEntry, WithSpan);
    }
  }

  // Process-local objects target the host (-march=native first, so per-ISA
  // flags appended afterwards can widen the target, e.g. avx512 kernels on
  // an AVX-2 build machine). Persistent objects may be served to other
  // machines from a shared cache directory, so they get only the keyed
  // ISA's instruction sets (-mtune=native schedules for the builder
  // without enabling anything the cache key does not promise).
  std::string Cmd = formatf(
      "%s -O2 %s -fno-math-errno -shared -fPIC -o %s %s -lm %s > %s 2>&1",
      compilerPath(), KeepSo ? "-mtune=native" : "-march=native",
      SoPath.c_str(), CPath.c_str(), Opts.ExtraFlags.c_str(),
      LogPath.c_str());
  int Rc = system(Cmd.c_str());
  if (Rc != 0) {
    int Status = WIFEXITED(Rc) ? WEXITSTATUS(Rc) : Rc;
    Err = formatf("C compiler failed (exit %d): %s", Status, Cmd.c_str());
    std::string Log = readFile(LogPath);
    if (!Log.empty())
      Err += "\n--- compiler output ---\n" + Log;
    // The full diagnostics are already in Err; keep the offending .c only
    // on request so a long-lived service cannot fill TMPDIR with failures.
    if (getenv("SLINGEN_KEEP_TU")) {
      Err += "\n(translation unit kept at " + CPath + ")";
    } else {
      unlink(CPath.c_str());
    }
    unlink(LogPath.c_str());
    unlink(SoPath.c_str());
    RemoveCompileDir(); // no-op while the kept TU still lives inside
    return std::nullopt;
  }
  unlink(CPath.c_str());
  unlink(LogPath.c_str());
  RemoveCompileDir();

  if (KeepSo && rename(SoPath.c_str(), FinalSoPath.c_str()) != 0) {
    Err = "cannot publish " + FinalSoPath;
    unlink(SoPath.c_str());
    return std::nullopt;
  }

  auto K = load(FinalSoPath, FuncName, NumParams, Err, Opts.WithBatchEntry);
  if (!K) {
    unlink(FinalSoPath.c_str());
    return std::nullopt;
  }
  K->OwnsSo = !KeepSo;
  return K;
}

std::optional<JitKernel> JitKernel::loadFromBytes(const std::string &SoBytes,
                                                  const std::string &FuncName,
                                                  int NumParams,
                                                  std::string &Err,
                                                  bool WithBatchEntry) {
  std::string SoPath = uniqueBase() + ".so";
  {
    std::ofstream Out(SoPath, std::ios::binary);
    if (!Out) {
      Err = "cannot write " + SoPath;
      return std::nullopt;
    }
    Out.write(SoBytes.data(),
              static_cast<std::streamsize>(SoBytes.size()));
    Out.close();
    if (!Out) {
      Err = "cannot write " + SoPath;
      unlink(SoPath.c_str());
      return std::nullopt;
    }
  }
  auto K = load(SoPath, FuncName, NumParams, Err, WithBatchEntry);
  if (!K) {
    unlink(SoPath.c_str());
    return std::nullopt;
  }
  K->OwnsSo = true; // the staged temporary dies with the kernel
  return K;
}

std::optional<JitKernel> JitKernel::load(const std::string &SoPath,
                                         const std::string &FuncName,
                                         int NumParams, std::string &Err,
                                         bool WithBatchEntry) {
  JitKernel K;
  K.Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!K.Handle) {
    Err = formatf("dlopen failed: %s", dlerror());
    return std::nullopt;
  }
  K.OwnsSo = false; // until a caller hands over ownership
  K.SoPath = SoPath;
  K.NumParams = NumParams;
  if (!K.resolve(FuncName, WithBatchEntry, Err))
    return std::nullopt;
  return K;
}

bool JitKernel::bind(const std::string &FuncName, std::string &Err) {
  EntryFn OldEntry = Entry;
  BatchEntryFn OldBatch = BatchEntry;
  BatchSpanEntryFn OldSpan = BatchSpanEntry;
  if (resolve(FuncName, OldBatch != nullptr, Err))
    return true;
  Entry = OldEntry;
  BatchEntry = OldBatch;
  BatchSpanEntry = OldSpan;
  return false;
}

bool JitKernel::resolve(const std::string &FuncName, bool WithBatchEntry,
                        std::string &Err) {
  Entry = reinterpret_cast<EntryFn>(
      dlsym(Handle, (FuncName + "_entry").c_str()));
  if (!Entry) {
    Err = "entry symbol " + FuncName + "_entry not found in " + SoPath;
    return false;
  }
  if (WithBatchEntry) {
    BatchEntry = reinterpret_cast<BatchEntryFn>(
        dlsym(Handle, (FuncName + "_batch_entry").c_str()));
    if (!BatchEntry) {
      Err = "batch entry symbol " + FuncName + "_batch_entry not found in " +
            SoPath;
      return false;
    }
    // Optional: objects compiled before the span entry existed simply
    // cannot be dispatched threaded (callers check hasBatchSpan()).
    BatchSpanEntry = reinterpret_cast<BatchSpanEntryFn>(
        dlsym(Handle, (FuncName + "_batch_span_entry").c_str()));
  }
  return true;
}

std::string runtime::isaCompileFlags(const VectorISA &Isa) {
  if (std::strcmp(Isa.Name, "sse2") == 0)
    return "-msse2";
  if (std::strcmp(Isa.Name, "avx") == 0)
    return Isa.NeedAvx2 ? "-mavx -mavx2 -mfma" : "-mavx -mfma";
  // The emitter only generates AVX-512F intrinsics, and hostIsa() gates
  // execution on avx512f alone -- do not request DQ/VL here or kernels
  // could carry instructions the runnability checks never verified.
  if (std::strcmp(Isa.Name, "avx512") == 0)
    return "-mavx512f -mfma";
  return ""; // scalar: no vector extensions required
}

bool runtime::haveSystemCompiler() {
  static int Cached = -1;
  if (Cached < 0) {
    std::string Cmd =
        formatf("%s --version > /dev/null 2>&1", compilerPath());
    Cached = system(Cmd.c_str()) == 0 ? 1 : 0;
  }
  return Cached == 1;
}
