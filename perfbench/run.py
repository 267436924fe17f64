#!/usr/bin/env python3
"""The SLinGen benchmark: builds the library, sld and the benchmark program
from this checkout's sources, runs one workload and prints every metric.

    python3 perfbench/run.py --workload cold_miss --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Workloads: cold_miss, kernel_single, batch_stream (see BENCHMARK.json).
The last line of standard output is the JSON result ({"correct",
"attempted", "failed", "metrics"}). --trace 1 reports the per-layer
metrics instead of the end-to-end ones and writes Chrome trace JSON.
Every run also writes <build>/results/<workload>-seed<N>-trace<T>.json
with provenance (source digest, git sha when available, compiler version,
requested and host ISA, nproc, load average before and after).

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build); all
scratch files stay under it.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources slbench and sld are built from: provenance
    without git, and the name of the warm kernel cache."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "include", "src", "tools", "perfbench",
                "bench/BenchCommon.h", "tests/TestData.h"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() if out.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        return ""


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def build(bdir):
    """Configures once, then brings slbench and sld up to date."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", bdir, "--target", "slbench",
                        "sld", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        fail("--workload is required")

    for need in ("CMakeLists.txt", "src", "include", "tools",
                 "bench/BenchCommon.h", "tests/TestData.h"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no SLinGen sources next to perfbench/ (missing %s)" % need)
    if shutil.which("cmake") is None:
        fail("cmake not found")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(ROOT, target)
    bdir = os.path.join(base, "perfbench")
    build(bdir)

    # Paths handed to slbench are relative to the checkout, which keeps
    # the daemon's socket path short.
    rel = lambda p: os.path.relpath(p, ROOT)
    work = os.path.join(bdir, "work")
    results = os.path.join(bdir, "results")
    tmp = os.path.join(work, "tmp")
    for d in (work, results, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    env.pop("SLINGEN_CC", None)
    # The warm workloads' kernel cache persists between runs, so it is
    # named after the sources: a cache compiled by other code (another
    # commit built in the same directory) is never served.
    digest = source_digest()
    cmd = [os.path.join(bdir, "slbench"), "--work", rel(work), "--cache",
           rel(os.path.join(work, "cache-" + digest)), "--results",
           rel(results), "--sld", os.path.join(bdir, "slingen", "sld"),
           "--cc-wrapper", os.path.join(HERE, "cc_count.sh")]
    if args.self_check:
        sys.exit(subprocess.run(cmd + ["--self-check"], cwd=ROOT,
                                env=env).returncode)

    cmd += ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    load_before = loadavg()
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        fail("slbench printed no result (exit %d)" % r.returncode, 5)
    for line in lines[:-1]:
        print(line)

    prov = {
        "source_digest": digest,
        "git_sha": command_output(["git", "rev-parse", "HEAD"]) or "unknown",
        "cc_version": command_output(["cc", "--version"]).split("\n")[0],
        "requested_isa": "avx",
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
    }
    stem = os.path.join(results, "%s-seed%d-trace%d" %
                        (args.workload, args.seed, args.trace))
    details = {}
    if os.path.exists(stem + ".details.json"):
        with open(stem + ".details.json") as f:
            details = json.load(f)
        os.remove(stem + ".details.json")
    prov["host_isa"] = details.get("host_isa", "unknown")
    details["provenance"] = prov
    with open(stem + ".json", "w") as f:
        json.dump(details, f, indent=1)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
