#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 \\
        --seconds 30 --trace 0

The script configures and builds perfbench/CMakeLists.txt (which pulls
in the repository's own library target) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the benchmark binary with
at most nproc worker threads. Build output goes to stderr; the
benchmark's stdout is passed through, so its last line is the result
JSON. Spans of a traced run land in <build dir>/perfbench/out.

Exits non-zero without printing a result when the simulator sources
are missing, the build fails or the benchmark fails.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_grid", "gc_mixed", "fast_sweep")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fingerprint():
    """CPU model x logical cores; SPK_PERF_FINGERPRINT overrides it
    (the same rule as scripts/perf_gate.py)."""
    override = os.environ.get("SPK_PERF_FINGERPRINT")
    if override:
        return override
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if not model:
        model = platform.processor() or platform.machine() or "unknown"
    return f"{model} x{os.cpu_count()}"


def commit():
    """The git commit when the checkout is a git work tree, else a
    digest of src/."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def workers():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no simulator sources (src/) next to "
                 "perfbench/")
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                 "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    make = ["cmake", "--build", build_dir, "--target", "spk_perfbench",
            "-j", str(workers())]
    for cmd in (configure, make):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "spk_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--threads", str(workers()),
           "--out", out_dir, "--fingerprint", fingerprint(),
           "--commit", commit()]
    try:
        # stdout passes straight through; the last line is the result.
        res = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded "
                 f"{RUN_TIMEOUT_S} s")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
