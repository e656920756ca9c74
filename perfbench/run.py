#!/usr/bin/env python3
"""Build and run the libaid benchmark.

    python3 perfbench/run.py --workload amp_kernels|fine_loops|served_jobs \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds libaid (with the repository's
own CMakeLists.txt) and the benchmark binary into .bench_build/perfbench,
then runs the binary, whose last line of output is the result object. The
traced run writes its spans to .bench_build/out. Build output goes to
stderr; the exit code is the binary's (see perfbench/main.cc).
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def source_digest():
    """sha256 over the measured sources, the provenance a checkout without
    git history still has."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in HERE.iterdir() if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["amp_kernels", "fine_loops", "served_jobs"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        print("perfbench: no libaid sources in " + str(ROOT), file=sys.stderr)
        return 1
    try:
        if not build():
            print("perfbench: build failed", file=sys.stderr)
            return 1
        OUT.mkdir(parents=True, exist_ok=True)
        # Relative paths keep the ingress socket path short.
        cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--out-dir", os.path.relpath(OUT, ROOT),
               "--source-digest", source_digest()]
        sys.stdout.flush()
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired as e:
        print("perfbench: timed out: " + " ".join(e.cmd), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
