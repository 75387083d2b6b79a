#!/usr/bin/env python3
"""Builds and runs the ArchIS end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Build output and the human-readable summary go to stderr.

With --trace 1 the span file is validated with trace_check (a malformed
file fails the run), and the work counters that must repeat exactly are
compared with those of an earlier traced run of the same workload, seed and
sources (src/ and perfbench/) in this checkout; the number that differ is
reported as repeat.mismatches.
Any failure to build or run exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("table3", "audit_compressed", "mixed_durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary dir."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(build_dir, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "trace_check", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return build_dir


def source_hash(root):
    """Hash of every file the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(p for p in (root / top).rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_exact(root, build_dir, workload, seed, exact):
    """Stores or compares the exact-repeat counters; returns #mismatches.

    The reference is keyed by the source hash, so only runs of the same
    code are ever compared."""
    repeat_dir = build_dir / "repeat"
    repeat_dir.mkdir(parents=True, exist_ok=True)
    path = repeat_dir / f"{workload}-{seed}-{source_hash(root)}.json"
    if not path.exists():
        path.write_text(json.dumps(exact, sort_keys=True))
        return 0
    before = json.loads(path.read_text())
    mismatches = 0
    for name in sorted(set(before) | set(exact)):
        if before.get(name) != exact.get(name):
            mismatches += 1
            log(f"REPEAT MISMATCH {workload} seed {seed}: {name} was "
                f"{before.get(name)}, now {exact.get(name)}")
    return mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    try:
        build(root, build_dir)
    except (RuntimeError, OSError) as e:
        log(f"cannot build the benchmark: {e}")
        return 1

    workdir = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    trace_out = workdir / "trace.json"
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            log(f"perfbench exited with {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if not isinstance(result, dict):
            log("perfbench printed no result")
            return 1
        metrics = result["metrics"]
        if args.trace:
            check = subprocess.run([str(build_dir / "trace_check"),
                                    str(trace_out)], stdout=sys.stderr)
            if check.returncode != 0:
                log("span file failed trace_check")
                return 1
            metrics["repeat.mismatches"] = {
                "value": compare_exact(root, build_dir, args.workload,
                                       args.seed, result["exact"]),
                "unit": "count"}
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
