#!/usr/bin/env python3
"""Runs one workload of the gnn4tdl benchmark.

    python3 perfbench/run.py --workload serve-large --seed 1 --seconds 30 --trace 0

Builds the library and the benchmark runner (gnn4tdl_perfbench) from source
into .bench_build/ (incrementally after the first run), checks the runner's
own arithmetic with its self-test, builds the serve workload's fixture model
when the build is newer than it, and runs the workload. The last output line
is the result object {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 only when every correctness and accounting check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".bench_build"
BUILD_DIR = WORK_DIR / "perfbench"
FIXTURE_DIR = WORK_DIR / "fixtures"
RUNS_DIR = WORK_DIR / "runs"
SERVE_WORKLOADS = ("serve-large", "serve-small")
WORKLOADS = SERVE_WORKLOADS + ("train",)

BUILD_TIMEOUT_S = 850
FIXTURE_TIMEOUT_S = 300


def run_timeout_s(seconds):
    """A run measures for about `seconds`; a traced run adds fits and a
    replay whose length also grows with it."""
    return 120 + 2 * seconds


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout) and returns
    (returncode, stdout). Build and fixture chatter goes to stderr so the
    result stays the last line of stdout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{Path(cmd[0]).name} timed out after {timeout} s", 3)
    return proc.returncode, out or ""


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
            BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed", 1)
    jobs = str(min(4, os.cpu_count() or 1))
    code, _ = run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                  BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed", 1)
    return BUILD_DIR / "gnn4tdl_perfbench"


def ensure_fixture(binary, workload):
    """A fixture is rebuilt whenever the runner binary is newer than it, so
    it always comes from the code under test."""
    ref = FIXTURE_DIR / f"{workload}.ref"
    artifact = FIXTURE_DIR / f"{workload}.gnn4tdl"
    built = binary.stat().st_mtime
    if (ref.is_file() and artifact.is_file() and ref.stat().st_mtime >= built
            and artifact.stat().st_mtime >= built):
        return
    code, _ = run([str(binary), "--build-fixture", workload,
                   "--fixture-dir", str(FIXTURE_DIR)], FIXTURE_TIMEOUT_S)
    if code != 0:
        fail(f"building the {workload} fixture failed", 1)


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_sha256():
    """Identifies the library source even where there is no git metadata."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    code, _ = run([str(BUILD_DIR / "perfbench_selftest")], 60)
    if code != 0:
        fail("the benchmark's arithmetic self-test failed", 1)
    if args.workload in SERVE_WORKLOADS:
        ensure_fixture(binary, args.workload)

    code, out = run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--fixture-dir", str(FIXTURE_DIR), "--out-dir", str(RUNS_DIR),
         "--git-commit", git_commit(), "--source-sha256", source_sha256()],
        run_timeout_s(args.seconds), capture=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("the runner printed no result line", 1)
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    log = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    log.write_text(out)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and not result["correct"]:
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
