#!/usr/bin/env python3
"""Build the benchmark program and run one workload of the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload replay|live|sweep|serve \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the emulator sources from
src/ plus perfbench.cc) into .bench_build/; later runs only re-check the
build. Scratch files (trace files, checkpoints, span dumps, the results
log) go to .bench_out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The run
exits non-zero when the build fails or the statistics check fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected_digests.json")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ies", "board.cc")):
        log("perfbench: no emulator sources under", os.path.join(ROOT, "src"))
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_sha():
    """SHA-256 over src/ and perfbench/: names the code without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def fingerprint(seed):
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            sha = git.stdout.strip() if git.returncode == 0 else "none"
        except OSError:
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True) if os.path.isfile(compiler) else None
    return {
        "seed": seed,
        "git_sha": sha,
        "source_sha256": source_sha(),
        "cores": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version.stdout.splitlines()[0] if version else compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["replay", "live", "sweep", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        log("perfbench: program exited", done.returncode, "without a result")
        return 1
    result = json.loads(lines[-1])

    # Digests pinned for known seeds: a change that only claims speed
    # must leave every simulated statistic, hence the digest, identical.
    digest = next((l.split()[1] for l in lines
                   if l.startswith("expected_digest ")), None)
    with open(EXPECTED) as f:
        pinned = json.load(f).get(args.workload, {}).get(str(args.seed))
    if pinned is not None and pinned != digest:
        print(f"stats_digest {digest} differs from the pinned {pinned} "
              f"for {args.workload} seed {args.seed}")
        result["correct"] = False
        result["failed"] = result["attempted"]

    info = fingerprint(args.seed)
    info.update(workload=args.workload, trace=args.trace,
                stats_digest=digest, pinned_digest=pinned)
    print("fingerprint " + json.dumps(info, sort_keys=True))
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps({"fingerprint": info, "result": result},
                           sort_keys=True) + "\n")
    print(json.dumps(result))
    ok = result["correct"] and done.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
