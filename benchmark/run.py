#!/usr/bin/env python3
"""pnbbench: the repository benchmark's single command.

Builds benchmark/ (a CMake project over the repository root) into
.bench_build/pnbbench and runs the pnbbench binary.

  python3 benchmark/run.py                      every workload, seed 1
  python3 benchmark/run.py --workload scan-mix --seed 3 --seconds 20 --trace 0
  python3 benchmark/run.py --trace              traced runs: per-layer metrics,
                                                Chrome traces and layer tables
  python3 benchmark/run.py --repeat 5 --out A.json
  python3 benchmark/run.py --compare A.json B.json
  python3 benchmark/run.py --self-test          must exit non-zero

Each run prints `<workload> <metric> <value> <unit> n=<samples>` lines, and
the last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Every invocation that runs workloads also writes a
result file (default .bench_build/pnbbench/results/last.json) holding the
hardware stamp and every run; `--compare` reads two such files.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pnbbench")
BINARY = os.path.join(BUILD, "pnbbench")
RUN_TIMEOUT_S = 170
LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+) n=(\d+)( \(info\))?$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally. False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: {' '.join(cmd)}: {e}")
            return False
        if proc.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return True


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def hardware_stamp():
    cpu = "unknown"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    compiler = "unknown"
    for line in read_first(os.path.join(BUILD, "CMakeCache.txt"), "").splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            try:
                out = subprocess.run([line.split("=", 1)[1], "--version"],
                                     capture_output=True, text=True, timeout=10)
                compiler = out.stdout.splitlines()[0] if out.stdout else compiler
            except (OSError, subprocess.TimeoutExpired):
                pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            commit = out.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3": read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "kernel": platform.release(),
        "compiler": compiler,
        "commit": commit,
    }


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs pnbbench once; returns (exit code, run record or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", os.path.join(BUILD, "traces"), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} timed out")
        return 1, None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    samples = {}
    for line in lines[:-1]:
        print(line, flush=True)
        m = LINE.match(line)
        if m:
            samples[m.group(2)] = int(m.group(5))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} seed {seed}: no result line (exit {proc.returncode})")
        return proc.returncode or 1, None
    record = {"workload": workload, "seed": seed, "trace": trace, **result,
              "samples": samples}
    return proc.returncode, record


def summary(records):
    """The result line: one run verbatim, several runs as medians."""
    metrics = {}
    multi = len({r["workload"] for r in records}) > 1
    for r in records:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if multi else name
            metrics.setdefault(key, (m["unit"], []))[1].append(m["value"])
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {k: {"value": statistics.median(v), "unit": u}
                    for k, (u, v) in metrics.items()},
    }


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """pass / regress / unresolved for B (change) against A (parent)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    b_dominates = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound and not b_dominates:
        return worse, "unresolved"
    return worse, "regress" if worse > bound else "pass"


def compare(path_a, path_b):
    with open(path_a) as f:
        res_a = json.load(f)
    with open(path_b) as f:
        res_b = json.load(f)
    bench = load_benchmark()
    stamp_a, stamp_b = res_a.get("stamp", {}), res_b.get("stamp", {})
    for key in sorted(set(stamp_a) | set(stamp_b)):
        if key != "commit" and stamp_a.get(key) != stamp_b.get(key):
            log(f"warning: hardware stamps differ on {key}: "
                f"{stamp_a.get(key)!r} vs {stamp_b.get(key)!r}")
    print(f"A = {path_a} (commit {stamp_a.get('commit', '?')}), "
          f"B = {path_b} (commit {stamp_b.get('commit', '?')})")
    specs = {m["name"]: m for m in bench["end_to_end"]}

    def group(res):
        out = {}
        for r in res["runs"]:
            if r["trace"] or not r["correct"]:
                continue
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(m["value"])
        return out

    ga, gb = group(res_a), group(res_b)
    counts = {"pass": 0, "regress": 0, "unresolved": 0}
    for wl in [w["name"] for w in bench["workloads"]]:
        for name, spec in specs.items():
            a, b = ga.get((wl, name)), gb.get((wl, name))
            if not a or not b:
                continue
            worse, v = verdict(a, b, spec["better"], spec["bound"])
            counts[v] += 1
            print(f"{wl:14s} {name:16s} A={statistics.median(a):<12.6g} "
                  f"B={statistics.median(b):<12.6g} worse={100 * worse:+6.2f}% "
                  f"spreadA={100 * spread(a):5.2f}% spreadB={100 * spread(b):5.2f}% "
                  f"bound={100 * spec['bound']:.0f}% n={len(a)}/{len(b)} {v}")
    print(f"compare: {counts['pass']} pass, {counts['regress']} regress, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regress"] else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="window (default: run_seconds)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds seed..seed+repeat-1")
    ap.add_argument("--out", help="result file (default: in the build dir)")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--self-test", action="store_true",
                    help="corrupt one model entry; the run must fail")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    bench = load_benchmark()
    if not build():
        return 2
    if args.self_test:
        code, _ = run_one(args.workload or "point-uniform", args.seed, 2, 0,
                          ["--self-test"])
        log(f"self-test: exit {code} "
            f"({'the corruption was caught' if code else 'NOT caught'})")
        return code

    names = [w["name"] for w in bench["workloads"]]
    if args.workload and args.workload not in names:
        log(f"run.py: unknown workload {args.workload}; one of {names}")
        return 2
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds or bench["run_seconds"]
    records = []
    worst = 0
    for wl in workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            started = time.time()
            code, record = run_one(wl, seed, seconds, args.trace)
            log(f"run.py: {wl} seed {seed} trace {args.trace}: exit {code}, "
                f"{time.time() - started:.1f} s")
            worst = worst or code
            if record is None:
                return code or 1
            records.append(record)
    out = args.out or os.path.join(BUILD, "results", "last.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"stamp": hardware_stamp(), "runs": records}, f, indent=1)
    log(f"run.py: results in {out}")
    print(json.dumps(summary(records)), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
