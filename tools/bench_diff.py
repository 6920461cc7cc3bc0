#!/usr/bin/env python3
"""Compare a fresh bench `--json` run against a committed baseline.

Every bench binary emits, with --json, a document of the form

    {"experiment": "Fig.E7", "title": ..., "params": ..., "rows": [...]}

and the committed reference runs live in bench/baselines/BENCH_*.json.
This script checks that a fresh run still has the baseline's shape and
that its measurements are within a relative tolerance:

  * experiment ids must match;
  * row count must match, and rows are compared positionally (sweeps are
    deterministic: same flags => same row order);
  * configuration columns (sweep parameters: sizes, widths, thread/shard
    counts, ...) must match exactly;
  * measured numeric columns must satisfy |a-b| <= tol * max(|a|,|b|),
    with an absolute epsilon (--abs-eps) so near-zero cells such as a
    helps/commit ratio of 0.0001 vs 0.0 do not read as 100% drift;
  * columns matching --ignore (default: tail-latency p99*/max* columns,
    far too noisy for a threshold) are skipped.

Exit status 0 when everything passes, 1 on any mismatch (or, in a sweep,
a missing binary or baseline), 2 on usage errors. Typical use, from the
build directory:

    ./fig7_scan_scaling --json | ../tools/bench_diff.py - ../bench/baselines/
    ./fig1_update_throughput --json > fresh.json
    ../tools/bench_diff.py fresh.json ../bench/baselines/BENCH_fig1.json

When the baseline argument is a directory, the file whose "experiment"
matches the fresh run is selected automatically.

Hardware stamp: every bench writes `nproc=<online CPUs> affinity=<CPU
list>` into its "params" string. When the fresh run's stamp differs from
the baseline's, or the baseline has none, a WARN line says so; the verdict
and exit status are unchanged, but a drift on different hardware says
little about the code.

Smoke sweep: `--sweep --build-dir build [--only SUBSTR] [--regen]`, from
the repo root, runs every bench binary with --smoke --json, one at a time,
and diffs each against bench/baselines/smoke/ (--regen overwrites those
baselines instead). Smoke windows are ~20 ms, so the sweep defaults to a
GENEROUS tolerance (--tol 0.85, ~6.7x drift) and a wide absolute shield
(--abs-eps 5, so raw near-zero counters like `helps` 0 vs 2 compare
equal): what still fails is shape drift — row counts, columns, config
cells — or an order-of-magnitude regression.

Tolerance guidance: the default (0.5, i.e. +-50% relative) is deliberately
loose — it catches order-of-magnitude regressions and shape drift on the
machine that produced the baseline, not single-digit perf changes. Tighten
with --tol for controlled A/B runs on quiet hardware; loosen (~0.8) for
benches whose rows time short multi-threaded windows on oversubscribed
cores, where scheduling luck alone moves rows by 2x (see
docs/BENCHMARKS.md).
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

# Column names that are sweep configuration, not measurement: exact match
# required. Everything numeric that does not match is treated as measured.
CONFIG_COL_RE = re.compile(
    r"(size|width|threads|shards|keyrange|reps|rounds|mode|structure)",
    re.IGNORECASE,
)

# The hardware stamp bench/bench_common.h appends to every params string.
STAMP_RE = re.compile(r"nproc=\S+ affinity=\S+")

# --sweep defaults and inventory: the bench binaries with a committed
# bench/baselines/smoke/BENCH_<binary>.json.
REPO = pathlib.Path(__file__).resolve().parents[1]
SMOKE_DIR = REPO / "bench" / "baselines" / "smoke"
SMOKE_TOL = 0.85
SMOKE_ABS_EPS = 5.0
SMOKE_BENCHES = [
    "fig1_update_throughput",
    "fig2_mixed_throughput",
    "fig3_rangescan_mix",
    "fig4_scan_latency",
    "fig7_scan_scaling",
    "micro_ops",
    "tab5_handshake_ablation",
    "tab6_reclamation",
    "tab8_zipf_skew",
    "tab9_bulkload_ablation",
]


def load_doc(source):
    if source == "-":
        return parse_doc(sys.stdin.read(), "<stdin>")
    path = pathlib.Path(source)
    return parse_doc(path.read_text(), str(path))


def parse_doc(text, name):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemExit(f"error: {name} is not valid JSON: {e}")
    for field in ("experiment", "rows"):
        if field not in doc:
            raise SystemExit(f"error: {name} has no '{field}' field")
    return doc, name


def pick_baseline(baseline_arg, experiment):
    path = pathlib.Path(baseline_arg)
    if path.is_dir():
        for candidate in sorted(path.glob("*.json")):
            try:
                doc = json.loads(candidate.read_text())
            except json.JSONDecodeError:
                continue
            if isinstance(doc, dict) and doc.get("experiment") == experiment:
                # Same validation as the file-path branch, now that this
                # candidate is the selected baseline.
                return load_doc(str(candidate))
        raise SystemExit(
            f"error: no baseline in {path} has experiment id {experiment!r}"
        )
    doc, name = load_doc(str(path))
    return doc, name


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def rel_diff(a, b, abs_eps):
    if abs(a - b) <= abs_eps:
        return 0.0
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 0.0
    return abs(a - b) / denom


def compare(fresh, baseline, tol, ignore_re, abs_eps):
    failures = []
    if fresh["experiment"] != baseline["experiment"]:
        failures.append(
            f"experiment id: fresh {fresh['experiment']!r} != "
            f"baseline {baseline['experiment']!r}"
        )
        return failures
    frows, brows = fresh["rows"], baseline["rows"]
    if len(frows) != len(brows):
        failures.append(
            f"row count: fresh {len(frows)} != baseline {len(brows)}"
        )
        return failures
    checked = 0
    for i, (frow, brow) in enumerate(zip(frows, brows)):
        if set(frow) != set(brow):
            failures.append(
                f"row {i}: column sets differ "
                f"(fresh {sorted(frow)}, baseline {sorted(brow)})"
            )
            continue
        for col, bval in brow.items():
            fval = frow[col]
            if ignore_re.search(col):
                continue
            checked += 1
            if CONFIG_COL_RE.search(col) or not is_number(bval):
                if fval != bval:
                    failures.append(
                        f"row {i} {col}: config/text mismatch "
                        f"(fresh {fval!r}, baseline {bval!r})"
                    )
                continue
            if not is_number(fval):
                failures.append(
                    f"row {i} {col}: fresh value {fval!r} is not numeric"
                )
                continue
            d = rel_diff(float(fval), float(bval), abs_eps)
            if d > tol:
                failures.append(
                    f"row {i} {col}: {fval} vs baseline {bval} "
                    f"({d * 100.0:.0f}% > {tol * 100.0:.0f}%)"
                )
    if checked == 0:
        failures.append("no cells were compared (over-broad --ignore?)")
    return failures


def hardware_stamp(doc):
    """The `nproc=... affinity=...` part of a document's params, or None."""
    match = STAMP_RE.search(str(doc.get("params", "")))
    return match.group(0) if match else None


def stamp_warning(fresh, baseline):
    """Why the two runs may not share hardware, or None when they do."""
    fresh_stamp, base_stamp = hardware_stamp(fresh), hardware_stamp(baseline)
    if base_stamp is None:
        return f"baseline has no hardware stamp (fresh: {fresh_stamp})"
    if fresh_stamp != base_stamp:
        return f"hardware differs: fresh {fresh_stamp}, baseline {base_stamp}"
    return None


def report(fresh, fresh_name, baseline, baseline_name, args, ignore_re):
    """Prints the OK/FAIL verdict of one diff; returns True on a pass."""
    failures = compare(fresh, baseline, args.tol, ignore_re, args.abs_eps)
    label = f"{fresh['experiment']}: {fresh_name} vs {baseline_name}"
    warning = stamp_warning(fresh, baseline)
    if warning:
        print(f"WARN {label}: {warning}")
    if failures:
        print(f"FAIL {label}")
        for f in failures:
            print(f"  {f}")
        return False
    print(
        f"OK   {label} "
        f"({len(fresh['rows'])} rows within {args.tol * 100.0:.0f}%)"
    )
    return True


def run_smoke(build_dir, binary):
    """Returns (stdout, None) of `binary --smoke --json`, or (None, why)."""
    # Absolute path: a bare relative name would make subprocess search
    # PATH instead of the build directory.
    path = (build_dir / binary).resolve()
    if not path.exists():
        return None, f"missing binary {path}"
    try:
        proc = subprocess.run(
            [str(path), "--smoke", "--json"],
            capture_output=True,
            text=True,
            timeout=600,
        )
    except subprocess.TimeoutExpired:
        return None, f"{binary} --smoke --json timed out after 600s"
    if proc.returncode != 0:
        return None, f"{binary} --smoke --json exited {proc.returncode}"
    return proc.stdout, None


def sweep(args, ignore_re):
    failures = []
    ran = 0
    for binary in SMOKE_BENCHES:
        if args.only and args.only not in binary:
            continue
        text, err = run_smoke(args.build_dir, binary)
        if err:
            print(f"FAIL {binary}: {err}")
            failures.append(binary)
            continue
        ran += 1
        baseline_file = SMOKE_DIR / f"BENCH_{binary}.json"
        if args.regen:
            SMOKE_DIR.mkdir(parents=True, exist_ok=True)
            baseline_file.write_text(text)
            print(f"WROTE {baseline_file}")
            continue
        if not baseline_file.exists():
            print(f"FAIL {binary}: no smoke baseline {baseline_file}")
            failures.append(binary)
            continue
        try:
            fresh, fresh_name = parse_doc(text, f"{binary} --smoke")
            baseline, baseline_name = load_doc(str(baseline_file))
        except SystemExit as e:
            print(f"FAIL {binary}: {e}")
            failures.append(binary)
            continue
        if not report(fresh, fresh_name, baseline, baseline_name, args,
                      ignore_re):
            failures.append(binary)
    if ran == 0:
        print("error: no benches matched")
        return 2
    if failures:
        print(f"\n{len(failures)} bench(es) drifted: {', '.join(failures)}")
        return 1
    if not args.regen:
        print(f"\nall {ran} smoke profiles within tolerance {args.tol}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "fresh", nargs="?", help="fresh --json output file, or - for stdin"
    )
    parser.add_argument(
        "baseline",
        nargs="?",
        help="baseline JSON file, or a directory to search by experiment id",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="relative tolerance for measured columns (default 0.5; "
        f"{SMOKE_TOL} with --sweep)",
    )
    parser.add_argument(
        "--ignore",
        default=r"p99|max",
        help="regex of column names to skip entirely (default: p99|max)",
    )
    parser.add_argument(
        "--abs-eps",
        type=float,
        default=None,
        help="absolute difference treated as equal, shielding near-zero "
        f"cells from relative comparison (default 1e-3; {SMOKE_ABS_EPS:g} "
        "with --sweep)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="run every bench in --build-dir with --smoke --json and diff "
        "it against bench/baselines/smoke/",
    )
    parser.add_argument(
        "--build-dir",
        default="build",
        type=pathlib.Path,
        help="--sweep: directory holding the bench binaries (default build)",
    )
    parser.add_argument(
        "--only", default=None, help="--sweep: substring filter on binaries"
    )
    parser.add_argument(
        "--regen",
        action="store_true",
        help="--sweep: overwrite the smoke baselines with fresh runs",
    )
    args = parser.parse_args()
    if args.sweep:
        if args.fresh is not None:
            parser.error("--sweep takes no fresh/baseline arguments")
    elif args.baseline is None:
        parser.error("fresh and baseline are required without --sweep")
    elif args.only is not None or args.regen:
        parser.error("--only and --regen need --sweep")
    if args.tol is None:
        args.tol = SMOKE_TOL if args.sweep else 0.5
    if args.abs_eps is None:
        args.abs_eps = SMOKE_ABS_EPS if args.sweep else 1e-3
    if args.tol < 0:
        parser.error("--tol must be >= 0")
    try:
        ignore_re = re.compile(args.ignore)
    except re.error as e:
        parser.error(f"--ignore is not a valid regex: {e}")

    if args.sweep:
        return sweep(args, ignore_re)
    fresh, fresh_name = load_doc(args.fresh)
    baseline, baseline_name = pick_baseline(args.baseline, fresh["experiment"])
    return 0 if report(fresh, fresh_name, baseline, baseline_name, args,
                       ignore_re) else 1


if __name__ == "__main__":
    sys.exit(main())
