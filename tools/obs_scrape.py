#!/usr/bin/env python3
"""Scrape and validate the service's Prometheus /metrics page.

Stdlib-only companion to the observability plane (DESIGN.md §14). Three
ways to obtain the exposition text, one validator over all of them:

    # scrape a running server's serving port
    python3 tools/obs_scrape.py --url http://127.0.0.1:9464/metrics --check

    # validate a saved page
    python3 tools/obs_scrape.py --file page.txt --check

    # boot a server binary, parse the METRICS_URL= line it prints,
    # scrape while it lingers, then let it exit (the CI step)
    python3 tools/obs_scrape.py --spawn ./build/examples/networked_kv \
        --spawn-args "--events=2000 --qps=1000 --linger-ms=3000" \
        --check --require-family pnb_engine_ --require-family pnb_server_

--check enforces the text exposition 0.0.4 shape: every sample belongs
to a family declared by a preceding # HELP + # TYPE pair, TYPE values
are known, (name, labels) pairs are unique, values parse as floats, and
quantile'd summary samples are ordered. --require-family fails unless a
sample with the given prefix is present (repeatable; defaults to the
six families the server registers). --diff A B compares two saved pages
by sample NAMES (values are expected to drift between scrapes).

Exit status: 0 valid, 1 validation/scrape failure, 2 usage error.
"""

import argparse
import re
import subprocess
import sys
import time
import urllib.request

KNOWN_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}

DEFAULT_FAMILIES = [
    "pnb_engine_",
    "pnb_arena_",
    "pnb_lifecycle_",
    "pnb_admission_",
    "pnb_shard_",
    "pnb_server_",
]

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)(?: \d+)?$"
)


def fail(msg):
    print(f"obs_scrape: FAIL: {msg}", file=sys.stderr)
    return 1


def base_family(name):
    """Family a sample feeds: summary _count/_sum samples belong to the
    family declared without the suffix."""
    for suffix in ("_count", "_sum", "_bucket"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def validate(text, require_families):
    """Returns a list of problem strings (empty == valid)."""
    problems = []
    helped = set()
    typed = {}
    seen = set()
    samples = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                problems.append(f"line {lineno}: malformed HELP")
                continue
            helped.add(parts[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE")
                continue
            name, mtype = parts[2], parts[3]
            if mtype not in KNOWN_TYPES:
                problems.append(f"line {lineno}: unknown type '{mtype}'")
            if name in typed:
                problems.append(f"line {lineno}: duplicate TYPE for {name}")
            typed[name] = mtype
            continue
        if line.startswith("#"):
            continue  # comments are legal
        m = SAMPLE_RE.match(line)
        if not m:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name, labels, value = m.group("name"), m.group("labels") or "", \
            m.group("value")
        try:
            float(value)
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value {value!r}")
        fam = base_family(name)
        if fam not in typed and name not in typed:
            problems.append(
                f"line {lineno}: sample {name} precedes its TYPE header")
        if fam not in helped and name not in helped:
            problems.append(
                f"line {lineno}: sample {name} precedes its HELP header")
        key = (name, labels)
        if key in seen:
            problems.append(
                f"line {lineno}: duplicate sample {name}{{{labels}}}")
        seen.add(key)
        samples.append((name, labels, value))
    if not samples:
        problems.append("no samples found")
    problems.extend(check_histograms(samples))
    for fam in require_families:
        if not any(n.startswith(fam) for n, _, _ in samples):
            problems.append(f"required family missing: {fam}*")
    return problems, samples


LE_RE = re.compile(r'(?:^|,)le="([^"]*)"')


def strip_le(labels):
    return LE_RE.sub("", labels).strip(",")


def check_histograms(samples):
    """le-bucketed histogram shape: every *_bucket series carries an le
    label; per (family, labels-minus-le) the buckets sorted by NUMERIC le
    (the page itself orders labels lexicographically, so 25000 precedes
    2500 there) are cumulative/non-decreasing; a terminal +Inf bucket
    exists and equals the family's _count sample when one is present."""
    problems = []
    series = {}  # (family, other-labels) -> {le-string: float}
    counts = {}  # (family, labels) -> float
    for name, labels, value in samples:
        if name.endswith("_bucket"):
            fam = name[: -len("_bucket")]
            m = LE_RE.search(labels)
            if not m:
                problems.append(
                    f"histogram {name}{{{labels}}}: no le label")
                continue
            series.setdefault((fam, strip_le(labels)), {})[m.group(1)] = \
                float(value)
        elif name.endswith("_count"):
            counts[(name[: -len("_count")], labels)] = float(value)
    for (fam, other), buckets in sorted(series.items()):
        where = f"histogram {fam}{{{other}}}"
        if "+Inf" not in buckets:
            problems.append(f"{where}: missing terminal +Inf bucket")
            continue
        finite = []
        for le, value in buckets.items():
            if le == "+Inf":
                continue
            try:
                finite.append((float(le), value))
            except ValueError:
                problems.append(f"{where}: non-numeric le {le!r}")
        finite.sort()
        prev_le, prev = None, 0.0
        for le, value in finite:
            if value < prev:
                problems.append(
                    f"{where}: bucket le={le:g} count {value:g} < "
                    f"le={prev_le:g} count {prev:g} (not cumulative)")
            prev_le, prev = le, value
        inf = buckets["+Inf"]
        if finite and inf < finite[-1][1]:
            problems.append(
                f"{where}: +Inf bucket {inf:g} < largest finite "
                f"bucket {finite[-1][1]:g}")
        declared = counts.get((fam, other))
        if declared is not None and declared != inf:
            problems.append(
                f"{where}: +Inf bucket {inf:g} != _count {declared:g}")
    return problems


def fetch_url(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        ctype = resp.headers.get("Content-Type", "")
        body = resp.read().decode("utf-8")
    if "text/plain" not in ctype:
        print(f"obs_scrape: warning: Content-Type is {ctype!r}",
              file=sys.stderr)
    return body


def spawn_and_scrape(cmd, spawn_args, timeout):
    """Launch the server binary, parse METRICS_URL= from its stdout,
    scrape while it runs, and wait for its own exit."""
    argv = [cmd] + (spawn_args.split() if spawn_args else [])
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    url = None
    deadline = time.monotonic() + timeout
    tail = []
    try:
        for line in proc.stdout:
            tail.append(line.rstrip())
            if line.startswith("METRICS_URL="):
                url = line.strip().split("=", 1)[1]
                break
            if time.monotonic() > deadline:
                break
        if url is None:
            proc.kill()
            print("\n".join(tail[-20:]), file=sys.stderr)
            return None, "spawned binary never printed METRICS_URL="
        # Scrape with retries: the workload phase runs before the linger
        # window, but the server answers from the METRICS_URL line on.
        last_err = None
        for _ in range(20):
            try:
                return fetch_url(url), None
            except OSError as e:  # includes URLError
                last_err = e
                time.sleep(0.25)
        return None, f"scrape of {url} failed: {last_err}"
    finally:
        # Drain remaining output so the child never blocks on a full
        # pipe, then wait for its natural exit (bounded).
        try:
            proc.stdout.read()
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def main():
    ap = argparse.ArgumentParser(
        description="scrape/validate the Prometheus /metrics page")
    src = ap.add_mutually_exclusive_group(required=False)
    src.add_argument("--url", help="scrape this /metrics URL")
    src.add_argument("--file", help="read a saved exposition page")
    src.add_argument("--spawn", metavar="BINARY",
                     help="launch BINARY, parse its METRICS_URL= line, "
                          "scrape, wait for it to exit")
    ap.add_argument("--spawn-args", default="",
                    help="argument string passed to the --spawn binary")
    ap.add_argument("--spawn-timeout", type=float, default=60.0,
                    help="seconds to wait for METRICS_URL= and exit")
    ap.add_argument("--check", action="store_true",
                    help="validate exposition-format shape")
    ap.add_argument("--require-family", action="append", default=[],
                    help="fail unless a sample with this prefix exists "
                         "(repeatable; default: the six pnb_* families)")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"),
                    help="compare two saved pages by sample names")
    ap.add_argument("--out", help="write the scraped page to this file")
    args = ap.parse_args()

    if args.diff:
        pages = []
        for path in args.diff:
            with open(path, encoding="utf-8") as f:
                _, samples = validate(f.read(), [])
            pages.append({(n, l) for n, l, _ in samples})
        only_a = sorted(pages[0] - pages[1])
        only_b = sorted(pages[1] - pages[0])
        for n, l in only_a:
            print(f"only in {args.diff[0]}: {n}{{{l}}}")
        for n, l in only_b:
            print(f"only in {args.diff[1]}: {n}{{{l}}}")
        return 1 if (only_a or only_b) else 0

    if args.url:
        try:
            text = fetch_url(args.url)
        except OSError as e:
            return fail(f"scrape of {args.url} failed: {e}")
    elif args.file:
        with open(args.file, encoding="utf-8") as f:
            text = f.read()
    elif args.spawn:
        text, err = spawn_and_scrape(args.spawn, args.spawn_args,
                                     args.spawn_timeout)
        if text is None:
            return fail(err)
    else:
        ap.error("one of --url/--file/--spawn/--diff is required")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)

    require = args.require_family or (DEFAULT_FAMILIES if args.check
                                      else [])
    if args.check or require:
        problems, samples = validate(text, require)
        if problems:
            for p in problems:
                print(f"obs_scrape: {p}", file=sys.stderr)
            return fail(f"{len(problems)} problem(s) in exposition page")
        print(f"obs_scrape: OK: {len(samples)} samples, "
              f"{len({base_family(n) for n, _, _ in samples})} families")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
