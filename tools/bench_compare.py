#!/usr/bin/env python3
"""Diff two BENCH_*.json artifacts and fail on throughput regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold=0.15]
                     [--keys=SUFFIX[,SUFFIX...]]
    bench_compare.py BASELINE.json... --current-dir=DIR [options]

With ``--current-dir`` (the CI form), any number of baselines --
typically a shell glob over bench/baselines/BENCH_*.json -- are each
compared against the file of the same basename in DIR. Every pair is
checked even after one fails, so a single CI run reports ALL failing
keys across ALL artifacts instead of stopping at the first bad file;
the exit is nonzero if any pair regressed or a current artifact is
missing.

Compares every throughput metric (by default: any key ending in
``_per_sec``, which covers sim_events_per_sec, frames_per_sec,
probe_rounds_per_sec and llc_accesses_per_sec) at the report top
level and inside each cell,
cells matched by name. Exits 1 if any matched metric in CURRENT is
more than ``threshold`` below its BASELINE value, if a baseline
cell disappeared, or if a baseline metric is negative (a corrupt
snapshot must not silently pass). A zero baseline is legitimate
(benign cells run no probe rounds) but cannot express a ratio, so it
is compared for sign only: zero -> zero is ok, zero -> positive is
reported as ``appeared``. Metric keys present in CURRENT but absent
from the baseline are reported as ``unpinned`` so a new hot-path
metric does not ride along unguarded. Improvements and new cells are
reported but never fail the run.

CI runs this against the snapshots in bench/baselines/, which were
recorded on a deliberately slow reference box -- a regression there
means the simulator hot path, not the machine, got slower.
"""

import argparse
import json
import os
import sys


def throughput_keys(metrics, suffixes):
    return [k for k in metrics if any(k.endswith(s) for s in suffixes)]


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"bench_compare: cannot read {path}: {exc}")
    if not isinstance(report, dict):
        sys.exit(f"bench_compare: {path}: not a JSON object")
    return report


def scalar_metrics(report):
    """Top-level numeric scalars (the writer keeps cells in a list)."""
    return {
        k: v for k, v in report.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def cell_metrics(report, path):
    """Cells by name, with the structure validated up front so a
    mangled artifact dies with one line instead of a traceback."""
    raw = report.get("cells", [])
    if not isinstance(raw, list):
        sys.exit(f"bench_compare: {path}: 'cells' is not a list")
    cells = {}
    for cell in raw:
        if not isinstance(cell, dict) or "name" not in cell:
            continue
        name = cell["name"]
        metrics = cell.get("metrics", {})
        if not isinstance(name, str):
            sys.exit(f"bench_compare: {path}: cell name {name!r} "
                     f"is not a string")
        if not isinstance(metrics, dict):
            sys.exit(f"bench_compare: {path}: cell {name!r} metrics "
                     f"is not an object")
        cells[name] = metrics
    return cells


def numeric(context, key, value, path):
    """A metric value as float, or a one-line death."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        sys.exit(f"bench_compare: {path}: {context}: {key} value "
                 f"{value!r} is not numeric")
    return float(value)


def compare(context, base, cur, suffixes, threshold, failures, lines,
            paths):
    for key in throughput_keys(base, suffixes):
        if key not in cur:
            failures.append(f"{context}: {key} missing from current")
            continue
        old = numeric(context, key, base[key], paths[0])
        new = numeric(context, key, cur[key], paths[1])
        if old < 0.0:
            failures.append(
                f"{context}: {key} baseline {old:.6g} is negative "
                f"(corrupt snapshot?)")
            continue
        if old == 0.0:
            # No ratio to take. Zero -> zero is consistent; a metric
            # springing to life means the baseline no longer pins it.
            if new == 0.0:
                lines.append(f"  zero      {context}: {key} 0 -> 0")
            else:
                lines.append(
                    f"  appeared  {context}: {key} 0 -> {new:.6g} "
                    f"(baseline pins no rate; refresh to guard it)")
            continue
        delta = (new - old) / old
        mark = "ok"
        if delta < -threshold:
            mark = "REGRESSED"
            failures.append(
                f"{context}: {key} {old:.6g} -> {new:.6g} "
                f"({delta:+.1%}, limit -{threshold:.0%})")
        lines.append(
            f"  {mark:9s} {context}: {key} "
            f"{old:.6g} -> {new:.6g} ({delta:+.1%})")
    for key in throughput_keys(cur, suffixes):
        if key not in base:
            lines.append(
                f"  unpinned  {context}: {key} "
                f"{numeric(context, key, cur[key], paths[1]):.6g} "
                f"(not in baseline)")


def compare_pair(baseline_path, current_path, suffixes, threshold,
                 failures, prefix=""):
    """Compare one baseline/current artifact pair; append every
    failing key to @p failures (prefixed with @p prefix so multi-pair
    runs stay attributable)."""
    start = len(failures)
    base = load(baseline_path)
    cur = load(current_path)
    if base.get("bench") != cur.get("bench"):
        sys.exit(
            f"bench_compare: comparing different benches: "
            f"{base.get('bench')!r} vs {cur.get('bench')!r}")

    lines = []
    paths = (baseline_path, current_path)
    compare("<scalars>", scalar_metrics(base), scalar_metrics(cur),
            suffixes, threshold, failures, lines, paths)

    base_cells = cell_metrics(base, baseline_path)
    cur_cells = cell_metrics(cur, current_path)
    for name, metrics in base_cells.items():
        if name not in cur_cells:
            failures.append(f"cell {name!r} missing from current")
            continue
        compare(name, metrics, cur_cells[name], suffixes,
                threshold, failures, lines, paths)
    for name in cur_cells:
        if name not in base_cells:
            lines.append(f"  new       {name} (not in baseline)")

    failures[start:] = [prefix + f for f in failures[start:]]
    print(f"bench_compare: {baseline_path} -> {current_path} "
          f"(bench {base.get('bench')!r}, "
          f"threshold -{threshold:.0%})")
    for line in lines:
        print(line)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="BASELINE CURRENT, or baselines only with --current-dir")
    parser.add_argument(
        "--current-dir", default=None, metavar="DIR",
        help="compare every BASELINE against DIR/<its basename>; "
             "allows a glob of baselines and reports all failing "
             "keys across all pairs before exiting")
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="allowed fractional drop before failing (default 0.15)")
    parser.add_argument(
        "--keys", default="_per_sec",
        help="comma-separated metric-key suffixes to compare "
             "(default: _per_sec)")
    args = parser.parse_args()
    if not 0.0 < args.threshold < 1.0:
        parser.error("--threshold must be in (0, 1)")
    suffixes = [s for s in args.keys.split(",") if s]
    if not suffixes:
        parser.error("--keys must name at least one suffix")

    # Pair up baselines and currents. Two-path mode keeps the classic
    # CLI; --current-dir treats every positional as a baseline (so a
    # shell glob works) and pairs each with DIR/<its basename>.
    if args.current_dir is not None:
        pairs = [(b, os.path.join(args.current_dir, os.path.basename(b)))
                 for b in args.paths]
    else:
        if len(args.paths) != 2:
            parser.error("expected BASELINE CURRENT, or a list of "
                         "baselines with --current-dir=DIR")
        pairs = [tuple(args.paths)]

    failures = []
    for n, (baseline_path, current_path) in enumerate(pairs):
        if n:
            print()
        if not os.path.exists(current_path):
            # In glob mode a missing current artifact means the bench
            # never ran (or crashed before writing); count it and keep
            # checking the remaining pairs.
            print(f"bench_compare: {baseline_path} -> {current_path}")
            failures.append(f"{current_path} missing (bench did not "
                            f"write its artifact)")
            continue
        prefix = (f"{os.path.basename(baseline_path)}: "
                  if args.current_dir is not None else "")
        compare_pair(baseline_path, current_path, suffixes,
                     args.threshold, failures, prefix)

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no throughput regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
