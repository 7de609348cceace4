#!/usr/bin/env python3
"""Diff BENCH_*.json artifacts against baselines and fail on regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json
    bench_compare.py BASELINE.json... --current-dir=DIR

With ``--current-dir`` (the CI form), any number of baselines --
typically bench/baselines/BENCH_{speed,fingerprint,profile}.json --
are each compared against the file of the same basename in DIR. Every
pair is checked even after one fails, so a single CI run reports ALL
failing keys across ALL artifacts instead of stopping at the first bad
file; the exit is nonzero if any pair regressed or a current artifact
is missing.

Metrics are compared at the report top level and inside each cell,
cells matched by name. The key suffix picks the rule:

  _per_sec        Simulator throughput (sim_events_per_sec,
                  frames_per_sec, probe_rounds_per_sec,
                  llc_accesses_per_sec). Fails on a drop of more than
                  15%.
  .throughput_hz  A profile phase's spans per second of inclusive
                  time. Wall-clock rates are noisy across machines,
                  so only a collapse fails: a drop of more than 70%.
  .self_share     A profile phase's share of total self time. Fails on
                  a move of more than 15 percentage points either way:
                  the profile's *shape* changed, which either is the
                  point of the change (refresh the baseline) or is an
                  accidental hot-path shift. A share present in only
                  one report fails too: a vanished phase means lost
                  instrumentation, a new one is not pinned by the
                  baseline.

A baseline cell or rate key missing from CURRENT fails, and so does a
negative rate baseline (a corrupt snapshot). A zero rate baseline is
legitimate (benign cells run no probe rounds) but cannot express a
ratio, so it is compared for sign only: zero -> zero is ok, zero ->
positive is reported as ``appeared``. Rate keys present only in
CURRENT are reported as ``unpinned``.
Improvements and new cells are reported but never fail the run.
Artifacts of different benches, and missing or mangled files, die
with a one-line error.

The committed baselines were recorded on a deliberately slow
reference box -- a regression there means the simulator hot path, not
the machine, got slower. When a change moves a number on purpose,
regenerate the snapshot (see "refreshing the baselines" in
bench/README.md).
"""

import argparse
import json
import os
import sys

# (key suffix, kind, limit). A "drop" rule fails when CURRENT falls
# more than limit (a fraction) below the baseline; a "move" rule fails
# when CURRENT moves more than limit percentage points either way.
RULES = (
    ("_per_sec", "drop", 0.15),
    (".throughput_hz", "drop", 0.70),
    (".self_share", "move", 15.0),
)


def rule_for(key):
    for suffix, kind, limit in RULES:
        if key.endswith(suffix):
            return kind, limit
    return None


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


def compare_share(context, key, old, new, limit, failures, lines):
    delta = 100.0 * (new - old)
    mark = "ok"
    if abs(delta) > limit:
        mark = "SHIFTED"
        failures.append(
            f"{context}: {key} {old:.1%} -> {new:.1%} "
            f"({delta:+.1f} pp, limit ±{limit:.0f} pp)")
    lines.append(f"  {mark:9s} {context}: {key} "
                 f"{old:.1%} -> {new:.1%} ({delta:+.1f} pp)")


def compare_rate(context, key, old, new, limit, failures, lines):
    if old < 0.0:
        failures.append(
            f"{context}: {key} baseline {old:.6g} is negative "
            f"(corrupt snapshot?)")
        return
    if old == 0.0:
        # No ratio to take. Zero -> zero is consistent; a metric
        # springing to life means the baseline no longer pins it.
        if new == 0.0:
            lines.append(f"  zero      {context}: {key} 0 -> 0")
        else:
            lines.append(
                f"  appeared  {context}: {key} 0 -> {new:.6g} "
                f"(baseline pins no rate; refresh to guard it)")
        return
    delta = (new - old) / old
    mark = "ok"
    if delta < -limit:
        mark = "REGRESSED"
        failures.append(
            f"{context}: {key} {old:.6g} -> {new:.6g} "
            f"({delta:+.1%}, limit -{limit:.0%})")
    lines.append(
        f"  {mark:9s} {context}: {key} "
        f"{old:.6g} -> {new:.6g} ({delta:+.1%})")


def compare(context, base, cur, failures, lines, paths):
    for key in base:
        rule = rule_for(key)
        if rule is None:
            continue
        if key not in cur:
            failures.append(f"{context}: {key} missing from current")
            continue
        kind, limit = rule
        old = numeric(context, key, base[key], paths[0])
        new = numeric(context, key, cur[key], paths[1])
        check = compare_share if kind == "move" else compare_rate
        check(context, key, old, new, limit, failures, lines)
    for key in cur:
        rule = rule_for(key)
        if rule is None or key in base:
            continue
        value = numeric(context, key, cur[key], paths[1])
        if rule[0] == "move":
            failures.append(
                f"{context}: {key} not in baseline (new phase; "
                f"refresh the baseline to pin it)")
        else:
            lines.append(f"  unpinned  {context}: {key} {value:.6g} "
                         f"(not in baseline)")


def compare_pair(baseline_path, current_path, failures, prefix=""):
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
            failures, lines, paths)

    base_cells = cell_metrics(base, baseline_path)
    cur_cells = cell_metrics(cur, current_path)
    for name, metrics in base_cells.items():
        if name not in cur_cells:
            failures.append(f"cell {name!r} missing from current")
            continue
        compare(name, metrics, cur_cells[name], failures, lines, paths)
    for name in cur_cells:
        if name not in base_cells:
            lines.append(f"  new       {name} (not in baseline)")

    failures[start:] = [prefix + f for f in failures[start:]]
    print(f"bench_compare: {baseline_path} -> {current_path} "
          f"(bench {base.get('bench')!r})")
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
             "reports all failing keys across all pairs before exiting")
    args = parser.parse_args()

    # Two-path mode keeps the classic CLI; --current-dir treats every
    # positional as a baseline and pairs it with DIR/<its basename>.
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
            # A missing current artifact means the bench never ran (or
            # crashed before writing); count it and keep checking.
            print(f"bench_compare: {baseline_path} -> {current_path}")
            failures.append(f"{current_path} missing (bench did not "
                            f"write its artifact)")
            continue
        prefix = (f"{os.path.basename(baseline_path)}: "
                  if args.current_dir is not None else "")
        compare_pair(baseline_path, current_path, failures, prefix)

    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
