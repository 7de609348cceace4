#!/usr/bin/env python3
"""Model campaign makespans from a BENCH_tasks.json artifact.

Usage:
    makespan_model.py BENCH_tasks.json [--workers=1,2,4,8]
                      [--granularity=task|cell|both]

Replays an LPT (longest-processing-time) greedy schedule over the
per-cell unit timings bench_task_makespan recorded: sort the work
units longest first, hand each to the least loaded worker, report the
loaded worker's finish time. LPT is within 4/3 of the optimal
makespan; the campaign's shared cursor runs the same greedy list
schedule in grid order, so the model estimates what
examples/campaign --threads=N achieves without re-running the grids.

Granularity 'cell' schedules each cell's full serial time as one
unit (pre-decomposition scheduling); 'task' schedules max_task_sec
units -- the artifact records per-cell totals and maxima, so task
units are reconstructed as (tasks - 1) average-sized units plus one
maximum-sized unit per cell, a conservative (pessimistic) split.

Exits nonzero with a one-line message on a missing, unparseable, or
structurally mangled artifact.
"""

import argparse
import json
import sys


def die(msg):
    sys.exit(f"makespan_model: {msg}")


def load_cells(path):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read {path}: {exc}")
    if not isinstance(report, dict):
        die(f"{path}: not a JSON object")
    raw = report.get("cells", [])
    if not isinstance(raw, list):
        die(f"{path}: 'cells' is not a list")
    cells = []
    for cell in raw:
        if not isinstance(cell, dict):
            die(f"{path}: cell entry is not an object")
        name = cell.get("name")
        metrics = cell.get("metrics", {})
        if not isinstance(name, str) or not isinstance(metrics, dict):
            die(f"{path}: cell entry is missing name/metrics")
        try:
            tasks = int(metrics["tasks"])
            serial = float(metrics["serial_sec"])
            max_task = float(metrics["max_task_sec"])
        except (KeyError, TypeError, ValueError):
            die(f"{path}: cell {name!r} lacks numeric tasks/"
                f"serial_sec/max_task_sec metrics")
        if tasks < 1 or serial < 0.0 or max_task < 0.0:
            die(f"{path}: cell {name!r} has out-of-range metrics")
        cells.append((name, tasks, serial, max_task))
    if not cells:
        die(f"{path}: no cells to schedule")
    return cells


def task_units(cells):
    """Reconstruct per-task times: one max-sized unit per cell plus
    (tasks - 1) average-sized units covering the serial remainder."""
    units = []
    for _, tasks, serial, max_task in cells:
        if tasks == 1:
            units.append(serial)
            continue
        rest = max(serial - max_task, 0.0)
        units.append(max_task)
        units.extend([rest / (tasks - 1)] * (tasks - 1))
    return units


def lpt_makespan(units, workers):
    load = [0.0] * workers
    for t in sorted(units, reverse=True):
        load[load.index(min(load))] += t
    return max(load)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("artifact")
    parser.add_argument(
        "--workers", default="1,2,4,8",
        help="comma-separated worker counts (default 1,2,4,8)")
    parser.add_argument(
        "--granularity", default="both",
        choices=["task", "cell", "both"],
        help="scheduling unit to model (default both)")
    args = parser.parse_args()
    try:
        workers = [int(w) for w in args.workers.split(",") if w]
    except ValueError:
        parser.error("--workers must be comma-separated integers")
    if not workers or any(w < 1 for w in workers):
        parser.error("--workers must name positive worker counts")

    cells = load_cells(args.artifact)
    total = sum(serial for _, _, serial, _ in cells)
    units = {
        "cell": [serial for _, _, serial, _ in cells],
        "task": task_units(cells),
    }
    grans = (["cell", "task"] if args.granularity == "both"
             else [args.granularity])

    print(f"makespan_model: {args.artifact}: {len(cells)} cells, "
          f"{len(units['task'])} task units, "
          f"{total:.3f} s serial work")
    print(f"  max unit: cell {max(units['cell']):.3f} s, "
          f"task {max(units['task']):.3f} s")
    header = "  workers" + "".join(
        f" {g + ' makespan':>15}" for g in grans) + f" {'ideal':>10}"
    print(header)
    for w in workers:
        row = f"  {w:7d}"
        for g in grans:
            row += f" {lpt_makespan(units[g], w):13.3f} s"
        row += f" {total / w:8.3f} s"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
