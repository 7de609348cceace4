#!/usr/bin/env python3
"""Self-tests of the paper-regeneration benchmark harness.

Run from the repository root (builds the harness first, about 30 s cold):

    python3 perfbench/selftest.py

Checks, on the small fig11 grid with a scratch reference directory:
  * a freshly written reference passes at the reference seed;
  * a corrupted reference row is counted in `failed`;
  * a non-reference seed changes the cells' outputs and still reports 0 failures;
  * an unknown grid and a missing reference each fail with one stderr line;
and, through the one benchmark command on the detect workload, that both
--trace 0 and --trace 1 print every metric BENCHMARK.json names, with its unit.
"""

import json
import shutil
import subprocess
import sys

import run

SCRATCH = run.BUILD_DIR / "selftest"
failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def harness(*args, refdir=SCRATCH):
    cmd = [str(run.BINARY), "--workload", "attack", "--grids", "fig11",
           "--seconds", "1", "--trace", "0", "--reference-dir", str(refdir),
           "--digests", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def result_of(proc):
    return json.loads(proc.stdout.strip().split("\n")[-1])


def digests_of(proc):
    return [line.split()[1:] for line in proc.stdout.split("\n")
            if line.startswith("digest ")]


def main():
    run.build()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    ref = SCRATCH / "attack.ref"

    p = harness("--seed", "1", "--regen-reference")
    check(p.returncode == 0 and ref.exists(), "regenerate a reference")

    p = harness("--seed", "1")
    r = result_of(p)
    check(r["correct"] and r["failed"] == 0 and r["attempted"] == 6,
          "reference seed passes against its own reference")
    seed1 = digests_of(p)

    rows = ref.read_text().split("\n")
    cell = next(i for i, line in enumerate(rows) if line.startswith("1 "))
    index, digest, name = rows[cell].split(" ")
    rows[cell] = " ".join([index, "%016x" % (int(digest, 16) ^ 1), name])
    ref.write_text("\n".join(rows))
    r = result_of(harness("--seed", "1"))
    check(not r["correct"] and r["failed"] == 1,
          "a corrupted reference row counts as one failed cell")

    p = harness("--seed", "2")
    r = result_of(p)
    check(digests_of(p) != seed1 and len(digests_of(p)) == len(seed1),
          "a non-reference seed changes the cells' outputs")
    check(r["correct"] and r["failed"] == 0,
          "a non-reference seed reports 0 failures")

    p = subprocess.run([str(run.BINARY), "--workload", "attack", "--grids",
                        "fig11,nosuch", "--seed", "3", "--seconds", "1",
                        "--trace", "0", "--reference-dir", str(SCRATCH)],
                       capture_output=True, text=True, timeout=60)
    check(p.returncode != 0 and p.stdout == "" and
          len(p.stderr.strip().split("\n")) == 1 and "nosuch" in p.stderr,
          "an unknown grid fails with one line")

    p = harness("--seed", "1", refdir=SCRATCH / "empty")
    check(p.returncode != 0 and
          len(p.stderr.strip().split("\n")) == 1 and
          "missing reference" in p.stderr,
          "a missing reference at the reference seed fails with one line")

    for trace in (0, 1):
        p = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                            "--workload", "detect", "--seed", "3",
                            "--seconds", "1", "--trace", str(trace)],
                           cwd=run.ROOT, capture_output=True, text=True,
                           timeout=600)
        ok = p.returncode == 0
        if ok:
            r = json.loads(p.stdout.strip().split("\n")[-1])
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            ok = got == run.expected_metrics(trace) and r["failed"] == 0
        check(ok, f"--trace {trace} prints every BENCHMARK.json metric "
                  "with its unit")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
