#!/usr/bin/env python3
"""Time two checkouts' benchmark calls in pairs, one worker process per side.

Each checkout's ``bench/worker.py`` is set up in its own process, with BLAS
pinned to one thread, and both processes run ``run_once`` on the same
sampler seeds 0, 1, ..., one call at a time; which side runs first
alternates from seed to seed.  On a shared VM the speed drifts up to 2x
between processes and over minutes, so the ratio of the two calls of each
seed measures a change where the medians of separate runs cannot.  A
process keeps a speed of its own, so both workers start afresh every
RESTART_EVERY seeds, and the side whose worker starts first alternates from
block to block.

It prints each side's median and 90th-percentile call wall time, the
median ratio B / A of the calls' wall times with its quartiles, the ratio
of the two sides' 90th percentiles (the statistic ``bench/run.py`` reports
for ``wall_s``), how many calls B ran faster, each side's median set-up
time (the ``setup_s`` of ``worker.setup``, over its worker starts; a worker
reports it on its ready line), each side's mean full solves,
iterations, reduced solves and LU factorizations per call, and how many
calls' work counts and digests (their samples or particles) are equal.  It
exits 1 when some call's work count differs between the sides, 2 when only
digests differ (a change that moves floats, not work), and 0 when every
call is equal.

    python scripts/pair_calls.py ../parent . --workload rwmh-adv1d --calls 300

The benchmark's adv1d workloads hold few points per cell, so a change to
the surrogate's read or build path is paired at elast scale too, with
``--workload smc-elast-layered`` (layered elasticity at nx 16, 0.3-0.7 s
per call on a 2-vCPU VM):

    python scripts/pair_calls.py ../parent . --workload smc-elast-layered --calls 40
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
RESTART_EVERY = 20  # seeds per pair of worker processes
WORK = ("full_solves", "iterations", "reduced_solves", "lu_factorizations")

# the worker process: set up, then one call per seed read from stdin; it
# returns the keys of the call's record that follow checkout and workload
SERVE = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/bench")
import worker
workload = sys.argv[2]
timings, state = worker.setup(worker.WORKLOADS[workload])
print("ready", json.dumps(timings), flush=True)
for line in sys.stdin:
    rec = worker.run_once(workload, state, int(line))
    print(json.dumps({key: rec[key] for key in sys.argv[3:]}), flush=True)
"""


def start(checkout: Path, workload: str):
    """(a worker process set up for workload, its set-up timings)."""
    proc = subprocess.Popen([sys.executable, "-c", SERVE, str(checkout), workload,
                             "wall_s", "digest", *WORK],
                            cwd=checkout, env={**os.environ, **PINNED}, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    ready, _, timings = proc.stdout.readline().partition(" ")
    if ready != "ready":
        raise RuntimeError(f"the worker of {checkout} failed to set up")
    return proc, json.loads(timings)


def call(proc: subprocess.Popen, seed: int) -> dict:
    proc.stdin.write(f"{seed}\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"a worker exited at seed {seed}")
    return json.loads(line)


def stop(proc: subprocess.Popen) -> None:
    proc.stdin.close()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def paired_calls(checkouts: list, workload: str, n_calls: int):
    """(per seed, the records of (A, B); per side, the set-up timings of its
    workers), from a fresh pair of workers per block of RESTART_EVERY
    seeds; A's starts first in even blocks."""
    pairs, setups = [], ([], [])
    for block, first in enumerate(range(0, n_calls, RESTART_EVERY)):
        procs = {}
        try:
            for side in ((0, 1) if block % 2 == 0 else (1, 0)):
                procs[side], timings = start(checkouts[side], workload)
                setups[side].append(timings)
            for seed in range(first, min(first + RESTART_EVERY, n_calls)):
                order = (0, 1) if seed % 2 == 0 else (1, 0)
                recs = {side: call(procs[side], seed) for side in order}
                pairs.append((recs[0], recs[1]))
        finally:
            for proc in procs.values():
                stop(proc)
    return pairs, setups


def p90(values: list) -> float:
    """The 90th percentile, as ``bench/run.py`` takes it for a time."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def summary(pairs: list) -> dict:
    walls = [[rec["wall_s"] for rec in side] for side in zip(*pairs)]
    ratios = [b["wall_s"] / a["wall_s"] for a, b in pairs]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"median_a": statistics.median(walls[0]), "median_b": statistics.median(walls[1]),
            "p90_a": p90(walls[0]), "p90_b": p90(walls[1]),
            "ratio": statistics.median(ratios), "quartiles": (q1, q3),
            "wins": sum(b["wall_s"] < a["wall_s"] for a, b in pairs),
            "work": [{key: statistics.mean(rec[key] for rec in side) for key in WORK}
                     for side in zip(*pairs)]}


def unequal_calls(pairs: list, keys: tuple = ("digest",) + WORK) -> list:
    """The indices of the pairs whose records differ at any of keys."""
    return [i for i, (a, b) in enumerate(pairs) if any(a[key] != b[key] for key in keys)]


def exit_status(pairs: list) -> int:
    """1 when some pair's work counts differ, else 2 when some pair's digests
    differ, else 0."""
    if unequal_calls(pairs, WORK):
        return 1
    return 2 if unequal_calls(pairs, ("digest",)) else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout_a", type=Path)
    ap.add_argument("checkout_b", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--calls", type=int, required=True)
    args = ap.parse_args(argv)
    if args.calls < 2:
        ap.error("--calls must be at least 2, for the quartiles")
    checkouts = [args.checkout_a.resolve(), args.checkout_b.resolve()]
    pairs, setups = paired_calls(checkouts, args.workload, args.calls)
    s = summary(pairs)
    n = args.calls
    print(f"{args.workload}: {n} calls per side, seeds 0-{n - 1}")
    print(f"A {checkouts[0]}: median {s['median_a']:.4f} s, p90 {s['p90_a']:.4f} s")
    print(f"B {checkouts[1]}: median {s['median_b']:.4f} s, p90 {s['p90_b']:.4f} s")
    print(f"B / A per call: median {s['ratio']:.3f} "
          f"[{s['quartiles'][0]:.3f}, {s['quartiles'][1]:.3f}]")
    print(f"B / A of the p90s: {s['p90_b'] / s['p90_a']:.3f}")
    print(f"B faster: {s['wins']} of {n}")
    setup_a, setup_b = (statistics.median(t["setup_s"] for t in side) for side in setups)
    print(f"setup_s median over {len(setups[0])} worker starts per side: "
          f"A {setup_a:.4f} s, B {setup_b:.4f} s")
    a, b = s["work"]
    print(f"mean per call, A / B: reduced solves {a['reduced_solves']:.2f} / "
          f"{b['reduced_solves']:.2f}, LU factorizations {a['lu_factorizations']:.2f} / "
          f"{b['lu_factorizations']:.2f}")
    print(f"mean per call, A / B: full solves {a['full_solves']:.2f} / {b['full_solves']:.2f}, "
          f"iterations {a['iterations']:.2f} / {b['iterations']:.2f}")
    for what, keys in (("work counts", WORK), ("digests", ("digest",))):
        seeds = unequal_calls(pairs, keys)
        print(f"{what} equal: {n - len(seeds)} of {n}")
        if seeds:
            print(f"{what} differ at seeds {seeds}", file=sys.stderr)
    return exit_status(pairs)


if __name__ == "__main__":
    sys.exit(main())
