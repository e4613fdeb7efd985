"""gibbsrb benchmark: time to posterior, full solves and memory.

    python3 bench/run.py --workload smc-adv1d --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload in turn

Runs one workload in fresh child processes (``bench/worker.py``), one at a
time, with BLAS pinned to one thread, and prints a report.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer numbers of the
traced calls, plus the tracing overhead against the same calls untraced.
The full record of the run goes to
``.bench_results/<workload>-seed<seed>-trace<t>.json``.

Load model: a closed loop with one client; each call into the library is
one request and the next starts when it returns.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("smc-adv1d", "smc-elast-layered", "rwmh-adv1d")
SETUP_BEFORE, SETUP_AFTER = 3, 2  # set-up-only processes around the workload's own
DEADLINE_S = 170.0    # a run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "full_solves": "count"}
TRACE_METRICS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}
UNITS = {**END_TO_END, **METRICS, **TRACE_METRICS}
COUNTERS = ("wall_s", "cpu_s", "full_solves", "sensitivity_solves", "reduced_solves",
            "atoms", "lu_factorizations", "cell_builds", "iterations")
REFERENCE = ("ks_max", "truth_distance", "oracle_mean_gap")  # a call's distance to the reference


class WorkerError(RuntimeError):
    pass


def worker(args: list, deadline: float) -> dict:
    """Run bench/worker.py in a fresh process; returns its JSON record."""
    env = {**os.environ, **PINNED}
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0),
                              text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerError(f"worker {args} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p90(values: list) -> float:
    """The run's statistic for a time: the 90th percentile of its samples.

    On a shared host the same call runs about 1.75x faster while the
    neighbours on its core are idle, and for some minutes they mostly are;
    a mean, a median or a low quantile then follows the neighbours.  A
    sample that met busy neighbours is in nearly every run, so a high
    percentile is what repeats from run to run.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_only():
        return worker(base + ["--setup-only"], deadline)["setup"]["setup_s"]

    setups = [setup_only() for _ in range(SETUP_BEFORE)]
    record = worker(base + ["--seconds", str(seconds)], deadline)
    setups.append(record["setup"]["setup_s"])
    setups += [setup_only() for _ in range(SETUP_AFTER)]
    record["setup_samples"] = setups
    metrics = {}
    runs = [r for r in record["runs"] if "wall_s" in r]
    if runs:
        for key in ("wall_s", "cpu_s"):
            metrics[key] = p90([r[key] for r in runs])
        metrics["full_solves"] = statistics.fmean(r["full_solves"] for r in runs)
    metrics["setup_s"] = p90(setups)
    metrics["peak_rss_mb"] = record["peak_rss_mb"]
    return record, {k: metrics[k] for k in END_TO_END if k in metrics}


def traced(workload: str, seed: int, seconds: float, deadline: float):
    """The same calls untraced and traced, each process given half the run."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / 2)]
    plain = worker(base, deadline)
    record = worker(base + ["--trace", "1"], deadline)
    record["untraced"] = plain
    metrics = dict(record.get("layers", {}))
    plain_walls = [r["wall_s"] for r in plain["runs"] if "wall_s" in r]
    if len(plain_walls) == len(plain["runs"]) and "trace.wall_s" in metrics:
        metrics["trace.untraced_wall_s"] = sum(plain_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(plain_walls)
    record["runs"] = plain["runs"] + record["runs"]
    return record, metrics


def report(workload: str, seed: int, trace: int, record: dict, metrics: dict) -> None:
    runs = record["runs"]
    env = record["environment"]
    print(f"gibbsrb bench  workload={workload} seed={seed} trace={trace}  "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"{env['blas']} {env['blas_version']} blas_threads={env['blas_threads']} "
          f"nproc={env['nproc']}")
    print(f"{'seed':>6} {'ok':>3} " + " ".join(f"{c:>12}" for c in COUNTERS)
          + f" {'reference':>12}  digest")
    for r in runs:
        if "error" in r:
            print(f"{r.get('sampler_seed', '-'):>6} {'no':>3} {r['error']}")
            continue
        ref = next((r[k] for k in REFERENCE if k in r), float("nan"))
        cells = " ".join(f"{v:>12.6g}" for v in [r[c] for c in COUNTERS] + [ref])
        print(f"{r['sampler_seed']:>6} {'yes' if r['ok'] else 'NO':>3} {cells}  {r['digest']}")
        for name, passed in r["checks"].items():
            if not passed:
                print(f"{'':>10} failed check: {name}")
    if not trace:
        print(f"{'metric':<14} {'unit':<6} {'value':>12} {'q1':>12} {'median':>12} "
              f"{'q3':>12} {'n':>3}   (value: times 90th percentile, full_solves mean, "
              f"over the run's calls or set-ups)")
        samples = {k: [r[k] for r in runs if k in r] for k in ("wall_s", "cpu_s",
                                                                 "full_solves")}
        samples["setup_s"] = record["setup_samples"]
        samples["peak_rss_mb"] = [record["peak_rss_mb"]]
        for name, value in metrics.items():
            q1, q2, q3 = quartiles(samples[name])
            print(f"{name:<14} {UNITS[name]:<6} {value:>12.6g} {q1:>12.6g} {q2:>12.6g} "
                  f"{q3:>12.6g} {len(samples[name]):>3}")
    else:
        for name, value in metrics.items():
            print(f"{name:<40} {UNITS[name]:<6} {value:>14.6g}")
    pooled = next((r["pooled"] for r in runs if "pooled" in r), None)
    if pooled is not None:
        print(f"the run's calls pooled, distance to the reference: {pooled:.6g}")
    failed = sum(1 for r in runs if not r["ok"])
    print(f"failed/attempted: {failed}/{len(runs)}")


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: report, record file, and the result object."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        record, metrics = traced(workload, seed, seconds, deadline)
        expected = set(METRICS) | set(TRACE_METRICS)
    else:
        record, metrics = untraced(workload, seed, seconds, deadline)
        expected = set(END_TO_END)
    report(workload, seed, trace, record, metrics)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({**record, "metrics": metrics}, indent=1))
    failed = sum(1 for r in record["runs"] if not r["ok"])
    return {"correct": failed == 0 and set(metrics) == expected,
            "attempted": len(record["runs"]), "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gibbsrb" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        print(f"bench: no gibbsrb sources under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        result = results[names[0]]
    else:  # one object for all workloads, metric names prefixed by workload
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
