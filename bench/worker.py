"""One benchmark workload in this process; prints its record as one JSON line.

    python3 bench/worker.py --workload smc-adv1d --seed 0 --seconds 45 --trace 0
    python3 bench/worker.py --workload smc-adv1d --setup-only

``bench/run.py`` starts this script in a fresh process per run, with the
BLAS thread pins already in its environment, so that the import of numpy
below sees them.  The library is imported from ``src/``; only the standard
library is imported before the timed set-up starts.

Each workload is a fixed dataset (the shipped config, its data generated
with DATA_SEED) and the sampler seeds ``seed * 1000 + i``, i < n, one call
each, n the number of calls of nominal length ``call_s`` that fit in
``--seconds`` (at least one).  So a run's inputs depend on ``--seed`` and
``--seconds`` only, and a faster program runs the same calls.  The calls
are short (about a second) and many, so that ``bench/run.py`` can take a
high percentile of their times: on a shared host the same call runs up to
1.75x faster while the neighbours on its core are idle, and how often they
are drifts from minute to minute, so a mean over long calls measures the
host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DATA_SEED = 0
ORACLE_GRID = 60
CACHE_DIR = ROOT / ".bench_cache"

# call_s: time of one call on a 2-core x86 VM with BLAS pinned to one thread,
# while a neighbour is busy.  The adv1d workloads are smaller than the shipped
# config (20 particles, not 100; 150 + 50 chain steps, not 5000 + 1000) so
# that a call takes about a second.  smc-elast-layered is run by hand only:
# one call takes 40-60 s, a single sample per run.
WORKLOADS = {
    "smc-adv1d": {"config": "adv1d.yaml", "mesh": {}, "sampler": "smc",
                  "smc": {"particles": 20}, "call_s": 1.8},
    "smc-elast-layered": {"config": "elast2d_layered.yaml", "mesh": {"nx": 16},
                          "sampler": "smc", "smc": {}, "call_s": 45.0},
    "rwmh-adv1d": {"config": "adv1d.yaml", "mesh": {}, "sampler": "rwmh",
                   "samples": 150, "burn_in": 50, "call_s": 0.65},
}

# correctness bounds: above what sampler seeds give, below what the prior
# gives (prior draws: KS ~0.78, mean gap ~0.34; prior mean: truth distance 0.28).
# One small call is a coarse posterior (one 20-particle cloud reached KS 0.51
# in 430 calls), so the adv1d bounds apply to the run's calls pooled, once
# there are POOLED_CALLS of them.
KS_BOUND = 0.15          # smc-adv1d: per-marginal KS distance of the run's
                         # particle clouds pooled to the grid oracle
TRUTH_BOUND = 0.2        # smc-elast-layered: |mean - truth| / box width, Euclidean
POOLED_MEAN_BOUND = 0.05  # rwmh-adv1d: |mean of the run's chains - oracle mean|
                          # / box width, max; one 150-sample chain can miss by 0.25
POOLED_CALLS = 10
ACCEPT_RANGE = (0.05, 0.7)


def setup(workload: dict, after_import=None):
    """The set-up a user pays on every CLI call; returns (timings, state).

    ``after_import`` runs between the import and the build.
    """
    t0 = time.perf_counter()
    import gibbsrb  # noqa: F401  (the timed import)
    from gibbsrb import config as cfgmod
    t1 = time.perf_counter()
    if after_import is not None:
        after_import()
    cfg = cfgmod.RunConfig.from_yaml(ROOT / "configs" / workload["config"])
    cfg.mesh = {**cfg.mesh, **workload["mesh"]}
    model = cfgmod.build_model(cfg)
    observations = cfgmod.build_observations(cfg, model, DATA_SEED)
    weight = cfgmod.resolve_total_weight(cfg, observations)
    t2 = time.perf_counter()
    return ({"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0},
            (cfg, model, observations, weight))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def count_cell_builds(surrogate_cls) -> list:
    """Wrap Surrogate._build_cell with a bare counter; returns the tally list."""
    original = surrogate_cls.__dict__["_build_cell"]
    tally: list = []

    def counted(self, k):
        tally.append(k)  # list.append is atomic: safe from the build pool
        return original(self, k)

    surrogate_cls._build_cell = counted
    return tally


def run_once(name: str, state, sampler_seed: int) -> dict:
    """One timed call into the library; returns its record with checks."""
    import numpy as np
    from gibbsrb import mcmc, smc
    cfg, model, observations, weight = state
    workload = WORKLOADS[name]
    c0 = model.counters.snapshot()
    rec = {"sampler_seed": sampler_seed}
    if workload["sampler"] == "smc":
        smc_cfg = smc.SmcConfig(**{**cfg.smc.__dict__, **workload["smc"],
                                   "seed": sampler_seed, "total_weight": weight})
        cpu0, t0 = time.process_time(), time.perf_counter()
        result = smc.run_smc(model, observations, smc_cfg)
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - cpu0
        rec["result"] = result
        pts, w = result.particles.points, result.particles.weights
        rec.update(iterations=result.iterations, atoms=result.surrogate.n_atoms,
                   reduced_solves=result.surrogate.reduced_solves,
                   final_weight=result.final_weight, digest=digest(pts, w))
    else:
        steps = workload["samples"] + workload["burn_in"]
        cpu0, t0 = time.process_time(), time.perf_counter()
        chain = mcmc.run_rwmh(model, observations, weight,
                              n_samples=workload["samples"],
                              burn_in=workload["burn_in"],
                              step_scale=cfg.mcmc.step_scale, seed=sampler_seed)
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - cpu0
        rec["result"] = chain
        pts, w = chain.samples, np.full(len(chain.samples), 1.0)
        rec.update(iterations=steps, atoms=0, reduced_solves=0,
                   acceptance_rate=chain.acceptance_rate,
                   out_of_support=chain.out_of_support_proposals,
                   digest=digest(pts))
    c1 = model.counters.snapshot()
    rec["full_solves"] = c1["full"] - c0["full"]
    rec["sensitivity_solves"] = c1["sensitivity"] - c0["sensitivity"]
    rec["lu_factorizations"] = c1["stability"] - c0["stability"]

    checks = {"finite": bool(np.all(np.isfinite(pts)) and np.all(np.isfinite(w)))}
    dim = model.dim
    if workload["sampler"] == "smc":
        checks["full_solves == atoms"] = rec["full_solves"] == rec["atoms"]
        checks["sensitivity == dim * atoms"] = (
            rec["sensitivity_solves"] == dim * rec["atoms"])
        checks["final weight == total weight"] = rec["final_weight"] == weight
    else:
        checks["full_solves == 1 + steps - out_of_support"] = (
            rec["full_solves"] == 1 + steps - rec["out_of_support"])
        checks["sensitivity == 0"] = rec["sensitivity_solves"] == 0
        lo, hi = ACCEPT_RANGE
        checks["acceptance in [0.05, 0.7]"] = lo <= rec["acceptance_rate"] <= hi
    rec["checks"] = checks
    return rec


def oracle(state):
    """60x60 grid posterior for the fixed dataset, cached in the checkout."""
    import numpy as np
    from gibbsrb.oracle import GridPosterior, grid_posterior
    cfg, model, observations, weight = state
    key = hashlib.sha256(json.dumps(
        [cfg.digest(), DATA_SEED, ORACLE_GRID, repr(weight)]).encode()).hexdigest()[:16]
    path = CACHE_DIR / f"oracle-{key}.npz"
    if path.exists():
        with np.load(path) as z:
            return GridPosterior(axes=[z[f"axis{j}"] for j in range(model.dim)],
                                 density=z["density"], log_unnorm=z["log_unnorm"])
    grid = grid_posterior(model, model.domain, weight, ORACLE_GRID, observations)
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, density=grid.density, log_unnorm=grid.log_unnorm,
             **{f"axis{j}": a for j, a in enumerate(grid.axes)})
    tmp.replace(path)
    return grid


def reference_checks(name: str, state, rec: dict, grid):
    """The call's distance to the oracle or the preset truth, outside the
    timed call, checked on elast only; drops the call's result and returns
    what pooled_checks needs of it."""
    import numpy as np
    from gibbsrb.diagnostics import ks_distance
    cfg, model, observations, weight = state
    domain = model.domain
    result = rec.pop("result")
    if name == "smc-adv1d":
        p = result.particles
        rec["ks_max"] = float(max(ks_distance(p, grid, j) for j in range(model.dim)))
        return p.points, p.weights
    if name == "smc-elast-layered":
        p = result.particles
        mean = p.weights @ p.points
        dist = float(np.linalg.norm((mean - model.truth_default) / domain.widths))
        rec["truth_distance"] = dist
        rec["checks"][f"mean within {TRUTH_BOUND} of truth"] = dist < TRUTH_BOUND
        return None
    mean = result.samples.mean(axis=0)
    rec["oracle_mean_gap"] = float(np.max(np.abs(mean - grid.mean()) / domain.widths))
    return mean


def pooled_checks(name: str, state, runs: list, pooled: list, grid) -> None:
    """The run's calls pooled against the oracle: the particle clouds, each
    weighted 1/n, or the chain means (every chain has as many samples).
    With at least POOLED_CALLS calls the check is added to every call."""
    import numpy as np
    from gibbsrb.diagnostics import ks_distance
    from gibbsrb.particles import ParticleSet
    cfg, model, observations, weight = state
    n = len(pooled)
    if n < POOLED_CALLS or name not in ("smc-adv1d", "rwmh-adv1d"):
        return
    if name == "smc-adv1d":
        cloud = ParticleSet(np.vstack([pts for pts, w in pooled]),
                            np.concatenate([w for pts, w in pooled]) / n)
        value = max(ks_distance(cloud, grid, j) for j in range(model.dim))
        key, passed = f"KS of {n} pooled clouds < {KS_BOUND}", value < KS_BOUND
    else:
        mean = np.mean(pooled, axis=0)
        value = float(np.max(np.abs(mean - grid.mean()) / model.domain.widths))
        key = f"mean of {n} chains within {POOLED_MEAN_BOUND} of oracle"
        passed = value < POOLED_MEAN_BOUND
    for rec in runs:
        if "error" not in rec:
            rec["pooled"] = float(value)
            rec["checks"][key] = bool(passed)


def blas_info() -> dict:
    """OpenBLAS build and its effective thread count, read through ctypes."""
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = fn()
                return info
    return info


def environment() -> dict:
    import platform
    import numpy as np
    import scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_info(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def timed_runs(name: str, state, seed: int, n_calls: int, grid) -> list:
    """One call per sampler seed seed*1000 + i, i < n_calls; each record is
    checked, and its result dropped, before the next call."""
    from gibbsrb import localrb
    tally = count_cell_builds(localrb.Surrogate)
    runs, pooled = [], []
    for sampler_seed in range(seed * 1000, seed * 1000 + n_calls):
        n_builds = len(tally)
        try:
            rec = run_once(name, state, sampler_seed)
        except Exception as exc:  # a call that raises counts as failed
            rec = {"sampler_seed": sampler_seed, "checks": {},
                   "error": f"{type(exc).__name__}: {exc}"}
        rec["cell_builds"] = len(tally) - n_builds
        if "result" in rec:
            sample = reference_checks(name, state, rec, grid)
            if sample is not None:
                pooled.append(sample)
        runs.append(rec)
    pooled_checks(name, state, runs, pooled, grid)
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()
        timings, state = setup(workload, after_import=lambda: layers.install(tracer))
    else:
        timings, state = setup(workload)
    out = {"setup": timings}
    if not args.setup_only:
        grid = oracle(state) if workload["config"] == "adv1d.yaml" else None
        n_calls = max(1, int(args.seconds // workload["call_s"]))
        runs = timed_runs(args.workload, state, args.seed, n_calls, grid)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.restore()
            if all("error" not in rec for rec in runs):
                out["layers"] = layers.metrics(tracer, runs, timings)
                out["self_coverage"] = out["layers"].pop("trace.self_coverage")
                for rec in runs:
                    rec["checks"]["self times cover each call"] = (
                        out["self_coverage"] >= 1 - 1e-9)
        for rec in runs:
            rec["ok"] = "error" not in rec and all(rec["checks"].values())
        out.update(runs=runs, environment=environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
