"""Command-line front end.

Subcommands: run-smc, run-mcmc, select-weight, oracle, compare.  Every run
is reproducible from (config file, master seed); artifacts land in the
--out directory with a JSON manifest.  Each command imports its sampler
modules itself, so run-mcmc, oracle and compare never load the surrogate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, build_model, build_observations, resolve_total_weight
from .diagnostics import bound_suite, h_proxy, ks_distance, marginal_cdf
from .domain import ParameterDomain
from .oracle import GridPosterior
from .particles import ParticleSet
from .runio import pin_blas_threads, read_csv, read_json, write_csv, write_json, write_manifest


def _write_marginal_cdfs(out: Path, dist, dim: int) -> None:
    write_csv(out / "marginal_cdfs.csv", ["dimension", "x", "cdf"],
              ([j + 1, x, c] for j in range(dim) for x, c in zip(*marginal_cdf(dist, j))))


def _prepare(args):
    config = RunConfig.from_yaml(args.config)
    if args.seed is not None:
        config.smc = replace(config.smc, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model = build_model(config)
    observations = build_observations(config, model, config.smc.seed)
    return config, model, observations, out


def cmd_run_smc(args) -> int:
    from .localrb import AtomBudgetError
    from .smc import HISTORY_COLUMNS, SmcIterationError, run_smc
    config, model, observations, out = _prepare(args)
    w_total = resolve_total_weight(config, observations)
    smc_cfg = replace(config.smc, total_weight=w_total)
    counts0 = model.counters.snapshot()
    manifest = {"command": "run-smc", "status": "ok"}
    t0 = time.perf_counter()
    try:
        result = run_smc(model, observations, smc_cfg)
        history = result.history
    except (AtomBudgetError, SmcIterationError) as exc:
        # a failed run still leaves the iterations it finished and the reason
        result, history = None, exc.history
        manifest.update(status="failed", error=f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    counts = model.counters.snapshot()
    table = [{c: getattr(r, c) for c in HISTORY_COLUMNS} for r in history]
    manifest.update(iterations=len(history), wall_time_s=wall,
                    solve_counts={k: counts[k] - counts0[k] for k in counts},
                    iteration_table=table)
    write_csv(out / "history.csv", HISTORY_COLUMNS, (row.values() for row in table))
    if result is None:
        write_manifest(out / "manifest.json", config=config, seed=smc_cfg.seed,
                       model=model, extra=manifest)
        print(f"run-smc FAILED: {manifest['error']}", file=sys.stderr)
        return 1

    result.particles.to_csv(out / "particles.csv")
    for k, snap in enumerate(result.snapshots):
        snap.to_csv(out / f"particles_iter_{k:03d}.csv")
    write_csv(out / "iteration_losses.csv", ["t", "particle", "surrogate_loss"],
              ([rec.t, i, v] for rec in history for i, v in enumerate(rec.losses)))
    write_csv(out / "atoms.csv", ["atom", *[f"xi_{j + 1}" for j in range(model.dim)]],
              ([k, *atom.location] for k, atom in enumerate(result.surrogate.atoms)))
    observations.to_csv(out / "observations.csv")
    _write_marginal_cdfs(out, result.particles, model.dim)

    verified = None
    if args.verify:
        report = bound_suite(result, model, observations, seed=smc_cfg.seed)
        report.to_json(out / "bound_report.json")
        verified = report.passed

    manifest.update(final_weight=result.final_weight,
                    reduced_solves=result.surrogate.reduced_solves,
                    cell_builds=result.surrogate.cell_builds,
                    atoms=result.surrogate.n_atoms, bound_suite_passed=verified)
    write_manifest(out / "manifest.json", config=config, seed=smc_cfg.seed,
                   model=model, extra=manifest)
    print(f"run-smc: W={result.final_weight:g} in {result.iterations} iterations, "
          f"{result.solve_counts['full']} full solves, wall {wall:.2f}s")
    if verified is False:
        print("bound suite FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_run_mcmc(args) -> int:
    from .mcmc import run_rwmh
    config, model, observations, out = _prepare(args)
    w_total = resolve_total_weight(config, observations)
    t0 = time.perf_counter()
    chain = run_rwmh(model, observations, w_total,
                     n_samples=config.mcmc.samples, burn_in=config.mcmc.burn_in,
                     step_scale=config.mcmc.step_scale, seed=config.smc.seed)
    wall = time.perf_counter() - t0
    chain.to_csv(out / "chain.csv")
    _write_marginal_cdfs(out, ParticleSet.equal_weight(chain.samples), model.dim)
    observations.to_csv(out / "observations.csv")
    write_manifest(out / "manifest.json", config=config, seed=config.smc.seed,
                   model=model, extra={
        "command": "run-mcmc",
        "weight": w_total,
        "acceptance_rate": chain.acceptance_rate,
        "full_solves": chain.full_solves,
        "wall_time_s": wall,
    })
    print(f"run-mcmc: {chain.samples.shape[0]} samples, acceptance {chain.acceptance_rate:.3f}, "
          f"{chain.full_solves} full solves, wall {wall:.2f}s")
    return 0


def cmd_select_weight(args) -> int:
    from .weights import evaluate_grid_via_smc
    config, model, observations, out = _prepare(args)
    t0 = time.perf_counter()
    sel = evaluate_grid_via_smc(model, observations, config.smc)
    wall = time.perf_counter() - t0
    write_csv(out / "weight_table.csv", ["weight", "objective"],
              zip(sel.grid, sel.objectives))
    write_manifest(out / "manifest.json", config=config, seed=config.smc.seed,
                   model=model, extra={
        "command": "select-weight",
        "w_final": sel.w_final, "w_opt": sel.w_opt, "w_ref": sel.w_ref,
        "n_effective": sel.n_effective, "eps_std": observations.eps_std,
        "wall_time_s": wall,
    })
    print(f"select-weight: W_final={sel.w_final:g} (W_opt={sel.w_opt:g}, "
          f"W_ref={sel.w_ref:g}), wall {wall:.2f}s")
    return 0


def cmd_oracle(args) -> int:
    from .oracle import DEFAULT_GRID, grid_posterior
    config, model, observations, out = _prepare(args)
    w_total = resolve_total_weight(config, observations)
    shape = args.grid or (DEFAULT_GRID,)
    t0 = time.perf_counter()
    post = grid_posterior(model, model.domain, w_total, shape, observations)
    wall = time.perf_counter() - t0
    _write_marginal_cdfs(out, post, post.dim)
    np.save(out / "density.npy", post.density)
    mesh = np.meshgrid(*post.axes, indexing="ij")
    write_csv(out / "density.csv", [f"xi_{j + 1}" for j in range(post.dim)] + ["density"],
              np.column_stack([m.ravel() for m in mesh] + [post.density.ravel()]))
    write_manifest(out / "manifest.json", config=config, seed=config.smc.seed,
                   model=model, extra={
        "command": "oracle", "weight": w_total, "grid": list(shape),
        "posterior_mean": [float(v) for v in post.mean()],
        "posterior_std": [float(v) for v in post.marginal_std()],
        "wall_time_s": wall,
    })
    print(f"oracle: grid {shape}, wall {wall:.2f}s")
    return 0


def _load_distribution(flag: str, run_dir: Path, kind=(ParticleSet, GridPosterior)):
    """The oracle grid posterior, equal-weight chain or SMC particles of the run
    directory given to compare's flag; a one-line exit where it holds none of kind."""
    dist, found = None, "it holds no manifest.json"
    try:
        command = read_json(run_dir / "manifest.json").get("command")
        found = f"its manifest records command {command!r}"
        if command == "oracle":
            nodes = read_csv(run_dir / "marginal_cdfs.csv")[1]
            axes = [nodes[nodes[:, 0] == j, 1] for j in np.unique(nodes[:, 0])]
            dist = GridPosterior(axes, np.load(run_dir / "density.npy"))
        elif command == "run-mcmc":
            dist = ParticleSet.equal_weight(read_csv(run_dir / "chain.csv")[1])
        elif command == "run-smc":
            dist = ParticleSet.from_csv(run_dir / "particles.csv")
    except FileNotFoundError:
        pass
    if not isinstance(dist, kind):
        wanted = "particle set" if kind is ParticleSet else "reference distribution"
        sys.exit(f"compare: {flag} {run_dir} holds no {wanted}; {found}")
    return dist


def cmd_compare(args) -> int:
    runs = [_load_distribution("--run", Path(r), ParticleSet) for r in args.run]
    ref = _load_distribution("--ref", Path(args.ref))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lo = np.min([r.points.min(axis=0) for r in runs], axis=0)
    hi = np.max([r.points.max(axis=0) for r in runs], axis=0)
    pad = 1e-9 + 1e-9 * (hi - lo)
    domain = ParameterDomain(lo - pad - 1e-6, hi + pad + 1e-6)

    ks = {f"xi_{j + 1}": [ks_distance(r, ref, j) for r in runs] for j in range(runs[0].dim)}
    report = {"ks_per_run": ks,
              "ks_median": {k: float(np.median(v)) for k, v in ks.items()}}
    if len(runs) >= 2:
        report["h_proxy"] = h_proxy(runs, ref, domain)
    write_json(out / "report.json", report)
    print(json.dumps(report["ks_median"], indent=2, sort_keys=True))
    return 0


def _grid_shape(text: str) -> tuple:
    """Nodes per axis, e.g. 60x60; grid_posterior checks their count and size."""
    try:
        return tuple(int(g) for g in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers joined by x, not {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gibbsrb",
                                description="Gibbs-posterior inference for PDE "
                                            "inverse problems")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="YAML run config")
        sp.add_argument("--seed", type=int, default=None, help="master seed override")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("run-smc", help="adaptive SMC pipeline")
    common(sp)
    sp.add_argument("--verify", action="store_true",
                    help="audit the run with the bound suite (extra full solves)")
    sp.set_defaults(fn=cmd_run_smc)

    sp = sub.add_parser("run-mcmc", help="random-walk MH reference chain")
    common(sp)
    sp.set_defaults(fn=cmd_run_mcmc)

    sp = sub.add_parser("select-weight", help="loss-weight calibration pipeline")
    common(sp)
    sp.set_defaults(fn=cmd_select_weight)

    sp = sub.add_parser("oracle", help="tensor-grid posterior (M <= 3)")
    common(sp)
    sp.add_argument("--grid", type=_grid_shape, default=None,
                    help="nodes per axis, e.g. 60x60 (default: oracle.DEFAULT_GRID)")
    sp.set_defaults(fn=cmd_oracle)

    sp = sub.add_parser("compare", help="KS / h-proxy report between runs")
    sp.add_argument("--run", action="append", required=True,
                    help="run directory (repeatable)")
    sp.add_argument("--ref", required=True, help="reference run/oracle directory")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    # small dense kernels dominate; BLAS threading only adds overhead
    pin_blas_threads()
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
