#!/usr/bin/env python3
"""Sweep the surrogate's neighbour count N on one config.

Each cell's basis holds its atom's snapshot and gradients plus the
snapshots of its N nearest atoms.  For each N this runs the config's SMC
over the given sampler seeds (data seed 0, one BLAS thread) and prints one
markdown table row: atoms and full solves (mean and range), cell builds
(mean), median wall time, the pooled posterior mean and standard deviation
of each marginal, and, for M <= 3, each marginal's KS distance of the
pooled clouds to the grid posterior.  The pooled cloud gives every run's
particles 1/seeds of their weight.

    python scripts/sweep_neighbors.py --config configs/adv1d.yaml
    python scripts/sweep_neighbors.py --config configs/adv2d.yaml --grid 24 --seeds 0 1 2 3
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gibbsrb.config import (RunConfig, build_model, build_observations,  # noqa: E402
                            resolve_total_weight)
from gibbsrb.diagnostics import ks_distance  # noqa: E402
from gibbsrb.localrb import Surrogate  # noqa: E402
from gibbsrb.oracle import DEFAULT_GRID, grid_posterior  # noqa: E402
from gibbsrb.particles import ParticleSet  # noqa: E402
from gibbsrb.runio import pin_blas_threads  # noqa: E402
from gibbsrb.smc import run_smc  # noqa: E402

NEIGHBORS = (2, 5, 8, 12, 20, 30)
DATA_SEED = 0


class CountingSurrogate(Surrogate):
    """A Surrogate that counts its cell builds."""

    cell_builds = 0

    def _build_cell(self, k):
        self.cell_builds += 1
        return super()._build_cell(k)


def _span(values) -> str:
    values = np.asarray(values, dtype=float)
    return f"{values.mean():.2f} [{values.min():g}–{values.max():g}]"


def sweep_row(model, obs, smc_cfg, n: int, seeds, grid) -> dict:
    """Runs at neighbour count n, one per sampler seed, summarised."""
    atoms, full, builds, walls, clouds = [], [], [], [], []
    for seed in seeds:
        cfg = replace(smc_cfg, neighbor_count=n, seed=seed)
        surrogate = CountingSurrogate(model, neighbor_count=n)
        t0 = time.perf_counter()
        result = run_smc(model, obs, cfg, surrogate=surrogate)
        walls.append(time.perf_counter() - t0)
        atoms.append(surrogate.n_atoms)
        full.append(result.solve_counts["full"])
        builds.append(surrogate.cell_builds)
        clouds.append(result.particles)
    pooled = ParticleSet(np.vstack([c.points for c in clouds]),
                         np.concatenate([c.weights for c in clouds]) / len(clouds))
    mean = pooled.weights @ pooled.points
    std = np.sqrt(pooled.weights @ (pooled.points - mean) ** 2)
    row = {"N": str(n), "atoms": _span(atoms), "full solves": _span(full),
           "cell builds": f"{np.mean(builds):.1f}",
           "wall s (median)": f"{np.median(walls):.3f}"}
    for j in range(model.dim):
        row[f"xi_{j + 1} mean ± std"] = f"{mean[j]:.4f} ± {std[j]:.4f}"
    if grid is not None:
        for j in range(model.dim):
            row[f"KS xi_{j + 1}"] = f"{ks_distance(pooled, grid, j):.3f}"
    return row


def sweep(config: RunConfig, neighbors, seeds, grid_size: int) -> list:
    """One row per neighbour count; the grid posterior (M <= 3, grid_size
    nodes per axis, 0 for none) is the KS reference."""
    model = build_model(config)
    obs = build_observations(config, model, DATA_SEED)
    smc_cfg = replace(config.smc, total_weight=resolve_total_weight(config, obs))
    grid = None
    if grid_size and model.dim <= 3:
        grid = grid_posterior(model, model.domain, smc_cfg.total_weight, grid_size, obs)
    return [sweep_row(model, obs, smc_cfg, n, seeds, grid) for n in neighbors]


def format_table(rows: list) -> str:
    cols = list(rows[0])
    lines = ["| " + " | ".join(cols) + " |", "|" + " --- |" * len(cols)]
    lines += ["| " + " | ".join(row[c] for c in cols) + " |" for row in rows]
    return "\n".join(lines)


def _mesh_item(text: str):
    key, _, value = text.partition("=")
    return key, int(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="YAML run config")
    ap.add_argument("--neighbors", type=int, nargs="+", default=list(NEIGHBORS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                    help="sampler seeds (the data seed is 0)")
    ap.add_argument("--particles", type=int, default=None, help="override smc.particles")
    ap.add_argument("--mesh", type=_mesh_item, action="append", default=[],
                    metavar="KEY=INT", help="override a model.mesh entry, e.g. nx=16")
    ap.add_argument("--grid", type=int, default=DEFAULT_GRID,
                    help="grid oracle nodes per axis (0: no KS)")
    args = ap.parse_args(argv)
    pin_blas_threads()
    config = RunConfig.from_yaml(args.config)
    config.mesh = {**config.mesh, **dict(args.mesh)}
    if args.particles is not None:
        config.smc = replace(config.smc, particles=args.particles)
    print(f"{args.config}: mesh {config.mesh}, {config.smc.particles} particles, "
          f"sampler seeds {args.seeds}, data seed {DATA_SEED}, "
          f"oracle grid {args.grid or 'none'}")
    print(format_table(sweep(config, args.neighbors, args.seeds, args.grid)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
