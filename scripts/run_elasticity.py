#!/usr/bin/env python3
"""Elastography experiments: posterior vs noise level for both modulus
layouts.  Each noise level runs the shipped configs/elast2d_{layout}.yaml
SMC settings at the Gaussian-reference weight for the generated data and
reports the per-parameter posterior spread."""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gibbsrb.config import (RunConfig, build_model, build_observations,  # noqa: E402
                            resolve_total_weight)
from gibbsrb.runio import pin_blas_threads, write_json  # noqa: E402
from gibbsrb.smc import run_smc  # noqa: E402


def run(layout: str, seed: int, out: Path, nx: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    config = RunConfig.from_yaml(ROOT / "configs" / f"elast2d_{layout}.yaml")
    config.mesh = {**config.mesh, "nx": nx}
    model = build_model(config)
    rows = []
    for pct in (0.05, 0.10, 0.20):
        config.data.noise_pct = pct
        obs = build_observations(config, model, seed)
        cfg = replace(config.smc, total_weight=resolve_total_weight(config, obs), seed=seed)
        res = run_smc(model, obs, cfg)
        res.particles.to_csv(out / f"particles_noise{int(pct * 100):02d}.csv")
        stds = res.particles.points.std(axis=0)
        rows.append({
            "noise_pct": pct,
            "weight": cfg.total_weight,
            "iterations": res.iterations,
            "full_solves": res.solve_counts["full"],
            "posterior_mean": [float(v) for v in res.particles.points.mean(axis=0)],
            "posterior_std": [float(v) for v in stds],
            "mean_posterior_std": float(stds.mean()),
        })
        print(f"{layout} noise={pct:.0%}: {res.iterations} iterations, "
              f"{res.solve_counts['full']} full solves, "
              f"mean posterior std {stds.mean():.4f}")
    write_json(out / "summary.json", rows)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--layout", choices=("layered", "inclusion"), default="layered")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nx", type=int, default=32)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    # small dense kernels dominate; BLAS threading only adds overhead, as
    # the gibbsrb commands pin it
    pin_blas_threads()
    out = Path(args.out or f"results/elast_{args.layout}")
    run(args.layout, args.seed, out, args.nx)
