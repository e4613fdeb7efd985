#!/usr/bin/env python3
"""Elastography experiments: posterior vs noise level for both modulus
layouts.  Each noise level runs SMC at the Gaussian-reference weight for
the generated data and reports the per-parameter posterior spread."""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gibbsrb import assemble, gen_data  # noqa: E402
from gibbsrb.runio import write_json  # noqa: E402
from gibbsrb.smc import SmcConfig, run_smc  # noqa: E402
from gibbsrb.weights import gaussian_reference  # noqa: E402


def run(layout: str, seed: int, out: Path, nx: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    model = assemble(f"elast2d_{layout}", {"nx": nx})
    rows = []
    for pct in (0.05, 0.10, 0.20):
        obs = gen_data(model, noise_pct=pct, n=1, seed=seed)
        cfg = SmcConfig(particles=100, total_weight=gaussian_reference(obs.eps_std),
                        e_thre_mode="loss_std_fraction", e_thre_fraction=0.05,
                        max_iterations=80, seed=seed)
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
    out = Path(args.out or f"results/elast_{args.layout}")
    run(args.layout, args.seed, out, args.nx)
