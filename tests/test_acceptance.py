"""Acceptance gates: the paper's claims, checked on the shipped configs.

Each check prints one PASS or FAIL line with the quantities it measured
(``-s`` shows the lines of passing checks too).  Run the gates alone with

    PYTHONPATH=src python -m pytest -q -s -m acceptance
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gibbsrb.config import RunConfig, build_model, build_observations, resolve_total_weight
from gibbsrb.diagnostics import ks_distance
from gibbsrb.oracle import DEFAULT_GRID, grid_posterior
from gibbsrb.particles import ParticleSet
from gibbsrb.smc import run_smc

pytestmark = pytest.mark.acceptance

CONFIGS = Path(__file__).parents[1] / "configs"
SEEDS = (0, 1, 2, 3)
# Pooled over the 4 seeds, the largest per-marginal KS to the 60x60 grid
# read 0.061-0.092 on six disjoint 4-seed groups (sampler seeds 0-23) at
# N = 5 and at N = 12; the highest, 0.092, was seeds 0-3 at N = 12.  The
# bound adds 0.03, about the spread between those groups.
KS_BOUND = 0.12
BASELINE_NEIGHBORS = 5


def _report(name: str, passed: bool, measured: dict) -> str:
    line = f"{'PASS' if passed else 'FAIL'} {name}: " + ", ".join(
        f"{k} {v}" for k, v in measured.items())
    print(line)
    return line


def _pooled(clouds) -> ParticleSet:
    return ParticleSet(np.vstack([c.points for c in clouds]),
                       np.concatenate([c.weights for c in clouds]) / len(clouds))


def test_adv1d_shipped_neighbor_count_matches_oracle_at_half_the_full_solves():
    config = RunConfig.from_yaml(CONFIGS / "adv1d.yaml")
    model = build_model(config)
    obs = build_observations(config, model, 0)
    cfg = replace(config.smc, total_weight=resolve_total_weight(config, obs))
    grid = grid_posterior(model, model.domain, cfg.total_weight, DEFAULT_GRID, obs)

    def runs(n):
        return [run_smc(model, obs, replace(cfg, neighbor_count=n, seed=s)) for s in SEEDS]

    shipped = runs(cfg.neighbor_count)
    baseline = runs(BASELINE_NEIGHBORS)
    pooled = _pooled([r.particles for r in shipped])
    ks = [ks_distance(pooled, grid, j) for j in range(model.dim)]
    full = np.mean([r.solve_counts["full"] for r in shipped])
    full_base = np.mean([r.solve_counts["full"] for r in baseline])
    passed = max(ks) < KS_BOUND and full <= full_base / 2
    line = _report(
        f"adv1d at shipped N = {cfg.neighbor_count}, seeds {SEEDS}", passed,
        {"pooled KS": "/".join(f"{v:.3f}" for v in ks), "KS bound": KS_BOUND,
         "mean full solves": f"{full:.2f}",
         f"at N = {BASELINE_NEIGHBORS}": f"{full_base:.2f}"})
    assert passed, line
