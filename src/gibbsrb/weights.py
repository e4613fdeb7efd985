"""Loss-weight calibration by residual matching.

Candidate weights live on a log grid around the Gaussian-reference value
1 / (2 sigma^2); each candidate is scored by how well the posterior-mean
prediction residuals reproduce the known noise statistics (discrepancy
principle), and the final weight shrinks the optimizer toward the
Gaussian reference when few observations are available.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import gaussian_reference
from .smc import SmcConfig, SmcResult, replay_consistency, run_smc

RANGE_FACTOR = 50.0  # T: the grid spans w_ref times [1/T, T]
STABILIZER = 10.0    # S: the final weight's shrinkage toward w_ref
GRID_SIZE = 20       # log-spaced candidates, before w_ref joins them


class WeightSelectionError(RuntimeError):
    """Noise statistics cannot be estimated; fall back to the Gaussian reference."""


@dataclass
class SelectionResult:
    w_final: float
    w_opt: float
    w_ref: float
    grid: np.ndarray
    objectives: np.ndarray
    n_effective: int
    smc_result: SmcResult | None = field(default=None, repr=False)


def candidate_grid(eps_std: float) -> np.ndarray:
    """Log-spaced candidates on [w_ref / T, w_ref * T], always containing w_ref."""
    w_ref = gaussian_reference(eps_std)
    grid = np.geomspace(w_ref / RANGE_FACTOR, w_ref * RANGE_FACTOR, GRID_SIZE)
    if not np.any(np.isclose(grid, w_ref, rtol=1e-9)):
        grid = np.sort(np.append(grid, w_ref))
    return grid


def _residual_stats(residuals: np.ndarray, eps_mean: float):
    """(mean term, std term) with per-channel vectors reduced by rms."""
    n = residuals.shape[0]
    mean_vec = residuals.mean(axis=0)
    mean_stat = float(np.sqrt(np.mean(mean_vec**2)))
    std_vec = np.sqrt(np.sum((residuals - eps_mean) ** 2, axis=0) / (n - 1))
    std_stat = float(np.sqrt(np.mean(std_vec**2)))
    return mean_stat, std_stat


def effective_n(observations) -> int:
    """Replicate count feeding the stabilized average: the number of
    observation vectors, or the channel count when only one vector exists
    (channels then serve as the iid pool for the noise statistics)."""
    if observations.n >= 2:
        return observations.n
    if observations.n_channels >= 2:
        return observations.n_channels
    raise WeightSelectionError("need n >= 2 observations or >= 2 channels")


def residual_objective(posterior_mean: np.ndarray, model, observations) -> float:
    """Discrepancy between posterior-mean prediction residuals and the
    known noise statistics; one full solve per call."""
    if observations.eps_std <= 0:
        raise WeightSelectionError("eps_std must be positive for weight selection")
    predicted = model.observe(model.solve_full(np.asarray(posterior_mean, dtype=float)))
    residuals = predicted[None, :] - observations.data  # (n, D)
    if observations.n >= 2:
        mean_stat, std_stat = _residual_stats(residuals, observations.eps_mean)
    elif observations.n_channels >= 2:
        # single observation vector: the channels serve as the iid pool
        r = residuals[0]
        mean_stat = float(np.mean(r))
        std_stat = float(np.sqrt(np.sum((r - observations.eps_mean) ** 2) / (r.size - 1)))
    else:
        raise WeightSelectionError("deviation term undefined for a single scalar datum")
    return (abs(mean_stat - observations.eps_mean)
            + abs(std_stat - observations.eps_std)) / observations.eps_std


def select_weight(grid: np.ndarray, objectives: np.ndarray, n_effective: int,
                  eps_std: float) -> tuple[float, float]:
    """(final stabilized weight, grid optimizer); ties take the smaller W."""
    grid = np.asarray(grid, dtype=float)
    objectives = np.asarray(objectives, dtype=float)
    if grid.shape != objectives.shape:
        raise ValueError("grid/objective shape mismatch")
    w_opt = float(grid[int(np.argmin(objectives))])
    w_ref = gaussian_reference(eps_std)
    S = STABILIZER
    n = n_effective
    w_final = S / (S + n - 1) * w_ref + (n - 1) / (S + n - 1) * w_opt
    # the rounded blend can land an ulp outside its endpoints
    lo, hi = min(w_ref, w_opt), max(w_ref, w_opt)
    return min(max(float(w_final), lo), hi), w_opt


def evaluate_grid_via_smc(model, observations, smc_config: SmcConfig) -> SelectionResult:
    """Score every candidate from a single SMC pass to the grid maximum.

    As the accumulated weight crosses a candidate, the posterior mean at
    exactly that candidate is recovered by replaying the latest iteration
    snapshot at or below it with the final surrogate (coherence makes the
    replayed update exact; the candidates that share a snapshot score it
    once); each candidate then costs one full solve for its residuals.
    """
    grid = candidate_grid(observations.eps_std)
    n_eff = effective_n(observations)

    cfg = replace(smc_config, total_weight=float(grid.max()))
    result = run_smc(model, observations, cfg)

    boundaries = [0.0] + [rec.w_after for rec in result.history]
    snaps = np.searchsorted(boundaries, grid, side="right") - 1
    objectives = np.empty(grid.size)
    for k in dict.fromkeys(snaps.tolist()):
        clouds = replay_consistency(result.surrogate, observations, result.snapshots[k],
                                    grid[snaps == k] - boundaries[k])
        objectives[snaps == k] = [residual_objective(c.weights @ c.points, model, observations)
                                  for c in clouds]

    w_final, w_opt = select_weight(grid, objectives, n_eff, observations.eps_std)
    return SelectionResult(w_final=w_final, w_opt=w_opt,
                           w_ref=gaussian_reference(observations.eps_std),
                           grid=grid, objectives=objectives,
                           n_effective=n_eff, smc_result=result)
