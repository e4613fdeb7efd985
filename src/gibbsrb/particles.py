"""Weighted particle sets and the Gibbs reweighting update.

The update multiplies each weight by exp(-dW * loss_i) and renormalizes.
It is computed in log space with a min-loss shift so large dW * loss never
overflows; the shifted form is mathematically identical because constant
loss offsets cancel in the normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ParameterDomain
from .runio import read_csv, write_csv

VARIANCE_FLOOR_FRACTION = 1e-12  # of squared box width, per dimension


@dataclass
class ParticleSet:
    """m weighted points; weights sum to one."""

    points: np.ndarray    # (m, M)
    weights: np.ndarray   # (m,)
    generation: int = 0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.shape[0] != self.weights.size:
            raise ValueError("points/weights size mismatch")
        if self.points.shape[0] < 2:
            raise ValueError("need at least 2 particles")
        if np.any(self.weights < 0):
            raise ValueError("negative weight")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, not 1")

    @classmethod
    def equal_weight(cls, points, generation: int = 0) -> "ParticleSet":
        """The points, each weighted 1/m."""
        return cls(points, np.full(len(points), 1.0 / len(points)), generation)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        write_csv(path, [f"xi_{j + 1}" for j in range(self.dim)] + ["weight", "generation"],
                  ([*row, wt, self.generation] for row, wt in zip(self.points, self.weights)))

    @classmethod
    def from_csv(cls, path) -> "ParticleSet":
        _, table = read_csv(path)
        wts = table[:, -2]
        return cls(table[:, :-2], wts / wts.sum(), int(table[0, -1]))


def log_reweight(log_weights: np.ndarray, losses: np.ndarray, delta_w: float) -> np.ndarray:
    """Normalized log-weights after one Gibbs increment."""
    losses = np.asarray(losses, dtype=float)
    return normalize_log(log_weights - delta_w * (losses - losses.min()))


def normalize_log(lw: np.ndarray) -> np.ndarray:
    """lw less its log-sum-exp, in place: log-weights whose exponentials sum to one."""
    mx = lw.max()
    if not np.isfinite(mx):
        raise FloatingPointError("all weights vanished in reweighting")
    lw -= mx + np.log(np.exp(lw - mx).sum())
    return lw


def reweight(particles: ParticleSet, losses: np.ndarray, delta_w: float) -> ParticleSet:
    """Gibbs update of the weights by exp(-delta_w * loss_i); points unchanged."""
    if delta_w < 0:
        raise ValueError("delta_w must be >= 0")
    losses = np.asarray(losses, dtype=float)
    if losses.shape != (particles.m,):
        raise ValueError("one loss value per particle required")
    if not np.all(np.isfinite(losses)) or np.any(losses < 0):
        raise ValueError("losses must be finite and nonnegative")
    with np.errstate(divide="ignore"):
        lw = log_reweight(np.log(particles.weights), losses, delta_w)
    w = np.exp(lw)
    assert w.sum() > 0, "reweighting produced an all-zero weight vector"
    return ParticleSet(particles.points, w / w.sum(), particles.generation)


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum(w_i^2); in [1, m] for normalized weights."""
    w = np.asarray(weights, dtype=float)
    return float(1.0 / (w**2).sum())


def empirical_moments(particles: ParticleSet, domain: ParameterDomain):
    """Weighted per-dimension mean and variance.

    The variance is floored at a tiny fraction of the squared box width so a
    degenerate particle cloud still yields a usable proposal scale.
    """
    w = particles.weights
    mean = w @ particles.points
    var = w @ (particles.points - mean) ** 2
    floor = VARIANCE_FLOOR_FRACTION * domain.widths**2
    return mean, np.maximum(var, floor)


def kl_reweighted(particles: ParticleSet, losses_exact: np.ndarray,
                  losses_surrogate: np.ndarray, weight: float) -> float:
    """KL(surrogate-reweighted || exact-reweighted) from a common particle set."""
    with np.errstate(divide="ignore"):
        lw0 = np.log(particles.weights)
    lw_exact = log_reweight(lw0, np.asarray(losses_exact, dtype=float), weight)
    lw_surr = log_reweight(lw0, np.asarray(losses_surrogate, dtype=float), weight)
    w_surr = np.exp(lw_surr)
    mask = w_surr > 0
    return float(np.sum(w_surr[mask] * (lw_surr[mask] - lw_exact[mask])))
