"""Brute-force tensor-grid posterior for low-dimensional cross checks.

Evaluates exp(-W * loss(xi)) * prior(xi) on a full grid with one
high-fidelity solve per node and normalizes by the trapezoid rule.  Only
feasible for M <= 3; used as the independent reference for the particle
methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_GRID_NODES = 1_000_000
DEFAULT_GRID = 60  # nodes per axis; the oracle command's --grid overrides it


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights for the nodes x of one axis."""
    w = np.empty_like(x)
    w[1:-1] = (x[2:] - x[:-2]) / 2.0
    w[0] = (x[1] - x[0]) / 2.0
    w[-1] = (x[-1] - x[-2]) / 2.0
    return w


@dataclass
class GridPosterior:
    axes: list          # per-dimension node arrays
    density: np.ndarray  # normalized density on the tensor grid
    log_unnorm: np.ndarray | None = None  # unnormalized log density, if kept

    @property
    def dim(self) -> int:
        return len(self.axes)

    def marginal_density(self, j: int) -> np.ndarray:
        # integrate out every other axis, highest first so indices stay valid
        dens = self.density
        for k in sorted(set(range(self.dim)) - {j}, reverse=True):
            dens = np.tensordot(dens, _trapezoid_weights(self.axes[k]), axes=([k], [0]))
            if k < j:
                j -= 1
        return dens

    def marginal_masses(self, j: int):
        """(nodes, trapezoid masses) of the j-th marginal: the expectation of
        f(xi_j) is the sum of masses * f(nodes)."""
        x = self.axes[j]
        return x, _trapezoid_weights(x) * self.marginal_density(j)

    def marginal_cdf(self, j: int):
        """(nodes, cdf) of the j-th marginal, trapezoid-integrated."""
        x = self.axes[j]
        dens = self.marginal_density(j)
        cdf = np.zeros_like(x)
        cdf[1:] = np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))
        if cdf[-1] > 0:
            cdf = cdf / cdf[-1]
        return x, cdf

    def mean(self) -> np.ndarray:
        masses = map(self.marginal_masses, range(self.dim))
        return np.array([np.sum(mass * x) for x, mass in masses])

    def marginal_std(self) -> np.ndarray:
        masses = map(self.marginal_masses, range(self.dim))
        # each mean summed as mean() sums it
        var = [np.sum(mass * (x - np.sum(mass * x)) ** 2) for x, mass in masses]
        return np.sqrt(np.maximum(var, 0.0))


def grid_posterior(model, domain, weight: float, grid_shape, observations) -> GridPosterior:
    """Tensor-grid Gibbs posterior of model.loss, one full solve per node."""
    grid_shape = tuple(int(g) for g in np.atleast_1d(grid_shape))
    if len(grid_shape) == 1:
        grid_shape = grid_shape * domain.dim
    if len(grid_shape) != domain.dim:
        raise ValueError("grid shape rank != parameter dimension")
    if domain.dim > 3:
        raise ValueError("grid oracle is limited to M <= 3")
    for j, g in enumerate(grid_shape):
        if g < 2:  # the trapezoid rule needs both ends of an axis
            raise ValueError(f"grid axis xi_{j + 1} needs at least 2 nodes, got {g}")
    n_nodes = int(np.prod(grid_shape))
    if n_nodes > MAX_GRID_NODES:
        raise ValueError(f"grid too large: {n_nodes} > {MAX_GRID_NODES} nodes")

    axes = [np.linspace(lo, hi, g) for lo, hi, g in
            zip(domain.lower, domain.upper, grid_shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])

    log_prior = domain.log_pdf(pts)
    if np.any(log_prior == np.inf):  # a Beta prior with p or q below 1, at a box edge
        node = pts[np.argmax(log_prior)].tolist()
        raise ValueError(f"unnormalized log density is +inf at node xi = {node}")
    losses = np.array([model.loss(xi, observations) if np.isfinite(lp) else 0.0
                       for xi, lp in zip(pts, log_prior)])
    log_un = (-weight * losses + log_prior).reshape(grid_shape)

    shift = np.max(log_un)
    dens = np.exp(log_un - shift)
    norm = dens
    for j in reversed(range(len(axes))):
        norm = np.tensordot(norm, _trapezoid_weights(axes[j]), axes=([j], [0]))
    dens = dens / float(norm)
    return GridPosterior(axes=axes, density=dens, log_unnorm=log_un)
