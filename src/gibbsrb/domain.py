"""Parameter domain: box bounds and per-dimension independent priors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PriorSpec:
    """Independent prior for one parameter dimension on [lower, upper].

    kind 'uniform' ignores (p, q); kind 'beta' is a Beta(p, q) density
    rescaled from [0, 1] to the interval.
    """

    kind: str = "uniform"
    p: float = 1.0
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "beta"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "beta" and (self.p <= 0 or self.q <= 0):
            raise ValueError("beta prior needs p, q > 0")


@dataclass(frozen=True)
class ParameterDomain:
    """Box-bounded parameter space with an analytic per-dimension prior."""

    lower: np.ndarray
    upper: np.ndarray
    priors: tuple[PriorSpec, ...] = field(default=())

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("need lower[j] < upper[j] for all j")
        if not self.priors:
            object.__setattr__(self, "priors", tuple(PriorSpec() for _ in lower))
        if len(self.priors) != lower.size:
            raise ValueError("one PriorSpec per dimension required")
        uniform_log_pdf = None  # the log density inside an all-uniform box
        if all(spec.kind == "uniform" for spec in self.priors):
            uniform_log_pdf = 0.0
            for w in self.widths:  # in log_pdf's order, so the same float
                uniform_log_pdf += -np.log(w)
            # a Python float, so a one-point caller's arithmetic is float arithmetic
            uniform_log_pdf = float(uniform_log_pdf)
        object.__setattr__(self, "_uniform_log_pdf", uniform_log_pdf)
        object.__setattr__(self, "_box", tuple(zip(lower.tolist(), upper.tolist())))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.all((pts >= self.lower) & (pts <= self.upper), axis=1)

    def contains_point(self, point: np.ndarray) -> bool:
        """Whether one (M,) point lies in the closed box; a NaN coordinate
        does not.  Python floats compare a short point faster than numpy."""
        return all(lo <= x <= hi for (lo, hi), x in zip(self._box, point.tolist()))

    def scale(self, points: np.ndarray) -> np.ndarray:
        """Map points into box coordinates in [0, 1]^M."""
        return (np.asarray(points, dtype=float) - self.lower) / self.widths

    def log_pdf(self, points: np.ndarray) -> np.ndarray:
        """Log prior density; -inf outside the box.

        Per dimension, in dimension order, the same closed form and
        operation order as scipy's frozen uniform/beta ``logpdf``.  A
        boundary point where one marginal density is +inf and another is 0
        gets -inf (the sum of the logs would be NaN).  With every prior
        uniform that sum is one constant, formed at construction.
        """
        if self._uniform_log_pdf is not None:
            pts = np.asarray(points, dtype=float)
            if pts.ndim == 1:
                return self._uniform_log_pdf if self.contains_point(pts) else -math.inf
            inside = ((pts >= self.lower) & (pts <= self.upper)).all(axis=-1)
            return np.where(inside, self._uniform_log_pdf, -np.inf)[()]
        arr = np.asarray(points, dtype=float)
        pts = np.atleast_2d(arr)
        lp = np.zeros(pts.shape[0])
        inside = self.contains(pts)
        lp[~inside] = -np.inf
        with np.errstate(invalid="ignore"):  # +inf + -inf, mapped below
            for j, (spec, lo, w) in enumerate(zip(self.priors, self.lower, self.widths)):
                if spec.kind == "uniform":
                    lp[inside] += -np.log(w)
                    continue
                from scipy.special import betaln, xlog1py, xlogy  # beta priors only

                z = (pts[inside, j] - lo) / w
                term = xlog1py(spec.q - 1.0, -z) + xlogy(spec.p - 1.0, z)
                term -= betaln(spec.p, spec.q)
                lp[inside] += term - np.log(w)
        lp[np.isnan(lp)] = -np.inf
        return lp if arr.ndim > 1 else lp[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n iid prior draws, shape (n, M)."""
        cols = []
        for spec, lo, w in zip(self.priors, self.lower, self.widths):
            if spec.kind == "uniform":
                cols.append(lo + w * rng.random(n))
            else:
                cols.append(lo + w * rng.beta(spec.p, spec.q, size=n))
        return np.column_stack(cols)

