"""Affinely parametrized discrete forward models.

A model is A(xi) u = f(xi) with A(xi) = sum_p theta_p(xi) A_p and
f(xi) = sum_q phi_q(xi) f_q, plus an observation matrix mapping the state
to measurement channels and a loss kind tying predictions to data.  The
coefficients are affine in xi, theta(xi) = theta_0 + xi @ d theta / d xi,
and A(xi) is assembled into a band fixed at construction, then factorized by
LAPACK's band LU with partial pivoting (dgbtrf/dgbtrs).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

LOSS_KINDS = ("squared_l2", "l1", "l2")


class SolverError(RuntimeError):
    """Singular or broken-down linear solve."""


class SolveCounters:
    """Counters for the different kinds of linear solves."""

    def __init__(self):
        self.full = 0
        self.sensitivity = 0
        # LU refactorizations of cell atoms (surrogate LU-cache misses); the
        # name is kept for the readers of the counter snapshot
        self.stability = 0

    def add(self, kind: str, n: int = 1) -> None:
        setattr(self, kind, getattr(self, kind) + n)

    def snapshot(self) -> dict:
        return {"full": self.full, "sensitivity": self.sensitivity,
                "stability": self.stability}


def _band_terms(terms: list, n: int):
    """Band half-widths (kl, ku) of the terms' union pattern, each union
    entry's position in the column-major (kl + ku + 1, n) band, and each
    term's values on the union as a (P, nnz) array with zeros where it has
    no entry.

    Band row ku + i - j holds A[i, j] in column j.  That is the data of a
    DIA array with offsets ku, ..., -kl, and rows kl .. 2 kl + ku of
    LAPACK's dgbtrf storage.
    """
    keys, values = [], []
    for T in terms:
        T = sp.csc_matrix(T, copy=True)
        T.sum_duplicates()
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(T.indptr))
        keys.append(cols * n + T.indices)  # column-major, the CSC order
        values.append(T.data)
    union = np.unique(np.concatenate(keys))
    stacked = np.zeros((len(terms), union.size))
    for p, (k, v) in enumerate(zip(keys, values)):
        stacked[p, np.searchsorted(union, k)] = v
    cols, rows = union // n, union % n
    kl, ku = int(max(0, np.max(rows - cols))), int(max(0, np.max(cols - rows)))
    return kl, ku, cols * (kl + ku + 1) + ku + rows - cols, stacked


class BandLU:
    """LU factors of a band matrix from dgbtrf, in LAPACK band storage."""

    def __init__(self, lu: np.ndarray, piv: np.ndarray, kl: int, ku: int):
        self.lu, self.piv, self.kl, self.ku = lu, piv, kl, ku

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for a vector or an (n, k) array of columns (dgbtrs);
        each column's result does not depend on the other columns."""
        b = np.asarray(b, dtype=float)
        x, _ = dgbtrs(self.lu, self.kl, self.ku, b.reshape(b.shape[0], -1), self.piv)
        return x.reshape(b.shape)


@dataclass
class ForwardModel:
    """Discrete PDE forward map with affine parameter dependence.

    operator_terms[p] is A_p with theta_p(xi) = operator_coeff_offsets[p]
    + xi @ operator_coeff_grads[:, p]; likewise for the rhs.  The grads
    d theta_p / d xi_j are constants, also used for sensitivity solves.
    """

    name: str
    operator_terms: list
    operator_coeff_offsets: np.ndarray  # (P,) theta(0)
    operator_coeff_grads: np.ndarray    # (M, P) constants d theta_p / d xi_j
    rhs_terms: list
    rhs_coeff_offsets: np.ndarray       # (Q,) phi(0)
    rhs_coeff_grads: np.ndarray         # (M, Q)
    obs_matrix: sp.csr_matrix
    loss_kind: str
    domain: "ParameterDomain"
    mesh: dict
    truth_default: np.ndarray
    direct_assemble: Optional[Callable] = None  # xi -> A(xi); the tests' reference
    obs_names: list = field(default_factory=list)
    counters: SolveCounters = field(default_factory=SolveCounters)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss kind must be one of {LOSS_KINDS}")
        if self.obs_matrix.shape[1] != self.n_dof:
            raise ValueError("observation matrix column count != dof count")
        self.operator_coeff_offsets = np.asarray(self.operator_coeff_offsets, dtype=float)
        self.operator_coeff_grads = np.asarray(self.operator_coeff_grads, dtype=float)
        self.rhs_coeff_offsets = np.asarray(self.rhs_coeff_offsets, dtype=float)
        self.rhs_coeff_grads = np.asarray(self.rhs_coeff_grads, dtype=float)
        P, Q, M = len(self.operator_terms), len(self.rhs_terms), self.dim
        shapes = (self.operator_coeff_offsets.shape, self.operator_coeff_grads.shape,
                  self.rhs_coeff_offsets.shape, self.rhs_coeff_grads.shape)
        if shapes != ((P,), (M, P), (Q,), (M, Q)):
            raise ValueError(f"coefficient arrays need shapes {((P,), (M, P), (Q,), (M, Q))}, "
                             f"got {shapes}")
        self._kl, self._ku, self._band_positions, self._term_values = _band_terms(
            self.operator_terms, self.n_dof)
        n, width = self.n_dof, self._kl + self._ku + 1
        self._band_template = sp.dia_array(
            (np.zeros((width, n)), np.arange(self._ku, -self._kl - 1, -1)), shape=(n, n))

    @property
    def n_dof(self) -> int:
        return self.operator_terms[0].shape[0]

    @property
    def n_obs(self) -> int:
        return self.obs_matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.domain.dim

    # ----- assembly -----
    def coefficients(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta(xi), phi(xi)), the operator and rhs coefficients.

        xi may also be an (n, M) array of points; the coefficients are then
        (n, P) and (n, Q) arrays, one row per point.
        """
        xi = np.asarray(xi, dtype=float)
        return (self.operator_coeff_offsets + xi @ self.operator_coeff_grads,
                self.rhs_coeff_offsets + xi @ self.rhs_coeff_grads)

    def operator_at(self, xi: np.ndarray) -> sp.dia_array:
        """A(xi) as a DIA array whose data is the column-major band.

        Term by term in order, so every entry is the same float as in the
        chained sparse sum theta_0 A_0 + theta_1 A_1 + ...; entries outside
        the terms' union pattern are zero.  Every returned array shares the
        model's offsets array: do not change it in place.
        """
        theta, _ = self.coefficients(xi)
        values = theta[0] * self._term_values[0]
        for t, v in zip(theta[1:], self._term_values[1:]):
            values += t * v
        band_t = np.zeros((self.n_dof, self._kl + self._ku + 1))  # the band, transposed
        band_t.flat[self._band_positions] = values
        # a shallow copy skips the constructor's format checks, which cost
        # more than the assembly itself on small models
        A = copy.copy(self._band_template)
        A.data = band_t.T
        return A

    def rhs_at(self, xi: np.ndarray) -> np.ndarray:
        _, phi = self.coefficients(xi)
        f = np.zeros(self.n_dof)
        for c, term in zip(phi, self.rhs_terms):
            f += c * term
        return f

    def factorize(self, xi: np.ndarray) -> tuple[sp.dia_array, BandLU]:
        """(A(xi), its band LU factorization with partial pivoting); raises
        ValueError outside the parameter box, before assembling anything."""
        if not bool(self.domain.contains(np.atleast_2d(xi))[0]):
            raise ValueError(f"xi={xi} outside the parameter box")
        A = self.operator_at(xi)
        kl, ku = self._kl, self._ku
        ab = np.zeros((2 * kl + ku + 1, self.n_dof), order="F")  # kl rows for fill-in
        ab[kl:] = A.data
        lu, piv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
        if info != 0:
            raise SolverError(f"operator factorization failed at xi={xi}: dgbtrf info {info}")
        return A, BandLU(lu, piv, kl, ku)

    # ----- solves -----
    def solve_full(self, xi: np.ndarray, factors: tuple | None = None) -> np.ndarray:
        """High-fidelity solve of A(xi) u = f(xi); increments the full counter.

        ``factors`` is the result of factorize(xi); by default it is computed
        here.
        """
        A, lu = self.factorize(xi) if factors is None else factors
        f = self.rhs_at(xi)
        u = lu.solve(f)
        resid = np.linalg.norm(f - A @ u)
        if not np.isfinite(resid) or resid > 1e-10 * max(np.linalg.norm(f), 1e-300):
            raise SolverError(f"solver breakdown at xi={xi}: residual {resid:.3e}")
        self.counters.add("full")
        return u

    def solve_sensitivity(self, u: np.ndarray, lu: BandLU) -> np.ndarray:
        """Columns du/dxi_j solving A(xi) du/dxi_j = df/dxi_j - (dA/dxi_j) u,
        where u is the state at xi and lu factorizes A(xi).

        The coefficients are affine, so the right-hand sides depend on xi
        only through u.
        """
        rhs = np.zeros((self.n_dof, self.dim))
        for j in range(self.dim):
            for q, g in enumerate(self.rhs_coeff_grads[j]):
                if g != 0.0:
                    rhs[:, j] += g * self.rhs_terms[q]
            for p, g in enumerate(self.operator_coeff_grads[j]):
                if g != 0.0:
                    rhs[:, j] -= g * (self.operator_terms[p] @ u)
        self.counters.add("sensitivity", self.dim)
        return lu.solve(rhs)

    # ----- observation and loss -----
    def observe(self, u: np.ndarray) -> np.ndarray:
        return self.obs_matrix @ u

    def loss_from_prediction(self, predicted: np.ndarray, observations):
        """Cumulative loss sum_i loss(predicted, d_i) for the model's loss kind.

        predicted is one (n_obs,) prediction or an (n, n_obs) array of them;
        the loss is then an (n,) array.  Each loss sums its terms over the
        flattened (n_data * n_obs) block, as a sum over one prediction does.
        """
        resid = predicted[..., None, :] - observations.data
        if self.loss_kind == "l2":
            return np.linalg.norm(resid, axis=-1).sum(axis=-1)
        terms = resid**2 if self.loss_kind == "squared_l2" else np.abs(resid)
        return terms.reshape(resid.shape[:-2] + (observations.data.size,)).sum(axis=-1)

    def loss(self, xi: np.ndarray, observations) -> float:
        return float(self.loss_from_prediction(self.observe(self.solve_full(xi)),
                                               observations))

    # ----- checks -----
    def check_invertibility(self, n_samples: int = 5, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        center = 0.5 * (self.domain.lower + self.domain.upper)
        for xi in [center, *self.domain.sample(n_samples, rng)]:
            self.factorize(xi)

    def observation_operator_norm(self) -> float:
        """Largest singular value of the observation matrix."""
        D = self.obs_matrix
        if min(D.shape) <= 200:
            return float(np.linalg.svd(D.toarray(), compute_uv=False)[0])
        return float(spla.svds(D, k=1, return_singular_vectors=False)[0])
