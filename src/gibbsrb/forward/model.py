"""Affinely parametrized discrete forward models.

A model is A(xi) u = f(xi) with A(xi) = sum_p theta_p(xi) A_p and
f(xi) = sum_q phi_q(xi) f_q, plus an observation matrix mapping the state
to measurement channels and a loss kind tying predictions to data.  The
model alone reads the loss kind: it turns predictions into losses, and a
surrogate's state errors into loss-error bounds.  The
coefficients are affine in xi, theta(xi) = theta_0 + xi @ d theta / d xi.
A(xi) is factorized by LU with partial pivoting through its LAPACK binding
(``bandlu``: the tridiagonal dgt* routines where kl = ku = 1, band dgb*
routines otherwise).  The binding owns the storage layout: this module
hands it the operator terms once, then calls its ``assemble`` and
``residual`` and never reads the storage.  The observation is the
observation matrix's own product, D u.  The model owns every affine sum
over a stack of states or bases (``residuals``, ``project``), each from
one sparse product of the stacked terms, so no other module reads a term
list.

The operator terms and the observation matrix are CSR matrices, read only
through their arrays (data, indices, indptr), ``@``, ``shape`` and
``toarray()``: scipy.sparse's or the numpy ``CSRMatrix`` below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .bandlu import BandLU, _ellpack, band_routines

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

    def snapshot(self) -> dict:
        return {"full": self.full, "sensitivity": self.sensitivity,
                "stability": self.stability}


def _csr_entries(T):
    """(row, column, value) of each entry of the CSR matrix T, in storage order."""
    if getattr(T, "format", "csr") != "csr":
        raise ValueError(f"sparse matrices must be CSR, got {T.format}")
    return np.repeat(np.arange(T.shape[0]), np.diff(T.indptr)), T.indices, T.data


class CSRMatrix:
    """A CSR matrix in numpy, built like scipy's: ``CSRMatrix((data,
    indices, indptr), shape)``.

    ``A @ x`` adds row i's entries a_ij x_j one at a time, in storage order,
    from zero: the order of scipy's csr_matvec and csr_matvecs, so a finite
    x, vector or (n, k) array, gives the same floats as scipy.  It gathers
    x over the rows' slots (``_ellpack``) and sums over the slot axis, a
    reduction over an outer axis, which numpy adds in sequence; so it suits
    matrices with few entries per row.  A vector skips the take, reshape and
    in-place product: the same floats in fewer numpy calls.
    """

    format = "csr"

    def __init__(self, arrays, shape):
        self.data, self.indices, self.indptr = (np.asarray(a) for a in arrays)
        self.shape = (int(shape[0]), int(shape[1]))
        _, self._columns, self._values = _ellpack(*_csr_entries(self), self.shape[0])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 1:
            return np.add.reduce(self._values * x[self._columns], axis=0, initial=0.0)
        terms = x.take(self._columns, axis=0)
        terms *= self._values.reshape(self._values.shape + (1,) * (x.ndim - 1))
        return np.add.reduce(terms, axis=0, initial=0.0)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        rows, cols, values = _csr_entries(self)
        dense[rows, cols] = values
        return dense


def vstack_csr(mats: list):
    """The CSR matrices mats stacked by rows, as one of the first's class."""
    offsets = np.cumsum([0] + [M.indptr[-1] for M in mats])
    indptr = np.concatenate([[0]] + [M.indptr[1:] + o for M, o in zip(mats, offsets)])
    arrays = (np.concatenate([M.data for M in mats]),
              np.concatenate([M.indices for M in mats]), indptr)
    return type(mats[0])(arrays, shape=(sum(M.shape[0] for M in mats), mats[0].shape[1]))


def _operator_binding(terms: list, n: int):
    """The LAPACK binding (``band_routines``) of the operator with these
    terms, given each term's values on the terms' union pattern, row by row
    in ascending column order."""
    # sorted keys compared with their successors, not np.unique, whose
    # masked-array check imports numpy.ma (17 ms) into every set-up
    keys, values = [], []
    for T in terms:
        rows, cols, data = _csr_entries(T)
        keys.append(rows * n + cols)
        values.append(data)
        ordered = np.sort(keys[-1])
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("an operator term has duplicate entries")
    union = np.sort(np.concatenate(keys))
    union = union[np.r_[True, union[1:] != union[:-1]]]
    stacked = np.zeros((len(terms), union.size))
    for p, (k, v) in enumerate(zip(keys, values)):
        stacked[p, np.searchsorted(union, k)] = v
    return band_routines(n, union // n, union % n, stacked)


def _check_factorization(xi, routine: str, info: int) -> None:
    if info != 0:
        raise SolverError(f"operator factorization failed at xi={np.asarray(xi)}: "
                          f"{routine} info {info}")


@dataclass
class ForwardModel:
    """Discrete PDE forward map with affine parameter dependence.

    operator_terms[p] is A_p with theta_p(xi) = operator_coeff_offsets[p]
    + xi @ operator_coeff_grads[:, p]; likewise for the rhs.  The grads
    d theta_p / d xi_j are constants, also used for sensitivity solves.
    The operator, rhs and observation terms are laid out for the exact
    path at construction, so they must not change afterwards.  The LAPACK
    binding (``bandlu.band_routines``) is chosen then from the band
    half-widths and owns the storage layout: it assembles A(xi) and forms
    the residual.  The solves share its buffers and the model's, so they
    must not run concurrently.  Past the check at construction, only
    ``loss_from_prediction`` and ``losses_and_bounds`` read ``loss_kind``.
    """

    name: str
    operator_terms: list
    operator_coeff_offsets: np.ndarray  # (P,) theta(0)
    operator_coeff_grads: np.ndarray    # (M, P) constants d theta_p / d xi_j
    rhs_terms: list
    rhs_coeff_offsets: np.ndarray       # (Q,) phi(0)
    rhs_coeff_grads: np.ndarray         # (M, Q)
    obs_matrix: object                  # CSR, (n_obs, n_dof)
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
        self._band = _operator_binding(self.operator_terms, self.n_dof)
        self._rhs_terms = np.array(self.rhs_terms, dtype=float).reshape(Q, self.n_dof)
        self._f = np.empty(self.n_dof)
        # f does not move with xi where its coefficients do not (adv1d and
        # elast): the same floats, since phi(xi) = phi(0) up to zero signs
        self._fixed_f = None if self.rhs_coeff_grads.any() else self._rhs(self.rhs_coeff_offsets)

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
        xi = np.asarray(xi, dtype=float)  # ndarray.dot: matmul's BLAS call, less overhead
        return (self.operator_coeff_offsets + xi.dot(self.operator_coeff_grads),
                self.rhs_coeff_offsets + xi.dot(self.rhs_coeff_grads))

    def operator_at(self, xi: np.ndarray):
        """A(xi) as a scipy DIA array whose data is the diagonals' rows of
        the binding's storage (offsets ku, ..., -kl)."""
        import scipy.sparse as sp
        ab = self._band.assemble(self.coefficients(xi)[0])[1]
        return sp.dia_array(self._band.diagonals(ab), shape=(self.n_dof, self.n_dof))

    def _rhs(self, phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """f at coefficients phi, into out or a fresh array: from zero, term
        by term in order, as the sum 0 + phi_0 f_0 + phi_1 f_1 + ...."""
        return np.add.reduce(phi[:, None] * self._rhs_terms, axis=0, initial=0.0, out=out)

    @cached_property
    def _stacked_terms(self):
        """[A_1; ...; A_P; D] as one CSR matrix, stacked once per model."""
        return vstack_csr(list(self.operator_terms) + [self.obs_matrix])

    def residuals(self, theta: np.ndarray, phi: np.ndarray, states: np.ndarray) -> np.ndarray:
        """f(phi_i) - sum_p theta_ip A_p u_i for the rows i of the (k, P) and
        (k, Q) coefficients and the columns u_i of the (n_dof, k) states (one
        column serves every row), as an (n_dof, k) array: f summed as _rhs
        sums it, then theta_p (A_p u) subtracted term by term in order."""
        n = self.n_dof
        prods = self._stacked_terms @ states
        resid = np.add.reduce(phi.T[:, None, :] * self._rhs_terms[:, :, None],
                              axis=0, initial=0.0)
        for p, t in enumerate(theta.T):
            resid -= t * prods[p * n:(p + 1) * n]
        return resid

    def project(self, Phis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Phi^T A_p Phi as a (c, P, r, r) array, Phi^T f_q as a (c, Q, r)
        array, D Phi as a (c, n_obs, r) array) for a (c, n_dof, r) stack of
        bases, from one sparse product; each column of A_p Phi and D Phi is
        summed as in the term's own product M @ Phi."""
        (c, n, r), P = Phis.shape, len(self.operator_terms)
        prods = self._stacked_terms @ Phis.transpose(1, 0, 2).reshape(n, c * r)
        prods = prods.reshape(-1, c, r).transpose(1, 0, 2)
        PhiT = Phis.transpose(0, 2, 1)
        ops = np.stack([PhiT @ prods[:, p * n:(p + 1) * n] for p in range(P)], axis=1)
        rhs = np.stack([PhiT @ f for f in self._rhs_terms], axis=1)
        return ops, rhs, prods[:, P * n:]

    def factorize(self, xi: np.ndarray) -> tuple[np.ndarray, BandLU]:
        """(the values of A(xi) that its binding's residual reads, its LU
        factorization with partial pivoting, by dgbtrf or dgttrf); raises
        ValueError outside the parameter box, before assembling anything."""
        values, ab = self._assemble_in_box(xi, self.coefficients(xi)[0])
        lu, info = self._band.factorize(ab)
        _check_factorization(xi, self._band.routines + "trf", info)
        return values, lu

    def _assemble_in_box(self, xi, theta: np.ndarray, ab: np.ndarray | None = None):
        xi = np.asarray(xi, dtype=float)
        if not self.domain.contains_point(xi):
            raise ValueError(f"xi={xi} outside the parameter box")
        return self._band.assemble(theta, ab)

    @property
    def band_lu_binding(self) -> str:
        """Which LAPACK serves the band LU: numpy's OpenBLAS or scipy's."""
        return self._band.name

    @property
    def band_lu_routines(self) -> str:
        """Which routine family factorizes A: "dgt" (tridiagonal) or "dgb"."""
        return self._band.routines

    # ----- solves -----
    def solve_full(self, xi: np.ndarray, factors: tuple | None = None) -> np.ndarray:
        """High-fidelity solve of A(xi) u = f(xi); increments the full counter.

        ``factors`` is the result of factorize(xi); by default one dgbsv or
        dgtsv call factorizes and solves, which gives the floats of dgbtrf
        then dgbtrs, or of dgttrf then dgttrs.  The state is a fresh array.
        """
        if factors is None:
            return self._solve(xi).copy()
        values, lu = factors
        f = self._rhs(self.coefficients(xi)[1])
        return self._checked(xi, values, f, lu.solve(f))

    def _solve(self, xi: np.ndarray) -> np.ndarray:
        """solve_full(xi) by one dgbsv or dgtsv call, in the binding's buffer,
        which the next solve overwrites."""
        theta, phi = self.coefficients(xi)
        values, _ = self._assemble_in_box(xi, theta, self._band.ab)
        f = self._fixed_f if self._fixed_f is not None else self._rhs(phi, self._f)
        u, info = self._band.factor_solve(f)
        if info:
            _check_factorization(xi, self._band.routines + "sv", info)
        return self._checked(xi, values, f, u)

    def _checked(self, xi, values: np.ndarray, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        """u, once the residual f - A u passes the check at 1e-10 |f|; raises
        SolverError on a larger or non-finite one."""
        r = self._band.residual(values, f, u)
        resid = math.sqrt(r.dot(r))
        if not math.isfinite(resid) or resid > 1e-10 * max(math.sqrt(f.dot(f)), 1e-300):
            raise SolverError(f"solver breakdown at xi={xi}: residual {resid:.3e}")
        self.counters.full += 1
        return u

    def solve_sensitivity(self, u: np.ndarray, lu: BandLU) -> np.ndarray:
        """Columns du/dxi_j solving A(xi) du/dxi_j = df/dxi_j - (dA/dxi_j) u,
        where u is the state at xi and lu factorizes A(xi).

        The coefficients are affine, so the right-hand side is u's residual
        at the coefficient gradients, and it depends on xi only through u.
        """
        self.counters.sensitivity += self.dim
        return lu.solve(self.residuals(self.operator_coeff_grads, self.rhs_coeff_grads,
                                       u[:, None]))

    # ----- observation and loss -----
    def observe(self, u: np.ndarray) -> np.ndarray:
        """D u for one state u, the observation matrix's own product."""
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
        terms = terms.reshape(resid.shape[:-2] + (observations.data.size,))
        return np.add.reduce(terms, axis=-1)  # ndarray.sum's reduction, without its wrapper

    def losses_and_bounds(self, predicted: np.ndarray, eps_u: np.ndarray, observations):
        """(losses, loss-error bounds) of an (n, n_obs) array of predictions
        whose states are off by at most eps_u, an (n,) array, in norm.

        The prediction error is then at most s = ||D||_2 eps_u per datum, so
        the cumulative loss is off by at most 2 d s + n_data s^2 for the
        squared loss, d the prediction's summed distances to the data, and
        by n_data sqrt(n_obs) s for l1 and n_data s for l2.  The bound is inf
        wherever eps_u is, NaN predictions included.
        """
        losses = self.loss_from_prediction(predicted, observations)
        n_data = observations.n
        if self.loss_kind == "squared_l2":
            dist = np.linalg.norm(predicted[:, None, :] - observations.data, axis=-1).sum(axis=-1)
            s = self.obs_norm * eps_u
            bounds = 2.0 * dist * s + n_data * s**2
        elif self.loss_kind == "l1":
            bounds = n_data * np.sqrt(self.n_obs) * self.obs_norm * eps_u
        else:
            bounds = n_data * self.obs_norm * eps_u
        return losses, np.where(np.isinf(eps_u), np.inf, bounds)

    def loss(self, xi: np.ndarray, observations) -> float:
        """The loss of solve_full(xi)'s prediction, with the state in the
        binding's buffer."""
        return float(self.loss_from_prediction(self.observe(self._solve(xi)), observations))

    # ----- checks -----
    def check_invertibility(self) -> None:
        """Factorize A at the box centre and at 5 prior draws from seed 0;
        raises SolverError where one is singular."""
        center = 0.5 * (self.domain.lower + self.domain.upper)
        for xi in [center, *self.domain.sample(5, np.random.default_rng(0))]:
            self.factorize(xi)

    @cached_property
    def obs_norm(self) -> float:
        """Largest singular value of the observation matrix, ||D||_2; one
        SVD per model, made when a loss bound first needs it."""
        return float(np.linalg.svd(self.obs_matrix.toarray(), compute_uv=False)[0])
