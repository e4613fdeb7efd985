"""Locally refined reduced-basis surrogate for the forward map and the loss.

Parameter space is partitioned into Voronoi cells seeded at atoms.  Each
atom carries a high-fidelity snapshot and its parameter gradient; the
cell's basis stacks those with the snapshots of the N nearest atoms.  A
Galerkin solve in the cell basis yields the surrogate state; a cached
triangular factor turns the full-space residual norm into an O(K^2)
evaluation independent of the mesh size.

Two error-indicator flavours are available:

* ``calibrated_cell`` (default): the residual preconditioned by the cell
  atom's factorized operator, scaled by a stability constant calibrated
  on the fly from (residual, true error) pairs that every atom insertion
  produces for free.
* ``sigma_min``: plain residual norm divided by the smallest operator
  singular value sampled over the prior.

The loss indicator converts the state indicator through the loss kind:
an exact quadratic bound for squared losses, Lipschitz constants for the
l1/l2 kinds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # patched by bench/layers.py
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .seeding import PHASE_STABILITY, stream

DUPLICATE_TOL = 1e-12       # scaled-coordinate distance
ORTHO_DROP_TOL = 1e-10      # relative column drop threshold in Gram-Schmidt
DEFAULT_NEIGHBORS = 5
DEFAULT_ATOM_BUDGET = 2000
CALIBRATION_SAFETY = 1.0
CALIBRATION_QUANTILE = 20  # percentile of recent insertion ratios
CALIBRATION_WINDOW = 50
_LU_CACHE_SIZE = 64
# largest stack of indicator factors gathered at once: larger transients
# raise glibc's dynamic mmap threshold and fragment the heap (one elast
# run's peak RSS rose by a third with the whole cloud gathered)
_GATHER_BYTES = 1 << 17


class DuplicateAtomError(ValueError):
    pass


class AtomBudgetError(RuntimeError):
    """Refinement exceeded the atom cap: the surrogate is blowing up."""


class BasisDegeneracyError(RuntimeError):
    """Singular reduced system; caller should add an atom at the query point."""


@dataclass
class Atom:
    location: np.ndarray
    snapshot: np.ndarray
    gradient: np.ndarray  # (n_dof, M)


@dataclass
class ReducedSolution:
    coeffs: np.ndarray
    observed: np.ndarray
    atom_index: int
    _residual: Callable[[], float] = field(repr=False)

    @property
    def residual(self) -> float:
        """Full-space residual norm; the cell's factor for it is built on
        first read."""
        return self._residual()


@dataclass
class RefinementReport:
    atoms_added: int
    e_max_initial: float
    e_max_final: float
    loss_values: np.ndarray
    indicator_values: np.ndarray
    saturated: bool = False


@dataclass
class _Cell:
    neighbors: tuple = ()
    dirty: bool = True                        # caches stale; rebuilt on demand
    # (source, kept in the basis) per Gram-Schmidt input of the last build
    columns: list = field(default_factory=list)
    basis: np.ndarray | None = None           # (n_dof, r), orthonormal
    reduced_ops: np.ndarray | None = None     # (P, r, r) Phi^T A_p Phi
    reduced_rhs: np.ndarray | None = None     # (Q, r) Phi^T f_q
    obs_basis: np.ndarray | None = None       # D_obs Phi
    resid_factor: np.ndarray | None = None    # R of qr([f_q | A_p Phi])
    precond_factor: np.ndarray | None = None  # R of qr(A_k^{-1} [f_q | A_p Phi])


def estimate_sigma_min(model, n_samples: int = 20, seed: int = 0,
                       iters: int = 60) -> float:
    """Smallest operator singular value, minimized over prior samples.

    Inverse power iteration on A^T A through the sparse factorization, so
    the estimate is for the actual system matrices, not a proxy mesh.
    """
    rng = stream(seed, PHASE_STABILITY)
    worst = np.inf
    for xi in model.domain.sample(n_samples, rng):
        _, lu = model.factorize(xi)
        model.counters.add("stability")
        v = rng.standard_normal(model.n_dof)
        v /= np.linalg.norm(v)
        lam = 1.0
        for _ in range(iters):
            w = lu.solve(lu.solve(v), trans="T")
            lam = np.linalg.norm(w)
            v = w / lam
        worst = min(worst, 1.0 / np.sqrt(lam))
    return float(worst)


def _residual_norms(factors: np.ndarray, ath: np.ndarray, fth: np.ndarray,
                    coeffs: np.ndarray) -> np.ndarray:
    """||factor w|| per point, for w with Z w = f(xi) - A(xi) Phi coeffs and
    Z = [f_q | A_p Phi]; factors (n, K, K), ath, fth and coeffs hold one
    row per point.

    Stacked matvecs and dot products: each row takes the same BLAS calls as
    the one-point forms factor @ w and np.linalg.norm, so the values are
    bit-identical to them.
    """
    (n, P), r = ath.shape, coeffs.shape[1]
    w = np.concatenate([fth, (-ath[:, :, None] * coeffs[:, None, :]).reshape(n, P * r)],
                       axis=1)
    v = (factors @ w[:, :, None])[:, :, 0]
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def fd_gradient_check(model, xi, gradient, h: float = 1e-4) -> float:
    """Max relative error of the sensitivity columns vs central differences."""
    worst = 0.0
    for j in range(model.dim):
        e = np.zeros(model.dim)
        e[j] = h
        fd = (model.solve_full(xi + e) - model.solve_full(xi - e)) / (2 * h)
        denom = max(np.linalg.norm(fd), 1e-300)
        worst = max(worst, np.linalg.norm(fd - gradient[:, j]) / denom)
    return worst


class Surrogate:
    """Atom set, local bases, cached reduced operators and error indicators.

    Evaluation takes whole arrays of points: the reduced systems of all the
    points whose cells share a basis rank are solved in one stacked call.
    A cell whose neighbor set changed is rebuilt lazily on first use, from
    its first changed basis input, so evaluation changes cached state too;
    no method may run concurrently with another.
    """

    def __init__(self, model, neighbor_count: int = DEFAULT_NEIGHBORS,
                 indicator: str = "calibrated_cell",
                 calibration_safety: float = CALIBRATION_SAFETY,
                 atom_budget: int = DEFAULT_ATOM_BUDGET,
                 stability_seed: int = 0):
        if indicator not in ("calibrated_cell", "sigma_min"):
            raise ValueError(f"unknown indicator {indicator!r}")
        self.model = model
        self.neighbor_count = int(neighbor_count)
        self.indicator = indicator
        self.calibration_safety = float(calibration_safety)
        self.atom_budget = int(atom_budget)
        self.atoms: list[Atom] = []
        self.cells: list[_Cell] = []
        self._scaled_locs = np.zeros((0, model.dim))
        # squared distances of each atom's neighbors, in tuple order, inf-padded
        self._neighbor_d2 = np.zeros((0, self.neighbor_count))
        # [A_1; ...; A_P; D_obs]: one sparse product per cell build
        self._stacked_terms = sp.vstack(list(model.operator_terms) + [model.obs_matrix],
                                        format="csr")
        self._rhs_cols = np.column_stack(model.rhs_terms)
        self._ratios: list[float] = []
        self._ratio_quantile: float | None = None  # of _ratios; reset on append
        self._beta_lb: float | None = None
        self._stability_seed = stability_seed
        self._obs_norm = model.observation_operator_norm()
        self._lu_cache: dict[int, object] = {}
        self.reduced_solves = 0
        self.insertion_log: list[dict] = []

    # ----- bookkeeping -----
    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def locations(self) -> np.ndarray:
        return np.array([a.location for a in self.atoms])

    def holder_k(self, n_data: int) -> float:
        """Lipschitz constant of the cumulative loss w.r.t. the state error."""
        D = self.model.n_obs
        if self.model.loss_kind == "l1":
            return n_data * np.sqrt(D) * self._obs_norm
        return n_data * self._obs_norm

    @property
    def stability_constant(self) -> float:
        """Divisor turning the (preconditioned) residual into a state-error bound."""
        if self.indicator == "sigma_min":
            if self._beta_lb is None:
                self._beta_lb = estimate_sigma_min(self.model, seed=self._stability_seed)
            return self._beta_lb
        if not self._ratios:
            return self.calibration_safety
        q = self._ratio_quantile
        if q is None:
            recent = self._ratios[-CALIBRATION_WINDOW:]
            q = self._ratio_quantile = float(np.percentile(recent, CALIBRATION_QUANTILE))
        return self.calibration_safety * q

    # ----- geometry -----
    def nearest_atom(self, xi: np.ndarray) -> int:
        """Closest atom in box-scaled Euclidean distance; ties take the
        lowest index (argmin returns the first minimum)."""
        return int(self._nearest(np.atleast_2d(xi))[0])

    def _nearest(self, points: np.ndarray) -> np.ndarray:
        """nearest_atom for each row of an (n, M) array."""
        if not self.atoms:
            raise ValueError("surrogate has no atoms yet")
        s = self.model.domain.scale(points)
        d2 = ((s[:, None, :] - self._scaled_locs[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    def _insert_location(self, s: np.ndarray) -> None:
        """Append a new atom's scaled location and cell, and bring every
        neighbor tuple up to date; a changed tuple marks its cell dirty.

        A tuple lists the neighbor_count nearest other atoms by squared
        distance, ties by index.  The new atom has the highest index, so it
        goes after equal distances, and only atoms whose tuple is short or
        whose last neighbor lies strictly farther away take it in.
        """
        idx = len(self.cells)
        N = self.neighbor_count
        self._scaled_locs = np.vstack([self._scaled_locs, s[None, :]])
        self.cells.append(_Cell())
        d2 = np.sum((self._scaled_locs - self._scaled_locs[idx]) ** 2, axis=1)[:idx]
        if N:
            for i in np.flatnonzero(d2 < self._neighbor_d2[:, -1]):
                row = self._neighbor_d2[i]
                pos = int(np.searchsorted(row, d2[i], side="right"))
                row[pos + 1:] = row[pos:-1]
                row[pos] = d2[i]
                nb = self.cells[i].neighbors
                self.cells[i].neighbors = (nb[:pos] + (idx,) + nb[pos:])[:N]
                self.cells[i].dirty = True
        order = np.argsort(d2, kind="stable")[:N]
        self.cells[idx].neighbors = tuple(order.tolist())
        row = np.full(N, np.inf)
        row[:order.size] = d2[order]
        self._neighbor_d2 = np.vstack([self._neighbor_d2, row])

    # ----- construction -----
    def add_atom(self, xi: np.ndarray) -> int:
        """Insert an atom: one full solve plus one sensitivity solve, then
        rebuild the bases of every atom whose neighbor set changed."""
        if self.n_atoms >= self.atom_budget:
            raise AtomBudgetError(f"atom budget {self.atom_budget} exhausted")
        xi = np.asarray(xi, dtype=float)
        s = self.model.domain.scale(xi)
        if self.n_atoms:
            d = np.sqrt(np.sum((self._scaled_locs - s) ** 2, axis=1))
            if d.min() <= DUPLICATE_TOL:
                raise DuplicateAtomError(f"atom at {xi} duplicates atom "
                                         f"{int(np.argmin(d))}")
        # calibration byproduct: prediction error at the insertion point;
        # the residual is not read, so its factor is not built
        pre = None
        if self.atoms:
            try:
                sol = self.reduced_solve(xi)
                pre = (self._indicator_raw(xi, sol), self.reconstruct(sol))
            except BasisDegeneracyError:
                pre = None

        u = self.model.solve_full(xi)
        grad = self.model.solve_sensitivity(xi, u)
        _, lu = self.model._factorize(xi)

        idx = self.n_atoms
        self.atoms.append(Atom(location=xi, snapshot=u, gradient=grad))
        self._lu_stash(idx, lu)
        # changed neighbor sets only invalidate; rebuilding happens on the
        # first query that actually lands in the cell
        self._insert_location(s)
        self._build_cell(idx)  # the new cell's factorization is in hand

        if pre is not None:
            err = np.linalg.norm(u - pre[1])
            if err > 1e-13 * max(np.linalg.norm(u), 1.0):
                self._ratios.append(pre[0] / err)
                self._ratio_quantile = None
        self.insertion_log.append({
            "index": idx, "location": xi.copy(),
            "full_solves": self.model.counters.snapshot()["full"],
        })
        return idx

    def _lu_stash(self, idx, lu):
        self._lu_cache[idx] = lu
        while len(self._lu_cache) > _LU_CACHE_SIZE:
            self._lu_cache.pop(next(iter(self._lu_cache)))

    def _lu_for(self, idx):
        lu = self._lu_cache.pop(idx, None)  # LRU: a hit moves to the back
        if lu is None:
            _, lu = self.model.factorize(self.atoms[idx].location)
            self.model.counters.add("stability")
        self._lu_stash(idx, lu)
        return lu

    def _ensure_cell(self, k: int) -> _Cell:
        cell = self.cells[k]
        if cell.dirty:
            self._build_cell(k)
        return cell

    def _build_cell(self, k: int) -> None:
        """Build cell k's basis, reduced operators and indicator factor.

        Modified Gram-Schmidt is sequential: each basis vector depends only
        on the input columns before it, and an atom's snapshot and gradient
        never change.  So the basis vectors of the longest prefix of inputs
        that come from the same sources as in the last build are reused, and
        only the inputs after it are orthogonalized again.
        """
        model = self.model
        atom, cell = self.atoms[k], self.cells[k]
        sources = ([("snapshot", k)] + [("gradient", j) for j in range(model.dim)]
                   + [("snapshot", j) for j in cell.neighbors])
        keep = 0
        for (old, _), new in zip(cell.columns, sources):
            if old != new:
                break
            keep += 1
        columns = cell.columns[:keep]
        # contiguous copies: the same floats as the vectors Phi was stacked from
        basis = [cell.basis[:, i].copy() for i in range(sum(kept for _, kept in columns))]
        for kind, j in sources[keep:]:
            v = np.array(self.atoms[j].snapshot if kind == "snapshot"
                         else atom.gradient[:, j], dtype=float)
            n0 = np.linalg.norm(v)
            kept = False
            if n0 != 0.0:
                for _ in range(2):  # two Gram-Schmidt passes for orthogonality
                    for b in basis:
                        v -= (b @ v) * b
                nv = np.linalg.norm(v)
                kept = bool(nv > ORTHO_DROP_TOL * n0)
                if kept:
                    basis.append(v / nv)
            columns.append(((kind, j), kept))
        cell.columns = columns
        Phi = np.column_stack(basis)

        cell.basis = Phi
        op_cols, cell.obs_basis = self._products(Phi)  # A_p Phi, D_obs Phi
        cell.reduced_ops = np.stack([Phi.T @ AP for AP in op_cols])
        cell.reduced_rhs = np.stack([Phi.T @ f for f in model.rhs_terms])
        cell.resid_factor = cell.precond_factor = None
        if self.indicator == "sigma_min":
            cell.resid_factor = self._qr_resid(op_cols)
        else:
            # preconditioned residual pieces A_k^{-1} [f_q | A_p Phi]; the
            # block for the dominant coefficient follows from the affine
            # identity sum_p theta_p(xi_k) A_k^{-1} A_p Phi = Phi, saving
            # r solve columns.  That identity and u_k in span Phi make the
            # columns dependent, so the factor comes from a QR.
            theta_k, _ = model.coefficients(atom.location)
            p0 = int(np.argmax(np.abs(theta_k)))
            others = [p for p in range(len(theta_k)) if p != p0]
            nq, r = self._rhs_cols.shape[1], Phi.shape[1]
            lu = self._lu_for(k)
            Wp = lu.solve(np.column_stack([self._rhs_cols] + [op_cols[p] for p in others]))
            Zp = np.empty((model.n_dof, nq + len(theta_k) * r))
            Zp[:, :nq] = Wp[:, :nq]
            rest = Phi.copy()
            for i, p in enumerate(others):
                blk = Wp[:, nq + i * r: nq + (i + 1) * r]
                Zp[:, nq + p * r: nq + (p + 1) * r] = blk
                rest -= theta_k[p] * blk
            Zp[:, nq + p0 * r: nq + (p0 + 1) * r] = rest / theta_k[p0]
            cell.precond_factor = np.linalg.qr(Zp, mode="r")
        cell.dirty = False

    def _products(self, Phi: np.ndarray) -> tuple[list, np.ndarray]:
        """([A_p Phi for each term p], D_obs Phi) from one sparse product;
        each row is summed as in the term's own product M @ Phi."""
        prods = self._stacked_terms @ Phi
        n, P = self.model.n_dof, len(self.model.operator_terms)
        return [prods[p * n:(p + 1) * n] for p in range(P)], prods[P * n:].copy()

    def _qr_resid(self, op_cols: list) -> np.ndarray:
        # the returned residual must match the directly assembled one down
        # to machine-zero at atoms, which only the QR route guarantees
        return np.linalg.qr(np.column_stack([self._rhs_cols] + op_cols), mode="r")

    def _resid_factor(self, k: int) -> np.ndarray:
        """Cell k's residual factor; built on first read unless the sigma_min
        indicator built it with the cell."""
        cell = self._ensure_cell(k)
        if cell.resid_factor is None:
            cell.resid_factor = self._qr_resid(self._products(cell.basis)[0])
        return cell.resid_factor

    def _indicator_factor(self, k: int) -> np.ndarray:
        if self.indicator == "sigma_min":
            return self._resid_factor(k)
        return self._ensure_cell(k).precond_factor

    # ----- evaluation -----
    def _solve_stack(self, ops: np.ndarray, rhs: np.ndarray, ath: np.ndarray,
                     fth: np.ndarray) -> np.ndarray:
        """Reduced coefficients for points with gathered reduced operators
        ops (n, P, r, r) and right-hand sides rhs (n, Q, r), and operator and
        rhs coefficients ath (n, P) and fth (n, Q); NaN rows where the
        reduced system is singular."""
        G = sum(ath[:, p, None, None] * ops[:, p] for p in range(ath.shape[1]))
        b = sum(fth[:, q, None] * rhs[:, q] for q in range(fth.shape[1]))
        try:
            coeffs = np.linalg.solve(G, b[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            coeffs = np.full(b.shape, np.nan)
            for i in range(len(b)):
                try:
                    coeffs[i] = np.linalg.solve(G[i], b[i])
                except np.linalg.LinAlgError:
                    pass
        self.reduced_solves += int(np.count_nonzero(~np.isnan(coeffs[:, 0])))
        return coeffs

    def reduced_solve(self, xi: np.ndarray) -> ReducedSolution:
        """Galerkin solve in the nearest cell's basis.

        Returns the reduced coefficients, the observed surrogate output and
        the full-space residual norm, all at cost independent of the mesh.
        """
        xi = np.asarray(xi, dtype=float)
        k = self.nearest_atom(xi)
        cell = self._ensure_cell(k)
        ath, fth = self.model.coefficients(xi[None])
        coeffs = self._solve_stack(cell.reduced_ops[None], cell.reduced_rhs[None], ath, fth)
        if np.isnan(coeffs[0, 0]):
            raise BasisDegeneracyError(f"singular reduced system in cell {k}")

        def residual() -> float:
            return float(_residual_norms(self._resid_factor(k)[None], ath, fth, coeffs)[0])
        return ReducedSolution(coeffs=coeffs[0], observed=cell.obs_basis @ coeffs[0],
                               atom_index=k, _residual=residual)

    def reconstruct(self, sol: ReducedSolution) -> np.ndarray:
        """Full-space surrogate state (costs O(n_dof * r); for checks)."""
        return self._ensure_cell(sol.atom_index).basis @ sol.coeffs

    def _indicator_raw(self, xi, sol: ReducedSolution) -> float:
        factor = self._indicator_factor(sol.atom_index)
        ath, fth = self.model.coefficients(np.asarray(xi, dtype=float)[None])
        return float(_residual_norms(factor[None], ath, fth, sol.coeffs[None])[0])

    def error_indicator_u(self, xi: np.ndarray, sol: ReducedSolution | None = None) -> float:
        """Computable proxy bounding the state error of the surrogate."""
        xi = np.asarray(xi, dtype=float)
        if sol is None:
            sol = self.reduced_solve(xi)
        return self._indicator_raw(xi, sol) / self.stability_constant

    def _evaluate(self, points: np.ndarray, observations):
        """(surrogate losses, raw indicators, data-distance sums) at the rows
        of an (n, M) array of points.

        The points of all hosting cells of one basis rank are solved in one
        stacked call, on the cells' arrays gathered per point (the indicator
        factors in blocks of at most _GATHER_BYTES).  Where a cell's reduced
        system is singular the three are NaN, inf and 0.  The raw quantities
        do not depend on the calibration state, so they can be cached across
        refinement steps while the stability constant keeps adapting.
        """
        points = np.asarray(points, dtype=float)
        n = len(points)
        ath, fth = self.model.coefficients(points)
        uniq, first, inv = np.unique(self._nearest(points), return_index=True,
                                     return_inverse=True)
        # dirty cells are built in order of first appearance, as a loop over
        # the points would build them (this fixes the LU cache order)
        for k in uniq[np.argsort(first)]:
            self._ensure_cell(k)
        cells = [self.cells[k] for k in uniq]
        factors = [self._indicator_factor(k) for k in uniq]
        ranks = np.array([c.basis.shape[1] for c in cells])
        observed = np.full((n, self.model.n_obs), np.nan)
        raws = np.full(n, np.inf)
        for r in np.unique(ranks):
            group = np.flatnonzero(ranks == r)
            idx = np.flatnonzero(ranks[inv] == r)
            local = np.searchsorted(group, inv[idx])  # position in the group
            coeffs = self._solve_stack(np.stack([cells[g].reduced_ops for g in group])[local],
                                       np.stack([cells[g].reduced_rhs for g in group])[local],
                                       ath[idx], fth[idx])
            ok = ~np.isnan(coeffs[:, 0])
            idx, local, coeffs = idx[ok], local[ok], coeffs[ok]
            obs = np.stack([cells[g].obs_basis for g in group])[local]
            observed[idx] = (obs @ coeffs[:, :, None])[:, :, 0]
            group_factors = [factors[g] for g in group]
            step = max(1, _GATHER_BYTES // group_factors[0].nbytes)
            for start in range(0, len(idx), step):
                b = slice(start, start + step)
                raws[idx[b]] = _residual_norms(np.stack([group_factors[i] for i in local[b]]),
                                               ath[idx[b]], fth[idx[b]], coeffs[b])
        losses = self.model.loss_from_prediction(observed, observations)
        dist_sums = np.sum(np.linalg.norm(observed[:, None, :] - observations.data,
                                          axis=-1), axis=-1)
        dist_sums[np.isnan(dist_sums)] = 0.0
        return losses, raws, dist_sums

    def _loss_eval_raw(self, xi: np.ndarray, observations):
        """_evaluate at one point; raises BasisDegeneracyError where the
        reduced system is singular."""
        xi = np.asarray(xi, dtype=float)
        losses, raws, dist_sums = self._evaluate(xi[None], observations)
        if np.isnan(losses[0]):
            raise BasisDegeneracyError(
                f"singular reduced system in cell {self.nearest_atom(xi)}")
        return float(losses[0]), float(raws[0]), float(dist_sums[0])

    def _loss_indicator_from_raw(self, raw, dist_sum, n_data: int) -> np.ndarray:
        """Loss-error indicators from raw indicators and data-distance sums
        (arrays or scalars); +inf where the reduced system is singular."""
        eps_u = np.asarray(raw, dtype=float) / self.stability_constant
        if self.model.loss_kind != "squared_l2":
            return self.holder_k(n_data) * eps_u
        step = self._obs_norm * eps_u
        with np.errstate(invalid="ignore"):  # 0 * inf at singular points
            ind = 2.0 * dist_sum * step + n_data * step**2
        return np.where(np.isinf(eps_u), np.inf, ind)

    def surrogate_loss(self, xi: np.ndarray, observations):
        """(surrogate loss, loss-error indicator) at xi."""
        lbar, raw, dist_sum = self._loss_eval_raw(xi, observations)
        return lbar, float(self._loss_indicator_from_raw(raw, dist_sum, observations.n))

    def loss_fn(self, observations):
        """Surrogate losses at the rows of an (n, M) array (for samplers);
        NaN where the reduced system is singular."""
        def fn(points):
            return self._evaluate(points, observations)[0]
        return fn

    # ----- refinement -----
    def refine_over_particles(self, points: np.ndarray, observations,
                              e_thre: float) -> RefinementReport:
        """Greedy refinement until the loss indicator is below e_thre at
        every particle: repeatedly add an atom at the worst particle."""
        if e_thre <= 0:
            raise ValueError("e_thre must be positive")
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            raise ValueError("empty particle set")
        if not self.atoms:
            self.add_atom(points[0])

        n_data = observations.n
        scaled_pts = self.model.domain.scale(points)
        losses, raws, dist_sums = self._evaluate(points, observations)

        def indicators() -> np.ndarray:
            # raw quantities are exact while a particle's cell is untouched;
            # the current calibration is applied fresh on every pass
            return self._loss_indicator_from_raw(raws, dist_sums, n_data)

        assign = self._nearest(points)
        inds = indicators()
        e_initial = float(np.max(inds))
        added = 0
        saturated = False
        while np.max(inds) > e_thre:
            order = np.argsort(-inds, kind="stable")
            target = None
            for i in order:
                if inds[i] <= e_thre:
                    break
                s = scaled_pts[i]
                d = np.sqrt(np.sum((self._scaled_locs - s) ** 2, axis=1))
                if d.min() > DUPLICATE_TOL:
                    target = points[i]
                    break
            if target is None:
                saturated = True
                break
            self.add_atom(target)
            added += 1
            # re-evaluate only particles captured by the new atom or whose
            # cell basis was invalidated by the neighbor refresh
            new_assign = self._nearest(points)
            stale = new_assign != assign
            for k in np.unique(new_assign):
                if self.cells[k].dirty:
                    stale |= new_assign == k
                    self._build_cell(k)
            assign = new_assign
            idx = np.flatnonzero(stale)
            if idx.size:
                losses[idx], raws[idx], dist_sums[idx] = self._evaluate(
                    points[idx], observations)
            inds = indicators()
        return RefinementReport(
            atoms_added=added, e_max_initial=e_initial,
            e_max_final=float(np.max(inds)), loss_values=losses,
            indicator_values=inds, saturated=saturated,
        )

    def atom_records(self) -> list[dict]:
        """Insertion-ordered atom metadata for CSV export."""
        return [dict(rec) for rec in self.insertion_log]
