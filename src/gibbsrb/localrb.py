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

import numpy as np

from .seeding import PHASE_STABILITY, stream

DUPLICATE_TOL = 1e-12       # scaled-coordinate distance
ORTHO_DROP_TOL = 1e-10      # relative column drop threshold in Gram-Schmidt
DEFAULT_NEIGHBORS = 5
DEFAULT_ATOM_BUDGET = 2000
CALIBRATION_SAFETY = 1.0
CALIBRATION_QUANTILE = 20  # percentile of recent insertion ratios
CALIBRATION_WINDOW = 50
_LU_CACHE_SIZE = 64


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
    residual: float
    atom_index: int


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
    basis: np.ndarray | None = None           # (n_dof, r), orthonormal
    reduced_ops: list = field(default_factory=list)    # Phi^T A_p Phi
    reduced_rhs: list = field(default_factory=list)    # Phi^T f_q
    obs_basis: np.ndarray | None = None       # D_obs Phi
    resid_factor: np.ndarray | None = None    # R of qr([f_q | A_p Phi])
    precond_factor: np.ndarray | None = None  # factor of A_k^{-1} [f_q | A_p Phi]


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


def _norm_factor(Z: np.ndarray, gram_tol: float = 1e-9,
                 max_gram_cols: int = 40) -> np.ndarray:
    """Triangular T with ||T w|| = ||Z w||.

    Equilibrated Gram + Cholesky when the columns are independent enough
    for the squared condition number (fast path), otherwise a QR of the
    tall matrix.  gram_tol guards the accuracy loss of the Gram route:
    the smallest acceptable pivot ratio before falling back.  Wide column
    sets (elasticity-sized) have near-dependent blocks that always defeat
    the Cholesky, so they skip straight to the QR.
    """
    if Z.shape[1] <= max_gram_cols:
        scale = np.linalg.norm(Z, axis=0)
        scale[scale == 0.0] = 1.0
        zn = Z / scale
        G = zn.T @ zn
        try:
            L = np.linalg.cholesky(G)
            if np.min(np.diag(L)) > gram_tol:
                return L.T * scale[None, :]
        except np.linalg.LinAlgError:
            pass
    return np.linalg.qr(Z, mode="r")


def _residual_norms(factor: np.ndarray, ath: np.ndarray, fth: np.ndarray,
                    coeffs: np.ndarray) -> np.ndarray:
    """||factor w|| per point, for w with Z w = f(xi) - A(xi) Phi coeffs and
    Z = [f_q | A_p Phi]; ath, fth and coeffs hold one row per point.

    Stacked matvecs and dot products: each row takes the same BLAS calls as
    the one-point forms factor @ w and np.linalg.norm, so the values are
    bit-identical to them.
    """
    (n, P), r = ath.shape, coeffs.shape[1]
    w = np.concatenate([fth, (-ath[:, :, None] * coeffs[:, None, :]).reshape(n, P * r)],
                       axis=1)
    v = (factor[None] @ w[:, :, None])[:, :, 0]
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

    Evaluation takes whole arrays of points: each cell solves the reduced
    systems of all the points it hosts in one stacked call.  A cell whose
    neighbor set changed is rebuilt lazily on first use, so evaluation
    changes cached state too; no method may run concurrently with another.
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

    def _neighbor_sets(self) -> list[tuple]:
        n = self.n_atoms
        out = []
        for k in range(n):
            d2 = np.sum((self._scaled_locs - self._scaled_locs[k]) ** 2, axis=1)
            order = np.lexsort((np.arange(n), d2))
            picked = [int(i) for i in order if i != k][: self.neighbor_count]
            out.append(tuple(picked))
        return out

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
        # calibration byproduct: prediction error at the insertion point
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
        self.cells.append(_Cell())
        self._scaled_locs = np.vstack([self._scaled_locs, s[None, :]])
        self._lu_stash(idx, lu)

        # changed neighbor sets only invalidate; rebuilding happens on the
        # first query that actually lands in the cell
        sets = self._neighbor_sets()
        for k in range(self.n_atoms):
            if self.cells[k].basis is None or self.cells[k].neighbors != sets[k]:
                self.cells[k].neighbors = sets[k]
                self.cells[k].dirty = True
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
        atom = self.atoms[k]
        cell = self.cells[k]
        cols = [atom.snapshot] + [atom.gradient[:, j] for j in range(self.model.dim)]
        cols += [self.atoms[j].snapshot for j in cell.neighbors]

        basis: list[np.ndarray] = []
        for c in cols:
            v = np.array(c, dtype=float)
            n0 = np.linalg.norm(v)
            if n0 == 0.0:
                continue
            for _ in range(2):  # two Gram-Schmidt passes for orthogonality
                for q in basis:
                    v -= (q @ v) * q
            nv = np.linalg.norm(v)
            if nv > ORTHO_DROP_TOL * n0:
                basis.append(v / nv)
        Phi = np.column_stack(basis)

        model = self.model
        cell.basis = Phi
        op_cols = [np.asarray(M @ Phi) for M in model.operator_terms]  # A_p Phi
        cell.reduced_ops = [Phi.T @ AP for AP in op_cols]
        cell.reduced_rhs = [Phi.T @ f for f in model.rhs_terms]
        cell.obs_basis = np.asarray(model.obs_matrix @ Phi)
        Z = np.column_stack([np.column_stack([f for f in model.rhs_terms])] + op_cols)
        # the returned residual must match the directly assembled one down
        # to machine-zero at atoms, which only the QR route guarantees
        cell.resid_factor = np.linalg.qr(Z, mode="r")
        if self.indicator == "calibrated_cell":
            # preconditioned residual pieces A_k^{-1} [f_q | A_p Phi]; the
            # block for the dominant coefficient follows from the affine
            # identity sum_p theta_p(xi_k) A_k^{-1} A_p Phi = Phi, saving
            # r solve columns
            xi_k = self.atoms[k].location
            theta_k, _ = model.coefficients(xi_k)
            p0 = int(np.argmax(np.abs(theta_k)))
            nq = len(model.rhs_terms)
            r = Phi.shape[1]
            lu = self._lu_for(k)
            cols = [Z[:, :nq]] + [Z[:, nq + p * r: nq + (p + 1) * r]
                                  for p in range(len(theta_k)) if p != p0]
            Wp = lu.solve(np.column_stack(cols))
            Zp = np.empty_like(Z)
            Zp[:, :nq] = Wp[:, :nq]
            rest = Phi.copy()
            j = nq
            for p in range(len(theta_k)):
                if p == p0:
                    continue
                blk = Wp[:, j: j + r]
                Zp[:, nq + p * r: nq + (p + 1) * r] = blk
                rest -= theta_k[p] * blk
                j += r
            Zp[:, nq + p0 * r: nq + (p0 + 1) * r] = rest / theta_k[p0]
            # equilibrated Gram + Cholesky when the columns allow it; the
            # blocks are often numerically dependent, then a QR it is
            cell.precond_factor = _norm_factor(Zp, gram_tol=1e-7)
        cell.dirty = False

    # ----- evaluation -----
    def _solve_cell(self, k: int, ath: np.ndarray, fth: np.ndarray) -> np.ndarray:
        """Reduced coefficients in cell k for points with operator and rhs
        coefficients ath (n, P) and fth (n, Q); NaN rows where the reduced
        system is singular."""
        cell = self._ensure_cell(k)
        G = sum(a[:, None, None] * Gp for a, Gp in zip(ath.T, cell.reduced_ops))
        b = sum(a[:, None] * bq for a, bq in zip(fth.T, cell.reduced_rhs))
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
        ath, fth = self.model.coefficients(xi[None])
        coeffs = self._solve_cell(k, ath, fth)
        if np.isnan(coeffs[0, 0]):
            raise BasisDegeneracyError(f"singular reduced system in cell {k}")
        cell = self.cells[k]
        resid = float(_residual_norms(cell.resid_factor, ath, fth, coeffs)[0])
        coeffs = coeffs[0]
        return ReducedSolution(coeffs=coeffs, observed=cell.obs_basis @ coeffs,
                               residual=resid, atom_index=k)

    def reconstruct(self, sol: ReducedSolution) -> np.ndarray:
        """Full-space surrogate state (costs O(n_dof * r); for checks)."""
        return self._ensure_cell(sol.atom_index).basis @ sol.coeffs

    def _indicator_raw(self, xi, sol: ReducedSolution) -> float:
        if self.indicator == "sigma_min":
            return sol.residual
        cell = self._ensure_cell(sol.atom_index)
        ath, fth = self.model.coefficients(np.asarray(xi, dtype=float)[None])
        return float(_residual_norms(cell.precond_factor, ath, fth, sol.coeffs[None])[0])

    def error_indicator_u(self, xi: np.ndarray, sol: ReducedSolution | None = None) -> float:
        """Computable proxy bounding the state error of the surrogate."""
        xi = np.asarray(xi, dtype=float)
        if sol is None:
            sol = self.reduced_solve(xi)
        return self._indicator_raw(xi, sol) / self.stability_constant

    def _evaluate(self, points: np.ndarray, observations):
        """(surrogate losses, raw indicators, data-distance sums) at the rows
        of an (n, M) array of points.

        Where a cell's reduced system is singular the three are NaN, inf
        and 0.  The raw quantities do not depend on the calibration state,
        so they can be cached across refinement steps while the stability
        constant keeps adapting.
        """
        points = np.asarray(points, dtype=float)
        n = len(points)
        ath, fth = self.model.coefficients(points)
        cells = self._nearest(points)
        observed = np.full((n, self.model.n_obs), np.nan)
        raws = np.full(n, np.inf)
        # cells in order of first appearance, as a loop over the points
        # would build them
        uniq, first = np.unique(cells, return_index=True)
        for k in uniq[np.argsort(first)]:
            idx = np.flatnonzero(cells == k)
            coeffs = self._solve_cell(k, ath[idx], fth[idx])
            ok = ~np.isnan(coeffs[:, 0])
            idx, coeffs = idx[ok], coeffs[ok]
            cell = self.cells[k]
            observed[idx] = (cell.obs_basis[None] @ coeffs[:, :, None])[:, :, 0]
            factor = (cell.resid_factor if self.indicator == "sigma_min"
                      else cell.precond_factor)
            raws[idx] = _residual_norms(factor, ath[idx], fth[idx], coeffs)
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

    def _loss_indicator_from_raw(self, raw: float, dist_sum: float, n_data: int) -> float:
        eps_u = raw / self.stability_constant
        if self.model.loss_kind == "squared_l2":
            step = self._obs_norm * eps_u
            return float(2.0 * dist_sum * step + n_data * step**2)
        return self.holder_k(n_data) * eps_u

    def surrogate_loss(self, xi: np.ndarray, observations):
        """(surrogate loss, loss-error indicator) at xi."""
        lbar, raw, dist_sum = self._loss_eval_raw(xi, observations)
        return lbar, self._loss_indicator_from_raw(raw, dist_sum, observations.n)

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
            return np.array([self._loss_indicator_from_raw(r, d, n_data)
                             for r, d in zip(raws, dist_sums)])

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
            for k, cell in enumerate(self.cells):
                if cell.dirty and np.any(new_assign == k):
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
