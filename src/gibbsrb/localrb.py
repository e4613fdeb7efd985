"""Locally refined reduced-basis surrogate for the forward map and the loss.

Parameter space is partitioned into Voronoi cells seeded at atoms.  Each
atom carries a high-fidelity snapshot and its parameter gradient; the
cell's basis stacks those with the snapshots of the N nearest atoms.  A
Galerkin solve in the cell basis yields the surrogate state; a cached
triangular factor turns the norm of the residual preconditioned by the
cell atom's factorized operator into an O(K^2) evaluation independent of
the mesh size.

The state-error indicator divides that preconditioned residual norm by a
stability constant calibrated on the fly from the (residual, true error)
pairs that every atom insertion produces for free.  The loss indicator
converts the state indicator through the loss kind: an exact quadratic
bound for squared losses, Lipschitz constants for the l1/l2 kinds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # patched by bench/layers.py
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
    full_solves: int      # the model's full-solve count once it was inserted


@dataclass
class RefinementReport:
    atoms_added: int
    e_thre: float
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
    precond_factor: np.ndarray | None = None  # R of qr(A_k^{-1} [f_q | A_p Phi])


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


class Surrogate:
    """Atom set, local bases, cached reduced operators and error indicators.

    Evaluation takes whole arrays of points: the reduced systems of all the
    points whose cells share a basis rank are solved in one stacked call.
    A cell whose neighbor set changed is rebuilt lazily on first use, from
    its first changed basis input, so evaluation changes cached state too;
    no method may run concurrently with another.
    """

    def __init__(self, model, neighbor_count: int = DEFAULT_NEIGHBORS,
                 atom_budget: int = DEFAULT_ATOM_BUDGET):
        self.model = model
        self.neighbor_count = int(neighbor_count)
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
        self._obs_norm = model.observation_operator_norm()
        self._lu_cache: dict[int, object] = {}
        self.reduced_solves = 0

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
        """Divisor turning the preconditioned residual into a state-error bound."""
        if not self._ratios:
            return CALIBRATION_SAFETY
        q = self._ratio_quantile
        if q is None:
            recent = self._ratios[-CALIBRATION_WINDOW:]
            q = self._ratio_quantile = float(np.percentile(recent, CALIBRATION_QUANTILE))
        return CALIBRATION_SAFETY * q

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
        """Insert an atom: one factorization of A(xi), shared by a full and a
        sensitivity solve, then build the new atom's cell; cells whose
        neighbor set changed are rebuilt when a query next lands in them.

        A point outside the parameter box raises ValueError from the
        factorization, before any surrogate state changes.
        """
        if self.n_atoms >= self.atom_budget:
            raise AtomBudgetError(f"atom budget {self.atom_budget} exhausted")
        xi = np.array(xi, dtype=float)
        s = self.model.domain.scale(xi)
        if self.n_atoms:
            d = np.sqrt(np.sum((self._scaled_locs - s) ** 2, axis=1))
            if d.min() <= DUPLICATE_TOL:
                raise DuplicateAtomError(f"atom at {xi} duplicates atom "
                                         f"{int(np.argmin(d))}")
        factors = self.model.factorize(xi)
        # calibration byproduct: (raw indicator, prediction) at the insertion
        # point; the raw indicator is inf where the reduced system is singular
        raw = np.inf
        if self.atoms:
            (k,), coeffs, _, (raw,) = self.reduced_solve(xi[None])
            basis = self.cells[k].basis
            prediction = basis @ coeffs[0, :basis.shape[1]]

        u = self.model.solve_full(xi, factors)
        grad = self.model.solve_sensitivity(u, factors[1])
        idx = self.n_atoms
        self.atoms.append(Atom(location=xi, snapshot=u, gradient=grad,
                               full_solves=self.model.counters.full))
        self._lu_stash(idx, factors[1])
        self._insert_location(s)
        self._build_cell(idx)  # the new cell's factorization is in hand

        if np.isfinite(raw):
            err = np.linalg.norm(u - prediction)
            if err > 1e-13 * max(np.linalg.norm(u), 1.0):
                self._ratios.append(raw / err)
                self._ratio_quantile = None
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
        # preconditioned residual pieces A_k^{-1} [f_q | A_p Phi]; the block
        # for the dominant coefficient follows from the affine identity
        # sum_p theta_p(xi_k) A_k^{-1} A_p Phi = Phi, saving r solve columns.
        # That identity and u_k in span Phi make the columns dependent, so
        # the factor comes from a QR.
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

    def reduced_solve(self, points: np.ndarray):
        """Galerkin solves at the rows of an (n, M) array of points, each in
        its nearest atom's cell: (hosting cells, coefficients, observed
        outputs, raw indicators).

        The coefficients are an (n, r_max) array, NaN past each hosting
        cell's basis rank r.  The points of all hosting cells of one rank
        are solved in one stacked call, on the cells' arrays gathered per
        point (the indicator factors in blocks of at most _GATHER_BYTES).
        Where a cell's reduced system is singular the coefficients and
        outputs are NaN and the raw indicator is inf.  Raw indicators do
        not depend on the calibration state, so they can be cached across
        refinement steps while the stability constant keeps adapting.
        """
        points = np.asarray(points, dtype=float)
        n = len(points)
        ath, fth = self.model.coefficients(points)
        hosts = self._nearest(points)
        # dirty cells are built in order of first appearance, as a loop over
        # the points would build them (this fixes the LU cache order)
        for k in dict.fromkeys(hosts.tolist()):
            self._ensure_cell(k)
        cells = [self.cells[k] for k in hosts.tolist()]  # per point
        ranks = np.array([c.basis.shape[1] for c in cells], dtype=int)
        coeffs = np.full((n, ranks.max(initial=0)), np.nan)
        observed = np.full((n, self.model.n_obs), np.nan)
        raws = np.full(n, np.inf)
        for r in np.unique(ranks):
            idx = np.flatnonzero(ranks == r)
            group = [cells[i] for i in idx.tolist()]
            c = self._solve_stack(np.stack([g.reduced_ops for g in group]),
                                  np.stack([g.reduced_rhs for g in group]), ath[idx], fth[idx])
            coeffs[idx, :r] = c
            ok = ~np.isnan(c[:, 0])
            idx, c = idx[ok], c[ok]
            group = [g for g, keep in zip(group, ok) if keep]
            if not group:
                continue
            observed[idx] = (np.stack([g.obs_basis for g in group]) @ c[:, :, None])[:, :, 0]
            step = max(1, _GATHER_BYTES // group[0].precond_factor.nbytes)
            for start in range(0, len(idx), step):
                b = slice(start, start + step)
                raws[idx[b]] = _residual_norms(np.stack([g.precond_factor for g in group[b]]),
                                               ath[idx[b]], fth[idx[b]], c[b])
        return hosts, coeffs, observed, raws

    def _evaluate(self, points: np.ndarray, observations):
        """(surrogate losses, raw indicators, data-distance sums) at the rows
        of an (n, M) array of points, from reduced_solve; NaN, inf and 0
        where a cell's reduced system is singular."""
        _, _, observed, raws = self.reduced_solve(points)
        losses = self.model.loss_from_prediction(observed, observations)
        dist_sums = np.sum(np.linalg.norm(observed[:, None, :] - observations.data,
                                          axis=-1), axis=-1)
        dist_sums[np.isnan(dist_sums)] = 0.0
        return losses, raws, dist_sums

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
        """(surrogate loss, loss-error indicator) at xi; raises
        BasisDegeneracyError where the reduced system is singular."""
        xi = np.asarray(xi, dtype=float)
        losses, raws, dist_sums = self._evaluate(xi[None], observations)
        if np.isnan(losses[0]):
            raise BasisDegeneracyError(
                f"singular reduced system in cell {self.nearest_atom(xi)}")
        return float(losses[0]), float(self._loss_indicator_from_raw(
            raws[0], dist_sums[0], observations.n))

    def loss_fn(self, observations):
        """Surrogate losses at the rows of an (n, M) array (for samplers);
        NaN where the reduced system is singular."""
        def fn(points):
            return self._evaluate(points, observations)[0]
        return fn

    # ----- refinement -----
    def refine_over_particles(self, points: np.ndarray, observations,
                              e_thre) -> RefinementReport:
        """Greedy refinement until the loss indicator is below the threshold
        at every particle: repeatedly add an atom at the worst particle.

        ``e_thre`` is the threshold, or a function that returns it from the
        particles' surrogate losses before refinement; either way the report
        records the threshold used.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            raise ValueError("empty particle set")
        if not self.atoms:
            self.add_atom(points[0])

        n_data = observations.n
        scaled_pts = self.model.domain.scale(points)
        losses, raws, dist_sums = self._evaluate(points, observations)
        if callable(e_thre):
            e_thre = e_thre(losses)
        if e_thre <= 0:
            raise ValueError("e_thre must be positive")

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
            atoms_added=added, e_thre=float(e_thre), e_max_initial=e_initial,
            e_max_final=float(np.max(inds)), loss_values=losses,
            indicator_values=inds, saturated=saturated,
        )
