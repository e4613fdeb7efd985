"""Locally refined reduced-basis surrogate for the forward map and the loss.

Parameter space is partitioned into Voronoi cells seeded at atoms, each with a
high-fidelity snapshot and its parameter gradient.  A cell's basis spans its
atom's snapshot, the N nearest atoms' snapshots and its atom's gradient, less
each source numerically in the span of those before it.  A Galerkin solve
in the cell basis yields the surrogate state.

A query builds, in one stacked pass, the cells it first lands in.  It
groups its points by their cells' basis rank, and each rank's points stack
their own cells' reduced arrays into one Galerkin solve.  An indicator
read forms the residuals f(xi) - A(xi) Phi c of all its points through the
model, which owns every affine sum, and makes one band solve per hosting
cell with the cell atom's LU, from an LU cache of the atoms'
factorizations; loss-only queries never touch that cache.

The state-error indicator is that preconditioned residual norm,
||A_k^{-1} (f(xi) - A(xi) Phi c)|| for the cell atom k.  It is an
estimate, not a certified bound: the true error can exceed it where A_k is
a poor preconditioner for A(xi).  The model turns it into the loss
indicator (ForwardModel.losses_and_bounds), which alone reads the loss kind.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor  # patched by bench/layers.py
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_NEIGHBORS

DUPLICATE_TOL = 1e-12       # scaled-coordinate distance
ORTHO_DROP_TOL = 1e-10      # a basis drops a source with |R_jj| <= this * its norm
_LU_CACHE_SIZE = 64        # atom LUs kept for indicator reads; a miss refactorizes
ATOM_BUDGET = 2000          # atoms a surrogate may hold; refinement past it fails


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
class RefinementReport:
    atoms_added: int
    e_thre: float
    e_max_final: float
    loss_values: np.ndarray


@dataclass
class _Cell:  # a built cell; Surrogate.cells holds None for an unbuilt one
    neighbors: tuple            # the N nearest other atoms, ties by index
    reach: float                # a new atom strictly nearer joins neighbors
    basis: np.ndarray           # (n_dof, r), orthonormal
    reduced_ops: np.ndarray     # (P, r, r) Phi^T A_p Phi
    reduced_rhs: np.ndarray     # (Q, r) Phi^T f_q
    obs_basis: np.ndarray       # D_obs Phi


def _bases(S: np.ndarray):
    """(Q, ranks) of the (c, n_dof, s) stack S of cells' sources, cell i's
    basis being Q[i, :, :ranks[i]], by the rule of Surrogate._ensure_cells."""
    Q, R = np.linalg.qr(S)
    d = np.abs(np.diagonal(R, axis1=1, axis2=2))  # min(n_dof, sources) entries
    dependent = d <= ORTHO_DROP_TOL * np.linalg.norm(S[:, :, :d.shape[1]], axis=1)
    ranks = np.where(dependent.any(axis=1), dependent.argmax(axis=1), d.shape[1])
    for i in np.flatnonzero(dependent.sum(axis=1) + ranks < d.shape[1]):
        # a dependent source precedes an independent one: QR the rest again
        keep = np.r_[~dependent[i], np.ones(S.shape[2] - d.shape[1], dtype=bool)]
        q, r = _bases(S[i:i + 1, :, keep])
        Q[i, :, :r[0]], ranks[i] = q[0, :, :r[0]], r[0]
    return Q, ranks


def _groups(ks, keys: list) -> dict:
    """{key: [k, ...]} of each k of ks with its key of keys, in their order."""
    out: dict = {}
    for k, key in zip(ks, keys):
        out.setdefault(key, []).append(k)
    return out


class Surrogate:
    """Atom set, local bases, cached reduced operators and atom LUs.

    Evaluation takes whole arrays of points: the reduced systems of all the
    points whose cells share a basis rank are solved in one stacked call.
    A cell whose neighbor set changes is unbuilt (None), and an unbuilt
    cell is built when a query first lands in it, so evaluation changes
    cached state too; no method may run concurrently with another.
    """

    def __init__(self, model, neighbor_count: int = DEFAULT_NEIGHBORS):
        self.model = model
        self.neighbor_count = int(neighbor_count)
        self.atoms: list[Atom] = []
        self.cells: list[_Cell | None] = []
        self._scaled_locs = np.zeros((0, model.dim))
        self._lu_cache: dict[int, object] = {}
        self._staged: dict[int, tuple] = {}  # a stacked pass's arrays per cell
        self.reduced_solves = 0

    # ----- bookkeeping -----
    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    # ----- geometry -----
    def _nearest(self, points: np.ndarray) -> np.ndarray:
        """Closest atom to each row of an (n, M) array, in box-scaled
        Euclidean distance; ties take the lowest index (argmin returns the
        first minimum)."""
        if not self.atoms:
            raise ValueError("surrogate has no atoms yet")
        s = self.model.domain.scale(points)
        d2 = ((s[:, None, :] - self._scaled_locs[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    def _insert_location(self, s: np.ndarray, d2: np.ndarray) -> None:
        """Append a new atom's scaled location s and unbuilt cell, and unbuild
        (set to None) every built cell whose reach the atom lies strictly
        inside, from its squared distances d2 to the atoms before it: the new
        atom has the highest index, so it goes after equal distances, and it
        joins exactly those cells' neighbor tuples."""
        self._scaled_locs = np.vstack([self._scaled_locs, s[None, :]])
        for i, (cell, d) in enumerate(zip(self.cells, d2.tolist())):
            if cell is not None and d < cell.reach:
                self.cells[i] = None
        self.cells.append(None)

    # ----- construction -----
    def add_atom(self, xi: np.ndarray) -> int:
        """Insert an atom: one factorization of A(xi), shared by a full and a
        sensitivity solve, and kept in the LU cache for the indicator reads
        in the new cell.  It makes no reduced solve and builds no cell: the
        new cell, and every cell whose neighbor set changed, is unbuilt
        until a query lands in it.

        A point outside the parameter box raises ValueError from the
        factorization, before any surrogate state changes.
        """
        if self.n_atoms >= ATOM_BUDGET:
            raise AtomBudgetError(f"atom budget {ATOM_BUDGET} exhausted")
        xi = np.array(xi, dtype=float)
        s = self.model.domain.scale(xi)
        d2 = np.sum((self._scaled_locs - s) ** 2, axis=1)
        if self.n_atoms and np.sqrt(d2.min()) <= DUPLICATE_TOL:
            raise DuplicateAtomError(f"atom at {xi} duplicates atom {int(np.argmin(d2))}")
        factors = self.model.factorize(xi)
        u = self.model.solve_full(xi, factors)
        grad = self.model.solve_sensitivity(u, factors[1])
        idx = self.n_atoms
        self.atoms.append(Atom(location=xi, snapshot=u, gradient=grad))
        self._lu_stash(idx, factors[1])
        self._insert_location(s, d2)
        return idx

    def _lu_stash(self, idx, lu):
        self._lu_cache[idx] = lu
        while len(self._lu_cache) > _LU_CACHE_SIZE:
            self._lu_cache.pop(next(iter(self._lu_cache)))

    def _lu_for(self, idx):
        lu = self._lu_cache.pop(idx, None)  # LRU: a hit moves to the back
        if lu is None:
            _, lu = self.model.factorize(self.atoms[idx].location)
            self.model.counters.stability += 1
        self._lu_stash(idx, lu)
        return lu

    def _ensure_cells(self, ks: list) -> None:
        """Build the unbuilt cells among ks in one stacked pass.

        A cell's neighbors are the N nearest other atoms by squared scaled
        distance, ties by index (a stable argsort); its reach is the farthest
        one's squared distance, inf when fewer than N and -inf when N = 0.
        Its basis is Q[:, :r] of a Householder QR of the sources [u_k | u_j
        per neighbor j, nearest first | grad u_k]: r ends before the first
        source whose |R_jj| is at most ORTHO_DROP_TOL times its norm, or at
        n_dof.  Every tuple holds min(N, atoms - 1) atoms, so one stacked QR
        serves all the new cells.  A cell where such a dependent source
        precedes an independent one drops its dependent sources and QRs the
        rest again, until they all trail, so it loses only them.
        Per basis rank, the model projects its terms onto the new cells'
        bases (ForwardModel.project, one sparse product).  Stacked LAPACK,
        BLAS and CSR calls run the same kernel per matrix and per column,
        so the arrays are bit-identical to one-cell builds.
        """
        new = [k for k in ks if self.cells[k] is None]
        if not new:
            return
        N, locs = self.neighbor_count, self._scaled_locs
        d2 = np.sum((locs - locs[new, None]) ** 2, axis=2)
        d2[range(len(new)), new] = -np.inf  # the cell's own atom sorts first
        nbs = np.argsort(d2, axis=1, kind="stable")[:, 1:N + 1]
        reach = (d2[range(len(new)), nbs[:, -1]] if 0 < N == nbs.shape[1]
                 else np.full(len(new), np.inf if N else -np.inf))
        tuples = {k: (tuple(nb), r) for k, nb, r in zip(new, nbs.tolist(), reach.tolist())}
        S = np.stack([np.column_stack(
            [self.atoms[k].snapshot] + [self.atoms[j].snapshot for j in tuples[k][0]]
            + [self.atoms[k].gradient]) for k in new])
        Q, ranks = _bases(S)
        for r, rows in _groups(range(len(new)), ranks.tolist()).items():
            Phis = Q[rows, :, :r]
            for k, *arrays in zip([new[i] for i in rows], Phis, *self.model.project(Phis)):
                self._staged[k] = (*tuples[k], *arrays)
        for k in new:
            self._build_cell(k)

    def _build_cell(self, k: int) -> None:
        """Install unbuilt cell k from the stacked pass in progress
        (_ensure_cells), its arrays as copies that hold no view into the
        pass's arrays."""
        neighbors, reach, *arrays = self._staged.pop(k)
        self.cells[k] = _Cell(neighbors, reach, *(a.copy() for a in arrays))

    # ----- evaluation -----
    def _solve_stack(self, ops: np.ndarray, rhs: np.ndarray, ath: np.ndarray,
                     fth: np.ndarray) -> np.ndarray:
        """Reduced coefficients for points with gathered reduced operators
        ops (n, P, r, r) and right-hand sides rhs (n, Q, r), and operator and
        rhs coefficients ath (n, P) and fth (n, Q); NaN rows where the
        reduced system is singular.  G and b are sums over the outer axis
        from zero, term by term in order."""
        G = np.add.reduce(ath[:, :, None, None] * ops, axis=1, initial=0.0)
        b = np.add.reduce(fth[:, :, None] * rhs, axis=1, initial=0.0)
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

    def reduced_solve(self, points: np.ndarray, indicators: bool = True, hosts=None):
        """Galerkin solves at the rows of an (n, M) array of points, each in
        its nearest atom's cell: (hosting cells, coefficients, observed
        outputs, raw indicators), in the order of the points.  ``hosts``,
        when given, must be _nearest(points); it saves the search.

        The coefficients are an (n, r_max) array, NaN past each hosting
        cell's basis rank r; where a cell's reduced system is singular the
        coefficients and outputs are NaN and the raw indicator is inf.  The
        points are grouped by their cells' basis rank, in order of first
        appearance; each rank's points stack their own cells' reduced
        arrays and are solved in one stacked call.  An indicator read groups
        the solved points by cell in order of first appearance, the LU
        cache's lookup order: one stacked matvec and one band solve per
        cell, and one ForwardModel.residuals call for all.  Each kernel
        works one matrix or one column at a time, so every value is
        bit-identical to the one-point forms, whatever the order of the
        points.  With ``indicators=False`` the raw indicators are None, and
        no LU is looked up.
        """
        points = np.asarray(points, dtype=float)
        n = len(points)
        ath, fth = self.model.coefficients(points)
        if hosts is None:
            hosts = self._nearest(points)
        self._ensure_cells(list(dict.fromkeys(hosts.tolist())))
        cells = [self.cells[k] for k in hosts.tolist()]  # each point's cell
        by_rank = _groups(range(n), [cell.basis.shape[1] for cell in cells])
        coeffs = np.full((n, max(by_rank, default=0)), np.nan)
        observed = np.full((n, self.model.n_obs), np.nan)
        for r, idx in by_rank.items():
            ops = np.array([cells[i].reduced_ops for i in idx])
            rhs = np.array([cells[i].reduced_rhs for i in idx])
            obs = np.array([cells[i].obs_basis for i in idx])
            c = self._solve_stack(ops, rhs, ath[idx], fth[idx])
            coeffs[idx, :r] = c
            observed[idx] = (obs @ c[:, :, None])[:, :, 0]  # NaN where c is
        if not indicators:
            return hosts, coeffs, observed, None
        raws = np.full(n, np.inf)
        sel = np.flatnonzero(~np.isnan(coeffs).all(axis=1))  # an unsolved row is all NaN
        # {cell: its points' places in sel, as an index array}, in order of first appearance
        by_cell = {k: np.array(i) for k, i in
                   _groups(range(len(sel)), hosts[sel].tolist()).items()}
        states = np.empty((self.model.n_dof, len(sel)))
        for k, i in by_cell.items():  # stacked matvecs, one per point
            basis = self.cells[k].basis
            states[:, i] = (basis @ coeffs[sel[i], :basis.shape[1], None])[:, :, 0].T
        resid = self.model.residuals(ath[sel], fth[sel], states)
        v = np.empty((len(sel), self.model.n_dof))
        for k, i in by_cell.items():  # the LU cache's lookups, in by_cell's order
            v[i] = self._lu_for(k).solve(resid[:, i]).T
        raws[sel] = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        return hosts, coeffs, observed, raws

    def _evaluate(self, points: np.ndarray, observations, hosts=None):
        """(surrogate losses, loss-error indicators) at the rows of an (n, M)
        array of points, from reduced_solve; NaN and inf where a cell's
        reduced system is singular."""
        _, _, observed, raws = self.reduced_solve(points, hosts=hosts)
        return self.model.losses_and_bounds(observed, raws, observations)

    def surrogate_loss(self, xi: np.ndarray, observations):
        """(surrogate loss, loss-error indicator) at xi; raises
        BasisDegeneracyError where the reduced system is singular."""
        xi = np.asarray(xi, dtype=float)
        losses, bounds = self._evaluate(xi[None], observations)
        if np.isnan(losses[0]):
            raise BasisDegeneracyError(
                f"singular reduced system in cell {int(self._nearest(xi[None])[0])}")
        return float(losses[0]), float(bounds[0])

    def loss_fn(self, observations):
        """Surrogate losses at the rows of an (n, M) array (for samplers);
        NaN where the reduced system is singular.  Reads no indicator, so
        it looks up no LU."""
        def fn(points):
            observed = self.reduced_solve(points, indicators=False)[2]
            return self.model.loss_from_prediction(observed, observations)
        return fn

    # ----- refinement -----
    def refine_over_particles(self, points: np.ndarray, observations,
                              e_thre) -> RefinementReport:
        """Greedy refinement until the loss indicator is below the threshold
        at every particle: repeatedly add an atom at the worst particle.

        ``e_thre`` is the threshold, or a function that returns it from the
        particles' surrogate losses before refinement; either way the report
        records the threshold used.  Refinement also stops when every
        particle above the threshold already holds an atom; then
        ``e_max_final`` exceeds ``e_thre``.

        One search gives each particle's host and squared scaled distance;
        an insertion moves only the particles strictly nearer the new atom
        (the highest index, so ties keep the lowest), leaves the new atom's
        cell and every cell whose neighbor set changed unbuilt (None), and builds
        the unbuilt hosting cells in one pass to re-evaluate their particles.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] == 0:
            raise ValueError("empty particle set")
        if not self.atoms:
            self.add_atom(points[0])

        scaled_pts = self.model.domain.scale(points)
        hosts = self._nearest(points)
        d2 = np.sum((scaled_pts - self._scaled_locs[hosts]) ** 2, axis=1)
        losses, inds = self._evaluate(points, observations, hosts)
        if callable(e_thre):
            e_thre = e_thre(losses)
        if e_thre <= 0:
            raise ValueError("e_thre must be positive")

        # a particle's loss and indicator hold while its cell is untouched
        start = self.n_atoms
        while np.max(inds) > e_thre:  # a NaN indicator ends refinement
            # the worst particle that holds no atom; ties take the lowest index
            free = np.flatnonzero((inds > e_thre) & (np.sqrt(d2) > DUPLICATE_TOL))
            if not free.size:
                break
            new = self.add_atom(points[free[np.argmax(inds[free])]])
            d2_new = np.sum((scaled_pts - self._scaled_locs[new]) ** 2, axis=1)
            moved = d2_new < d2
            hosts[moved], d2[moved] = new, d2_new[moved]
            # re-evaluate the particles in unbuilt cells: the new atom's and
            # those whose neighbor set it joined
            idx = np.flatnonzero([self.cells[k] is None for k in hosts.tolist()])
            losses[idx], inds[idx] = self._evaluate(points[idx], observations, hosts[idx])
        return RefinementReport(atoms_added=self.n_atoms - start, e_thre=float(e_thre),
                                e_max_final=float(np.max(inds)), loss_values=losses)
