import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from gibbsrb import ObservationSet, Surrogate, assemble, gen_data, localrb
from gibbsrb.forward.model import ForwardModel
from gibbsrb.localrb import AtomBudgetError, BasisDegeneracyError, DuplicateAtomError

from test_forward_models import SMALL_PRESET_IDS


@pytest.fixture()
def adv1d_surr(adv1d_model):
    return Surrogate(adv1d_model, neighbor_count=5)


def built_cell(s, k):
    """Cell k of s with its basis and reduced arrays built."""
    s._ensure_cells([k])
    return s.cells[k]


def _states(s, points):
    """(surrogate states Phi c, hosting cells, raw indicators) at the rows
    of points, from one reduced_solve call."""
    cells, coeffs, _, raws = s.reduced_solve(np.atleast_2d(points))
    states = [s.cells[k].basis @ c[:s.cells[k].basis.shape[1]]
              for k, c in zip(cells, coeffs)]
    return states, cells, raws


def test_first_atom_basis_dimension(adv1d_model):
    s = Surrogate(adv1d_model)
    s.add_atom(np.array([0.5, 0.5]))
    assert s.n_atoms == 1
    cell = built_cell(s, 0)
    # snapshot plus M gradient columns at most
    assert cell.basis.shape[1] <= 1 + adv1d_model.dim
    assert cell.neighbors == () and cell.reach == np.inf


def test_voronoi_corner_center_geometry(adv1d_surr):
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    for p in pts:
        adv1d_surr.add_atom(np.array(p))
    queries = np.array([[0.5 + 1e-6, 0.5 - 1e-6], [0.01, 0.02], [0.98, 0.99]])
    assert adv1d_surr._nearest(queries).tolist() == [4, 0, 3]


def test_nearest_tie_takes_lower_index(adv1d_surr):
    adv1d_surr.add_atom(np.array([0.25, 0.5]))
    adv1d_surr.add_atom(np.array([0.75, 0.5]))
    assert adv1d_surr._nearest(np.array([[0.5, 0.5]])).tolist() == [0]


def test_nearest_matches_linear_scan(adv1d_surr):
    rng = np.random.default_rng(0)
    atoms = rng.random((12, 2))
    for a in atoms:
        adv1d_surr.add_atom(a)
    queries = rng.random((50, 2))
    d = np.sum((atoms[None, :, :] - queries[:, None, :]) ** 2, axis=2)
    assert adv1d_surr._nearest(queries).tolist() == np.argmin(d, axis=1).tolist()


def test_empty_surrogate_raises(adv1d_surr):
    with pytest.raises(ValueError, match="no atoms"):
        adv1d_surr._nearest(np.array([[0.5, 0.5]]))


def test_reduced_solve_of_no_points(adv1d_surr):
    adv1d_surr.add_atom(np.array([0.5, 0.5]))
    _, coeffs, observed, raws = adv1d_surr.reduced_solve(np.zeros((0, 2)))
    assert coeffs.size == observed.size == raws.size == 0


def test_duplicate_atom_rejected(adv1d_surr):
    adv1d_surr.add_atom(np.array([0.5, 0.5]))
    with pytest.raises(DuplicateAtomError):
        adv1d_surr.add_atom(np.array([0.5, 0.5]))


@pytest.mark.parametrize("fixture,dropped", [
    ("adv1d_model", 0), ("adv2d_small", 1), ("elast_small", 1)])
def test_build_pass_makes_one_qr(fixture, dropped, request, monkeypatch):
    # on adv2d u is linear in the source magnitudes, and on elast
    # u(c xi) = u(xi) / c, so u_k lies in the span of its gradients and the
    # last gradient, the trailing source, is the one each cell drops
    model = request.getfixturevalue(fixture)
    s = Surrogate(model, neighbor_count=5)
    for a in model.domain.sample(9, np.random.default_rng(34)):
        s.add_atom(a)
    qrs, qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: qrs.append(a.shape) or
                        qr(a, *args, **kw))
    s._ensure_cells(range(s.n_atoms))
    sources = 1 + 5 + model.dim
    assert qrs == [(s.n_atoms, model.n_dof, sources)]
    assert [cell.basis.shape[1] for cell in s.cells] == [sources - dropped] * s.n_atoms


def _cell_sources(s, k):
    """Cell k's sources [u_k | neighbors' u_j, nearest first | grad u_k]."""
    atom = s.atoms[k]
    return np.column_stack([atom.snapshot] + [s.atoms[j].snapshot for j in s.cells[k].neighbors]
                           + [atom.gradient])


def _assert_spans(basis, sources):
    """basis is orthonormal and every source lies in its span."""
    assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) < 1e-12
    gap = np.linalg.norm(sources - basis @ (basis.T @ sources), axis=0)
    assert np.all(gap <= 1e-9 * np.linalg.norm(sources, axis=0))


def test_dependent_neighbor_drops_only_itself(adv1d_surr):
    # the cell's third neighbor gets a copy of its first neighbor's snapshot,
    # so the basis keeps every source but that copy, gradients included
    s = adv1d_surr
    for a in np.random.default_rng(35).random((8, 2)):
        s.add_atom(a)
    k = 4
    first, _, third = built_cell(s, k).neighbors[:3]
    s.atoms[third] = dataclasses.replace(s.atoms[third], snapshot=s.atoms[first].snapshot.copy())
    s.cells[k] = None
    basis = built_cell(s, k).basis
    assert basis.shape[1] == 1 + 5 + 2 - 1
    u = s.atoms[k].snapshot
    assert np.allclose(basis[:, 0] * np.sign(basis[:, 0] @ u), u / np.linalg.norm(u),
                       rtol=0, atol=1e-14)
    _assert_spans(basis, _cell_sources(s, k))


def test_rank_deficient_snapshots_are_dropped(adv2d_small):
    # fixing xi_1 pins the operator; solutions are then linear in (xi_2, xi_3),
    # so many snapshots share a 2-dimensional span and must be dropped.  As
    # u(0.5, 0.5) = 2.5 u(0.2, 0.2), a cell's nearest neighbor can be parallel
    # to u_k; every cell still keeps u_k, one more snapshot and the xi_1
    # gradient, and its basis spans every source
    s = Surrogate(adv2d_small, neighbor_count=5)
    for x2, x3 in [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8), (0.5, 0.5)]:
        s.add_atom(np.array([0.4, x2, x3]))
    s._ensure_cells(range(s.n_atoms))
    assert [cell.basis.shape[1] for cell in s.cells] == [3] * 5
    for k, cell in enumerate(s.cells):
        _assert_spans(cell.basis, _cell_sources(s, k))


def test_orthonormal_bases(adv1d_surr):
    rng = np.random.default_rng(1)
    for a in rng.random((8, 2)):
        adv1d_surr.add_atom(a)
    for k in range(adv1d_surr.n_atoms):
        cell = built_cell(adv1d_surr, k)
        G = cell.basis.T @ cell.basis
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10


def test_more_sources_than_dofs_give_full_rank_bases():
    # 3 dofs against up to 1 + 2 + 5 = 8 offered columns: only min(n_dof, r)
    # of them can be kept
    model = assemble("adv1d", {"cells": 4})
    assert model.n_dof == 3
    s = Surrogate(model, neighbor_count=5)
    for a in np.random.default_rng(27).random((8, 2)):
        s.add_atom(a)
    for k in range(s.n_atoms):
        basis = built_cell(s, k).basis
        assert basis.shape == (3, 3)
        assert np.max(np.abs(basis.T @ basis - np.eye(3))) < 1e-12


def test_snapshot_reproduction(adv1d_surr, adv1d_model):
    rng = np.random.default_rng(2)
    atoms = rng.random((7, 2))
    for a in atoms:
        adv1d_surr.add_atom(a)
    states, cells, _ = _states(adv1d_surr, atoms)
    assert cells.tolist() == list(range(len(atoms)))
    for ubar, a in zip(states, atoms):
        u = adv1d_model.solve_full(a)
        assert np.linalg.norm(ubar - u) <= 1e-8 * np.linalg.norm(u)


def test_single_atom_taylor_order(adv1d_model):
    # with the gradient in the basis the state error decays ~ |delta|^2
    s = Surrogate(adv1d_model)
    base = np.array([0.5, 0.5])
    s.add_atom(base)
    deltas = np.array([0.16, 0.08, 0.04, 0.02, 0.01])
    errs = []
    for d in deltas:
        xi = base + np.array([d, d / 2])
        (ubar,), _, _ = _states(s, xi)
        u = adv1d_model.solve_full(xi)
        errs.append(np.linalg.norm(ubar - u))
    slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
    assert slope > 1.8


def _raw_indicator(s, xi):
    return _states(s, xi)[2][0]


def test_cached_residual_equals_direct(adv1d_surr, adv1d_model):
    # the cached factor gives ||A_k^{-1} (f(xi) - A(xi) Phi c)|| for the
    # hosting cell's atom k
    rng = np.random.default_rng(3)
    for a in rng.random((6, 2)):
        adv1d_surr.add_atom(a)
    pts = rng.random((10, 2))
    states, cells, raws = _states(adv1d_surr, pts)
    for xi, ubar, k, raw in zip(pts, states, cells, raws):
        _, lu = adv1d_model.factorize(adv1d_surr.atoms[k].location)
        f = adv1d_model._rhs(adv1d_model.coefficients(xi)[1])
        direct = np.linalg.norm(lu.solve(f - adv1d_model.operator_at(xi) @ ubar))
        assert abs(raw - direct) <= 1e-9 * max(direct, 1e-12)


def test_residual_scales_with_rhs(adv1d_model):
    # doubling f doubles the raw indicator at a fixed basis
    s = Surrogate(adv1d_model)
    s.add_atom(np.array([0.3, 0.3]))
    xi = np.array([0.6, 0.6])
    r1 = _raw_indicator(s, xi)

    # a model of its own: the terms are laid out when the model is built
    m2 = dataclasses.replace(adv1d_model, rhs_terms=[2.0 * f for f in adv1d_model.rhs_terms])
    s2 = Surrogate(m2)
    s2.add_atom(np.array([0.3, 0.3]))
    r2 = _raw_indicator(s2, xi)
    assert abs(r2 - 2.0 * r1) <= 1e-9 * r1


def _fd_gradient_error(model, xi, gradient, h=1e-4):
    """Largest relative error of the sensitivity columns against central
    differences."""
    worst = 0.0
    for j in range(model.dim):
        e = np.zeros(model.dim)
        e[j] = h
        fd = (model.solve_full(xi + e) - model.solve_full(xi - e)) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - gradient[:, j])
                    / max(np.linalg.norm(fd), 1e-300))
    return worst


def test_gradient_fd_check_at_insertion(adv1d_model):
    s = Surrogate(adv1d_model)
    rng = np.random.default_rng(4)
    for a in 0.1 + 0.8 * rng.random((3, 2)):
        idx = s.add_atom(a)
        assert _fd_gradient_error(adv1d_model, a, s.atoms[idx].gradient) < 1e-5


def test_add_atom_factorizes_once(adv1d_model, monkeypatch):
    # the full solve and the sensitivity solve use the one factorization of
    # A(xi), which stays in the LU cache for the new cell's indicator reads
    s = Surrogate(adv1d_model)
    made, solved_with = [], []
    factorize, sensitivity = ForwardModel.factorize, ForwardModel.solve_sensitivity

    def counting(self, xi):
        made.append(factorize(self, xi))
        return made[-1]

    def recording(self, u, lu):
        solved_with.append(lu)
        return sensitivity(self, u, lu)
    monkeypatch.setattr(ForwardModel, "factorize", counting)
    monkeypatch.setattr(ForwardModel, "solve_sensitivity", recording)
    stability = adv1d_model.counters.stability
    for n, a in enumerate(np.random.default_rng(27).random((6, 2)), start=1):
        idx = s.add_atom(a)
        assert len(made) == len(solved_with) == n
        assert solved_with[-1] is made[-1][1] and s._lu_cache[idx] is made[-1][1]
        u = made[-1][1].solve(adv1d_model._rhs(adv1d_model.coefficients(a)[1]))
        assert np.array_equal(s.atoms[idx].snapshot, u)
    assert adv1d_model.counters.stability == stability  # no LU cache miss


def test_add_atom_outside_box_raises_before_factorizing(adv1d_model, monkeypatch):
    s = Surrogate(adv1d_model)
    for a in np.random.default_rng(28).random((4, 2)):
        s.add_atom(a)
    assert any(c is None for c in s.cells)  # a query would build these
    cells = list(s.cells)
    counts, solves = adv1d_model.counters.snapshot(), s.reduced_solves
    calls = []
    factorize = type(adv1d_model._band).factorize

    def counting(*args):
        calls.append(1)
        return factorize(*args)
    monkeypatch.setattr(type(adv1d_model._band), "factorize", counting)
    with pytest.raises(ValueError, match="outside"):
        s.add_atom(np.array([0.5, 1.2]))
    assert calls == []
    assert s.n_atoms == len(s.cells) == 4
    assert all(a is b for a, b in zip(s.cells, cells))
    assert adv1d_model.counters.snapshot() == counts and s.reduced_solves == solves


def test_state_indicator_bounds_error(adv1d_model, adv1d_obs):
    rng = np.random.default_rng(5)
    s = Surrogate(adv1d_model)
    s.refine_over_particles(rng.random((60, 2)), adv1d_obs, e_thre=1e-2)
    hits = 0
    pts = rng.random((20, 2))
    states, _, raws = _states(s, pts)
    for xi, ubar, eps_u in zip(pts, states, raws):
        err = np.linalg.norm(ubar - adv1d_model.solve_full(xi))
        if eps_u >= err * (1 - 0.5):
            hits += 1
    assert hits >= 19  # >= 95% of 20


def test_indicator_zero_at_atoms(adv1d_model):
    s = Surrogate(adv1d_model)
    s.add_atom(np.array([0.4, 0.6]))
    s.add_atom(np.array([0.7, 0.2]))
    eps_u = _raw_indicator(s, [0.4, 0.6])
    f = adv1d_model._rhs(adv1d_model.coefficients(np.array([0.4, 0.6]))[1])
    assert eps_u <= 1e-7 * np.linalg.norm(f)


def test_loss_indicator_quadratic_bound_arithmetic():
    # squared loss, ||D||_2 = 1, known plug-in values:
    # |obs - d| = 1, eps_u = 0.1 -> 2*1*0.1 + 0.01 = 0.21; a singular
    # point (NaN prediction, eps_u = inf) gets inf
    stub = ForwardModel.__new__(ForwardModel)
    stub.loss_kind = "squared_l2"
    stub.obs_norm = 1.0
    obs = ObservationSet(data=np.array([[1.0, 0.0]]))
    predicted = np.array([[2.0, 0.0], [np.nan, np.nan]])
    losses, bounds = stub.losses_and_bounds(predicted, np.array([0.1, np.inf]), obs)
    assert losses[0] == 1.0 and np.isnan(losses[1])
    assert abs(bounds[0] - 0.21) < 1e-14
    assert bounds[1] == np.inf


@pytest.mark.parametrize("preset", ["adv2d", "elast"], ids=["l1-adv2d", "l2-elast"])
def test_loss_indicator_lipschitz_bound_arithmetic(preset, request):
    model = request.getfixturevalue({"adv2d": "adv2d_small", "elast": "elast_small"}[preset])
    assert model.loss_kind == {"adv2d": "l1", "elast": "l2"}[preset]
    obs = gen_data(model, noise_pct=0.10, n=3, seed=4)
    rng = np.random.default_rng(5)
    predicted = obs.true_obs + 0.01 * rng.standard_normal((2, model.n_obs))
    predicted = np.vstack([predicted, np.full(model.n_obs, np.nan)])
    eps_u = np.array([0.1, 1e-3, np.inf])
    losses, bounds = model.losses_and_bounds(predicted, eps_u, obs)
    assert np.array_equal(losses, model.loss_from_prediction(predicted, obs), equal_nan=True)
    assert bounds.tolist() == [_scalar_bound(model, e, None, obs.n) for e in eps_u]
    # a state error of norm eps_u moves the loss by at most the bound
    for p, e, b in zip(predicted[:2], eps_u[:2], bounds[:2]):
        du = rng.standard_normal(model.n_dof)
        moved = p + model.obs_matrix @ (e * du / np.linalg.norm(du))
        gap = abs(model.loss_from_prediction(moved, obs) - model.loss_from_prediction(p, obs))
        assert gap <= b


def test_surrogates_on_one_model_make_one_svd(monkeypatch):
    model = assemble("adv1d", {"cells": 64})
    obs = gen_data(model, noise_pct=0.10, n=1, seed=0)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.default_rng(27)
    for _ in range(2):
        s = Surrogate(model)
        s.refine_over_particles(rng.random((10, 2)), obs, e_thre=1e-3)
        s.surrogate_loss(rng.random(2), obs)
    assert len(calls) == 1


def test_surrogates_on_one_model_stack_the_terms_once(monkeypatch):
    from gibbsrb.forward import model as model_module

    model = assemble("adv1d", {"cells": 64})
    obs = gen_data(model, noise_pct=0.10, n=1, seed=0)
    calls = []
    vstack = model_module.vstack_csr
    monkeypatch.setattr(model_module, "vstack_csr",
                        lambda mats: calls.append(1) or vstack(mats))
    rng = np.random.default_rng(27)
    for _ in range(2):
        s = Surrogate(model)
        s.refine_over_particles(rng.random((10, 2)), obs, e_thre=1e-3)
        s.surrogate_loss(rng.random(2), obs)
    assert len(calls) == 1


def test_loss_gap_within_indicator(adv1d_model, adv1d_obs):
    rng = np.random.default_rng(6)
    s = Surrogate(adv1d_model)
    s.refine_over_particles(rng.random((80, 2)), adv1d_obs, e_thre=1e-3)
    good = 0
    effectivities = []
    for xi in rng.random((50, 2)):
        lbar, eps_l = s.surrogate_loss(xi, adv1d_obs)
        exact = adv1d_model.loss(xi, adv1d_obs)
        gap = abs(exact - lbar)
        if gap <= eps_l:
            good += 1
        if gap > 1e-14:
            effectivities.append(eps_l / gap)
    assert good >= 48  # >= 95% of 50
    # loose effectivity band: indicators are upper bounds up to constants
    eff = np.array(effectivities)
    in_band = np.mean((eff >= 1.0) & (eff <= 100.0))
    assert in_band >= 0.9


def test_refine_noop_when_accurate(adv1d_model, adv1d_obs):
    rng = np.random.default_rng(7)
    pts = rng.random((30, 2))
    s = Surrogate(adv1d_model)
    s.refine_over_particles(pts, adv1d_obs, e_thre=1e-3)
    n = s.n_atoms
    report = s.refine_over_particles(pts, adv1d_obs, e_thre=1e-3)
    assert report.atoms_added == 0
    assert s.n_atoms == n
    assert report.e_max_final <= 1e-3


def test_refine_single_point_cloud(adv1d_model, adv1d_obs):
    s = Surrogate(adv1d_model)
    pts = np.tile(np.array([0.31, 0.64]), (20, 1))
    report = s.refine_over_particles(pts, adv1d_obs, e_thre=1e-6)
    assert s.n_atoms <= 1
    assert report.e_max_final <= 1e-6


def test_refine_stops_when_every_particle_holds_an_atom():
    # a threshold below round-off at the atoms: once every distinct particle
    # holds an atom, only duplicates are left to add, so refinement stops
    model = assemble("adv1d", {"cells": 32})
    obs = gen_data(model, noise_pct=0.10, n=1, seed=0)
    pts = np.random.default_rng(1).random((4, 2))
    s = Surrogate(model)
    report = s.refine_over_particles(np.vstack([pts, pts[[1, 3, 1]]]), obs, e_thre=1e-300)
    assert s.n_atoms == 4
    assert report.e_max_final > report.e_thre


def test_refine_reaches_threshold_and_audits(adv1d_model, adv1d_obs):
    rng = np.random.default_rng(8)
    pts = rng.random((100, 2))
    s = Surrogate(adv1d_model)
    report = s.refine_over_particles(pts, adv1d_obs, e_thre=1e-3)
    assert report.e_max_final <= 1e-3
    worst = 0.0
    for xi in pts[::10]:
        lbar, _ = s.surrogate_loss(xi, adv1d_obs)
        worst = max(worst, abs(adv1d_model.loss(xi, adv1d_obs) - lbar))
    assert worst <= 1.1e-3


def _lattice_cloud():
    # a 5 x 5 lattice in the unit box, exact in binary: many particles lie
    # at equal distances from two or more atoms; one particle is repeated
    g = np.linspace(0.0, 1.0, 5)
    pts = np.array([(a, b) for a in g for b in g])
    return np.vstack([pts, pts[[12]]])


def test_refine_tracked_hosts_equal_nearest(adv1d_model, adv1d_obs, monkeypatch):
    # every host array refinement hands to _evaluate is a fresh search's,
    # exact ties included (a new atom takes only strictly nearer particles)
    s = Surrogate(adv1d_model)
    checked = []
    evaluate = Surrogate._evaluate

    def spy(self, points, observations, hosts=None):
        assert hosts is not None
        assert hosts.tolist() == self._nearest(points).tolist()
        checked.append(len(points))
        return evaluate(self, points, observations, hosts)

    monkeypatch.setattr(Surrogate, "_evaluate", spy)
    report = s.refine_over_particles(_lattice_cloud(), adv1d_obs, e_thre=1e-9)
    assert report.atoms_added >= 10
    assert len(checked) == report.atoms_added + 1


def test_refine_searches_the_cloud_once(adv1d_model, adv1d_obs, monkeypatch):
    # one search of the whole cloud per call; an insertion makes no search
    s = Surrogate(adv1d_model)
    sizes = []
    nearest = Surrogate._nearest

    def spy(self, points):
        sizes.append(len(points))
        return nearest(self, points)

    monkeypatch.setattr(Surrogate, "_nearest", spy)
    for seed in (0, 1):
        pts = np.random.default_rng(seed).random((30, 2))
        sizes.clear()
        report = s.refine_over_particles(pts, adv1d_obs, e_thre=1e-4)
        assert report.atoms_added > 0
        assert sizes == [30]


def test_atom_budget(adv1d_model, adv1d_obs, monkeypatch):
    monkeypatch.setattr("gibbsrb.localrb.ATOM_BUDGET", 3)
    s = Surrogate(adv1d_model)
    rng = np.random.default_rng(9)
    with pytest.raises(AtomBudgetError):
        s.refine_over_particles(rng.random((50, 2)), adv1d_obs, e_thre=1e-12)


def _scalar_bound(model, raw, dist_sum, n_data):
    """The loss-error bound of a state error raw by the scalar formulas, with
    s = ||D||_2 raw: 2 d s + n_data s^2 for the squared loss, d the distance
    sum, n_data sqrt(n_obs) s for l1 and n_data s for l2; inf where raw is."""
    if np.isinf(raw):
        return np.inf
    norm = float(np.linalg.svd(model.obs_matrix.toarray(), compute_uv=False)[0])
    if model.loss_kind == "squared_l2":
        step = norm * raw
        return 2.0 * dist_sum * step + n_data * step**2
    if model.loss_kind == "l1":
        return n_data * np.sqrt(model.n_obs) * norm * raw
    return n_data * norm * raw


def _scalar_eval(s, xi, observations):
    """(loss, raw indicator, loss-error bound) at one point by the one-point
    formulas: the reference for the batched evaluation."""
    model = s.model
    d2 = np.sum((s._scaled_locs - model.domain.scale(xi)) ** 2, axis=1)
    k = int(np.argmin(d2))
    cell = built_cell(s, k)
    ath, fth = model.coefficients(xi)
    G = sum(a * Gp for a, Gp in zip(ath, cell.reduced_ops))
    b = sum(a * bq for a, bq in zip(fth, cell.reduced_rhs))
    try:
        coeffs = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        return np.nan, np.inf, np.inf
    u = cell.basis @ coeffs
    r = model._rhs(fth)
    for a, M in zip(ath, model.operator_terms):
        r -= a * (M @ u)
    _, lu = model.factorize(s.atoms[k].location)
    raw = float(np.linalg.norm(lu.solve(r)))
    resid = (cell.obs_basis @ coeffs)[None, :] - observations.data
    if model.loss_kind == "squared_l2":
        loss = float(np.sum(resid**2))
    elif model.loss_kind == "l1":
        loss = float(np.sum(np.abs(resid)))
    else:
        loss = float(np.sum(np.linalg.norm(resid, axis=1)))
    dist_sum = float(np.sum(np.linalg.norm(resid, axis=1)))
    return loss, raw, _scalar_bound(model, raw, dist_sum, observations.n)


# the ids keep the names these cases had when the indicator was a parameter
PRESET_IDS = ["calibrated_cell-adv1d", "calibrated_cell-adv2d"]


@pytest.mark.parametrize("preset", ["adv1d", "adv2d"], ids=PRESET_IDS)
def test_batched_evaluation_bit_equal_to_one_point_forms(preset, request):
    model = request.getfixturevalue({"adv1d": "adv1d_model", "adv2d": "adv2d_small"}[preset])
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
    rng = np.random.default_rng(21)
    s = Surrogate(model)
    for a in model.domain.sample(8, rng):
        s.add_atom(a)
    pts = model.domain.sample(300, rng)
    cells = s._nearest(pts).tolist()
    # force one hosting cell's reduced system to be singular everywhere
    singular = cells[0]
    cell = built_cell(s, singular)
    cell.reduced_ops = [np.zeros_like(G) for G in cell.reduced_ops]
    ref = np.array([_scalar_eval(s, p, obs) for p in pts])
    before = s.reduced_solves
    losses, bounds = s._evaluate(pts, obs)
    assert s.reduced_solves - before == np.count_nonzero(~np.isnan(ref[:, 0]))
    assert np.array_equal(losses, ref[:, 0], equal_nan=True)
    assert np.array_equal(bounds, ref[:, 2])
    assert np.array_equal(s.reduced_solve(pts)[3], ref[:, 1])
    assert np.isnan(losses[np.array(cells) == singular]).all()
    assert np.isfinite(losses[np.array(cells) != singular]).all()
    for p, row in zip(pts[:40], ref[:40]):
        if np.isnan(row[0]):
            with pytest.raises(BasisDegeneracyError):
                s.surrogate_loss(p, obs)
        else:
            lbar, eps_l = s.surrogate_loss(p, obs)
            assert lbar == row[0]
            assert eps_l == row[2]
    assert np.array_equal(s.loss_fn(obs)(pts), losses, equal_nan=True)


def _mixed_rank_cloud(model):
    """(surrogate, 200 points, their hosting cells, the singular cell): atoms
    on the xi_1 = 0.4 plane span few directions, so their cells drop columns
    and the cloud's hosting cells come in several basis ranks; the first
    point's cell has a reduced system that is singular everywhere.  Every
    hosting cell is built."""
    s = Surrogate(model, neighbor_count=5)
    for x2, x3 in [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8), (0.5, 0.5)]:
        s.add_atom(np.array([0.4, x2, x3]))
    rng = np.random.default_rng(22)
    for a in model.domain.sample(3, rng):
        s.add_atom(a)
    pts = model.domain.sample(200, rng)
    pts[:100, 0] = 0.4 + 0.05 * rng.standard_normal(100).clip(-1, 1)
    cells = s._nearest(pts)
    singular = cells[0]
    cell = built_cell(s, singular)
    cell.reduced_ops = np.zeros_like(cell.reduced_ops)
    ranks = {built_cell(s, k).basis.shape[1] for k in set(cells) - {singular}}
    assert len(ranks) >= 2
    return s, pts, cells, singular


def test_batched_evaluation_mixes_basis_ranks(adv2d_small):
    model = adv2d_small
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
    s, pts, cells, singular = _mixed_rank_cloud(model)
    ref = np.array([_scalar_eval(s, p, obs) for p in pts])
    looked_up = []
    lu_for = s._lu_for
    s._lu_for = lambda k: looked_up.append(k) or lu_for(k)
    losses, bounds = s._evaluate(pts, obs)
    assert np.array_equal(losses, ref[:, 0], equal_nan=True)
    assert np.array_equal(bounds, ref[:, 2])
    assert np.isnan(losses[cells == singular]).all()
    assert np.isfinite(losses[cells != singular]).all()
    # one LU lookup per hosting cell with solved points, none for the
    # singular cell, in order of first appearance
    hosting = [k for k in dict.fromkeys(cells.tolist()) if k != singular]
    assert looked_up == hosting
    # coefficients are NaN-padded past each hosting cell's rank
    hosts, coeffs, observed, raws = s.reduced_solve(pts)
    assert np.array_equal(hosts, cells)
    assert np.array_equal(raws, ref[:, 1])
    assert coeffs.shape == (len(pts), max(s.cells[k].basis.shape[1] for k in set(cells)))
    for k, c, o in zip(hosts, coeffs, observed):
        r = s.cells[k].basis.shape[1]
        assert np.isnan(c[r:]).all()
        solved = np.concatenate([c[:r], o])
        assert np.isnan(solved).all() if k == singular else np.isfinite(solved).all()


class _CountingProduct:
    """A stand-in for ForwardModel._stacked_terms that counts its products."""

    def __init__(self, terms):
        self.terms, self.products = terms, 0

    def __matmul__(self, dense):
        self.products += 1
        return self.terms @ dense


def test_indicator_read_makes_one_sparse_product(adv2d_small, monkeypatch):
    # one product of the stacked terms per indicator read, whatever the
    # number of hosting cells; a loss-only read makes none, and a
    # sensitivity solve makes one
    s, pts, cells, singular = _mixed_rank_cloud(adv2d_small)
    counting = _CountingProduct(adv2d_small._stacked_terms)
    monkeypatch.setattr(adv2d_small, "_stacked_terms", counting)
    one_cell = pts[cells == cells[-1]]
    assert len(one_cell) > 1 and len(set(cells.tolist())) >= 4
    for read in (pts[-1:], one_cell, pts):
        before = counting.products
        s.reduced_solve(read)
        assert counting.products == before + 1
    before = counting.products
    s.reduced_solve(pts, indicators=False)
    assert counting.products == before
    adv2d_small.solve_sensitivity(s.atoms[0].snapshot, s._lu_for(0))
    assert counting.products == before + 1


def test_read_makes_one_stacked_solve_per_basis_rank(adv2d_small, monkeypatch):
    # each basis rank among a read's points is one _solve_stack call over
    # all its points, in order of first appearance, however many cells and
    # points share it; a loss-only read stacks the same way
    s, pts, cells, singular = _mixed_rank_cloud(adv2d_small)
    stacks = []
    solve_stack = s._solve_stack
    monkeypatch.setattr(s, "_solve_stack",
                        lambda ops, *rest: stacks.append(ops.shape) or solve_stack(ops, *rest))
    one_cell = pts[cells == cells[-1]]
    assert len(one_cell) > 1
    for read in (pts, one_cell):
        ranks = [s.cells[k].basis.shape[1] for k in s._nearest(read).tolist()]
        expected = [(r, ranks.count(r)) for r in dict.fromkeys(ranks)]
        for indicators in (True, False):
            stacks.clear()
            s.reduced_solve(read, indicators=indicators)
            assert [(shape[2], shape[0]) for shape in stacks] == expected


def test_reduced_solve_returns_the_points_order(adv2d_small):
    # the read groups the points by basis rank; its outputs come back in
    # the order of the points, bit for bit, and it warns of nothing, singular
    # points included
    s, pts, cells, singular = _mixed_rank_cloud(adv2d_small)
    perm = np.random.default_rng(23).permutation(len(pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = s.reduced_solve(pts)
        permuted = s.reduced_solve(pts[perm])
    for a, b in zip(whole, permuted):
        assert np.array_equal(a[perm], b, equal_nan=True)
    assert np.isinf(whole[3][cells == singular]).all()
    assert np.isfinite(whole[3][cells != singular]).all()


def _one_cell_basis(s, k):
    """(cell k's basis, the QRs it took) by the one-cell rule: 2-D QRs of
    the sources [u_k | neighbors' u_j, nearest first | grad u_k], the
    sources with |R_jj| <= ORTHO_DROP_TOL times their norm dropped before
    the next QR until none precedes a kept one; the basis is Q cut before
    the first dropped source."""
    atom = s.atoms[k]
    neighbors = _all_pairs_neighbors(s._scaled_locs, s.neighbor_count)[k]
    sources = np.column_stack([atom.snapshot] + [s.atoms[j].snapshot for j in neighbors]
                              + [atom.gradient])
    for qrs in itertools.count(1):
        Q, R = np.linalg.qr(sources)
        d = np.abs(np.diagonal(R))
        kept = [j for j in range(sources.shape[1]) if j >= d.size
                or d[j] > localrb.ORTHO_DROP_TOL * np.linalg.norm(sources[:, j])]
        r = next((j for j in range(d.size) if j not in kept), d.size)
        if all(j not in kept for j in range(r, d.size)):
            return Q[:, :r].copy(), qrs  # contiguous, as the pass's bases
        sources = sources[:, kept]


def _one_cell_build(s, k):
    """Cell k's basis (_one_cell_basis) and reduced arrays by the one-cell
    formulas (one sparse product per term): the reference for the stacked
    passes; then R of a QR of A_k^{-1} [f_q | A_p Phi], whose ||R w|| with
    w = [phi(xi), -theta(xi) (x) c] is the raw indicator in exact
    arithmetic: the reference for the band-solve read."""
    model, atom = s.model, s.atoms[k]
    Phi = _one_cell_basis(s, k)[0]
    op_cols = [np.asarray(M @ Phi) for M in model.operator_terms]
    theta, _ = model.coefficients(atom.location)
    p0 = int(np.argmax(np.abs(theta)))
    others = [p for p in range(len(theta)) if p != p0]
    nq, r = len(model.rhs_terms), Phi.shape[1]
    _, lu = model.factorize(atom.location)
    Wp = lu.solve(np.column_stack(list(model.rhs_terms) + [op_cols[p] for p in others]))
    Zp = np.empty((model.n_dof, nq + len(theta) * r))
    Zp[:, :nq] = Wp[:, :nq]
    rest = Phi.copy()
    for i, p in enumerate(others):
        blk = Wp[:, nq + i * r: nq + (i + 1) * r]
        Zp[:, nq + p * r: nq + (p + 1) * r] = blk
        rest -= theta[p] * blk
    Zp[:, nq + p0 * r: nq + (p0 + 1) * r] = rest / theta[p0]
    return [Phi, np.stack([Phi.T @ AP for AP in op_cols]),
            np.stack([Phi.T @ f for f in model.rhs_terms]),
            np.asarray(model.obs_matrix @ Phi), np.linalg.qr(Zp, mode="r")]


def test_stacked_pass_bit_equal_to_one_cell_builds(adv2d_small, monkeypatch):
    # atoms on the xi_1 = 0.4 plane drop columns, so one pass meets cells of
    # several basis ranks
    s = Surrogate(adv2d_small, neighbor_count=5)
    for x2, x3 in [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8), (0.5, 0.5)]:
        s.add_atom(np.array([0.4, x2, x3]))
    for a in adv2d_small.domain.sample(4, np.random.default_rng(30)):
        s.add_atom(a)
    ks = list(range(s.n_atoms))[::-1]
    # a loss-only read builds every other cell, so the pass meets built and
    # unbuilt cells of one rank
    obs = gen_data(adv2d_small, noise_pct=0.10, n=2, seed=3)
    s.loss_fn(obs)(np.array([s.atoms[k].location for k in ks[::2]]))
    assert [s.cells[k] is None for k in ks] == [i % 2 == 1 for i in range(len(ks))]
    prebuilt = {k: s.cells[k].basis for k in ks[::2]}
    qrs, installed, products = [], [], []
    qr, build, project = np.linalg.qr, s._build_cell, adv2d_small.project
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: qrs.append(a.ndim) or
                        qr(a, *args, **kw))
    s._build_cell = lambda k: installed.append(k) or build(k)
    monkeypatch.setattr(adv2d_small, "project",
                        lambda Phis: products.append(Phis.shape[2]) or project(Phis))
    s._ensure_cells(ks)
    assert installed == ks[1::2]  # one install per unbuilt cell, in the order asked
    assert all(s.cells[k].basis is Phi for k, Phi in prebuilt.items())  # left as built
    new_ranks = {s.cells[k].basis.shape[1] for k in installed}
    assert len(ks) >= 5 and len(new_ranks) >= 2
    assert {Phi.shape[1] for Phi in prebuilt.values()} & new_ranks
    # one sparse product per rank of the new cells; one stacked QR for their
    # bases, then one per further round of a cell whose dropped source
    # preceded a kept one, as many as the one-cell rule takes
    assert sorted(products) == sorted(new_ranks)
    monkeypatch.setattr(np.linalg, "qr", qr)
    rounds = [_one_cell_basis(s, k)[1] - 1 for k in installed]
    assert sum(rounds) > 0 and qrs == [3] * (1 + sum(rounds))
    for k in ks:
        cell = s.cells[k]
        got = [cell.basis, cell.reduced_ops, cell.reduced_rhs, cell.obs_basis]
        assert all(a.base is None for a in got)  # copies, not views into a pass
        for a, b in zip(got, _one_cell_build(s, k)):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_indicator_read_looks_up_each_hosting_lu_once(adv1d_model, adv1d_obs, monkeypatch):
    # a loss-only read looks up no LU; an indicator read looks up each hosting
    # cell's LU once and makes one band solve on that cell's points only
    s = Surrogate(adv1d_model)
    for a in np.random.default_rng(31).random((8, 2)):
        s.add_atom(a)
    pts = np.random.default_rng(32).random((40, 2))
    hosts = s._nearest(pts).tolist()
    looked_up, solved = [], []
    lu_for = s._lu_for
    s._lu_for = lambda k: looked_up.append(k) or lu_for(k)
    solve = type(adv1d_model._band).solve
    monkeypatch.setattr(type(adv1d_model._band), "solve",
                        lambda self, lu, b: solved.append(b.shape) or solve(self, lu, b))
    s.loss_fn(adv1d_obs)(pts)
    assert looked_up == [] and solved == []
    assert all(s.cells[k].basis is not None for k in hosts)
    _, _, _, raws = s.reduced_solve(pts)
    assert np.isfinite(raws).all()
    order = list(dict.fromkeys(hosts))
    assert looked_up == order
    assert solved == [(adv1d_model.n_dof, hosts.count(k)) for k in order]


# relative gap between the band-solve read and ||R w|| from the factor.  It
# grows as the indicator falls toward rounding level; over 300 points at each
# of rngs 33-42 the largest read 1.2e-6 on adv1d and 7.2e-6 on adv2d nx 16,
# and 7.9e-8 and 2.0e-8 at rng 33, the case below
FACTOR_AGREEMENT_RTOL = 1e-4


@pytest.mark.parametrize("preset", ["adv1d", "adv2d"])
def test_raw_indicator_agrees_with_indicator_factor(preset, request):
    model = request.getfixturevalue({"adv1d": "adv1d_model", "adv2d": "adv2d_small"}[preset])
    rng = np.random.default_rng(33)
    s = Surrogate(model)
    for a in model.domain.sample(8, rng):
        s.add_atom(a)
    pts = model.domain.sample(300, rng)
    hosts, coeffs, _, raws = s.reduced_solve(pts)
    ath, fth = model.coefficients(pts)
    factors = {k: _one_cell_build(s, k)[4] for k in set(hosts.tolist())}
    ref = np.empty(len(pts))
    for i, (k, c) in enumerate(zip(hosts.tolist(), coeffs)):
        c = c[:s.cells[k].basis.shape[1]]
        w = np.concatenate([fth[i], np.outer(-ath[i], c).ravel()])
        ref[i] = np.linalg.norm(factors[k] @ w)
    assert np.all(np.abs(raws - ref) <= FACTOR_AGREEMENT_RTOL * ref)


def _cell_arrays(s, k):
    cell = built_cell(s, k)
    return [cell.basis, cell.reduced_ops, cell.reduced_rhs, cell.obs_basis]


@pytest.mark.parametrize("preset", ["adv1d", "adv2d"], ids=PRESET_IDS)
def test_incremental_rebuild_equals_fresh_build(preset, request):
    model = request.getfixturevalue({"adv1d": "adv1d_model", "adv2d": "adv2d_small"}[preset])
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
    s = Surrogate(model)
    built = []
    build = s._build_cell

    def counting(k):
        built.append(k)
        build(k)
    s._build_cell = counting
    rng = np.random.default_rng(23)
    s.refine_over_particles(model.domain.sample(60, rng), obs, e_thre=1e-3)
    s.refine_over_particles(model.domain.sample(60, rng), obs, e_thre=1e-4)
    assert s.n_atoms >= 8
    assert len(built) > len(set(built))  # some cells were rebuilt
    for k in range(s.n_atoms):
        got = _cell_arrays(s, k)
        s.cells[k] = None
        fresh = _cell_arrays(s, k)
        for a, b in zip(got, fresh):
            assert np.array_equal(a, b)
    assert s.cell_builds == len(built)


@pytest.mark.parametrize("preset,mesh", [
    ("adv1d", {"cells": 64}),
    ("adv2d", {"nx": 10}),
    ("elast2d_layered", {"nx": 8}),
    ("elast2d_inclusion", {"nx": 6}),
], ids=SMALL_PRESET_IDS)
def test_stacked_products_bit_equal_to_per_term(preset, mesh):
    model = assemble(preset, mesh)
    Phis = np.random.default_rng(24).standard_normal((3, model.n_dof, 9))
    ops, rhs, obs_basis = model.project(Phis)
    assert ops.shape == (3, len(model.operator_terms), 9, 9)
    assert rhs.shape == (3, len(model.rhs_terms), 9)
    for Phi, op, b, obs in zip(Phis, ops, rhs, obs_basis):
        for PAP, M in zip(op, model.operator_terms):
            assert np.array_equal(PAP, Phi.T @ np.asarray(M @ Phi))
        for Pf, f in zip(b, model.rhs_terms):
            assert np.array_equal(Pf, Phi.T @ f)
        assert np.array_equal(obs, np.asarray(model.obs_matrix @ Phi))


def _all_pairs_neighbors(locs, count):
    """Each atom's neighbor tuple by the all-pairs sort: the reference for
    the cell builds."""
    n = len(locs)
    out = []
    for k in range(n):
        d2 = np.sum((locs - locs[k]) ** 2, axis=1)
        order = np.lexsort((np.arange(n), d2))
        out.append(tuple(int(i) for i in order if i != k)[:count])
    return out


@pytest.mark.parametrize("dim", [2, 9])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_incremental_neighbor_sets_equal_all_pairs(adv1d_model, dim, count):
    # lattice points give exact distance ties; random ones fill in between
    rng = np.random.default_rng(25)
    lattice = rng.integers(0, 5, size=(50, dim)) / 4.0
    pts = np.unique(np.vstack([lattice, rng.random((20, dim))]), axis=0)
    pts = pts[rng.permutation(len(pts))]
    s = Surrogate(adv1d_model, neighbor_count=count)
    # the tuples read only the scaled locations; the builds take any sources
    s._scaled_locs = np.zeros((0, dim))
    n_dof = adv1d_model.n_dof
    for p in pts:
        before = [c.neighbors for c in s.cells]
        s.atoms.append(localrb.Atom(p, rng.standard_normal(n_dof),
                                    rng.standard_normal((n_dof, 2))))
        s._insert_location(p, np.sum((s._scaled_locs - p) ** 2, axis=1))
        ref = _all_pairs_neighbors(s._scaled_locs, count)
        # a built cell is unbuilt exactly when its tuple changed
        assert [c is None for c in s.cells] == [b != r for b, r in zip(before, ref)] + [True]
        s._ensure_cells(range(s.n_atoms))
        assert [c.neighbors for c in s.cells] == ref
    # exact ties occurred
    assert any(len(set(np.sum((pts - p) ** 2, axis=1))) < len(pts) for p in pts)


@pytest.mark.filterwarnings("error")
def test_refinement_puts_atom_at_singular_point():
    model = assemble("adv1d", {"cells": 64})
    obs = gen_data(model, noise_pct=0.10, n=1, seed=0)
    s = Surrogate(model)
    rng = np.random.default_rng(26)
    for a in rng.random((4, 2)):
        s.add_atom(a)
    pts = rng.random((40, 2))
    cells = s._nearest(pts)
    singular = cells[0]
    cell = built_cell(s, singular)
    cell.reduced_ops = np.zeros_like(cell.reduced_ops)
    losses, inds = s._evaluate(pts, obs)
    assert np.isnan(losses[cells == singular]).all()
    assert np.array_equal(np.isinf(inds), cells == singular)
    report = s.refine_over_particles(pts, obs, e_thre=1e-3)
    assert report.atoms_added > 0
    assert np.isfinite(report.loss_values).all()
    assert report.e_max_final <= 1e-3
