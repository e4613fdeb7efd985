import numpy as np
import pytest

from gibbsrb import ObservationSet, Surrogate, assemble, gen_data, localrb
from gibbsrb.forward import model as model_module
from gibbsrb.forward.model import ForwardModel
from gibbsrb.localrb import (CALIBRATION_QUANTILE, CALIBRATION_SAFETY,
                             CALIBRATION_WINDOW, AtomBudgetError, BasisDegeneracyError,
                             DuplicateAtomError)


@pytest.fixture()
def adv1d_surr(adv1d_model):
    return Surrogate(adv1d_model, neighbor_count=5)


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
    # snapshot plus M gradient columns at most
    assert s.cells[0].basis.shape[1] <= 1 + adv1d_model.dim
    assert s.cells[0].neighbors == ()


def test_voronoi_corner_center_geometry(adv1d_surr):
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    for p in pts:
        adv1d_surr.add_atom(np.array(p))
    assert adv1d_surr.nearest_atom(np.array([0.5 + 1e-6, 0.5 - 1e-6])) == 4
    assert adv1d_surr.nearest_atom(np.array([0.01, 0.02])) == 0
    assert adv1d_surr.nearest_atom(np.array([0.98, 0.99])) == 3


def test_nearest_tie_takes_lower_index(adv1d_surr):
    adv1d_surr.add_atom(np.array([0.25, 0.5]))
    adv1d_surr.add_atom(np.array([0.75, 0.5]))
    assert adv1d_surr.nearest_atom(np.array([0.5, 0.5])) == 0


def test_nearest_matches_linear_scan(adv1d_surr):
    rng = np.random.default_rng(0)
    atoms = rng.random((12, 2))
    for a in atoms:
        adv1d_surr.add_atom(a)
    for q in rng.random((50, 2)):
        d = np.sum((atoms - q) ** 2, axis=1)
        assert adv1d_surr.nearest_atom(q) == int(np.argmin(d))


def test_empty_surrogate_raises(adv1d_surr):
    with pytest.raises(ValueError, match="no atoms"):
        adv1d_surr.nearest_atom(np.array([0.5, 0.5]))


def test_duplicate_atom_rejected(adv1d_surr):
    adv1d_surr.add_atom(np.array([0.5, 0.5]))
    with pytest.raises(DuplicateAtomError):
        adv1d_surr.add_atom(np.array([0.5, 0.5]))


def test_rank_deficient_snapshots_are_dropped(adv2d_small):
    # fixing xi_1 pins the operator; solutions are then linear in (xi_2, xi_3),
    # so many snapshots share a 2-dimensional span and must be dropped
    s = Surrogate(adv2d_small, neighbor_count=5)
    for x2, x3 in [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8), (0.5, 0.5)]:
        s.add_atom(np.array([0.4, x2, x3]))
    cell = s.cells[s.n_atoms - 1]
    n_cols_offered = 1 + adv2d_small.dim + len(cell.neighbors)
    assert cell.basis.shape[1] < n_cols_offered
    # basis stays orthonormal after drops
    G = cell.basis.T @ cell.basis
    assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10


def test_orthonormal_bases(adv1d_surr):
    rng = np.random.default_rng(1)
    for a in rng.random((8, 2)):
        adv1d_surr.add_atom(a)
    for cell in adv1d_surr.cells:
        G = cell.basis.T @ cell.basis
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10


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
        direct = np.linalg.norm(lu.solve(adv1d_model.rhs_at(xi)
                                         - adv1d_model.operator_at(xi) @ ubar))
        assert abs(raw - direct) <= 1e-9 * max(direct, 1e-12)


def test_residual_scales_with_rhs(adv1d_model):
    # doubling f doubles the raw indicator at a fixed basis
    s = Surrogate(adv1d_model)
    s.add_atom(np.array([0.3, 0.3]))
    xi = np.array([0.6, 0.6])
    r1 = _raw_indicator(s, xi)

    import copy

    m2 = copy.copy(adv1d_model)
    m2.rhs_terms = [2.0 * f for f in adv1d_model.rhs_terms]
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
    # the full solve, the sensitivity solve and the new cell's indicator
    # factor all use the one factorization of A(xi)
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
        u = made[-1][1].solve(adv1d_model.rhs_at(a))
        assert np.array_equal(s.atoms[idx].snapshot, u)
    assert adv1d_model.counters.stability == stability  # no LU cache miss


def test_add_atom_outside_box_raises_before_factorizing(adv1d_model, monkeypatch):
    s = Surrogate(adv1d_model)
    for a in np.random.default_rng(28).random((4, 2)):
        s.add_atom(a)
    assert any(c.dirty for c in s.cells)  # a query would rebuild these
    dirty = [c.dirty for c in s.cells]
    counts, solves = adv1d_model.counters.snapshot(), s.reduced_solves
    calls = []
    dgbtrf = model_module.dgbtrf

    def counting(*args, **kwargs):
        calls.append(1)
        return dgbtrf(*args, **kwargs)
    monkeypatch.setattr(model_module, "dgbtrf", counting)
    with pytest.raises(ValueError, match="outside"):
        s.add_atom(np.array([0.5, 1.2]))
    assert calls == []
    assert s.n_atoms == len(s.cells) == 4
    assert [c.dirty for c in s.cells] == dirty
    assert adv1d_model.counters.snapshot() == counts and s.reduced_solves == solves


def test_state_indicator_bounds_error(adv1d_model, adv1d_obs):
    rng = np.random.default_rng(5)
    s = Surrogate(adv1d_model)
    s.refine_over_particles(rng.random((60, 2)), adv1d_obs, e_thre=1e-2)
    hits = 0
    pts = rng.random((20, 2))
    states, _, raws = _states(s, pts)
    for xi, ubar, eps_u in zip(pts, states, raws / s.stability_constant):
        err = np.linalg.norm(ubar - adv1d_model.solve_full(xi))
        if eps_u >= err * (1 - 0.5):
            hits += 1
    assert hits >= 19  # >= 95% of 20


def test_indicator_zero_at_atoms(adv1d_model):
    s = Surrogate(adv1d_model)
    s.add_atom(np.array([0.4, 0.6]))
    s.add_atom(np.array([0.7, 0.2]))
    eps_u = _raw_indicator(s, [0.4, 0.6]) / s.stability_constant
    f = adv1d_model.rhs_at(np.array([0.4, 0.6]))
    assert eps_u <= 1e-7 * np.linalg.norm(f)


def test_loss_indicator_quadratic_bound_arithmetic():
    # squared loss, identity-like observation, known plug-in values:
    # |obs - d| = 1, eps_u = 0.1 -> 2*1*0.1 + 0.01 = 0.21
    class _Stub:
        loss_kind = "squared_l2"

    from gibbsrb.localrb import Surrogate as S

    stub = S.__new__(S)
    stub.model = _Stub()
    stub._obs_norm = 1.0
    stub._ratios = []
    stub._ratio_quantile = None
    observed = np.array([2.0, 0.0])
    obs = ObservationSet(data=np.array([[1.0, 0.0]]))
    dist_sum = float(np.sum(np.linalg.norm(observed[None, :] - obs.data, axis=1)))
    val = stub._loss_indicator_from_raw(0.1, dist_sum, obs.n)
    assert abs(val - 0.21) < 1e-14


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


def test_atom_budget(adv1d_model, adv1d_obs):
    s = Surrogate(adv1d_model, atom_budget=3)
    rng = np.random.default_rng(9)
    with pytest.raises(AtomBudgetError):
        s.refine_over_particles(rng.random((50, 2)), adv1d_obs, e_thre=1e-12)


def _fresh_stability(s):
    recent = s._ratios[-CALIBRATION_WINDOW:]
    return CALIBRATION_SAFETY * float(np.percentile(recent, CALIBRATION_QUANTILE))


def test_cached_stability_constant_tracks_insertions(adv1d_model):
    s = Surrogate(adv1d_model)
    assert s.stability_constant == CALIBRATION_SAFETY
    rng = np.random.default_rng(12)
    for xi in rng.random((12, 2)):
        s.add_atom(xi)
        if s._ratios:
            assert s.stability_constant == _fresh_stability(s)
    assert len(s._ratios) >= 5


def test_cached_stability_constant_during_refinement(adv1d_model, adv1d_obs):
    s = Surrogate(adv1d_model)
    checked = []
    from_raw = s._loss_indicator_from_raw

    def checking(raw, dist_sum, n_data):
        if s._ratios:
            assert s.stability_constant == _fresh_stability(s)
            checked.append(len(s._ratios))
        return from_raw(raw, dist_sum, n_data)

    s._loss_indicator_from_raw = checking
    s.refine_over_particles(np.random.default_rng(13).random((40, 2)), adv1d_obs,
                            e_thre=1e-3)
    assert len(set(checked)) >= 3  # seen across several calibration states


def _scalar_eval(s, xi, observations):
    """(loss, raw indicator, distance sum) at one point by the one-point
    formulas: the reference for the batched evaluation."""
    model = s.model
    d2 = np.sum((s._scaled_locs - model.domain.scale(xi)) ** 2, axis=1)
    cell = s._ensure_cell(int(np.argmin(d2)))
    ath, fth = model.coefficients(xi)
    G = sum(a * Gp for a, Gp in zip(ath, cell.reduced_ops))
    b = sum(a * bq for a, bq in zip(fth, cell.reduced_rhs))
    try:
        coeffs = np.linalg.solve(G, b)
    except np.linalg.LinAlgError:
        return np.nan, np.inf, 0.0
    w = np.concatenate([fth, np.outer(-ath, coeffs).ravel()])
    raw = float(np.linalg.norm(cell.precond_factor @ w))
    resid = (cell.obs_basis @ coeffs)[None, :] - observations.data
    if model.loss_kind == "squared_l2":
        loss = float(np.sum(resid**2))
    elif model.loss_kind == "l1":
        loss = float(np.sum(np.abs(resid)))
    else:
        loss = float(np.sum(np.linalg.norm(resid, axis=1)))
    return loss, raw, float(np.sum(np.linalg.norm(resid, axis=1)))


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
    cells = [s.nearest_atom(p) for p in pts]
    # force one hosting cell's reduced system to be singular everywhere
    singular = cells[0]
    s._ensure_cell(singular).reduced_ops = [np.zeros_like(G)
                                            for G in s.cells[singular].reduced_ops]
    ref = np.array([_scalar_eval(s, p, obs) for p in pts])
    before = s.reduced_solves
    losses, raws, dist_sums = s._evaluate(pts, obs)
    assert s.reduced_solves - before == np.count_nonzero(~np.isnan(ref[:, 0]))
    assert np.array_equal(losses, ref[:, 0], equal_nan=True)
    assert np.array_equal(raws, ref[:, 1])
    assert np.array_equal(dist_sums, ref[:, 2])
    assert np.isnan(losses[np.array(cells) == singular]).all()
    assert np.isfinite(losses[np.array(cells) != singular]).all()
    for p, row in zip(pts[:40], ref[:40]):
        if np.isnan(row[0]):
            with pytest.raises(BasisDegeneracyError):
                s.surrogate_loss(p, obs)
        else:
            lbar, eps_l = s.surrogate_loss(p, obs)
            assert lbar == row[0]
            assert eps_l == s._loss_indicator_from_raw(row[1], row[2], obs.n)
    assert np.array_equal(s.loss_fn(obs)(pts), losses, equal_nan=True)


def test_batched_evaluation_mixes_basis_ranks(adv2d_small, monkeypatch):
    # atoms on the xi_1 = 0.4 plane span few directions, so their cells drop
    # columns and the cloud's hosting cells come in several basis ranks
    model = adv2d_small
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
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
    cell = s._ensure_cell(singular)
    cell.reduced_ops = np.zeros_like(cell.reduced_ops)
    ranks = {s._ensure_cell(k).basis.shape[1] for k in set(cells) - {singular}}
    assert len(ranks) >= 2
    ref = np.array([_scalar_eval(s, p, obs) for p in pts])
    gathered = []
    norms = localrb._residual_norms

    def recording(factors, *args):
        gathered.append(factors.nbytes)
        return norms(factors, *args)
    monkeypatch.setattr(localrb, "_residual_norms", recording)
    monkeypatch.setattr(localrb, "_GATHER_BYTES", 20 * 18 * 18 * 8)
    losses, raws, dist_sums = s._evaluate(pts, obs)
    assert np.array_equal(losses, ref[:, 0], equal_nan=True)
    assert np.array_equal(raws, ref[:, 1])
    assert np.array_equal(dist_sums, ref[:, 2])
    assert np.isnan(losses[cells == singular]).all()
    assert np.isfinite(losses[cells != singular]).all()
    assert len(gathered) > len(ranks) and max(gathered) <= localrb._GATHER_BYTES
    # coefficients are NaN-padded past each hosting cell's rank
    hosts, coeffs, observed, _ = s.reduced_solve(pts)
    assert np.array_equal(hosts, cells)
    assert coeffs.shape == (len(pts), max(s.cells[k].basis.shape[1] for k in set(cells)))
    for k, c, o in zip(hosts, coeffs, observed):
        r = s.cells[k].basis.shape[1]
        assert np.isnan(c[r:]).all()
        solved = np.concatenate([c[:r], o])
        assert np.isnan(solved).all() if k == singular else np.isfinite(solved).all()


def _cell_arrays(s, k):
    cell = s._ensure_cell(k)
    return [cell.basis, cell.reduced_ops, cell.reduced_rhs, cell.obs_basis,
            cell.precond_factor]


@pytest.mark.parametrize("preset", ["adv1d", "adv2d"], ids=PRESET_IDS)
def test_incremental_rebuild_equals_fresh_build(preset, request):
    model = request.getfixturevalue({"adv1d": "adv1d_model", "adv2d": "adv2d_small"}[preset])
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
    s = Surrogate(model)
    reused = []
    build = s._build_cell

    def spying(k):
        before = [src for src, _ in s.cells[k].columns]
        build(k)
        after = [src for src, _ in s.cells[k].columns]
        if before:
            shared = next((i for i, (a, b) in enumerate(zip(before, after)) if a != b),
                          min(len(before), len(after)))
            reused.append(shared - 1 - model.dim)  # neighbor columns kept
    s._build_cell = spying
    rng = np.random.default_rng(23)
    s.refine_over_particles(model.domain.sample(60, rng), obs, e_thre=1e-3)
    s.refine_over_particles(model.domain.sample(60, rng), obs, e_thre=1e-4)
    assert min(reused) >= 0 and max(reused) >= 2  # own columns always kept
    assert s.n_atoms >= 8
    for k in range(s.n_atoms):
        got = _cell_arrays(s, k)
        s.cells[k].columns = []
        build(k)
        fresh = _cell_arrays(s, k)
        for a, b in zip(got, fresh):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("preset,mesh", [
    ("adv1d", {"cells": 64}),
    ("adv1d", {"cells": 33, "upwind": True}),
    ("adv2d", {"nx": 10}),
    ("elast2d_layered", {"nx": 8}),
    ("elast2d_inclusion", {"nx": 6}),
])
def test_stacked_products_bit_equal_to_per_term(preset, mesh):
    model = assemble(preset, mesh)
    s = Surrogate(model)
    Phi = np.random.default_rng(24).standard_normal((model.n_dof, 9))
    op_cols, obs_basis = s._products(Phi)
    assert len(op_cols) == len(model.operator_terms)
    for AP, M in zip(op_cols, model.operator_terms):
        assert np.array_equal(AP, np.asarray(M @ Phi))
    assert np.array_equal(obs_basis, np.asarray(model.obs_matrix @ Phi))


def _all_pairs_neighbors(locs, count):
    """Each atom's neighbor tuple by the all-pairs sort: the reference for
    the incremental update."""
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
    s._scaled_locs = np.zeros((0, dim))  # the tuples read only the scaled locations
    for p in pts:
        before = [c.neighbors for c in s.cells]
        for c in s.cells:
            c.dirty = False
        s._insert_location(p)
        ref = _all_pairs_neighbors(s._scaled_locs, count)
        assert [c.neighbors for c in s.cells] == ref
        assert [c.dirty for c in s.cells[:-1]] == [a != b for a, b in zip(before, ref)]
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
    cell = s._ensure_cell(singular)
    cell.reduced_ops = np.zeros_like(cell.reduced_ops)
    losses, raws, dist_sums = s._evaluate(pts, obs)
    assert np.isnan(losses[cells == singular]).all()
    inds = s._loss_indicator_from_raw(raws, dist_sums, obs.n)
    assert np.array_equal(np.isinf(inds), cells == singular)
    report = s.refine_over_particles(pts, obs, e_thre=1e-3)
    assert report.atoms_added > 0
    assert np.isfinite(report.loss_values).all()
    assert report.e_max_final <= 1e-3
