import dataclasses
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gibbsrb import ObservationSet, assemble, gen_data
from gibbsrb.domain import ParameterDomain
from gibbsrb.forward.model import ForwardModel, SolverError

from conftest import analytic_adv1d

# frozen from Richardson extrapolation over meshes 512/1024/2048 (order ~2.0,
# cross-checked against the closed form); truth xi = (0.2, 0.7)
ADV1D_TRUE_OBS = np.array([0.68849343, 1.98142465, 1.59663098])
ADV1D_EPS_STD_10PCT = 0.15220  # 10% of rms of the converged data


def test_unknown_preset():
    with pytest.raises(ValueError, match="unknown preset"):
        assemble("advXX", {})


def test_adv1d_shape(adv1d_model):
    assert adv1d_model.dim == 2
    assert adv1d_model.n_obs == 3
    assert adv1d_model.obs_matrix.shape == (3, 127)


def test_adv1d_matches_analytic_solution():
    xi = np.array([0.2, 0.7])
    exact = analytic_adv1d(xi, np.array([0.1, 0.5, 0.9]))
    errs = []
    for cells in (64, 128, 256):
        m = assemble("adv1d", {"cells": cells})
        got = m.observe(m.solve_full(xi))
        errs.append(np.max(np.abs(got - exact)))
    # second-order convergence toward the closed form through the kink
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 2e-4
    assert np.min(orders) > 1.8


@pytest.mark.parametrize("xi", [(0.35, 0.15), (0.9, 0.9), (0.45, 0.55)])
def test_adv1d_analytic_other_points(xi):
    m = assemble("adv1d", {"cells": 512})
    exact = analytic_adv1d(np.array(xi), np.array([0.1, 0.5, 0.9]))
    got = m.observe(m.solve_full(np.array(xi)))
    assert np.max(np.abs(got - exact)) < 5e-5


def test_mesh_convergence_order(adv1d_model):
    # observed values converge at the scheme's order (>= 1.8)
    xi = np.array([0.2, 0.7])
    obs = {}
    for cells in (64, 128, 256, 512):
        m = assemble("adv1d", {"cells": cells})
        obs[cells] = m.observe(m.solve_full(xi))
    e1 = np.max(np.abs(obs[64] - obs[512]))
    e2 = np.max(np.abs(obs[128] - obs[512]))
    e3 = np.max(np.abs(obs[256] - obs[512]))
    assert np.log2(e1 / e2) > 1.8
    assert np.log2(e2 / e3) > 1.7  # last gap is polluted by the reference error


def test_frozen_converged_observations():
    m = assemble("adv1d", {"cells": 512})
    got = m.observe(m.solve_full(np.array([0.2, 0.7])))
    assert np.max(np.abs(got - ADV1D_TRUE_OBS)) < 1e-4


def _affine_gap(model, n_samples, seed):
    """Largest relative Frobenius gap between the affine operator_at and the
    preset's direct assembly, over prior samples."""
    worst = 0.0
    for xi in model.domain.sample(n_samples, np.random.default_rng(seed)):
        A_dir = model.direct_assemble(xi)
        worst = max(worst, spla.norm(model.operator_at(xi) - A_dir) / spla.norm(A_dir))
    return worst


@pytest.mark.parametrize("preset,mesh", [
    ("adv1d", {"cells": 64}),
    ("adv2d", {"nx": 12}),
    ("elast2d_layered", {"nx": 8}),
    ("elast2d_inclusion", {"nx": 9}),
])
def test_affine_consistency(preset, mesh):
    assert _affine_gap(assemble(preset, mesh), n_samples=100, seed=3) <= 1e-12


_SMALL_PRESETS = [
    ("adv1d", {"cells": 64}),
    ("adv1d", {"cells": 33, "upwind": True}),
    ("adv2d", {"nx": 10}),
    ("elast2d_layered", {"nx": 8}),
    ("elast2d_inclusion", {"nx": 6}),
]


def _preset_coefficients(model, xi):
    """(theta, phi) from the formulas in the preset docstrings."""
    if model.name == "adv1d":
        b1, b2 = model.mesh["b1"], model.mesh["b2"]
        return [1.0, b1 + 2.0 * xi[0], b2 + 2.0 * xi[1]], [1.0]
    if model.name == "adv2d":
        return [0.02 + 0.98 * xi[0], 1.0], [xi[1], xi[2]]
    return list(xi), [1.0]  # elasticity: theta_r = xi_r


def _probe_points(model):
    """Prior draws, box corners, and for many dimensions a point with
    equal neighbouring coefficients, where region terms cancel exactly."""
    lo, hi = model.domain.lower, model.domain.upper
    pts = list(model.domain.sample(8, np.random.default_rng(4)))
    if model.dim <= 3:
        pts += [np.where(c, hi, lo) for c in itertools.product([False, True], repeat=model.dim)]
    else:
        alternate = np.arange(model.dim) % 2 == 1
        pts += [lo, hi, np.where(alternate, hi, lo), np.ones(model.dim)]
    return pts


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS)
def test_operator_at_bit_equal_to_chained_sparse_sum(preset, mesh):
    model = assemble(preset, mesh)
    nnz = []
    for xi in _probe_points(model):
        theta, _ = _preset_coefficients(model, xi)
        ref = theta[0] * model.operator_terms[0]
        for t, term in zip(theta[1:], model.operator_terms[1:]):
            ref = ref + t * term
        ref = sp.coo_matrix(ref)
        dense = model.operator_at(xi).toarray()
        assert dense[ref.row, ref.col].tobytes() == ref.data.tobytes()
        dense[ref.row, ref.col] = 0.0
        assert not dense.any()
        nnz.append(ref.nnz)
    if preset.startswith("elast"):
        # equal moduli cancel interface entries, which the sum drops
        assert min(nnz) < max(nnz)


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS)
def test_coefficient_arrays_equal_preset_formulas(preset, mesh):
    model = assemble(preset, mesh)
    for xi in _probe_points(model):
        theta, phi = model.coefficients(xi)
        ref_theta, ref_phi = _preset_coefficients(model, xi)
        assert theta.tobytes() == np.asarray(ref_theta, dtype=float).tobytes()
        assert phi.tobytes() == np.asarray(ref_phi, dtype=float).tobytes()


def test_coefficient_shapes_are_checked(adv1d_model):
    with pytest.raises(ValueError, match="coefficient arrays need shapes"):
        dataclasses.replace(adv1d_model, operator_coeff_offsets=np.zeros(2))
    with pytest.raises(ValueError, match="coefficient arrays need shapes"):
        dataclasses.replace(adv1d_model, rhs_coeff_grads=np.zeros((1, 1)))


def test_full_solve_assembles_operator_once(monkeypatch):
    model = assemble("adv1d", {"cells": 32})
    calls = []
    original = ForwardModel.operator_at

    def counted(self, xi):
        calls.append(np.array(xi))
        return original(self, xi)

    monkeypatch.setattr(ForwardModel, "operator_at", counted)
    xi = np.array([0.31, 0.47])
    model.solve_full(xi)
    assert len(calls) == 1
    factors = model.factorize(xi)
    u = model.solve_full(xi, factors)
    model.solve_sensitivity(u, factors[1])
    assert len(calls) == 2


def test_solve_residual_and_determinism(adv1d_model):
    xi = np.array([0.37, 0.82])
    u1 = adv1d_model.solve_full(xi)
    u2 = adv1d_model.solve_full(xi)
    assert np.array_equal(u1, u2)
    assert np.array_equal(adv1d_model.solve_full(xi, adv1d_model.factorize(xi)), u1)
    A = adv1d_model.operator_at(xi)
    f = adv1d_model.rhs_at(xi)
    assert np.linalg.norm(f - A @ u1) <= 1e-10 * np.linalg.norm(f)


def _two_by_two_model():
    """A(xi) = [[1, 1], [1, xi]], singular at xi = 1; f = (0, 1e308)."""
    return ForwardModel(
        name="two_by_two",
        operator_terms=[sp.csc_matrix([[1.0, 1.0], [1.0, 0.0]]),
                        sp.csc_matrix([[0.0, 0.0], [0.0, 1.0]])],
        operator_coeff_offsets=np.array([1.0, 0.0]),
        operator_coeff_grads=np.array([[0.0, 1.0]]),
        rhs_terms=[np.array([0.0, 1e308])],
        rhs_coeff_offsets=np.array([1.0]),
        rhs_coeff_grads=np.zeros((1, 1)),
        obs_matrix=sp.csr_matrix(np.eye(2)),
        loss_kind="squared_l2",
        domain=ParameterDomain(lower=np.array([0.0]), upper=np.array([1.0])),
        mesh={},
        truth_default=np.array([0.5]),
    )


def test_singular_operator_raises_from_factorize():
    model = _two_by_two_model()
    model.factorize(np.array([0.5]))
    with pytest.raises(SolverError, match="factorization failed"):
        model.factorize(np.array([1.0]))


def test_non_finite_solve_raises_from_residual_check():
    # pivot xi - 1 = -2**-52: the solve overflows to inf and the residual is NaN
    model = _two_by_two_model()
    with pytest.raises(SolverError, match="residual nan"):
        model.solve_full(np.array([1.0 - 2.0**-52]))
    assert model.counters.full == 0


def test_solve_outside_box(adv1d_model):
    with pytest.raises(ValueError, match="outside"):
        adv1d_model.solve_full(np.array([1.5, 0.5]))
    with pytest.raises(ValueError, match="outside"):
        adv1d_model.factorize(np.array([0.5, -0.1]))


def test_adv2d_zero_sources(adv2d_small):
    u = adv2d_small.solve_full(np.array([0.5, 0.0, 0.0]))
    assert np.max(np.abs(u)) == 0.0


def test_adv2d_sensitivity_is_scaled_source_response(adv2d_small):
    # the operator does not depend on xi_2, and the rhs is affine in it
    xi = np.array([0.4, 0.3, 0.6])
    A, lu = adv2d_small.factorize(xi)
    u = adv2d_small.solve_full(xi, (A, lu))
    sens = adv2d_small.solve_sensitivity(u, lu)
    expected = lu.solve(adv2d_small.rhs_terms[0])
    assert np.linalg.norm(sens[:, 1] - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("fixture", ["adv1d_model", "adv2d_small", "elast_small"])
def test_band_solve_columns_independent(fixture, request):
    # a cell rebuild may solve only some of its columns and reuse the rest
    model = request.getfixturevalue(fixture)
    _, lu = model.factorize(model.domain.sample(1, np.random.default_rng(1))[0])
    B = np.random.default_rng(2).standard_normal((model.n_dof, 30))
    full = lu.solve(B)
    for k in (1, 5, 11):
        assert lu.solve(B[:, :k]).tobytes() == full[:, :k].tobytes()
    for j in range(B.shape[1]):
        assert lu.solve(B[:, j]).tobytes() == full[:, j].tobytes()


@pytest.mark.parametrize("preset,mesh,n_pts", [
    ("adv1d", {"cells": 64}, 8),
    ("adv2d", {"nx": 12}, 6),
    ("elast2d_layered", {"nx": 8}, 6),
])
def test_sensitivity_matches_central_differences(preset, mesh, n_pts):
    model = assemble(preset, mesh)
    rng = np.random.default_rng(11)
    lo, hi = model.domain.lower, model.domain.upper
    pts = lo + (hi - lo) * (0.1 + 0.8 * rng.random((n_pts, model.dim)))
    h = 1e-4
    for xi in pts:
        factors = model.factorize(xi)
        u = model.solve_full(xi, factors)
        sens = model.solve_sensitivity(u, factors[1])
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = h * (hi[j] - lo[j])
            fd = (model.solve_full(xi + e) - model.solve_full(xi - e)) / (2 * e[j])
            denom = max(np.linalg.norm(fd), 1e-300)
            assert np.linalg.norm(fd - sens[:, j]) / denom < 1e-5


def test_elast_homogeneous_equals_single_material():
    m = assemble("elast2d_layered", {"nx": 10})
    xi = np.full(5, 2.5)
    u = m.solve_full(xi)
    # one-material problem: scale the unit-modulus solve
    A1 = sum(M for M in m.operator_terms)
    import scipy.sparse.linalg as spla

    u1 = spla.spsolve(A1.tocsc() * 2.5, m.rhs_terms[0])
    assert np.linalg.norm(u - u1) <= 1e-9 * np.linalg.norm(u1)


def test_loss_arithmetic(adv1d_model):
    obs = ObservationSet(data=np.zeros((1, 3)))
    assert adv1d_model.loss_from_prediction(np.array([1.0, 2.0, 2.0]), obs) == 9.0
    m2 = assemble("adv2d", {"nx": 8})
    obs2 = ObservationSet(data=np.zeros((1, m2.n_obs)))
    pred = np.zeros(m2.n_obs)
    pred[:3] = [1.0, -2.0, 2.0]
    assert m2.loss_from_prediction(pred, obs2) == 5.0


def test_loss_zero_at_truth_noise_free(adv1d_model):
    data = gen_data(adv1d_model, noise_pct=1e-12, n=1, seed=0)
    noise_free = ObservationSet(data=data.true_obs[None, :])
    assert adv1d_model.loss(np.array([0.2, 0.7]), noise_free) == 0.0
    assert adv1d_model.loss(np.array([0.25, 0.7]), noise_free) > 0.0


def test_gen_data_noise_scale():
    m = assemble("adv1d", {"cells": 512})
    data = gen_data(m, noise_pct=0.10, n=5, seed=4)
    # regenerated scalar noise std, stable across mesh choices to +-10%
    assert abs(data.eps_std - ADV1D_EPS_STD_10PCT) < 0.10 * ADV1D_EPS_STD_10PCT
    coarse = gen_data(assemble("adv1d", {"cells": 64}), noise_pct=0.10, n=5, seed=4)
    assert abs(coarse.eps_std - data.eps_std) < 0.10 * data.eps_std


def test_gen_data_limits_and_determinism(adv1d_model):
    tiny = gen_data(adv1d_model, noise_pct=1e-14, n=3, seed=5)
    assert np.max(np.abs(tiny.data - tiny.true_obs[None, :])) < 1e-10
    a = gen_data(adv1d_model, noise_pct=0.1, n=3, seed=6)
    b = gen_data(adv1d_model, noise_pct=0.1, n=3, seed=6)
    assert np.array_equal(a.data, b.data)
    c = gen_data(adv1d_model, noise_pct=0.1, n=3, seed=7)
    assert not np.array_equal(a.data, c.data)


def test_observations_csv_roundtrip(tmp_path, adv1d_model):
    data = gen_data(adv1d_model, noise_pct=0.1, n=4, seed=8)
    path = tmp_path / "obs.csv"
    data.to_csv(path)
    back = ObservationSet.from_csv(path)
    assert np.array_equal(back.data, data.data)
    assert back.eps_std == data.eps_std
    assert np.array_equal(back.truth, data.truth)
    assert back.channel_names == data.channel_names


def test_upwind_variant_runs():
    m = assemble("adv1d", {"cells": 64, "upwind": True})
    assert _affine_gap(m, n_samples=20, seed=1) <= 1e-12
    u = m.solve_full(np.array([0.2, 0.7]))
    assert np.all(np.isfinite(u))
