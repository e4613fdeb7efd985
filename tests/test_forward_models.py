import dataclasses
import hashlib
import inspect
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gibbsrb
from gibbsrb import ObservationSet, assemble, gen_data
from gibbsrb.domain import ParameterDomain
from gibbsrb.forward import bandlu, fem, presets
from gibbsrb.forward.model import CSRMatrix, ForwardModel, SolverError, vstack_csr

import test_golden
from conftest import analytic_adv1d, fresh_python

# frozen from Richardson extrapolation over meshes 512/1024/2048 (order ~2.0,
# cross-checked against the closed form); truth xi = (0.2, 0.7)
ADV1D_TRUE_OBS = np.array([0.68849343, 1.98142465, 1.59663098])
ADV1D_EPS_STD_10PCT = 0.15220  # 10% of rms of the converged data


def test_unknown_preset():
    for name in ("advXX", "elast2d"):  # the layered preset has one name
        with pytest.raises(ValueError, match="unknown preset"):
            assemble(name, {})


def test_builders_take_exactly_the_mesh_sizes():
    # config parsing checks model.mesh against MESH_SIZES, so each builder's
    # parameters must be those sizes (and the layout that elast2d's preset
    # names); each preset builds at its least sizes, where every operator
    # term has an entry (layered nx 4 and inclusion nx 2 leave a region
    # with no element)
    def params(builder):
        return list(inspect.signature(builder).parameters)

    assert params(presets.adv1d) == list(presets.MESH_SIZES["adv1d"])
    assert params(fem.adv2d) == list(presets.MESH_SIZES["adv2d"])
    for preset in ("elast2d_layered", "elast2d_inclusion"):
        assert params(fem.elast2d) == [*presets.MESH_SIZES[preset], "layout"]
    for preset, least in presets.MESH_SIZES.items():
        model = assemble(preset, least)
        assert model.mesh.items() >= least.items()
        assert all(np.any(T.data) for T in model.operator_terms), preset


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
    ("adv2d", {"nx": 10}),
    ("elast2d_layered", {"nx": 8}),
    ("elast2d_inclusion", {"nx": 6}),
]
# the ids keep the names these cases had when adv1d had a second stencil
SMALL_PRESET_IDS = ["adv1d-mesh0", "adv2d-mesh2", "elast2d_layered-mesh3",
                    "elast2d_inclusion-mesh4"]


def _preset_coefficients(model, xi):
    """(theta, phi) from the formulas in the preset docstrings."""
    if model.name == "adv1d":
        return [1.0, presets.B1 + 2.0 * xi[0], presets.B2 + 2.0 * xi[1]], [1.0]
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


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS, ids=SMALL_PRESET_IDS)
def test_operator_at_bit_equal_to_chained_sparse_sum(preset, mesh):
    model = assemble(preset, mesh)
    nnz = []
    # scipy's arithmetic on the terms' CSR arrays (adv1d's terms are numpy CSR)
    terms = [sp.csr_matrix((T.data, T.indices, T.indptr), shape=T.shape)
             for T in model.operator_terms]
    for xi in _probe_points(model):
        theta, _ = _preset_coefficients(model, xi)
        ref = theta[0] * terms[0]
        for t, term in zip(theta[1:], terms[1:]):
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


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS, ids=SMALL_PRESET_IDS)
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
    # assembly is the binding's: one per solve, also through loss
    model = assemble("adv1d", {"cells": 32})
    obs = gen_data(model, noise_pct=0.10, seed=0)
    calls = {"assemble": 0, "coefficients": 0}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(owner, name, counted)

    spy(type(model._band), "assemble")
    spy(ForwardModel, "coefficients")
    xi = np.array([0.31, 0.47])
    model.solve_full(xi)
    assert calls == {"assemble": 1, "coefficients": 1}
    factors = model.factorize(xi)
    u = model.solve_full(xi, factors)
    model.solve_sensitivity(u, factors[1])
    assert calls == {"assemble": 2, "coefficients": 3}
    model.loss(xi, obs)
    assert calls == {"assemble": 3, "coefficients": 4}


@pytest.mark.parametrize("fixture", ["adv1d_model", "adv2d_small", "elast_small"])
def test_solve_residual_and_determinism(fixture, request):
    model = request.getfixturevalue(fixture)
    xi = model.domain.sample(1, np.random.default_rng(5))[0]
    u1 = model.solve_full(xi)
    u2 = model.solve_full(xi)
    assert np.array_equal(u1, u2)
    assert np.array_equal(model.solve_full(xi, model.factorize(xi)), u1)
    A = model.operator_at(xi)
    f = model._rhs(model.coefficients(xi)[1])
    assert np.linalg.norm(f - A @ u1) <= 1e-10 * np.linalg.norm(f)


@pytest.mark.parametrize("fixture", ["adv1d_model", "adv2d_small", "elast_small"])
def test_full_solve_state_is_the_callers_own(fixture, request):
    # loss and solve_full reuse the model's and the binding's buffers, so
    # a state that solve_full returned must not alias them
    model = request.getfixturevalue(fixture)
    obs = ObservationSet(data=np.zeros((1, model.n_obs)))
    first, second = model.domain.sample(2, np.random.default_rng(6))
    u = model.solve_full(first)
    kept = u.copy()
    model.loss(second, obs)
    model.solve_full(second)
    assert u.tobytes() == kept.tobytes()


def _two_by_two_model(obs=np.eye(2)):
    """A(xi) = [[1, 1], [1, xi]], singular at xi = 1; f = (0, 1e308)."""
    return ForwardModel(
        name="two_by_two",
        operator_terms=[sp.csr_matrix([[1.0, 1.0], [1.0, 0.0]]),
                        sp.csr_matrix([[0.0, 0.0], [0.0, 1.0]])],
        operator_coeff_offsets=np.array([1.0, 0.0]),
        operator_coeff_grads=np.array([[0.0, 1.0]]),
        rhs_terms=[np.array([0.0, 1e308])],
        rhs_coeff_offsets=np.array([1.0]),
        rhs_coeff_grads=np.zeros((1, 1)),
        obs_matrix=sp.csr_matrix(obs),
        loss_kind="squared_l2",
        domain=ParameterDomain(lower=np.array([0.0]), upper=np.array([1.0])),
        mesh={},
        truth_default=np.array([0.5]),
    )


@pytest.mark.parametrize("fixture", ["adv1d_model", "adv2d_small", "elast_small"])
def test_gather_kernels_match_sparse_products(fixture, request):
    model = request.getfixturevalue(fixture)
    rng = np.random.default_rng(8)
    xi = model.domain.sample(1, rng)[0]
    values, _ = model.factorize(xi)
    f = model._rhs(model.coefficients(xi)[1])
    # at a random state the residual is O(|f|), at the solution rounding noise
    for u in (rng.standard_normal(model.n_dof), model.solve_full(xi)):
        ref = f - model.operator_at(xi) @ u
        gap = np.linalg.norm(model._band.residual(values, f, u) - ref)
        assert gap <= 1e-12 * max(np.linalg.norm(ref), np.linalg.norm(f))


def test_all_zero_observation_row_observes_zero():
    # scipy's observation matrix and the numpy CSRMatrix of its arrays, whose
    # padded slots multiply a gathered -3.0 by 0.0
    model = _two_by_two_model(obs=[[0.0, 0.0], [0.5, 2.0], [0.0, 0.0]])
    D = model.obs_matrix
    numpy_model = dataclasses.replace(
        model, obs_matrix=CSRMatrix((D.data, D.indices, D.indptr), shape=D.shape))
    u = np.array([-3.0, 0.25])
    got = numpy_model.observe(u)
    assert got.tobytes() == model.observe(u).tobytes()
    assert got[0] == 0.0 and got[2] == 0.0 and not np.signbit(got[[0, 2]]).any()
    assert numpy_model.observe(-u)[0] == 0.0 and model.observe(-u)[0] == 0.0


def test_singular_operator_raises_from_factorize():
    model = _two_by_two_model()
    model.factorize(np.array([0.5]))
    with pytest.raises(SolverError, match="factorization failed"):
        model.factorize(np.array([1.0]))
    with pytest.raises(SolverError, match="dgtsv info"):
        model.solve_full(np.array([1.0]))


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


def _per_term_sensitivity_rhs(model, u):
    """The right-hand sides of the sensitivity solves by a double loop over
    the parameters and the terms, skipping zero gradients: the reference
    for ForwardModel.residuals at the coefficient gradients."""
    rhs = np.zeros((model.n_dof, model.dim))
    for j in range(model.dim):
        for q, g in enumerate(model.rhs_coeff_grads[j]):
            if g != 0.0:
                rhs[:, j] += g * model.rhs_terms[q]
        for p, g in enumerate(model.operator_coeff_grads[j]):
            if g != 0.0:
                rhs[:, j] -= g * (model.operator_terms[p] @ u)
    return rhs


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS, ids=SMALL_PRESET_IDS)
def test_sensitivity_bit_equal_to_per_term_loop(preset, mesh):
    model = assemble(preset, mesh)
    for xi in model.domain.sample(3, np.random.default_rng(14)):
        factors = model.factorize(xi)
        u = model.solve_full(xi, factors)
        ref = factors[1].solve(_per_term_sensitivity_rhs(model, u))
        assert model.solve_sensitivity(u, factors[1]).tobytes() == ref.tobytes()


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS, ids=SMALL_PRESET_IDS)
def test_residuals_bit_equal_to_one_point_form(preset, mesh):
    # column i is _rhs(phi_i) - theta_i0 (A_0 @ u_i) - theta_i1 (A_1 @ u_i) - ...
    model = assemble(preset, mesh)
    rng = np.random.default_rng(15)
    theta, phi = model.coefficients(model.domain.sample(5, rng))
    states = rng.standard_normal((model.n_dof, 5))

    def one_point(t, f, u):
        r = model._rhs(f)
        for tp, M in zip(t, model.operator_terms):
            r -= tp * (M @ u)
        return r
    resid = model.residuals(theta, phi, states)
    assert resid.shape == states.shape
    for i in range(5):
        assert resid[:, i].tobytes() == one_point(theta[i], phi[i], states[:, i]).tobytes()
    shared = model.residuals(theta, phi, states[:, :1])  # one column for every row
    for i in range(5):
        assert shared[:, i].tobytes() == one_point(theta[i], phi[i], states[:, 0]).tobytes()


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
    # a short truth failed in numpy's matmul with a "core dimension" message
    with pytest.raises(ValueError, match="truth of length 1 for a model of dimension 2"):
        gen_data(adv1d_model, truth=[0.2])


def test_observations_csv_roundtrip(tmp_path, adv1d_model):
    data = gen_data(adv1d_model, noise_pct=0.1, n=4, seed=8)
    path = tmp_path / "obs.csv"
    data.to_csv(path)
    back = ObservationSet.from_csv(path)
    assert np.array_equal(back.data, data.data)
    assert back.eps_std == data.eps_std
    assert np.array_equal(back.truth, data.truth)
    assert back.channel_names == data.channel_names


def test_import_leaves_sparse_linalg_unloaded():
    # the observation norm is a dense SVD, and no solve goes through
    # scipy.sparse.linalg, so importing the package must not load it
    probe = "import sys, gibbsrb; print('scipy.sparse.linalg' in sys.modules)"
    assert fresh_python("-c", probe).strip() == "False"


ADV1D_SETUP = """
import sys
import gibbsrb
from gibbsrb import config
cfg = config.RunConfig.from_yaml(sys.argv[1])
model = config.build_model(cfg)
observations = config.build_observations(cfg, model, 0)
config.resolve_total_weight(cfg, observations)
print(" ".join(sorted(name for name in sys.argv[2:] if name in sys.modules)))
"""

SETUP_UNUSED = [f"gibbsrb.{name}" for name in (
    "smc", "localrb", "particles", "weights", "mcmc", "oracle", "diagnostics", "cli",
    "forward.fem")] + ["numpy.ma", "importlib.metadata", "concurrent.futures", "scipy"]


def test_adv1d_setup_imports_only_what_it_runs():
    # the set-up every CLI command and bench worker pays before its first
    # solve: the package, the config schema and the adv1d build, without
    # the samplers, the FEM builders or numpy.ma (17 ms, via np.unique)
    config = Path(__file__).parents[1] / "configs" / "adv1d.yaml"
    assert fresh_python("-c", ADV1D_SETUP, str(config), *SETUP_UNUSED).strip() == ""


def test_lazy_exports_resolve():
    # each name in a fresh process, where none has been looked up before
    probe = ("import gibbsrb\nfor name in gibbsrb.__all__:\n"
             "    exec(f'from gibbsrb import {name}')\nprint(len(gibbsrb.__all__))")
    assert fresh_python("-c", probe).strip() == str(len(gibbsrb.__all__))
    assert set(gibbsrb.__all__) <= set(dir(gibbsrb))
    with pytest.raises(AttributeError, match="no_such_name"):
        gibbsrb.no_such_name
    from gibbsrb.forward import adv2d, elast2d
    from gibbsrb.forward.fem import adv2d as fem_adv2d
    assert adv2d is fem_adv2d and elast2d.__module__ == "gibbsrb.forward.fem"


def _scipy_csr(T):
    return sp.csr_matrix((T.data, T.indices, T.indptr), shape=T.shape)


def test_adv1d_terms_equal_the_scipy_construction():
    # the terms as scipy.sparse built them: diags(...).tocsr() stores no zeros
    model = assemble("adv1d", {"cells": 64})
    n, nu = 64, 0.1
    h, m = 1.0 / n, n - 1
    x = np.linspace(0.0, 1.0, n + 1)[1:-1]
    w_left = np.where(x < 0.5, 1.0, 0.0)
    w_left[np.isclose(x, 0.5)] = 0.5
    diff = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)],
                    [-1, 0, 1]) * (nu / h**2)
    refs = [sp.csr_matrix(diff)] + [
        sp.diags([-w[1:] / (2 * h), np.zeros(m), w[:-1] / (2 * h)], [-1, 0, 1]).tocsr()
        for w in (w_left, 1.0 - w_left)]
    obs = sp.lil_matrix((3, m))
    for r, xo in enumerate((0.1, 0.5, 0.9)):
        j = int(np.floor(xo * n))
        t = (xo - j * h) / h
        for node, wgt in ((j, 1.0 - t), (j + 1, t)):
            if wgt != 0.0:
                obs[r, node - 1] += wgt
    refs.append(sp.csr_matrix(obs))
    for T, ref in zip(model.operator_terms + [model.obs_matrix], refs):
        assert T.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(T, name), getattr(ref, name)), name
        assert T.data.tobytes() == ref.data.tobytes()


def test_numpy_csr_products_bit_equal_to_scipy(adv1d_model):
    rng = np.random.default_rng(13)
    mats = adv1d_model.operator_terms + [adv1d_model.obs_matrix]
    n = adv1d_model.n_dof
    stacked = vstack_csr(mats)
    assert isinstance(stacked, CSRMatrix)
    for T, ref in [(T, _scipy_csr(T)) for T in mats] + [(stacked, sp.vstack(
            [_scipy_csr(T) for T in mats], format="csr"))]:
        assert isinstance(T, CSRMatrix)
        assert np.array_equal(T.toarray(), ref.toarray())
        for shape in [(n,), (n, 1), (n, 45)]:
            for _ in range(5):
                x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
                assert (T @ x).tobytes() == (ref @ x).tobytes()


def test_terms_must_be_csr_without_duplicates():
    model = _two_by_two_model()
    with pytest.raises(ValueError, match="must be CSR, got csc"):
        dataclasses.replace(model, operator_terms=[T.tocsc() for T in model.operator_terms])
    twice = sp.csr_matrix((np.ones(2), np.array([0, 0]), np.array([0, 2, 2])), shape=(2, 2))
    with pytest.raises(ValueError, match="duplicate entries"):
        dataclasses.replace(model, operator_terms=[model.operator_terms[0], twice])


ADV1D_PATH = """
import sys
from pathlib import Path
import gibbsrb
from gibbsrb import cli, gen_data, run_rwmh, run_smc
from gibbsrb.config import RunConfig, build_model
config_path, tiny_path, out = sys.argv[1], sys.argv[2], Path(sys.argv[3])
model = build_model(RunConfig.from_yaml(config_path))
obs = gen_data(model, noise_pct=0.10, n=1, seed=0)
run_smc(model, obs, gibbsrb.SmcConfig(particles=20, total_weight=16.7, neighbor_count=12))
run_rwmh(model, obs, 16.7, n_samples=15, burn_in=5, step_scale=0.1, seed=0)
for command in ("run-smc", "run-mcmc"):
    assert cli.main([command, "--config", config_path, "--out", str(out / command)]) == 0
assert cli.main(["run-smc", "--config", tiny_path, "--seed", "7", "--out", str(out / "tiny")]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "scipy" or name == "numpy.ma"))
"""


def test_adv1d_path_imports_no_scipy(tmp_path):
    if bandlu._ilp64_routines() is None:
        pytest.skip("no 64-bit-integer OpenBLAS loaded: band LU falls back to scipy")
    config = Path(__file__).parents[1] / "configs" / "adv1d.yaml"
    tiny = tmp_path / "tiny.yaml"
    tiny.write_text(test_golden.TINY_SMC)
    loaded = fresh_python("-c", ADV1D_PATH, str(config), str(tiny), str(tmp_path))
    assert loaded.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "run-mcmc" / "chain.csv").exists()
    manifest = json.loads((tmp_path / "run-smc" / "manifest.json").read_text())
    assert manifest["band_lu"] == "openblas-ilp64"
    # the golden CLI run, here through numpy's OpenBLAS and the numpy CSR
    particles = (tmp_path / "tiny" / "particles.csv").read_bytes()
    assert hashlib.sha256(particles).hexdigest() == test_golden.CLI_DIGESTS["particles.csv"]
