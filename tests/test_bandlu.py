"""Band and tridiagonal LU through numpy's OpenBLAS and through scipy's
LAPACK, with scipy.linalg.lapack as the reference."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack

from gibbsrb import ObservationSet, assemble, gen_data
from gibbsrb.domain import ParameterDomain
from gibbsrb.forward import bandlu
from gibbsrb.forward.model import ForwardModel, SolverError

import test_golden
from test_forward_models import (SMALL_PRESET_IDS, _SMALL_PRESETS, _probe_points,
                                 _two_by_two_model)

BINDINGS = ["openblas-ilp64", "scipy.linalg.lapack"]


@pytest.fixture(params=BINDINGS)
def binding(request, monkeypatch):
    """The binding of the models the test builds: numpy's OpenBLAS, or the
    fallback where it has no routines."""
    if request.param == "scipy.linalg.lapack":
        monkeypatch.setattr(bandlu, "_ilp64_routines", lambda: None)
    elif bandlu._ilp64_routines() is None:
        pytest.skip("no 64-bit-integer OpenBLAS loaded")
    return request.param


@pytest.mark.parametrize("preset,mesh", [
    ("adv1d", {"cells": 16}), ("adv2d", {"nx": 4, "obs_grid": 3}),
    ("elast2d_layered", {"nx": 4, "obs_grid": 3})])
def test_numpy_openblas_serves_after_scipy_is_imported(preset, mesh):
    # the binding follows what numpy's OpenBLAS exports, not import order:
    # scipy is imported here, and the FEM presets import it to assemble
    if bandlu._ilp64_routines() is None:
        pytest.skip("no 64-bit-integer OpenBLAS loaded")
    import scipy.linalg  # noqa: F401
    assert assemble(preset, mesh).band_lu_binding == "openblas-ilp64"


def _scipy_reference(band, storage):
    """scipy.linalg.lapack on the storage of A: (the factor arrays, the
    pivots 1-based, a solve with those factors, the one-call solve)."""
    if band.routines == "dgb":
        kl, ku = band.kl, band.ku
        lu, piv, info = lapack.dgbtrf(storage.copy(order="F"), kl, ku)
        assert info == 0
        return ([lu], piv + 1,  # scipy's dgbtrf pivots are 0-based
                lambda b: lapack.dgbtrs(lu, kl, ku, b, piv)[0],
                lambda b: lapack.dgbsv(kl, ku, storage.copy(order="F"), b)[2])
    du, d, dl = storage[0, 1:], storage[1], storage[2, :-1]
    dl_f, d_f, du_f, du2, piv, info = lapack.dgttrf(dl, d, du)
    assert info == 0
    return ([du_f, d_f, dl_f, du2], piv,
            lambda b: lapack.dgttrs(dl_f, d_f, du_f, du2, piv, b)[0],
            lambda b: lapack.dgtsv(dl, d, du, b)[3])


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS, ids=SMALL_PRESET_IDS)
def test_band_lu_bit_equal_to_scipy(binding, preset, mesh):
    # adv1d is tridiagonal (dgt*), the FEM presets are wider bands (dgb*)
    model = assemble(preset, mesh)
    assert model.band_lu_binding == binding
    assert model.band_lu_routines == ("dgt" if preset == "adv1d" else "dgb")
    band = model._band
    rng = np.random.default_rng(21)
    for xi in model.domain.sample(3, rng):
        storage = band.view(band.assemble(model.coefficients(xi)[0])[1])
        factors_ref, piv_ref, solve_ref, factor_solve_ref = _scipy_reference(band, storage)
        _, lu = model.factorize(xi)
        factors = ([lu.lu] if band.routines == "dgb" else
                   [lu.lu[0, 1:], lu.lu[1], lu.lu[2, :-1], lu.lu[3, :-2]])  # du, d, dl, du2
        assert [a.tobytes() for a in factors] == [a.tobytes() for a in factors_ref]
        assert np.array_equal(lu.piv, piv_ref)
        for shape in [(model.n_dof,), (model.n_dof, 1), (model.n_dof, 45)]:
            b = rng.standard_normal(shape)
            assert lu.solve(b).tobytes() == solve_ref(b).tobytes()
        f = model._rhs(model.coefficients(xi)[1])
        assert model.solve_full(xi).tobytes() == factor_solve_ref(f).tobytes()


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS, ids=SMALL_PRESET_IDS)
def test_loss_bit_equal_to_loss_of_full_solve(binding, preset, mesh):
    # loss solves and observes in the model's and its binding's buffers,
    # solve_full returns a fresh state; the calls alternate on one model
    model = assemble(preset, mesh)
    obs = gen_data(model, noise_pct=0.10, n=2, seed=5)
    for xi in _probe_points(model):
        ref = model.loss_from_prediction(model.observe(model.solve_full(xi)), obs)
        assert np.float64(model.loss(xi, obs)).tobytes() == ref.tobytes()


def _tridiagonal_model_missing_an_entry():
    """A(xi) = tridiag(1, 4, 1) with A[0, 0] = xi and no A[0, 1]: |A[0, 0]|
    < |A[1, 0]|, so the elimination swaps rows 0 and 1 and writes the place
    of A[0, 1], which no scatter writes."""
    n = 6
    fixed = np.diag(np.r_[0.0, np.full(n - 1, 4.0)]) + np.eye(n, k=-1) + np.eye(n, k=1)
    fixed[0, 1] = 0.0
    corner = np.zeros((n, n))
    corner[0, 0] = 1.0
    return ForwardModel(
        name="tridiagonal_missing_an_entry",
        operator_terms=[sp.csr_matrix(fixed), sp.csr_matrix(corner)],
        operator_coeff_offsets=np.array([1.0, 0.0]),
        operator_coeff_grads=np.array([[0.0, 1.0]]),
        rhs_terms=[np.arange(1.0, n + 1)],
        rhs_coeff_offsets=np.ones(1),
        rhs_coeff_grads=np.zeros((1, 1)),
        obs_matrix=sp.csr_matrix(np.eye(n)),
        loss_kind="squared_l2",
        domain=ParameterDomain(lower=np.array([0.1]), upper=np.array([0.9])),
        mesh={},
        truth_default=np.array([0.5]),
    )


def test_tridiagonal_storage_rewritten_before_each_factorization(binding):
    # a one-call solve overwrites its binding's buffer; a stale place of
    # A[0, 1] would enter the next solve
    model = _tridiagonal_model_missing_an_entry()
    assert (model.band_lu_binding, model.band_lu_routines) == (binding, "dgt")
    points = [np.array([0.3]), np.array([0.7])]
    obs = ObservationSet(data=np.ones((1, 6)))
    solves = [model.solve_full(xi) for xi in points]
    losses = [model.loss(xi, obs) for xi in points]
    for xi, u, loss in zip(points, solves, losses):
        fresh = _tridiagonal_model_missing_an_entry()
        assert u.tobytes() == fresh.solve_full(xi).tobytes()
        assert u.tobytes() == fresh.solve_full(xi, fresh.factorize(xi)).tobytes()
        assert loss == _tridiagonal_model_missing_an_entry().loss(xi, obs)


def test_openblas_solve_checks_the_shape_before_the_call():
    # LAPACK would read and write n rows of whatever it is given
    if bandlu._ilp64_routines() is None:
        pytest.skip("no 64-bit-integer OpenBLAS loaded")
    _, lu = assemble("adv1d", {"cells": 16}).factorize(np.array([0.3, 0.6]))
    for b in (np.ones(14), np.ones((16, 2)), np.ones((15, 2, 2))):
        with pytest.raises(ValueError, match="for 15 unknowns"):
            lu.solve(b)


def test_singular_operator_raises_through_each_binding(binding):
    model = _two_by_two_model()
    assert model.band_lu_binding == binding
    _, lu = model.factorize(np.array([0.5]))
    assert np.allclose(lu.solve(np.array([1.0, 2.0])), [3.0, -2.0])
    with pytest.raises(SolverError, match="dgttrf info 2"):
        model.factorize(np.array([1.0]))
    with pytest.raises(SolverError, match="dgtsv info 2"):
        model.solve_full(np.array([1.0]))


def test_loss_failures_through_each_binding(binding):
    # loss fails as solve_full does, counting no full solve: with dgtsv's
    # info on a singular A, from the residual check without a warning on an
    # overflowed solve, and before writing any buffer outside the box
    model = _two_by_two_model(obs=1e-300 * np.eye(2))  # observes about 1e8
    obs = ObservationSet(data=np.zeros((1, 2)))
    with pytest.raises(SolverError, match="dgtsv info 2"):
        model.loss(np.array([1.0]), obs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="residual nan"):
            model.loss(np.array([1.0 - 2.0**-52]), obs)
    assert model.counters.full == 0
    with pytest.raises(ValueError, match="outside"):
        model.loss(np.array([1.5]), obs)
    xi = np.array([0.0])  # the one point of the box whose solution is finite
    with np.errstate(over="ignore"):  # |f|^2 overflows, f_1 being 1e308
        loss = model.loss(xi, obs)
        assert loss == _two_by_two_model(obs=1e-300 * np.eye(2)).loss(xi, obs)
    assert 0.0 < loss < np.inf and model.counters.full == 1


def test_factors_solve_through_the_binding_that_made_them(monkeypatch):
    if bandlu._ilp64_routines() is None:
        pytest.skip("no 64-bit-integer OpenBLAS loaded")
    xi = np.array([0.3, 0.6])
    _, lu = assemble("adv1d", {"cells": 64}).factorize(xi)
    monkeypatch.setattr(bandlu, "_ilp64_routines", lambda: None)
    _, lu_scipy = assemble("adv1d", {"cells": 64}).factorize(xi)
    assert (lu.binding.name, lu_scipy.binding.name) == tuple(BINDINGS)
    b = np.random.default_rng(4).standard_normal((lu.lu.shape[1], 3))
    assert lu.solve(b).tobytes() == lu_scipy.solve(b).tobytes()


# the golden runs of the exact path and of the bench's SMC call, through each binding
@pytest.mark.parametrize("preset,mesh", list(test_golden.EXACT_LOSS_DIGESTS))
def test_exact_loss_golden_through_each_binding(binding, preset, mesh):
    test_golden.test_exact_loss_golden(preset, mesh)


def test_bench_smc_adv1d_shape_golden_through_each_binding(binding):
    test_golden.test_bench_smc_adv1d_shape_golden()


def test_run_rwmh_chain_golden_through_each_binding(binding, adv1d_obs):
    test_golden.test_run_rwmh_chain_golden(adv1d_obs)
