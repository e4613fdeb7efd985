"""Band LU through numpy's OpenBLAS and through scipy.linalg.lapack, with
scipy.linalg.lapack as the reference."""

import numpy as np
import pytest
from scipy.linalg import lapack

from gibbsrb import assemble
from gibbsrb.forward import bandlu
from gibbsrb.forward.model import SolverError

import test_golden
from test_forward_models import SMALL_PRESET_IDS, _SMALL_PRESETS, _two_by_two_model

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


@pytest.mark.parametrize("preset,mesh", _SMALL_PRESETS, ids=SMALL_PRESET_IDS)
def test_band_lu_bit_equal_to_scipy(binding, preset, mesh):
    model = assemble(preset, mesh)
    assert model.band_lu_binding == binding
    kl, ku = model._kl, model._ku
    rng = np.random.default_rng(21)
    for xi in model.domain.sample(3, rng):
        band = bandlu.band_view(model._assemble(model.coefficients(xi)[0])[1],
                                model._band.shape)
        lu_ref, piv_ref, info = lapack.dgbtrf(band.copy(order="F"), kl, ku)
        assert info == 0
        _, lu = model.factorize(xi)
        assert lu.lu.tobytes() == lu_ref.tobytes()
        # LAPACK's pivots are 1-based, scipy's 0-based
        base = 1 if binding == "openblas-ilp64" else 0
        assert np.array_equal(lu.piv - base, piv_ref)
        for shape in [(model.n_dof,), (model.n_dof, 1), (model.n_dof, 45)]:
            b = rng.standard_normal(shape)
            ref = lapack.dgbtrs(lu_ref, kl, ku, b, piv_ref)[0]
            assert lu.solve(b).tobytes() == ref.tobytes()
        f = model.rhs_at(xi)
        u_ref = lapack.dgbsv(kl, ku, band.copy(order="F"), f)[2]
        assert model.solve_full(xi).tobytes() == u_ref.tobytes()


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
    with pytest.raises(SolverError, match="dgbtrf info 2"):
        model.factorize(np.array([1.0]))
    with pytest.raises(SolverError, match="dgbsv info 2"):
        model.solve_full(np.array([1.0]))


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
