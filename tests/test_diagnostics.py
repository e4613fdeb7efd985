import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gibbsrb import assemble, gen_data
from gibbsrb.config import RunConfig, build_model, build_observations, resolve_total_weight
from gibbsrb.diagnostics import (FINAL_ESS_FRACTION, THRESHOLDS_PER_DIM, bound_suite, h_proxy,
                                 ks_distance, marginal_cdf)
from gibbsrb.domain import ParameterDomain, PriorSpec
from gibbsrb.oracle import GridPosterior, grid_posterior
from gibbsrb.particles import ParticleSet
from gibbsrb.smc import SmcConfig, init_particles, run_smc

from exact_loss import ExactLoss


def uniform_domain(dim=2):
    return ParameterDomain(np.zeros(dim), np.ones(dim))


# U[0, 1] as a two-node grid: its CDF, read by linear interpolation, is x
UNIFORM_GRID = GridPosterior([np.array([0.0, 1.0])], np.ones(2))


def make_set(points, weights=None):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1:
        pts = pts.T
    m = pts.shape[0]
    w = np.full(m, 1.0 / m) if weights is None else weights
    return ParticleSet(pts, w)


# ----- h proxy -----

def test_h_proxy_zero_on_identical():
    dom = uniform_domain(2)
    ps = make_set(np.random.default_rng(0).random((50, 2)))
    assert h_proxy([ps], ps, dom) == pytest.approx(0.0, abs=1e-15)


def test_h_proxy_nonnegative_and_bounded():
    dom = uniform_domain(1)
    rng = np.random.default_rng(1)
    a = make_set(rng.random(30))
    b = make_set(rng.random(30))
    v = h_proxy([a], b, dom)
    assert 0.0 <= v <= 2.0  # |f| <= 1 caps any single expectation gap at 2


@pytest.mark.parametrize("priors, grid, m", [
    ((PriorSpec(), PriorSpec()), (31, 31), 200),
    ((PriorSpec("beta", 3, 1),), (101,), 400),
], ids=["uniform-2d", "beta31-1d"])
def test_h_proxy_grid_reference(priors, grid, m):
    dom = ParameterDomain(np.zeros(len(priors)), np.ones(len(priors)), priors)
    zero_loss = types.SimpleNamespace(loss=lambda xi, observations: 0.0)
    post = grid_posterior(zero_loss, dom, 0.0, grid, None)
    rng = np.random.default_rng(4)
    runs = [make_set(dom.sample(m, rng)) for _ in range(10)]
    # prior draws against the grid's prior: the Monte Carlo rate applies
    assert h_proxy(runs, post, dom) <= 1.0 / np.sqrt(m)


def test_h_proxy_nan_against_a_nan_density():
    # max(0.0, nan) is 0.0: a NaN reference used to read as a perfect match
    rng = np.random.default_rng(2)
    runs = [make_set(rng.random(30)) for _ in range(3)]
    nan_grid = GridPosterior([np.linspace(0.0, 1.0, 11)], np.full(11, np.nan))
    assert np.isnan(h_proxy(runs, nan_grid, uniform_domain(1)))


def _h_per_function(runs, reference, domain):
    """h_proxy one test function at a time, each expectation a Python float."""
    def expectation(dist, j, kind, c):
        if isinstance(dist, ParticleSet):
            x = dist.points[:, j]
            reduce = lambda f: float(dist.weights @ f)
        else:
            x, mass = dist.marginal_masses(j)
            reduce = lambda f: float(np.sum(mass * f))
        if kind == "ind":
            return reduce((x <= c).astype(float))
        s = 2.0 * (x - domain.lower[j]) / domain.widths[j] - 1.0
        return reduce(np.clip(s if kind == "lin" else s**2, -1.0, 1.0))

    worst = 0.0
    for j in range(domain.dim):
        lo, w = domain.lower[j], domain.widths[j]
        cuts = np.linspace(lo, lo + w, THRESHOLDS_PER_DIM + 2)[1:-1]
        for kind, c in [*(("ind", c) for c in cuts), ("lin", None), ("sq", None)]:
            ref = expectation(reference, j, kind, c)
            sq = [(expectation(r, j, kind, c) - ref) ** 2 for r in runs]
            worst = max(worst, np.sqrt(np.mean(sq)))
    return float(worst)


@pytest.mark.parametrize("kind", ["particles", "grid"])
@pytest.mark.parametrize("n_runs", [1, 2, 7, 20])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_h_proxy_bit_equal_to_per_function_form(dim, n_runs, kind):
    priors = (PriorSpec("beta", 2.5, 4.0), PriorSpec(), PriorSpec("beta", 1.5, 2.2))[:dim]
    dom = ParameterDomain(np.array([-1.0, 0.1, 2.0][:dim]), np.array([2.0, 10.0, 2.5][:dim]),
                          priors)
    rng = np.random.default_rng(100 * dim + n_runs)

    def cloud(m):  # weighted points, some outside the box so the clipping acts
        pts = dom.lower + dom.widths * (1.2 * rng.random((m, dim)) - 0.1)
        return ParticleSet(pts, rng.dirichlet(np.ones(m)))

    if kind == "grid":
        centre = dom.lower + 0.3 * dom.widths
        model = types.SimpleNamespace(loss=lambda xi, observations: float(
            np.sum(((xi - centre) / dom.widths) ** 2)))
        reference = grid_posterior(model, dom, 5.0, 9, None)
    else:
        reference = cloud(60)
    runs = [cloud(int(m)) for m in rng.integers(20, 80, n_runs)]
    h = h_proxy(runs, reference, dom)
    assert h > 0.0
    assert h == _h_per_function(runs, reference, dom)


# ----- KS distance -----

def test_ks_identical_sets():
    ps = make_set(np.random.default_rng(5).random(40))
    assert ks_distance(ps, ps, 0) == pytest.approx(0.0, abs=1e-15)


def test_ks_point_mass_vs_uniform_cdf():
    ps = make_set(np.full(10, 0.5))
    assert ks_distance(ps, UNIFORM_GRID, 0) == pytest.approx(0.5)


def test_ks_dkw_uniform():
    rng = np.random.default_rng(6)
    ps = make_set(rng.random(1000))
    d = ks_distance(ps, UNIFORM_GRID, 0)
    assert d <= 0.06  # DKW: P(d > 0.06) < 1% at m = 1000


def test_ks_weighted_against_samples():
    rng = np.random.default_rng(7)
    # weighted particles encoding U[0,1] through importance weights
    pts = rng.random(4000) ** 2  # x = u^2 -> density 1/(2 sqrt(x))
    w = 2.0 * np.sqrt(pts)
    ps = ParticleSet(pts[:, None], w / w.sum())
    ref = ParticleSet.equal_weight(rng.random((4000, 1)))
    assert ks_distance(ps, ref, 0) < 0.05


@pytest.mark.parametrize("reference", [lambda x: np.clip(x, 0, 1),
                                       np.random.default_rng(8).random((50, 1))],
                         ids=["callable-cdf", "sample-array"])
def test_reference_of_another_type_rejected(reference):
    ps = make_set(np.random.default_rng(9).random(20))
    with pytest.raises(TypeError, match="unsupported reference"):
        ks_distance(ps, reference, 0)
    with pytest.raises(TypeError, match="unsupported reference"):
        marginal_cdf(reference, 0)
    with pytest.raises(TypeError, match="unsupported reference"):
        h_proxy([ps, ps], reference, uniform_domain(1))


# ----- bound suite -----

@pytest.fixture(scope="module")
def small_run():
    model = assemble("adv1d", {"cells": 64})
    obs = gen_data(model, noise_pct=0.1, n=1, seed=0)
    cfg = SmcConfig(particles=40, total_weight=16.70, e_thre_mode="fixed",
                    e_thre_value=1e-3, seed=0)
    return model, obs, run_smc(model, obs, cfg)


def test_bound_suite_passes_on_real_run(small_run):
    model, obs, result = small_run
    report = bound_suite(result, model, obs, seed=1)
    assert report.passed
    assert len(report.iterations) == result.iterations
    for row in report.iterations:
        assert row["kl"] <= row["kl_bound"] + 1e-12
        assert row["audit_gap"] <= 1.1 * row["e_thre"]


@pytest.mark.parametrize("preset,nx,seed", [("adv2d", 16, 0), ("elast2d_layered", 8, 0),
                                             ("elast2d_layered", 8, 1),
                                             ("elast2d_inclusion", 8, 0)],
                         ids=["adv2d-16", "elast2d_layered-8", "elast2d_layered-8-seed1",
                              "elast2d_inclusion-8"])
def test_bound_suite_passes_on_shipped_config(preset, nx, seed):
    # the shipped smc section at desk scale: coarser mesh, 40 particles; at
    # seed 1 the elast cloud's spread grows in one iteration (t = 6) while
    # falling several-fold over the run; the inclusion run holds more atoms
    # than the LU cache, so its indicator reads meet cache misses
    config = RunConfig.from_yaml(Path(__file__).parents[1] / "configs" / f"{preset}.yaml")
    config.mesh = {**config.mesh, "nx": nx}
    model = build_model(config)
    obs = build_observations(config, model, 0)
    cfg = replace(config.smc, particles=40, seed=seed,
                  total_weight=resolve_total_weight(config, obs))
    result = run_smc(model, obs, cfg)
    assert bound_suite(result, model, obs, seed=0).passed


def test_bound_suite_fails_a_cloud_that_does_not_concentrate(small_run):
    model, obs, result = small_run
    report = bound_suite(result, model, obs, seed=1)
    assert report.concentration_ok
    # the same history ending in a cloud on the corners of the box, wider
    # than the prior draws it started from
    last = result.snapshots[-1]
    corners = np.random.default_rng(4).integers(0, 2, last.points.shape).astype(float)
    wide = replace(result, snapshots=result.snapshots[:-1]
                   + [ParticleSet(corners, last.weights)])
    report = bound_suite(wide, model, obs, seed=1)
    assert all(row["assumption_ok"] and row["kl_ok"] for row in report.iterations)
    assert not report.concentration_ok and not report.passed


def test_bound_suite_final_row_fails_a_known_loss_error(small_run):
    model, obs, result = small_run
    report = bound_suite(result, model, obs, seed=1)
    assert report.final["ess_fraction"] >= FINAL_ESS_FRACTION and report.passed
    # an error of +-0.05 on alternate final losses moves each log-weight by
    # W * 0.05 = 0.835, which caps ESS/m at cosh(0.835)^2 / cosh(1.67) = 0.68
    error = np.where(np.arange(result.particles.m) % 2, 0.05, -0.05)
    offset = replace(result, final_losses=result.final_losses + error)
    report = bound_suite(offset, model, obs, seed=1)
    assert all(row["assumption_ok"] and row["kl_ok"] for row in report.iterations)
    assert report.concentration_ok
    assert report.final["w_max_gap"] >= result.final_weight * 0.05 - 1e-12
    assert report.final["ess_fraction"] < 0.75
    assert not report.final["ess_ok"] and not report.passed


def test_bound_suite_exact_mode_all_zero(adv1d_model, adv1d_obs):
    cfg = SmcConfig(particles=30, total_weight=4.0, seed=2)
    result = run_smc(adv1d_model, adv1d_obs, cfg, surrogate=ExactLoss(adv1d_model))
    report = bound_suite(result, adv1d_model, adv1d_obs, seed=2)
    assert report.passed
    for row in report.iterations + [report.final]:
        assert row["e_observed"] == pytest.approx(0.0, abs=1e-12)
    assert all(row["kl"] == pytest.approx(0.0, abs=1e-12) for row in report.iterations)
    assert report.final["ess_fraction"] == pytest.approx(1.0)


def test_constant_loss_offset_changes_nothing(small_run):
    # an adversarial surrogate shifted by a constant yields identical
    # reweighted particles: KL = 0 <= bound
    from gibbsrb.particles import kl_reweighted

    model, obs, result = small_run
    start = result.snapshots[0]
    rec = result.history[0]
    exact = np.array([model.loss(p, obs) for p in start.points])
    shifted = rec.losses + 0.37
    kl = kl_reweighted(start, exact, shifted, rec.delta_w)
    kl_unshifted = kl_reweighted(start, exact, rec.losses, rec.delta_w)
    assert kl == pytest.approx(kl_unshifted, abs=1e-12)


def test_bound_report_json(tmp_path, small_run):
    model, obs, result = small_run
    report = bound_suite(result, model, obs, seed=3)
    path = tmp_path / "bounds.json"
    report.to_json(path)
    import json

    data = json.loads(path.read_text())
    assert data["passed"] == report.passed
    assert data["concentration_ok"] == report.concentration_ok
    assert len(data["iterations"]) == len(report.iterations)
    assert data["final"] == report.final
