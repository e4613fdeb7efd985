import numpy as np
import pytest

from gibbsrb import ObservationSet, assemble, gen_data
from gibbsrb.smc import SmcConfig
from gibbsrb.weights import (SelectionResult, WeightSelectionConfig, candidate_grid,
                             effective_n, evaluate_grid_via_smc, gaussian_reference,
                             residual_objective, select_weight, WeightSelectionError)


def test_config_validation():
    with pytest.raises(ValueError):
        WeightSelectionConfig(range_factor=1.0)
    with pytest.raises(ValueError):
        WeightSelectionConfig(stabilizer=0.5)


def test_candidate_grid_paper_interval():
    cfg = WeightSelectionConfig(range_factor=50.0, grid_size=20)
    grid = candidate_grid(0.173, cfg)
    w_ref = gaussian_reference(0.173)
    assert w_ref == pytest.approx(16.70, abs=0.01)
    assert grid[0] == pytest.approx(w_ref / 50.0, rel=1e-12)   # ~0.334
    assert grid[-1] == pytest.approx(w_ref * 50.0, rel=1e-12)  # ~835.3
    assert np.any(np.isclose(grid, w_ref, rtol=1e-9))
    assert np.all(np.diff(grid) > 0)


def test_candidate_grid_single_point_limit():
    cfg = WeightSelectionConfig(range_factor=1.0001, grid_size=1)
    grid = candidate_grid(0.5, cfg)
    assert grid.size == 1
    assert grid[0] == pytest.approx(gaussian_reference(0.5))


def test_objective_zero_when_stats_match(adv1d_model):
    # craft observations whose residuals exactly reproduce (eps_mean, eps_std)
    xi = np.array([0.2, 0.7])
    pred = adv1d_model.observe(adv1d_model.solve_full(xi))
    n, D = 8, 3
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((n, D))
    raw -= raw.mean(axis=0)
    # normalize per channel so sum r^2 / (n-1) = sigma^2 exactly
    sigma = 0.2
    raw *= sigma / np.sqrt(np.sum(raw**2, axis=0) / (n - 1))
    obs = ObservationSet(data=pred[None, :] - raw, eps_mean=0.0, eps_std=sigma)
    val = residual_objective(xi, adv1d_model, obs)
    # mean residual is zero by construction; std matches sigma exactly
    assert val == pytest.approx(0.0, abs=1e-10)


def test_objective_unit_value_for_perfect_fit(adv1d_model):
    # residuals identically zero and eps_mean = 0: the std term contributes
    # |0 - eps_std| / eps_std = 1
    xi = np.array([0.2, 0.7])
    pred = adv1d_model.observe(adv1d_model.solve_full(xi))
    obs = ObservationSet(data=np.tile(pred, (5, 1)), eps_mean=0.0, eps_std=0.3)
    assert residual_objective(xi, adv1d_model, obs) == pytest.approx(1.0)


def test_objective_permutation_invariant(adv1d_model):
    data = gen_data(adv1d_model, noise_pct=0.1, n=6, seed=1)
    perm = ObservationSet(data=data.data[::-1], eps_mean=data.eps_mean,
                          eps_std=data.eps_std)
    xi = np.array([0.4, 0.5])
    a = residual_objective(xi, adv1d_model, data)
    b = residual_objective(xi, adv1d_model, perm)
    assert a == pytest.approx(b, rel=1e-12)


def test_objective_single_scalar_datum_errors(adv1d_model):
    obs = ObservationSet(data=np.array([[1.0]]), eps_std=0.1)
    with pytest.raises(WeightSelectionError):
        residual_objective(np.array([0.2, 0.7]), adv1d_model, obs)


def test_effective_n():
    assert effective_n(ObservationSet(data=np.zeros((4, 3)), eps_std=1.0)) == 4
    assert effective_n(ObservationSet(data=np.zeros((1, 5)), eps_std=1.0)) == 5
    with pytest.raises(WeightSelectionError):
        effective_n(ObservationSet(data=np.zeros((1, 1)), eps_std=1.0))


def test_select_weight_arithmetic():
    cfg = WeightSelectionConfig(stabilizer=10.0)
    w_ref = gaussian_reference(0.25)
    grid = np.array([0.5 * w_ref, w_ref, 2.0 * w_ref])

    # n = 1: all mass on the reference
    w, _ = select_weight(grid, np.array([0.3, 0.2, 0.1]), 1, 0.25, cfg)
    assert w == pytest.approx(w_ref)

    # n -> infinity: all mass on the optimizer
    w, w_opt = select_weight(grid, np.array([0.3, 0.2, 0.1]), 10**9, 0.25, cfg)
    assert w_opt == pytest.approx(2.0 * w_ref)
    assert w == pytest.approx(2.0 * w_ref, rel=1e-6)

    # S = 10, n = 11, w_opt = 2 w_ref -> 1.5 w_ref
    w, _ = select_weight(grid, np.array([0.3, 0.2, 0.1]), 11, 0.25, cfg)
    assert w == pytest.approx(1.5 * w_ref)


def test_select_weight_tie_takes_smaller():
    cfg = WeightSelectionConfig()
    grid = np.array([1.0, 2.0, 3.0])
    _, w_opt = select_weight(grid, np.array([0.5, 0.2, 0.2]), 5, 0.5, cfg)
    assert w_opt == 2.0


def test_final_weight_between_ref_and_opt():
    cfg = WeightSelectionConfig(stabilizer=3.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        eps = 0.05 + rng.random()
        grid = candidate_grid(eps, WeightSelectionConfig(grid_size=7))
        objs = rng.random(grid.size)
        n = int(rng.integers(1, 40))
        w, w_opt = select_weight(grid, objs, n, eps, cfg)
        w_ref = gaussian_reference(eps)
        assert min(w_ref, w_opt) <= w <= max(w_ref, w_opt)


def test_grid_of_one_returns_reference_exactly():
    cfg = WeightSelectionConfig()
    # the unclamped blend gives 1.4292804535287638 here
    eps, n = 0.5914612202490918, 34
    w_ref = gaussian_reference(eps)
    assert select_weight(np.array([w_ref]), np.zeros(1), n, eps, cfg)[0] == w_ref
    rng = np.random.default_rng(5)
    for _ in range(2000):
        eps = 0.05 + rng.random()
        n = int(rng.integers(1, 100))
        w_ref = gaussian_reference(eps)
        assert select_weight(np.array([w_ref]), np.zeros(1), n, eps, cfg)[0] == w_ref


def test_grid_of_one_equals_single_smc_run(adv1d_model):
    data = gen_data(adv1d_model, noise_pct=0.1, n=4, seed=3)
    wcfg = WeightSelectionConfig(range_factor=1.0001, grid_size=1)
    scfg = SmcConfig(particles=40, seed=4, e_thre_mode="fixed", e_thre_value=1e-3)
    sel = evaluate_grid_via_smc(adv1d_model, data, wcfg, scfg)
    assert sel.grid.size == 1
    assert sel.objectives.size == 1
    assert sel.smc_result.final_weight == pytest.approx(sel.grid[0])
    # n = 4 observations: stabilized average leans on the reference
    w_ref = gaussian_reference(data.eps_std)
    assert min(w_ref, sel.w_opt) <= sel.w_final <= max(w_ref, sel.w_opt)


@pytest.mark.slow
def test_pipeline_candidates_cover_grid(adv1d_model):
    data = gen_data(adv1d_model, noise_pct=0.1, n=4, seed=5)
    wcfg = WeightSelectionConfig(range_factor=10.0, grid_size=6)
    scfg = SmcConfig(particles=50, seed=6, e_thre_mode="fixed", e_thre_value=1e-3)
    sel = evaluate_grid_via_smc(adv1d_model, data, wcfg, scfg)
    assert np.all(np.isfinite(sel.objectives))
    assert sel.smc_result.final_weight == pytest.approx(sel.grid.max())
    assert sel.grid.size >= 6
