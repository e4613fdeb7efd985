import numpy as np
import pytest
from scipy import optimize, stats

from gibbsrb import ObservationSet, Surrogate, assemble, gen_data
from gibbsrb.domain import ParameterDomain, PriorSpec
from gibbsrb.localrb import BasisDegeneracyError
from gibbsrb.particles import ParticleSet, empirical_moments, ess
from gibbsrb.seeding import PHASE_INIT, stream
from gibbsrb.smc import (BISECTIONS, SmcConfig, SmcIterationError, adapt_step,
                         init_particles, mutate, replay_consistency, resample, run_smc)

from exact_loss import ExactLoss


def uniform_domain(dim=2):
    return ParameterDomain(np.zeros(dim), np.ones(dim))


def zero_loss(points):
    return np.zeros(len(points))


# ----- configuration validation -----

def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="particles"):
        SmcConfig(particles=3)  # an ESS target below 2
    assert SmcConfig(particles=4).particles == 4


def test_config_rejects_bad_surrogate_sizes():
    # a bad YAML value fails when the config is parsed, not deep in
    # Surrogate.__init__ (numpy's "negative dimensions")
    from gibbsrb.config import RunConfig

    with pytest.raises(ValueError, match="neighbor_count"):
        RunConfig.from_dict({"smc": {"neighbor_count": -1}})
    assert SmcConfig(neighbor_count=0).neighbor_count == 0


# Each case's id is a fixed string, raw<n>-<expected error>, so a key's cases
# can leave without renaming the others.  Every integer config key, by
# section, and the retired ones, each with its first case's n
COUNT_KEYS = {("smc", "particles"): 10, ("smc", "mutation_steps"): 13,
              ("smc", "max_iterations"): 16, ("smc", "seed"): 19,
              ("smc", "neighbor_count"): 22, ("smc", "atom_budget"): 25,
              ("mcmc", "samples"): 28, ("mcmc", "burn_in"): 31,
              ("weight_selection", "grid_size"): 34, ("data", "n_obs"): 37,
              ("oracle", "grid"): 40}
# every float config key, by section, and the retired ones, likewise
FLOAT_KEYS = {("smc", "proposal_mixing"): 57, ("smc", "e_thre_value"): 61,
              ("mcmc", "step_scale"): 69, ("weight_selection", "range_factor"): 73,
              ("weight_selection", "stabilizer"): 77, ("data", "noise_pct"): 81,
              ("gibbs", "total_weight"): 85}
# keys that became module constants, each with the name its unknown-key error
# gives: the whole section where the section went.  A config that sets one
# fails whatever the value
RETIRED = {("smc", "atom_budget"): "smc.atom_budget", ("smc", "proposal_mixing"):
           "smc.proposal_mixing", ("weight_selection", "grid_size"): "weight_selection",
           ("weight_selection", "range_factor"): "weight_selection",
           ("weight_selection", "stabilizer"): "weight_selection", ("oracle", "grid"): "oracle"}
BAD_COUNTS = (2.5, "3", True)
BAD_FLOATS = (float("nan"), float("inf"), "0.5", True)


def _case(n: int, raw: dict, error: str):
    """Case raw<n>: the config raw fails with a message that matches error."""
    return pytest.param(raw, error, id=f"raw{n}-{error}")


def _key_cases(n: int, section: str, key: str, values, error: str) -> list:
    """Cases raw<n>, raw<n+1>, ...: the key set to each value in turn; a
    retired key fails as unknown."""
    if (section, key) in RETIRED:
        error = f"unknown config key {RETIRED[section, key]};"
    return [_case(n + i, {section: {key: value}}, error) for i, value in enumerate(values)]


@pytest.mark.parametrize("raw,key", [
    _case(0, {"gibbs": {"total_weight": float("nan")}}, "total_weight"),
    _case(1, {"gibbs": {"total_weight": "inf"}}, "total_weight"),
    _case(2, {"gibbs": {"total_weight": -1.0}}, "total_weight"),
    _case(3, {"smc": {"total_weight": float("nan")}}, "total_weight"),
    _case(4, {"smc": {"max_iterations": 0}}, "max_iterations"),
    _case(5, {"smc": {"e_thre_value": 0.0}}, "e_thre_value"),
    _case(6, {"smc": {"e_thre_value": -1e-3}}, "e_thre_value"),
    # the loss-std fraction is the constant smc.E_THRE_FRACTION: the retired
    # key fails even at a value it once took, and the error names it
    _case(7, {"smc": {"e_thre_fraction": 0.02}}, "e_thre_fraction"),
    _case(8, {"smc": {"e_thre_fraction": 0.25}}, "e_thre_fraction"),
    _case(9, {"model": {"preset": "adv1d", "mesh": 5}}, "model.mesh must be a mapping, not 5"),
    *(case for (section, key), n in COUNT_KEYS.items()
      for case in _key_cases(n, section, key, BAD_COUNTS,
                             f"{section}.{key} must be an integer")),
    _case(43, {"model": {"preset": "adv3d"}}, "model.preset must be one of adv1d, adv2d,"),
    _case(44, {"model": {"preset": "adv1d", "mesh": {"cells": 64.5}}},
          "model.mesh.cells must be an int"),
    _case(45, {"model": {"preset": "adv2d", "mesh": {"nx": 8.0}}},
          "model.mesh.nx must be an integer"),
    _case(46, {"model": {"preset": "adv1d", "mesh": {"cells": True}}},
          "model.mesh.cells must be an int"),
    _case(47, {"model": {"preset": "adv1d", "mesh": {"cells": 3}}},
          "model.mesh.cells must be >= 4"),
    _case(48, {"data": {"noise_pct": -0.1}}, "data.noise_pct must be >= 0"),
    # the ESS target and its increment rule are constants: the retired keys
    # fail whatever their value
    *_key_cases(49, "smc", "ess_fraction", (float("nan"), float("inf"), 0.5, True),
                "unknown config key smc.ess_fraction"),
    *_key_cases(53, "smc", "backtrack_factor", (float("nan"), float("inf"), 0.5, True),
                "unknown config key smc.backtrack_factor"),
    # the retired smc.e_thre_fraction fails whatever its value
    *_key_cases(65, "smc", "e_thre_fraction", BAD_FLOATS,
                "unknown config key smc.e_thre_fraction"),
    *(case for (section, key), n in FLOAT_KEYS.items()
      for case in _key_cases(n, section, key, BAD_FLOATS,
                             f"{section}.{key} must be a finite number")),
    _case(89, {"model": {"preset": "elast2d_layered", "mesh": {"nx": 4}}},
          "model.mesh.nx must be >= 5"),
    _case(90, {"model": {"preset": "elast2d_inclusion", "mesh": {"nx": 2}}},
          "model.mesh.nx must be >= 3"),
    _case(91, {"smc": {"particles": 3}}, "smc.particles must be >= 4"),
    # a truth that is not a list of finite numbers ran at the preset's truth
    # (an empty list), at xi_1 = 1.0 (a bool) or at a string's number
    _case(92, {"data": {"truth": []}}, "data.truth must be a non-empty list"),
    _case(93, {"data": {"truth": 0.2}}, "data.truth must be a non-empty list"),
    _case(94, {"data": {"truth": [True, 0.7]}}, "data.truth xi_1 must be a finite number"),
    _case(95, {"data": {"truth": ["0.2", 0.7]}}, "data.truth xi_1 must be a finite number"),
    _case(96, {"data": {"truth": [0.2, float("nan")]}},
          "data.truth xi_2 must be a finite number")])
def test_bad_smc_values_rejected_at_parse(raw, key):
    # before the check, a NaN total weight returned the prior after zero
    # iterations, an infinite one overflowed, max_iterations 0 failed at
    # iteration 1, and thresholds <= 0 were floored without a word; a
    # float count ran truncated (seed 1.5 as seed 1, cells 64.5 as 64) or
    # failed deep in a run with a TypeError that named no key, as a mesh of
    # 5 did in assemble; an infinite e_thre stopped refinement after one
    # atom, an infinite step_scale left the chain where it started and a
    # NaN noise_pct gave NaN data; an elast
    # mesh too coarse to give every region an element ran with moduli that
    # had no effect on the data
    from gibbsrb.config import RunConfig

    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict(raw)
    RunConfig.from_dict({"gibbs": {"total_weight": 0.0},
                         "smc": {"max_iterations": 1, "e_thre_value": 1e-300},
                         "data": {"noise_pct": 0, "truth": [0.2, 1]},
                         "model": {"preset": "adv1d", "mesh": {"cells": 4}}})
    # numpy integers are counts too, stored as ints so that the digest
    # and the manifest serialize them
    counts: dict = {}
    for section, count in COUNT_KEYS:
        if (section, count) not in RETIRED:
            counts.setdefault(section, {})[count] = np.int64(4)
    counts["model"] = {"preset": "adv1d", "mesh": {"cells": np.int64(4)}}
    cfg = RunConfig.from_dict(counts)
    assert (cfg.smc.seed, cfg.mcmc.samples, cfg.data.n_obs, cfg.mesh) == (4, 4, 4, {"cells": 4})
    assert RunConfig.from_dict(cfg.to_dict()).digest() == cfg.digest()


def test_resolve_total_weight_rejects_an_infinite_reference():
    from gibbsrb.config import RunConfig, resolve_total_weight

    obs = ObservationSet(data=np.zeros((1, 2)), eps_std=1e-160)  # 1 / (2 eps^2) = inf
    with pytest.raises(ValueError, match="total_weight"):
        resolve_total_weight(RunConfig.from_dict({}), obs)


# ----- initialization -----

def test_init_uniform_prior_moments():
    dom = uniform_domain(2)
    m = 4000
    ps = init_particles(dom, m, np.random.default_rng(0))
    se = np.sqrt(1.0 / 12.0 / m)
    assert np.all(np.abs(ps.points.mean(axis=0) - 0.5) < 3 * se)
    assert np.allclose(ps.weights, 1.0 / m)


def test_init_beta_prior_moments():
    dom = ParameterDomain(np.zeros(1), np.ones(1), (PriorSpec("beta", 1, 2),))
    m = 4000
    ps = init_particles(dom, m, np.random.default_rng(1))
    ref = stats.beta(1, 2)
    assert ref.mean() == pytest.approx(1.0 / 3.0)
    assert abs(ps.points[:, 0].mean() - ref.mean()) < 3 * np.sqrt(ref.var() / m)


def test_init_seed_reproducible():
    dom = uniform_domain(3)
    a = init_particles(dom, 50, stream(9, PHASE_INIT))
    b = init_particles(dom, 50, stream(9, PHASE_INIT))
    assert np.array_equal(a.points, b.points)


# ----- adaptive increment -----

def test_adapt_equal_losses_takes_full_residual():
    w = np.full(10, 0.1)
    losses = np.full(10, 3.7)
    dw, new_w, e, flag = adapt_step(w, losses, 5.0, 5.0)
    assert dw == 5.0
    assert e == pytest.approx(10.0)
    assert not flag


def two_particle_ess(w, losses, dw):
    v = np.asarray(w) * np.exp(-dw * np.asarray(losses))
    return v.sum() ** 2 / np.sum(v**2)


def test_adapt_two_particle_closed_form():
    # ESS(dw) = (1+q)^2 / (1+q^2) with q = exp(-dw L), falling in dw; the
    # step lands within one last bracket width below the root ESS = 1.5
    L, threshold, resid = 2.0, 1.5, 8.0
    q_star = optimize.brentq(lambda q: (1 + q) ** 2 / (1 + q**2) - threshold, 1e-12, 1.0)
    dw_star = -np.log(q_star) / L
    w, losses = np.array([0.5, 0.5]), np.array([0.0, L])
    assert two_particle_ess(w, losses, dw_star) == pytest.approx(threshold)
    dw, new_w, e, flag = adapt_step(w, losses, resid, threshold)
    assert dw_star - resid * 2.0**-BISECTIONS <= dw < dw_star
    assert e == pytest.approx(two_particle_ess(w, losses, dw))
    assert e > threshold
    assert np.allclose(new_w, w * np.exp(-dw * losses) / np.sum(w * np.exp(-dw * losses)))
    assert not flag


def test_adapt_non_monotone_ess():
    # the light particle has the lower loss, so the ESS rises from 1.22 at
    # dw = 0 to 2 at dw = ln 9 and then falls; it crosses 1.5 downward at
    # weight ratio 9 exp(-dw) = 2 - sqrt 3.  The bracket's lower end, 0,
    # fails: the step is the last midpoint that passed.
    w, losses, threshold, resid = np.array([0.9, 0.1]), np.array([1.0, 0.0]), 1.5, 10.0
    assert two_particle_ess(w, losses, 0.0) == pytest.approx(1 / 0.82)
    dw_star = np.log(9 / (2 - np.sqrt(3)))
    assert two_particle_ess(w, losses, dw_star) == pytest.approx(threshold)
    dw, _, e, flag = adapt_step(w, losses, resid, threshold)
    assert dw_star - resid * 2.0**-BISECTIONS <= dw < dw_star
    assert dw == pytest.approx(3.51, abs=5e-3)
    assert e > threshold
    assert not flag


def test_adapt_degenerate_flag():
    # starting weights already collapsed: no increment can reach the
    # threshold, so the least tried increment is accepted with the flag raised
    w = np.array([0.999, 0.001])
    losses = np.array([0.0, 1.0])
    dw, new_w, e, flag = adapt_step(w, losses, 1.0, 1.5)
    assert flag
    assert dw == 2.0**-BISECTIONS
    assert e < 1.5


def test_adapt_rejects_nonfinite_loss():
    w = np.full(4, 0.25)
    with pytest.raises(ValueError, match="finite"):
        adapt_step(w, np.array([0.1, np.nan, 0.3, 0.2]), 1.0, 2.0)


# ----- resampling -----

def test_resample_degenerate_weight():
    pts = np.arange(10, dtype=float)[:, None]
    w = np.zeros(10)
    w[4] = 1.0
    ps = ParticleSet(pts, w, generation=2)
    out, idx = resample(ps, np.random.default_rng(0))
    assert np.all(out.points == 4.0)
    assert np.all(idx == 4)
    assert np.allclose(out.weights, 0.1)
    assert out.generation == 3


def test_resample_uniform_chi_square():
    m = 50
    ps = ParticleSet(np.arange(m, dtype=float)[:, None], np.full(m, 1.0 / m))
    counts = np.zeros(m)
    reps = 1000
    rng = np.random.default_rng(1)
    for _ in range(reps):
        _, idx = resample(ps, rng)
        counts += np.bincount(idx, minlength=m)
    expected = reps  # m*reps draws / m cells
    chi2 = np.sum((counts - expected) ** 2 / expected)
    # df = m-1; generous 99.9% band
    assert chi2 < stats.chi2(m - 1).ppf(0.999)


def test_resample_seed_determinism():
    ps = ParticleSet(np.random.default_rng(0).random((20, 2)),
                     np.full(20, 0.05))
    a, ia = resample(ps, stream(5, 2, 1))
    b, ib = resample(ps, stream(5, 2, 1))
    assert np.array_equal(ia, ib)


# ----- mutation -----

def test_mutate_gamma_near_one_is_immobile(monkeypatch):
    monkeypatch.setattr("gibbsrb.smc.PROPOSAL_MIXING", 0.9999)
    dom = uniform_domain(2)
    rng = np.random.default_rng(0)
    ps = ParticleSet(0.2 + 0.6 * rng.random((30, 2)), np.full(30, 1 / 30))
    cfg = SmcConfig(particles=30, mutation_steps=4)
    moments = (np.full(2, 0.5), np.full(2, 0.05))
    out, rate, _ = mutate(ps, zero_loss, dom, 0.0, moments, cfg, 0, 1, zero_loss(ps.points))
    assert rate > 0.95  # near-identity proposals are almost surely accepted
    assert np.max(np.abs(out.points - ps.points)) < 0.02


def test_mutate_zero_weight_uniform_prior_moments():
    # with zero loss weight the chain targets the uniform prior; the
    # pre-resampling moments of a prior cloud coincide with the box moments,
    # so the long-run per-dimension moments match them
    dom = uniform_domain(2)
    m = 400
    ps = init_particles(dom, m, np.random.default_rng(2))
    moments = empirical_moments(ps, dom)
    cfg = SmcConfig(particles=m, mutation_steps=60)
    out, rate, _ = mutate(ps, zero_loss, dom, 0.0, moments, cfg, 3, 1, zero_loss(ps.points))
    se_mean = np.sqrt(1.0 / 12.0 / m)
    for j in range(2):
        assert abs(out.points[:, j].mean() - moments[0][j]) < 3 * se_mean
        var_se = np.sqrt(2.0 / m) * (1.0 / 12.0)  # rough, generous
        assert abs(out.points[:, j].var() - moments[1][j]) < 4 * var_se
    assert 0.1 < rate < 1.0


def test_mutation_detailed_balance_two_point():
    # pi(a) Q(b|a) min(1, R(a->b)) == pi(b) Q(a|b) min(1, R(b->a)), with Q the
    # AR(1) transition density and R's proposal ratio taken from the code
    from gibbsrb.smc import _log_proposal_ratio

    dom = uniform_domain(2)
    mean = np.array([0.4, 0.6])
    var = np.array([0.02, 0.05])
    w = 2.5
    loss = lambda x: float(np.sum(x**2))

    def log_q(a, b, gamma):  # unnormalized log density of the move b -> a
        dev = a - mean - gamma * (b - mean)
        return -0.5 / (1.0 - gamma**2) * np.sum(dev**2 / var)

    def log_pi(x):
        return -w * loss(x) + dom.log_pdf(x)

    rng = np.random.default_rng(4)
    for gamma in (0.0, 0.5, 0.9999):
        for _ in range(25):
            a, b = rng.random((2, 2))
            lr_ab = log_pi(b) - log_pi(a) + _log_proposal_ratio(a, b, mean, var)
            flow_ab = log_pi(a) + log_q(b, a, gamma) + min(0.0, lr_ab)
            lr_ba = log_pi(a) - log_pi(b) + _log_proposal_ratio(b, a, mean, var)
            flow_ba = log_pi(b) + log_q(a, b, gamma) + min(0.0, lr_ba)
            # the flows grow as 1 / (1 - gamma**2); rel scales the 1e-12 with them
            assert flow_ab == pytest.approx(flow_ba, rel=1e-14, abs=1e-12), gamma


def test_mutate_rejects_outside_support(monkeypatch):
    monkeypatch.setattr("gibbsrb.smc.PROPOSAL_MIXING", 0.0)
    dom = uniform_domain(1)
    pts = np.full((20, 1), 0.01)  # hugging the boundary
    ps = ParticleSet(pts, np.full(20, 0.05))
    cfg = SmcConfig(particles=20, mutation_steps=30)
    moments = (np.array([0.0]), np.array([0.5]))  # proposals often negative
    out, _, _ = mutate(ps, zero_loss, dom, 0.0, moments, cfg, 5, 1, zero_loss(pts))
    assert np.all(out.points >= 0.0)
    assert np.all(out.points <= 1.0)


def test_mutate_surrogate_failure_is_a_rejection():
    dom = uniform_domain(2)
    ps = init_particles(dom, 10, np.random.default_rng(8))
    cfg = SmcConfig(particles=10, mutation_steps=3)

    def degenerate(points):
        return np.full(len(points), np.nan)  # singular reduced systems

    out, rate, losses = mutate(ps, degenerate, dom, 1.0, empirical_moments(ps, dom), cfg,
                               0, 1, current_losses=np.zeros(10))
    assert rate == 0.0
    assert np.array_equal(out.points, ps.points)
    assert np.array_equal(losses, np.zeros(10))


def test_mutate_propagates_other_loss_errors():
    dom = uniform_domain(2)
    ps = init_particles(dom, 10, np.random.default_rng(8))
    cfg = SmcConfig(particles=10, mutation_steps=3)

    def broken(points):
        raise ValueError("bad loss")

    with pytest.raises(ValueError, match="bad loss"):
        mutate(ps, broken, dom, 1.0, empirical_moments(ps, dom), cfg, 0, 1,
               current_losses=np.zeros(10))


def test_mutate_never_evaluates_outside_support(monkeypatch):
    monkeypatch.setattr("gibbsrb.smc.PROPOSAL_MIXING", 0.0)
    dom = uniform_domain(1)
    ps = ParticleSet(np.full((20, 1), 0.01), np.full(20, 0.05))
    cfg = SmcConfig(particles=20, mutation_steps=30)
    moments = (np.array([0.0]), np.array([0.5]))  # proposals often negative
    seen = []

    def loss(points):
        seen.append(points.copy())
        return np.sum(points**2, axis=1)

    mutate(ps, loss, dom, 1.0, moments, cfg, 5, 1, current_losses=np.zeros(20))
    seen = np.concatenate(seen)
    assert len(seen) > 0
    assert np.all(dom.contains(seen))
    assert len(seen) < 20 * 30  # some proposals did leave the box


def _mutate_per_chain(particles, loss, domain, w_target, moments, config, seed,
                      iteration, current_losses):
    """One chain at a time with scalar losses: the reference for mutate.

    Each step's noise block and uniforms come from the iteration's stream
    in mutate's order, and chain i reads row i of each."""
    from gibbsrb import smc
    from gibbsrb.seeding import PHASE_MUTATE

    mean, var = moments
    gamma = smc.PROPOSAL_MIXING
    m = particles.m

    def log_q(a, b):
        dev = a - mean - gamma * (b - mean)
        return float(-0.5 / (1.0 - gamma**2) * np.sum(dev**2 / var))

    rng = stream(seed, PHASE_MUTATE, iteration)
    draws = [(rng.standard_normal((m, domain.dim)), rng.random(m))
             for _ in range(config.mutation_steps)]
    points = np.empty_like(particles.points)
    losses = np.empty(m)
    accepts = 0
    for i in range(m):
        x, lx = particles.points[i].copy(), current_losses[i]
        lp_x = domain.log_pdf(x)
        for z, u in draws:
            prop = mean + gamma * (x - mean) + np.sqrt(1.0 - gamma**2) * (
                np.sqrt(var) * z[i])
            lp_p = domain.log_pdf(prop)
            if not np.isfinite(lp_p):
                continue
            try:
                lp_loss = loss(prop)
            except BasisDegeneracyError:
                continue
            log_alpha = (-w_target * (lp_loss - lx) + lp_p - lp_x
                         + log_q(x, prop) - log_q(prop, x))
            if np.log(u[i]) < log_alpha:
                x, lx, lp_x = prop, lp_loss, lp_p
                accepts += 1
        points[i], losses[i] = x, lx
    return points, accepts / (m * config.mutation_steps), losses


def test_mutate_lockstep_equals_per_chain_reference(adv1d_model, adv1d_obs, monkeypatch):
    monkeypatch.setattr("gibbsrb.smc.PROPOSAL_MIXING", 0.2)
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(6)
    surr.refine_over_particles(rng.random((30, 2)), adv1d_obs, e_thre=1e-2)
    dom = adv1d_model.domain
    ps = init_particles(dom, 40, np.random.default_rng(7))
    cfg = SmcConfig(particles=40, mutation_steps=5)
    moments = empirical_moments(ps, dom)
    current = surr.loss_fn(adv1d_obs)(ps.points)
    ref_points, ref_rate, ref_losses = _mutate_per_chain(
        ps, lambda xi: surr.surrogate_loss(xi, adv1d_obs)[0], dom, 4.0, moments,
        cfg, 11, 1, current)
    out, rate, losses = mutate(ps, surr.loss_fn(adv1d_obs), dom, 4.0, moments, cfg,
                               11, 1, current_losses=current)
    assert np.array_equal(out.points, ref_points)
    assert np.array_equal(losses, ref_losses)
    assert rate == ref_rate
    assert 0.0 < rate < 1.0


def test_mutate_thread_count_invariance(adv1d_model, adv1d_obs):
    # the draws come from the iteration's stream in a fixed order and the
    # surrogate reads its atoms in a fixed order, so a rerun is identical
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(6)
    surr.refine_over_particles(rng.random((30, 2)), adv1d_obs, e_thre=1e-2)
    dom = adv1d_model.domain
    ps = init_particles(dom, 40, np.random.default_rng(7))
    cfg = SmcConfig(particles=40, mutation_steps=5)
    moments = empirical_moments(ps, dom)
    fn = surr.loss_fn(adv1d_obs)
    a, ra, _ = mutate(ps, fn, dom, 4.0, moments, cfg, 11, 1, fn(ps.points))
    b, rb, _ = mutate(ps, fn, dom, 4.0, moments, cfg, 11, 1, fn(ps.points))
    assert np.array_equal(a.points, b.points)
    assert ra == rb


# ----- full runs -----

def test_run_smc_zero_weight(adv1d_model, adv1d_obs):
    cfg = SmcConfig(particles=30, total_weight=0.0, seed=1)
    res = run_smc(adv1d_model, adv1d_obs, cfg)
    assert res.iterations == 0
    assert res.surrogate.n_atoms == 0
    ref = init_particles(adv1d_model.domain, 30, stream(1, PHASE_INIT))
    assert np.array_equal(res.particles.points, ref.points)


def test_run_smc_schedule_and_counters(adv1d_model, adv1d_obs):
    cfg = SmcConfig(particles=50, total_weight=16.70, e_thre_mode="fixed",
                    e_thre_value=1e-3, seed=2)
    res = run_smc(adv1d_model, adv1d_obs, cfg)
    ws = [0.0] + [r.w_after for r in res.history]
    assert all(b > a for a, b in zip(ws, ws[1:]))
    assert ws[-1] == 16.70  # exact residual taken in the last step
    assert sum(r.delta_w for r in res.history) == pytest.approx(16.70, abs=1e-12)
    # ESS above threshold (or degenerate-flagged) each iteration
    for r in res.history:
        assert r.ess > 0.5 * 50 or r.degenerate
    # full solves only through atom insertion
    assert res.solve_counts["full"] == res.surrogate.n_atoms


def test_run_smc_counts_solves_from_its_start(adv1d_model, adv1d_obs):
    # a surrogate passed in keeps its counts across runs; each run's history
    # counts only that run's full and reduced solves
    surr = Surrogate(adv1d_model)
    cfg = SmcConfig(particles=20, total_weight=4.0, seed=3, mutation_steps=2)
    first = run_smc(adv1d_model, adv1d_obs, cfg, surrogate=surr).history[-1]
    assert (first.full_solves, first.reduced_solves) == (surr.n_atoms, surr.reduced_solves)
    atoms, solves = surr.n_atoms, surr.reduced_solves
    second = run_smc(adv1d_model, adv1d_obs, SmcConfig(**{**cfg.__dict__, "seed": 4}),
                     surrogate=surr).history[-1]
    assert (second.full_solves, second.reduced_solves) == (surr.n_atoms - atoms,
                                                           surr.reduced_solves - solves)
    assert second.reduced_solves > 0


def test_run_smc_seed_determinism(adv1d_model, adv1d_obs):
    cfg = SmcConfig(particles=30, total_weight=5.0, seed=3)
    a = run_smc(adv1d_model, adv1d_obs, cfg)
    b = run_smc(adv1d_model, adv1d_obs, cfg)
    assert np.array_equal(a.particles.points, b.particles.points)


def test_run_smc_thread_invariance(adv1d_model, adv1d_obs):
    # a rerun on a fresh model reproduces the particles exactly
    cfg = SmcConfig(particles=30, total_weight=5.0, seed=4)
    a = run_smc(adv1d_model, adv1d_obs, cfg)
    b = run_smc(assemble("adv1d", {"cells": 128}), adv1d_obs, cfg)
    assert np.array_equal(a.particles.points, b.particles.points)


def test_lu_factorization_count_repeats(adv1d_obs, monkeypatch):
    # a tiny LU cache evicts entries; with cells built in a fixed order the
    # refactorization count repeats across runs at a fixed seed
    import gibbsrb.localrb as localrb

    monkeypatch.setattr(localrb, "_LU_CACHE_SIZE", 2)
    cfg = SmcConfig(particles=30, total_weight=5.0, seed=4)
    counts = []
    for _ in range(2):
        model = assemble("adv1d", {"cells": 128})
        run_smc(model, adv1d_obs, cfg)
        counts.append(model.counters.snapshot())
    assert counts[0] == counts[1]
    assert counts[0]["stability"] > 0


def test_loss_std_fraction_scores_each_cloud_once(adv1d_model, adv1d_obs, monkeypatch):
    # the threshold comes from refinement's first pass over the cloud, so the
    # surrogate of an iteration's start scores that iteration's cloud once
    seen = []
    evaluate = Surrogate._evaluate

    def spy(self, points, observations, hosts=None):
        seen.append((np.array(points), self.n_atoms))
        return evaluate(self, points, observations, hosts)

    monkeypatch.setattr(Surrogate, "_evaluate", spy)
    cfg = SmcConfig(particles=24, total_weight=6.0, seed=13, mutation_steps=3,
                    e_thre_mode="loss_std_fraction")
    res = run_smc(adv1d_model, adv1d_obs, cfg)
    assert res.iterations >= 2
    atoms = 1  # the first refinement seeds one atom before it scores
    for rec, start in zip(res.history, res.snapshots):
        scored = [n for pts, n in seen if np.array_equal(pts, start.points)]
        assert scored.count(atoms) == 1, rec.t
        atoms += rec.atoms_added


def test_run_smc_iteration_cap(adv1d_model, adv1d_obs):
    cfg = SmcConfig(particles=16, total_weight=1e9, max_iterations=2, seed=5,
                    e_thre_mode="fixed", e_thre_value=1e-2)
    with pytest.raises(SmcIterationError) as info:
        run_smc(adv1d_model, adv1d_obs, cfg)
    # the finished iterations leave with the error
    assert [rec.t for rec in info.value.history] == [1, 2]


def test_mutation_never_touches_full_counter(adv1d_model, adv1d_obs):
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(12)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    dom = adv1d_model.domain
    ps = init_particles(dom, 20, np.random.default_rng(13))
    before = adv1d_model.counters.snapshot()["full"]
    cfg = SmcConfig(particles=20, mutation_steps=10)
    fn = surr.loss_fn(adv1d_obs)
    mutate(ps, fn, dom, 3.0, empirical_moments(ps, dom), cfg, 14, 1, fn(ps.points))
    assert adv1d_model.counters.snapshot()["full"] == before


# ----- consistency replay -----

def test_replay_reproducible_and_uniform_at_zero(adv1d_model, adv1d_obs):
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(15)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    init = init_particles(adv1d_model.domain, 25, stream(7, PHASE_INIT))
    [z] = replay_consistency(surr, adv1d_obs, init, np.array([0.0]))
    assert z is init
    a, z, b = replay_consistency(surr, adv1d_obs, init, np.array([3.3, 0.0, 3.3]))
    assert z is init
    assert np.array_equal(a.weights, b.weights)
    [c] = replay_consistency(surr, adv1d_obs, init, np.array([3.3]))
    assert np.array_equal(a.weights, c.weights)
    assert np.array_equal(a.points, init.points)
    assert np.array_equal(init.weights, np.full(25, 1.0 / 25))  # left as it was


def test_replay_equals_incremental_by_coherence(adv1d_model, adv1d_obs):
    from gibbsrb.particles import reweight

    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(16)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    init = init_particles(adv1d_model.domain, 25, stream(8, PHASE_INIT))
    single, first = replay_consistency(surr, adv1d_obs, init, np.array([5.0, 2.0]))
    losses = np.array([surr.surrogate_loss(p, adv1d_obs)[0] for p in init.points])
    stepped = reweight(reweight(init, losses, 2.0), losses, 3.0)
    assert np.max(np.abs(single.weights - stepped.weights)) < 1e-12
    assert np.array_equal(first.weights, reweight(init, losses, 2.0).weights)


def test_replay_costs_no_full_solves(adv1d_model, adv1d_obs):
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(17)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    init = init_particles(adv1d_model.domain, 30, stream(9, PHASE_INIT))
    before = adv1d_model.counters.snapshot()["full"]
    replay_consistency(surr, adv1d_obs, init, np.array([4.0, 1.0]))
    assert adv1d_model.counters.snapshot()["full"] == before


def test_replay_raises_on_singular_reduced_system():
    class Singular:
        def loss_fn(self, observations):
            return lambda points: np.full(len(points), np.nan)
    cloud = ParticleSet(np.zeros((3, 2)), np.full(3, 1.0 / 3))
    with pytest.raises(BasisDegeneracyError, match="3 point"):
        replay_consistency(Singular(), None, cloud, np.array([0.0, 1.0]))
    # a cloud that no weight moves is not scored
    assert replay_consistency(Singular(), None, cloud, np.zeros(2)) == [cloud, cloud]


# ----- Monte Carlo rate of the full pipeline (exact losses) -----

@pytest.mark.slow
def test_exact_mode_mc_rate_improves_with_particles(adv1d_model, adv1d_obs):
    from gibbsrb.diagnostics import h_proxy
    from gibbsrb.oracle import grid_posterior

    # the reference must be finer than the larger cloud's Monte Carlo error:
    # a 50-node grid's threshold expectations are off by 0.08 from a
    # 400-node grid's, as much as h_big, a 200-node grid's by 0.017
    post = grid_posterior(adv1d_model, adv1d_model.domain, 4.0, (200, 200), adv1d_obs)
    runs_small, runs_big = [], []
    for seed in range(10):
        cfg_s = SmcConfig(particles=40, total_weight=4.0, seed=100 + seed,
                          mutation_steps=3)
        cfg_b = SmcConfig(particles=160, total_weight=4.0, seed=200 + seed,
                          mutation_steps=3)
        runs_small.append(run_smc(adv1d_model, adv1d_obs, cfg_s,
                                  surrogate=ExactLoss(adv1d_model)).particles)
        runs_big.append(run_smc(adv1d_model, adv1d_obs, cfg_b,
                                surrogate=ExactLoss(adv1d_model)).particles)
    h_small = h_proxy(runs_small, post, adv1d_model.domain)
    h_big = h_proxy(runs_big, post, adv1d_model.domain)
    assert h_small / h_big >= 1.5
