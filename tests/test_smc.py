import numpy as np
import pytest
from scipy import optimize, stats

from gibbsrb import Surrogate, assemble, gen_data
from gibbsrb.domain import ParameterDomain, PriorSpec
from gibbsrb.localrb import BasisDegeneracyError
from gibbsrb.particles import ParticleSet, empirical_moments, ess
from gibbsrb.seeding import PHASE_INIT, stream
from gibbsrb.smc import (SmcConfig, SmcIterationError, adapt_step, init_particles,
                         mutate, replay_consistency, resample, run_smc)

from exact_loss import ExactLoss


def uniform_domain(dim=2):
    return ParameterDomain(np.zeros(dim), np.ones(dim))


def zero_loss(points):
    return np.zeros(len(points))


# ----- configuration validation -----

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SmcConfig(ess_fraction=0.0)
    with pytest.raises(ValueError):
        SmcConfig(backtrack_factor=1.0)
    with pytest.raises(ValueError):
        SmcConfig(proposal_mixing=1.0)
    with pytest.raises(ValueError):
        SmcConfig(particles=2, ess_fraction=0.5)  # threshold below 2


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
    mean, var = dom.marginal_mean_var(0)
    assert mean == pytest.approx(1.0 / 3.0)
    assert abs(ps.points[:, 0].mean() - mean) < 3 * np.sqrt(var / m)


def test_init_seed_reproducible():
    dom = uniform_domain(3)
    a = init_particles(dom, 50, stream(9, PHASE_INIT))
    b = init_particles(dom, 50, stream(9, PHASE_INIT))
    assert np.array_equal(a.points, b.points)


# ----- adaptive increment -----

def test_adapt_equal_losses_takes_full_residual():
    w = np.full(10, 0.1)
    losses = np.full(10, 3.7)
    dw, new_w, e, flag = adapt_step(w, losses, 5.0, 5.0, 0.5, 5.0)
    assert dw == 5.0
    assert e == pytest.approx(10.0)
    assert not flag


def test_adapt_two_particle_closed_form():
    # ESS(dw) = (1+q)^2 / (1+q^2) with q = exp(-dw L); threshold 1.5
    L = 2.0
    threshold = 1.5
    resid = 8.0
    theta = 0.5

    def ess_of(dw):
        q = np.exp(-dw * L)
        return (1 + q) ** 2 / (1 + q**2)

    # largest theta-power of resid with ESS above the threshold
    expected = resid
    while ess_of(expected) <= threshold:
        expected *= theta
    # cross-check the acceptance boundary with a root solve
    q_star = optimize.brentq(lambda q: (1 + q) ** 2 / (1 + q**2) - threshold, 1e-12, 1.0)
    assert ess_of(-np.log(q_star) / L) == pytest.approx(threshold)

    w = np.array([0.5, 0.5])
    losses = np.array([0.0, L])
    dw, _, e, flag = adapt_step(w, losses, resid, threshold, theta, resid)
    assert dw == pytest.approx(expected)
    assert e > threshold
    assert not flag
    assert ess_of(dw * 2) <= threshold  # one backtrack earlier would fail


def test_adapt_theta_powers():
    # residual 8, first acceptance at the third trial -> dw = 2
    L = 0.5
    threshold = 1.5
    q_star = optimize.brentq(lambda q: (1 + q) ** 2 / (1 + q**2) - threshold, 1e-12, 1.0)
    dw_star = -np.log(q_star) / L  # accept iff dw < dw_star
    assert 2.0 < dw_star < 4.0  # 8 -> 4 -> 2 accepted on the third trial
    dw, _, _, _ = adapt_step(np.array([0.5, 0.5]), np.array([0.0, L]),
                             8.0, threshold, 0.5, 8.0)
    assert dw == pytest.approx(2.0)


def test_adapt_degenerate_flag():
    # starting weights already collapsed: no increment can reach the
    # threshold, so the floor increment is accepted with the flag raised
    w = np.array([0.999, 0.001])
    losses = np.array([0.0, 1.0])
    dw, new_w, e, flag = adapt_step(w, losses, 1.0, 1.5, 0.5, 1.0)
    assert flag
    assert dw < 1e-9
    assert e < 1.5


def test_adapt_rejects_nonfinite_loss():
    w = np.full(4, 0.25)
    with pytest.raises(ValueError, match="finite"):
        adapt_step(w, np.array([0.1, np.nan, 0.3, 0.2]), 1.0, 2.0, 0.5, 1.0)


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

def test_mutate_gamma_near_one_is_immobile():
    dom = uniform_domain(2)
    rng = np.random.default_rng(0)
    ps = ParticleSet(0.2 + 0.6 * rng.random((30, 2)), np.full(30, 1 / 30))
    cfg = SmcConfig(particles=30, proposal_mixing=0.9999, mutation_steps=4)
    moments = (np.full(2, 0.5), np.full(2, 0.05))
    out, rate, _ = mutate(ps, zero_loss, dom, 0.0, moments, cfg, 0, 1)
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
    cfg = SmcConfig(particles=m, proposal_mixing=0.5, mutation_steps=60)
    out, rate, _ = mutate(ps, zero_loss, dom, 0.0, moments, cfg, 3, 1)
    se_mean = np.sqrt(1.0 / 12.0 / m)
    for j in range(2):
        assert abs(out.points[:, j].mean() - moments[0][j]) < 3 * se_mean
        var_se = np.sqrt(2.0 / m) * (1.0 / 12.0)  # rough, generous
        assert abs(out.points[:, j].var() - moments[1][j]) < 4 * var_se
    assert 0.1 < rate < 1.0


def test_mutation_detailed_balance_two_point():
    # pi(a) Q(b|a) min(1, R(a->b)) == pi(b) Q(a|b) min(1, R(b->a))
    from gibbsrb.smc import _log_q

    dom = uniform_domain(2)
    mean = np.array([0.4, 0.6])
    var = np.array([0.02, 0.05])
    gamma = 0.5
    w = 2.5
    loss = lambda x: float(np.sum(x**2))
    rng = np.random.default_rng(4)
    for _ in range(25):
        a, b = rng.random((2, 2))
        def log_pi(x):
            return -w * loss(x) + dom.log_pdf(x)
        lr_ab = log_pi(b) - log_pi(a) + _log_q(a, b, mean, var, gamma) \
            - _log_q(b, a, mean, var, gamma)
        flow_ab = log_pi(a) + _log_q(b, a, mean, var, gamma) + min(0.0, lr_ab)
        lr_ba = log_pi(a) - log_pi(b) + _log_q(b, a, mean, var, gamma) \
            - _log_q(a, b, mean, var, gamma)
        flow_ba = log_pi(b) + _log_q(a, b, mean, var, gamma) + min(0.0, lr_ba)
        assert flow_ab == pytest.approx(flow_ba, abs=1e-12)


def test_mutate_rejects_outside_support():
    dom = uniform_domain(1)
    pts = np.full((20, 1), 0.01)  # hugging the boundary
    ps = ParticleSet(pts, np.full(20, 0.05))
    cfg = SmcConfig(particles=20, proposal_mixing=0.0, mutation_steps=30)
    moments = (np.array([0.0]), np.array([0.5]))  # proposals often negative
    out, _, _ = mutate(ps, zero_loss, dom, 0.0, moments, cfg, 5, 1)
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


def test_mutate_never_evaluates_outside_support():
    dom = uniform_domain(1)
    ps = ParticleSet(np.full((20, 1), 0.01), np.full(20, 0.05))
    cfg = SmcConfig(particles=20, proposal_mixing=0.0, mutation_steps=30)
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
    """One chain at a time with scalar losses: the reference for mutate."""
    from gibbsrb.seeding import PHASE_MUTATE

    mean, var = moments
    gamma = config.proposal_mixing

    def log_q(a, b):
        dev = a - mean - gamma * (b - mean)
        return float(-0.5 / (1.0 - gamma**2) * np.sum(dev**2 / var))

    points = np.empty_like(particles.points)
    losses = np.empty(particles.m)
    accepts = 0
    for i in range(particles.m):
        rng = stream(seed, PHASE_MUTATE, iteration, i)
        x, lx = particles.points[i].copy(), current_losses[i]
        lp_x = domain.log_pdf(x)
        for _ in range(config.mutation_steps):
            prop = mean + gamma * (x - mean) + np.sqrt(1.0 - gamma**2) * (
                np.sqrt(var) * rng.standard_normal(domain.dim))
            lp_p = domain.log_pdf(prop)
            u = rng.random()
            if not np.isfinite(lp_p):
                continue
            try:
                lp_loss = loss(prop)
            except BasisDegeneracyError:
                continue
            log_alpha = (-w_target * (lp_loss - lx) + lp_p - lp_x
                         + log_q(x, prop) - log_q(prop, x))
            if np.log(u) < log_alpha:
                x, lx, lp_x = prop, lp_loss, lp_p
                accepts += 1
        points[i], losses[i] = x, lx
    return points, accepts / (particles.m * config.mutation_steps), losses


def test_mutate_lockstep_equals_per_chain_reference(adv1d_model, adv1d_obs):
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(6)
    surr.refine_over_particles(rng.random((30, 2)), adv1d_obs, e_thre=1e-2)
    dom = adv1d_model.domain
    ps = init_particles(dom, 40, np.random.default_rng(7))
    cfg = SmcConfig(particles=40, mutation_steps=5, proposal_mixing=0.2)
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
    # each chain draws from its own stream, so a rerun is identical
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(6)
    surr.refine_over_particles(rng.random((30, 2)), adv1d_obs, e_thre=1e-2)
    dom = adv1d_model.domain
    ps = init_particles(dom, 40, np.random.default_rng(7))
    cfg = SmcConfig(particles=40, mutation_steps=5)
    moments = empirical_moments(ps, dom)
    fn = surr.loss_fn(adv1d_obs)
    a, ra, _ = mutate(ps, fn, dom, 4.0, moments, cfg, 11, 1)
    b, rb, _ = mutate(ps, fn, dom, 4.0, moments, cfg, 11, 1)
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

    def spy(self, points, observations):
        seen.append((np.array(points), self.n_atoms))
        return evaluate(self, points, observations)

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
    with pytest.raises(SmcIterationError):
        run_smc(adv1d_model, adv1d_obs, cfg)


def test_mutation_never_touches_full_counter(adv1d_model, adv1d_obs):
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(12)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    dom = adv1d_model.domain
    ps = init_particles(dom, 20, np.random.default_rng(13))
    before = adv1d_model.counters.snapshot()["full"]
    cfg = SmcConfig(particles=20, mutation_steps=10)
    mutate(ps, surr.loss_fn(adv1d_obs), dom, 3.0,
           empirical_moments(ps, dom), cfg, 14, 1)
    assert adv1d_model.counters.snapshot()["full"] == before


# ----- consistency replay -----

def test_replay_reproducible_and_uniform_at_zero(adv1d_model, adv1d_obs):
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(15)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    init = init_particles(adv1d_model.domain, 25, stream(7, PHASE_INIT))
    z = replay_consistency(surr, adv1d_obs, init, 0.0)
    assert np.allclose(z.weights, 1.0 / 25)
    a = replay_consistency(surr, adv1d_obs, init, 3.3)
    b = replay_consistency(surr, adv1d_obs, init, 3.3)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.points, init.points)
    assert np.array_equal(init.weights, np.full(25, 1.0 / 25))  # left as it was


def test_replay_equals_incremental_by_coherence(adv1d_model, adv1d_obs):
    from gibbsrb.particles import reweight

    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(16)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    init = init_particles(adv1d_model.domain, 25, stream(8, PHASE_INIT))
    single = replay_consistency(surr, adv1d_obs, init, 5.0)
    losses = np.array([surr.surrogate_loss(p, adv1d_obs)[0] for p in init.points])
    stepped = reweight(reweight(init, losses, 2.0), losses, 3.0)
    assert np.max(np.abs(single.weights - stepped.weights)) < 1e-12


def test_replay_costs_no_full_solves(adv1d_model, adv1d_obs):
    surr = Surrogate(adv1d_model)
    rng = np.random.default_rng(17)
    surr.refine_over_particles(rng.random((20, 2)), adv1d_obs, e_thre=1e-2)
    init = init_particles(adv1d_model.domain, 30, stream(9, PHASE_INIT))
    before = adv1d_model.counters.snapshot()["full"]
    replay_consistency(surr, adv1d_obs, init, 4.0)
    assert adv1d_model.counters.snapshot()["full"] == before


# ----- Monte Carlo rate of the full pipeline (exact losses) -----

@pytest.mark.slow
def test_exact_mode_mc_rate_improves_with_particles(adv1d_model, adv1d_obs):
    from gibbsrb.diagnostics import h_proxy
    from gibbsrb.oracle import grid_posterior

    post = grid_posterior(adv1d_model, adv1d_model.domain, 4.0, (50, 50), adv1d_obs)
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
