import types

import numpy as np
import pytest
from scipy import stats

from gibbsrb import ObservationSet, gen_data
from gibbsrb.domain import ParameterDomain, PriorSpec
from gibbsrb.oracle import grid_posterior

# a model whose loss is zero everywhere: the posterior is the prior
ZERO_LOSS = types.SimpleNamespace(loss=lambda xi, observations: 0.0)


def test_zero_weight_recovers_prior(adv1d_model):
    obs = gen_data(adv1d_model, noise_pct=0.1, seed=0)
    post = grid_posterior(ZERO_LOSS, adv1d_model.domain, 0.0, (41, 41), obs)
    assert np.max(np.abs(post.density - 1.0)) < 1e-12
    x, cdf = post.marginal_cdf(0)
    assert np.max(np.abs(cdf - x)) < 1e-10


def test_zero_weight_beta_prior(adv2d_small):
    obs = gen_data(adv2d_small, noise_pct=0.2, seed=0)
    dom = adv2d_small.domain
    post = grid_posterior(ZERO_LOSS, dom, 0.0, (21, 21, 21), obs)
    x, cdf = post.marginal_cdf(0)
    exact = stats.beta(1, 2).cdf(x)
    assert np.max(np.abs(cdf - exact)) < 5e-3  # quadrature tolerance


def test_grid_cap():
    dom = ParameterDomain(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="grid too large"):
        grid_posterior(ZERO_LOSS, dom, 1.0, (101, 101, 101), None)


def test_dimension_cap():
    dom = ParameterDomain(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError, match="M <= 3"):
        grid_posterior(ZERO_LOSS, dom, 1.0, (5, 5, 5, 5), None)


@pytest.mark.parametrize("shape,axis", [(1, "xi_1"), ((5, 1), "xi_2"), ((0, 5), "xi_1")])
def test_axis_of_fewer_than_two_nodes_rejected(shape, axis):
    dom = ParameterDomain(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match=f"grid axis {axis} needs at least 2 nodes"):
        grid_posterior(ZERO_LOSS, dom, 1.0, shape, None)


def test_moments_of_known_gaussian_target():
    # synthetic loss with a Gaussian posterior: mean/std recovered by the grid
    dom = ParameterDomain(np.zeros(2), np.ones(2))
    mu = np.array([0.45, 0.62])
    sig = 0.04
    model = types.SimpleNamespace(loss=lambda xi, observations: float(np.sum((xi - mu) ** 2)))
    post = grid_posterior(model, dom, 1.0 / (2 * sig**2), (80, 80), None)
    assert np.max(np.abs(post.mean() - mu)) < 2e-3
    assert np.max(np.abs(post.marginal_std() - sig)) < 2e-3


def test_bayes_special_case(adv1d_model):
    # Gibbs with squared loss at W = 1/(2 sigma^2) equals the Gaussian-
    # likelihood posterior computed by a separate code path
    obs = gen_data(adv1d_model, noise_pct=0.1, n=2, seed=1)
    sigma = obs.eps_std
    w = 1.0 / (2.0 * sigma**2)
    post = grid_posterior(adv1d_model, adv1d_model.domain, w, (25, 25), obs)

    axes = post.axes
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    dens_ref = np.empty(pts.shape[0])
    for i, xi in enumerate(pts):
        pred = adv1d_model.observe(adv1d_model.solve_full(xi))
        lik = 1.0
        for d in obs.data:
            lik *= np.prod(stats.norm.pdf(d, loc=pred, scale=sigma))
        dens_ref[i] = lik
    dens_ref = dens_ref.reshape(post.density.shape)
    hx = axes[0][1] - axes[0][0]
    hy = axes[1][1] - axes[1][0]
    wx = np.full(axes[0].size, hx); wx[[0, -1]] = hx / 2
    wy = np.full(axes[1].size, hy); wy[[0, -1]] = hy / 2
    dens_ref = dens_ref / np.einsum("ij,i,j->", dens_ref, wx, wy)

    scale = max(1.0, np.max(post.density))
    assert np.max(np.abs(post.density - dens_ref)) <= 1e-12 * scale


def test_unbounded_prior_density_at_a_node_rejected(adv1d_model):
    # Beta(0.8, 2.2) is +inf at its lower edge, which the grid holds as a
    # node; the density used to come back all NaN
    dom = ParameterDomain(adv1d_model.domain.lower, adv1d_model.domain.upper,
                          (PriorSpec("beta", 0.8, 2.2), PriorSpec()))
    before = adv1d_model.counters.snapshot()
    with pytest.raises(ValueError, match=r"\+inf at node xi = \[0\.0, 0\.0\]"):
        grid_posterior(adv1d_model, dom, 1.0, 11, None)
    assert adv1d_model.counters.snapshot() == before  # raised before any solve
