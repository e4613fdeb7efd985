import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from gibbsrb.domain import ParameterDomain, PriorSpec

from conftest import fresh_python


def test_bounds_validation():
    with pytest.raises(ValueError, match="lower"):
        ParameterDomain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec("gamma")
    with pytest.raises(ValueError):
        PriorSpec("beta", p=0.0, q=1.0)


@pytest.mark.parametrize("spec", [PriorSpec(), PriorSpec("beta", 1, 3),
                                  PriorSpec("beta", 3, 1), PriorSpec("beta", 2.5, 2.5)])
def test_prior_integrates_to_one(spec):
    dom = ParameterDomain(np.array([0.1]), np.array([10.0]), (spec,))
    val, _ = integrate.quad(lambda x: np.exp(dom.log_pdf(np.array([[x]])))[0], 0.1, 10.0,
                            limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_prior_zero_outside_box():
    dom = ParameterDomain(np.zeros(2), np.ones(2),
                          (PriorSpec("beta", 1, 2), PriorSpec()))
    assert np.exp(dom.log_pdf(np.array([1.5, 0.5]))) == 0.0
    assert np.exp(dom.log_pdf(np.array([0.5, -0.1]))) == 0.0
    assert np.isneginf(dom.log_pdf(np.array([2.0, 2.0])))


def test_one_point_box_check_matches_the_batched_one():
    # the one-point path of a uniform log_pdf and of the model's box check
    d = ParameterDomain(lower=np.array([-1.0, 0.0, 2.0]), upper=np.array([1.0, 0.5, 3.0]))
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.5, 3.5, size=(400, 3))
    pts[::7, 1] = 0.5  # on the boundary
    pts[::11, 2] = np.nan
    pts[::13] = d.lower
    batched = d.log_pdf(pts)
    for x, lp in zip(pts, batched):
        assert d.contains_point(x) == bool(d.contains(x)[0])
        assert np.float64(d.log_pdf(x)).tobytes() == lp.tobytes()
        # a Python float, inside the box and out: run_rwmh's MH ratio is
        # float arithmetic, not numpy scalar arithmetic
        assert type(d.log_pdf(x)) is float


@pytest.mark.parametrize("priors", [(), (PriorSpec("beta", 1, 2), PriorSpec())])
def test_log_pdf_takes_lists_as_arrays(priors):
    # a beta prior used to read .ndim off the raw argument, so a list raised
    dom = ParameterDomain(np.zeros(2), np.ones(2), priors)
    one = [0.3, 0.6]
    many = [[0.3, 0.6], [0.9, 0.05], [1.5, 0.5], [0.0, 1.0]]
    for points in (one, many):
        from_list, from_array = dom.log_pdf(points), dom.log_pdf(np.array(points))
        assert np.shape(from_list) == np.shape(from_array)
        assert np.asarray(from_list).tobytes() == np.asarray(from_array).tobytes()


def test_scaling_and_widths():
    dom = ParameterDomain(np.array([0.1, -2.0]), np.array([10.0, 2.0]))
    assert np.allclose(dom.widths, [9.9, 4.0])
    s = dom.scale(np.array([[0.1, -2.0], [10.0, 2.0]]))
    assert np.allclose(s, [[0.0, 0.0], [1.0, 1.0]])


def test_sampling_respects_bounds_and_moments():
    spec = PriorSpec("beta", 1, 3)
    dom = ParameterDomain(np.array([0.1]), np.array([10.0]), (spec,))
    pts = dom.sample(20000, np.random.default_rng(0))
    assert pts.min() >= 0.1
    assert pts.max() <= 10.0
    ref = _reference(spec, dom.lower[0], dom.widths[0])
    assert ref.mean() == pytest.approx(0.1 + 9.9 * 0.25)
    assert abs(pts.mean() - ref.mean()) < 4 * np.sqrt(ref.var() / 20000)


# ----- closed forms against scipy.stats frozen distributions -----

_SPECS = [PriorSpec(), PriorSpec("beta", 0.5, 0.7), PriorSpec("beta", 0.6, 1),
          PriorSpec("beta", 1, 0.4), PriorSpec("beta", 1, 1), PriorSpec("beta", 1, 3),
          PriorSpec("beta", 3, 1), PriorSpec("beta", 2.5, 4.0), PriorSpec("beta", 0.8, 2.2)]


def _reference(spec, lo, w):
    if spec.kind == "uniform":
        return stats.uniform(loc=lo, scale=w)
    return stats.beta(spec.p, spec.q, loc=lo, scale=w)


def _reference_log_pdf(dom, pts):
    lp = np.zeros(pts.shape[0])
    inside = dom.contains(pts)
    lp[~inside] = -np.inf
    for j, (spec, lo, w) in enumerate(zip(dom.priors, dom.lower, dom.widths)):
        with np.errstate(divide="ignore", invalid="ignore"):  # +inf - inf at corners
            lp[inside] += _reference(spec, lo, w).logpdf(pts[inside, j])
    return lp


def _probe_points(dom, rng, n=200):
    lo, hi = dom.lower, dom.upper
    inner = lo + (hi - lo) * rng.random((n, dom.dim))
    faces = np.array([np.where(rng.random(dom.dim) < 0.5, lo, hi) for _ in range(8)])
    mixed = inner[:8].copy()
    mixed[:, 0] = lo[0]
    mixed[4:, -1] = hi[-1]
    outside = lo + (hi - lo) * (rng.random((20, dom.dim)) * 3.0 - 1.0)
    nan = inner[8:12].copy()  # one NaN coordinate per row, outside the box
    nan[np.arange(4), np.arange(4) % dom.dim] = np.nan
    return np.vstack([inner, faces, mixed, outside, nan])


@pytest.mark.parametrize("spec", _SPECS)
def test_log_pdf_bit_equal_to_scipy_1d(spec):
    dom = ParameterDomain(np.array([0.1]), np.array([10.0]), (spec,))
    pts = _probe_points(dom, np.random.default_rng(0))
    ref = _reference_log_pdf(dom, pts)
    assert np.array_equal(dom.log_pdf(pts), ref)
    for x, r in zip(pts[::7, 0], ref[::7]):  # 1-d input returns a scalar
        val = dom.log_pdf(np.array([x]))
        assert np.ndim(val) == 0
        assert np.array_equal(val, r)


def test_log_pdf_bit_equal_to_scipy_2d():
    # where scipy's sum is NaN (density +inf in one dimension, 0 in the
    # other) the prior is -inf, without a warning
    rng = np.random.default_rng(1)
    n_nan = 0
    # the all-uniform box has widths whose log product differs from the
    # sum of their logs
    for a, b, hi in [*((a, b, 1.5) for a, b in zip(_SPECS, _SPECS[::-1])),
                     (PriorSpec(), PriorSpec(), 0.5)]:
        dom = ParameterDomain(np.array([-2.0, 0.3]), np.array([hi, 0.9]), (a, b))
        pts = _probe_points(dom, rng)
        ref = _reference_log_pdf(dom, pts)
        n_nan += int(np.isnan(ref).sum())
        expected = np.where(np.isnan(ref), -np.inf, ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(dom.log_pdf(pts), expected)
            for p, r in zip(pts[::11], expected[::11]):
                np.testing.assert_array_equal(dom.log_pdf(p), r)
    assert n_nan > 0


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, gibbsrb; print('scipy.stats' in sys.modules)"
    assert fresh_python("-c", code).strip() == "False"


def test_uniform_prior_leaves_scipy_special_unloaded():
    code = ("import sys, numpy as np, gibbsrb; m = gibbsrb.assemble('adv1d', {}); "
            "m.domain.log_pdf(m.domain.sample(5, np.random.default_rng(0))); "
            "print('scipy.special' in sys.modules)")
    assert fresh_python("-c", code).strip() == "False"
