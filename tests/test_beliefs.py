"""Belief types and combination operations against grid oracles."""

import math

import numpy as np
import pytest

from duffingid import PriorConfig, identify
from duffingid.beliefs import (
    GammaBelief,
    GaussianBelief,
    ImproperBeliefError,
    combine_gamma,
    combine_gaussian,
    entropy_gamma,
    entropy_gaussian,
    gaussian_moments,
    independent,
    split_last,
)
from oracles import (
    grid_product_gamma,
    grid_product_moments_1d,
    grid_product_moments_2d,
)
from test_acceptance import RUN_CONFIG, make_series

# q_theta and q_eta of the 300-step golden runs (`test_golden.py`),
# recorded before GaussianBelief computed its fields at construction
GOLDEN_MARGINALS = {
    "nlarx": dict(
        theta_mean=[1.906720492936999, 0.07213920037905552,
                    -0.9258515115617715],
        theta_precision=[[48830.522773606725, 882.0168013826516,
                          48413.17521062166],
                         [882.0168013826516, 24.8260308385027,
                          874.6683168966651],
                         [48413.17521062166, 874.6683168966651,
                          48934.98053206725]],
        eta_mean=[0.012743201769269977],
        eta_precision=[[38336.31022151793]],
    ),
    "larx": dict(
        theta_mean=[1.9080637185313987, -0.9259122208526257],
        theta_precision=[[49786.46685109984, 49364.06667319542],
                         [49364.06667319542, 49900.27728786988]],
        eta_mean=[0.012777548614462012],
        eta_precision=[[39133.67425354495]],
    ),
}


def _gauss_logpdf(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    prec = np.linalg.inv(np.atleast_2d(np.asarray(cov, dtype=float)))

    def logpdf(x):
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1 and mean.size == 1:
            pts = pts[:, None]
        diff = pts - mean
        return -0.5 * np.sum((diff @ prec) * diff, axis=-1)

    return logpdf


class TestCombineGaussian:
    def test_symmetric_unit_case(self):
        out = combine_gaussian(GaussianBelief([0.0], [[1.0]]),
                               GaussianBelief([0.0], [[1.0]]))
        mean, cov = gaussian_moments(out)
        np.testing.assert_allclose(mean, [0.0])
        np.testing.assert_allclose(cov, [[0.5]])

    def test_matches_grid_product_1d(self):
        # expected values frozen from the grid-normalization oracle
        mean_or, var_or = grid_product_moments_1d(
            _gauss_logpdf([1.0], [[1.0]]), _gauss_logpdf([3.0], [[1.0]]),
            -8.0, 12.0)
        out = combine_gaussian(GaussianBelief([1.0], [[1.0]]),
                               GaussianBelief([3.0], [[1.0]]))
        mean, cov = gaussian_moments(out)
        np.testing.assert_allclose(mean[0], mean_or, rtol=1e-8)
        np.testing.assert_allclose(cov[0, 0], var_or, rtol=1e-6)
        # and the oracle itself pins the textbook values
        np.testing.assert_allclose([mean_or, var_or], [2.0, 0.5], rtol=1e-6)

    def test_singular_message_with_proper_belief(self):
        # rank-1 likelihood message against a proper 2-D Gaussian
        xi_bar = 3.0
        message = GaussianBelief.from_natural(
            [[xi_bar, 0.0], [0.0, 0.0]], [xi_bar * 0.4, 0.0])
        prior_mean = np.array([0.1, -0.2])
        prior_cov = np.array([[0.5, 0.1], [0.1, 0.8]])
        out = combine_gaussian(message, GaussianBelief(
            prior_mean, np.linalg.inv(prior_cov)))
        np.testing.assert_allclose(
            out.precision, np.linalg.inv(prior_cov) + [[xi_bar, 0], [0, 0]])

        def message_logpdf(x):
            pts = np.atleast_2d(x)
            return -0.5 * xi_bar * (pts[:, 0] - 0.4) ** 2

        mean_or, cov_or = grid_product_moments_2d(
            message_logpdf, _gauss_logpdf(prior_mean, prior_cov), -5.0, 5.0)
        mean, cov = gaussian_moments(out)
        np.testing.assert_allclose(mean, mean_or, atol=1e-6)
        np.testing.assert_allclose(cov, cov_or, atol=1e-5)

    def test_randomized_grid_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m1, m2 = rng.normal(0, 0.5, 2)
            v1, v2 = rng.uniform(0.3, 2.0, 2)
            out = combine_gaussian(GaussianBelief([m1], [[1 / v1]]),
                                   GaussianBelief([m2], [[1 / v2]]))
            mean_or, var_or = grid_product_moments_1d(
                _gauss_logpdf([m1], [[v1]]), _gauss_logpdf([m2], [[v2]]),
                -12.0, 12.0)
            mean, cov = gaussian_moments(out)
            np.testing.assert_allclose(mean[0], mean_or, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(cov[0, 0], var_or, rtol=1e-6)
        for _ in range(25):
            mean_a = rng.normal(0, 0.5, 2)
            mean_b = rng.normal(0, 0.5, 2)
            cov_a = _random_spd(rng, 2)
            cov_b = _random_spd(rng, 2)
            out = combine_gaussian(
                GaussianBelief(mean_a, np.linalg.inv(cov_a)),
                GaussianBelief(mean_b, np.linalg.inv(cov_b)))
            mean_or, cov_or = grid_product_moments_2d(
                _gauss_logpdf(mean_a, cov_a), _gauss_logpdf(mean_b, cov_b),
                -12.0, 12.0, n=1201)
            mean, cov = gaussian_moments(out)
            np.testing.assert_allclose(mean, mean_or, atol=2e-6)
            np.testing.assert_allclose(cov, cov_or, atol=2e-5)

    def test_commutative_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (GaussianBelief(rng.normal(0, 1, 2),
                                      np.linalg.inv(_random_spd(rng, 2)))
                       for _ in range(3))
            ab = combine_gaussian(a, b)
            ba = combine_gaussian(b, a)
            np.testing.assert_allclose(ab.precision, ba.precision, atol=1e-10)
            np.testing.assert_allclose(ab.mean, ba.mean, atol=1e-10)
            left = combine_gaussian(combine_gaussian(a, b), c)
            right = combine_gaussian(a, combine_gaussian(b, c))
            np.testing.assert_allclose(left.precision, right.precision,
                                       atol=1e-10)
            np.testing.assert_allclose(left.mean, right.mean, atol=1e-10)

    def test_information_never_decreases(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = GaussianBelief(rng.normal(0, 1, 2),
                               np.linalg.inv(_random_spd(rng, 2)))
            b = GaussianBelief(rng.normal(0, 1, 2),
                               np.linalg.inv(_random_spd(rng, 2)))
            gain = combine_gaussian(a, b).precision - a.precision
            assert np.linalg.eigvalsh(gain).min() >= -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            combine_gaussian(GaussianBelief([0.0], [[1.0]]),
                             GaussianBelief([0.0, 0.0], np.eye(2)))

    def test_shared_null_direction_is_improper(self):
        singular = GaussianBelief.from_natural([[1.0, 0.0], [0.0, 0.0]],
                                               [0.5, 0.0])
        with pytest.raises(ImproperBeliefError, match="improper posterior"):
            combine_gaussian(singular, singular)


class TestCombineGamma:
    def test_uninformative_identity(self):
        a = GammaBelief(4.0, 2.5)
        out = combine_gamma(a, GammaBelief(1.0, 0.0))
        assert out.shape == a.shape
        assert out.rate == a.rate

    def test_matches_grid_product(self):
        shape_or, rate_or = grid_product_gamma(2.0, 1.0, 3.0, 2.0, 40.0)
        out = combine_gamma(GammaBelief(2.0, 1.0), GammaBelief(3.0, 2.0))
        np.testing.assert_allclose([out.shape, out.rate], [4.0, 3.0])
        np.testing.assert_allclose([shape_or, rate_or], [out.shape, out.rate],
                                   rtol=1e-6)

    def test_improper_message_against_strong_prior(self):
        shape_or, rate_or = grid_product_gamma(1.5, 0.0, 1e3, 10.0, 400.0)
        out = combine_gamma(GammaBelief(1.5, 0.0), GammaBelief(1e3, 10.0))
        np.testing.assert_allclose([out.shape, out.rate], [1000.5, 10.0])
        np.testing.assert_allclose([shape_or, rate_or], [out.shape, out.rate],
                                   rtol=1e-5)

    def test_improper_posterior_rejected(self):
        with pytest.raises(ImproperBeliefError, match="improper posterior"):
            combine_gamma(GammaBelief(1.0, 0.0), GammaBelief(1.0, 0.0))


class TestGaussianMoments:
    def test_scalar_natural_form(self):
        g = GaussianBelief.from_natural([[2.0]], [2.0])
        mean, cov = gaussian_moments(g)
        np.testing.assert_allclose(mean, [1.0])
        np.testing.assert_allclose(cov, [[0.5]])

    def test_identity_precision(self):
        mean, cov = gaussian_moments(GaussianBelief([0.0, 0.0], np.eye(2)))
        np.testing.assert_allclose(mean, [0.0, 0.0])
        np.testing.assert_allclose(cov, np.eye(2))

    def test_2x2_inverse(self):
        g = GaussianBelief([1.0, 0.0], [[2.0, 1.0], [1.0, 2.0]])
        _, cov = gaussian_moments(g)
        expected = np.array([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
        np.testing.assert_allclose(cov, expected, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_numpy_inverse(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            prec = np.linalg.inv(_random_spd(rng, dim))
            pot = rng.normal(0, 1, dim)
            g = GaussianBelief.from_natural(prec, pot)
            mean, cov = gaussian_moments(g)
            np.testing.assert_allclose(cov, np.linalg.inv(g.precision),
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(g.precision @ mean, pot,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(g.logdet,
                                       np.linalg.slogdet(g.precision)[1],
                                       rtol=1e-12, atol=1e-12)

    def test_dimension_outside_one_to_four_rejected(self):
        # every inverse is closed form; the library builds no belief over
        # more than 4 coordinates (the coefficients) and none over zero
        prec = np.linalg.inv(_random_spd(np.random.default_rng(5), 5))
        prec = 0.5 * (prec + prec.T)
        for build in (lambda: GaussianBelief(np.zeros(5), prec),
                      lambda: GaussianBelief.from_natural(prec, np.zeros(5)),
                      lambda: GaussianBelief(np.zeros(0), np.zeros((0, 0)))):
            with pytest.raises(ValueError, match="dimension"):
                build()

    def test_improper_rejected(self):
        g = GaussianBelief.from_natural([[1.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        with pytest.raises(ImproperBeliefError,
                           match="moments undefined for improper belief"):
            gaussian_moments(g)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_indefinite_rejected(self, dim):
        # positive leading minors up to the last one, which is negative
        prec = np.eye(dim)
        prec[-1, :-1] = prec[:-1, -1] = 1.0
        g = GaussianBelief.from_natural(prec, np.zeros(dim))
        with pytest.raises(ImproperBeliefError):
            gaussian_moments(g)


class TestValueType:
    def test_singular_message_has_no_moments(self):
        prec = np.array([[2.0, 1.0], [1.0, 0.5]])  # rank 1
        pot = prec @ np.array([0.3, -0.4])
        g = GaussianBelief.from_natural(prec, pot)
        assert g.cov is None and g.logdet is None
        want, *_ = np.linalg.lstsq(prec, pot, rcond=None)
        np.testing.assert_array_equal(g.mean, want)
        np.testing.assert_array_equal(g.potential, pot)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_both_constructors_agree(self, dim):
        rng = np.random.default_rng(50 + dim)
        prec = np.linalg.inv(_random_spd(rng, dim))
        prec = 0.5 * (prec + prec.T)  # exactly symmetric: no constructor changes it
        mean = rng.normal(0, 1, dim)
        from_mean = GaussianBelief(mean, prec)
        from_natural = GaussianBelief.from_natural(prec, prec @ mean)
        np.testing.assert_array_equal(from_mean.precision, from_natural.precision)
        np.testing.assert_array_equal(from_mean.potential, from_natural.potential)
        np.testing.assert_array_equal(from_mean.cov, from_natural.cov)
        assert from_mean.logdet == from_natural.logdet
        np.testing.assert_allclose(from_mean.mean, from_natural.mean,
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("mode, trace", [("nlarx", False), ("larx", True)])
    def test_marginal_views_on_the_golden_run(self, mode, trace):
        cfg = PriorConfig(model_mode=mode, trace_free_energy=trace, **RUN_CONFIG)
        beliefs, _ = identify(make_series(sim_seed=7, T=301), cfg)
        want = GOLDEN_MARGINALS[mode]
        for name in ("theta", "eta"):
            got = getattr(beliefs, f"q_{name}")
            np.testing.assert_allclose(got.mean, want[f"{name}_mean"],
                                       rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(got.precision, want[f"{name}_precision"],
                                       rtol=1e-12, atol=0.0)


class TestSplitLast:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_marginals_of_the_joint(self, dim):
        rng = np.random.default_rng(30 + dim)
        for _ in range(20):
            joint = GaussianBelief.from_natural(
                np.linalg.inv(_random_spd(rng, dim)), rng.normal(0, 1, dim))
            lead, last = split_last(joint)
            mean = np.linalg.solve(joint.precision, joint.potential)
            cov = np.linalg.inv(joint.precision)
            for part, rows in ((lead, slice(None, -1)), (last, slice(-1, None))):
                np.testing.assert_allclose(part.mean, mean[rows], rtol=1e-9,
                                           atol=1e-12)
                np.testing.assert_allclose(
                    np.linalg.inv(part.precision), cov[rows, rows],
                    rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(
                    gaussian_moments(part)[1], cov[rows, rows], rtol=1e-9,
                    atol=1e-12)
                np.testing.assert_allclose(
                    part.logdet,
                    -np.linalg.slogdet(cov[rows, rows])[1], rtol=1e-9,
                    atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_independent_joint_splits_back(self, dim):
        rng = np.random.default_rng(40 + dim)
        a = GaussianBelief(rng.normal(0, 1, dim),
                           np.linalg.inv(_random_spd(rng, dim)))
        b = GaussianBelief([rng.normal(0, 1)], [[rng.uniform(0.5, 2.0)]])
        joint = independent(a, b)
        # built from the means, so they come back exactly
        np.testing.assert_array_equal(joint.mean, np.append(a.mean, b.mean))
        np.testing.assert_array_equal(joint.precision[:dim, :dim], a.precision)
        np.testing.assert_array_equal(joint.precision[dim:, dim:], b.precision)
        np.testing.assert_array_equal(joint.precision[:dim, dim:], 0.0)
        lead, last = split_last(joint)
        np.testing.assert_array_equal(lead.mean, a.mean)
        np.testing.assert_array_equal(lead.precision, a.precision)
        np.testing.assert_array_equal(last.mean, b.mean)
        np.testing.assert_allclose(last.precision, b.precision, rtol=1e-14)


class TestEntropies:
    def test_standard_normal(self):
        val = entropy_gaussian(GaussianBelief([0.0], [[1.0]]))
        np.testing.assert_allclose(val, 0.5 * math.log(2 * math.pi * math.e))

    def test_gaussian_numeric_integration(self):
        # -integral of q log q on a grid, for a couple of variances
        for var in (0.25, 1.7, 9.0):
            x = np.linspace(-12 * math.sqrt(var), 12 * math.sqrt(var), 400001)
            q = np.exp(-0.5 * x**2 / var) / math.sqrt(2 * math.pi * var)
            numeric = -np.trapezoid(q * np.log(q), x)
            val = entropy_gaussian(GaussianBelief([0.3], [[1.0 / var]]))
            np.testing.assert_allclose(val, numeric, rtol=1e-8)

    def test_exponential_gamma(self):
        np.testing.assert_allclose(entropy_gamma(GammaBelief(1.0, 1.0)), 1.0)

    def test_gamma_numeric_integration(self):
        shape, rate = 3.5, 2.0
        x = np.linspace(1e-9, 60, 2000001)
        logq = (shape * math.log(rate) - math.lgamma(shape)
                + (shape - 1.0) * np.log(x) - rate * x)
        numeric = -np.trapezoid(np.exp(logq) * logq, x)
        np.testing.assert_allclose(entropy_gamma(GammaBelief(shape, rate)),
                                   numeric, rtol=1e-7)

    def test_improper_rejected(self):
        with pytest.raises(ImproperBeliefError):
            entropy_gamma(GammaBelief(1.0, 0.0))
        singular = GaussianBelief.from_natural([[0.0]], [0.0])
        with pytest.raises(ImproperBeliefError):
            entropy_gaussian(singular)


class TestInvariantsAndValidation:
    def test_gamma_validation(self):
        with pytest.raises(ValueError, match="shape must be positive"):
            GammaBelief(0.0, 1.0)
        with pytest.raises(ValueError, match="rate must be nonnegative"):
            GammaBelief(1.0, -0.5)

    def test_gamma_moments(self):
        g = GammaBelief(6.0, 2.0)
        assert g.mean == 3.0
        with pytest.raises(ImproperBeliefError):
            GammaBelief(1.5, 0.0).mean

    def test_precision_shape_validation(self):
        with pytest.raises(ValueError, match="does not match dim"):
            GaussianBelief([0.0, 0.0], [[1.0]])

    def test_precision_symmetrized(self):
        g = GaussianBelief([0.0, 0.0], [[1.0, 0.2], [0.0, 1.0]])
        np.testing.assert_allclose(g.precision, g.precision.T)

    def test_potential_consistency(self):
        g = GaussianBelief([2.0, -1.0], [[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(g.potential, g.precision @ g.mean)


def _random_spd(rng, dim):
    root = rng.normal(0, 1, (dim, dim))
    return root @ root.T + 0.5 * np.eye(dim)
