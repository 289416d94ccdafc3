"""Transition-node and likelihood-node messages against quadrature oracles."""

import math

import numpy as np
import pytest

from duffingid.beliefs import (
    GammaBelief,
    GaussianBelief,
    combine_gaussian,
    gaussian_moments,
    independent,
)
from duffingid.nlarx import (
    NodeConfig,
    expected_square_residual,
    msg_coefficients,
    msg_eta,
    msg_forward_state,
    msg_gamma,
    msg_likelihood_state,
    msg_theta,
    msg_xi,
    regressor_psi,
    regressor_spread,
)
from oracles import (
    _surrogate,
    finite_difference_gradient,
    oracle_expected_square_residual,
    oracle_msg_coefficients,
    oracle_msg_eta,
    oracle_msg_forward_state,
    oracle_msg_theta,
    oracle_msg_xi_rate,
)

PIN = 1e-18  # variance used for (numerically) degenerate beliefs


def pinned_gaussian(mean):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    return GaussianBelief(mean, np.eye(mean.size) / PIN)


def pinned_gamma(value):
    return GammaBelief(1e14, 1e14 / value)


def assert_natural_close(got_prec, got_pot, want_prec, want_pot, rtol):
    scale_prec = max(np.abs(want_prec).max(), 1e-12)
    scale_pot = max(np.abs(want_pot).max(), 1e-12)
    np.testing.assert_allclose(got_prec, want_prec, atol=rtol * scale_prec)
    np.testing.assert_allclose(got_pot, want_pot, atol=rtol * scale_pot)


def random_case(rng, cubic=True):
    """One random proper-belief configuration around the node."""
    def spd(dim, scale):
        root = rng.normal(0, scale, (dim, dim))
        return root @ root.T + scale**2 * np.eye(dim)

    d = 3 if cubic else 2
    q_z = GaussianBelief(rng.normal(0, 1, 2), np.linalg.inv(spd(2, 0.3)))
    q_zprev = GaussianBelief(rng.normal(0, 1, 2), np.linalg.inv(spd(2, 0.3)))
    q_theta = GaussianBelief(rng.normal(0, 0.7, d),
                             np.linalg.inv(spd(d, 0.25)))
    q_eta = GaussianBelief([rng.normal(0, 1)], np.linalg.inv(spd(1, 0.4)))
    q_gamma = GammaBelief(rng.uniform(1.5, 8.0), rng.uniform(0.5, 4.0))
    cfg = NodeConfig(u=rng.normal(0, 1), epsilon=rng.uniform(0.1, 2.0),
                     cubic=cubic)
    return q_z, q_zprev, q_theta, q_eta, q_gamma, cfg


def random_coefficients(rng, cubic=True):
    """A proper belief over w = (theta, eta) with theta and eta correlated."""
    d = 3 if cubic else 2
    root = rng.normal(0, 0.3, (d + 1, d + 1))
    cov = root @ root.T + 0.05 * np.eye(d + 1)
    return GaussianBelief(rng.normal(0, 0.7, d + 1), np.linalg.inv(cov))


def oracle_phi(z, n_coeffs=3):
    return _surrogate(z, n_coeffs == 3)[0]


def oracle_jacobian(z, n_coeffs=3):
    return _surrogate(z, n_coeffs == 3)[1]


class TestRegressorJacobian:
    # phi and J are the oracle's; the library builds psi = (phi, u) and
    # J Sigma_zprev J' from them
    @staticmethod
    def finite_difference_jacobian(z, n_coeffs=3):
        return np.array([
            finite_difference_gradient(
                lambda zv: oracle_phi(zv, n_coeffs)[i], z)
            for i in range(n_coeffs)])

    def test_hand_case_and_finite_differences(self):
        z = np.array([2.0, 3.0])
        np.testing.assert_array_equal(oracle_phi(z), [2.0, 8.0, 3.0])
        for n_coeffs in (2, 3):
            assert regressor_psi(z, n_coeffs, 0.5) \
                == [*oracle_phi(z, n_coeffs), 0.5]
        jac = oracle_jacobian(z)
        np.testing.assert_array_equal(jac, [[1.0, 0.0], [12.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(jac, self.finite_difference_jacobian(z),
                                   atol=1e-6)
        rng = np.random.default_rng(11)
        for _ in range(10):
            z = rng.normal(0.0, 1.5, 2)
            np.testing.assert_allclose(
                oracle_jacobian(z), self.finite_difference_jacobian(z),
                atol=1e-6)

    def test_linear_model_is_exact(self):
        # with no cubic coefficient the state gradient J' theta of the drift
        # is the coefficient vector itself, wherever it is expanded
        theta = np.array([1.7, 0.0, -0.4])
        grad_z = oracle_jacobian(np.array([0.9, 0.1])).T @ theta
        np.testing.assert_array_equal(grad_z, [1.7, -0.4])

    def test_cubic_vanishes_at_origin(self):
        z = np.array([0.0, 4.0])
        np.testing.assert_array_equal(oracle_phi(z), [0.0, 0.0, 4.0])
        jac = oracle_jacobian(z)
        np.testing.assert_array_equal(jac[1], [0.0, 0.0])
        np.testing.assert_allclose(jac, self.finite_difference_jacobian(z),
                                   atol=1e-6)

    @pytest.mark.parametrize("n_coeffs", [2, 3])
    def test_spread_is_the_jacobian_sandwich(self, n_coeffs):
        # the step's J Sigma_zprev J', built entry by entry in scalar code
        rng = np.random.default_rng(12)
        for _ in range(10):
            z = rng.normal(0.0, 1.5, 2)
            a = rng.normal(0.0, 1.0, (2, 2))
            cov = a @ a.T
            cov[1, 0] = cov[0, 1]  # exactly symmetric, as beliefs keep it
            jac = oracle_jacobian(z, n_coeffs)
            np.testing.assert_array_equal(
                regressor_spread(z, cov, n_coeffs), jac @ cov @ jac.T)

    def test_larx_jacobian_is_identity(self):
        z = np.array([1.0, 2.0])
        np.testing.assert_array_equal(oracle_jacobian(z, 2), np.eye(2))
        np.testing.assert_allclose(self.finite_difference_jacobian(z, 2),
                                   np.eye(2), atol=1e-6)


class TestMsgTheta:
    def test_degenerate_reduction(self):
        cfg = NodeConfig(u=0.25)
        out = msg_theta(pinned_gaussian([1.75, 1.0]), pinned_gaussian([1.0, 0.5]),
                        pinned_gaussian([1.0]), pinned_gamma(4.0), cfg)
        phi = np.array([1.0, 1.0, 0.5])
        assert_natural_close(out.precision, out.potential,
                             4.0 * np.outer(phi, phi), 4.0 * phi * 1.5,
                             rtol=1e-10)

    def test_linear_in_expected_gamma(self):
        rng = np.random.default_rng(0)
        q_z, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
        base = msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg)
        scaled_gamma = GammaBelief(q_gamma.shape * 7.0, q_gamma.rate)
        out = msg_theta(q_z, q_zprev, q_eta, scaled_gamma, cfg)
        np.testing.assert_allclose(out.precision, 7.0 * base.precision,
                                   rtol=1e-12)
        np.testing.assert_allclose(out.potential, 7.0 * base.potential,
                                   rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadrature_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        q_z, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
        out = msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg)
        from duffingid.beliefs import gaussian_moments
        zm, zc = gaussian_moments(q_z)
        zpm, zpc = gaussian_moments(q_zprev)
        em, ec = gaussian_moments(q_eta)
        prec_or, pot_or = oracle_msg_theta(
            zm, zc, zpm, zpc, em[0], ec[0, 0], q_gamma.mean, cfg.u)
        assert_natural_close(out.precision, out.potential, prec_or, pot_or,
                             rtol=1e-6)


class TestMsgEta:
    def test_zero_input_is_vacuous(self):
        rng = np.random.default_rng(1)
        q_z, q_zprev, q_theta, _, q_gamma, _ = random_case(rng)
        out = msg_eta(q_z, q_zprev, q_theta, q_gamma, NodeConfig(u=0.0))
        assert out.precision[0, 0] == 0.0
        assert out.potential[0] == 0.0

    def test_degenerate_reduction(self):
        # residual numerator E[x+] - E[theta].phi forced to 3
        cfg = NodeConfig(u=2.0)
        zprev = np.array([1.0, 0.5])
        theta = np.array([1.0, 1.0, 1.0])
        phi_dot = 1.0 + 1.0 + 0.5
        out = msg_eta(pinned_gaussian([phi_dot + 3.0, 0.0]),
                      pinned_gaussian(zprev), pinned_gaussian(theta),
                      pinned_gamma(1.0), cfg)
        np.testing.assert_allclose(out.precision, [[4.0]], rtol=1e-10)
        np.testing.assert_allclose(out.potential, [6.0], rtol=1e-10)
        np.testing.assert_allclose(out.mean, [1.5], rtol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadrature_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        q_z, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
        out = msg_eta(q_z, q_zprev, q_theta, q_gamma, cfg)
        from duffingid.beliefs import gaussian_moments
        zm, zc = gaussian_moments(q_z)
        zpm, zpc = gaussian_moments(q_zprev)
        tm, tc = gaussian_moments(q_theta)
        prec_or, pot_or = oracle_msg_eta(
            zm, zc, zpm, zpc, tm, tc, q_gamma.mean, cfg.u)
        assert_natural_close(out.precision, out.potential, prec_or, pot_or,
                             rtol=1e-6)


class TestMsgCoefficients:
    def test_degenerate_reduction(self):
        cfg = NodeConfig(u=0.25)
        out = msg_coefficients(pinned_gaussian([1.75, 1.0]),
                               pinned_gaussian([1.0, 0.5]), pinned_gamma(4.0),
                               cfg)
        psi = np.array([1.0, 1.0, 0.5, 0.25])
        assert_natural_close(out.precision, out.potential,
                             4.0 * np.outer(psi, psi), 4.0 * psi * 1.75,
                             rtol=1e-10)

    @pytest.mark.parametrize("cubic", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_quadrature_oracle(self, seed, cubic):
        rng = np.random.default_rng(150 + seed)
        q_z, q_zprev, _, _, q_gamma, cfg = random_case(rng, cubic=cubic)
        out = msg_coefficients(q_z, q_zprev, q_gamma, cfg)
        zm, zc = gaussian_moments(q_z)
        zpm, zpc = gaussian_moments(q_zprev)
        prec_or, pot_or = oracle_msg_coefficients(
            zm, zc, zpm, zpc, q_gamma.mean, cfg.u, cubic=cubic)
        assert_natural_close(out.precision, out.potential, prec_or, pot_or,
                             rtol=1e-6)

    @pytest.mark.parametrize("cubic", [True, False])
    def test_near_singular_precision_is_singular(self, cubic):
        # with u = 1e-150 the NLARX precision's determinant is rounding
        # noise of order 1e-319 (in exact arithmetic it is u^2 det(J
        # Sigma_zprev J') = 0): an inverse that is not finite or a
        # determinant that underflows must give a singular message, with
        # no numpy warning. The LARX precision stays invertible.
        rng = np.random.default_rng(170)
        singular = 0
        for _ in range(40):
            q_z, q_zprev, _, _, q_gamma, _ = random_case(rng, cubic=cubic)
            out = msg_coefficients(q_z, q_zprev, q_gamma,
                                   NodeConfig(u=1e-150, cubic=cubic))
            if out.cov is None:
                assert out.logdet is None
                singular += 1
            else:
                assert np.isfinite(out.cov).all()
                assert math.isfinite(out.logdet)
            assert np.isfinite(out.mean).all()
        assert singular if cubic else not singular

    @pytest.mark.parametrize("cubic", [True, False])
    def test_theta_and_eta_messages_are_its_conditionals(self, cubic):
        # the factorized messages condition the joint one on the other
        # coefficient's mean
        rng = np.random.default_rng(160)
        for _ in range(10):
            q_z, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(
                rng, cubic=cubic)
            joint = msg_coefficients(q_z, q_zprev, q_gamma, cfg)
            lam, h = joint.precision, joint.potential
            d = cfg.n_coeffs
            out = msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg)
            assert_natural_close(out.precision, out.potential, lam[:d, :d],
                                 h[:d] - lam[:d, d] * q_eta.mean[0],
                                 rtol=1e-12)
            out = msg_eta(q_z, q_zprev, q_theta, q_gamma, cfg)
            assert_natural_close(out.precision, out.potential, lam[d:, d:],
                                 h[d:] - lam[d, :d] @ q_theta.mean,
                                 rtol=1e-12)


class TestMsgGamma:
    def test_degenerate_residual(self):
        # x_next - g - eta*u = 2 exactly
        cfg = NodeConfig(u=1.0)
        out = msg_gamma(pinned_gaussian([4.5, 0.0]), pinned_gaussian([1.0, 0.5]),
                        pinned_gaussian([1.0, 1.0, 1.0, 0.0]), cfg)
        assert out.shape == 1.5
        np.testing.assert_allclose(out.rate, 2.0, atol=1e-10)

    def test_zero_residual_is_improper_message(self):
        cfg = NodeConfig(u=0.5)
        out = msg_gamma(pinned_gaussian([3.0, 0.0]), pinned_gaussian([1.0, 0.5]),
                        pinned_gaussian([1.0, 1.0, 1.0, 1.0]), cfg)
        assert out.shape == 1.5
        # exact zero needs exactly-degenerate beliefs; pinned variances leave
        # a ~1e-17 remnant
        assert out.rate == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadrature_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        q_z, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
        out = msg_gamma(q_z, q_zprev, independent(q_theta, q_eta), cfg)
        from duffingid.beliefs import gaussian_moments
        zm, zc = gaussian_moments(q_z)
        zpm, zpc = gaussian_moments(q_zprev)
        tm, tc = gaussian_moments(q_theta)
        em, ec = gaussian_moments(q_eta)
        rate_or = 0.5 * oracle_expected_square_residual(
            zm, zc, zpm, zpc, tm, tc, em[0], ec[0, 0], cfg.u)
        assert out.shape == 1.5
        np.testing.assert_allclose(out.rate, rate_or, rtol=1e-6)

    @pytest.mark.parametrize("cubic", [True, False])
    @pytest.mark.parametrize("seed", range(5))
    def test_quadrature_oracle_correlated_coefficients(self, seed, cubic):
        rng = np.random.default_rng(350 + seed)
        q_z, q_zprev, _, _, q_gamma, cfg = random_case(rng, cubic=cubic)
        q_coeffs = random_coefficients(rng, cubic)
        d = cfg.n_coeffs
        wm, wc = gaussian_moments(q_coeffs)
        assert np.abs(wc[:d, d]).max() > 0.05
        out = msg_gamma(q_z, q_zprev, q_coeffs, cfg)
        zm, zc = gaussian_moments(q_z)
        zpm, zpc = gaussian_moments(q_zprev)
        rate_or = 0.5 * oracle_expected_square_residual(
            zm, zc, zpm, zpc, wm[:d], wc[:d, :d], wm[d], wc[d, d], cfg.u,
            cubic=cubic, th_eta_cov=wc[:d, d])
        assert out.shape == 1.5
        np.testing.assert_allclose(out.rate, rate_or, rtol=1e-6)

    def test_expected_square_residual_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            q_z, q_zprev, q_theta, q_eta, _, cfg = random_case(rng)
            val = expected_square_residual(
                q_z, q_zprev, independent(q_theta, q_eta), cfg)
            assert val >= 0.0
            val = expected_square_residual(q_z, q_zprev,
                                           random_coefficients(rng), cfg)
            assert val >= 0.0


class TestMsgForwardState:
    def test_hand_case(self):
        cfg = NodeConfig(u=0.25, epsilon=1e-8)
        out = msg_forward_state(pinned_gaussian([1.0, 0.5]),
                                pinned_gaussian([2.0, 0.0, -1.0, 1.0]),
                                pinned_gamma(10.0), cfg)
        np.testing.assert_allclose(out.mean, [1.75, 1.0], rtol=1e-10)
        np.testing.assert_allclose(out.precision, np.diag([10.0, 1e8]),
                                   rtol=1e-10)

    def test_degenerate_reduction(self):
        # reduces to the exact conditional N(f(theta, z_prev, eta, u), V)
        cfg = NodeConfig(u=-0.7, epsilon=0.5)
        theta = np.array([1.2, 0.3, -0.8])
        zprev = np.array([0.6, -0.2])
        eta, gamma = 1.4, 2.5
        out = msg_forward_state(pinned_gaussian(zprev),
                                pinned_gaussian(np.append(theta, eta)),
                                pinned_gamma(gamma), cfg)
        drift = theta[0] * 0.6 + theta[1] * 0.6**3 + theta[2] * -0.2
        f = np.array([drift + eta * cfg.u, zprev[0]])
        assert_natural_close(out.precision, out.potential,
                             np.diag([gamma, 1 / cfg.epsilon]),
                             np.diag([gamma, 1 / cfg.epsilon]) @ f, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_quadrature_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        _, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
        out = msg_forward_state(q_zprev, independent(q_theta, q_eta), q_gamma,
                                cfg)
        from duffingid.beliefs import gaussian_moments
        zpm, zpc = gaussian_moments(q_zprev)
        tm, tc = gaussian_moments(q_theta)
        em, ec = gaussian_moments(q_eta)
        prec_or, pot_or = oracle_msg_forward_state(
            zpm, zpc, tm, tc, em[0], ec[0, 0], q_gamma.mean, cfg.u,
            cfg.epsilon)
        assert_natural_close(out.precision, out.potential, prec_or, pot_or,
                             rtol=1e-6)


class TestMsgLikelihoodState:
    def test_hand_case(self):
        out = msg_likelihood_state(0.02, GammaBelief(1e5, 1.0))
        np.testing.assert_allclose(out.precision, [[1e5, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(out.potential, [2000.0, 0.0])

    def test_zero_observation(self):
        out = msg_likelihood_state(0.0, GammaBelief(2.0, 1.0))
        np.testing.assert_allclose(out.potential, [0.0, 0.0])
        np.testing.assert_allclose(out.precision, [[2.0, 0.0], [0.0, 0.0]])

    def test_combines_with_forward_message(self):
        rng = np.random.default_rng(6)
        _, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
        forward = msg_forward_state(q_zprev, independent(q_theta, q_eta),
                                    q_gamma, cfg)
        likelihood = msg_likelihood_state(0.1, GammaBelief(3.0, 1.0))
        posterior = combine_gaussian(forward, likelihood)
        np.testing.assert_allclose(
            posterior.precision, forward.precision + likelihood.precision)


class TestMsgXi:
    def test_perfect_fit(self):
        out = msg_xi(0.3, pinned_gaussian([0.3, -1.0]))
        assert out.shape == 1.5
        assert out.rate == pytest.approx(0.0, abs=1e-10)

    def test_hand_case(self):
        out = msg_xi(1.0, GaussianBelief([0.0, 5.0], np.eye(2)))
        assert out.shape == 1.5
        np.testing.assert_allclose(out.rate, 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_quadrature_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        q_z, *_ = random_case(rng)
        y = rng.normal(0, 1)
        out = msg_xi(y, q_z)
        from duffingid.beliefs import gaussian_moments
        zm, zc = gaussian_moments(q_z)
        np.testing.assert_allclose(out.rate, oracle_msg_xi_rate(y, zm, zc),
                                   rtol=1e-6)


class TestStructuralProperties:
    def test_precisions_symmetric_psd_and_shapes_fixed(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q_z, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
            q_coeffs = independent(q_theta, q_eta)
            for msg in (msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg),
                        msg_forward_state(q_zprev, q_coeffs, q_gamma, cfg),
                        msg_eta(q_z, q_zprev, q_theta, q_gamma, cfg)):
                np.testing.assert_allclose(msg.precision, msg.precision.T,
                                           atol=1e-12)
                assert np.linalg.eigvalsh(msg.precision).min() >= -1e-10
            gamma_msg = msg_gamma(q_z, q_zprev, q_coeffs, cfg)
            assert gamma_msg.shape == 1.5 and gamma_msg.rate >= 0.0

    def test_larx_matches_reduced_nlarx(self):
        # theta2 pinned at zero: general messages with the cubic row/column
        # removed coincide with the 2-coefficient mode
        rng = np.random.default_rng(9)
        for _ in range(10):
            q_z, q_zprev, _, q_eta, q_gamma, _ = random_case(rng)
            u = rng.normal(0, 1)
            keep = [0, 2]
            th_mean3 = rng.normal(0, 0.7, 3)
            th_mean3[1] = 0.0
            th_cov3 = np.zeros((3, 3))
            cov2 = rng.normal(0, 0.3, (2, 2))
            cov2 = cov2 @ cov2.T + 0.1 * np.eye(2)
            th_cov3[np.ix_(keep, keep)] = cov2
            th_cov3[1, 1] = PIN
            q_theta3 = GaussianBelief(th_mean3, np.linalg.inv(th_cov3))
            q_theta2 = GaussianBelief(th_mean3[keep], np.linalg.inv(cov2))
            cfg3 = NodeConfig(u=u, cubic=True)
            cfg2 = NodeConfig(u=u, cubic=False)

            out3 = msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg3)
            out2 = msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg2)
            np.testing.assert_allclose(
                out3.precision[np.ix_(keep, keep)], out2.precision, rtol=1e-9)
            np.testing.assert_allclose(out3.potential[keep], out2.potential,
                                       rtol=1e-9)

            eta3 = msg_eta(q_z, q_zprev, q_theta3, q_gamma, cfg3)
            eta2 = msg_eta(q_z, q_zprev, q_theta2, q_gamma, cfg2)
            np.testing.assert_allclose(eta3.potential, eta2.potential,
                                       rtol=1e-9)

            g3 = msg_gamma(q_z, q_zprev, independent(q_theta3, q_eta), cfg3)
            g2 = msg_gamma(q_z, q_zprev, independent(q_theta2, q_eta), cfg2)
            np.testing.assert_allclose(g3.rate, g2.rate, rtol=1e-9)


class TestNodeConfig:
    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            NodeConfig(u=0.0, epsilon=0.0)

    def test_coefficient_count(self):
        assert NodeConfig(u=0.0).n_coeffs == 3
        assert NodeConfig(u=0.0, cubic=False).n_coeffs == 2
