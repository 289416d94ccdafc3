"""Variational messages of the nonlinear autoregressive transition node and
the measurement likelihood node.

Each message is exp(E_q[log factor]) under the factorization
q(z) q(w) q(gamma) q(xi), where w = (theta, eta) holds the drift
coefficients theta and the input gain eta in one Gaussian, and its
regressor is psi(z) = (phi(z), u). The messages read theta, eta and
Cov(theta, eta) from blocks of that one belief. Expectations of the cubic
drift are taken under a first-order Taylor surrogate of the regressor
phi(z) = (x, x^3, x_prev), expanded at the mean of the belief over the
previous state:

    phi(z) ~= phi(z_bar) + J (z - z_bar),   J = d(phi)/dz at z_bar.

`regressor_psi` and `regressor_jacobian` build psi and J; all message math
below is exact given that surrogate. `forward_mean` and `residual_moment`
are the array-level forms of two messages, shared with the engine's step
kernel so that both evaluate them in the same floating-point order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import GammaBelief, GaussianBelief, gaussian_moments
from .duffing import S, regressor, s


@dataclass(frozen=True)
class NodeConfig:
    """Per-step node settings: current input, state-noise floor epsilon and
    whether the cubic regressor is active (False gives the linear LARX node)."""

    u: float
    epsilon: float = 1e-8
    cubic: bool = True

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    @property
    def n_coeffs(self) -> int:
        return 3 if self.cubic else 2


def regressor_jacobian(z_mean: np.ndarray, n_coeffs: int = 3) -> np.ndarray:
    """d(phi)/dz at z_mean; shape (n_coeffs, 2)."""
    if n_coeffs == 3:
        return np.array([[1.0, 0.0], [3.0 * z_mean[0] ** 2, 0.0], [0.0, 1.0]])
    return np.eye(2)


def regressor_psi(zp_mean: np.ndarray, n_coeffs: int, u: float) -> np.ndarray:
    """The regressor psi = (phi(z_bar), u) of w at the previous-state mean."""
    psi = np.empty(n_coeffs + 1)
    psi[:n_coeffs] = regressor(zp_mean, n_coeffs)
    psi[n_coeffs] = u
    return psi


def forward_mean(w_mean: np.ndarray, psi: np.ndarray) -> float:
    """E[x_next] = E[theta]' phi(z_bar) + E[eta] u."""
    d = psi.size - 1
    return float(w_mean[:d] @ psi[:d]) + w_mean[d] * psi[d]


def residual_moment(
    x_mean: float,
    x_var: float,
    zp_cov: np.ndarray,
    w_mean: np.ndarray,
    w_cov: np.ndarray,
    psi: np.ndarray,
    jac: np.ndarray,
) -> float:
    """`expected_square_residual` from moments: x_mean and x_var of the new
    position, the previous-state covariance, the mean and covariance of w,
    and psi and J at the previous-state mean."""
    d = psi.size - 1
    u = psi[d]
    phi, th_mean, th_cov = psi[:d], w_mean[:d], w_cov[:d, :d]
    grad_z = jac.T @ th_mean
    mean_resid = x_mean - float(th_mean @ phi) - w_mean[d] * u
    return (
        mean_resid**2
        + x_var
        + float(grad_z @ zp_cov @ grad_z)
        + float(phi @ th_cov @ phi)
        + float(np.trace(th_cov @ jac @ zp_cov @ jac.T))
        + u**2 * w_cov[d, d]
        + 2.0 * u * float(phi @ w_cov[:d, d])
    )


def msg_coefficients(
    q_z: GaussianBelief,
    q_zprev: GaussianBelief,
    q_gamma: GammaBelief,
    cfg: NodeConfig,
) -> GaussianBelief:
    """Message toward w = (theta, eta); may be rank-deficient.

    With J~ = [J; 0], the precision is E[gamma] (psi psi' + J~ Sigma_zprev J~')
    and the potential E[gamma] psi E[x_next].
    """
    zp_mean, zp_cov = gaussian_moments(q_zprev)
    d = cfg.n_coeffs
    psi = regressor_psi(zp_mean, d, cfg.u)
    jac = regressor_jacobian(zp_mean, d)
    e_gamma = q_gamma.mean
    precision = psi[:, None] * psi
    precision[:d, :d] += jac @ zp_cov @ jac.T
    return GaussianBelief.from_natural(
        e_gamma * precision, psi * (e_gamma * q_z.mean[0]))


def msg_theta(
    q_z: GaussianBelief,
    q_zprev: GaussianBelief,
    q_eta: GaussianBelief,
    q_gamma: GammaBelief,
    cfg: NodeConfig,
) -> GaussianBelief:
    """Message toward the coefficients under an independent q(eta): the
    theta block of the coefficient message, conditioned on E[eta]; may be
    rank-deficient."""
    joint = msg_coefficients(q_z, q_zprev, q_gamma, cfg)
    d = cfg.n_coeffs
    lam, h = joint.precision, joint.potential
    return GaussianBelief.from_natural(
        lam[:d, :d], h[:d] - lam[:d, d] * q_eta.mean[0])


def msg_eta(
    q_z: GaussianBelief,
    q_zprev: GaussianBelief,
    q_theta: GaussianBelief,
    q_gamma: GammaBelief,
    cfg: NodeConfig,
) -> GaussianBelief:
    """Message toward the input gain under an independent q(theta): the eta
    entry of the coefficient message, conditioned on E[theta] (1-D; vacuous
    when u == 0)."""
    joint = msg_coefficients(q_z, q_zprev, q_gamma, cfg)
    d = cfg.n_coeffs
    lam, h = joint.precision, joint.potential
    return GaussianBelief.from_natural(
        lam[d:, d:], h[d:] - lam[d, :d] @ q_theta.mean)


def msg_gamma(
    q_z: GaussianBelief,
    q_zprev: GaussianBelief,
    q_coeffs: GaussianBelief,
    cfg: NodeConfig,
) -> GammaBelief:
    """Message toward the process precision: Gamma(3/2, E[residual^2]/2)."""
    rate = 0.5 * expected_square_residual(q_z, q_zprev, q_coeffs, cfg)
    if rate < 0:
        raise RuntimeError(f"negative gamma message rate {rate}: moment bookkeeping bug")
    return GammaBelief(shape=1.5, rate=rate)


def expected_square_residual(
    q_z: GaussianBelief,
    q_zprev: GaussianBelief,
    q_coeffs: GaussianBelief,
    cfg: NodeConfig,
) -> float:
    """E[(x_next - g(theta, z_prev) - eta*u)^2] with the affine surrogate for
    phi, under the coefficient belief q(w) = q(theta, eta). Sum of the
    squared mean residual and the variance of the residual, so nonnegative
    by construction."""
    z_mean, z_cov = gaussian_moments(q_z)
    zp_mean, zp_cov = gaussian_moments(q_zprev)
    w_mean, w_cov = gaussian_moments(q_coeffs)
    d = cfg.n_coeffs
    return residual_moment(
        z_mean[0], z_cov[0, 0], zp_cov, w_mean, w_cov,
        regressor_psi(zp_mean, d, cfg.u), regressor_jacobian(zp_mean, d))


def msg_forward_state(
    q_zprev: GaussianBelief,
    q_coeffs: GaussianBelief,
    q_gamma: GammaBelief,
    cfg: NodeConfig,
) -> GaussianBelief:
    """Forward message to the new state: mean E[f], precision diag(E[gamma], 1/eps)."""
    zp_mean, _ = gaussian_moments(q_zprev)
    d = cfg.n_coeffs
    psi = regressor_psi(zp_mean, d, cfg.u)
    mean = S @ zp_mean + s * forward_mean(q_coeffs.mean, psi)
    precision = np.diag([q_gamma.mean, 1.0 / cfg.epsilon])
    return GaussianBelief(mean, precision)


def msg_likelihood_state(y: float, q_xi: GammaBelief) -> GaussianBelief:
    """Singular upward message from the observation onto the state."""
    e_xi = q_xi.mean
    precision = np.array([[e_xi, 0.0], [0.0, 0.0]])
    return GaussianBelief(np.array([y, 0.0]), precision)


def msg_xi(y: float, q_z: GaussianBelief) -> GammaBelief:
    """Message toward the measurement precision: Gamma(3/2, E[(y - x)^2]/2)."""
    z_mean, z_cov = gaussian_moments(q_z)
    rate = 0.5 * ((y - z_mean[0]) ** 2 + z_cov[0, 0])
    return GammaBelief(shape=1.5, rate=rate)
