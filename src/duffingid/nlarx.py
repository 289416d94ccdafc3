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

`_surrogate` builds psi and J; all message math below is exact given that
surrogate.
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


def _surrogate(zp_mean: np.ndarray, cfg: NodeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The regressor psi = (phi(z_bar), u) of w and the Jacobian J of phi,
    both at the previous-state mean z_bar."""
    d = cfg.n_coeffs
    psi = np.empty(d + 1)
    psi[:d] = regressor(zp_mean, d)
    psi[d] = cfg.u
    return psi, regressor_jacobian(zp_mean, d)


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
    psi, jac = _surrogate(zp_mean, cfg)
    d = cfg.n_coeffs
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
    psi, jac = _surrogate(zp_mean, cfg)
    d = cfg.n_coeffs
    phi, th_mean, th_cov = psi[:d], w_mean[:d], w_cov[:d, :d]
    grad_z = jac.T @ th_mean
    mean_resid = z_mean[0] - float(th_mean @ phi) - w_mean[d] * cfg.u
    return (
        mean_resid**2
        + z_cov[0, 0]
        + float(grad_z @ zp_cov @ grad_z)
        + float(phi @ th_cov @ phi)
        + float(np.trace(th_cov @ jac @ zp_cov @ jac.T))
        + cfg.u**2 * w_cov[d, d]
        + 2.0 * cfg.u * float(phi @ w_cov[:d, d])
    )


def msg_forward_state(
    q_zprev: GaussianBelief,
    q_coeffs: GaussianBelief,
    q_gamma: GammaBelief,
    cfg: NodeConfig,
) -> GaussianBelief:
    """Forward message to the new state: mean E[f], precision diag(E[gamma], 1/eps)."""
    zp_mean, _ = gaussian_moments(q_zprev)
    psi, _ = _surrogate(zp_mean, cfg)
    d = cfg.n_coeffs
    w_mean = q_coeffs.mean
    g_bar = float(w_mean[:d] @ psi[:d])
    mean = S @ zp_mean + s * (g_bar + w_mean[d] * cfg.u)
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
