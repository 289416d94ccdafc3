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

`regressor_psi` builds psi and `regressor_spread` builds J Sigma_zprev J';
all message math below is exact given that surrogate. The engine's step
writes both out once per step, since they are fixed within it.
`msg_coefficients` builds its precision and `expected_square_residual` its
sum in scalar code; the step writes both out on local floats in the same
floating-point order, and the tests hold the two to each other bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beliefs import (
    GammaBelief,
    GaussianBelief,
    dot,
    expected_quadratic,
    gaussian_moments,
)


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


def regressor_psi(zp_mean: list[float], n_coeffs: int, u: float) -> list[float]:
    """The regressor psi = (phi(z_bar), u) of w at the previous-state mean
    (a list of floats), as a list of floats: a cube that overflows gives
    inf."""
    x, x_prev = zp_mean
    if n_coeffs == 3:
        return [x, x * x * x, x_prev, float(u)]
    return [x, x_prev, float(u)]


def regressor_spread(zp_mean: list[float], zp_cov: list[list[float]],
                     n_coeffs: int = 3) -> list[list[float]]:
    """J Sigma_zprev J' at the previous-state mean and covariance (lists of
    floats), as nested lists of floats: the covariance of phi(z_prev) under
    the affine surrogate. Built entry by entry, so it is exactly symmetric
    and an overflow gives inf instead of a numpy warning."""
    (s00, s01), (_, s11) = zp_cov
    if n_coeffs == 2:
        return [[s00, s01], [s01, s11]]
    x = zp_mean[0]
    g = 3.0 * (x * x)  # d(x^3)/dx
    gs00, gs01 = g * s00, g * s01
    return [[s00, gs00, s01], [gs00, gs00 * g, gs01], [s01, gs01, s11]]


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
    zp_mean, zp_cov = (m.tolist() for m in gaussian_moments(q_zprev))
    d = cfg.n_coeffs
    psi = regressor_psi(zp_mean, d, cfg.u)
    spread = regressor_spread(zp_mean, zp_cov, d)
    u = psi[-1]
    # psi psi' + J~ Sigma_zprev J~' in scalar code; exactly symmetric
    info = [[a * b + value for b, value in zip(psi, spread_row)] + [a * u]
            for a, spread_row in zip(psi, spread)]
    info.append([u * b for b in psi])
    e_gamma = q_gamma.mean
    return GaussianBelief.from_natural(
        e_gamma * np.array(info), np.array(psi) * (e_gamma * q_z.mean[0]))


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
        lam[d:, d:], h[d:] - dot(lam[d, :d], q_theta.mean))


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
    by construction.

    With the surrogate the residual is x_next - psi' w - (J'theta)'(z_prev
    - z_bar), so its second moment is (x_mean - psi' E[w])^2 + x_var +
    psi' Cov(w) psi + E[theta' J Sigma_zprev J' theta]; the last term
    holds both E[theta]' J Sigma_zprev J' E[theta] and trace(Sigma_theta J
    Sigma_zprev J'). Summed in scalar code, left to right.
    """
    z_mean, z_cov = gaussian_moments(q_z)
    zp_mean, zp_cov = (m.tolist() for m in gaussian_moments(q_zprev))
    w_mean, w_cov = gaussian_moments(q_coeffs)
    d = cfg.n_coeffs
    w, w_cov = w_mean.tolist(), w_cov.tolist()
    psi = regressor_psi(zp_mean, d, cfg.u)
    resid = float(z_mean[0]) - dot(w, psi)
    total = resid * resid + float(z_cov[0, 0])
    for psi_i, cov_row in zip(psi, w_cov):
        for psi_j, cov_ij in zip(psi, cov_row):
            total += psi_i * cov_ij * psi_j
    return total + expected_quadratic(
        regressor_spread(zp_mean, zp_cov, d), w, w_cov)


def msg_forward_state(
    q_zprev: GaussianBelief,
    q_coeffs: GaussianBelief,
    q_gamma: GammaBelief,
    cfg: NodeConfig,
) -> GaussianBelief:
    """Forward message to the new state: mean E[f], precision diag(E[gamma], 1/eps)."""
    zp_mean = gaussian_moments(q_zprev)[0].tolist()
    d = cfg.n_coeffs
    psi = regressor_psi(zp_mean, d, cfg.u)
    mean = np.array([dot(q_coeffs.mean.tolist(), psi), zp_mean[0]])
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
