"""Independent numerical oracles used to freeze expected values.

Nothing in here touches the message algebra under test: expectations are
taken by tensor-product Gauss-Hermite quadrature, density products are
normalized on grids, natural parameters are recovered by least-squares fits
of the expected log-factor, and derivatives come from central differences.
The affine regressor surrogate (expansion at the previous-state mean) is
re-derived locally so the convention matches without sharing code. The
free energy is assembled in matrix form from LAPACK log-determinants,
traces, scipy's Gamma entropy and the quadrature residual below. A whole
run's limit, known states and known noise precision, is conjugate Bayesian
linear regression, solved in closed form at the end.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats
from scipy.linalg import block_diag


def gauss_hermite_points(dim: int, order: int):
    """Nodes and weights for E[f(x)] with x ~ N(0, I_dim), tensor product."""
    nodes_1d, weights_1d = np.polynomial.hermite.hermgauss(order)
    nodes_1d = nodes_1d * np.sqrt(2.0)
    weights_1d = weights_1d / np.sqrt(np.pi)
    grids = np.meshgrid(*([nodes_1d] * dim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([weights_1d] * dim), indexing="ij")
    weights = np.ones(points.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    return points, weights


def gh_expect(fn, mean, cov, order: int = 5) -> float:
    """E[fn(x)] for x ~ N(mean, cov); fn maps an (N, d) array to (N,)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    points, weights = gauss_hermite_points(mean.size, order)
    chol = np.linalg.cholesky(cov)
    x = mean + points @ chol.T
    return float(weights @ np.asarray(fn(x), dtype=float))


def fit_quadratic_natural(fn, dim: int, seed: int = 0, scale: float = 1.0):
    """Recover (Lambda, h) from fn(t) = const + h.t - t'Lambda t/2.

    fn is evaluated at random probe points and the quadratic is fitted by
    least squares; exact (up to conditioning) whenever fn really is quadratic.
    """
    rng = np.random.default_rng(seed)
    pairs = [(k, l) for k in range(dim) for l in range(k, dim)]
    n_points = 4 * (1 + dim + len(pairs))
    probes = rng.normal(0.0, scale, size=(n_points, dim))
    columns = [np.ones(n_points)]
    columns += [probes[:, k] for k in range(dim)]
    columns += [probes[:, k] * probes[:, l] for k, l in pairs]
    design = np.stack(columns, axis=-1)
    values = np.array([fn(p) for p in probes])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    h = coef[1:1 + dim]
    lam = np.zeros((dim, dim))
    for idx, (k, l) in enumerate(pairs):
        if k == l:
            lam[k, k] = -2.0 * coef[1 + dim + idx]
        else:
            lam[k, l] = lam[l, k] = -coef[1 + dim + idx]
    return lam, h


# ---------------------------------------------------------------------------
# grid oracles for belief combination

def grid_product_moments_1d(logpdf_a, logpdf_b, lo, hi, n=40001):
    """Mean/variance of the normalized product of two densities on a grid."""
    x = np.linspace(lo, hi, n)
    logp = logpdf_a(x) + logpdf_b(x)
    p = np.exp(logp - logp.max())
    p = p / np.trapezoid(p, x)
    mean = np.trapezoid(x * p, x)
    var = np.trapezoid((x - mean) ** 2 * p, x)
    return float(mean), float(var)


def grid_product_moments_2d(logpdf_a, logpdf_b, lo, hi, n=401):
    """Mean/covariance of the normalized product of two 2-D densities."""
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    logp = logpdf_a(pts) + logpdf_b(pts)
    p = np.exp(logp - logp.max()).reshape(n, n)
    step = axis[1] - axis[0]
    p = p / (p.sum() * step * step)
    mean = np.array([(xx * p).sum(), (yy * p).sum()]) * step * step
    dx, dy = xx - mean[0], yy - mean[1]
    cov = np.array([
        [(dx * dx * p).sum(), (dx * dy * p).sum()],
        [(dx * dy * p).sum(), (dy * dy * p).sum()],
    ]) * step * step
    return mean, cov


def grid_product_gamma(shape_a, rate_a, shape_b, rate_b, hi, n=200001):
    """Shape/rate of the normalized product of two Gamma densities, fitted
    from the grid mean and variance."""
    x = np.linspace(1e-12, hi, n)
    logp = ((shape_a - 1.0) * np.log(x) - rate_a * x
            + (shape_b - 1.0) * np.log(x) - rate_b * x)
    p = np.exp(logp - logp.max())
    p = p / np.trapezoid(p, x)
    mean = np.trapezoid(x * p, x)
    var = np.trapezoid((x - mean) ** 2 * p, x)
    return mean ** 2 / var, mean / var


def finite_difference_gradient(fn, x0, step=1e-5):
    """Central-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for k in range(x0.size):
        delta = np.zeros_like(x0)
        delta[k] = step
        grad[k] = (fn(x0 + delta) - fn(x0 - delta)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# quadrature oracles for the transition-node messages
#
# Each oracle evaluates the expected log-factor of the transition
#   N(z0_next | theta.phi(z_prev) + eta*u, 1/gamma) * N(z1_next | z_prev0, eps)
# by quadrature over every edge except the target one, then reads off the
# target's natural parameters.  phi uses the local affine surrogate.

def _surrogate(zp_mean, cubic: bool):
    if cubic:
        phi0 = np.array([zp_mean[0], zp_mean[0] ** 3, zp_mean[1]])
        jac = np.array([[1.0, 0.0],
                        [3.0 * zp_mean[0] ** 2, 0.0],
                        [0.0, 1.0]])
    else:
        phi0 = np.array([zp_mean[0], zp_mean[1]])
        jac = np.eye(2)
    return phi0, jac


def oracle_step_mean(theta, eta, z_prev, u):
    """The noise-free transition of z = (x, x_prev): (theta . phi(z) + eta*u,
    x), with phi(z) = (x, x^3, x_prev), or (x, x_prev) without the cubic,
    as a numpy dot product."""
    phi, _ = _surrogate(z_prev, len(theta) == 3)
    return np.array([np.dot(theta, phi) + eta * u, z_prev[0]])


def oracle_rollout(theta, eta, drive, seed):
    """The noise-free recursion from seed = (x[0], x[1]) over as many steps
    as `drive` holds: x[t] = theta1*x[t-1] + theta2*(x[t-1]*x[t-1]*x[t-1])
    + theta3*x[t-2] + eta*drive[t-1], summed left to right, in Python
    floats, with the cube term, the regressor's product, kept whatever
    theta2 is. A 2-entry theta is (theta1, theta3), with theta2 = 0."""
    theta = [float(v) for v in theta]
    th1, th2, th3 = theta if len(theta) == 3 else (theta[0], 0.0, theta[1])
    x = [float(seed[0]), float(seed[1])]
    for d in drive[1:-1]:
        x_now = x[-1]
        x.append(th1 * x_now + th2 * (x_now * x_now * x_now) + th3 * x[-2]
                 + eta * float(d))
    return np.array(x)


def oracle_unstable_step(theta, eta, drive, seed, limit=1e6):
    """The first step t of `oracle_rollout`'s recursion, checked after every
    state, whose state is infinite, NaN or beyond `limit` in magnitude
    (an overflowing cube gives an infinite or NaN state); None where every
    state passes."""
    theta = [float(v) for v in theta]
    th1, th2, th3 = theta if len(theta) == 3 else (theta[0], 0.0, theta[1])
    x_prev, x_now = float(seed[0]), float(seed[1])
    for t, d in enumerate(drive[1:-1], start=2):
        x_prev, x_now = x_now, (th1 * x_now + th2 * (x_now * x_now * x_now)
                                + th3 * x_prev + eta * float(d))
        if not (math.isfinite(x_now) and abs(x_now) <= limit):
            return t
    return None


def _joint_points(blocks, order):
    """GH points/weights for a block-diagonal joint Gaussian."""
    mean = np.concatenate([np.atleast_1d(m) for m, _ in blocks])
    cov = block_diag(*[np.atleast_2d(c) for _, c in blocks])
    points, weights = gauss_hermite_points(mean.size, order)
    chol = np.linalg.cholesky(cov)
    return mean + points @ chol.T, weights


def oracle_msg_theta(z_mean, z_cov, zp_mean, zp_cov, eta_mean, eta_var,
                     e_gamma, u, cubic=True, order=5, seed=0):
    """Natural parameters of the message toward theta."""
    phi0, jac = _surrogate(zp_mean, cubic)
    x, w = _joint_points(
        [(z_mean[0], z_cov[0, 0]), (zp_mean, zp_cov), (eta_mean, eta_var)],
        order)
    phi = phi0 + (x[:, 1:3] - zp_mean) @ jac.T

    def expected_log_factor(theta):
        resid = x[:, 0] - phi @ theta - x[:, 3] * u
        return -0.5 * e_gamma * float(w @ resid ** 2)

    return fit_quadratic_natural(expected_log_factor, phi0.size, seed=seed)


def oracle_msg_coefficients(z_mean, z_cov, zp_mean, zp_cov, e_gamma, u,
                            cubic=True, order=5, seed=0):
    """Natural parameters of the joint message toward w = (theta, eta)."""
    phi0, jac = _surrogate(zp_mean, cubic)
    x, w = _joint_points([(z_mean[0], z_cov[0, 0]), (zp_mean, zp_cov)], order)
    phi = phi0 + (x[:, 1:3] - zp_mean) @ jac.T
    psi = np.column_stack([phi, np.full(len(x), u)])

    def expected_log_factor(coeffs):
        resid = x[:, 0] - psi @ coeffs
        return -0.5 * e_gamma * float(w @ resid ** 2)

    return fit_quadratic_natural(expected_log_factor, phi0.size + 1, seed=seed)


def oracle_msg_eta(z_mean, z_cov, zp_mean, zp_cov, th_mean, th_cov,
                   e_gamma, u, cubic=True, order=3, seed=0):
    """Natural parameters of the (1-D) message toward eta."""
    phi0, jac = _surrogate(zp_mean, cubic)
    d = phi0.size
    x, w = _joint_points(
        [(z_mean[0], z_cov[0, 0]), (zp_mean, zp_cov), (th_mean, th_cov)],
        order)
    phi = phi0 + (x[:, 1:3] - zp_mean) @ jac.T
    drift = np.sum(phi * x[:, 3:3 + d], axis=1)

    def expected_log_factor(eta):
        resid = x[:, 0] - drift - eta[0] * u
        return -0.5 * e_gamma * float(w @ resid ** 2)

    return fit_quadratic_natural(expected_log_factor, 1, seed=seed)


def oracle_expected_square_residual(z_mean, z_cov, zp_mean, zp_cov,
                                    th_mean, th_cov, eta_mean, eta_var,
                                    u, cubic=True, order=3, th_eta_cov=None):
    """E[(z0_next - theta.phi(z_prev) - eta*u)^2] under the surrogate.

    th_eta_cov is Cov(theta, eta); None makes theta and eta independent."""
    phi0, jac = _surrogate(zp_mean, cubic)
    d = phi0.size
    coeff_cov = block_diag(np.atleast_2d(th_cov), np.atleast_2d(eta_var))
    if th_eta_cov is not None:
        coeff_cov[:d, d] = coeff_cov[d, :d] = th_eta_cov
    x, w = _joint_points(
        [(z_mean[0], z_cov[0, 0]), (zp_mean, zp_cov),
         (np.append(th_mean, eta_mean), coeff_cov)], order)
    phi = phi0 + (x[:, 1:3] - zp_mean) @ jac.T
    resid = x[:, 0] - np.sum(phi * x[:, 3:3 + d], axis=1) - x[:, 3 + d] * u
    return float(w @ resid ** 2)


def oracle_msg_forward_state(zp_mean, zp_cov, th_mean, th_cov,
                             eta_mean, eta_var, e_gamma, u, epsilon,
                             cubic=True, order=3, seed=0):
    """Natural parameters of the forward message onto the next state."""
    phi0, jac = _surrogate(zp_mean, cubic)
    d = phi0.size
    x, w = _joint_points(
        [(zp_mean, zp_cov), (th_mean, th_cov), (eta_mean, eta_var)], order)
    phi = phi0 + (x[:, 0:2] - zp_mean) @ jac.T
    drift = np.sum(phi * x[:, 2:2 + d], axis=1) + x[:, 2 + d] * u

    def expected_log_factor(z):
        first = z[0] - drift
        second = z[1] - x[:, 0]
        return float(w @ (-0.5 * e_gamma * first ** 2
                          - 0.5 * second ** 2 / epsilon))

    return fit_quadratic_natural(expected_log_factor, 2, seed=seed)


def oracle_msg_xi_rate(y, z_mean, z_cov, order=7):
    """Rate of the Gamma message toward xi: E[(y - z0)^2]/2 by quadrature."""
    val = gh_expect(lambda x: (y - x[:, 0]) ** 2, z_mean, z_cov, order=order)
    return 0.5 * val


# ---------------------------------------------------------------------------
# matrix-form oracle for the single-step free energy

def _gaussian_entropy(precision):
    cov = np.linalg.inv(precision)
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * np.e * cov)
    assert sign > 0
    return 0.5 * logdet


def _gamma_cross_entropy_terms(shape, rate, shape0, rate0):
    """H[q] and E_q[log p] for q = Gamma(shape, rate), p = Gamma(shape0,
    rate0), with E_q[log x] = digamma(shape) - log(rate)."""
    entropy = float(stats.gamma(shape, scale=1.0 / rate).entropy())
    e_x, e_log_x = shape / rate, special.digamma(shape) - math.log(rate)
    e_log_p = (shape0 * math.log(rate0) - special.gammaln(shape0)
               + (shape0 - 1.0) * e_log_x - rate0 * e_x)
    return entropy, float(e_log_p), e_x, float(e_log_x)


def oracle_free_energy(w_mean, w_precision, gamma, xi, z_mean, z_precision,
                       prior_w_mean, prior_w_precision, prior_gamma, prior_xi,
                       zp_mean, zp_precision, u, y, cubic=True):
    """E_q[log q] - E_q[log p] of one step's variables x_next, w, gamma and
    xi, in matrix form.

    q(w) = N(w_mean, inv(w_precision)) over w = (theta, eta), q(z) likewise
    over z = (x_next, x), gamma and xi are (shape, rate) pairs, and the
    prior_* arguments are the step's prior, the previous state among them.
    The transition is N(x_next | psi'w, 1/gamma) with the surrogate
    regressor; its expected squared residual comes from quadrature. The
    entry x of q(z) is a copy of the previous x_next and adds nothing.
    """
    w_cov = np.linalg.inv(w_precision)
    z_cov = np.linalg.inv(z_precision)
    zp_cov = np.linalg.inv(zp_precision)
    n = len(w_mean)
    d = n - 1
    h_gamma, lp_gamma, e_gamma, e_log_gamma = _gamma_cross_entropy_terms(
        *gamma, *prior_gamma)
    h_xi, lp_xi, e_xi, e_log_xi = _gamma_cross_entropy_terms(*xi, *prior_xi)
    entropy = (_gaussian_entropy(np.array([[1.0 / z_cov[0, 0]]]))
               + _gaussian_entropy(w_precision) + h_gamma + h_xi)

    esr = oracle_expected_square_residual(
        z_mean, z_cov, zp_mean, zp_cov, w_mean[:d], w_cov[:d, :d],
        w_mean[d], w_cov[d, d], u, cubic=cubic, th_eta_cov=w_cov[:d, d])
    e_log_trans = (-0.5 * math.log(2.0 * np.pi) + 0.5 * e_log_gamma
                   - 0.5 * e_gamma * esr)
    e_log_lik = (-0.5 * math.log(2.0 * np.pi) + 0.5 * e_log_xi
                 - 0.5 * e_xi * ((y - z_mean[0]) ** 2 + z_cov[0, 0]))

    sign, prior_logdet = np.linalg.slogdet(prior_w_precision)
    assert sign > 0
    diff = np.asarray(w_mean) - np.asarray(prior_w_mean)
    e_log_prior_w = (-0.5 * n * math.log(2.0 * np.pi) + 0.5 * prior_logdet
                     - 0.5 * (diff @ prior_w_precision @ diff
                              + np.trace(prior_w_precision @ w_cov)))
    return float(-entropy - e_log_trans - e_log_lik
                 - (e_log_prior_w + lp_gamma + lp_xi))


# ---------------------------------------------------------------------------
# exact whole-run reference: conjugate Bayesian linear regression

def oracle_linear_regression(psi, y, prior_mean, prior_precision, gamma):
    """Posterior and log-evidence of y = psi w + e, e ~ N(0, I/gamma), under
    w ~ N(prior_mean, inv(prior_precision)) (Bishop, *Pattern Recognition
    and Machine Learning*, 2006, eqs. 3.50-3.51 and 3.86 with a general prior
    precision). Returns the posterior mean, its covariance and log p(y)."""
    psi, y = np.asarray(psi, dtype=float), np.asarray(y, dtype=float)
    m0 = np.asarray(prior_mean, dtype=float)
    precision = prior_precision + gamma * psi.T @ psi
    mean = np.linalg.solve(precision, prior_precision @ m0 + gamma * psi.T @ y)
    cov = np.linalg.solve(precision, np.eye(m0.size))
    (_, logdet0), (_, logdet) = (np.linalg.slogdet(prior_precision),
                                 np.linalg.slogdet(precision))
    resid, shift = y - psi @ mean, mean - m0
    log_evidence = (0.5 * y.size * (math.log(gamma) - math.log(2.0 * np.pi))
                    + 0.5 * (logdet0 - logdet)
                    - 0.5 * (gamma * resid @ resid + shift @ prior_precision @ shift))
    return mean, cov, float(log_evidence)
