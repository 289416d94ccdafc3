"""Online inference loop: per-step variational updates under the
factorization q(z) q(theta, eta) q(gamma) q(xi), free-energy evaluation and
the frozen-parameter prediction protocols.

The drift coefficients theta and the input gain eta share one Gaussian
belief. Near resonance the input and the lagged states are strongly
correlated, and so are theta and eta; a factorized q(theta) q(eta) folds
coordinate-wise messages into the accumulated posterior and never corrects
along that direction, which leaves the online estimate biased.

Time indexing follows the first-order form z[t] = (x[t+1], x[t]): the
observation paired with a step measures the state *after* the input of that
step has acted, so a step consumes the input sample one position behind the
output sample. The simulator in `duffing` and both prediction protocols use
the same pairing; the rollout runs the simulator's own recursion,
`duffing.propagate`.

One online step is `step_update`. It predicts, then sweeps the message
schedule; every sweep combines the fresh messages with the beliefs the step
started from (the previous posteriors act as this step's priors), so
repeated sweeps refine rather than double-count the observation. From the
second sweep on it stops once a sweep moved every coefficient mean by less
than `CONVERGENCE_TOL` of its posterior sd and E[gamma] by less than
`CONVERGENCE_TOL` relative; `PriorConfig.iterations_per_step` caps the
sweeps. It builds no belief per message and the posterior `BeliefSet` once,
at the end. `identify_stream` folds it over the stream. The `nlarx`
messages, `combine_*` and `compute_free_energy` compose the same step from
belief objects and stay the tested reference.

Rounding rule: the step reproduces that composition bit for bit, so every
float operation keeps its order there. What the previous state and the
step's prior fix is computed once per step, as floats and lists: psi
(`nlarx.regressor_psi`), J Sigma_zprev J' (`nlarx.regressor_spread`), the
coefficient message's precision per unit E[gamma]
(`nlarx.coefficient_information`, one flat list) and what the prior gives
the free energy (`_prior_terms`). The forward mean and the expected squared
residual are scalar code shared with the messages (`nlarx.forward_mean`,
`nlarx.residual_moment`); a sweep computes the forward mean once, for its
residual and for the next sweep's q(z). q(z) and the Gamma updates are
scalar algebra too: q(z)'s precision is always diag(E[gamma] + E[xi],
1/eps), and the closed-form 2x2 inverse then rounds like scalar code. The
coefficient posterior's precision `prec0 + E[gamma] info` is a numpy sum,
`beliefs.closed_form_inverse` inverts it on nested lists, and its mean stays
the numpy product `cov @ potential`, whose multiply-adds the BLAS may fuse;
a sum in floats rounds differently. The step and `compute_free_energy`
share `_free_energy`, which runs on floats; the step hands it the expected
squared residual of its gamma update. Its squares stay `** 2`, libm's pow,
which rounds differently from `x * x` about once in a thousand.

Failure contract: `step_update(..., t)` raises `InferenceError` with
`.step == t` for every failure it detects inside the step: an input or
output sample that is not a finite float, a non-finite coefficient message
precision, state mean, coefficient mean or expected squared residual
("diverged", caught before numpy can overflow on it), an improper posterior,
a negative gamma message rate and a non-finite free energy. Only an
improper incoming belief raises `ImproperBeliefError`, which carries no
step. `identify_stream` passes these errors on unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.special import digamma, gammaln

from .beliefs import (
    GammaBelief,
    GaussianBelief,
    ImproperBeliefError,
    closed_form_inverse,
    expected_quadratic,
    independent,
    split_last,
)
# not called here; the benchmark's span tracer looks them up in this module
from .beliefs import (  # noqa: F401
    combine_gamma,
    combine_gaussian,
    entropy_gamma,
    entropy_gaussian,
)
from .duffing import step_mean  # noqa: F401
from .duffing import (ArCoefficients, TimeSeries, UnstableSimulationError,
                      cubic_theta, propagate)
from . import nlarx
from .nlarx import NodeConfig

_LOG_2PI = math.log(2.0 * math.pi)

# a step stops sweeping once a sweep moves every coefficient mean by less
# than this fraction of its posterior sd and E[gamma] by less than this
# fraction of itself; `PriorConfig.iterations_per_step` caps the sweeps
CONVERGENCE_TOL = 1e-6


class InferenceError(RuntimeError):
    """A belief update failed; carries the step index it failed at."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"inference failed at step {step}: {reason}")
        self.step = step


@dataclass(frozen=True)
class BeliefSet:
    """State at one time step under q(z) q(theta, eta) q(gamma) q(xi).

    `q_coeffs` is the one belief over the coefficients w = (theta, eta);
    `q_theta` and `q_eta` are read-only views of its marginals, split from
    it once, on first access. Build `q_coeffs` from separate beliefs over
    theta and eta with `beliefs.independent`.
    """

    q_coeffs: GaussianBelief
    q_gamma: GammaBelief
    q_xi: GammaBelief
    q_state: GaussianBelief

    @cached_property
    def _marginals(self) -> tuple[GaussianBelief, GaussianBelief]:
        return split_last(self.q_coeffs)

    @property
    def q_theta(self) -> GaussianBelief:
        return self._marginals[0]

    @property
    def q_eta(self) -> GaussianBelief:
        return self._marginals[1]


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics; the prediction is taken before observing y.
    `iterations` is the number of sweeps the step ran."""

    t: int
    free_energy: float
    prediction_mean: float
    prediction_var: float
    iterations: int
    free_energy_trace: tuple = ()


@dataclass(frozen=True)
class PriorConfig:
    """Priors and schedule settings.

    Defaults are the benchmark choices: coefficient priors centred at 1 with
    precision 0.1, informative noise priors (shape-rate convention), and a
    weakly informative unit state prior. `iterations_per_step` caps the
    sweeps of a step, which stops earlier once it settles.
    """

    m0_theta: tuple = (1.0, 1.0, 1.0)
    v0_theta: float = 10.0
    m0_eta: float = 1.0
    v0_eta: float = 10.0
    a0_gamma: float = 1e3
    b0_gamma: float = 1e1
    a0_xi: float = 1e8
    b0_xi: float = 1e3
    state0_mean: tuple = (0.0, 0.0)
    state0_cov: float = 1.0
    epsilon: float = 1e-8
    iterations_per_step: int = 5
    model_mode: str = "nlarx"
    trace_free_energy: bool = False

    def __post_init__(self):
        if self.model_mode not in ("nlarx", "larx"):
            raise ValueError(f"unknown model mode {self.model_mode!r}")
        if self.iterations_per_step < 1:
            raise ValueError("iterations_per_step must be at least 1")
        for name in ("v0_theta", "v0_eta", "a0_gamma", "b0_gamma", "a0_xi",
                     "b0_xi", "state0_cov", "epsilon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def n_coeffs(self) -> int:
        return 3 if self.model_mode == "nlarx" else 2

    def node_config(self, u: float) -> NodeConfig:
        return NodeConfig(u=u, epsilon=self.epsilon, cubic=self.model_mode == "nlarx")


def initial_beliefs(cfg: PriorConfig) -> BeliefSet:
    """Belief set holding the configured priors."""
    m0 = np.asarray(cfg.m0_theta, dtype=float)
    if cfg.n_coeffs == 2 and m0.size == 3:
        m0 = m0[[0, 2]]  # drop the cubic coefficient in linear mode
    if m0.size != cfg.n_coeffs:
        raise ValueError("m0_theta size does not match the model mode")
    return BeliefSet(
        q_coeffs=independent(
            GaussianBelief(m0, np.eye(cfg.n_coeffs) / cfg.v0_theta),
            GaussianBelief([cfg.m0_eta], [[1.0 / cfg.v0_eta]])),
        q_gamma=GammaBelief(cfg.a0_gamma, cfg.b0_gamma),
        q_xi=GammaBelief(cfg.a0_xi, cfg.b0_xi),
        q_state=GaussianBelief(np.asarray(cfg.state0_mean, dtype=float),
                               np.eye(2) / cfg.state0_cov),
    )


def _require_proper(beliefs: BeliefSet) -> None:
    if (beliefs.q_coeffs.cov is None or beliefs.q_state.cov is None
            or not (beliefs.q_gamma.is_proper and beliefs.q_xi.is_proper)):
        raise ImproperBeliefError("moments undefined for improper belief")


def step_update(
    beliefs: BeliefSet, u_t: float, y_t: float, cfg: PriorConfig, t: int = 0
) -> tuple[BeliefSet, StepReport]:
    """One online step: predict, then sweep the message schedule until it
    settles (see the module docstring). The returned state belief becomes
    the next step's previous state."""
    try:
        u, y = float(u_t), float(y_t)
    except (TypeError, ValueError) as exc:
        raise InferenceError(
            t, f"unconvertible input/output sample: {exc}") from exc
    if not (math.isfinite(u) and math.isfinite(y)):
        raise InferenceError(
            t, f"non-finite input/output sample: u={u!r}, y={y!r}")
    _require_proper(beliefs)
    prec0, pot0 = beliefs.q_coeffs.precision, beliefs.q_coeffs.potential
    ag0, bg0 = beliefs.q_gamma.shape, beliefs.q_gamma.rate
    ax0, bx0 = beliefs.q_xi.shape, beliefs.q_xi.rate
    zp_mean, zp_cov = beliefs.q_state.mean, beliefs.q_state.cov
    d = cfg.n_coeffs
    inv_eps = 1.0 / cfg.epsilon
    last = cfg.iterations_per_step - 1
    # fixed within the step: what the prior gives the free energy, psi,
    # J Sigma_zprev J' and the precision of the coefficient message per
    # unit E[gamma]
    prior = _prior_terms(beliefs, cfg.epsilon)
    psi = nlarx.regressor_psi(zp_mean, d, u)
    spread = nlarx.regressor_spread(zp_mean, zp_cov, d)
    info = nlarx.coefficient_information(psi, spread)
    if not all(map(math.isfinite, info)):
        raise InferenceError(t, "diverged: non-finite coefficient message precision")
    info = np.array(info).reshape(d + 1, d + 1)
    psi_array = np.array(psi)
    hz1 = inv_eps * float(zp_mean[0])
    ag = ag0 + 1.5 - 1.0
    ax = ax0 + 1.5 - 1.0
    eg, ex = ag0 / bg0, ax0 / bx0
    pred_var = 1.0 / eg + 1.0 / ex
    w_list = beliefs.q_coeffs.mean.tolist()
    # the prediction, taken before y enters
    pred_mean = forward = nlarx.forward_mean(w_list, psi)
    trace = []
    for k in range(cfg.iterations_per_step):
        # the scalar algebra below runs on Python floats, which round like
        # numpy scalars at a fraction of their cost per operation
        # q(z): forward message N((forward, zp0), diag(E[gamma], 1/eps)) times
        # the likelihood message; its precision is diag(E[gamma] + E[xi], 1/eps)
        za = eg + ex
        zdet = za * inv_eps
        if not (za > 0.0 and zdet > 0.0):
            raise InferenceError(t, "improper posterior")
        zc00, zc11 = inv_eps / zdet, za / zdet
        hz0 = eg * forward + ex * y
        zm0 = zc00 * hz0
        if not math.isfinite(zm0):
            raise InferenceError(t, "diverged: non-finite state mean")

        # q(w): prior for the step plus the coefficient message
        prec = prec0 + eg * info
        pot = pot0 + psi_array * (eg * zm0)
        inverse = closed_form_inverse(prec.tolist())
        if inverse is None:
            raise InferenceError(t, "improper posterior")
        cov_list, det_w = inverse
        cov_w = np.array(cov_list)
        w = cov_w @ pot
        w_previous, w_list = w_list, w.tolist()
        if not all(map(math.isfinite, w_list)):
            raise InferenceError(t, "diverged: non-finite coefficient mean")

        forward = nlarx.forward_mean(w_list, psi)
        esr = nlarx.residual_moment(zm0 - forward, zc00, w_list, cov_list,
                                    psi, spread)
        if not math.isfinite(esr):
            raise InferenceError(t, "diverged: non-finite expected squared residual")
        rate = 0.5 * esr
        if rate < 0:
            raise InferenceError(
                t, f"negative gamma message rate {rate}: moment bookkeeping bug")
        bg = bg0 + rate
        miss = y - zm0
        bx = bx0 + 0.5 * (miss * miss + zc00)
        if not (bg > 0.0 and bx > 0.0):
            raise InferenceError(t, "improper posterior")
        eg_previous = eg
        eg, ex = ag / bg, ax / bx

        done = k == last or (k > 0 and _settled(
            w_list, w_previous, cov_list, eg, eg_previous))
        if cfg.trace_free_energy or done:
            logdet_w, logdet_z = math.log(det_w), math.log(zdet)
            zm1 = zc11 * hz1
            energy = _free_energy(prior, w_list, cov_list, logdet_w,
                                  (zm0, zm1, zc00, zc11, logdet_z),
                                  ag, bg, ax, bx, esr, y)
            if not math.isfinite(energy):
                raise InferenceError(t, f"non-finite free energy {energy}")
            trace.append(energy)
        if done:
            break

    report = StepReport(
        t=t,
        free_energy=trace[-1],
        prediction_mean=pred_mean,
        prediction_var=pred_var,
        iterations=k + 1,
        free_energy_trace=tuple(trace) if cfg.trace_free_energy else (),
    )
    # the posterior of the last sweep, which always evaluated the free
    # energy. q(z) as `combine_gaussian` builds it, from one buffer:
    # precision, potential, mean, covariance; its closed-form inverse puts
    # -0.0 off the diagonal of the covariance
    z = np.array([za, 0.0, 0.0, inv_eps, hz0, hz1, zm0, zm1,
                  zc00, -0.0, -0.0, zc11])
    q_state = GaussianBelief._from_parts(
        z[:4].reshape(2, 2), z[4:6], z[6:8], z[8:].reshape(2, 2), logdet_z)
    q_coeffs = GaussianBelief._from_parts(prec, pot, w, cov_w, logdet_w)
    posterior = BeliefSet(q_coeffs, GammaBelief(ag, bg), GammaBelief(ax, bx),
                          q_state)
    return posterior, report


def _settled(w_mean: list[float], w_previous: list[float],
             w_cov: list[list[float]], e_gamma: float,
             e_gamma_previous: float) -> bool:
    """Whether the last sweep moved every coefficient mean by less than
    `CONVERGENCE_TOL` of its posterior sd and E[gamma] by less than
    `CONVERGENCE_TOL` relative."""
    if not abs(e_gamma - e_gamma_previous) < CONVERGENCE_TOL * e_gamma:
        return False
    for i, (now, before) in enumerate(zip(w_mean, w_previous)):
        if not abs(now - before) < CONVERGENCE_TOL * math.sqrt(w_cov[i][i]):
            return False
    return True


def compute_free_energy(
    beliefs: BeliefSet,
    u_t: float,
    y_t: float,
    beliefs_prior_for_step: BeliefSet,
    cfg: PriorConfig,
) -> float:
    """Single-timestep free energy E_q[log q] - E_q[log p], with the same
    affine surrogate the messages use. The previous-state belief is held
    fixed and enters only through the transition expectation."""
    _require_proper(beliefs)
    _require_proper(beliefs_prior_for_step)
    q_coeffs, q_state = beliefs.q_coeffs, beliefs.q_state
    esr = nlarx.expected_square_residual(
        q_state, beliefs_prior_for_step.q_state, q_coeffs,
        cfg.node_config(u_t))
    zm0, zm1 = q_state.mean.tolist()
    (zc00, _), (_, zc11) = q_state.cov.tolist()
    energy = _free_energy(
        _prior_terms(beliefs_prior_for_step, cfg.epsilon),
        q_coeffs.mean.tolist(), q_coeffs.cov.tolist(), q_coeffs.logdet,
        (zm0, zm1, zc00, zc11, q_state.logdet),
        beliefs.q_gamma.shape, beliefs.q_gamma.rate,
        beliefs.q_xi.shape, beliefs.q_xi.rate, esr, float(y_t))
    if not math.isfinite(energy):
        raise RuntimeError(f"non-finite free energy {energy}")
    return energy


def _prior_terms(prior: BeliefSet, eps: float) -> tuple:
    """What a step's prior fixes in its free energy, as floats and lists:
    q(w)'s precision (nested lists), mean (list) and log-determinant, the
    shape and rate of q(gamma) and of q(xi), the previous position's mean
    and variance, and eps."""
    q_coeffs, q_gamma, q_xi = prior.q_coeffs, prior.q_gamma, prior.q_xi
    return (q_coeffs.precision.tolist(), q_coeffs.mean.tolist(),
            q_coeffs.logdet, q_gamma.shape, q_gamma.rate, q_xi.shape,
            q_xi.rate, float(prior.q_state.mean[0]),
            float(prior.q_state.cov[0, 0]), eps)


def _free_energy(
    prior: tuple, w_mean: list[float], w_cov: list[list[float]],
    w_logdet: float, z: tuple, ag: float, bg: float, ax: float, bx: float,
    esr: float, y: float,
) -> float:
    """`compute_free_energy` on floats: the step's `_prior_terms`; the mean,
    covariance and precision log-determinant of q(w); q(z) as (mean of
    x_next, mean of x, variance of x_next, variance of x, precision
    log-determinant); the Gamma shapes and rates of q(gamma) and q(xi); the
    expected squared residual of q(z), q(w) and the previous state; and y."""
    prec0, mean0, logdet0, ag0, bg0, ax0, bx0, zp0, zp_var, eps = prior
    zm0, zm1, zv0, zv1, z_logdet = z
    dg_g, dg_x = float(digamma(ag)), float(digamma(ax))
    n = len(w_mean)
    e_gamma, log_gamma = ag / bg, dg_g - math.log(bg)
    e_xi, log_xi = ax / bx, dg_x - math.log(bx)

    neg_entropy = -(
        0.5 * (2 * (1.0 + _LOG_2PI) - z_logdet)
        + 0.5 * (n * (1.0 + _LOG_2PI) - w_logdet)
        + (ag - math.log(bg) + float(gammaln(ag)) + (1.0 - ag) * dg_g)
        + (ax - math.log(bx) + float(gammaln(ax)) + (1.0 - ax) * dg_x)
    )

    try:  # a float power raises where numpy's gave inf
        q2 = (zm1 - zp0) ** 2 + zv1 + zp_var
        miss2 = (y - zm0) ** 2
    except OverflowError:
        return math.inf

    # transition factor
    e_log_trans = (
        -_LOG_2PI
        + 0.5 * (log_gamma - math.log(eps))
        - 0.5 * (e_gamma * esr + q2 / eps)
    )

    # likelihood factor
    e_log_lik = -0.5 * _LOG_2PI + 0.5 * log_xi - 0.5 * e_xi * (miss2 + zv0)

    # E_q[log prior] of the coefficient, gamma and xi priors
    quad = expected_quadratic(
        prec0, [w_i - m_i for w_i, m_i in zip(w_mean, mean0)], w_cov)
    e_log_priors = (
        (-0.5 * n * _LOG_2PI + 0.5 * logdet0 - 0.5 * quad)
        + (ag0 * math.log(bg0) - float(gammaln(ag0))
           + (ag0 - 1.0) * log_gamma - bg0 * e_gamma)
        + (ax0 * math.log(bx0) - float(gammaln(ax0))
           + (ax0 - 1.0) * log_xi - bx0 * e_xi)
    )

    return neg_entropy - e_log_trans - e_log_lik - e_log_priors


def identify_stream(
    samples: Iterable[tuple[float, float]], cfg: PriorConfig
) -> tuple[BeliefSet, list[StepReport]]:
    """Fold the online update over a stream of (input, output) pairs.

    Single pass that keeps one `StepReport` per step.
    """
    beliefs = initial_beliefs(cfg)
    reports: list[StepReport] = []
    for t, (u_t, y_t) in enumerate(samples):
        beliefs, report = step_update(beliefs, u_t, y_t, cfg, t)
        reports.append(report)
    if not reports:
        raise ValueError("insufficient data: empty sample stream")
    return beliefs, reports


def identify(data: TimeSeries, cfg: PriorConfig) -> tuple[BeliefSet, list[StepReport]]:
    """Online identification over a full series: the step for output y[t]
    consumes the input u[t-1] that produced it (t starting at the second
    sample)."""
    if len(data) < 3:
        raise ValueError("insufficient data: need at least 3 samples")
    pairs = zip(data.u[:-1], data.y[1:])
    return identify_stream(pairs, cfg)


def posterior_coefficients(beliefs: BeliefSet) -> ArCoefficients:
    """Point estimates (posterior means) in autoregressive form."""
    mean = beliefs.q_coeffs.mean
    return ArCoefficients(
        theta=mean[:-1].copy(),
        eta=float(mean[-1]),
        gamma=beliefs.q_gamma.mean,
    )


def predict_onestep(
    beliefs_frozen: BeliefSet, data: TimeSeries, cfg: PriorConfig
) -> np.ndarray:
    """1-step-ahead predictions with frozen parameters: each output is
    `duffing.propagate`'s drift of the two true lagged outputs plus the
    input that acts on this step, vectorized. The first two samples are
    given and copied through. A prediction that is not finite raises
    `UnstableSimulationError(t)`, as in the rollout."""
    coeffs = posterior_coefficients(beliefs_frozen)
    th1, th2, th3 = cubic_theta(coeffs.theta)
    y, u = data.y, data.u
    pred = y.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        drift = th1 * y[1:-1]
        if th2:  # 0 in LARX: skip the cube, whose pow costs 17x the rest
            drift += th2 * y[1:-1] ** 3
        pred[2:] = drift + th3 * y[:-2] + coeffs.eta * u[1:-1]
    bad = ~np.isfinite(pred)
    if bad.any():
        raise UnstableSimulationError(int(bad.argmax()))
    return pred


def simulate_rollout(
    beliefs_frozen: BeliefSet, data: TimeSeries, cfg: PriorConfig
) -> np.ndarray:
    """Free simulation with frozen parameters: the state is seeded from the
    first two true outputs and then propagated on its own predictions by the
    noise-free recursion `duffing.propagate`, driven by the input alone."""
    return propagate(posterior_coefficients(beliefs_frozen), data.u,
                     data.y.copy())


def evaluate_mse(predictions: np.ndarray, actual: np.ndarray) -> float:
    """Mean squared error between two aligned series."""
    predictions = np.asarray(predictions, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predictions.shape != actual.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape} vs {actual.shape}")
    return float(np.mean((predictions - actual) ** 2))
