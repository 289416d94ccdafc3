"""Online inference loop: per-step message schedule, variational updates
under the factorization q(z) q(theta, eta) q(gamma) q(xi), free-energy
evaluation and the frozen-parameter prediction protocols.

The drift coefficients theta and the input gain eta share one Gaussian
belief. Near resonance the input and the lagged states are strongly
correlated, and so are theta and eta; a factorized q(theta) q(eta) folds
coordinate-wise messages into the accumulated posterior and never corrects
along that direction, which leaves the online estimate biased.

Time indexing follows the first-order form z[t] = (x[t+1], x[t]): the
observation paired with a step measures the state *after* the input of that
step has acted, so a step consumes the input sample one position behind the
output sample. The simulator in `duffing` and both prediction protocols use
the same pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import gammaln

from .beliefs import (
    GammaBelief,
    GaussianBelief,
    combine_gamma,
    combine_gaussian,
    entropy_gamma,
    entropy_gaussian,
    gaussian_moments,
    independent,
    logdet_precision,
    split_last,
)
from .duffing import (
    DIVERGENCE_LIMIT,
    ArCoefficients,
    TimeSeries,
    UnstableSimulationError,
    step_mean,
)
from . import nlarx
from .nlarx import NodeConfig

_LOG_2PI = math.log(2.0 * math.pi)


class InferenceError(RuntimeError):
    """A belief update failed; carries the step index it failed at."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"inference failed at step {step}: {reason}")
        self.step = step


@dataclass(frozen=True)
class BeliefSet:
    """State at one time step under q(z) q(theta, eta) q(gamma) q(xi).

    `q_coeffs` is the one belief over the coefficients w = (theta, eta);
    `q_theta` and `q_eta` are read-only views of its marginals, computed on
    each access. Build `q_coeffs` from separate beliefs over theta and eta
    with `beliefs.independent`.
    """

    q_coeffs: GaussianBelief
    q_gamma: GammaBelief
    q_xi: GammaBelief
    q_state: GaussianBelief

    @property
    def q_theta(self) -> GaussianBelief:
        return split_last(self.q_coeffs)[0]

    @property
    def q_eta(self) -> GaussianBelief:
        return split_last(self.q_coeffs)[1]


@dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics; the prediction is taken before observing y."""

    t: int
    free_energy: float
    prediction_mean: float
    prediction_var: float
    free_energy_trace: tuple = ()


@dataclass(frozen=True)
class PriorConfig:
    """Priors and schedule settings.

    Defaults are the benchmark choices: coefficient priors centred at 1 with
    precision 0.1, informative noise priors (shape-rate convention), and a
    weakly informative unit state prior.
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


def step_update(
    beliefs: BeliefSet, u_t: float, y_t: float, cfg: PriorConfig, t: int = 0
) -> tuple[BeliefSet, StepReport]:
    """One online step: predict, then iterate the message schedule.

    Within every iteration the fresh messages are combined with the beliefs
    the step started from (the previous posteriors act as this step's
    priors), so repeated iterations refine rather than double-count the
    observation. The returned state belief becomes the next step's previous
    state.
    """
    ncfg = cfg.node_config(u_t)

    # 1-step-ahead predictive for y before the observation enters
    forward = nlarx.msg_forward_state(
        beliefs.q_state, beliefs.q_coeffs, beliefs.q_gamma, ncfg)
    pred_mean = float(forward.mean[0])
    pred_var = 1.0 / beliefs.q_gamma.mean + 1.0 / beliefs.q_xi.mean

    incoming = beliefs
    current = beliefs
    trace = []
    for _ in range(cfg.iterations_per_step):
        m9 = nlarx.msg_forward_state(
            incoming.q_state, current.q_coeffs, current.q_gamma, ncfg)
        m5 = nlarx.msg_likelihood_state(y_t, current.q_xi)
        q_z = combine_gaussian(m9, m5)

        m6 = nlarx.msg_coefficients(q_z, incoming.q_state, current.q_gamma, ncfg)
        q_coeffs = combine_gaussian(incoming.q_coeffs, m6)
        m8 = nlarx.msg_gamma(q_z, incoming.q_state, q_coeffs, ncfg)
        q_gamma = combine_gamma(incoming.q_gamma, m8)

        m11 = nlarx.msg_xi(y_t, q_z)
        q_xi = combine_gamma(incoming.q_xi, m11)

        current = BeliefSet(q_coeffs, q_gamma, q_xi, q_z)
        if cfg.trace_free_energy:
            trace.append(compute_free_energy(current, u_t, y_t, incoming, cfg))

    final_free_energy = (
        trace[-1] if trace
        else compute_free_energy(current, u_t, y_t, incoming, cfg))
    report = StepReport(
        t=t,
        free_energy=final_free_energy,
        prediction_mean=pred_mean,
        prediction_var=pred_var,
        free_energy_trace=tuple(trace),
    )
    return current, report


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
    prior = beliefs_prior_for_step
    ncfg = cfg.node_config(u_t)

    neg_entropy = -(
        entropy_gaussian(beliefs.q_state)
        + entropy_gaussian(beliefs.q_coeffs)
        + entropy_gamma(beliefs.q_gamma)
        + entropy_gamma(beliefs.q_xi)
    )

    # transition factor
    z_mean, z_cov = gaussian_moments(beliefs.q_state)
    zp_mean, zp_cov = gaussian_moments(prior.q_state)
    e_gamma = beliefs.q_gamma.mean
    q1 = nlarx.expected_square_residual(
        beliefs.q_state, prior.q_state, beliefs.q_coeffs, ncfg)
    q2 = (z_mean[1] - zp_mean[0]) ** 2 + z_cov[1, 1] + zp_cov[0, 0]
    e_log_trans = (
        -_LOG_2PI
        + 0.5 * (beliefs.q_gamma.mean_log - math.log(cfg.epsilon))
        - 0.5 * (e_gamma * q1 + q2 / cfg.epsilon)
    )

    # likelihood factor
    e_xi = beliefs.q_xi.mean
    e_log_lik = (
        -0.5 * _LOG_2PI
        + 0.5 * beliefs.q_xi.mean_log
        - 0.5 * e_xi * ((y_t - z_mean[0]) ** 2 + z_cov[0, 0])
    )

    e_log_priors = (
        _gaussian_cross(beliefs.q_coeffs, prior.q_coeffs)
        + _gamma_cross(beliefs.q_gamma, prior.q_gamma)
        + _gamma_cross(beliefs.q_xi, prior.q_xi)
    )

    free_energy = neg_entropy - e_log_trans - e_log_lik - e_log_priors
    if not math.isfinite(free_energy):
        raise RuntimeError(
            "non-finite free energy: "
            f"neg_entropy={neg_entropy}, transition={e_log_trans}, "
            f"likelihood={e_log_lik}, priors={e_log_priors}"
        )
    return float(free_energy)


def _gaussian_cross(q: GaussianBelief, prior: GaussianBelief) -> float:
    """E_q[log prior] for Gaussian q and prior."""
    mean, cov = gaussian_moments(q)
    logdet = logdet_precision(prior)
    diff = mean - prior.mean
    quad = float(diff @ prior.precision @ diff) + float(np.trace(prior.precision @ cov))
    return -0.5 * q.dim * _LOG_2PI + 0.5 * logdet - 0.5 * quad


def _gamma_cross(q: GammaBelief, prior: GammaBelief) -> float:
    """E_q[log prior] for Gamma q and prior."""
    return float(
        prior.shape * math.log(prior.rate)
        - gammaln(prior.shape)
        + (prior.shape - 1.0) * q.mean_log
        - prior.rate * q.mean
    )


def identify_stream(
    samples: Iterable[tuple[float, float]], cfg: PriorConfig
) -> tuple[BeliefSet, list[StepReport]]:
    """Fold the online update over a stream of (input, output) pairs.

    Single pass, O(1) memory in the stream length beyond the reports.
    """
    beliefs = initial_beliefs(cfg)
    reports: list[StepReport] = []
    for t, (u_t, y_t) in enumerate(samples):
        try:
            beliefs, report = step_update(beliefs, float(u_t), float(y_t), cfg, t=t)
        except (ValueError, RuntimeError) as exc:
            raise InferenceError(t, str(exc)) from exc
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
    predicted from the two true lagged outputs and the input that acts on
    this step. The first two samples are given and copied through."""
    coeffs = posterior_coefficients(beliefs_frozen)
    th, eta = coeffs.theta, coeffs.eta
    y, u = data.y, data.u
    pred = y.copy()
    if th.size == 3:
        drift = th[0] * y[1:-1] + th[1] * y[1:-1] ** 3 + th[2] * y[:-2]
    else:
        drift = th[0] * y[1:-1] + th[1] * y[:-2]
    pred[2:] = drift + eta * u[1:-1]
    return pred


def simulate_rollout(
    beliefs_frozen: BeliefSet, data: TimeSeries, cfg: PriorConfig
) -> np.ndarray:
    """Free simulation with frozen parameters: the state is seeded from the
    first two true outputs and then propagated noise-free on its own
    predictions."""
    coeffs = posterior_coefficients(beliefs_frozen)
    y, u = data.y, data.u
    pred = y.copy()
    z = np.array([y[1], y[0]])
    for t in range(2, len(y)):
        z = step_mean(coeffs, z, u[t - 1])
        if abs(z[0]) > DIVERGENCE_LIMIT:
            raise UnstableSimulationError(t)
        pred[t] = z[0]
    return pred


def evaluate_mse(predictions: np.ndarray, actual: np.ndarray) -> float:
    """Mean squared error between two aligned series."""
    predictions = np.asarray(predictions, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predictions.shape != actual.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape} vs {actual.shape}")
    return float(np.mean((predictions - actual) ** 2))
