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
the same pairing.

One online step is `step_update`. It predicts, then iterates the message
schedule; every iteration combines the fresh messages with the beliefs the
step started from (the previous posteriors act as this step's priors), so
repeated iterations refine rather than double-count the observation. It
computes the messages and posteriors on the arrays and floats those
beliefs carry, builds no belief per message, and builds the posterior
`BeliefSet` once, at the end. `identify_stream` folds it over the stream.
The `nlarx` messages, `combine_*` and `compute_free_energy` compose the
same step from belief objects and stay the tested reference.

Rounding rule: the step reproduces that composition bit for bit, so every
float operation keeps its order there. q(z) is scalar algebra, because its
precision is always diag(E[gamma] + E[xi], 1/eps) and the closed-form 2x2
inverse then rounds like scalar code; so are the Gamma updates. The
coefficient message's precision psi psi' + J Sigma J' is built once per
step with numpy and scaled by E[gamma] in every iteration, and the
coefficient posterior uses `GaussianBelief`'s closed-form inverse. The
coefficient mean `cov @ potential`, the forward mean and the expected
squared residual keep their numpy expressions (`nlarx.forward_mean`,
`nlarx.residual_moment`): the BLAS may fuse their multiply-adds, which
scalar code cannot reproduce. The step and `compute_free_energy` evaluate
the free energy with one function, `_free_energy`; the step hands it the
expected squared residual of its gamma update, which has the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.special import digamma, gammaln

from .beliefs import (
    GammaBelief,
    GaussianBelief,
    ImproperBeliefError,
    closed_form_inverse,
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
from .duffing import (
    DIVERGENCE_LIMIT,
    ArCoefficients,
    TimeSeries,
    UnstableSimulationError,
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


def _require_proper(beliefs: BeliefSet) -> None:
    if (beliefs.q_coeffs.cov is None or beliefs.q_state.cov is None
            or not (beliefs.q_gamma.is_proper and beliefs.q_xi.is_proper)):
        raise ImproperBeliefError("moments undefined for improper belief")


def step_update(
    beliefs: BeliefSet, u_t: float, y_t: float, cfg: PriorConfig, t: int = 0
) -> tuple[BeliefSet, StepReport]:
    """One online step: predict, then iterate the message schedule (see the
    module docstring). The returned state belief becomes the next step's
    previous state."""
    u, y = float(u_t), float(y_t)
    if not (math.isfinite(u) and math.isfinite(y)):
        raise ValueError(f"non-finite input/output sample: u={u!r}, y={y!r}")
    _require_proper(beliefs)
    prec0, pot0 = beliefs.q_coeffs.precision, beliefs.q_coeffs.potential
    w = beliefs.q_coeffs.mean
    ag0, bg0 = beliefs.q_gamma.shape, beliefs.q_gamma.rate
    ax0, bx0 = beliefs.q_xi.shape, beliefs.q_xi.rate
    zp_mean, zp_cov = beliefs.q_state.mean, beliefs.q_state.cov
    d = cfg.n_coeffs
    eps = cfg.epsilon
    inv_eps = 1.0 / eps
    last = cfg.iterations_per_step - 1
    psi = nlarx.regressor_psi(zp_mean, d, u)
    jac = nlarx.regressor_jacobian(zp_mean, d)
    # precision of the coefficient message per unit E[gamma]; exactly symmetric
    info = psi[:, None] * psi
    info[:d, :d] += jac @ zp_cov @ jac.T
    hz1 = inv_eps * zp_mean[0]
    ag = ag0 + 1.5 - 1.0
    ax = ax0 + 1.5 - 1.0
    eg, ex = ag0 / bg0, ax0 / bx0
    pred_var = 1.0 / eg + 1.0 / ex
    trace = []
    for k in range(cfg.iterations_per_step):
        # the scalar algebra below runs on Python floats, which round like
        # numpy scalars at a fraction of their cost per operation
        forward = float(nlarx.forward_mean(w, psi))
        if k == 0:  # the prediction, taken before y enters
            pred_mean = forward

        # q(z): forward message N((forward, zp0), diag(E[gamma], 1/eps)) times
        # the likelihood message; its precision is diag(E[gamma] + E[xi], 1/eps)
        za = eg + ex
        zdet = za * inv_eps
        if not (za > 0.0 and zdet > 0.0):
            raise ImproperBeliefError("improper posterior")
        zc00, zc11 = inv_eps / zdet, za / zdet
        hz0 = eg * forward + ex * y
        zm0 = zc00 * hz0

        # q(w): prior for the step plus the coefficient message
        prec = prec0 + eg * info
        pot = pot0 + psi * (eg * zm0)
        inverse = closed_form_inverse(prec)
        if inverse is None:
            raise ImproperBeliefError("improper posterior")
        cov_w, det_w = inverse
        w = cov_w @ pot

        esr = float(nlarx.residual_moment(zm0, zc00, zp_cov, w, cov_w, psi, jac))
        rate = 0.5 * esr
        if rate < 0:
            raise RuntimeError(
                f"negative gamma message rate {rate}: moment bookkeeping bug")
        bg = bg0 + rate
        bx = bx0 + 0.5 * ((y - zm0) ** 2 + zc00)
        if not (bg > 0.0 and bx > 0.0):
            raise ImproperBeliefError("improper posterior")
        eg, ex = ag / bg, ax / bx

        if cfg.trace_free_energy or k == last:
            q_coeffs = GaussianBelief._from_parts(
                prec, pot, w, cov_w, math.log(det_w))
            # q(z) as `combine_gaussian` builds it: its closed-form inverse
            # puts -0.0 off the diagonal of the covariance
            q_state = GaussianBelief._from_parts(
                np.array([[za, 0.0], [0.0, inv_eps]]), np.array([hz0, hz1]),
                np.array([zm0, zc11 * hz1]),
                np.array([[zc00, -0.0], [-0.0, zc11]]), math.log(zdet))
            trace.append(_free_energy(q_coeffs, q_state, ag, bg, ax, bx,
                                      beliefs, esr, y, eps))

    report = StepReport(
        t=t,
        free_energy=trace[-1],
        prediction_mean=pred_mean,
        prediction_var=pred_var,
        free_energy_trace=tuple(trace) if cfg.trace_free_energy else (),
    )
    posterior = BeliefSet(q_coeffs, GammaBelief(ag, bg), GammaBelief(ax, bx),
                          q_state)
    return posterior, report


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
    esr = nlarx.expected_square_residual(
        beliefs.q_state, beliefs_prior_for_step.q_state, beliefs.q_coeffs,
        cfg.node_config(u_t))
    q_gamma, q_xi = beliefs.q_gamma, beliefs.q_xi
    return _free_energy(beliefs.q_coeffs, beliefs.q_state, q_gamma.shape,
                        q_gamma.rate, q_xi.shape, q_xi.rate,
                        beliefs_prior_for_step, esr, y_t, cfg.epsilon)


def _free_energy(
    q_coeffs: GaussianBelief, q_state: GaussianBelief, ag: float, bg: float,
    ax: float, bx: float, prior: BeliefSet, esr: float, y: float, eps: float,
) -> float:
    """`compute_free_energy` from q(w), q(z), the Gamma shapes and rates of
    q(gamma) and q(xi), the step's prior and the expected squared residual
    of q(z), q(w) and the previous state."""
    ag0, bg0 = prior.q_gamma.shape, prior.q_gamma.rate
    ax0, bx0 = prior.q_xi.shape, prior.q_xi.rate
    dg_g, dg_x = digamma(ag), digamma(ax)
    n = q_coeffs.mean.size
    e_gamma, log_gamma = ag / bg, float(dg_g - math.log(bg))
    e_xi, log_xi = ax / bx, float(dg_x - math.log(bx))
    z_mean, z_cov = q_state.mean, q_state.cov

    neg_entropy = -(
        0.5 * (2 * (1.0 + _LOG_2PI) - q_state.logdet)
        + 0.5 * (n * (1.0 + _LOG_2PI) - q_coeffs.logdet)
        + float(ag - math.log(bg) + gammaln(ag) + (1.0 - ag) * dg_g)
        + float(ax - math.log(bx) + gammaln(ax) + (1.0 - ax) * dg_x)
    )

    # transition factor
    zp_mean, zp_cov = prior.q_state.mean, prior.q_state.cov
    q2 = (z_mean[1] - zp_mean[0]) ** 2 + z_cov[1, 1] + zp_cov[0, 0]
    e_log_trans = (
        -_LOG_2PI
        + 0.5 * (log_gamma - math.log(eps))
        - 0.5 * (e_gamma * esr + q2 / eps)
    )

    # likelihood factor
    e_log_lik = (
        -0.5 * _LOG_2PI
        + 0.5 * log_xi
        - 0.5 * e_xi * ((y - z_mean[0]) ** 2 + z_cov[0, 0])
    )

    # E_q[log prior] of the coefficient, gamma and xi priors
    lam0 = prior.q_coeffs.precision
    diff = q_coeffs.mean - prior.q_coeffs.mean
    quad = float(diff @ lam0 @ diff) + float(np.trace(lam0 @ q_coeffs.cov))
    e_log_priors = (
        (-0.5 * n * _LOG_2PI + 0.5 * prior.q_coeffs.logdet - 0.5 * quad)
        + float(ag0 * math.log(bg0) - gammaln(ag0)
                + (ag0 - 1.0) * log_gamma - bg0 * e_gamma)
        + float(ax0 * math.log(bx0) - gammaln(ax0)
                + (ax0 - 1.0) * log_xi - bx0 * e_xi)
    )

    free_energy = neg_entropy - e_log_trans - e_log_lik - e_log_priors
    if not math.isfinite(free_energy):
        raise RuntimeError(
            "non-finite free energy: "
            f"neg_entropy={neg_entropy}, transition={e_log_trans}, "
            f"likelihood={e_log_lik}, priors={e_log_priors}"
        )
    return float(free_energy)


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
            beliefs, report = step_update(beliefs, u_t, y_t, cfg, t)
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
    th = coeffs.theta.tolist()
    th1, th2, th3 = th if len(th) == 3 else (th[0], 0.0, th[1])
    eta = coeffs.eta
    pred = data.y.copy()
    # memoryviews read and write Python floats without copying the series
    out = memoryview(pred)
    x, x_prev = out[1], out[0]
    for t, u in enumerate(memoryview(data.u)[1:-1], start=2):
        # the noise-free recursion of `duffing.simulate`
        x, x_prev = th1 * x + th2 * x ** 3 + th3 * x_prev + eta * u, x
        if abs(x) > DIVERGENCE_LIMIT:
            raise UnstableSimulationError(t)
        out[t] = x
    return pred


def evaluate_mse(predictions: np.ndarray, actual: np.ndarray) -> float:
    """Mean squared error between two aligned series."""
    predictions = np.asarray(predictions, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if predictions.shape != actual.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape} vs {actual.shape}")
    return float(np.mean((predictions - actual) ** 2))
