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

q(z)'s x[t] is a copy of the previous x[t+1], tied to it by a Gaussian of
variance `EPSILON`, for the next step's regressor. The free energy F counts
only the step's own variables x[t+1], w, gamma and xi; a copy is an
equality, which adds nothing, so F does not depend on `EPSILON`.

One online step is the kernel `step_update`. It predicts, then sweeps the
message schedule; every sweep combines the fresh messages with the beliefs
the step started from (the previous posteriors act as this step's priors),
so repeated sweeps refine rather than double-count the observation. From
the second sweep on it stops once a sweep moved every coefficient mean by
less than `CONVERGENCE_TOL` of its posterior sd and E[gamma] by less than
`CONVERGENCE_TOL` relative; `PriorConfig.iterations_per_step` caps the
sweeps. The kernel reads and returns the beliefs in its own float form,
the carry (`_carry`): q(w) and q(z) as one flat tuple of floats each (the
upper triangles of precision and covariance, the -0.0 off the diagonal of
q(z)'s covariance kept), the Gamma shapes and rates, and lgamma of each
shape and log of each rate, which the next step's free energy reads as its
prior's. A `BeliefSet` holds the carry: `step_update` reads a set's carry
and returns a set that holds only its own, which builds its numpy beliefs
only when one is read, each Gaussian by `GaussianBelief.from_natural` from
its precision and potential, which inverts and sums the mean as the kernel
does; the carry's mean, covariance and log-determinant are the kernel's
alone. `identify_stream` is a fold of `step_update`, so
the batch and the per-sample API run one path on one state form. The
`nlarx` messages, `combine_*` and `compute_free_energy` compose the same
step from belief objects and stay the tested reference.

Rounding rule: the kernel reproduces that composition's estimates bit for
bit, so every float operation that enters one keeps its order there; the
free energy, which no estimate reads, takes a shorter form (below). No numpy
runs inside a step, and a step builds no list. Once per step it writes out
psi and J Sigma_zprev J' as `nlarx.regressor_psi` and `regressor_spread`
compute them, the precision per E[gamma] of `nlarx.msg_coefficients` and the
prediction, and it computes the free energy's terms that no sweep moves. A
sweep holds q(w) in local floats, written out once per coefficient count:
the distinct entries of its symmetric precision and covariance (10 for
NLARX, 6 for LARX). The precision `prec0 + E[gamma] info` and potential
`pot0 + psi (E[gamma] E[x])` are float expressions entry by entry, as
numpy's elementwise ufuncs round them; the kernel inverts the precision in
`beliefs.inverse_3x3`'s operations and, for NLARX, `inverse_4x4`'s, so a
step calls no other function of the package. The mean, the forward mean
E[w]'psi and the expected squared residual (as
`nlarx.expected_square_residual` sums it) are sums left to right, as
`beliefs.dot` sums them, so no BLAS kernel enters an estimate. The carry's upper triangles stand for the whole: a_ij + s b_ij
is exactly symmetric when a and b are, and a float product commutes exactly.
q(z) and the Gamma updates are scalar algebra: q(z)'s precision is always
diag(E[gamma] + E[xi], 1/EPSILON).

The kernel evaluates F only right after a sweep has updated q(gamma) and
q(xi) from that sweep's expected squared residual esr and state miss. There
`compute_free_energy`'s general formula collapses to the variational-Bayes
closed form (Beal, "Variational algorithms for approximate Bayesian
inference", 2003, ch. 2): the KL of q(w) to its prior, x_next's log-variance
and a log b per noise precision. With n coefficients, a_g, b_g the shape and
rate of q(gamma), a_x, b_x those of q(xi), and 0 marking the step's prior,

    F = K + (log det Lambda_w + E[(w - m0)' Lambda0 (w - m0)]
             - log Var[x_next]) / 2 + a_g log b_g + a_x log b_x,
    K = -(log det Lambda0 + n + 1 - log 2 pi) / 2 - a_g0 log b_g0
        - a_x0 log b_x0 - (lgamma a_g - lgamma a_g0) - (lgamma a_x - lgamma a_x0),

since at b_g = b_g0 + esr / 2 the energy E[gamma] (b_g0 + esr / 2) is a_g
and the digammas cancel (a_g - 1 = a_g0 - 1/2), and likewise for xi; a sweep
that evaluated F before its Gamma updates would need the general formula. K
is computed once per step from the carry's prior lgammas and log rates;
-log Var[x_next] is log EPSILON plus q(z)'s precision log-determinant, which
the carry keeps. The two forms agree to rounding, not bit for bit. The
kernel writes the prior quadratic E[(w - m0)' Lambda0 (w - m0)] out on local
floats, in `beliefs.expected_quadratic`'s order.

Failure contract: `step_update(..., t)` raises `InferenceError` with
`.step == t` for every failure it detects inside the step: an input or
output sample that is not a finite float, an incoming E[gamma] or E[xi] of
0, a non-finite coefficient message precision, state mean, coefficient mean
or expected squared residual ("diverged", caught where it first appears),
an improper posterior, a negative gamma message rate and a non-finite free
energy. Only an improper incoming belief raises `ImproperBeliefError`,
which carries no step; a set built from beliefs raises it when
`step_update` first reads its carry. A set whose coefficient count or state
size does not fit `cfg.model_mode` raises a ValueError that names both.
`identify_stream` passes these errors on unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Iterable, NamedTuple

import numpy as np

from .beliefs import (_LOG_2PI, SQUARE_FROM_UPPER, GammaBelief,
                      GaussianBelief, ImproperBeliefError, digamma,
                      expected_quadratic, split_last)
# not called here; the benchmark's span tracer looks them up in this module
from .beliefs import (combine_gamma, combine_gaussian,  # noqa: F401
                      entropy_gamma, entropy_gaussian)
from .duffing import step_mean  # noqa: F401
from .duffing import (ArCoefficients, TimeSeries, UnstableSimulationError,
                      cubic_theta, fits_float, propagate)
from . import nlarx
from .nlarx import NodeConfig

# variance of the tie of q(z)'s x to the previous x_next, read at call
# time; it enters the estimates but not the free energy
EPSILON = 1e-8

# a step stops sweeping once a sweep moves every coefficient mean by less
# than this fraction of its posterior sd and E[gamma] by less than this
# fraction of itself; `PriorConfig.iterations_per_step` caps the sweeps
CONVERGENCE_TOL = 1e-6


class InferenceError(RuntimeError):
    """A belief update failed; carries the step index it failed at."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"inference failed at step {step}: {reason}")
        self.step = step


class BeliefSet:
    """State at one time step under q(z) q(theta, eta) q(gamma) q(xi).

    `q_coeffs` is the one belief over the coefficients w = (theta, eta);
    `q_theta` and `q_eta` are views of its marginals. `initial_beliefs`
    builds the prior's `q_coeffs` as one diagonal Gaussian. A set holds the
    read-only beliefs and the kernel's float form of them, `carry`, and
    computes the one it lacks once, on first read. A set built from beliefs
    checks them on first kernel use (`_carry`); `step_update` returns a set
    that holds only a carry and builds its numpy beliefs when one is read.
    """

    def __init__(self, q_coeffs: GaussianBelief, q_gamma: GammaBelief,
                 q_xi: GammaBelief, q_state: GaussianBelief):
        self._beliefs = (q_coeffs, q_gamma, q_xi, q_state)

    @cached_property
    def carry(self) -> tuple:
        return _carry(self)

    @cached_property
    def _beliefs(self) -> tuple:
        w, ag, bg, ax, bx, _, _, _, _, z = self.carry
        return (_belief(w), GammaBelief(ag, bg), GammaBelief(ax, bx),
                _belief(z))

    @cached_property
    def _marginals(self) -> tuple[GaussianBelief, GaussianBelief]:
        return split_last(self.q_coeffs)

    q_coeffs = property(lambda self: self._beliefs[0])
    q_gamma = property(lambda self: self._beliefs[1])
    q_xi = property(lambda self: self._beliefs[2])
    q_state = property(lambda self: self._beliefs[3])
    q_theta = property(lambda self: self._marginals[0])
    q_eta = property(lambda self: self._marginals[1])


class StepReport(NamedTuple):
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
    sweeps of a step, which stops earlier once it settles. Construction
    checks and normalises every field: numbers become floats, sequences of
    them tuples of floats and the sweep cap an int, so equal priors compare
    equal and save to YAML; it builds the prior (`initial_beliefs`) once to
    check that too.
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
    iterations_per_step: int = 5
    model_mode: str = "nlarx"
    trace_free_energy: bool = False

    def __post_init__(self):
        if self.model_mode not in ("nlarx", "larx"):
            raise ValueError(f"unknown model mode {self.model_mode!r}")
        n = self.iterations_per_step
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValueError("iterations_per_step must be an integer of at least 1")
        fields = {"iterations_per_step": int(n)}  # YAML-safe
        for name in ("v0_theta", "v0_eta", "a0_gamma", "b0_gamma", "a0_xi",
                     "b0_xi", "state0_cov"):
            value = getattr(self, name)
            if not (fits_float(value) and 0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
            fields[name] = float(value)
        if not isinstance(self.trace_free_energy, bool):
            raise ValueError("trace_free_energy must be true or false")
        d = self.n_coeffs
        m0 = fields["m0_theta"] = _floats(self.m0_theta)
        if m0 is None or len(m0) not in (d, 3):  # LARX drops a cubic entry
            raise ValueError(f"m0_theta must be {d} numbers in {self.model_mode} "
                             f"mode, got {self.m0_theta!r}")
        state0 = fields["state0_mean"] = _floats(self.state0_mean)
        if state0 is None or len(state0) != 2:
            raise ValueError(f"state0_mean must be 2 numbers, got {self.state0_mean!r}")
        if not fits_float(self.m0_eta):
            raise ValueError(f"m0_eta must be a number, got {self.m0_eta!r}")
        fields["m0_eta"] = float(self.m0_eta)
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        beliefs = initial_beliefs(self)
        for names, g in (("a0_gamma and b0_gamma", beliefs.q_gamma),
                         ("a0_xi and b0_xi", beliefs.q_xi)):
            # the step divides by the mean; lgamma(shape) overflows past MAXLGM
            if not (0.0 < g.mean < math.inf and g.shape <= 2.556348e305):
                raise ValueError(f"the Gamma prior from {names} leaves the "
                                 "float range: its mean must be positive and "
                                 "finite, its shape at most 2.556348e305")
        # the step's q(z) precision determinant must leave x_next a variance
        if not math.isfinite((beliefs.q_gamma.mean + beliefs.q_xi.mean)
                             * (1.0 / EPSILON)):
            raise ValueError("the Gamma priors from a0_gamma, b0_gamma, a0_xi "
                             "and b0_xi leave the float range: (E[gamma] + "
                             "E[xi]) / EPSILON must be finite")
        if not np.isfinite(np.append(beliefs.q_coeffs.potential,
                                     beliefs.q_state.potential)).all():
            raise ValueError("the prior means, and each times its precision, "
                             "must be finite")
        # the closed-form inverse calls a precision singular when its
        # determinant under- or overflows or its inverse overflows; such a
        # prior would fail at step 0
        for names, prior in (("v0_theta and v0_eta", beliefs.q_coeffs),
                             ("state0_cov", beliefs.q_state)):
            if prior.cov is not None:
                continue
            if np.log(prior.precision.diagonal()).sum() > 0.0:  # det above 1
                raise ValueError(f"the prior from {names} is too narrow: its "
                                 "precision's determinant overflows in "
                                 "floating point")
            raise ValueError(f"the prior precision from {names} is "
                             "singular in floating point")

    @property
    def n_coeffs(self) -> int:
        return 3 if self.model_mode == "nlarx" else 2

    def node_config(self, u: float) -> NodeConfig:
        return NodeConfig(u=u, epsilon=EPSILON, cubic=self.model_mode == "nlarx")


def initial_beliefs(cfg: PriorConfig) -> BeliefSet:
    """Belief set holding the configured (checked) priors, q(theta, eta) as
    one diagonal Gaussian; LARX drops the cubic entry of a 3-entry m0_theta."""
    d = cfg.n_coeffs
    m0 = cfg.m0_theta if len(cfg.m0_theta) == d else cfg.m0_theta[::2]
    q_coeffs = GaussianBelief(m0 + (cfg.m0_eta,), np.diag(
        [1.0 / cfg.v0_theta] * d + [1.0 / cfg.v0_eta]))
    q_state = GaussianBelief(cfg.state0_mean, np.diag([1.0 / cfg.state0_cov] * 2))
    return BeliefSet(q_coeffs, GammaBelief(cfg.a0_gamma, cfg.b0_gamma),
                     GammaBelief(cfg.a0_xi, cfg.b0_xi), q_state)


def _floats(value) -> tuple[float, ...] | None:
    """A sequence of real numbers as a tuple of floats; None for anything
    else (a string, say)."""
    try:
        items = tuple(value)
    except TypeError:
        return None
    return tuple(map(float, items)) if all(map(fits_float, items)) else None


def _carry(beliefs: BeliefSet) -> tuple:
    """The step kernel's float form of a proper belief set: q(w)'s parts,
    the shape and rate of q(gamma) and of q(xi), lgamma of each shape and log
    of each rate, and q(z)'s parts. A Gaussian's parts are one flat tuple:
    the upper triangle of its precision row by row, its potential and mean,
    the upper triangle of its covariance and its log-determinant."""
    g, x = beliefs.q_gamma, beliefs.q_xi
    if (beliefs.q_coeffs.cov is None or beliefs.q_state.cov is None
            or not (g.is_proper and x.is_proper)):
        raise ImproperBeliefError("moments undefined for improper belief")
    return (_parts(beliefs.q_coeffs), g.shape, g.rate, x.shape, x.rate,
            math.lgamma(g.shape), math.log(g.rate), math.lgamma(x.shape),
            math.log(x.rate), _parts(beliefs.q_state))


def _parts(g: GaussianBelief) -> tuple:
    upper = np.triu_indices(g.dim)
    return (*g.precision[upper].tolist(), *g.potential.tolist(),
            *g.mean.tolist(), *g.cov[upper].tolist(), g.logdet)


def _dim(parts: tuple) -> int:
    # a d-dimensional Gaussian's parts are d * d + 3 * d + 1 floats
    return (math.isqrt(4 * len(parts) + 5) - 3) // 2


def _belief(parts: tuple) -> GaussianBelief:
    # from the parts' leading precision triangle and potential, inverted and
    # summed into the mean by `from_natural` as by the kernel
    d = _dim(parts)
    n = d * (d + 1) // 2
    return GaussianBelief.from_natural(
        np.array(parts[:n])[SQUARE_FROM_UPPER[d]], parts[n:n + d])


def step_update(
    beliefs: BeliefSet, u_t: float, y_t: float, cfg: PriorConfig, t: int = 0
) -> tuple[BeliefSet, StepReport]:
    """One online step, the kernel: predict, then sweep the message schedule
    until it settles (see the module docstring). It reads the set's carry
    and returns a set that holds only the posterior's carry, whose state
    belief is the next step's previous state."""
    prior = beliefs.carry
    try:
        u, y = float(u_t), float(y_t)
    except (TypeError, ValueError) as exc:
        raise InferenceError(t, f"unconvertible input/output sample: {exc}") from exc
    isfinite, sqrt = math.isfinite, math.sqrt
    if not (isfinite(u) and isfinite(y)):
        raise InferenceError(t, f"non-finite input/output sample: u={u!r}, y={y!r}")
    w_prior, ag0, bg0, ax0, bx0, lg_g0, log_bg0, lg_x0, log_bx0, z_prior = prior
    cubic = cfg.model_mode == "nlarx"
    try:  # a set that does not fit the mode does not unpack
        _, _, _, _, _, x, x_prev, s00, s01, s11, _ = z_prior
        if cubic:
            (a00, a01, a02, a03, a11, a12, a13, a22, a23, a33, g0, g1, g2, g3,
             m0, m1, m2, m3, _, _, _, _, _, _, _, _, _, _, _) = w_prior
        else:
            (a00, a01, a02, a11, a12, a22, g0, g1, g2, m0, m1, m2,
             _, _, _, _, _, _, _) = w_prior
    except ValueError:
        raise ValueError(
            f"a belief set of {_dim(w_prior)} coefficients and a "
            f"{_dim(z_prior)}-entry state does not fit model_mode "
            f"{cfg.model_mode!r}, which takes {cfg.n_coeffs + 1} and 2") from None
    inv_eps = 1.0 / EPSILON
    last = cfg.iterations_per_step - 1
    # fixed within the step: psi (q's), J Sigma_zprev J' (r's), the upper
    # triangles of the message's precision per E[gamma] (i's) and the prior's
    # (a's), its potential (g's) and mean (m's), and the prediction
    if cubic:
        q0, q1, q2, q3 = x, x * x * x, x_prev, u
        slope = 3.0 * (x * x)  # d(x^3)/dx
        r00, r01, r02 = s00, slope * s00, s01
        r11, r12, r22 = slope * s00 * slope, slope * s01, s11
        info = (q0 * q0 + r00, q0 * q1 + r01, q0 * q2 + r02, q0 * q3,
                q1 * q1 + r11, q1 * q2 + r12, q1 * q3, q2 * q2 + r22, q2 * q3,
                q3 * q3)
        i00, i01, i02, i03, i11, i12, i13, i22, i23, i33 = info
        w3 = m3
        forward = 0.0 + m0 * q0 + m1 * q1 + m2 * q2 + m3 * q3
    else:
        q0, q1, q2 = x, x_prev, u
        r00, r01, r11 = s00, s01, s11
        info = (q0 * q0 + r00, q0 * q1 + r01, q0 * q2, q1 * q1 + r11, q1 * q2,
                q2 * q2)
        i00, i01, i02, i11, i12, i22 = info
        forward = 0.0 + m0 * q0 + m1 * q1 + m2 * q2
    if not all(map(isfinite, info)):
        raise InferenceError(t, "diverged: non-finite coefficient message precision")
    hz1 = inv_eps * x
    w0, w1, w2 = m0, m1, m2
    ag, ax = ag0 + 1.5 - 1.0, ax0 + 1.5 - 1.0
    eg, ex = ag0 / bg0, ax0 / bx0
    if eg == 0.0 or ex == 0.0:  # a rate far above its shape, or infinite
        raise InferenceError(t, "an incoming E[gamma] or E[xi] is 0")
    lg_g, lg_x = math.lgamma(ag), math.lgamma(ax)
    # K of the closed-form free energy plus (log EPSILON) / 2 (module docstring)
    f_fixed = (-0.5 * (w_prior[-1] + (5.0 if cubic else 4.0) - _LOG_2PI
                       - math.log(EPSILON))
               - ag0 * log_bg0 - ax0 * log_bx0 - (lg_g - lg_g0) - (lg_x - lg_x0))
    pred_mean, pred_var = forward, 1.0 / eg + 1.0 / ex
    trace = ()
    for k in range(cfg.iterations_per_step):
        # q(z): forward message N((forward, zp0), diag(E[gamma], 1/EPSILON))
        # times the likelihood one; precision diag(E[gamma] + E[xi], 1/EPSILON)
        za = eg + ex
        if not za > 0.0:
            raise InferenceError(t, "improper posterior")
        zdet = za * inv_eps
        zc00, zc11 = inv_eps / zdet, za / zdet
        hz0 = eg * forward + ex * y
        zm0 = zc00 * hz0
        if not isfinite(zm0):
            raise InferenceError(t, "diverged: non-finite state mean")

        # q(w): the step's prior plus the coefficient message, as precision
        # (p), potential (h), covariance (c) and mean (w, v before); then esr
        scale = eg * zm0
        v0, v1, v2 = w0, w1, w2
        if cubic:
            v3 = w3
            p00, p01, p02, p03 = (a00 + eg * i00, a01 + eg * i01,
                                  a02 + eg * i02, a03 + eg * i03)
            p11, p12, p13 = a11 + eg * i11, a12 + eg * i12, a13 + eg * i13
            p22, p23, p33 = a22 + eg * i22, a23 + eg * i23, a33 + eg * i33
            h0, h1, h2, h3 = (g0 + q0 * scale, g1 + q1 * scale,
                              g2 + q2 * scale, g3 + q3 * scale)
        else:
            p00, p01, p02 = a00 + eg * i00, a01 + eg * i01, a02 + eg * i02
            p11, p12, p22 = a11 + eg * i11, a12 + eg * i12, a22 + eg * i22
            h0, h1, h2 = g0 + q0 * scale, g1 + q1 * scale, g2 + q2 * scale
        # the inverse as `beliefs.inverse_3x3` and, for NLARX, `inverse_4x4`
        # compute it: the leading 3x3 block's adjugate over its determinant,
        # then the inverse through the Schur complement of that block
        c00, c01 = p11 * p22 - p12 * p12, p12 * p02 - p01 * p22
        c02 = p01 * p12 - p11 * p02
        det_w = p00 * c00 + p01 * c01 + p02 * c02
        c22 = p00 * p11 - p01 * p01
        if not (p00 > 0.0 and c22 > 0.0 and det_w > 0.0):
            raise InferenceError(t, "improper posterior")
        c00, c01, c02, c22 = c00 / det_w, c01 / det_w, c02 / det_w, c22 / det_w
        c11, c12 = (p00 * p22 - p02 * p02) / det_w, (p01 * p02 - p00 * p12) / det_w
        if cubic:
            k0 = c00 * p03 + c01 * p13 + c02 * p23
            k1 = c01 * p03 + c11 * p13 + c12 * p23
            k2 = c02 * p03 + c12 * p13 + c22 * p23
            schur = p33 - (p03 * k0 + p13 * k1 + p23 * k2)
            if not schur > 0.0:
                raise InferenceError(t, "improper posterior")
            c33 = 1.0 / schur
            n0, n1, n2 = k0 * c33, k1 * c33, k2 * c33
            c00, c01, c02, c03 = c00 + k0 * n0, c01 + k0 * n1, c02 + k0 * n2, -n0
            c11, c12, c13 = c11 + k1 * n1, c12 + k1 * n2, -n1
            c22, c23, det_w = c22 + k2 * n2, -n2, det_w * schur
            w0 = 0.0 + c00 * h0 + c01 * h1 + c02 * h2 + c03 * h3
            w1 = 0.0 + c01 * h0 + c11 * h1 + c12 * h2 + c13 * h3
            w2 = 0.0 + c02 * h0 + c12 * h1 + c22 * h2 + c23 * h3
            w3 = 0.0 + c03 * h0 + c13 * h1 + c23 * h2 + c33 * h3
            if not (isfinite(w0) and isfinite(w1) and isfinite(w2)
                    and isfinite(w3)):
                raise InferenceError(t, "diverged: non-finite coefficient mean")
            forward = 0.0 + w0 * q0 + w1 * q1 + w2 * q2 + w3 * q3
            resid = zm0 - forward
            e01, e02 = r01 * (w0 * w1 + c01), r02 * (w0 * w2 + c02)
            e12 = r12 * (w1 * w2 + c12)
            esr = (resid * resid + zc00
                   + q0 * c00 * q0 + q0 * c01 * q1 + q0 * c02 * q2 + q0 * c03 * q3
                   + q1 * c01 * q0 + q1 * c11 * q1 + q1 * c12 * q2 + q1 * c13 * q3
                   + q2 * c02 * q0 + q2 * c12 * q1 + q2 * c22 * q2 + q2 * c23 * q3
                   + q3 * c03 * q0 + q3 * c13 * q1 + q3 * c23 * q2 + q3 * c33 * q3
                   ) + (0.0 + r00 * (w0 * w0 + c00) + e01 + e02
                        + e01 + r11 * (w1 * w1 + c11) + e12
                        + e02 + e12 + r22 * (w2 * w2 + c22))
        else:
            w0 = 0.0 + c00 * h0 + c01 * h1 + c02 * h2
            w1 = 0.0 + c01 * h0 + c11 * h1 + c12 * h2
            w2 = 0.0 + c02 * h0 + c12 * h1 + c22 * h2
            if not (isfinite(w0) and isfinite(w1) and isfinite(w2)):
                raise InferenceError(t, "diverged: non-finite coefficient mean")
            forward = 0.0 + w0 * q0 + w1 * q1 + w2 * q2
            resid = zm0 - forward
            e01 = r01 * (w0 * w1 + c01)
            esr = (resid * resid + zc00
                   + q0 * c00 * q0 + q0 * c01 * q1 + q0 * c02 * q2
                   + q1 * c01 * q0 + q1 * c11 * q1 + q1 * c12 * q2
                   + q2 * c02 * q0 + q2 * c12 * q1 + q2 * c22 * q2
                   ) + (0.0 + r00 * (w0 * w0 + c00) + e01
                        + e01 + r11 * (w1 * w1 + c11))
        if not isfinite(esr):
            raise InferenceError(t, "diverged: non-finite expected squared residual")
        rate = 0.5 * esr
        if rate < 0:
            raise InferenceError(
                t, f"negative gamma message rate {rate}: moment bookkeeping bug")
        bg = bg0 + rate
        miss = y - zm0
        bx = bx0 + 0.5 * (miss * miss + zc00)
        eg_previous = eg
        eg, ex = ag / bg, ax / bx

        # settled: E[gamma] and each mean of w moved by under CONVERGENCE_TOL
        done = k == last or (
            k > 0 and abs(eg - eg_previous) < CONVERGENCE_TOL * eg
            and abs(w0 - v0) < CONVERGENCE_TOL * sqrt(c00)
            and abs(w1 - v1) < CONVERGENCE_TOL * sqrt(c11)
            and abs(w2 - v2) < CONVERGENCE_TOL * sqrt(c22)
            and (not cubic or abs(w3 - v3) < CONVERGENCE_TOL * sqrt(c33)))
        if cfg.trace_free_energy or done:
            # E[(w - m)' prec0 (w - m)], as `expected_quadratic` sums it
            d0, d1, d2 = w0 - m0, w1 - m1, w2 - m2
            t01, t02 = a01 * (d0 * d1 + c01), a02 * (d0 * d2 + c02)
            t12 = a12 * (d1 * d2 + c12)
            if cubic:
                d3 = w3 - m3
                t03, t13 = a03 * (d0 * d3 + c03), a13 * (d1 * d3 + c13)
                t23 = a23 * (d2 * d3 + c23)
                quad = (0.0 + a00 * (d0 * d0 + c00) + t01 + t02 + t03
                        + t01 + a11 * (d1 * d1 + c11) + t12 + t13
                        + t02 + t12 + a22 * (d2 * d2 + c22) + t23
                        + t03 + t13 + t23 + a33 * (d3 * d3 + c33))
            else:
                quad = (0.0 + a00 * (d0 * d0 + c00) + t01 + t02
                        + t01 + a11 * (d1 * d1 + c11) + t12
                        + t02 + t12 + a22 * (d2 * d2 + c22))
            logdet_w, logdet_z = math.log(det_w), math.log(zdet)
            log_bg, log_bx = math.log(bg), math.log(bx)
            energy = (f_fixed + 0.5 * (logdet_w + quad + logdet_z)
                      + ag * log_bg + ax * log_bx)
            if not isfinite(energy):
                raise InferenceError(t, f"non-finite free energy {energy}")
            if cfg.trace_free_energy:
                trace += (energy,)
        if done:
            break

    # the posterior of the last sweep, which always evaluated the free
    # energy; q(z) as `combine_gaussian` builds it, whose closed-form inverse
    # puts -0.0 off the diagonal of the covariance
    if cubic:
        w_post = (p00, p01, p02, p03, p11, p12, p13, p22, p23, p33,
                  h0, h1, h2, h3, w0, w1, w2, w3,
                  c00, c01, c02, c03, c11, c12, c13, c22, c23, c33, logdet_w)
    else:
        w_post = (p00, p01, p02, p11, p12, p22, h0, h1, h2, w0, w1, w2,
                  c00, c01, c02, c11, c12, c22, logdet_w)
    z_post = (za, 0.0, inv_eps, hz0, hz1, zm0, zc11 * hz1, zc00, -0.0, zc11,
              logdet_z)
    # the set holds the carry alone; tuple.__new__ runs no Python frame
    posterior = object.__new__(BeliefSet)
    posterior.carry = (w_post, ag, bg, ax, bx, lg_g, log_bg, lg_x, log_bx,
                       z_post)
    return posterior, tuple.__new__(StepReport, (t, energy, pred_mean, pred_var,
                                                 k + 1, trace))


def compute_free_energy(
    beliefs: BeliefSet,
    u_t: float,
    y_t: float,
    beliefs_prior_for_step: BeliefSet,
    cfg: PriorConfig,
) -> float:
    """Single-timestep free energy E_q[log q] - E_q[log p] of x_next, w,
    gamma and xi, with the messages' affine surrogate, at any beliefs. The
    previous state is held fixed and enters only through the transition
    expectation. `step_update` evaluates it in closed form, which holds
    only where q(gamma) and q(xi) were just updated (module docstring)."""
    w, ag, bg, ax, bx, lg_g, log_bg, lg_x, log_bx, z = beliefs.carry
    (w0, ag0, bg0, ax0, bx0, lg_g0, log_bg0, lg_x0, log_bx0,
     _) = beliefs_prior_for_step.carry
    w_prior, q_coeffs = beliefs_prior_for_step.q_coeffs, beliefs.q_coeffs
    n = q_coeffs.dim
    esr = nlarx.expected_square_residual(
        beliefs.q_state, beliefs_prior_for_step.q_state, q_coeffs,
        cfg.node_config(u_t))
    quad = expected_quadratic(w_prior.precision.tolist(),
                              (q_coeffs.mean - w_prior.mean).tolist(),
                              q_coeffs.cov.tolist())
    x_var = z[7]  # z[5] and z[7]: x_next's mean and variance
    try:  # a float power or log raises where numpy's gave an infinity
        miss2, log_var = (float(y_t) - z[5]) ** 2, math.log(x_var)
    except (OverflowError, ValueError):
        raise RuntimeError("non-finite free energy inf") from None
    dg_g, dg_x = digamma(ag), digamma(ax)
    e_gamma, log_gamma = ag / bg, dg_g - log_bg
    e_xi, log_xi = ax / bx, dg_x - log_bx

    neg_entropy = -(
        0.5 * (1.0 + _LOG_2PI + log_var)
        + 0.5 * (n * (1.0 + _LOG_2PI) - w[-1])
        + (ag - log_bg + lg_g + (1.0 - ag) * dg_g)
        + (ax - log_bx + lg_x + (1.0 - ax) * dg_x)
    )

    # transition and likelihood factors
    e_log_trans = -0.5 * _LOG_2PI + 0.5 * log_gamma - 0.5 * e_gamma * esr
    e_log_lik = -0.5 * _LOG_2PI + 0.5 * log_xi - 0.5 * e_xi * (miss2 + x_var)

    # E_q[log prior] of the coefficient, gamma and xi priors
    e_log_priors = (
        (-0.5 * n * _LOG_2PI + 0.5 * w0[-1] - 0.5 * quad)
        + (ag0 * log_bg0 - lg_g0 + (ag0 - 1.0) * log_gamma - bg0 * e_gamma)
        + (ax0 * log_bx0 - lg_x0 + (ax0 - 1.0) * log_xi - bx0 * e_xi)
    )

    energy = neg_entropy - e_log_trans - e_log_lik - e_log_priors
    if not math.isfinite(energy):
        raise RuntimeError(f"non-finite free energy {energy}")
    return energy


def identify_stream(
    samples: Iterable[tuple[float, float]], cfg: PriorConfig
) -> tuple[BeliefSet, list[StepReport]]:
    """Fold the online update over a stream of (input, output) pairs.

    Single pass of `step_update` that keeps one `StepReport` per step; the
    returned set builds its numpy beliefs only when one is read.
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
    pairs = zip(data.u[:-1].tolist(), data.y[1:].tolist())
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
    with np.errstate(over="ignore"):  # a miss beyond float range is inf
        return float(np.mean((predictions - actual) ** 2))
