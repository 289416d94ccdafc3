"""Duffing oscillator model: parameter spaces, discretization maps and simulator.

The continuous oscillator m*x'' + c*x' + a*x + b*x^3 = u + w is discretized
with a central difference for x'' and a forward difference for x', giving

    x[t+1] = theta1*x[t] + theta2*x[t]^3 + theta3*x[t-1] + eta*(u[t] + w[t])

with theta1 = (2m + c*d - a*d^2)/(m + c*d), theta2 = -b*d^2/(m + c*d),
theta3 = -m/(m + c*d), eta = d^2/(m + c*d) and process precision
gamma = tau*(m + c*d)^2/d^4 (the input coefficient is absorbed into the
noise). The map is invertible as long as eta != 0. `propagate` runs this
recursion for `simulate` and the rollout in `engine`, chunk by chunk, in
one of two loops: where theta2 is zero (the linear mode, or b = 0) its loop
drops the cube, which is the regressor's product x * x * x
(`nlarx.regressor_psi`): an overflowing one gives an infinite or NaN state
and raises nothing. The divergence error names the same step as a check
after every state; the states past that step are unspecified, and no
caller reads them. `step_mean` is one step of it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

DIVERGENCE_LIMIT = 1e6
_CHUNK = 4096  # states per pass of propagate's loop


def is_number(value) -> bool:
    """A real number that is not a bool (YAML's true or false)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def fits_float(value) -> bool:
    """A number (`is_number`) that `float` takes: an int beyond the float
    range is not, as `float` and `math.isfinite` overflow on it."""
    if not is_number(value):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


class UnstableSimulationError(RuntimeError):
    """Trajectory left the divergence guard; carries the offending step index."""

    def __init__(self, step: int):
        super().__init__(f"unstable simulation at step {step}")
        self.step = step


@dataclass(frozen=True)
class PhysicalParams:
    """Interpretable oscillator parameters plus the two noise precisions."""

    m: float
    c: float
    a: float
    b: float
    tau: float
    xi: float

    def __post_init__(self):
        for name in ("m", "c", "a", "b", "tau", "xi"):
            value = getattr(self, name)
            if not (fits_float(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not self.m > 0:
            raise ValueError("mass must be positive")
        if not self.tau > 0:
            raise ValueError("process precision tau must be positive")
        if not self.xi > 0:
            raise ValueError("measurement precision xi must be positive")


@dataclass(frozen=True)
class ArCoefficients:
    """Autoregressive form: theta (3-vector, or 2-vector without the cubic),
    input gain eta and process precision gamma."""

    theta: np.ndarray
    eta: float
    gamma: float

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.size not in (2, 3):
            raise ValueError("theta must have 2 or 3 coefficients")
        if not self.gamma > 0:
            raise ValueError("process precision gamma must be positive")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled input/output pair with sample period delta (seconds)."""

    u: np.ndarray
    y: np.ndarray
    delta: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.shape != y.shape or u.ndim != 1:
            raise ValueError("u and y must be 1-D arrays of equal length")
        if len(u) < 3:
            raise ValueError("insufficient data: need at least 3 samples")
        _check_period(self.delta)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.u)


def _check_period(delta: float) -> None:
    if not 0 < delta < math.inf:
        raise ValueError(f"sample period must be positive and finite, got {delta!r}")


def phys_to_ar(p: PhysicalParams, delta: float) -> ArCoefficients:
    """Substitute physical parameters into the autoregressive coefficients."""
    _check_period(delta)
    den = p.m + p.c * delta
    if den == 0:
        raise ValueError("degenerate discretization: m + c*delta == 0")
    try:  # delta**4 under- or overflows, or den**2 overflows
        gamma = p.tau * den**2 / delta**4
    except (OverflowError, ZeroDivisionError):
        gamma = math.inf
    if gamma == math.inf:
        raise ValueError(f"discretization gives an infinite gamma at delta={delta!r}")
    theta = np.array([
        (2 * p.m + p.c * delta - p.a * delta**2) / den,
        -p.b * delta**2 / den,
        -p.m / den,
    ])
    eta = delta**2 / den
    return ArCoefficients(theta, eta, gamma)


def ar_to_phys(coeffs: ArCoefficients, delta: float, xi: float) -> PhysicalParams:
    """Invert the substitution to recover point estimates of the physical
    parameters. The measurement precision is not derivable from the
    coefficients and is passed through."""
    if coeffs.eta == 0:
        raise ValueError("inversion undefined: eta == 0")
    (th1, th2, th3), eta = cubic_theta(coeffs.theta), coeffs.eta
    try:  # a float power raises where it overflows
        m, tau = -th3 * delta**2 / eta, coeffs.gamma * eta**2
    except OverflowError:
        raise ValueError(f"the parameters overflow at delta={delta!r}") from None
    return PhysicalParams(m=m, c=(1 + th3) * delta / eta,
                          a=(1 - th1 - th3) / eta, tau=tau, xi=xi,
                          b=0.0 - th2 / eta)  # +0.0, not -0.0, for LARX


def cubic_theta(theta) -> tuple[float, float, float]:
    """(theta1, theta2, theta3) as floats. The linear mode stores
    (theta1, theta3), which maps to (theta1, 0, theta3)."""
    th = np.asarray(theta, dtype=float).tolist()
    return tuple(th) if len(th) == 3 else (th[0], 0.0, th[1])


def propagate(coeffs: ArCoefficients, drive, x: np.ndarray) -> np.ndarray:
    """Run the noise-free recursion in place on x from its given x[0], x[1]:
    x[t] = theta1*x[t-1] + theta2*(x[t-1]*x[t-1]*x[t-1]) + theta3*x[t-2]
    + eta*drive[t-1] for t >= 2, the cube being the regressor's product.
    An x of fewer than two states, or a `drive` of another length than x,
    is a ValueError before any state is written. The first step t whose
    state is not finite or exceeds DIVERGENCE_LIMIT raises
    `UnstableSimulationError(t)`, the step a check after every state names;
    x past step t - 1 is then unspecified.

    The series runs in chunks of _CHUNK states, so no whole-series list is
    built: numpy forms a chunk's eta*drive (the product a float multiply
    gives), a Python loop collects its states in Python floats, x takes
    them at once and the guard then checks them. Where theta2 is zero (a
    2-entry theta, or b = 0), the loop runs the same sum in the same order
    without the cube. Its states equal the cube loop's, but a state that is
    exactly zero, which takes every product in its sum to be zero, may
    carry the other sign."""
    n = len(x)
    if n < 2:
        raise ValueError(f"x has {n} samples; propagate needs its two seed "
                         "states x[0] and x[1]")
    if len(drive) != n:
        raise ValueError(f"drive has {len(drive)} samples for {n} states")
    th1, th2, th3 = cubic_theta(coeffs.theta)
    eta = float(coeffs.eta)
    x_prev, x_now = x[:2].tolist()
    with np.errstate(over="ignore", invalid="ignore"):  # the guard names it
        for lo in range(2, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            forcing = (eta * drive[lo - 1:hi - 1]).tolist()
            states = []
            append = states.append
            if th2:
                for f in forcing:
                    x_now, x_prev = (th1 * x_now + th2 * (x_now * x_now * x_now)
                                     + th3 * x_prev + f), x_now
                    append(x_now)
            else:
                for f in forcing:
                    x_now, x_prev = th1 * x_now + th3 * x_prev + f, x_now
                    append(x_now)
            x[lo:hi] = states
            within = np.abs(x[lo:hi]) <= DIVERGENCE_LIMIT  # NaN fails it too
            if not within.all():
                raise UnstableSimulationError(lo + int(within.argmin()))
    return x


def step_mean(coeffs: ArCoefficients, z_prev: np.ndarray, u: float) -> np.ndarray:
    """One step of `propagate`: the noise-free transition of the state
    z = (x, x_prev) to (theta . phi(z) + eta*u, x), with its arithmetic and
    its divergence guard."""
    x_now, x_prev = np.asarray(z_prev, dtype=float)
    x = propagate(coeffs, np.array([0.0, u, 0.0]),
                  np.array([x_prev, x_now, 0.0]))
    return x[[2, 1]]


def simulate(
    p: PhysicalParams,
    u: np.ndarray,
    delta: float,
    seed: int,
    x0: tuple[float, float] = (0.0, 0.0),
    noise_free: bool = False,
) -> tuple[TimeSeries, np.ndarray]:
    """Run the discrete recursion and emit noisy observations y[t] = x[t] + v[t].

    `x0` holds the two initial positions (x1, x0). Returns the observed series
    and the latent trajectory. Deterministic given the seed; with
    `noise_free` both precisions are treated as infinite and the RNG is
    untouched.
    """
    u = np.asarray(u, dtype=float)
    n = len(u)
    if n < 3:
        raise ValueError("insufficient data: need at least 3 input samples")

    if noise_free:
        drive, v = u, np.zeros(n)
    else:
        rng = np.random.default_rng(seed)
        w = rng.normal(0.0, p.tau ** -0.5, n)
        v = rng.normal(0.0, p.xi ** -0.5, n)
        drive = u + w

    x = np.zeros(n)
    x[0], x[1] = x0[1], x0[0]
    propagate(phys_to_ar(p, delta), drive, x)
    return TimeSeries(u=u, y=x + v, delta=delta), x
