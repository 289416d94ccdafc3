"""Duffing oscillator model: parameter spaces, discretization maps and simulator.

The continuous oscillator m*x'' + c*x' + a*x + b*x^3 = u + w is discretized
with a central difference for x'' and a forward difference for x', giving

    x[t+1] = theta1*x[t] + theta2*x[t]^3 + theta3*x[t-1] + eta*(u[t] + w[t])

with theta1 = (2m + c*d - a*d^2)/(m + c*d), theta2 = -b*d^2/(m + c*d),
theta3 = -m/(m + c*d), eta = d^2/(m + c*d) and process precision
gamma = tau*(m + c*d)^2/d^4 (the input coefficient is absorbed into the
noise). The map is invertible as long as eta != 0. `propagate` is the one
loop of this recursion, for `simulate` and the rollout in `engine`;
`step_mean` is one step of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIVERGENCE_LIMIT = 1e6


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
        if not self.delta > 0:
            raise ValueError("sample period must be positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.u)


def phys_to_ar(p: PhysicalParams, delta: float) -> ArCoefficients:
    """Substitute physical parameters into the autoregressive coefficients."""
    den = p.m + p.c * delta
    if den == 0:
        raise ValueError("degenerate discretization: m + c*delta == 0")
    theta = np.array([
        (2 * p.m + p.c * delta - p.a * delta**2) / den,
        -p.b * delta**2 / den,
        -p.m / den,
    ])
    eta = delta**2 / den
    gamma = p.tau * den**2 / delta**4
    return ArCoefficients(theta, eta, gamma)


def ar_to_phys(coeffs: ArCoefficients, delta: float, xi: float) -> PhysicalParams:
    """Invert the substitution to recover point estimates of the physical
    parameters. The measurement precision is not derivable from the
    coefficients and is passed through."""
    if coeffs.eta == 0:
        raise ValueError("inversion undefined: eta == 0")
    th1, th2, th3 = cubic_theta(coeffs.theta)
    eta = coeffs.eta
    return PhysicalParams(
        m=-th3 * delta**2 / eta,
        c=(1 + th3) * delta / eta,
        a=(1 - th1 - th3) / eta,
        b=-th2 / eta,
        tau=coeffs.gamma * eta**2,
        xi=xi,
    )


def cubic_theta(theta) -> tuple[float, float, float]:
    """(theta1, theta2, theta3) as floats. The linear mode stores
    (theta1, theta3), which maps to (theta1, 0, theta3)."""
    th = np.asarray(theta, dtype=float).tolist()
    return tuple(th) if len(th) == 3 else (th[0], 0.0, th[1])


def propagate(coeffs: ArCoefficients, drive, x: np.ndarray) -> np.ndarray:
    """Run the noise-free recursion in place on x from its given x[0], x[1]:
    x[t] = theta1*x[t-1] + theta2*x[t-1]^3 + theta3*x[t-2] + eta*drive[t-1]
    for t >= 2, with `drive` as long as x. A state that overflows, is not
    finite or exceeds DIVERGENCE_LIMIT raises `UnstableSimulationError(t)`."""
    th1, th2, th3 = cubic_theta(coeffs.theta)
    eta = float(coeffs.eta)
    # memoryviews read and write Python floats without copying the series
    out = memoryview(x)
    x_now, x_prev = out[1], out[0]
    try:
        for t, d in enumerate(memoryview(drive)[1:-1], start=2):
            x_now, x_prev = (th1 * x_now + th2 * x_now ** 3 + th3 * x_prev
                             + eta * d), x_now
            if not abs(x_now) <= DIVERGENCE_LIMIT:  # NaN fails it too
                raise UnstableSimulationError(t)
            out[t] = x_now
    except OverflowError:  # the float cube of a huge seed state
        raise UnstableSimulationError(t) from None
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
