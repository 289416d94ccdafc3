"""Exponential-family beliefs used on factor-graph edges.

Gaussians are kept in information (precision) form so that rank-deficient
likelihood messages are representable. Gammas use the shape-rate convention
(density ~ x^(shape-1) exp(-rate x), mean = shape/rate); the rate convention
makes the conjugate precision update additive. The Gamma entropy and the
free energy take log Gamma from `math.lgamma` and psi from `digamma` here,
so the runtime needs no special-function library. Every vector product
is `dot`, in one order on every BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# the position in the upper triangle, row by row, of each entry of a
# symmetric d x d matrix
SQUARE_FROM_UPPER = {
    d: np.array([[min(i, j) * (2 * d + 1 - min(i, j)) // 2 + abs(i - j)
                  for j in range(d)] for i in range(d)]) for d in (1, 2, 3, 4)}


class ImproperBeliefError(ValueError):
    """An operation required a normalizable belief but got a degenerate one."""


class GaussianBelief:
    """Multivariate Gaussian in information form, as a value.

    `precision` is symmetric PSD and `potential` is the precision-weighted
    mean h = Lambda mu, a `dot` per row. A proper belief (a marginal
    posterior) has positive-definite precision and carries its covariance
    `cov` and `logdet`, the log-determinant of its precision. Messages may be
    singular: their `cov` and `logdet` are None, and built `from_natural`
    their mean is the minimum-norm least-squares one. Both constructors
    compute all five fields, and nothing changes them afterwards, so values
    are safe to share. The dimension is 1 to 4, which covers every belief
    the library builds (at most 4 coefficients, 2 states), so every inverse
    is closed form; both constructors reject any other.
    """

    __slots__ = ("precision", "potential", "mean", "cov", "logdet")

    def __init__(self, mean, precision):
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        precision = _symmetric(precision, mean.size)
        self.precision, self.mean, means = precision, mean, mean.tolist()
        self.potential = np.array([dot(row, means) for row in precision.tolist()])
        self.cov, self.logdet = _inverse(precision)

    @classmethod
    def from_natural(cls, precision, potential) -> "GaussianBelief":
        """Build from (Lambda, h); h must lie in the range of Lambda."""
        potential = np.atleast_1d(np.asarray(potential, dtype=float))
        precision = _symmetric(precision, potential.size)
        cov, logdet = _inverse(precision)
        if cov is None:
            mean, *_ = np.linalg.lstsq(precision, potential, rcond=None)
        else:
            mean = np.array([dot(row, potential) for row in cov])
        return cls._from_parts(precision, potential, mean, cov, logdet)

    @classmethod
    def _from_parts(cls, precision, potential, mean, cov, logdet) -> "GaussianBelief":
        """A belief from all five fields, computed by the caller and not
        checked here."""
        self = object.__new__(cls)
        self.precision, self.potential, self.mean = precision, potential, mean
        self.cov, self.logdet = cov, logdet
        return self

    @property
    def dim(self) -> int:
        return self.precision.shape[0]

    def __repr__(self) -> str:
        return f"GaussianBelief(mean={self.mean!r}, precision={self.precision!r})"


def _symmetric(precision, dim: int) -> np.ndarray:
    if not 1 <= dim <= 4:
        raise ValueError(f"belief dimension {dim} outside 1 to 4")
    precision = np.atleast_2d(np.asarray(precision, dtype=float))
    if precision.shape != (dim, dim):
        raise ValueError(f"precision shape {precision.shape} does not match dim {dim}")
    # symmetrize to guard against drift from repeated updates
    return 0.5 * (precision + precision.T)


def _inverse(p: np.ndarray) -> tuple[np.ndarray | None, float | None]:
    """Covariance and log-determinant of a symmetric precision of dimension
    1 to 4, or (None, None) when it is not positive definite (Sylvester's
    criterion), its inverse is not finite, or its determinant underflows to
    0 or overflows to inf. Scalar arithmetic, as numpy's per-call overhead
    dominates at these sizes: 1 and 2 dimensions written out, 3 and 4 by
    `inverse_3x3` and `inverse_4x4`, which read the upper triangle only; the
    covariance is gathered from that through `SQUARE_FROM_UPPER`."""
    rows = p.tolist()
    d = len(rows)
    if d == 1:
        a = rows[0][0]
        inverse = (1.0 / a, a) if a > 0.0 else None
    elif d == 2:
        (a, b), (_, c) = rows
        det = a * c - b * b
        inverse = (c / det, -b / det, a / det, det) if a > 0.0 and det > 0.0 else None
    elif d == 3:
        inverse = inverse_3x3(*rows[0], *rows[1][1:], rows[2][2])
    else:
        inverse = inverse_4x4(*rows[0], *rows[1][1:], *rows[2][2:], rows[3][3])
    if inverse is None:
        return None, None
    *upper, det = inverse
    cov = np.array(upper)[SQUARE_FROM_UPPER[d]]
    if not (0.0 < det < math.inf and np.isfinite(cov).all()):
        return None, None
    return cov, math.log(det)


def inverse_3x3(a: float, b: float, c: float, e: float, f: float,
                i: float) -> tuple | None:
    """The upper triangle, row by row, of the inverse of the symmetric matrix
    with upper triangle (a, b, c; e, f; i), the adjugate over the
    determinant, then the determinant; None when not positive definite."""
    c00 = e * i - f * f
    c01 = f * c - b * i
    c02 = b * f - e * c
    det = a * c00 + b * c01 + c * c02
    c22 = a * e - b * b
    if not (a > 0.0 and c22 > 0.0 and det > 0.0):
        return None
    c11 = a * i - c * c
    c12 = b * c - a * f
    return (c00 / det, c01 / det, c02 / det, c11 / det, c12 / det,
            c22 / det, det)


def inverse_4x4(a: float, b: float, c: float, g0: float, e: float, f: float,
                g1: float, i: float, g2: float, h: float) -> tuple | None:
    """`inverse_3x3` for the symmetric matrix with upper triangle (a, b, c,
    g0; e, f, g1; i, g2; h), through the Schur complement of its leading
    3x3 block."""
    inverse = inverse_3x3(a, b, c, e, f, i)
    if inverse is None:
        return None
    l00, l01, l02, l11, l12, l22, det = inverse
    k0 = l00 * g0 + l01 * g1 + l02 * g2
    k1 = l01 * g0 + l11 * g1 + l12 * g2
    k2 = l02 * g0 + l12 * g1 + l22 * g2
    schur = h - (g0 * k0 + g1 * k1 + g2 * k2)
    if not schur > 0.0:
        return None
    v = 1.0 / schur
    m0, m1, m2 = k0 * v, k1 * v, k2 * v
    return (l00 + k0 * m0, l01 + k0 * m1, l02 + k0 * m2, -m0,
            l11 + k1 * m1, l12 + k1 * m2, -m1, l22 + k2 * m2, -m2, v,
            det * schur)


@dataclass(frozen=True)
class GammaBelief:
    """Gamma belief in shape-rate form.

    Posteriors need shape > 0 and rate > 0. Messages may carry rate 0
    (improper; only legal when combined with a proper prior).
    """

    shape: float
    rate: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"gamma shape must be positive, got {self.shape}")
        if self.rate < 0:
            raise ValueError(f"gamma rate must be nonnegative, got {self.rate}")

    @property
    def is_proper(self) -> bool:
        return self.rate > 0

    @property
    def mean(self) -> float:
        if not self.is_proper:
            raise ImproperBeliefError("moments undefined for improper belief")
        return self.shape / self.rate


def combine_gaussian(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """Normalized product of two Gaussian densities (information-form addition)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = GaussianBelief.from_natural(
        a.precision + b.precision, a.potential + b.potential)
    if out.cov is None:
        raise ImproperBeliefError("improper posterior")
    return out


def combine_gamma(a: GammaBelief, b: GammaBelief) -> GammaBelief:
    """Normalized product of two Gamma densities."""
    shape = a.shape + b.shape - 1.0
    rate = a.rate + b.rate
    if shape <= 0 or rate <= 0:
        raise ImproperBeliefError("improper posterior")
    return GammaBelief(shape, rate)


def gaussian_moments(g: GaussianBelief) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of a proper Gaussian belief."""
    if g.cov is None:
        raise ImproperBeliefError("moments undefined for improper belief")
    return g.mean, g.cov


def dot(a, b) -> float:
    """The inner product of two sequences of floats, summed left to right:
    not by the built-in `sum`, which compensates float sums from Python
    3.12 on, nor by BLAS, whose kernels may fuse multiply-adds."""
    total = 0.0
    for a_i, b_i in zip(a, b):
        total += a_i * b_i
    return total


def expected_quadratic(a: list, mean: list, cov: list) -> float:
    """E[x' A x] = mean' A mean + trace(A cov) for x with the given mean and
    covariance, in scalar code on (nested) lists of floats. Only the leading
    len(a) coordinates of x enter, so A may weigh a leading block. The terms
    a_ij (m_i m_j + cov_ij) are summed row by row, left to right, the order
    that `engine.step_update` writes out for its prior quadratic."""
    total = 0.0
    for m_i, a_row, cov_row in zip(mean, a, cov):
        for m_j, a_ij, cov_ij in zip(mean, a_row, cov_row):
            total += a_ij * (m_i * m_j + cov_ij)
    return total


def independent(a: GaussianBelief, b: GaussianBelief) -> GaussianBelief:
    """The joint of two independent beliefs: their means stacked, with
    block-diagonal precision."""
    precision = np.zeros((a.dim + b.dim, a.dim + b.dim))
    precision[:a.dim, :a.dim] = a.precision
    precision[a.dim:, a.dim:] = b.precision
    return GaussianBelief(np.append(a.mean, b.mean), precision)


def split_last(g: GaussianBelief) -> tuple[GaussianBelief, GaussianBelief]:
    """Marginals of the leading coordinates and of the last coordinate of a
    proper Gaussian belief."""
    mean, cov = gaussian_moments(g)
    lam = g.precision
    # the leading marginal's precision is the Schur complement of the corner
    edge = lam[:-1, -1]
    schur = lam[:-1, :-1] - edge[:, None] * (edge / lam[-1, -1])
    return (GaussianBelief(mean[:-1], schur),
            GaussianBelief(mean[-1:], 1.0 / cov[-1:, -1:]))


def entropy_gaussian(g: GaussianBelief) -> float:
    """Differential entropy 0.5*(d*(1+log 2pi) + log det Sigma)."""
    if g.cov is None:
        raise ImproperBeliefError("entropy undefined for improper belief")
    return 0.5 * (g.dim * (1.0 + _LOG_2PI) - g.logdet)


def entropy_gamma(g: GammaBelief) -> float:
    """Differential entropy of a Gamma(shape, rate) density."""
    if not g.is_proper:
        raise ImproperBeliefError("entropy undefined for improper belief")
    a = g.shape
    return float(a - math.log(g.rate) + math.lgamma(a) + (1.0 - a) * digamma(a))


def digamma(x: float) -> float:
    """psi(x) = d log Gamma(x) / dx for x > 0: the recurrence
    psi(x) = psi(x + 1) - 1/x up to x >= 10, then the asymptotic series
    through the x^-14 term (Abramowitz & Stegun 6.3.5 and 6.3.18)."""
    if not x > 0.0:
        raise ValueError(f"digamma needs x > 0, got {x}")
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    z = 1.0 / (x * x)
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (
        1 / 240 - z * (1 / 132 - z * (691 / 32760 - z / 12))))))
    return math.log(x) - 0.5 / x - series - shift
