"""Properties of one online step on drawn beliefs and samples.

Hypothesis draws proper beliefs (a correlated coefficient belief, a
non-diagonal state belief, Gamma shapes on a grid of quarters, where growing
by 1/2 is exact in floating point) and an input/output sample. The step's
posterior precisions must be positive definite, each Gamma shape must grow
by exactly 1/2, the free energy must be finite, and wherever the message
schedule `reference_step_update` gets through the step, `step_update` must
agree with it bit for bit, and its closed-form free energy with the general
formula's to 1e-12 relative. The examples are derandomized, so every run
draws the same ones.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duffingid import PriorConfig
from duffingid.beliefs import GammaBelief, GaussianBelief
from duffingid.engine import BeliefSet, step_update
from test_step_kernel import (assert_same_beliefs, assert_same_report,
                              reference_step_update)

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow])


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def spd(draw, dim, scale_lo, scale_hi):
    """scale (A A' + I/10) for A with entries in [-1, 1]: positive definite,
    with correlated coordinates."""
    a = np.array(draw(st.lists(floats(-1.0, 1.0), min_size=dim * dim,
                               max_size=dim * dim))).reshape(dim, dim)
    return draw(floats(scale_lo, scale_hi)) * (a @ a.T + 0.1 * np.eye(dim))


@st.composite
def gamma(draw, rate_lo, rate_hi):
    shape = draw(st.integers(5, 400)) / 4.0
    return GammaBelief(shape, draw(floats(rate_lo, rate_hi)))


@st.composite
def step_case(draw):
    mode = draw(st.sampled_from(["nlarx", "larx"]))
    cfg = PriorConfig(model_mode=mode,
                      iterations_per_step=draw(st.integers(1, 5)),
                      trace_free_energy=draw(st.booleans()))
    n = cfg.n_coeffs + 1
    beliefs = BeliefSet(
        q_coeffs=GaussianBelief(
            draw(st.lists(floats(-2.0, 2.0), min_size=n, max_size=n)),
            draw(spd(n, 1.0, 1e4))),
        q_gamma=draw(gamma(1e-3, 1.0)),
        q_xi=draw(gamma(1e-4, 0.1)),
        q_state=GaussianBelief(
            draw(st.lists(floats(-1.0, 1.0), min_size=2, max_size=2)),
            draw(spd(2, 1.0, 1e4))),
    )
    u, y = draw(floats(-1.0, 1.0)), draw(floats(-1.0, 1.0))
    return beliefs, u, y, cfg


@PROPERTY_SETTINGS
@given(step_case())
def test_step_posterior_is_proper_and_finite(case):
    beliefs, u, y, cfg = case
    posterior, report = step_update(beliefs, u, y, cfg)
    for name in ("q_coeffs", "q_state"):
        precision = getattr(posterior, name).precision
        np.testing.assert_array_equal(precision, precision.T, err_msg=name)
        assert np.linalg.eigvalsh(precision).min() > 0.0, name
    for name in ("q_gamma", "q_xi"):
        before, after = getattr(beliefs, name), getattr(posterior, name)
        assert after.shape == before.shape + 0.5, name
        assert after.rate > 0.0, name
    assert math.isfinite(report.free_energy)
    assert all(map(math.isfinite, report.free_energy_trace))
    assert 1 <= report.iterations <= cfg.iterations_per_step


@PROPERTY_SETTINGS
@given(step_case())
def test_step_matches_reference_bit_for_bit(case):
    beliefs, u, y, cfg = case
    try:
        want_beliefs, want = reference_step_update(beliefs, u, y, cfg)
    except (ArithmeticError, ValueError, RuntimeError, RuntimeWarning):
        return  # the schedule itself fails on this draw (warnings are errors)
    got_beliefs, got = step_update(beliefs, u, y, cfg)
    assert_same_beliefs(got_beliefs, want_beliefs)
    assert_same_report(got, want)
