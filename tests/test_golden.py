"""Fixed-seed golden values of a short identification run.

The numbers were first recorded from the engine that first kept one joint
belief over the coefficients (theta, eta), and recorded again when each
step began to stop sweeping at convergence (`engine.CONVERGENCE_TOL`). A
refactor meant to leave the estimates unchanged must reproduce them to
1e-12 relative. Regenerate them only for a deliberate change of the
estimator, and record why.
"""

import numpy as np
import pytest

from duffingid import PriorConfig, identify
from test_acceptance import RUN_CONFIG, make_series

RTOL = 1e-12
STEPS = (0, 1, 150, 299)

GOLDEN = {
    "nlarx": dict(
        coeffs_mean=[1.906720492936999, 0.07213920037905552,
                     -0.9258515115617715, 0.012743201769269977],
        coeffs_precision=[
            [49114.961768127796, 886.1845902232803, 48699.42503268776,
             -3312.5004786023405],
            [886.1845902232803, 24.887100045449227, 878.8626391837618,
             -48.536954479613556],
            [48699.42503268776, 878.8626391837618, 49223.052709972544,
             -3333.5888920236266],
            [-3312.5004786023405, -48.536954479613556, -3333.5888920236266,
             38576.49489731973]],
        gamma=(151.0, 0.004147715734131497),
        xi=(160.0, 0.00015467130875775287),
        state_mean=[0.04538498151856071, 0.04765734666203257],
        free_energy=[5000.466196796062, 47.084951769490374,
                     43.632274497101264, 42.61967392733217],
        prediction_mean=[0.01985671989323392, 0.0010625194792377383,
                         0.039035173516227976, 0.042385435892794886],
    ),
    "larx": dict(
        coeffs_mean=[1.9080637185313987, -0.9259122208526257,
                     0.012777548614462012],
        coeffs_precision=[
            [50077.155523361565, 49656.65750262049, -3382.7381307005353],
            [49656.65750262049, 50194.782721458185, -3404.873494686174],
            [-3382.7381307005353, -3404.873494686174, 39364.85440544619]],
        gamma=(151.0, 0.0040627230376463815),
        xi=(160.0, 0.00015464097527781356),
        state_mean=[0.04538469975771897, 0.04765964812750897],
        free_energy=[5000.466196796063, 47.0849517694831,
                     43.594967843506, 42.56525496030951],
        prediction_mean=[0.01985671989323392, 0.0010625194793972568,
                         0.03909456551497336, 0.042444684246386775],
        trace_at_150=[43.594967971587174, 43.59496784351205, 43.594967843506],
    ),
}


@pytest.fixture(scope="module")
def series():
    return make_series(sim_seed=7, T=301)


@pytest.mark.parametrize("mode, trace", [("nlarx", False), ("larx", True)])
def test_fixed_seed_estimates(series, mode, trace):
    want = GOLDEN[mode]
    cfg = PriorConfig(model_mode=mode, trace_free_energy=trace, **RUN_CONFIG)
    beliefs, reports = identify(series, cfg)
    assert len(reports) == 300

    def close(got, expected):
        np.testing.assert_allclose(got, expected, rtol=RTOL, atol=0.0)

    close(beliefs.q_coeffs.mean, want["coeffs_mean"])
    close(beliefs.q_coeffs.precision, want["coeffs_precision"])
    close((beliefs.q_gamma.shape, beliefs.q_gamma.rate), want["gamma"])
    close((beliefs.q_xi.shape, beliefs.q_xi.rate), want["xi"])
    close(beliefs.q_state.mean, want["state_mean"])
    close([reports[t].free_energy for t in STEPS], want["free_energy"])
    close([reports[t].prediction_mean for t in STEPS], want["prediction_mean"])
    if trace:
        close(reports[150].free_energy_trace, want["trace_at_150"])
    else:
        assert all(r.free_energy_trace == () for r in reports)
