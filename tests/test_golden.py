"""Fixed-seed golden values of a short identification run.

The numbers were recorded from the engine that first kept one joint
belief over the coefficients (theta, eta). A refactor meant to leave the
estimates unchanged must reproduce them to 1e-12 relative. Regenerate them
only for a deliberate change of the estimator, and record why.
"""

import numpy as np
import pytest

from duffingid import PriorConfig, identify
from test_acceptance import RUN_CONFIG, make_series

RTOL = 1e-12
STEPS = (0, 1, 150, 299)

GOLDEN = {
    "nlarx": dict(
        coeffs_mean=[1.9067204932111974, 0.07213920535819796,
                     -0.9258515118692789, 0.012743201690587264],
        coeffs_precision=[
            [49114.962378420736, 886.1846014659487, 48699.42562655269,
             -3312.500473820181],
            [886.1846014659487, 24.88710037438405, 878.8626500815864,
             -48.53695365852852],
            [48699.42562655269, 878.8626500815864, 49223.053299221174,
             -3333.588884336717],
            [-3312.500473820181, -48.53695365852852, -3333.588884336717,
             38576.495362078895]],
        gamma=(151.0, 0.004147715654286885),
        xi=(160.0, 0.00015467129589567544),
        state_mean=[0.045384981525736626, 0.047657346661740325],
        free_energy=[5000.466196796062, 47.084951769490374,
                     43.63227040227053, 42.61967005523981],
        prediction_mean=[0.01985671989323392, 0.0010625194792377383,
                         0.03903517352120389, 0.0423854358987395],
    ),
    "larx": dict(
        coeffs_mean=[1.9080637190491563, -0.9259122213343223,
                     0.012777548563667447],
        coeffs_precision=[
            [50077.15619940055, 49656.65816472409, -3382.7381608795467],
            [49656.65816472409, 50194.783383043105, -3404.873522967992],
            [-3382.7381608795467, -3404.873522967992, 39364.85494861225]],
        gamma=(151.0, 0.00406272295558757),
        xi=(160.0, 0.00015464096229962445),
        state_mean=[0.04538469976476559, 0.047659648127071665],
        free_energy=[5000.466196796063, 47.0849517694831,
                     43.59496372080746, 42.5652510557627],
        prediction_mean=[0.01985671989323392, 0.0010625194793972568,
                         0.03909456552405804, 0.042444684252621025],
        trace_at_150=[43.59496384888898, 43.59496372081364, 43.5949637208077,
                      43.59496372080753, 43.59496372080746],
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
