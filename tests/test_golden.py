"""Fixed-seed golden values of a short identification run.

The numbers were first recorded from the engine that first kept one joint
belief over the coefficients (theta, eta), recorded again when each step
began to stop sweeping at convergence (`engine.CONVERGENCE_TOL`), and
recorded once more when every product on the estimation path became
`beliefs.dot`, summed left to right: the coefficient mean had been a BLAS
product whose summation order, and so its rounding, depended on the
OpenBLAS kernel. The free-energy entries alone were recorded again when
the free energy stopped counting the copy of the previous state that q(z)
holds, with every estimate unchanged. A refactor meant to leave the
estimates unchanged must reproduce them to 1e-12 relative. Regenerate them only for a deliberate
change of the estimator, and record why.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from duffingid import PriorConfig, identify
from test_acceptance import RUN_CONFIG, make_series

RTOL = 1e-12
STEPS = (0, 1, 150, 299)

GOLDEN = {
    "nlarx": dict(
        coeffs_mean=[1.9067204929368147, 0.07213920038028529,
                     -0.9258515115615793, 0.012743201769270282],
        coeffs_precision=[
            [49114.96176810216, 886.1845902228372, 48699.42503266216,
             -3312.5004786006866],
            [886.1845902228372, 24.887100045437222, 878.8626391833195,
             -48.536954479591884],
            [48699.42503266216, 878.8626391833195, 49223.05270994658,
             -3333.588892022037],
            [-3312.5004786006866, -48.536954479591884, -3333.588892022037,
             38576.49489729937]],
        gamma=(151.0, 0.004147715734133019),
        xi=(160.0, 0.00015467130875775599),
        state_mean=[0.04538498151856078, 0.0476573466620326],
        free_energy=[0.46619679606259723, -2.729960536591875,
                     -3.9854313143417173, -4.077784335804704],
        prediction_mean=[0.01985671989323392, 0.0010625194792377383,
                         0.03903517351622562, 0.04238543589279559],
    ),
    "larx": dict(
        coeffs_mean=[1.908063718531299, -0.925912220852552,
                     0.012777548614461856],
        coeffs_precision=[
            [50077.15552335667, 49656.65750261562, -3382.738130700157],
            [49656.65750261562, 50194.78272145326, -3404.873494685812],
            [-3382.738130700157, -3404.873494685812, 39364.85440544219]],
        gamma=(151.0, 0.004062723037646609),
        xi=(160.0, 0.00015464097527781356),
        state_mean=[0.04538469975771893, 0.04765964812750895],
        free_energy=[0.46619679606259723, -2.7299605365991475,
                     -3.98828772971123, -4.090339506507712],
        prediction_mean=[0.01985671989323392, 0.0010625194793972568,
                         0.03909456551497395, 0.04244468424638771],
        trace_at_150=[-3.9882876016302884, -3.988287729705304,
                      -3.98828772971123],
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


# identify on the series and config in the JSON file named by argv[1],
# printed as JSON, whose floats round-trip exactly
_RUN = """
import json, sys
from duffingid import PriorConfig, TimeSeries, identify
with open(sys.argv[1]) as handle:
    u, y, delta, config = json.load(handle)
beliefs, reports = identify(TimeSeries(u, y, delta), PriorConfig(**config))
print(json.dumps([
    [(g.precision.tolist(), g.potential.tolist(), g.mean.tolist(),
      g.cov.tolist(), g.logdet)
     for g in (beliefs.q_coeffs, beliefs.q_theta, beliefs.q_eta,
               beliefs.q_state)],
    [(g.shape, g.rate) for g in (beliefs.q_gamma, beliefs.q_xi)],
    [(r.free_energy, r.prediction_mean, r.iterations) for r in reports]]))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE names x86-64 kernels")
def test_estimates_do_not_depend_on_the_blas_kernel(series, tmp_path):
    # the golden NLARX run under the default OpenBLAS kernel and under two
    # without fused multiply-add, which a current x86-64 machine's has
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {key: value for key, value in os.environ.items()
           if key != "OPENBLAS_CORETYPE"}
    data = tmp_path / "run.json"
    data.write_text(json.dumps([series.u.tolist(), series.y.tolist(),
                                series.delta, RUN_CONFIG]))
    runs = [subprocess.Popen(
        [sys.executable, "-c", _RUN, str(data)], stdout=subprocess.PIPE,
        env={**env, "PYTHONPATH": path, **kernel}, text=True)
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"},
                       {"OPENBLAS_CORETYPE": "Sandybridge"})]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0, 0]
    default, *others = [json.loads(out) for out in outputs]
    for other in others:
        assert other == default
