"""The engine's flat step kernel against the message schedule it replaces.

`reference_step_update` composes one online step from the tested message
API: the `nlarx` messages, `combine_gaussian`/`combine_gamma` and
`compute_free_energy`, and stops sweeping by its own test of the rule in
`engine.CONVERGENCE_TOL`. The kernel behind `step_update` and
`identify_stream` must give bit-identical posteriors, predictions and sweep
counts and the same free energy to 1e-12 relative, so that the two cannot
drift apart.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from duffingid import PriorConfig, identify, nlarx
from duffingid.beliefs import (
    GammaBelief,
    GaussianBelief,
    combine_gamma,
    combine_gaussian,
    gaussian_moments,
)
from duffingid.engine import (
    CONVERGENCE_TOL,
    BeliefSet,
    StepReport,
    compute_free_energy,
    initial_beliefs,
    step_update,
)
from test_acceptance import RUN_CONFIG, make_resonant_series, make_series

FREE_ENERGY_RTOL = 1e-12
# largest move of the final posterior that the convergence stop may cause
DRIFT_BOUND = 1e-6
SURROGATE = Path(__file__).resolve().parent.parent / "bench" / "surrogate.py"


def reference_step_update(beliefs, u_t, y_t, cfg, t=0, tol=CONVERGENCE_TOL):
    """One online step as a schedule of messages: predict, then iterate.

    Within every iteration the fresh messages are combined with the beliefs
    the step started from (the previous posteriors act as this step's
    priors), so repeated iterations refine rather than double-count the
    observation. From the second iteration on, the step stops once an
    iteration moved every coefficient mean by less than `tol` of its
    posterior sd and E[gamma] by less than `tol` relative; `tol=0` never
    stops early, so every step runs `cfg.iterations_per_step` iterations.
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
    for k in range(cfg.iterations_per_step):
        previous = current
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
        if k > 0:
            moved = np.abs(q_coeffs.mean - previous.q_coeffs.mean)
            sd = np.sqrt(np.diag(gaussian_moments(q_coeffs)[1]))
            e_gamma, before = q_gamma.mean, previous.q_gamma.mean
            if (abs(e_gamma - before) < tol * e_gamma
                    and np.all(moved < tol * sd)):
                break

    final_free_energy = (
        trace[-1] if trace
        else compute_free_energy(current, u_t, y_t, incoming, cfg))
    return current, StepReport(t=t, free_energy=final_free_energy,
                               prediction_mean=pred_mean,
                               prediction_var=pred_var,
                               iterations=k + 1,
                               free_energy_trace=tuple(trace))


def assert_same_beliefs(got: BeliefSet, want: BeliefSet):
    for name in ("q_coeffs", "q_state"):
        g, w = getattr(got, name), getattr(want, name)
        np.testing.assert_array_equal(g.precision, w.precision, err_msg=name)
        np.testing.assert_array_equal(g.mean, w.mean, err_msg=name)
    for name in ("q_gamma", "q_xi"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g.shape, g.rate) == (w.shape, w.rate), name


def assert_same_report(got: StepReport, want: StepReport):
    assert got.t == want.t
    assert got.prediction_mean == want.prediction_mean
    assert got.prediction_var == want.prediction_var
    assert got.iterations == want.iterations
    np.testing.assert_allclose(got.free_energy, want.free_energy,
                               rtol=FREE_ENERGY_RTOL, atol=0.0)
    assert len(got.free_energy_trace) == len(want.free_energy_trace)
    if want.free_energy_trace:
        np.testing.assert_allclose(got.free_energy_trace, want.free_energy_trace,
                                   rtol=FREE_ENERGY_RTOL, atol=0.0)


def random_spd(rng, dim, scale):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


def random_beliefs(rng, cfg):
    """Proper beliefs with a correlated coefficient belief and a
    non-diagonal state belief."""
    n = cfg.n_coeffs + 1
    return BeliefSet(
        q_coeffs=GaussianBelief(rng.normal(0.0, 1.0, n), random_spd(rng, n, 50.0)),
        q_gamma=GammaBelief(rng.uniform(2.0, 50.0), rng.uniform(0.01, 1.0)),
        q_xi=GammaBelief(rng.uniform(2.0, 50.0), rng.uniform(0.001, 0.1)),
        q_state=GaussianBelief(rng.normal(0.0, 0.5, 2), random_spd(rng, 2, 100.0)),
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["nlarx", "larx"])
@pytest.mark.parametrize("seed", range(4))
def test_step_matches_reference_on_random_beliefs(seed, mode, trace):
    rng = np.random.default_rng(seed)
    cfg = PriorConfig(model_mode=mode, trace_free_energy=trace,
                      iterations_per_step=int(rng.integers(1, 6)))
    beliefs = random_beliefs(rng, cfg)
    assert abs(gaussian_moments(beliefs.q_state)[1][0, 1]) > 0.0
    u_t, y_t = rng.normal(0.0, 0.5, 2)
    got = step_update(beliefs, u_t, y_t, cfg, t=seed)
    want = reference_step_update(beliefs, u_t, y_t, cfg, t=seed)
    assert_same_beliefs(got[0], want[0])
    assert_same_report(got[1], want[1])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["nlarx", "larx"])
def test_run_matches_reference_schedule(mode, trace):
    series = make_series(sim_seed=7, T=301)
    cfg = PriorConfig(model_mode=mode, trace_free_energy=trace, **RUN_CONFIG)
    beliefs, reports = identify(series, cfg)
    assert len(reports) == 300
    # the run covers both ends of the stop: settled and capped steps
    sweeps = [r.iterations for r in reports]
    assert min(sweeps) < cfg.iterations_per_step == max(sweeps)

    ref = stepped = initial_beliefs(cfg)
    pairs = zip(series.u[:-1], series.y[1:])
    for t, (u_t, y_t) in enumerate(pairs):
        ref, want = reference_step_update(ref, float(u_t), float(y_t), cfg, t=t)
        stepped, got = step_update(stepped, u_t, y_t, cfg, t=t)
        assert_same_report(reports[t], want)
        assert_same_report(got, want)
    assert_same_beliefs(beliefs, ref)
    assert_same_beliefs(stepped, ref)


def load_surrogate():
    spec = importlib.util.spec_from_file_location("bench_surrogate", SURROGATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DRIFT_SERIES = {
    "golden": lambda: make_series(sim_seed=7, T=301),
    "resonant": lambda: make_resonant_series(sim_seed=42),
    "silverbox": lambda: load_surrogate().silverbox_dataset(1, 2000, 3).training,
}


@pytest.mark.parametrize("name", sorted(DRIFT_SERIES))
def test_stop_stays_within_the_drift_bound(name):
    # the oracle runs the full schedule of 5 iterations at every step; the
    # convergence stop may move the final posterior by less than
    # DRIFT_BOUND of the oracle's posterior sd (means) or relative (E[gamma],
    # E[xi])
    series = DRIFT_SERIES[name]()
    cfg = PriorConfig(**RUN_CONFIG)
    assert cfg.iterations_per_step == 5
    beliefs, reports = identify(series, cfg)
    oracle = initial_beliefs(cfg)
    for t, (u_t, y_t) in enumerate(zip(series.u[:-1], series.y[1:])):
        oracle, _ = reference_step_update(oracle, float(u_t), float(y_t), cfg,
                                          t=t, tol=0.0)
    sd = np.sqrt(np.diag(gaussian_moments(oracle.q_coeffs)[1]))
    drift = np.abs(beliefs.q_coeffs.mean - oracle.q_coeffs.mean) / sd
    assert drift.max() < DRIFT_BOUND
    for part in ("q_gamma", "q_xi"):
        got, want = getattr(beliefs, part).mean, getattr(oracle, part).mean
        assert abs(got - want) < DRIFT_BOUND * want, part
    assert np.mean([r.iterations for r in reports]) < cfg.iterations_per_step


@pytest.mark.parametrize("mode", ["nlarx", "larx"])
def test_closed_form_coefficient_inverse_stays_accurate(mode):
    # the kernel inverts the joint coefficient precision in closed form at
    # every iteration; after a long resonant run it must still agree with
    # LAPACK entry by entry, the small theta/eta cross terms included
    cfg = PriorConfig(model_mode=mode, **RUN_CONFIG)
    beliefs, reports = identify(make_resonant_series(sim_seed=42, T=2001), cfg)
    assert len(reports) == 2000
    _, cov = gaussian_moments(beliefs.q_coeffs)
    lapack = np.linalg.inv(beliefs.q_coeffs.precision)
    np.testing.assert_allclose(cov, lapack, rtol=1e-12, atol=0.0)
