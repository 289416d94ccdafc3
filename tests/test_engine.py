"""Online inference loop, free energy and prediction protocols."""

import math
import re
import warnings

import numpy as np
import pytest

from duffingid import (
    BeliefSet,
    InferenceError,
    PhysicalParams,
    PriorConfig,
    UnstableSimulationError,
    evaluate_mse,
    identify,
    identify_stream,
    phys_to_ar,
    predict_onestep,
    simulate,
    simulate_rollout,
)
from duffingid import engine, nlarx
from duffingid.beliefs import (
    GammaBelief,
    GaussianBelief,
    ImproperBeliefError,
    digamma,
    gaussian_moments,
    independent,
)
from duffingid.duffing import TimeSeries
from duffingid.engine import (
    compute_free_energy,
    initial_beliefs,
    posterior_coefficients,
    step_update,
)

from oracles import oracle_free_energy, oracle_rollout, oracle_step_mean
from test_acceptance import RUN_CONFIG, make_resonant_series
from test_step_kernel import random_beliefs

DELTA = 0.1


def make_series(p, T, input_seed, sim_seed, amplitude=0.1):
    rng = np.random.default_rng(input_seed)
    u = amplitude * np.sin(2 * np.pi * 0.7 * np.arange(T) * DELTA) \
        + rng.normal(0, 1e-2, T)
    ts, latent = simulate(p, u, DELTA, seed=sim_seed)
    return ts, latent


def frozen_beliefs(coeffs, xi=1e6):
    """BeliefSet whose means are the given coefficients (for prediction)."""
    d = coeffs.theta.size
    return BeliefSet(
        q_coeffs=independent(GaussianBelief(coeffs.theta, np.eye(d)),
                             GaussianBelief([coeffs.eta], [[1.0]])),
        q_gamma=GammaBelief(2.0, 2.0 / coeffs.gamma),
        q_xi=GammaBelief(2.0, 2.0 / xi),
        q_state=GaussianBelief([0.0, 0.0], np.eye(2)),
    )


class TestInitialBeliefs:
    def test_defaults(self):
        beliefs = initial_beliefs(PriorConfig())
        np.testing.assert_allclose(beliefs.q_theta.mean, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(beliefs.q_theta.precision, np.eye(3) * 0.1)
        np.testing.assert_allclose(beliefs.q_eta.mean, [1.0])
        assert beliefs.q_gamma.shape == 1e3 and beliefs.q_gamma.rate == 1e1
        assert beliefs.q_xi.shape == 1e8 and beliefs.q_xi.rate == 1e3

    def test_numpy_integer_sweep_cap(self):
        # a cap read from a numpy array runs as the same int
        cfg = PriorConfig(iterations_per_step=np.int64(3), **RUN_CONFIG)
        assert type(cfg.iterations_per_step) is int
        ts, _ = make_series(PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0,
                                           xi=1e6), 60, input_seed=54,
                            sim_seed=54)
        _, reports = identify(ts, cfg)
        _, want = identify(ts, PriorConfig(iterations_per_step=3, **RUN_CONFIG))
        assert reports == want
        assert max(report.iterations for report in reports) == 3

    def test_coefficient_belief_is_the_product_of_its_parts(self):
        beliefs = initial_beliefs(PriorConfig(m0_eta=0.5, v0_eta=4.0))
        np.testing.assert_allclose(beliefs.q_coeffs.mean, [1.0, 1.0, 1.0, 0.5])
        np.testing.assert_allclose(beliefs.q_coeffs.precision,
                                   np.diag([0.1, 0.1, 0.1, 0.25]))
        _, cov = gaussian_moments(beliefs.q_coeffs)
        np.testing.assert_array_equal(cov[:3, 3], np.zeros(3))

    def test_larx_reduction(self):
        beliefs = initial_beliefs(PriorConfig(model_mode="larx",
                                              m0_theta=(1.5, 0.0, -0.5)))
        np.testing.assert_allclose(beliefs.q_theta.mean, [1.5, -0.5])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown model mode"):
            PriorConfig(model_mode="narx")
        for cap in (0, 2.5, True, "5"):
            with pytest.raises(ValueError, match="iterations_per_step"):
                PriorConfig(iterations_per_step=cap)
        with pytest.raises(TypeError, match="keyword argument 'epsilon'"):
            PriorConfig(epsilon=1e-8)
        for name in ("v0_theta", "a0_gamma", "b0_xi", "state0_cov"):
            for value in (math.inf, "1.0", (1.0,), True):
                with pytest.raises(ValueError,
                                   match=f"{name} must be positive and finite"):
                    PriorConfig(**{name: value})
        with pytest.raises(ValueError, match="trace_free_energy"):
            PriorConfig(trace_free_energy="no")
        # prior means of a length that does not fit the mode, or not finite
        for means, match in (({"m0_theta": (1.0, 2.0)}, "m0_theta must be 3"),
                             ({"m0_theta": (1.0,), "model_mode": "larx"},
                              "m0_theta must be 2"),
                             ({"state0_mean": (0.0, 0.0, 0.0)},
                              "state0_mean must be 2"),
                             ({"m0_eta": math.nan}, "must be finite"),
                             ({"m0_theta": (1.0, math.inf, 1.0)},
                              "must be finite"),
                             ({"state0_mean": (0.0, -math.inf)},
                              "must be finite"),
                             # a finite mean whose potential overflows
                             ({"m0_theta": (1e300,) * 3, "v0_theta": 1e-20},
                              "must be finite")):
            with pytest.raises(ValueError, match=match):
                PriorConfig(**means)
        # prior means that are not numbers are named
        for means, match in (({"m0_theta": ("a", "b", "c")},
                               "m0_theta must be 3 numbers"),
                             ({"m0_theta": "abc"}, "m0_theta must be 3 numbers"),
                             ({"m0_eta": (1, 2)}, "m0_eta must be a number"),
                             ({"m0_eta": "1.0"}, "m0_eta must be a number"),
                             ({"m0_eta": False}, "m0_eta must be a number"),
                             ({"m0_theta": (True, 1.0, 1.0)},
                              "m0_theta must be 3 numbers"),
                             ({"state0_mean": ("a", 0.0)},
                              "state0_mean must be 2 numbers"),
                             ({"state0_mean": (0.0, True)},
                              "state0_mean must be 2 numbers"),
                             ({"state0_mean": None},
                              "state0_mean must be 2 numbers")):
            with pytest.raises(ValueError, match=match):
                PriorConfig(**means)
        PriorConfig(model_mode="larx", m0_theta=(1.5, -0.5))
        # proper priors whose precision's determinant underflows to 0
        for wide in ({"v0_theta": 1e81, "v0_eta": 1e81}, {"state0_cov": 1e200},
                     {"model_mode": "larx", "v0_theta": 1e110, "v0_eta": 1e110}):
            names = " and ".join(name for name in wide if name != "model_mode")
            with pytest.raises(ValueError, match=f"from {names} is singular"):
                PriorConfig(**wide)
        # ... and narrow ones whose determinant overflows to inf
        for narrow in ({"v0_theta": 1e-100, "v0_eta": 1e-100},
                       {"state0_cov": 1e-200}):
            names = " and ".join(narrow)
            with pytest.raises(ValueError, match=f"from {names} is too narrow"):
                PriorConfig(**narrow)
        PriorConfig(v0_theta=1e80, v0_eta=1e80, state0_cov=1e160)
        PriorConfig(v0_theta=1e-70, v0_eta=1e-70, state0_cov=1e-150)

    def test_gamma_priors_leave_the_state_a_variance(self):
        # (E[gamma] + E[xi]) / EPSILON is q(z)'s precision determinant; where
        # it overflows, x_next's variance is 0 and F infinite at step 0
        for big in ({"a0_xi": 2.556348e305}, {"a0_gamma": 2.5e305}):
            with pytest.raises(ValueError,
                               match="a0_gamma, b0_gamma, a0_xi and b0_xi"):
                PriorConfig(**big)
        PriorConfig(a0_xi=1e303, b0_xi=1e3)  # 1e300 / EPSILON still fits


class TestStepUpdate:
    def test_prediction_taken_before_observation(self):
        cfg = PriorConfig()
        beliefs = initial_beliefs(cfg)
        forward = nlarx.msg_forward_state(
            beliefs.q_state, beliefs.q_coeffs, beliefs.q_gamma,
            cfg.node_config(0.4))
        _, report = step_update(beliefs, 0.4, 0.12, cfg)
        assert report.prediction_mean == pytest.approx(forward.mean[0])
        expected_var = 1.0 / beliefs.q_gamma.mean + 1.0 / beliefs.q_xi.mean
        assert report.prediction_var == pytest.approx(expected_var)

    @pytest.mark.parametrize("set_mode, state, mode, found", [
        ("nlarx", 2, "larx", "4 coefficients and a 2-entry state"),
        ("larx", 2, "nlarx", "3 coefficients and a 2-entry state"),
        ("nlarx", 1, "nlarx", "4 coefficients and a 1-entry state"),
        ("nlarx", 3, "nlarx", "4 coefficients and a 3-entry state")])
    def test_set_that_does_not_fit_the_mode(self, set_mode, state, mode, found):
        beliefs = initial_beliefs(PriorConfig(model_mode=set_mode))
        beliefs = BeliefSet(beliefs.q_coeffs, beliefs.q_gamma, beliefs.q_xi,
                            GaussianBelief(np.zeros(state), np.eye(state)))
        cfg = PriorConfig(model_mode=mode)
        takes = cfg.n_coeffs + 1
        with pytest.raises(ValueError, match="^" + re.escape(
                f"a belief set of {found} does not fit model_mode {mode!r}, "
                f"which takes {takes} and 2") + "$"):
            step_update(beliefs, 0.1, 0.05, cfg)

    def test_report_is_an_immutable_record(self):
        report = engine.StepReport(t=3, free_energy=-1.5, prediction_mean=0.1,
                                   prediction_var=0.2, iterations=2)
        assert report.free_energy_trace == ()
        assert report == engine.StepReport(3, -1.5, 0.1, 0.2, 2, ())
        assert (report.t, report.iterations) == (3, 2)
        with pytest.raises(AttributeError):
            report.free_energy = 0.0

    @pytest.mark.parametrize("trace", [False, True])
    def test_kernel_reports_are_step_reports(self, trace):
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 30, input_seed=54, sim_seed=54)
        cfg = PriorConfig(trace_free_energy=trace, **RUN_CONFIG)
        _, reports = identify(ts, cfg)
        beliefs = initial_beliefs(cfg)
        for t in range(5):
            beliefs, report = step_update(beliefs, ts.u[t], ts.y[t + 1], cfg, t)
            reports.append(report)
        for report in reports:
            assert type(report) is engine.StepReport
            assert report == (report.t, report.free_energy,
                              report.prediction_mean, report.prediction_var,
                              report.iterations, report.free_energy_trace)
            assert len(report.free_energy_trace) == (
                report.iterations if trace else 0)

    def test_no_observation_limit(self):
        # vanishing expected measurement precision: the state posterior is
        # the forward message alone
        cfg = PriorConfig(iterations_per_step=1, a0_xi=1.0, b0_xi=1e12)
        beliefs = initial_beliefs(cfg)
        forward = nlarx.msg_forward_state(
            beliefs.q_state, beliefs.q_coeffs, beliefs.q_gamma,
            cfg.node_config(0.3))
        after, _ = step_update(beliefs, 0.3, 0.2, cfg)
        np.testing.assert_allclose(after.q_state.mean, forward.mean, atol=1e-9)
        np.testing.assert_allclose(after.q_state.precision, forward.precision,
                                   rtol=1e-9)

    def test_degenerate_priors_pin_parameters(self):
        pin = 1e-14
        cfg = PriorConfig(v0_theta=pin, v0_eta=pin, a0_gamma=1e14,
                          b0_gamma=1e13, a0_xi=1e14, b0_xi=1e9)
        beliefs = initial_beliefs(cfg)
        after, _ = step_update(beliefs, 0.5, 0.3, cfg)
        np.testing.assert_allclose(after.q_theta.mean, beliefs.q_theta.mean,
                                   atol=1e-8)
        np.testing.assert_allclose(after.q_eta.mean, beliefs.q_eta.mean,
                                   atol=1e-8)
        assert after.q_gamma.mean == pytest.approx(beliefs.q_gamma.mean,
                                                   rel=1e-8)

    @pytest.mark.parametrize("mode", ["nlarx", "larx"])
    def test_theta_and_eta_are_marginals_of_the_joint(self, mode):
        cfg = PriorConfig(model_mode=mode, state0_cov=1e-4)
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 60, input_seed=62, sim_seed=62)
        beliefs, _ = identify(ts, cfg)
        mean, cov = gaussian_moments(beliefs.q_coeffs)
        d = cfg.n_coeffs
        np.testing.assert_array_equal(beliefs.q_theta.mean, mean[:d])
        np.testing.assert_array_equal(beliefs.q_eta.mean, mean[d:])
        np.testing.assert_allclose(np.linalg.inv(beliefs.q_theta.precision),
                                   cov[:d, :d], rtol=1e-8)
        np.testing.assert_allclose(1.0 / beliefs.q_eta.precision[0, 0],
                                   cov[d, d], rtol=1e-8)
        # the joint is not a product, so the checks above are not trivial
        corr = cov[:d, d] / np.sqrt(np.diag(cov)[:d] * cov[d, d])
        assert np.abs(corr).max() > 0.05

    @pytest.mark.parametrize("cap", [1, 3, 5])
    def test_iterations_counts_the_sweeps(self, cap):
        # one free energy per sweep in the trace; no step stops before its
        # second sweep or runs past the cap, and early steps reach it
        cfg = PriorConfig(iterations_per_step=cap, trace_free_energy=True,
                          **RUN_CONFIG)
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 100, input_seed=63, sim_seed=63)
        _, reports = identify(ts, cfg)
        sweeps = [r.iterations for r in reports]
        assert [len(r.free_energy_trace) for r in reports] == sweeps
        assert min(sweeps) >= min(cap, 2) and max(sweeps) == cap

    def test_xi_shape_grows_half_per_step(self):
        cfg = PriorConfig(iterations_per_step=4)
        beliefs = initial_beliefs(cfg)
        for t in range(7):
            beliefs, _ = step_update(beliefs, 0.1, 0.05 * t, cfg, t=t)
        assert beliefs.q_xi.shape == cfg.a0_xi + 7 / 2


class TestFreeEnergy:
    def test_matches_closed_form_evidence(self):
        # conjugate sub-case: every parameter pinned, state free; the free
        # energy at the exact posterior equals the negative log evidence
        pin, big = 1e-10, 1e10
        eps = 1e-4
        cfg = PriorConfig()
        theta = np.array([1.2, 0.3, -0.8])
        eta, gam, xi = 0.7, 4.0, 9.0
        zp = np.array([0.3, -0.1])
        u, y = 0.5, 1.1
        prior = BeliefSet(
            q_coeffs=independent(GaussianBelief(theta, np.eye(3) / pin),
                                 GaussianBelief([eta], [[1 / pin]])),
            q_gamma=GammaBelief(big, big / gam),
            q_xi=GammaBelief(big, big / xi),
            q_state=GaussianBelief(zp, np.eye(2) / pin))
        f0 = oracle_step_mean(theta, eta, zp, u)[0]
        prec = np.diag([gam + xi, 1 / eps])
        pot = np.array([gam * f0 + xi * y, zp[0] / eps])
        posterior = BeliefSet(prior.q_coeffs, prior.q_gamma, prior.q_xi,
                              GaussianBelief.from_natural(prec, pot))
        fe = compute_free_energy(posterior, u, y, prior, cfg)
        var = 1 / gam + 1 / xi
        neg_log_evidence = 0.5 * math.log(2 * math.pi * var) \
            + 0.5 * (y - f0) ** 2 / var
        assert fe == pytest.approx(neg_log_evidence, abs=1e-4)

        # perturbing the state mean adds exactly the KL of the perturbation
        shifted = GaussianBelief(
            posterior.q_state.mean + np.array([0.1, 0.0]), prec)
        fe_shifted = compute_free_energy(
            BeliefSet(prior.q_coeffs, prior.q_gamma, prior.q_xi, shifted),
            u, y, prior, cfg)
        assert fe_shifted - fe == pytest.approx(0.5 * (gam + xi) * 0.01,
                                                abs=1e-6)

    @pytest.mark.parametrize("mode", ["nlarx", "larx"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_matrix_form_oracle(self, seed, mode):
        # random proper beliefs: a correlated q(w) away from its prior, a
        # non-diagonal previous state and moved Gamma rates, so the prior's
        # quadratic term and the coefficient entropy are pinned too
        rng = np.random.default_rng(seed)
        cfg = PriorConfig(model_mode=mode)
        prior, posterior = random_beliefs(rng, cfg), random_beliefs(rng, cfg)
        assert posterior.q_gamma.rate != prior.q_gamma.rate
        assert prior.q_state.precision[0, 1] != 0.0
        u, y = rng.normal(0.0, 0.5, 2)
        want = oracle_free_energy(
            posterior.q_coeffs.mean, posterior.q_coeffs.precision,
            (posterior.q_gamma.shape, posterior.q_gamma.rate),
            (posterior.q_xi.shape, posterior.q_xi.rate),
            posterior.q_state.mean, posterior.q_state.precision,
            prior.q_coeffs.mean, prior.q_coeffs.precision,
            (prior.q_gamma.shape, prior.q_gamma.rate),
            (prior.q_xi.shape, prior.q_xi.rate),
            prior.q_state.mean, prior.q_state.precision,
            u, y, cubic=mode == "nlarx")
        got = compute_free_energy(posterior, u, y, prior, cfg)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("mode", ["nlarx", "larx"])
    def test_summed_free_energy_does_not_depend_on_epsilon(self, mode,
                                                           monkeypatch):
        # the Gaussian that ties q(z)'s copy of the previous state has width
        # EPSILON; the copy is no variable of its own, so F holds no term in
        # 1/EPSILON and only the small move of the estimates is left
        data = make_resonant_series(sim_seed=42)
        cfg = PriorConfig(model_mode=mode, **RUN_CONFIG)
        sums = []
        for epsilon in (1e-8, 1e-10):
            monkeypatch.setattr(engine, "EPSILON", epsilon)
            _, reports = identify(data, cfg)
            sums.append(math.fsum(r.free_energy for r in reports))
        assert abs(sums[1] - sums[0]) <= 1e-3 * abs(sums[0])

    def test_larx_within_step_monotone(self):
        # moderate noise priors: with shape ~1e8 the prior cross-entropy
        # terms are ~1e9 and their float cancellation noise (~1e-7) would
        # swamp the 1e-9 monotonicity tolerance
        p = PhysicalParams(m=1, c=0.5, a=2, b=0, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 200, input_seed=50, sim_seed=50)
        cfg = PriorConfig(model_mode="larx", iterations_per_step=8,
                          state0_cov=1e-4, a0_gamma=1.0, b0_gamma=1e-4,
                          a0_xi=10.0, b0_xi=1e-5, trace_free_energy=True)
        _, reports = identify(ts, cfg)
        for report in reports:
            diffs = np.diff(report.free_energy_trace)
            assert diffs.max() <= 1e-9

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("mode", ["nlarx", "larx"])
    def test_digamma_once_per_step(self, mode, trace, monkeypatch):
        # the step evaluates F where q(gamma) and q(xi) were just updated,
        # where the digammas of their shapes cancel, so it computes none,
        # however many sweeps evaluate F
        calls = []

        def counted(x):
            calls.append(x)
            return digamma(x)

        monkeypatch.setattr(engine, "digamma", counted)
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 200, input_seed=52, sim_seed=52)
        cfg = PriorConfig(model_mode=mode, trace_free_energy=trace,
                          **RUN_CONFIG)
        _, reports = identify(ts, cfg)
        assert sum(report.iterations for report in reports) > len(reports)
        assert calls == []

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("mode", ["nlarx", "larx"])
    def test_lgamma_twice_per_step(self, mode, trace, monkeypatch):
        # the carry brings the prior's log Gammas along, so a step computes
        # only those of its own shapes; the initial carry computes the
        # prior's two
        calls = []
        lgamma = math.lgamma

        def counted(x):
            calls.append(x)
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", counted)
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 201, input_seed=53, sim_seed=53)
        cfg = PriorConfig(model_mode=mode, trace_free_energy=trace,
                          **RUN_CONFIG)
        _, reports = identify(ts, cfg)
        assert len(reports) == 200
        assert sum(report.iterations for report in reports) > len(reports)
        assert len(calls) == 2 * len(reports) + 2

    def test_nlarx_final_not_above_first(self):
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 200, input_seed=51, sim_seed=51)
        cfg = PriorConfig(iterations_per_step=8, state0_cov=1e-4,
                          a0_gamma=1.0, b0_gamma=1e-4, a0_xi=10.0,
                          b0_xi=1e-5, trace_free_energy=True)
        _, reports = identify(ts, cfg)
        for report in reports:
            trace = report.free_energy_trace
            assert trace[-1] <= trace[0] + 1e-6


class TestIdentify:
    def test_insufficient_data(self):
        series = TimeSeries(np.zeros(3), np.zeros(3), DELTA)
        short = TimeSeries.__new__(TimeSeries)  # bypass length check
        object.__setattr__(short, "u", np.zeros(2))
        object.__setattr__(short, "y", np.zeros(2))
        object.__setattr__(short, "delta", DELTA)
        with pytest.raises(ValueError, match="insufficient data"):
            identify(short, PriorConfig())
        # three samples is the minimum and works
        beliefs, reports = identify(series, PriorConfig())
        assert len(reports) == 2

    def test_deterministic(self):
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 150, input_seed=60, sim_seed=60)
        cfg = PriorConfig(state0_cov=1e-4)
        b1, r1 = identify(ts, cfg)
        b2, r2 = identify(ts, cfg)
        np.testing.assert_array_equal(b1.q_theta.mean, b2.q_theta.mean)
        assert [r.free_energy for r in r1] == [r.free_energy for r in r2]
        assert [r.prediction_mean for r in r1] == \
            [r.prediction_mean for r in r2]

    def test_streaming_interface(self):
        cfg = PriorConfig()
        pairs = ((0.01 * t, 0.005 * t) for t in range(20))  # generator
        beliefs, reports = identify_stream(pairs, cfg)
        assert len(reports) == 20
        with pytest.raises(ValueError, match="insufficient data"):
            identify_stream(iter(()), cfg)

    def test_error_carries_step_index(self):
        stream = [(0.1, 0.05), (0.1, 0.04), (0.0, float("inf"))]
        with np.errstate(invalid="ignore"):
            with pytest.raises(InferenceError, match="step 2"):
                identify_stream(stream, PriorConfig())
            try:
                identify_stream(stream, PriorConfig())
            except InferenceError as exc:
                assert exc.step == 2

    @pytest.mark.parametrize("column", ["u", "y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_fails_early(self, column, value):
        bad = (value, 0.04) if column == "u" else (0.1, value)
        stream = [(0.1, 0.05)] * 7 + [bad, (0.1, 0.05)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InferenceError,
                               match="step 7: non-finite input/output sample"
                               ) as info:
                identify_stream(stream, PriorConfig())
        assert info.value.step == 7

    @pytest.mark.parametrize("case", [
        "non-finite input/output sample", "improper posterior",
        "improper past the leading block", "coefficient message overflow",
        "non-finite free energy", "unconvertible input/output sample",
        "diverged: non-finite state mean",
        "diverged: non-finite coefficient mean",
        "diverged: non-finite expected squared residual",
        "zero incoming E[gamma]", "zero incoming E[xi]"])
    @pytest.mark.parametrize("mode", ["nlarx", "larx"])
    def test_step_update_names_its_step(self, mode, case):
        # the step writes q(w) out once per coefficient count, so every
        # failure is raised in both modes
        cfg = PriorConfig(model_mode=mode)
        beliefs = initial_beliefs(cfg)
        q = beliefs.q_coeffs
        u, y, reason = 0.1, math.nan, case
        if case == "improper posterior":
            # an incoming q(w) that claims a covariance but has a negative
            # definite precision passes the incoming-belief check; one that
            # outweighs the coefficient message leaves the step's posterior
            # precision not positive definite
            indefinite = GaussianBelief._from_parts(
                -1e4 * q.precision, -q.potential, q.mean, q.cov, q.logdet)
            beliefs = BeliefSet(indefinite, beliefs.q_gamma, beliefs.q_xi,
                                beliefs.q_state)
            y = 0.05
        if case == "improper past the leading block":
            # the input gain coupled strongly to the rest: the posterior
            # precision's leading block is positive definite, so only the
            # last test of the closed-form inverse fails (the Schur
            # complement for 4 coefficients, the determinant for 3)
            precision = np.eye(q.dim)
            precision[-1, :-1] = precision[:-1, -1] = 20.0
            coupled = GaussianBelief._from_parts(
                precision, q.potential, q.mean, q.cov, q.logdet)
            beliefs = BeliefSet(coupled, beliefs.q_gamma, beliefs.q_xi,
                                beliefs.q_state)
            u, y, reason = 0.0, 0.05, "improper posterior"
            message = nlarx.msg_coefficients(
                beliefs.q_state, beliefs.q_state, beliefs.q_gamma,
                cfg.node_config(u))
            posterior = precision + message.precision
            assert np.linalg.eigvalsh(posterior[:-1, :-1]).min() > 0.0
            assert np.linalg.det(posterior) < 0.0
        if case == "coefficient message overflow":
            # u * u, the input gain's entry of the message precision, is inf
            u, y = 1e200, 0.05
            reason = "diverged: non-finite coefficient message precision"
        if case == "non-finite free energy":
            # E[xi] of 1e-250 keeps the state mean near the prediction, so
            # only the squared miss of a finite but huge y overflows
            beliefs = BeliefSet(beliefs.q_coeffs, beliefs.q_gamma,
                                GammaBelief(1.0, 1e250), beliefs.q_state)
            y = 1e200
        if case == "unconvertible input/output sample":
            u = "abc"
        if case == "diverged: non-finite state mean":
            # a huge forward mean, weighed by a huge E[gamma]
            beliefs = BeliefSet(GaussianBelief(np.full(q.dim, 1.5e307),
                                               100.0 * q.precision),
                                GammaBelief(1e300, 1.0), beliefs.q_xi,
                                beliefs.q_state)
            y = 1e150
        if case == "diverged: non-finite coefficient mean":
            # the input gain's potential and the message's sum past the
            # float range
            mean = np.ones(q.dim)
            mean[-1] = 1.7e298
            precision = q.precision.copy()
            precision[-1, -1] = 1e10
            beliefs = BeliefSet(GaussianBelief(mean, precision),
                                GammaBelief(1e10, 1.0), beliefs.q_xi,
                                beliefs.q_state)
            u, y = 1.0, 1e298
        if case == "diverged: non-finite expected squared residual":
            # finite means whose residual's square overflows
            beliefs = BeliefSet(GaussianBelief(np.full(q.dim, 1e300),
                                               q.precision),
                                beliefs.q_gamma, beliefs.q_xi, beliefs.q_state)
            y = 0.05
        if case.startswith("zero incoming"):
            # proper Gammas whose means round to 0: a shape far below its
            # rate, and a rate that overflowed to inf
            g, x = beliefs.q_gamma, beliefs.q_xi
            if case.endswith("E[gamma]"):
                g = GammaBelief(5e-324, 10.0)
            else:
                x = GammaBelief(1.0, math.inf)
            beliefs = BeliefSet(q, g, x, beliefs.q_state)
            y, reason = 0.05, r"an incoming E\[gamma\] or E\[xi\] is 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InferenceError,
                               match=f"step 11: {reason}") as info:
                step_update(beliefs, u, y, cfg, t=11)
        assert info.value.step == 11

    @pytest.mark.parametrize("case", ["improper gamma", "singular state"])
    def test_improper_incoming_belief_names_no_step(self, case):
        # a set built from beliefs is checked when the step reads its carry
        cfg = PriorConfig()
        beliefs = initial_beliefs(cfg)
        q_gamma, q_state = beliefs.q_gamma, beliefs.q_state
        if case == "improper gamma":
            q_gamma = GammaBelief(1.0, 0.0)
        else:  # a precision whose determinant underflows
            q_state = GaussianBelief([0.0, 0.0], np.diag([1e-300, 1e-300]))
        beliefs = BeliefSet(beliefs.q_coeffs, q_gamma, beliefs.q_xi, q_state)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImproperBeliefError, match="improper belief"):
                step_update(beliefs, 0.1, 0.05, cfg, t=11)

    @pytest.mark.parametrize("sim_seed, scale, step",
                             [(42, 1e3, 5), (2, 600.0, 6)])
    def test_divergence_fails_with_step_index(self, sim_seed, scale, step):
        # inputs hundreds of times too large for the priors: the state mean
        # grows about as its own cube until the coefficient message (seed
        # 42) or the cube of the regressor itself (seed 2) overflows; that
        # must stop the run with the step index and emit no numpy warning
        series = make_resonant_series(sim_seed=sim_seed)
        scaled = TimeSeries(series.u * scale, series.y, series.delta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InferenceError,
                               match=f"step {step}: diverged") as info:
                identify(scaled, PriorConfig(**RUN_CONFIG))
        assert info.value.step == step

    def test_larx_recovery_within_three_std(self):
        # the state-filtered posterior is mildly overconfident, so the seed
        # is fixed to a draw where the 3-sigma band holds
        p = PhysicalParams(m=1, c=0.5, a=2, b=0, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 503, input_seed=2030, sim_seed=30)
        cfg = PriorConfig(model_mode="larx", state0_cov=1e-4,
                          a0_gamma=1.0, b0_gamma=1e-4)
        beliefs, _ = identify(ts, cfg)
        truth = phys_to_ar(p, DELTA)
        th_mean, th_cov = gaussian_moments(beliefs.q_theta)
        eta_mean, eta_cov = gaussian_moments(beliefs.q_eta)
        target = truth.theta[[0, 2]]
        assert np.all(np.abs(th_mean - target)
                      <= 3.0 * np.sqrt(np.diag(th_cov)))
        assert abs(eta_mean[0] - truth.eta) <= 3.0 * math.sqrt(eta_cov[0, 0])

    def test_parameter_information_accumulates(self):
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e6)
        ts, _ = make_series(p, 120, input_seed=61, sim_seed=61)
        cfg = PriorConfig(state0_cov=1e-4)
        beliefs = initial_beliefs(cfg)
        for t, (u_t, y_t) in enumerate(zip(ts.u[:-1], ts.y[1:])):
            after, _ = step_update(beliefs, u_t, y_t, cfg, t=t)
            gain = after.q_theta.precision - beliefs.q_theta.precision
            assert np.linalg.eigvalsh(gain).min() >= -1e-8
            assert after.q_eta.precision[0, 0] \
                >= beliefs.q_eta.precision[0, 0] - 1e-10
            beliefs = after


class TestPredictionProtocols:
    def setup_method(self):
        self.p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=1e8, xi=1e8)
        self.coeffs = phys_to_ar(self.p, DELTA)
        rng = np.random.default_rng(70)
        u = 0.1 * np.sin(2 * np.pi * 0.7 * np.arange(400) * DELTA) \
            + rng.normal(0, 1e-2, 400)
        self.clean, _ = simulate(self.p, u, DELTA, seed=0, noise_free=True)

    def test_perfect_model_onestep(self):
        pred = predict_onestep(frozen_beliefs(self.coeffs), self.clean,
                               PriorConfig())
        np.testing.assert_allclose(pred, self.clean.y, atol=1e-12)

    def test_perfect_model_rollout(self):
        pred = simulate_rollout(frozen_beliefs(self.coeffs), self.clean,
                                PriorConfig())
        np.testing.assert_allclose(pred, self.clean.y, atol=1e-9)

    def test_zero_model_mse(self):
        from duffingid.duffing import ArCoefficients
        zero = ArCoefficients([0.0, 0.0, 0.0], 0.0, 1.0)
        pred = predict_onestep(frozen_beliefs(zero), self.clean, PriorConfig())
        # the first two samples are given, so they contribute no error
        y = self.clean.y
        expected = np.sum(y[2:] ** 2) / len(y)
        assert evaluate_mse(pred, y) == pytest.approx(expected)

    def test_rollout_at_least_onestep(self):
        p = PhysicalParams(m=1, c=0.5, a=2, b=3, tau=10.0, xi=1e5)
        ts, _ = make_series(p, 300, input_seed=71, sim_seed=71)
        beliefs = frozen_beliefs(phys_to_ar(p, DELTA))
        mse_roll = evaluate_mse(simulate_rollout(beliefs, ts, PriorConfig()),
                                ts.y)
        mse_one = evaluate_mse(predict_onestep(beliefs, ts, PriorConfig()),
                               ts.y)
        assert mse_roll >= mse_one

    def test_zero_input_rollout_decays(self):
        coeffs = self.coeffs
        # companion-matrix spectral radius below one for these coefficients
        companion = np.array([[coeffs.theta[0], coeffs.theta[2]], [1.0, 0.0]])
        assert np.abs(np.linalg.eigvals(companion)).max() < 1.0
        data = TimeSeries(np.zeros(500), np.zeros(500), DELTA)
        data = TimeSeries(data.u, np.concatenate([[0.05, 0.04], np.zeros(498)]),
                          DELTA)
        pred = simulate_rollout(frozen_beliefs(coeffs), data, PriorConfig())
        assert np.all(np.isfinite(pred))
        assert abs(pred[-1]) < 1e-3
        assert np.abs(pred).max() <= 0.06

    @pytest.mark.parametrize("keep", [[0, 1, 2], [0, 2]])
    def test_rollout_matches_step_mean_recursion(self, keep):
        from duffingid.duffing import ArCoefficients
        coeffs = ArCoefficients(self.coeffs.theta[keep], self.coeffs.eta, 1.0)
        data = self.clean
        pred = simulate_rollout(frozen_beliefs(coeffs), data, PriorConfig())
        want = data.y.copy()
        z = np.array([data.y[1], data.y[0]])
        for t in range(2, len(data)):
            z = oracle_step_mean(coeffs.theta, coeffs.eta, z, data.u[t - 1])
            want[t] = z[0]
        # same recursion; only the summation order of the drift differs
        np.testing.assert_allclose(pred, want, rtol=1e-12, atol=1e-15)

    def test_larx_rollout_is_nlarx_without_the_cubic(self):
        from duffingid.duffing import ArCoefficients
        th = self.coeffs.theta
        linear = ArCoefficients([th[0], th[2]], self.coeffs.eta, 1.0)
        cubic_off = ArCoefficients([th[0], 0.0, th[2]], self.coeffs.eta, 1.0)
        larx = simulate_rollout(frozen_beliefs(linear), self.clean, PriorConfig())
        cubic = simulate_rollout(frozen_beliefs(cubic_off), self.clean,
                                 PriorConfig())
        np.testing.assert_array_equal(larx, cubic)
        # the series has b != 0, so this is a real rollout, not a copy of y
        assert np.abs(larx - self.clean.y).max() > 1e-6
        # and the 1-step protocol
        np.testing.assert_array_equal(
            predict_onestep(frozen_beliefs(linear), self.clean, PriorConfig()),
            predict_onestep(frozen_beliefs(cubic_off), self.clean,
                            PriorConfig()))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("mode", ["nlarx", "larx"])
    def test_rollout_is_the_noise_free_simulation(self, seed, mode):
        # one recursion behind both: the rollout of the generating
        # coefficients reproduces the noise-free simulation bit for bit
        from duffingid.duffing import ArCoefficients
        p = PhysicalParams(m=1, c=0.5, a=2, b=3 if mode == "nlarx" else 0,
                           tau=1e8, xi=1e8)
        rng = np.random.default_rng(seed)
        u = 0.1 * np.sin(2 * np.pi * 0.7 * np.arange(600) * DELTA) \
            + rng.normal(0, 1e-2, 600)
        clean, latent = simulate(p, u, DELTA, seed=seed, noise_free=True,
                                 x0=tuple(rng.normal(0, 0.05, 2)))
        coeffs = phys_to_ar(p, DELTA)
        if mode == "larx":
            coeffs = ArCoefficients(coeffs.theta[[0, 2]], coeffs.eta, 1.0)
        pred = simulate_rollout(frozen_beliefs(coeffs), clean,
                                PriorConfig(model_mode=mode))
        np.testing.assert_array_equal(pred, latent)

    @pytest.mark.parametrize("seed", range(5))
    def test_cube_free_loops_match_the_cubic_oracle(self, seed):
        # a LARX rollout and a b = 0 simulation run propagate's loop without
        # the cube; the oracle keeps theta2 * (x * x * x), so a cube-free
        # loop that computes anything else fails here, value or signbit
        from duffingid.duffing import ArCoefficients
        rng = np.random.default_rng(seed)
        n = 500
        u, y = rng.normal(0, 1, n), rng.normal(0, 1, n)
        # stable: the companion matrix has roots radius * exp(+-i angle)
        radius, angle = rng.uniform(0.5, 0.95), rng.uniform(0.01, np.pi)
        theta = [2 * radius * math.cos(angle), -radius ** 2]
        coeffs = ArCoefficients(theta, rng.uniform(1e-3, 1.0), 1.0)
        pred = simulate_rollout(frozen_beliefs(coeffs), TimeSeries(u, y, DELTA),
                                PriorConfig(model_mode="larx"))
        p = PhysicalParams(m=rng.uniform(0.5, 2), c=rng.uniform(0, 1),
                           a=rng.uniform(0.5, 5), b=0, tau=1e8, xi=1e8)
        x0 = tuple(rng.normal(0, 0.1, 2))
        _, latent = simulate(p, u, DELTA, seed=seed, noise_free=True, x0=x0)
        ar = phys_to_ar(p, DELTA)
        assert ar.theta[1] == 0
        for got, want in ((pred, oracle_rollout(theta, coeffs.eta, u, y[:2])),
                          (latent, oracle_rollout(ar.theta, ar.eta, u,
                                                  x0[::-1]))):
            assert np.abs(got).max() > 0.1  # a real trajectory, not zeros
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("keep", [[0, 1, 2], [0, 2]], ids=["nlarx", "larx"])
    def test_rollout_overflow_is_named(self, keep):
        from duffingid.duffing import ArCoefficients
        coeffs = ArCoefficients(self.coeffs.theta[keep], self.coeffs.eta, 1.0)
        y = np.zeros(50)
        # its float cube overflows; in LARX, x[2] is beyond the guard
        y[1] = 1e200
        data = TimeSeries(np.zeros(50), y, DELTA)
        with pytest.raises(UnstableSimulationError, match="at step 2$"):
            simulate_rollout(frozen_beliefs(coeffs), data, PriorConfig())

    def test_onestep_overflow_is_named(self):
        y = np.zeros(50)
        y[1] = 1e200  # its float cube overflows
        data = TimeSeries(np.zeros(50), y, DELTA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableSimulationError, match="at step 2$"):
                predict_onestep(frozen_beliefs(self.coeffs), data,
                                PriorConfig())

    def test_rollout_divergence_guard(self):
        from duffingid.duffing import ArCoefficients
        unstable = ArCoefficients([3.0, 0.0, 1.5], 0.1, 1.0)
        data = TimeSeries(np.ones(200), np.full(200, 2.0), DELTA)
        with pytest.raises(UnstableSimulationError):
            simulate_rollout(frozen_beliefs(unstable), data, PriorConfig())


class TestEvaluateMse:
    def test_identical_series(self):
        assert evaluate_mse(np.ones(10), np.ones(10)) == 0.0

    def test_constant_offset(self):
        assert evaluate_mse(np.full(50, 0.01), np.zeros(50)) == \
            pytest.approx(1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            evaluate_mse(np.zeros(3), np.zeros(4))

    def test_overflowing_square_is_inf(self):
        # a miss whose square is beyond float range, with no warning
        assert evaluate_mse(np.array([1e200, 0.0]), np.zeros(2)) == math.inf


class TestPosteriorCoefficients:
    def test_roundtrip_means(self):
        coeffs = phys_to_ar(PhysicalParams(1, 0.5, 2, 3, 10, 1e6), DELTA)
        out = posterior_coefficients(frozen_beliefs(coeffs))
        np.testing.assert_allclose(out.theta, coeffs.theta)
        assert out.eta == pytest.approx(coeffs.eta)
        assert out.gamma == pytest.approx(coeffs.gamma)
