"""End-to-end acceptance suite.

Each test verifies one numbered acceptance criterion and records a single
pass/fail line that the terminal summary prints at the end of the run
(see conftest.py).  Criterion 1 needs the Silverbox benchmark file; it is
skipped with a visible notice when the file is absent (see README for where
to place it).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import record_criterion
from duffingid import (
    PhysicalParams,
    PriorConfig,
    ar_to_phys,
    evaluate_mse,
    identify,
    phys_to_ar,
    predict_onestep,
    simulate,
    simulate_rollout,
)
from duffingid.beliefs import (
    GaussianBelief,
    combine_gaussian,
    gaussian_moments,
    independent,
)
from duffingid.dataio import SILVERBOX_DELTA, SILVERBOX_SPLIT, \
    load_csv, split
from duffingid.engine import posterior_coefficients
from duffingid.nlarx import (
    msg_eta,
    msg_forward_state,
    msg_gamma,
    msg_theta,
    msg_xi,
)
from oracles import (
    oracle_expected_square_residual,
    oracle_msg_eta,
    oracle_msg_forward_state,
    oracle_msg_theta,
    oracle_msg_xi_rate,
)
from test_nlarx import (
    assert_natural_close,
    pinned_gamma,
    pinned_gaussian,
    random_case,
)

DELTA = 0.1
TRUE_PARAMS = PhysicalParams(m=1.0, c=0.5, a=2.0, b=3.0, tau=10.0, xi=1e6)

# cold-start configuration used for every identification run below: weak
# noise-precision priors and a tight initial state so the first steps are
# data- rather than prior-dominated
RUN_CONFIG = dict(state0_cov=1e-4, a0_gamma=1.0, b0_gamma=1e-4,
                  a0_xi=10.0, b0_xi=1e-5)

SILVERBOX_ENV = "DUFFINGID_SILVERBOX"


def silverbox_path() -> Path:
    env = os.environ.get(SILVERBOX_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "silverbox.csv"


def make_series(sim_seed, input_seed=1042, T=2000):
    rng = np.random.default_rng(input_seed)
    u = 0.1 * np.sin(2.0 * np.pi * 0.7 * np.arange(T) * DELTA) \
        + rng.normal(0.0, 1e-2, T)
    ts, _ = simulate(TRUE_PARAMS, u, DELTA, seed=sim_seed)
    return ts


# The series shared by criteria 2 and 6. Its input sits near the resonance
# sqrt(a/m)/(2 pi) = 0.225 Hz: x has std 0.47 and the cubic stiffness is
# b*E[x^2]/a = 0.33 of the linear one, so the data carry m, c, a and b.
# Least squares of the latent x[t+1] on (x[t], x[t]^3, x[t-1], u[t]), which
# no estimator working from y can beat, recovers all four within 6.8% at sim
# seeds 42 and 1-5. The input of `make_series` (0.1*sin at 0.7 Hz, 3x the
# resonance) leaves x at std 0.07 and b*E[x^2]/a at 0.008; that same least
# squares then misses b by 452% at seed 42 and misses a 15% bound at 15 of
# sim seeds 42 and 1-15, so it cannot serve these criteria.
def make_resonant_series(sim_seed, input_seed=1042, T=2000):
    rng = np.random.default_rng(input_seed)
    u = 1.0 * np.sin(2.0 * np.pi * 0.2 * np.arange(T) * DELTA) \
        + rng.normal(0.0, 0.3, T)
    ts, _ = simulate(TRUE_PARAMS, u, DELTA, seed=sim_seed)
    return ts


def verdict(number, failures, ok_detail=""):
    if failures:
        record_criterion(number, "FAIL", "; ".join(failures))
    else:
        record_criterion(number, "PASS", ok_detail)
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def recovery_data():
    return make_resonant_series(sim_seed=42)


@pytest.fixture(scope="module")
def nlarx_run(recovery_data):
    cfg = PriorConfig(**RUN_CONFIG)
    start = time.perf_counter()
    beliefs, reports = identify(recovery_data, cfg)
    elapsed = time.perf_counter() - start
    return cfg, beliefs, reports, elapsed


@pytest.fixture(scope="module")
def larx_run(recovery_data):
    cfg = PriorConfig(model_mode="larx", **RUN_CONFIG)
    beliefs, reports = identify(recovery_data, cfg)
    return cfg, beliefs, reports


class TestCriterion1SilverboxReproduction:
    def test_silverbox_benchmark(self):
        path = silverbox_path()
        if not path.exists():
            notice = (f"Silverbox benchmark file not found at {path} "
                      f"(set ${SILVERBOX_ENV} to override)")
            record_criterion(1, "SKIPPED", notice)
            pytest.skip(notice)

        data = load_csv(str(path))
        validation, training = split(data, SILVERBOX_SPLIT)
        failures = []

        cfg = PriorConfig(**RUN_CONFIG)
        start = time.perf_counter()
        beliefs, _ = identify(training, cfg)
        elapsed = time.perf_counter() - start
        if elapsed >= 60.0:
            failures.append(f"training pass took {elapsed:.1f}s >= 60s")

        onestep = evaluate_mse(
            predict_onestep(beliefs, validation, cfg), validation.y)
        if onestep > 1.2e-4:
            failures.append(f"1-step MSE {onestep:.3e} > 1.2e-4")

        cfg_l = PriorConfig(model_mode="larx", **RUN_CONFIG)
        beliefs_l, _ = identify(training, cfg_l)
        onestep_l = evaluate_mse(
            predict_onestep(beliefs_l, validation, cfg_l), validation.y)
        if onestep_l > 2.0 * onestep:
            failures.append(
                f"LARX 1-step MSE {onestep_l:.3e} > 2x NLARX {onestep:.3e}")

        rollout = evaluate_mse(
            simulate_rollout(beliefs, validation, cfg), validation.y)
        if rollout > 2.0e-3:
            failures.append(f"rollout MSE {rollout:.3e} > 2.0e-3")

        verdict(1, failures,
                f"1-step {onestep:.3e}, rollout {rollout:.3e}, "
                f"{elapsed:.1f}s")


class TestCriterion2SyntheticRecovery:
    def test_parameter_recovery(self, nlarx_run):
        cfg, beliefs, _, elapsed = nlarx_run
        failures = []
        if elapsed >= 5.0:
            failures.append(f"identification took {elapsed:.1f}s >= 5s")

        truth = phys_to_ar(TRUE_PARAMS, DELTA)
        th_mean, _ = gaussian_moments(beliefs.q_theta)
        for k, (got, want) in enumerate(zip(th_mean, truth.theta), start=1):
            err = abs(got - want)
            if err > 0.05:
                failures.append(f"theta{k} error {err:.3f} > 0.05")

        phys = ar_to_phys(posterior_coefficients(beliefs), DELTA,
                          xi=beliefs.q_xi.mean)
        for name in ("m", "c", "a", "b"):
            want = getattr(TRUE_PARAMS, name)
            rel = abs(getattr(phys, name) - want) / abs(want)
            if rel > 0.15:
                failures.append(f"{name} relative error {rel:.1%} > 15%")

        verdict(2, failures, f"runtime {elapsed:.1f}s")


class TestCriterion3MessageOracles:
    N_CASES = 20
    RTOL = 1e-6

    def test_messages_match_quadrature(self):
        failures = []
        for seed in range(self.N_CASES):
            rng = np.random.default_rng(9000 + seed)
            q_z, q_zprev, q_theta, q_eta, q_gamma, cfg = random_case(rng)
            zm, zc = gaussian_moments(q_z)
            zpm, zpc = gaussian_moments(q_zprev)
            tm, tc = gaussian_moments(q_theta)
            em, ec = gaussian_moments(q_eta)

            checks = []
            out = msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg)
            checks.append(("msg_theta", out, oracle_msg_theta(
                zm, zc, zpm, zpc, em[0], ec[0, 0], q_gamma.mean, cfg.u)))
            out = msg_eta(q_z, q_zprev, q_theta, q_gamma, cfg)
            checks.append(("msg_eta", out, oracle_msg_eta(
                zm, zc, zpm, zpc, tm, tc, q_gamma.mean, cfg.u)))
            q_coeffs = independent(q_theta, q_eta)
            out = msg_forward_state(q_zprev, q_coeffs, q_gamma, cfg)
            checks.append(("msg_forward_state", out, oracle_msg_forward_state(
                zpm, zpc, tm, tc, em[0], ec[0, 0], q_gamma.mean, cfg.u,
                cfg.epsilon)))
            for name, got, (prec_or, pot_or) in checks:
                try:
                    assert_natural_close(got.precision, got.potential,
                                         prec_or, pot_or, rtol=self.RTOL)
                except AssertionError:
                    failures.append(f"{name} case {seed}")

            gamma_msg = msg_gamma(q_z, q_zprev, q_coeffs, cfg)
            rate_or = 0.5 * oracle_expected_square_residual(
                zm, zc, zpm, zpc, tm, tc, em[0], ec[0, 0], cfg.u)
            if gamma_msg.shape != 1.5 or not math.isclose(
                    gamma_msg.rate, rate_or, rel_tol=self.RTOL):
                failures.append(f"msg_gamma case {seed}")

            y = rng.normal(0.0, 1.0)
            xi_msg = msg_xi(y, q_z)
            if xi_msg.shape != 1.5 or not math.isclose(
                    xi_msg.rate, oracle_msg_xi_rate(y, zm, zc),
                    rel_tol=self.RTOL):
                failures.append(f"msg_xi case {seed}")

        failures += self._degenerate_failures()
        verdict(3, failures,
                f"{self.N_CASES} randomized cases per message at "
                f"{self.RTOL:g} relative")

    @staticmethod
    def _degenerate_failures():
        """All five messages reduce to exact conditionals when every other
        belief is pinned (1e-10 tolerance)."""
        from duffingid.nlarx import NodeConfig
        failures = []
        theta = np.array([1.2, 0.3, -0.8])
        zprev = np.array([0.6, -0.2])
        eta, gamma, u, eps = 1.4, 2.5, -0.7, 0.5
        drift = theta[0] * zprev[0] + theta[1] * zprev[0] ** 3 \
            + theta[2] * zprev[1]
        f0 = drift + eta * u
        x_next = f0 + 0.3
        cfg = NodeConfig(u=u, epsilon=eps)
        phi = np.array([zprev[0], zprev[0] ** 3, zprev[1]])

        q_z = pinned_gaussian([x_next, zprev[0]])
        q_zprev = pinned_gaussian(zprev)
        q_theta = pinned_gaussian(theta)
        q_eta = pinned_gaussian([eta])
        q_gamma = pinned_gamma(gamma)
        q_coeffs = independent(q_theta, q_eta)

        out = msg_theta(q_z, q_zprev, q_eta, q_gamma, cfg)
        try:
            assert_natural_close(out.precision, out.potential,
                                 gamma * np.outer(phi, phi),
                                 gamma * phi * (x_next - eta * u), rtol=1e-10)
        except AssertionError:
            failures.append("msg_theta degenerate reduction")

        out = msg_eta(q_z, q_zprev, q_theta, q_gamma, cfg)
        try:
            assert_natural_close(out.precision, out.potential,
                                 [[gamma * u ** 2]],
                                 [gamma * u * (x_next - drift)], rtol=1e-10)
        except AssertionError:
            failures.append("msg_eta degenerate reduction")

        out = msg_gamma(q_z, q_zprev, q_coeffs, cfg)
        if out.shape != 1.5 or abs(out.rate - 0.5 * 0.3 ** 2) > 1e-10:
            failures.append("msg_gamma degenerate reduction")

        out = msg_forward_state(q_zprev, q_coeffs, q_gamma, cfg)
        try:
            prec = np.diag([gamma, 1.0 / eps])
            assert_natural_close(out.precision, out.potential, prec,
                                 prec @ np.array([f0, zprev[0]]), rtol=1e-10)
        except AssertionError:
            failures.append("msg_forward_state degenerate reduction")

        out = msg_xi(0.45, pinned_gaussian([0.4, 0.0]))
        if out.shape != 1.5 or abs(out.rate - 0.5 * 0.05 ** 2) > 1e-10:
            failures.append("msg_xi degenerate reduction")
        return failures


class TestCriterion4FreeEnergyMonotonicity:
    def test_within_step_descent(self):
        # moderate noise-precision priors: a measurement-precision prior of
        # shape 1e8 makes the prior cross-entropy terms ~1e9 and their float
        # cancellation noise alone (~1e-7) would exceed the 1e-9 tolerance
        failures = []
        larx_steps = 0
        worst = -np.inf
        p = PhysicalParams(m=1.0, c=0.5, a=2.0, b=0.0, tau=10.0, xi=1e6)
        for seed in (80, 81):
            rng = np.random.default_rng(seed)
            u = 0.1 * np.sin(2 * np.pi * 0.7 * np.arange(51) * DELTA) \
                + rng.normal(0.0, 1e-2, 51)
            ts, _ = simulate(p, u, DELTA, seed=seed)
            cfg = PriorConfig(model_mode="larx", iterations_per_step=8,
                              trace_free_energy=True, **RUN_CONFIG)
            _, reports = identify(ts, cfg)
            for report in reports:
                larx_steps += 1
                increase = np.diff(report.free_energy_trace).max()
                worst = max(worst, increase)
                if increase > 1e-9:
                    failures.append(
                        f"LARX step {report.t} (seed {seed}) free energy "
                        f"rose by {increase:.2e}")
        assert larx_steps == 100

        ts = make_series(sim_seed=82, input_seed=82, T=101)
        cfg = PriorConfig(iterations_per_step=8, trace_free_energy=True,
                          **RUN_CONFIG)
        _, reports = identify(ts, cfg)
        for report in reports:
            trace = report.free_energy_trace
            if trace[-1] > trace[0] + 1e-6:
                failures.append(
                    f"NLARX step {report.t} final free energy above first "
                    f"by {trace[-1] - trace[0]:.2e}")

        verdict(4, failures,
                f"worst within-step increase {worst:.1e} over "
                f"{larx_steps} LARX steps")


class TestCriterion5AlgebraicIdentities:
    def test_identities(self):
        failures = []

        rng = np.random.default_rng(900)
        for draw in range(100):
            p = PhysicalParams(m=rng.uniform(0.1, 5.0),
                               c=rng.uniform(0.0, 3.0),
                               a=rng.uniform(0.1, 10.0),
                               b=rng.uniform(-5.0, 10.0),
                               tau=rng.uniform(0.5, 1e4),
                               xi=rng.uniform(1.0, 1e6))
            delta = rng.uniform(1e-3, 0.5)
            back = ar_to_phys(phys_to_ar(p, delta), delta, xi=p.xi)
            for name in ("m", "c", "a", "b", "tau", "xi"):
                want = getattr(p, name)
                if abs(getattr(back, name) - want) > 1e-10 * max(1.0, abs(want)):
                    failures.append(f"roundtrip draw {draw}: {name}")

        ts = make_series(sim_seed=90, input_seed=90, T=50)
        cfg = PriorConfig(**RUN_CONFIG)
        beliefs, reports = identify(ts, cfg)
        T_steps = len(reports)
        if beliefs.q_xi.shape != cfg.a0_xi + T_steps / 2:
            failures.append(
                f"xi shape {beliefs.q_xi.shape} != a0_xi + T/2 "
                f"= {cfg.a0_xi + T_steps / 2}")

        rng = np.random.default_rng(901)
        for pair in range(100):
            dim = int(rng.integers(1, 4))
            def spd():
                root = rng.normal(0.0, 1.0, (dim, dim))
                return root @ root.T + 0.1 * np.eye(dim)
            a = GaussianBelief.from_natural(spd(), rng.normal(0.0, 1.0, dim))
            b = GaussianBelief.from_natural(spd(), rng.normal(0.0, 1.0, dim))
            gain = combine_gaussian(a, b).precision - a.precision
            if np.linalg.eigvalsh(gain).min() < -1e-10:
                failures.append(f"information monotonicity pair {pair}")

        verdict(5, failures)


class TestCriterion6ProtocolOrdering:
    def test_rollout_versus_onestep_and_modes(self, recovery_data,
                                              nlarx_run, larx_run):
        failures = []
        cfg = PriorConfig(**RUN_CONFIG)
        for seed in range(1, 6):
            ts = make_series(sim_seed=seed)
            beliefs, _ = identify(ts, cfg)
            onestep = evaluate_mse(predict_onestep(beliefs, ts, cfg), ts.y)
            rollout = evaluate_mse(simulate_rollout(beliefs, ts, cfg), ts.y)
            if rollout < onestep:
                failures.append(
                    f"seed {seed}: rollout MSE {rollout:.3e} below one-step "
                    f"{onestep:.3e}")

        cfg_n, beliefs_n, _, _ = nlarx_run
        cfg_l, beliefs_l, _ = larx_run
        roll_n = evaluate_mse(
            simulate_rollout(beliefs_n, recovery_data, cfg_n),
            recovery_data.y)
        roll_l = evaluate_mse(
            simulate_rollout(beliefs_l, recovery_data, cfg_l),
            recovery_data.y)
        if not roll_n < roll_l:
            failures.append(
                f"NLARX rollout MSE {roll_n:.4e} not below LARX {roll_l:.4e}")

        verdict(6, failures)
