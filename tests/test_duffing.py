"""Parameter maps, transition function and simulator."""

import math
import tracemalloc

import numpy as np
import pytest

from duffingid import beliefs, duffing, nlarx
from duffingid.duffing import (
    ArCoefficients,
    PhysicalParams,
    TimeSeries,
    UnstableSimulationError,
    ar_to_phys,
    phys_to_ar,
    propagate,
    simulate,
    step_mean,
)
from oracles import oracle_rollout, oracle_step_mean, oracle_unstable_step


class TestPhysToAr:
    def test_unit_free_particle(self):
        coeffs = phys_to_ar(PhysicalParams(1, 0, 0, 0, 1, 1), delta=1.0)
        np.testing.assert_allclose(coeffs.theta, [2.0, 0.0, -1.0])
        assert coeffs.eta == 1.0
        assert coeffs.gamma == 1.0

    def test_reference_substitution(self):
        # hand substitution: den = 1 + 0.5*0.1 = 1.05
        coeffs = phys_to_ar(PhysicalParams(1, 0.5, 2, 3, 10, 1e6), delta=0.1)
        np.testing.assert_allclose(
            coeffs.theta, [2.03 / 1.05, -0.03 / 1.05, -1 / 1.05], rtol=1e-12)
        np.testing.assert_allclose(coeffs.theta, [1.933333, -0.028571, -0.952381],
                                   atol=5e-7)
        np.testing.assert_allclose(coeffs.eta, 0.0095238, atol=5e-8)
        np.testing.assert_allclose(coeffs.gamma, 110250.0, rtol=1e-12)

    def test_no_cubic_gives_zero_theta2(self):
        coeffs = phys_to_ar(PhysicalParams(0.7, 1.3, -2.0, 0.0, 5, 1), 0.05)
        assert coeffs.theta[1] == 0.0

    @pytest.mark.parametrize("delta", [1e-300, 1e-100, 1e100])
    def test_sample_period_whose_powers_under_or_overflow(self, delta):
        # delta**4, or delta**2 too, underflows to 0 or overflows
        with pytest.raises(ValueError, match="infinite gamma"):
            phys_to_ar(PhysicalParams(1, 0.5, 2, 3, 10, 1e6), delta)

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError, match="degenerate discretization"):
            phys_to_ar(PhysicalParams(1, -10, 0, 0, 1, 1), delta=0.1)


class TestArToPhys:
    def test_unit_inverse(self):
        p = ar_to_phys(ArCoefficients([2.0, 0.0, -1.0], 1.0, 1.0),
                       delta=1.0, xi=1.0)
        np.testing.assert_allclose([p.m, p.c, p.a, p.b, p.tau],
                                   [1, 0, 0, 0, 1], atol=1e-14)

    def test_roundtrip_of_reference_case(self):
        original = PhysicalParams(1, 0.5, 2, 3, 10, 1e6)
        back = ar_to_phys(phys_to_ar(original, 0.1), 0.1, xi=original.xi)
        np.testing.assert_allclose(
            [back.m, back.c, back.a, back.b, back.tau],
            [original.m, original.c, original.a, original.b, original.tau],
            rtol=1e-10)

    def test_rounded_reference_values(self):
        p = ar_to_phys(
            ArCoefficients([1.933333, -0.028571, -0.952381], 0.0095238, 110250.0),
            delta=0.1, xi=1.0)
        np.testing.assert_allclose([p.m, p.c, p.a, p.b, p.tau],
                                   [1, 0.5, 2, 3, 10], rtol=1e-4)

    def test_overflowing_period_is_a_value_error(self):
        # delta**2 overflows: the posterior maps to no oscillator, and
        # `report` prints the reason
        coeffs = ArCoefficients([1.933, -0.029, -0.952], 0.0095, 1.1e5)
        with pytest.raises(ValueError,
                           match=r"the parameters overflow at delta=1e\+200"):
            ar_to_phys(coeffs, delta=1e200, xi=1.0)

    def test_random_roundtrips(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 100:
            p = PhysicalParams(
                m=rng.uniform(0.1, 5.0), c=rng.uniform(-1.0, 2.0),
                a=rng.uniform(-3.0, 3.0), b=rng.uniform(-3.0, 3.0),
                tau=rng.uniform(0.1, 100.0), xi=1.0)
            delta = rng.uniform(0.01, 0.5)
            coeffs = phys_to_ar(p, delta)
            back = ar_to_phys(coeffs, delta, xi=1.0)
            np.testing.assert_allclose(
                [back.m, back.c, back.a, back.b, back.tau],
                [p.m, p.c, p.a, p.b, p.tau], rtol=1e-10, atol=1e-12)
            again = phys_to_ar(back, delta)
            np.testing.assert_allclose(again.theta, coeffs.theta, rtol=1e-10)
            np.testing.assert_allclose(
                [again.eta, again.gamma], [coeffs.eta, coeffs.gamma], rtol=1e-10)
            count += 1

    def test_eta_zero_rejected(self):
        with pytest.raises(ValueError, match="inversion undefined"):
            ar_to_phys(ArCoefficients([2.0, 0.0, -1.0], 0.0, 1.0), 1.0, xi=1.0)

    def test_two_coefficient_form(self):
        p = ar_to_phys(ArCoefficients([2.0, -1.0], 1.0, 1.0), delta=1.0, xi=1.0)
        assert p.b == 0.0


class TestStepMean:
    @staticmethod
    def drift(theta, z):
        # eta = 0: the input does not act, so the output is the drift alone
        return step_mean(ArCoefficients(theta, 0.0, 1.0), np.array(z), 5.0)[0]

    def test_zero_theta(self):
        assert self.drift(np.zeros(3), [1.7, -0.3]) == 0.0

    def test_drift_hand_cases(self):
        assert self.drift([1.0, 1.0, 1.0], [2.0, 3.0]) == 13.0
        assert self.drift([2.0, 0.0, -1.0], [1.0, 0.5]) == 1.5

    def test_two_coefficient_form(self):
        assert self.drift([2.0, -1.0], [1.0, 0.5]) == 1.5

    @pytest.mark.parametrize("n_coeffs", [2, 3])
    def test_is_one_step_of_propagate(self, n_coeffs):
        # one recursion: each step of a propagated series, taken alone,
        # reproduces it bit for bit
        rng = np.random.default_rng(20 + n_coeffs)
        for _ in range(100):
            p = PhysicalParams(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0),
                               rng.uniform(0.5, 3.0), rng.uniform(0.0, 5.0),
                               1.0, 1.0)
            coeffs = phys_to_ar(p, 0.1)
            if n_coeffs == 2:
                coeffs = ArCoefficients(coeffs.theta[[0, 2]], coeffs.eta, 1.0)
            drive = rng.normal(0.0, 1.0, 101)
            x = np.zeros(101)
            x[:2] = rng.normal(0.0, 0.5, 2)
            propagate(coeffs, drive, x)
            for t in range(2, 101):
                out = step_mean(coeffs, np.array([x[t - 1], x[t - 2]]),
                                drive[t - 1])
                assert out[0] == x[t] and out[1] == x[t - 1]

    def test_cube_is_the_regressor_product(self):
        # one cube: a step is the dot product of (theta, eta) with the
        # identification regressor, whose cube is x * x * x. Where x ** 3
        # rounds otherwise, a step by the power gives another state
        rng = np.random.default_rng(7)
        xs = rng.normal(0.0, 3.0, 400)
        assert sum(x ** 3 != x * x * x for x in xs.tolist()) > 40
        for x in xs.tolist():
            # th1 stays nonzero, so dot's leading 0.0 + cannot flip a -0.0
            theta = [rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(-1.0, 0.0)]
            eta, x_prev, u = rng.uniform(0.0, 1.0), rng.normal(), rng.normal()
            want = beliefs.dot([*theta, eta],
                               nlarx.regressor_psi([x, x_prev], 3, u))
            got = step_mean(ArCoefficients(theta, eta, 1.0), (x, x_prev), u)
            assert got[0] == want

    def test_divergence_guard(self):
        coeffs = ArCoefficients([3.0, 0.0, 1.5], 0.1, 1.0)
        with pytest.raises(UnstableSimulationError):
            step_mean(coeffs, np.array([1e6, 1e6]), 0.0)

    def test_hand_case(self):
        coeffs = ArCoefficients([2.0, 0.0, -1.0], 1.0, 1.0)
        out = step_mean(coeffs, np.array([1.0, 0.5]), 0.25)
        np.testing.assert_allclose(out, [1.75, 1.0])

    def test_pure_shift(self):
        coeffs = ArCoefficients([0.0, 0.0, 0.0], 0.0, 1.0)
        out = step_mean(coeffs, np.array([0.4, -2.0]), 3.0)
        np.testing.assert_allclose(out, [0.0, 0.4])

    def test_first_coefficient_only(self):
        coeffs = ArCoefficients([1.0, 0.0, 0.0], 0.0, 1.0)
        out = step_mean(coeffs, np.array([3.0, 7.0]), 1.0)
        np.testing.assert_allclose(out, [3.0, 3.0])


CHUNK = duffing._CHUNK
# steps of the recursion (samples past the two seeds) around chunk ends
CHUNK_STEPS = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]
LOOPS = {"cubic": [1.9, -0.05, -0.95], "cube-free": [1.9, -0.95]}


class TestPropagate:
    """propagate runs the series chunk by chunk; every state and every
    error step must be those of a recursion checked after each state."""

    @staticmethod
    def run(theta, drive, seed, eta=0.01):
        x = np.zeros(len(drive))
        x[:2] = seed
        try:
            return propagate(ArCoefficients(theta, eta, 1.0), drive, x)
        except UnstableSimulationError as exc:
            return exc.step

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("steps", CHUNK_STEPS)
    def test_matches_the_oracle_across_chunks(self, steps, loop):
        rng = np.random.default_rng(steps)
        drive = rng.normal(0.0, 1.0, steps + 2)
        seed = rng.normal(0.0, 0.1, 2)
        x = self.run(LOOPS[loop], drive, seed)
        want = oracle_rollout(LOOPS[loop], 0.01, drive, seed)
        assert oracle_unstable_step(LOOPS[loop], 0.01, drive, seed) is None
        assert np.abs(x[-CHUNK:]).max() > 0.01  # a trajectory, not zeros
        np.testing.assert_array_equal(x, want)
        np.testing.assert_array_equal(np.signbit(x), np.signbit(want))

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("step", [2, CHUNK + 1, CHUNK + 2, 2 * CHUNK + 1])
    @pytest.mark.parametrize("kick", [2e8, 1e208, math.nan, math.inf])
    def test_divergence_at_a_chunk_end_is_named(self, step, kick, loop):
        # the state at `step` leaves the guard: first or last of its chunk.
        # After a kick of 1e208 the cube loop's next cube overflows to an
        # infinite state, past the named step
        drive = 0.1 * np.sin(0.3 * np.arange(2 * CHUNK + 3))
        drive[step - 1] = kick
        seed = (0.01, 0.02)
        assert oracle_unstable_step(LOOPS[loop], 0.01, drive, seed) == step
        assert self.run(LOOPS[loop], drive, seed) == step

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("eta", [0.0, 0.01])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_drive_is_named(self, bad, eta, loop):
        # eta * inf is inf, and 0 * inf and 0 * nan are nan
        drive = np.zeros(2 * CHUNK + 5)
        drive[CHUNK + 7] = bad
        seed = (0.5, 0.4)
        assert oracle_unstable_step(LOOPS[loop], eta, drive, seed) == CHUNK + 8
        assert self.run(LOOPS[loop], drive, seed, eta) == CHUNK + 8

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("x1", [5.7e102, -1e103, 1e200, math.inf])
    def test_seed_beyond_the_cube_range_is_named(self, x1, loop):
        # the cube loop's cube overflows at step 2, which makes x[2]
        # infinite or NaN; the cube-free loop's x[2] is beyond the guard
        drive = np.zeros(CHUNK + 10)
        assert oracle_unstable_step(LOOPS[loop], 0.01, drive, (0.0, x1)) == 2
        assert self.run(LOOPS[loop], drive, (0.0, x1)) == 2

    def test_cube_overflow_in_a_later_chunk_is_named(self):
        # a hardening spring with theta2 > 0 kicked to 2e3: its states
        # grow as a power tower, leave the guard at the next step and
        # overflow the cube to an infinite state a few steps on, all inside
        # the second chunk
        theta = [1.0, 1.0, -0.5]
        drive = np.zeros(2 * CHUNK + 3)
        drive[CHUNK + 99] = 2e5  # eta * 2e5 = 2e3 at step CHUNK + 100
        seed = (0.0, 0.0)
        overflow = oracle_unstable_step(theta, 0.01, drive, seed, math.inf)
        assert CHUNK + 102 < overflow <= 2 * CHUNK + 1
        assert oracle_unstable_step(theta, 0.01, drive, seed) == CHUNK + 101
        assert self.run(theta, drive, seed) == CHUNK + 101

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("drive_len", [5, 9, 11])
    def test_drive_of_another_length_is_refused(self, drive_len, loop):
        # a short drive would leave the states past it at their old values
        x = np.zeros(10)
        x[:2] = 0.1
        with pytest.raises(ValueError, match=f"^drive has {drive_len} "
                           "samples for 10 states$"):
            propagate(ArCoefficients(LOOPS[loop], 0.01, 1.0),
                      np.ones(drive_len), x)
        np.testing.assert_array_equal(x, [0.1, 0.1] + [0.0] * 8)

    @pytest.mark.parametrize("loop", LOOPS)
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_seed_states_are_refused(self, n, loop):
        x = np.full(n, 0.1)
        with pytest.raises(ValueError, match=f"^x has {n} samples; propagate "
                           r"needs its two seed states x\[0\] and x\[1\]$"):
            propagate(ArCoefficients(LOOPS[loop], 0.01, 1.0), np.ones(n), x)
        np.testing.assert_array_equal(x, [0.1] * n)

    @pytest.mark.parametrize("loop", LOOPS)
    def test_memory_is_bounded_by_the_chunk(self, loop):
        # a list of 100,000 states holds about 3 MB of floats and pointers,
        # and the list of the drive's products as much again
        rng = np.random.default_rng(0)
        drive = rng.normal(0.0, 1.0, 100_000)
        x = np.zeros(len(drive))
        x[:2] = 0.1
        coeffs = ArCoefficients(LOOPS[loop], 0.01, 1.0)
        tracemalloc.start()
        try:
            propagate(coeffs, drive, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.isfinite(x).all() and np.abs(x).max() > 0.01


class TestSimulate:
    def test_constant_solution(self):
        p = PhysicalParams(1, 0, 0, 0, 1, 1)
        ts, latent = simulate(p, np.zeros(50), delta=1.0, seed=0,
                              x0=(1.0, 1.0), noise_free=True)
        np.testing.assert_allclose(latent, np.ones(50))
        np.testing.assert_allclose(ts.y, np.ones(50))

    def test_matches_step_mean_recursion(self):
        p = PhysicalParams(1.2, 0.4, 1.5, 0.0, 10, 1e6)
        delta = 0.05
        rng = np.random.default_rng(5)
        u = rng.normal(0, 0.5, 1000)
        ts, latent = simulate(p, u, delta, seed=0, x0=(0.1, -0.2),
                              noise_free=True)
        coeffs = phys_to_ar(p, delta)
        z = np.array([0.1, -0.2])
        reference = np.zeros(1000)
        reference[0], reference[1] = -0.2, 0.1
        for t in range(1, 999):
            z = oracle_step_mean(coeffs.theta, coeffs.eta, z, u[t])
            reference[t + 1] = z[0]
        np.testing.assert_allclose(latent, reference, atol=1e-12)

    def test_deterministic_given_seed(self):
        p = PhysicalParams(1, 0.5, 2, 3, 10, 1e5)
        u = 0.1 * np.sin(np.arange(300) * 0.04)
        ts1, x1 = simulate(p, u, 0.1, seed=42)
        ts2, x2 = simulate(p, u, 0.1, seed=42)
        np.testing.assert_array_equal(ts1.y, ts2.y)
        np.testing.assert_array_equal(x1, x2)
        ts3, _ = simulate(p, u, 0.1, seed=43)
        assert not np.array_equal(ts1.y, ts3.y)

    def test_measurement_noise_scale(self):
        p = PhysicalParams(1, 0.5, 2, 0, 1e6, 1e12)
        u = 0.01 * np.sin(np.arange(10000) * 0.05)
        ts, latent = simulate(p, u, 0.1, seed=9)
        assert np.var(ts.y - latent) < 1e-10

    def test_divergence_guard(self):
        p = PhysicalParams(1.0, 0.0, -50.0, -50.0, 1e6, 1e6)
        with pytest.raises(UnstableSimulationError, match="unstable simulation"):
            simulate(p, np.full(200, 5.0), delta=1.0, seed=0)

    @pytest.mark.parametrize("x0, b", [
        (x0, b) for b in (3, 0)
        for x0 in ((1e200, 0.0), (float("nan"), 0.0), (0.0, float("inf")))],
        ids=[f"x0{i}" + suffix for suffix in ("", "-b0") for i in range(3)])
    def test_bad_initial_state_is_named(self, x0, b):
        # the float cube of 1e200 overflows (b = 0 has no cube: x[2] is
        # beyond the guard), and NaN fails the guard too; warnings are
        # errors here, so none may come first
        p = PhysicalParams(1, 0.5, 2, b, 10, 1e6)
        with pytest.raises(UnstableSimulationError, match="at step 2$"):
            simulate(p, np.zeros(20), 0.1, seed=0, x0=x0)

    def test_non_finite_input_is_named(self):
        u = np.zeros(20)
        u[6] = np.nan  # drives x[7]
        with pytest.raises(UnstableSimulationError, match="at step 7$"):
            simulate(PhysicalParams(1, 0.5, 2, 3, 10, 1e6), u, 0.1, seed=0,
                     noise_free=True)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError, match="insufficient data"):
            simulate(PhysicalParams(1, 0, 0, 0, 1, 1), np.zeros(2), 1.0, seed=0)


class TestTypes:
    def test_physical_params_validation(self):
        with pytest.raises(ValueError, match="mass must be positive"):
            PhysicalParams(0, 0, 0, 0, 1, 1)
        with pytest.raises(ValueError, match="tau must be positive"):
            PhysicalParams(1, 0, 0, 0, 0, 1)
        with pytest.raises(ValueError, match="xi must be positive"):
            PhysicalParams(1, 0, 0, 0, 1, 0)
        # every parameter finite, each named when it is not
        for i, name in enumerate(("m", "c", "a", "b", "tau", "xi")):
            for value in (math.nan, math.inf, -math.inf, "1.0", True):
                args = [1.0, 0.0, 0.0, 0.0, 1.0, 1.0]
                args[i] = value
                with pytest.raises(ValueError,
                                   match=f"^{name} must be a finite number"):
                    PhysicalParams(*args)

    def test_ar_coefficients_validation(self):
        with pytest.raises(ValueError, match="2 or 3 coefficients"):
            ArCoefficients([1.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="gamma must be positive"):
            ArCoefficients([2.0, 0.0, -1.0], 1.0, 0.0)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_timeseries_needs_a_finite_period(self, delta):
        with pytest.raises(ValueError,
                           match="sample period must be positive and finite"):
            TimeSeries(np.zeros(5), np.zeros(5), delta)

    def test_timeseries_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            TimeSeries(np.zeros(4), np.zeros(5), 0.1)
        with pytest.raises(ValueError, match="at least 3 samples"):
            TimeSeries(np.zeros(2), np.zeros(2), 0.1)
        with pytest.raises(ValueError, match="sample period"):
            TimeSeries(np.zeros(5), np.zeros(5), 0.0)
        assert len(TimeSeries(np.zeros(5), np.zeros(5), 0.1)) == 5
