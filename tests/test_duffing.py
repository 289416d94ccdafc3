"""Parameter maps, transition function and simulator."""

import numpy as np
import pytest

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
from oracles import oracle_step_mean


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

    @pytest.mark.parametrize("x0", [(1e200, 0.0), (float("nan"), 0.0),
                                    (0.0, float("inf"))])
    def test_bad_initial_state_is_named(self, x0):
        # the float cube of 1e200 overflows, and NaN fails the guard too;
        # warnings are errors here, so none may come first
        p = PhysicalParams(1, 0.5, 2, 3, 10, 1e6)
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

    def test_ar_coefficients_validation(self):
        with pytest.raises(ValueError, match="2 or 3 coefficients"):
            ArCoefficients([1.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="gamma must be positive"):
            ArCoefficients([2.0, 0.0, -1.0], 1.0, 0.0)

    def test_timeseries_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            TimeSeries(np.zeros(4), np.zeros(5), 0.1)
        with pytest.raises(ValueError, match="at least 3 samples"):
            TimeSeries(np.zeros(2), np.zeros(2), 0.1)
        with pytest.raises(ValueError, match="sample period"):
            TimeSeries(np.zeros(5), np.zeros(5), 0.0)
        assert len(TimeSeries(np.zeros(5), np.zeros(5), 0.1)) == 5
