"""Workload inputs, generated deterministically from the workload seed.

Two data sets are built here:

* the acceptance fixture's shape (delta = 0.1 s, a 0.7 Hz sine input plus
  N(0, 1e-2) noise, the fixture's true parameters), lengthened to the
  benchmark's stream size;
* a Silverbox-shaped surrogate: a 60 Hz resonance with damping ratio 0.05,
  sampled at 610.35 Hz and driven by a 1-200 Hz random-phase multisine of
  standard deviation 0.08. That keeps the cubic coefficient identifiable
  and the state inside the range where the simulator's explicit recursion
  is stable: its local gain theta1 + 3*theta2*x^2 leaves the stable
  triangle for |x| > 0.40, which a standard deviation of 0.105 reaches
  within 60,000 samples for some seeds.

The seed derives the input phases and noise and the simulator's noise
seed; nothing else varies between seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from duffingid import duffing

# priors of the acceptance suite's identification runs
RUN_CONFIG = dict(state0_cov=1e-4, a0_gamma=1.0, b0_gamma=1e-4,
                  a0_xi=10.0, b0_xi=1e-5)

FIXTURE_DELTA = 0.1
FIXTURE_PARAMS = duffing.PhysicalParams(m=1.0, c=0.5, a=2.0, b=3.0,
                                        tau=10.0, xi=1e6)

SILVERBOX_DELTA = 1.0 / 610.35
_OMEGA0 = 2.0 * math.pi * 60.0
_M = 2.0 / _OMEGA0**2
SILVERBOX_PARAMS = duffing.PhysicalParams(
    m=_M, c=2.0 * 0.05 * math.sqrt(_M * 2.0), a=2.0, b=40.0,
    tau=1e4, xi=1e8)
MULTISINE_HZ = np.arange(1.0, 201.0)
MULTISINE_STD = 0.08


@dataclass(frozen=True)
class Dataset:
    """A generated series split into a training and a validation segment,
    with the true autoregressive coefficients of the simulator."""

    validation: duffing.TimeSeries
    training: duffing.TimeSeries
    truth: duffing.ArCoefficients

    @property
    def full(self) -> duffing.TimeSeries:
        """The Silverbox layout: validation head, then training tail."""
        return duffing.TimeSeries(
            np.concatenate([self.validation.u, self.training.u]),
            np.concatenate([self.validation.y, self.training.y]),
            self.training.delta)


def _streams(seed: int) -> tuple[np.random.Generator, int]:
    """Independent input generator and simulator noise seed for one seed."""
    input_ss, sim_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(input_ss), int(sim_ss.generate_state(1)[0])


def fixture_dataset(seed: int, n_training: int, n_validation: int) -> Dataset:
    """Acceptance-fixture-shaped data with a seed-drawn sine phase. As in the
    fixture, training starts from rest, where the prior puts the state; the
    validation segment follows it."""
    rng, sim_seed = _streams(seed)
    n = n_training + n_validation
    phase = rng.uniform(0.0, 2.0 * math.pi)
    t = np.arange(n) * FIXTURE_DELTA
    u = 0.1 * np.sin(2.0 * math.pi * 0.7 * t + phase) + rng.normal(0.0, 1e-2, n)
    s, _ = duffing.simulate(FIXTURE_PARAMS, u, FIXTURE_DELTA, seed=sim_seed)
    k = n_training
    return Dataset(
        validation=duffing.TimeSeries(s.u[k:], s.y[k:], s.delta),
        training=duffing.TimeSeries(s.u[:k], s.y[:k], s.delta),
        truth=duffing.phys_to_ar(FIXTURE_PARAMS, FIXTURE_DELTA))


def multisine(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random-phase multisine on MULTISINE_HZ, scaled to MULTISINE_STD."""
    phases = rng.uniform(0.0, 2.0 * math.pi, MULTISINE_HZ.size)
    t = np.arange(n) * SILVERBOX_DELTA
    u = np.zeros(n)
    for freq, phase in zip(MULTISINE_HZ, phases):
        u += np.cos(2.0 * math.pi * freq * t + phase)
    return u * (MULTISINE_STD / u.std())


def silverbox_dataset(seed: int, n_training: int, n_validation: int) -> Dataset:
    """Silverbox-shaped surrogate: validation head, then the training tail."""
    rng, sim_seed = _streams(seed)
    u = multisine(rng, n_validation + n_training)
    s, _ = duffing.simulate(SILVERBOX_PARAMS, u, SILVERBOX_DELTA, seed=sim_seed)
    k = n_validation
    return Dataset(
        validation=duffing.TimeSeries(s.u[:k], s.y[:k], s.delta),
        training=duffing.TimeSeries(s.u[k:], s.y[k:], s.delta),
        truth=duffing.phys_to_ar(SILVERBOX_PARAMS, SILVERBOX_DELTA))
