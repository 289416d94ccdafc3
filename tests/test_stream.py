"""`identify_stream` is a fold of `step_update`, and a `BeliefSet` holds the
kernel's float form, so chained steps convert nothing and build no numpy
belief until one is read. Splitting a run between the two must not change
a bit, the stream must be read one pair per step, and a step opens no
Python frame in the package beyond its schedule.
"""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

from duffingid import PriorConfig, engine
from duffingid.beliefs import GaussianBelief
from duffingid.engine import identify_stream, initial_beliefs, step_update
from test_acceptance import RUN_CONFIG, make_series


def assert_bit_equal(got, want, name):
    """Equal arrays or floats, of the same type, signs of zero included."""
    assert type(got) is type(want), name
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want), name
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
    else:
        assert got == want and np.signbit(got) == np.signbit(want), name


def assert_same_belief_set(got, want):
    for part in ("q_coeffs", "q_state"):
        for field in ("precision", "potential", "mean", "cov", "logdet"):
            assert_bit_equal(getattr(getattr(got, part), field),
                             getattr(getattr(want, part), field),
                             f"{part}.{field}")
    for part in ("q_gamma", "q_xi"):
        for field in ("shape", "rate"):
            assert_bit_equal(getattr(getattr(got, part), field),
                             getattr(getattr(want, part), field),
                             f"{part}.{field}")


@pytest.fixture(scope="module")
def pairs():
    series = make_series(sim_seed=7, T=121)
    return list(zip(series.u[:-1].tolist(), series.y[1:].tolist()))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["nlarx", "larx"])
@pytest.mark.parametrize("k", [1, 2, 57, 119])
def test_split_run_is_bit_identical(pairs, mode, trace, k):
    cfg = PriorConfig(model_mode=mode, trace_free_energy=trace, **RUN_CONFIG)
    want_beliefs, want_reports = identify_stream(pairs, cfg)
    beliefs, reports = identify_stream(pairs[:k], cfg)
    for t, (u_t, y_t) in enumerate(pairs[k:], start=k):
        beliefs, report = step_update(beliefs, u_t, y_t, cfg, t)
        reports.append(report)
    assert_same_belief_set(beliefs, want_beliefs)
    assert reports == want_reports
    # the q(z) covariance keeps the -0.0 off its diagonal
    assert np.signbit(beliefs.q_state.cov[0, 1])


class Sample:
    """A sample that logs its conversion to float."""

    def __init__(self, value, log, tag):
        self.value, self.log, self.tag = value, log, tag

    def __float__(self):
        self.log.append(self.tag)
        return self.value


def test_stream_is_read_one_pair_per_step():
    # the benchmark stamps each pull to time each step; a kernel that
    # drained the stream before its first step would log every pull first
    log = []

    def samples(n):
        for t in range(n):
            log.append(("pull", t))
            yield (Sample(0.01 * t, log, ("u", t)),
                   Sample(0.005 * t, log, ("y", t)))

    _, reports = identify_stream(samples(6), PriorConfig())
    assert len(reports) == 6
    assert log == [entry for t in range(6)
                   for entry in (("pull", t), ("u", t), ("y", t))]


@pytest.fixture(scope="module")
def pairs_200():
    series = make_series(sim_seed=8, T=201)
    return list(zip(series.u[:-1].tolist(), series.y[1:].tolist()))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["nlarx", "larx"])
def test_chained_steps_equal_identify(pairs_200, mode, trace):
    cfg = PriorConfig(model_mode=mode, trace_free_energy=trace, **RUN_CONFIG)
    want_beliefs, want_reports = identify_stream(pairs_200, cfg)
    beliefs, reports = initial_beliefs(cfg), []
    for t, (u_t, y_t) in enumerate(pairs_200):
        beliefs, report = step_update(beliefs, u_t, y_t, cfg, t)
        reports.append(report)
    assert len(reports) == 200
    assert_same_belief_set(beliefs, want_beliefs)
    for part in ("q_theta", "q_eta"):
        for field in ("precision", "potential", "mean", "cov", "logdet"):
            assert_bit_equal(getattr(getattr(beliefs, part), field),
                             getattr(getattr(want_beliefs, part), field),
                             f"{part}.{field}")
    assert reports == want_reports


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["nlarx", "larx"])
def test_chained_steps_build_no_gaussian_until_read(pairs_200, mode, trace,
                                                    monkeypatch):
    # the sets carry the kernel's floats from step to step; the carry is
    # computed once, from the prior's beliefs
    cfg = PriorConfig(model_mode=mode, trace_free_energy=trace, **RUN_CONFIG)
    beliefs = initial_beliefs(cfg)
    built, carries = [], []

    def counted(fn, log):
        def wrapper(*args, **kwargs):
            log.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("from_natural", "_from_parts"):
        monkeypatch.setattr(GaussianBelief, name, classmethod(
            counted(GaussianBelief.__dict__[name].__func__, built)))
    monkeypatch.setattr(GaussianBelief, "__init__",
                        counted(GaussianBelief.__init__, built))
    monkeypatch.setattr(engine, "_carry", counted(engine._carry, carries))
    for t, (u_t, y_t) in enumerate(pairs_200):
        beliefs, _ = step_update(beliefs, u_t, y_t, cfg, t)
    assert built == []
    assert carries == ["_carry"]
    views = ("q_coeffs", "q_gamma", "q_xi", "q_state", "q_theta", "q_eta")
    first = [getattr(beliefs, name) for name in views]
    assert built
    # built once: a second read returns the same objects and builds nothing
    count = len(built)
    assert all(getattr(beliefs, name) is view
               for name, view in zip(views, first))
    assert len(built) == count


PACKAGE = str(Path(engine.__file__).parent)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("mode", ["nlarx", "larx"])
def test_chained_steps_run_the_step_schedule(pairs_200, mode, trace):
    # every Python frame of the package that 200 chained steps open: one
    # kernel per step, nothing between it and the caller and nothing below
    # it, since the kernel writes out q(w)'s inverse on its own floats
    cfg = PriorConfig(model_mode=mode, trace_free_energy=trace, **RUN_CONFIG)
    beliefs = initial_beliefs(cfg)
    beliefs.carry  # the prior's carry, computed once per run
    calls, reports = collections.Counter(), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        for t, (u_t, y_t) in enumerate(pairs_200):
            beliefs, report = step_update(beliefs, u_t, y_t, cfg, t)
            reports.append(report)
    finally:
        sys.setprofile(None)
    steps, sweeps = len(reports), sum(report.iterations for report in reports)
    assert sweeps > steps
    assert dict(calls) == {"step_update": steps}
