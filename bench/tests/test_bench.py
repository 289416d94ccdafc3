"""Tests of the benchmark's own code: span arithmetic, the machine-speed
scaling, restoration of the wrapped functions, traced call counts and
determinism of the inputs.

    python3 -m pytest bench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import speed  # noqa: E402
import surrogate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from duffingid import engine  # noqa: E402
from duffingid.beliefs import GaussianBelief  # noqa: E402


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 5] and c [6, 9]; a holds b [2, 3]
    start = np.array([0.0, 1.0, 2.0, 6.0])
    end = np.array([10.0, 5.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_within_marks_every_descendant():
    name = np.array([0, 1, 2, 1, 2])
    parent = np.array([-1, 0, 1, -1, 3])
    assert tracing.within(name, parent, 0).tolist() == [True, True, True, False, False]


def test_shared_child_is_charged_to_the_parent_that_called_it(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def calls_leaf_once():
        leaf()

    def calls_leaf_twice():
        leaf()
        leaf()

    first = tracer.wrap("first", calls_leaf_once)
    second = tracer.wrap("second", calls_leaf_twice)
    first()   # first [0, 3], leaf [1, 2]
    second()  # second [4, 9], leaf [5, 6], leaf [7, 8]
    spans = tracing.SpanSummary(tracer)
    assert spans.calls("leaf") == 3
    assert spans.total("leaf") == 3.0
    assert spans.total("first") == 3.0 and spans.self_total("first") == 2.0
    assert spans.total("second") == 5.0 and spans.self_total("second") == 3.0


def _gauge(starts, durations):
    gauge = speed.Gauge()
    gauge.starts.extend(starts)
    gauge.durations.extend(durations)
    return gauge


def test_region_time_leaves_out_inner_samples_and_scales_by_their_neighbours():
    # samples at 0, 10, 12, 20 and 30 s; the region [5, 15) holds two of them
    gauge = _gauge([0.0, 10.0, 12.0, 20.0, 30.0], [1.0, 1.0, 2.0, 3.0, 3.0])
    region = speed.Region(5.0, 15.0)
    assert gauge.raw_s(region) == 10.0 - 3.0
    # inside: 10 and 12; next to it: 0 before (only one there) and 20, 30 after
    assert gauge.scaled_s(region) == pytest.approx(7.0 * speed.NOMINAL_S / 2.0)


def test_step_latencies_leave_out_inner_samples_and_scale_by_neighbours(monkeypatch):
    monkeypatch.setattr(speed, "NEIGHBOURS", 2)
    nominal = speed.NOMINAL_S
    gauge = _gauge([0.0, 1.5, 2.5, 10.0], [nominal] * 2 + [2 * nominal] * 2)
    # steps [1, 2), [2, 3), [3, 4), [4, 5); one sample starts inside each of
    # the first two, which are left out
    latency = gauge.scaled_latencies([1.0, 2.0, 3.0, 4.0, 5.0])
    # mean of the two samples before and the (one) after each step's start
    speeds = np.array([(1 + 2 + 2) / 3, (1 + 2 + 2) / 3]) * nominal
    assert latency == pytest.approx(nominal / speeds)


def test_ticking_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    gauge = speed.Gauge()
    with gauge.ticking(period=0.01):
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(gauge.durations) > 2 * speed.NEIGHBOURS + 2
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert list(gauge.starts) == sorted(gauge.starts)


def _originals():
    return ([getattr(module, attr) for module, attr, _ in tracing.SPAN_TARGETS]
            + [GaussianBelief.__dict__["__init__"],
               GaussianBelief.__dict__["from_natural"],
               engine.identify_stream, engine.simulate_rollout])


def test_traced_block_restores_originals_when_it_raises():
    before, step_update = _originals(), engine.step_update
    with pytest.raises(KeyError):
        with tracing.traced(tracing.Tracer()):
            assert engine.step_update is not step_update
            raise KeyError
    assert all(a is b for a, b in zip(_originals(), before))


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload's data so that a traced run takes a second."""
    for name, value in (("FIXTURE_TRAINING", 1000), ("FIXTURE_VALIDATION", 100),
                        ("SILVERBOX_TRAINING", 300), ("SILVERBOX_VALIDATION", 200),
                        ("WARMUP_STEPS", 10), ("SETUP_REPEATS", 1)):
        monkeypatch.setattr(workloads, name, value)

    def run(name, trace=True):
        before, alarm = _originals(), signal.getsignal(signal.SIGALRM)
        record = workloads.run_workload(name, seed=3, seconds=0.0, trace=trace,
                                        workdir=tmp_path, import_s=0.0,
                                        gauge=speed.Gauge())
        assert all(a is b for a, b in zip(_originals(), before))
        assert signal.getsignal(signal.SIGALRM) is alarm
        assert record.tally.failed == 0 and not record.problems
        return record

    return run


@pytest.mark.parametrize("name, free_energies", [("fixture-nlarx", 1),
                                                 ("larx-trace", 5)])
def test_traced_call_counts_match_the_step_schedule(small, name, free_energies):
    metrics = {k: v for k, (v, _) in workloads.per_layer(small(name)).items()}
    assert metrics["nlarx.msg_forward_state.calls_per_step"] == 6
    assert metrics["beliefs.combine_gaussian.calls_per_step"] == 15
    assert metrics["beliefs.combine_gamma.calls_per_step"] == 10
    assert metrics["engine.compute_free_energy.calls_per_step"] == free_energies
    assert metrics["nlarx.expected_square_residual.calls_per_step"] == 5 + free_energies
    assert metrics["beliefs.gaussian_objects_per_step"] == 36
    assert metrics["engine.reports_retained"] == 999
    assert metrics["duffing.step_mean.calls"] == 98


def test_cli_workload_traces_every_layer(small):
    record = small("silverbox-cli")
    metrics = {k: v for k, (v, _) in workloads.per_layer(record).items()}
    assert metrics["engine.reports_retained"] == 299
    assert metrics["dataio.load_csv.rows_per_s"] > 0
    for name in ("dataio.save_artifact.s", "dataio.load_artifact.s",
                 "cli.cmd_identify.self_s", "cli.cmd_predict.self_s",
                 "cli.cmd_evaluate.self_s", "engine.simulate_rollout.s"):
        assert metrics[name] > 0, name


SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_reports_the_declared_end_to_end_metrics(small):
    metrics = workloads.end_to_end(small("fixture-nlarx", trace=False))
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_run_reports_the_declared_per_layer_metrics(small):
    metrics = workloads.per_layer(small("larx-trace"))
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")


@pytest.mark.parametrize("make", [surrogate.fixture_dataset,
                                  surrogate.silverbox_dataset])
def test_inputs_are_bit_identical_for_a_seed(make):
    a, b, c = make(7, 300, 200), make(7, 300, 200), make(8, 300, 200)
    for series in ("training", "validation"):
        for column in ("u", "y"):
            x = getattr(getattr(a, series), column)
            assert x.tobytes() == getattr(getattr(b, series), column).tobytes()
            assert not np.array_equal(x, getattr(getattr(c, series), column))
