"""The benchmark's workloads, their correctness checks and their metrics.

Load is a closed loop: one caller on one thread feeds the next operation as
soon as the previous one returns, until the run's time is up. An operation
is one identification followed by both frozen-parameter prediction
protocols; every public call in it counts as one attempt. Library errors,
a non-zero CLI exit code and non-finite posteriors or errors count as
failed attempts and end that operation; they do not end the run.

Every run carries two light probes: the benchmark's own sample generator,
which timestamps each pull that `identify_stream` makes, and a timer around
`simulate_rollout`. In an untraced run every duration is scaled to a nominal
machine speed by reference samples taken inside and next to it (see
`speed.py`). A traced run instead records spans (see `tracing.py`) on every
other operation and reports per-layer metrics from raw times.
"""

from __future__ import annotations

import io
import math
import resource
import statistics
import time
from array import array
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from duffingid import cli, engine
from duffingid.beliefs import gaussian_moments
from duffingid.duffing import TimeSeries

import speed
import surrogate
import tracing

FIXTURE_TRAINING = 4000
FIXTURE_VALIDATION = 100000
SILVERBOX_TRAINING = 10000
SILVERBOX_VALIDATION = 40000
SETUP_REPEATS = 5
WARMUP_STEPS = 200
ROLLOUT_RTOL = 1e-9

LIBRARY_ERRORS = (ArithmeticError, ValueError, RuntimeError)


class OperationFailed(Exception):
    """An attempt inside an operation failed; the operation stops there."""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except LIBRARY_ERRORS as exc:
            self.fail(repr(exc))

    def fail(self, reason: str):
        self.failed += 1
        self.errors.append(reason)
        raise OperationFailed(reason)


class Probe:
    """Timestamps of each pull that `identify_stream` makes from the
    benchmark's sample generator, and the bounds of each `simulate_rollout`
    call."""

    def __init__(self):
        self.pulls: list[array] = []
        self.rollouts: list[tuple[speed.Region, int]] = []

    @contextmanager
    def installed(self):
        stream, rollout = engine.identify_stream, engine.simulate_rollout
        clock = time.perf_counter

        def identify_stream(samples, cfg):
            stamps = array("d")

            def pulls():
                for pair in samples:
                    stamps.append(clock())
                    yield pair

            result = stream(pulls(), cfg)
            stamps.append(clock())
            self.pulls.append(stamps)
            return result

        def simulate_rollout(beliefs, data, cfg):
            with speed.region() as region:
                result = rollout(beliefs, data, cfg)
            self.rollouts.append((region, len(data) - 2))
            return result

        engine.identify_stream = identify_stream
        engine.simulate_rollout = simulate_rollout
        try:
            yield self
        finally:
            engine.identify_stream = stream
            engine.simulate_rollout = rollout


@dataclass
class Outcome:
    """What one successful operation produced and when its stages ran."""

    identify: speed.Region
    predict: speed.Region
    steps: int
    theta_mean: np.ndarray
    theta_cov: np.ndarray
    eta: float
    onestep: np.ndarray | None
    rollout: np.ndarray | None
    problems: list = field(default_factory=list)


def reference_onestep(theta, eta, data: TimeSeries) -> np.ndarray:
    """1-step predictions from two lagged outputs, computed independently."""
    y, u = data.y, data.u
    pred = y.copy()
    x, x_prev = y[1:-1], y[:-2]
    if len(theta) == 3:
        drift = theta[0] * x + theta[1] * x**3 + theta[2] * x_prev
    else:
        drift = theta[0] * x + theta[1] * x_prev
    pred[2:] = drift + eta * u[1:-1]
    return pred


def reference_rollout(theta, eta, data: TimeSeries) -> np.ndarray:
    """Noise-free free simulation seeded from the first two outputs."""
    y, u = data.y, data.u
    th = [float(v) for v in theta]
    if len(th) == 2:
        th = [th[0], 0.0, th[1]]
    pred = y.copy()
    x, x_prev = float(y[1]), float(y[0])
    for t in range(2, len(y)):
        x, x_prev = th[0] * x + th[1] * x**3 + th[2] * x_prev + eta * u[t - 1], x
        pred[t] = x
    return pred


def mse(pred: np.ndarray, actual: np.ndarray) -> float:
    return float(np.mean((pred - actual) ** 2))


def check_outcome(out: Outcome, reference: Outcome | None, data) -> list[str]:
    """Problems with one operation's outputs; empty when they are correct."""
    problems = list(out.problems)
    val = data.validation
    onestep_ref = reference_onestep(out.theta_mean, out.eta, val)
    if not np.allclose(out.onestep, onestep_ref, rtol=1e-12, atol=0.0):
        problems.append("1-step predictions differ from the reference formula")
    rollout_ref = reference_rollout(out.theta_mean, out.eta, val)
    scale = float(np.max(np.abs(val.y)))
    if np.max(np.abs(out.rollout - rollout_ref)) > ROLLOUT_RTOL * scale:
        problems.append("rollout differs from the reference recursion")
    if reference is not None:
        same = (np.array_equal(out.theta_mean, reference.theta_mean)
                and np.array_equal(out.theta_cov, reference.theta_cov)
                and np.array_equal(out.onestep, reference.onestep)
                and np.array_equal(out.rollout, reference.rollout))
        if not same:
            problems.append("a repeat on the same data gave different results")
    return problems


def theta_max_abs_z(out: Outcome, truth) -> float:
    true_theta = truth.theta if out.theta_mean.size == 3 else truth.theta[[0, 2]]
    z = (out.theta_mean - true_theta) / np.sqrt(np.diag(out.theta_cov))
    return float(np.max(np.abs(z)))


def _finite_posterior(beliefs) -> bool:
    parts = [beliefs.q_theta.precision, beliefs.q_theta.mean,
             beliefs.q_eta.precision, beliefs.q_eta.mean,
             beliefs.q_state.precision, beliefs.q_state.mean,
             [beliefs.q_gamma.rate, beliefs.q_xi.rate]]
    return all(np.all(np.isfinite(p)) for p in parts)


class InMemory:
    """`engine.identify` on the training tail, then `predict_onestep` and
    `simulate_rollout` on the validation head, all in-process."""

    def __init__(self, mode: str, trace_free_energy: bool):
        self.cfg = engine.PriorConfig(model_mode=mode,
                                      trace_free_energy=trace_free_energy,
                                      **surrogate.RUN_CONFIG)

    def setup(self, seed: int, workdir: Path):
        self.data = surrogate.fixture_dataset(seed, FIXTURE_TRAINING,
                                              FIXTURE_VALIDATION)

    def operation(self, tally: Tally) -> Outcome:
        cfg, val = self.cfg, self.data.validation
        with speed.region() as identified:
            beliefs, reports = tally.call(engine.identify, self.data.training, cfg)
        if not _finite_posterior(beliefs):
            tally.fail("non-finite posterior")
        with speed.region() as predicted:
            onestep = tally.call(engine.predict_onestep, beliefs, val, cfg)
            rollout = tally.call(engine.simulate_rollout, beliefs, val, cfg)
            errors = (engine.evaluate_mse(onestep, val.y),
                      engine.evaluate_mse(rollout, val.y))
        if not all(math.isfinite(e) for e in errors):
            tally.fail("non-finite prediction error")
        theta_mean, theta_cov = gaussian_moments(beliefs.q_theta)
        return Outcome(identified, predicted, len(reports),
                       theta_mean, theta_cov, float(beliefs.q_eta.mean[0]),
                       onestep, rollout)


class SilverboxCli:
    """The paper's train/validate protocol through `cli.main`, in-process:
    identify on the training tail, predict with both protocols on the
    validation head, evaluate the rollout."""

    cfg = engine.PriorConfig(**surrogate.RUN_CONFIG)

    def setup(self, seed: int, workdir: Path):
        self.data = surrogate.silverbox_dataset(seed, SILVERBOX_TRAINING,
                                                SILVERBOX_VALIDATION)
        workdir.mkdir(parents=True, exist_ok=True)
        self.csv = workdir / "silverbox.csv"
        full = self.data.full
        np.savetxt(self.csv, np.column_stack([full.u, full.y]), fmt="%.17g",
                   delimiter=",", header="u,y", comments="")
        self.config = workdir / "run_config.yaml"
        with open(self.config, "w") as handle:
            yaml.safe_dump(dict(surrogate.RUN_CONFIG), handle)
        self.artifact = workdir / "artifact.yaml"
        self.onestep_csv = workdir / "onestep.csv"
        self.rollout_csv = workdir / "rollout.csv"

    def _command(self, tally: Tally, argv: list[str]) -> str:
        tally.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            tally.fail(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def operation(self, tally: Tally) -> Outcome:
        split = ["--split-index", str(SILVERBOX_VALIDATION)]
        data = ["--data", str(self.csv)]
        with speed.region() as identified:
            self._command(tally, ["identify", *data, "--config", str(self.config),
                                  "--out", str(self.artifact), *split])
        with speed.region() as predicted:
            for protocol, path in (("onestep", self.onestep_csv),
                                   ("rollout", self.rollout_csv)):
                self._command(tally, ["predict", "--artifact", str(self.artifact),
                                      *data, "--protocol", protocol,
                                      "--out", str(path), *split])
            printed = self._command(tally, ["evaluate", "--pred", str(self.rollout_csv),
                                            *data, *split])

        with open(self.artifact) as handle:
            artifact = yaml.safe_load(handle)
        theta = artifact["posterior"]["theta"]
        theta_mean = np.array(theta["mean"])
        precision = np.array(theta["precision"])
        if not (np.all(np.isfinite(theta_mean)) and np.all(np.isfinite(precision))):
            tally.fail("non-finite posterior")
        onestep, rollout = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
                            for p in (self.onestep_csv, self.rollout_csv))
        y = self.data.validation.y
        problems = []
        for pred in (onestep, rollout):
            if not np.all(np.isfinite(pred)):
                tally.fail("non-finite prediction error")
            if not np.allclose(pred[:, 1], (pred[:, 0] - y) ** 2, rtol=1e-12, atol=0.0):
                problems.append("prediction file squared errors are inconsistent")
        if not math.isclose(float(printed), mse(rollout[:, 0], y), rel_tol=5e-4):
            problems.append("evaluate printed a different error")
        return Outcome(identified, predicted,
                       int(artifact["metrics"]["steps"]), theta_mean,
                       np.linalg.inv(precision),
                       float(artifact["posterior"]["eta"]["mean"][0]),
                       onestep[:, 0], rollout[:, 0], problems)


WORKLOADS = {
    "fixture-nlarx": lambda: InMemory("nlarx", trace_free_energy=False),
    "larx-trace": lambda: InMemory("larx", trace_free_energy=True),
    "silverbox-cli": SilverboxCli,
}


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


@dataclass
class RunRecord:
    """Everything a run measured, before it is reduced to metrics."""

    gauge: speed.Gauge
    import_s: float
    setup_regions: list
    tally: Tally
    probe: Probe
    outcomes: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    untraced_pulls: list = field(default_factory=list)
    tracer: tracing.Tracer | None = None
    truth: object = None
    validation: TimeSeries | None = None


def _spans(tracer: tracing.Tracer | None, run_id: int):
    """The tracing context for one stretch of the run, or none."""
    if tracer is None:
        return nullcontext()
    tracer.run_id = run_id
    return tracing.traced(tracer)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, import_s: float, gauge: speed.Gauge) -> RunRecord:
    """Set up, warm up and run operations until `seconds` have passed. An
    untraced run samples the machine's speed throughout; a traced run does
    not, so that no span holds a reference sample."""
    with nullcontext() if trace else gauge.ticking():
        return _run(WORKLOADS[name](), seed, seconds, trace, workdir, import_s, gauge)


def _run(workload, seed, seconds, trace, workdir, import_s, gauge) -> RunRecord:
    tracer = tracing.Tracer() if trace else None
    setup_regions = []
    for _ in range(SETUP_REPEATS):
        with speed.region() as region, _spans(tracer, -1):
            workload.setup(seed, workdir)
        setup_regions.append(region)
    train = workload.data.training
    engine.identify(TimeSeries(train.u[:WARMUP_STEPS], train.y[:WARMUP_STEPS],
                               train.delta), workload.cfg)

    probe = Probe()
    record = RunRecord(gauge, import_s, setup_regions, Tally(), probe,
                       tracer=tracer, truth=workload.data.truth,
                       validation=workload.data.validation)
    deadline = time.perf_counter() + seconds
    min_ops = 2 if trace else 1
    op = 0
    while op < min_ops or time.perf_counter() < deadline:
        is_traced = trace and op % 2 == 0
        seen = len(probe.pulls)
        try:
            with _spans(tracer if is_traced else None, op), probe.installed():
                outcome = workload.operation(record.tally)
        except OperationFailed:
            outcome = None
        if not is_traced:
            record.untraced_pulls += probe.pulls[seen:]
        if outcome is not None:
            first = record.outcomes[0] if record.outcomes else None
            record.problems += check_outcome(outcome, first, workload.data)
            if first is not None:
                # keep one set of predictions, so that the benchmark's own
                # memory (in peak_rss_mb) does not grow with the run
                outcome.onestep = outcome.rollout = None
            record.outcomes.append(outcome)
            record.traced.append(is_traced)
        op += 1
    return record


def end_to_end(record: RunRecord) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run, as (value, unit). Timings
    are at the nominal machine speed: medians over the run's operations and
    set-up rounds; the step-latency percentiles and the rollout cost pool
    every step and every rollout of the run."""
    outs, scaled = record.outcomes, record.gauge.scaled_s
    latencies = np.concatenate([record.gauge.scaled_latencies(stamps)
                                for stamps in record.untraced_pulls])
    rollout_s = sum(scaled(region) for region, _ in record.probe.rollouts)
    rollout_samples = sum(n for _, n in record.probe.rollouts)
    return {
        "identify_us_per_step": (
            _median([scaled(o.identify) / o.steps for o in outs]) * 1e6, "us"),
        "cli_identify_s": (_median([scaled(o.identify) for o in outs]), "s"),
        "cli_predict_s": (_median([scaled(o.predict) for o in outs]), "s"),
        "step_p50_us": (float(np.percentile(latencies, 50)) * 1e6, "us"),
        "rollout_us_per_sample": (rollout_s / rollout_samples * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (
            record.import_s + _median([scaled(r) for r in record.setup_regions]), "s"),
        "onestep_mse": (mse(outs[0].onestep, record.validation.y), "1"),
    }


def accuracy(record: RunRecord) -> dict[str, tuple[float, str]]:
    """Seed-determined estimate quality of the first operation."""
    first = record.outcomes[0]
    return {
        "theta_max_abs_z": (theta_max_abs_z(first, record.truth), "sigma"),
        "rollout_mse": (mse(first.rollout, record.validation.y), "1"),
    }


def per_layer(record: RunRecord) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as (value, unit)."""
    spans = tracing.SpanSummary(record.tracer)
    traced = [o for o, t in zip(record.outcomes, record.traced) if t]
    untraced = [o for o, t in zip(record.outcomes, record.traced) if not t]
    steps = sum(o.steps for o in traced)

    def per_step(value):
        return value / steps if steps else 0.0

    out = {}
    for name in ("beliefs.combine_gaussian", "beliefs.combine_gamma"):
        out[f"{name}.calls_per_step"] = (per_step(spans.calls(name)), "calls/step")
        out[f"{name}.us_per_step"] = (per_step(spans.total(name)) * 1e6, "us/step")
    entropy = spans.total("beliefs.entropy_gaussian") + spans.total("beliefs.entropy_gamma")
    out["beliefs.entropy.us_per_step"] = (per_step(entropy) * 1e6, "us/step")
    objects = spans.counted_within(tracing.GAUSSIAN_COUNTER, "engine.step_update")
    out["beliefs.gaussian_objects_per_step"] = (per_step(objects), "objects/step")
    for msg in ("msg_forward_state", "msg_likelihood_state", "msg_theta",
                "msg_eta", "msg_gamma", "msg_xi"):
        name = f"nlarx.{msg}"
        out[f"{name}.calls_per_step"] = (per_step(spans.calls(name)), "calls/step")
        out[f"{name}.us_per_step"] = (per_step(spans.total(name)) * 1e6, "us/step")
    out["nlarx.expected_square_residual.calls_per_step"] = (
        per_step(spans.calls("nlarx.expected_square_residual")), "calls/step")
    out["engine.step_update.self_us_per_step"] = (
        per_step(spans.self_total("engine.step_update")) * 1e6, "us/step")
    out["engine.compute_free_energy.calls_per_step"] = (
        per_step(spans.calls("engine.compute_free_energy")), "calls/step")
    out["engine.compute_free_energy.us_per_step"] = (
        per_step(spans.total("engine.compute_free_energy")) * 1e6, "us/step")
    out["engine.reports_retained"] = (_median(spans.sizes("engine.identify")), "count")
    out["engine.simulate_rollout.s"] = (_median(spans.durations("engine.simulate_rollout")), "s")
    out["engine.predict_onestep.s"] = (_median(spans.durations("engine.predict_onestep")), "s")
    out["duffing.simulate.s"] = (_median(spans.durations("duffing.simulate")), "s")
    rollouts = spans.calls("engine.simulate_rollout")
    step_mean_calls = spans.calls("duffing.step_mean")
    out["duffing.step_mean.calls"] = (
        step_mean_calls / rollouts if rollouts else 0.0, "count")
    out["duffing.step_mean.us_per_call"] = (
        spans.total("duffing.step_mean") / step_mean_calls * 1e6 if step_mean_calls else 0.0,
        "us")
    out["dataio.load_csv.s"] = (_median(spans.durations("dataio.load_csv")), "s")
    load_time = spans.total("dataio.load_csv")
    out["dataio.load_csv.rows_per_s"] = (
        float(spans.sizes("dataio.load_csv").sum()) / load_time if load_time else 0.0,
        "rows/s")
    for name in ("dataio.save_artifact", "dataio.load_artifact"):
        out[f"{name}.s"] = (_median(spans.durations(name)), "s")
    for name in ("cli.cmd_identify", "cli.cmd_predict", "cli.cmd_evaluate"):
        out[f"{name}.self_s"] = (_median(spans.self_durations(name)), "s")
    raw = record.gauge.raw_s
    ratio = (_median([raw(o.identify) / o.steps for o in traced])
             / _median([raw(o.identify) / o.steps for o in untraced]))
    out["trace.overhead_ratio"] = (ratio, "ratio")
    # raw: a traced run takes no reference samples
    latencies = np.concatenate([np.diff(np.asarray(stamps)) for stamps in record.untraced_pulls])
    out["step_p99_us"] = (float(np.percentile(latencies, 99)) * 1e6, "us")
    out.update(accuracy(record))
    return out
