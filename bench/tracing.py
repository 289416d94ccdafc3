"""Span tracing of the library from outside it.

Each public function of interest is replaced, for the duration of a
`traced` block, by a wrapper that records a span: name, start, end, the
span that was open when it was called (its parent) and the id of the
benchmark operation it belongs to. Functions are wrapped in the module where
their callers look them up, because `engine` imports `combine_gaussian`
and the entropies by name while it calls the `nlarx` messages through the
module. `GaussianBelief` constructions are counted rather than timed; a
span per construction would cost more than the construction.

Spans live in typed arrays during the run and are written when it ends.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

from duffingid import cli, dataio, duffing, engine, nlarx
from duffingid.beliefs import GaussianBelief

# (module where the callers look the function up, attribute, span name)
SPAN_TARGETS = (
    (cli, "main", "cli.main"),
    (cli, "cmd_identify", "cli.cmd_identify"),
    (cli, "cmd_predict", "cli.cmd_predict"),
    (cli, "cmd_evaluate", "cli.cmd_evaluate"),
    (dataio, "load_csv", "dataio.load_csv"),
    (dataio, "save_artifact", "dataio.save_artifact"),
    (dataio, "load_artifact", "dataio.load_artifact"),
    (engine, "identify", "engine.identify"),
    (engine, "identify_stream", "engine.identify_stream"),
    (engine, "step_update", "engine.step_update"),
    (engine, "compute_free_energy", "engine.compute_free_energy"),
    (engine, "predict_onestep", "engine.predict_onestep"),
    (engine, "simulate_rollout", "engine.simulate_rollout"),
    (engine, "step_mean", "duffing.step_mean"),
    (engine, "combine_gaussian", "beliefs.combine_gaussian"),
    (engine, "combine_gamma", "beliefs.combine_gamma"),
    (engine, "entropy_gaussian", "beliefs.entropy_gaussian"),
    (engine, "entropy_gamma", "beliefs.entropy_gamma"),
    (nlarx, "msg_forward_state", "nlarx.msg_forward_state"),
    (nlarx, "msg_likelihood_state", "nlarx.msg_likelihood_state"),
    (nlarx, "msg_theta", "nlarx.msg_theta"),
    (nlarx, "msg_eta", "nlarx.msg_eta"),
    (nlarx, "msg_gamma", "nlarx.msg_gamma"),
    (nlarx, "msg_xi", "nlarx.msg_xi"),
    (nlarx, "expected_square_residual", "nlarx.expected_square_residual"),
    (duffing, "simulate", "duffing.simulate"),
)

# spans whose result size is recorded (rows loaded, reports retained)
SIZE_OF = {
    "dataio.load_csv": len,
    "engine.identify": lambda result: len(result[1]),
}

GAUSSIAN_COUNTER = "beliefs.GaussianBelief"


class Tracer:
    """In-memory span store. `run_id` tags the spans of one operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sizes: dict[int, int] = {}
        self.count_name = array("i")
        self.count_parent = array("i")
        self.run_id = 0
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, size=None):
        """`fn` with a span recorded around every call."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents, runs = self.name, self.parent, self.run
        starts, ends, sizes = self.start, self.end, self.sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size is not None:
                sizes[idx] = size(result)
            return result

        return traced

    def count(self, name: str, fn):
        """`fn` with each call counted against the innermost open span."""
        nid = self.name_id(name)
        stack = self._stack
        count_name, count_parent = self.count_name, self.count_parent

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count_name.append(nid)
            count_parent.append(stack[-1])
            return fn(*args, **kwargs)

        return counted

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span and counter columns as numpy arrays."""
        return {key: np.array(getattr(self, key))
                for key in ("name", "parent", "run", "start", "end",
                            "count_name", "count_parent")}

    def save(self, path) -> None:
        size_idx = np.fromiter(self.sizes.keys(), dtype=np.int64)
        size_val = np.fromiter(self.sizes.values(), dtype=np.int64)
        np.savez(path, names=np.array(self.names), size_index=size_idx,
                 size_value=size_val, **self.arrays())


@contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers and the construction counter; restore the
    original functions on exit, also when the block raises."""
    saved = []
    ctor = GaussianBelief.__dict__["__init__"]
    natural = GaussianBelief.__dict__["from_natural"]
    try:
        for module, attr, name in SPAN_TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, SIZE_OF.get(name)))
        GaussianBelief.__init__ = tracer.count(GAUSSIAN_COUNTER, ctor)
        GaussianBelief.from_natural = classmethod(
            tracer.count(GAUSSIAN_COUNTER, natural.__func__))
        yield tracer
    finally:
        GaussianBelief.__init__ = ctor
        GaussianBelief.from_natural = natural
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    duration = end - start
    children = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    return duration - children


def within(name: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Mask of the spans named `target` and of every span nested in one."""
    hit = name == target
    cursor = parent.astype(np.int64)
    active = ~hit & (cursor >= 0)
    while active.any():
        hit[active] = name[cursor[active]] == target
        cursor[active] = parent[cursor[active]]
        active = ~hit & (cursor >= 0)
    return hit


class SpanSummary:
    """Per-name aggregates over the recorded spans."""

    def __init__(self, tracer: Tracer):
        arr = tracer.arrays()
        self.tracer = tracer
        self.name = arr["name"]
        self.parent = arr["parent"]
        self.duration = arr["end"] - arr["start"]
        self.self_time = self_times(arr["start"], arr["end"], arr["parent"])
        self.count_name = arr["count_name"]
        self.count_parent = arr["count_parent"]

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.tracer._ids:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.tracer._ids[name]

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.duration[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def self_durations(self, name: str) -> np.ndarray:
        return self.self_time[self._mask(name)]

    def sizes(self, name: str) -> np.ndarray:
        idx = np.flatnonzero(self._mask(name))
        return np.array([self.tracer.sizes[i] for i in idx if i in self.tracer.sizes])

    def counted_within(self, counter: str, scope: str) -> int:
        """Counter events whose innermost open span lies inside `scope`."""
        ids = self.tracer._ids
        if counter not in ids or scope not in ids:
            return 0
        inside = within(self.name, self.parent, ids[scope])
        events = (self.count_name == ids[counter]) & (self.count_parent >= 0)
        return int(inside[self.count_parent[events]].sum())
