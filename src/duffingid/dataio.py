"""Dataset ingestion, train/validation split, config parsing and artifact
persistence.

Native data format is header CSV with real-valued "u" and "y" columns
(configurable names). Configs and run artifacts are YAML with an explicit
schema version.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .beliefs import GammaBelief, GaussianBelief, independent
from .duffing import TimeSeries
from .engine import BeliefSet, PriorConfig

SCHEMA_VERSION = 1

SILVERBOX_DELTA = 1.0 / 610.35
SILVERBOX_SPLIT = 40000


class DatasetError(ValueError):
    """Malformed or missing data file."""


class ConfigError(ValueError):
    """Malformed config or artifact file."""


@dataclass(frozen=True)
class DatasetSpec:
    """Where and how to read a benchmark-style CSV file."""

    path: str
    input_column: str = "u"
    output_column: str = "y"
    delta: float = SILVERBOX_DELTA


def load_columns(path, columns) -> list[np.ndarray]:
    """The named columns of a header CSV as float arrays; rejects NaN/inf
    values and names the row of the first bad one."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such data file: {path}")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        for column in columns:
            if column not in header:
                raise DatasetError(
                    f"{path}: missing column {column!r} (found {header})")
        index = [header.index(column) for column in columns]
        values = array("d")  # row after row, 8 bytes a value
        for row_number, row in enumerate(filter(None, reader), start=1):
            try:
                parsed = [float(row[i]) for i in index]
            except (IndexError, ValueError):
                raise DatasetError(
                    f"{path}: unparseable value in row {row_number}") from None
            if not all(map(math.isfinite, parsed)):
                raise DatasetError(f"{path}: non-finite value in row {row_number}")
            values.extend(parsed)
    if not values:
        raise DatasetError(f"{path}: no data rows")
    return list(np.frombuffer(values).reshape(-1, len(index)).T.copy())


def load_csv(spec: DatasetSpec) -> TimeSeries:
    """Parse a two-column CSV into a TimeSeries; rejects NaN/inf values."""
    u, y = load_columns(spec.path, (spec.input_column, spec.output_column))
    try:
        return TimeSeries(u, y, spec.delta)
    except ValueError as exc:
        raise DatasetError(f"{spec.path}: {exc}") from None


def save_csv(ts: TimeSeries, path, input_column: str = "u",
             output_column: str = "y") -> None:
    """Write a TimeSeries as header CSV with full float precision."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([input_column, output_column])
        for u, y in zip(ts.u, ts.y):
            writer.writerow([repr(float(u)), repr(float(y))])


def check_split(n: int, split_index: int) -> None:
    """Both segments of a split of n samples need at least 3."""
    if not 3 <= split_index <= n - 3:
        raise DatasetError(
            f"split index {split_index} out of range for {n} samples "
            "(both segments need at least 3)")


def split(ts: TimeSeries, split_index: int) -> tuple[TimeSeries, TimeSeries]:
    """Cut into (validation, training): validation is the leading segment."""
    check_split(len(ts), split_index)
    validation = TimeSeries(ts.u[:split_index], ts.y[:split_index], ts.delta)
    training = TimeSeries(ts.u[split_index:], ts.y[split_index:], ts.delta)
    return validation, training


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(PriorConfig)}


def load_config(path) -> PriorConfig:
    """Read a PriorConfig from YAML; unknown keys are an error (typo guard).
    An empty file yields the full default configuration."""
    with open(path) as handle:
        raw = yaml.safe_load(handle)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return config_from_dict(raw, source=str(path))


def config_from_dict(raw: dict, source: str = "config") -> PriorConfig:
    unknown = sorted(set(raw) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"{source}: unknown keys {unknown}")
    kwargs = {}
    for key, value in raw.items():
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return PriorConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def config_to_dict(cfg: PriorConfig) -> dict:
    out = dataclasses.asdict(cfg)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = list(value)
    return out


@dataclass(frozen=True)
class RunArtifact:
    """Everything a finished identification run produces."""

    config: dict
    delta: float
    beliefs: BeliefSet
    free_energies: list
    metrics: dict
    physical: dict
    schema_version: int = SCHEMA_VERSION


def _plain(value):
    """Recursively coerce numpy scalars so YAML can represent the payload."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _gaussian_to_dict(g: GaussianBelief) -> dict:
    return {"mean": g.mean.tolist(), "precision": g.precision.tolist()}


def _gaussian_from_dict(d: dict) -> GaussianBelief:
    return GaussianBelief(np.array(d["mean"]), np.array(d["precision"]))


def belief_set_to_dict(beliefs: BeliefSet) -> dict:
    return {
        "theta": _gaussian_to_dict(beliefs.q_theta),
        "eta": _gaussian_to_dict(beliefs.q_eta),
        "gamma": {"shape": float(beliefs.q_gamma.shape),
                  "rate": float(beliefs.q_gamma.rate)},
        "xi": {"shape": float(beliefs.q_xi.shape),
               "rate": float(beliefs.q_xi.rate)},
        "state": _gaussian_to_dict(beliefs.q_state),
    }


def belief_set_from_dict(d: dict) -> BeliefSet:
    """The stored marginals of theta and eta load as independent."""
    return BeliefSet(
        q_coeffs=independent(_gaussian_from_dict(d["theta"]),
                             _gaussian_from_dict(d["eta"])),
        q_gamma=GammaBelief(d["gamma"]["shape"], d["gamma"]["rate"]),
        q_xi=GammaBelief(d["xi"]["shape"], d["xi"]["rate"]),
        q_state=_gaussian_from_dict(d["state"]),
    )


def save_artifact(artifact: RunArtifact, path) -> None:
    payload = {
        "schema_version": artifact.schema_version,
        "config": _plain(artifact.config),
        "delta": float(artifact.delta),
        "posterior": belief_set_to_dict(artifact.beliefs),
        "free_energies": [float(v) for v in artifact.free_energies],
        "metrics": _plain(artifact.metrics),
        "physical": _plain(artifact.physical),
    }
    with open(path, "w") as handle:
        yaml.safe_dump(payload, handle, sort_keys=True)


def load_artifact(path) -> RunArtifact:
    with open(path) as handle:
        payload = yaml.safe_load(handle)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: artifact must be a mapping")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema version mismatch (got {version}, "
            f"expected {SCHEMA_VERSION})")
    return RunArtifact(
        config=payload["config"],
        delta=float(payload["delta"]),
        beliefs=belief_set_from_dict(payload["posterior"]),
        free_energies=list(payload["free_energies"]),
        metrics=dict(payload["metrics"]),
        physical=dict(payload["physical"]),
        schema_version=version,
    )
