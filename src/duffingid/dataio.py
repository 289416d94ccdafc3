"""Dataset ingestion, train/validation split, config parsing and artifact
persistence: the one home of the file formats.

Series are header CSV of named float columns ("u" and "y" by default; a
simulated series also has its latent "x"), read by `load_columns` and
`load_csv` as UTF-8 with an optional byte-order mark, whatever the locale,
and written by `save_columns`. numpy's C parser reads the rows;
a row loop with Python's `float` is the error path, which names the first
bad row, and the reference the tests hold it to. `save_columns` writes the
rows as the shortest round-trip repr of each value, formatting and writing
a block of rows at a time. `load_yaml` reads the YAML files, takes 1e-4 and
1e8 as floats and raises `ConfigError` on a syntax error: prior configs
(`load_config`), simulator parameter files (`load_params`) and run
artifacts (`save_artifact`, `load_artifact`). YAML goes through libyaml
where PyYAML was built with it; `_from_mapping` turns a config's or
parameter file's mapping into its dataclass, which checks the values. An
artifact holds the schema version, prior config, sample period, posterior
and run metrics; readers derive the physical parameters. A version-2
artifact, which also held a free-energy trace, loads as version 3.
`save_truth` writes the simulator's truth sidecar, its coefficients only.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import re
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .beliefs import GammaBelief, GaussianBelief, independent
from .duffing import (ArCoefficients, PhysicalParams, TimeSeries, fits_float,
                      is_number)
from .engine import BeliefSet, PriorConfig

SCHEMA_VERSION = 3

SILVERBOX_DELTA = 1.0 / 610.35
SILVERBOX_SPLIT = 40000
_BLOCK = 4096  # rows per write of save_columns


class DatasetError(ValueError):
    """Malformed or missing data file."""


class ConfigError(ValueError):
    """Malformed config or artifact file."""


def load_columns(path, columns) -> list[np.ndarray]:
    """The named columns of a header CSV as float arrays; rejects NaN/inf
    values and names the row of the first bad one.

    numpy's C parser reads the rows; wherever it raises, warns (a file with
    no data rows) or reads a non-finite value, `_load_columns_by_row`
    reads the file again and raises its error or, for the few values only
    Python's `float` accepts, such as `1_0`, returns its own columns."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"no such data file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        index = _column_index(path, csv.reader(handle), columns)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                values = np.loadtxt(handle, delimiter=",", usecols=index,
                                    ndmin=2, comments=None, quotechar='"')
        except (ValueError, UserWarning):
            values = None
    if values is None or not np.isfinite(values).all():
        return _load_columns_by_row(path, columns)
    return list(values.T.copy())


def _column_index(path, reader, columns) -> list[int]:
    """Position of each named column in the header row of a csv reader."""
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{path}: empty file")
    for column in columns:
        if column not in header:
            raise DatasetError(
                f"{path}: missing column {column!r} (found {header})")
    return [header.index(column) for column in columns]


def _load_columns_by_row(path, columns) -> list[np.ndarray]:
    """`load_columns` one row at a time with `float`: its error path and
    the reference it is tested against. Blank lines are skipped and do not
    count as rows."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        index = _column_index(path, reader, columns)
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


def load_csv(path, delta: float = SILVERBOX_DELTA, input_column: str = "u",
             output_column: str = "y") -> TimeSeries:
    """Parse the input and output columns of a CSV into a TimeSeries;
    rejects NaN/inf values."""
    u, y = load_columns(path, (input_column, output_column))
    try:
        return TimeSeries(u, y, delta)
    except ValueError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def save_columns(path, columns: dict) -> None:
    """Write named float columns of equal length as header CSV; each value
    is its shortest round-trip repr, so it reads back exactly. The rows are
    the bytes `csv.writer` writes for floats, formatted and written
    _BLOCK rows at a time. Columns of unequal length are a ValueError."""
    arrays = [np.asarray(c, dtype=float) for c in columns.values()]
    lengths = {name: len(a) for name, a in zip(columns, arrays)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    n = len(arrays[0]) if arrays else 0
    row = ",".join(["{!r}"] * len(arrays)) + "\r\n"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(columns)
        for lo in range(0, n, _BLOCK):
            block = np.column_stack([a[lo:lo + _BLOCK] for a in arrays])
            handle.write((row * len(block)).format(*block.ravel().tolist()))


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


# libyaml's parser and emitter where PyYAML was built with it, else PyYAML's
# own; the files the CLI writes are the same bytes with either
if yaml.__with_libyaml__:
    _SafeLoader, _SafeDumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _SafeLoader, _SafeDumper = yaml.SafeLoader, yaml.SafeDumper


class _Loader(_SafeLoader):
    """Safe YAML that reads 1e8 and 1e-4 as floats; YAML 1.1 takes a float
    only with a dot and a signed exponent, and these as strings."""


_Loader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def load_yaml(path):
    """The YAML document in a file: configs, parameters and artifacts."""
    with open(path) as handle:
        try:
            return yaml.load(handle, Loader=_Loader)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:  # multi-line
            raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None


def load_params(path) -> tuple[PhysicalParams, tuple[float, float]]:
    """Read simulator parameters m, c, a, b, tau, xi and the optional
    initial state x0 = (x1, x0), (0, 0) by default, from a YAML mapping."""
    raw = load_yaml(path)
    params = _from_mapping(PhysicalParams, raw, path, "parameter file",
                           extra={"x0"})
    x0 = raw.get("x0", (0.0, 0.0))
    if not (isinstance(x0, (list, tuple)) and len(x0) == 2
            and all(fits_float(v) and math.isfinite(v) for v in x0)):
        raise ConfigError(f"{path}: x0 must be two finite numbers, got {x0!r}")
    return params, tuple(x0)


def _from_mapping(cls, raw, source, kind: str, extra=frozenset(), **keys):
    """`cls` from a YAML mapping, `keys` in place of its own; the caller
    reads the `extra` keys. Any other key, a document that is not a mapping
    and a bad value are a `ConfigError` from `source`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: {kind} must be a mapping")
    raw = {**raw, **keys}
    fields = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - fields - extra, key=str)  # keys of any type
    if unknown:
        raise ConfigError(f"{source}: unknown keys {unknown}")
    try:
        return cls(**{key: value for key, value in raw.items() if key in fields})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def save_truth(path, coeffs: ArCoefficients) -> None:
    """Write the generating coefficients of a simulated series as YAML, the
    mapping `psi` of theta, eta and gamma; its latent trajectory is the
    series' `x` column."""
    truth = {"psi": {"theta": coeffs.theta.tolist(), "eta": coeffs.eta,
                     "gamma": coeffs.gamma}}
    with open(path, "w") as handle:
        yaml.dump(truth, handle, Dumper=_SafeDumper)


def load_config(path=None, **keys) -> PriorConfig:
    """Read a PriorConfig from a YAML mapping, `keys` in place of its own;
    unknown keys are an error. An empty file, or none, yields the defaults."""
    raw = {} if path is None else load_yaml(path)
    return config_from_dict({} if raw is None else raw, str(path), **keys)


def config_from_dict(raw: dict, source: str = "config", **keys) -> PriorConfig:
    return _from_mapping(PriorConfig, raw, source, "config", **keys)


def config_to_dict(cfg: PriorConfig) -> dict:
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in dataclasses.asdict(cfg).items()}


@dataclass(frozen=True)
class RunArtifact:
    """Everything a finished identification run produces."""

    config: PriorConfig
    delta: float
    beliefs: BeliefSet
    metrics: dict


def _gaussian_to_dict(g: GaussianBelief) -> dict:
    return {"mean": g.mean.tolist(), "precision": g.precision.tolist()}


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


def save_artifact(artifact: RunArtifact, path) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(artifact.config),
        "delta": float(artifact.delta),
        "posterior": belief_set_to_dict(artifact.beliefs),
        "metrics": artifact.metrics,
    }
    with open(path, "w") as handle:
        yaml.dump(payload, handle, Dumper=_SafeDumper, sort_keys=True)


def load_artifact(path) -> RunArtifact:
    """Read an artifact; a malformed one is a `ConfigError` naming it and
    the dotted key at fault, such as `posterior.gamma.rate`. Each stored
    mean must be finite and of its belief's size: the config's coefficient
    count for theta, 1 for eta and 2 for the state."""
    payload = load_yaml(path)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: artifact must be a mapping")
    version = payload.get("schema_version")
    if version not in (2, SCHEMA_VERSION):  # 2 holds every key of 3
        raise ConfigError(
            f"{path}: schema version mismatch (got {version}, "
            f"expected {SCHEMA_VERSION} or 2)")
    config = config_from_dict(payload.get("config"), source=str(path))
    try:
        return RunArtifact(
            config=config,
            delta=_positive_at(payload, "delta"),
            beliefs=BeliefSet(  # the stored marginals load as independent
                q_coeffs=independent(
                    _gaussian_at(payload, "posterior.theta", config.n_coeffs),
                    _gaussian_at(payload, "posterior.eta", 1)),
                q_gamma=GammaBelief(_positive_at(payload, "posterior.gamma.shape"),
                                    _positive_at(payload, "posterior.gamma.rate")),
                q_xi=GammaBelief(_positive_at(payload, "posterior.xi.shape"),
                                 _positive_at(payload, "posterior.xi.rate")),
                q_state=_gaussian_at(payload, "posterior.state", 2)),
            metrics=_at(payload, "metrics"),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


_KINDS = {"mapping": lambda node: isinstance(node, dict),
          "list": lambda node: isinstance(node, list), "number": is_number}


def _at(payload: dict, key: str, kind: str = "mapping"):
    """The value at a dotted key of an artifact, checked to be of a kind in
    `_KINDS`; a missing key or a value of another kind is a ValueError
    naming the key."""
    node, seen = payload, []
    for part in key.split("."):
        if seen and not isinstance(node, dict):
            raise ValueError(
                f"{'.'.join(seen)} must be a mapping, got {type(node).__name__}")
        seen.append(part)
        if part not in node:
            raise ValueError(f"missing key {'.'.join(seen)!r}")
        node = node[part]
    if not _KINDS[kind](node):
        raise ValueError(f"{key} must be a {kind}, got {type(node).__name__}")
    return node


def _positive_at(payload: dict, key: str) -> float:
    value = _at(payload, key, "number")
    if not (fits_float(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{key} must be a positive finite number, got {value!r}")
    return float(value)


def _gaussian_at(payload: dict, key: str, size: int) -> GaussianBelief:
    """The proper Gaussian belief stored under a dotted key as mean and
    precision, its mean `size` finite numbers and its precision symmetric."""
    arrays = []
    for part in ("mean", "precision"):
        value = _at(payload, f"{key}.{part}", "list")
        try:
            arrays.append(np.array(value, dtype=float))
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"{key}.{part}: {exc}") from None
    if arrays[0].shape != (size,) or not np.isfinite(arrays[0]).all():
        raise ValueError(f"{key}.mean must have {size} entries, all finite, "
                         f"got {arrays[0].tolist()!r}")
    try:
        belief = GaussianBelief(*arrays)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    # GaussianBelief would average it with its transpose
    if not np.array_equal(arrays[1], arrays[1].T, equal_nan=True):
        raise ValueError(f"{key}.precision must be symmetric")
    if belief.cov is None:
        raise ValueError(f"{key}.precision is not positive definite")
    return belief
