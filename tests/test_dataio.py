"""CSV ingestion, splitting, config parsing and artifact persistence."""

import codecs
import csv
import dataclasses
import re
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duffingid import PriorConfig
from duffingid.beliefs import GammaBelief, GaussianBelief, independent
from duffingid.dataio import (
    _BLOCK,
    ConfigError,
    DatasetError,
    RunArtifact,
    SILVERBOX_DELTA,
    SILVERBOX_SPLIT,
    _load_columns_by_row,
    belief_set_to_dict,
    config_from_dict,
    config_to_dict,
    load_artifact,
    load_config,
    load_columns,
    load_csv,
    load_params,
    load_yaml,
    save_artifact,
    save_columns,
    save_truth,
    split,
)
from duffingid.duffing import PhysicalParams, TimeSeries, phys_to_ar
from duffingid.engine import BeliefSet


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "u,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        ts = load_csv(path, delta=0.01)
        assert len(ts) == 3
        np.testing.assert_allclose(ts.u, [0.1, 0.3, 0.5])
        np.testing.assert_allclose(ts.y, [0.2, 0.4, 0.6])
        assert ts.delta == 0.01

    @pytest.mark.parametrize("rows", [1, 2])
    def test_too_few_rows(self, tmp_path, rows):
        path = write(tmp_path / "d.csv", "u,y\n" + "0.1,0.2\n" * rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="^" + re.escape(
                    f"{path}: insufficient data: need at least 3 samples")
                    + "$"):
                load_csv(path)

    def test_nan_row_named(self, tmp_path):
        rows = "\n".join("0.1,0.2" for _ in range(6))
        path = write(tmp_path / "d.csv", f"u,y\n{rows}\nNaN,0.2\n0.1,0.2\n")
        with pytest.raises(DatasetError, match="row 7"):
            load_csv(path)

    def test_unparseable_row_named(self, tmp_path):
        path = write(tmp_path / "d.csv", "u,y\n0.1,0.2\nx,0.4\n0.5,0.6\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path)

    def test_short_row_named_after_a_blank_line(self, tmp_path):
        # blank lines are skipped and do not count as rows
        path = write(tmp_path / "d.csv", "u,y\n0.1,0.2\n\n0.3\n0.5,0.6\n")
        with pytest.raises(DatasetError, match="unparseable value in row 2"):
            load_csv(path)

    @pytest.mark.parametrize("parse", [load_columns, _load_columns_by_row])
    def test_byte_order_mark(self, tmp_path, parse):
        # Excel and other Windows tools start a UTF-8 CSV with a byte-order
        # mark; both parsers read past it
        text = b"u,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        got, want = parse(marked, ("u", "y")), parse(plain, ("u", "y"))
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_byte_order_mark_bad_row_named(self, tmp_path):
        # the row loop, which names the row, reads past the mark too
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"u,y\n0.1,0.2\n0.3,0.4\nx,0.6\n")
        with pytest.raises(DatasetError, match="^" + re.escape(
                f"{path}: unparseable value in row 3") + "$"):
            load_columns(path, ("u", "y"))

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,y\n0.1,0.2\n")
        with pytest.raises(DatasetError, match="missing column 'u'"):
            load_csv(path)

    def test_column_mapping(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "V1,V2\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        ts = load_csv(path, input_column="V1", output_column="V2")
        np.testing.assert_allclose(ts.u, [0.1, 0.3, 0.5])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(DatasetError, match="empty file"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such data file"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = TimeSeries(rng.normal(0, 1, 100), rng.normal(0, 1, 100), 0.05)
        path = tmp_path / "rt.csv"
        save_columns(path, {"u": ts.u, "y": ts.y})
        back = load_csv(str(path), delta=0.05)
        np.testing.assert_allclose(back.u, ts.u, atol=1e-12)
        np.testing.assert_allclose(back.y, ts.y, atol=1e-12)

    def test_named_columns_written_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        columns = {"y_hat": rng.normal(0, 1, 50), "sq_error": rng.random(50),
                   "extra": np.arange(50.0)}
        path = tmp_path / "cols.csv"
        save_columns(path, columns)
        assert path.read_text().splitlines()[0] == "y_hat,sq_error,extra"
        for want, got in zip(columns.values(), load_columns(path, list(columns))):
            np.testing.assert_array_equal(got, want)


# values whose repr takes every form: signed zero, subnormal, exponent
# forms small and large, the largest float and the non-finite ones
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e-5, 1e16, sys.float_info.max,
                  -sys.float_info.max, float("nan"), float("inf"),
                  float("-inf"), 0.1, -2.5]


class TestSaveColumns:
    @pytest.mark.parametrize("n_columns", [1, 2, 3])
    @pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      2 * _BLOCK + 3])
    def test_bytes_of_csv_writer(self, tmp_path, rows, n_columns):
        rng = np.random.default_rng(rows + n_columns)
        columns = {}
        for k in range(n_columns):
            values = rng.normal(0.0, 10.0 ** rng.integers(-8, 8), rows)
            at = rng.random(rows) < 0.3
            values[at] = rng.choice(SPECIAL_FLOATS, at.sum())
            columns[f"c{k}"] = values
        # every special value, in the last block
        k = min(rows, len(SPECIAL_FLOATS))
        columns["c0"][rows - k:] = SPECIAL_FLOATS[:k]
        path, reference = tmp_path / "cols.csv", tmp_path / "ref.csv"
        save_columns(path, columns)
        with open(reference, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            writer.writerows(zip(*(c.tolist() for c in columns.values())))
        assert path.read_bytes() == reference.read_bytes()

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        path = tmp_path / "cols.csv"
        with pytest.raises(ValueError, match=r"unequal length.*'a': 5, 'b': 3"):
            save_columns(path, {"a": np.zeros(5), "b": np.zeros(3)})
        assert not path.exists()


# CSV text for the loader's two parsers: values made of digits, ".", "e",
# "-" and "_", or nan, inf and x, padded with spaces or quoted, in rows of one
# to three fields with "\n" or "\r\n" line ends and blank lines; rows of
# parseable values only, so that both parsers also succeed; and loose strings
# of the same pieces, for stray quotes and separators
VALUE_CHARS = ["0", "1", "7", ".", "e", "-", "_"]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["1_0", ".5", "7.", "-0", "1e7", "-7e-1"]))
VALUES = st.one_of(
    FINITE, st.sampled_from(["nan", "-inf", "x", ""]),
    st.lists(st.sampled_from(VALUE_CHARS), min_size=1, max_size=6).map("".join))


def csv_rows(values, min_fields):
    fields = st.builds(
        lambda value, pad, quoted: (f'"{pad}{value}{pad}"' if quoted
                                    else f"{pad}{value}{pad}"),
        values, st.sampled_from(["", "", " "]), st.booleans())
    rows = st.builds(lambda row, end: ",".join(row) + end,
                     st.lists(fields, min_size=min_fields, max_size=3),
                     st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"]))
    return st.lists(rows, max_size=6).map("".join)


CSV_PIECES = VALUE_CHARS + [",", '"', " ", "\n", "\r\n", "nan", "inf", "x"]
CSV_BODIES = st.one_of(
    csv_rows(FINITE, 2), csv_rows(VALUES, 1),
    st.lists(st.sampled_from(CSV_PIECES), max_size=40).map("".join))


class TestLoaderAgainstRowLoop:
    """`load_columns` parses with numpy and falls back on the row loop; it
    must return what the row loop returns or raise what it raises."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=CSV_BODIES,
           columns=st.sampled_from([("u", "y"), ("y",), ("y", "u"), ("u", "u")]))
    def test_same_columns_or_same_error(self, tmp_path, body, columns):
        path = tmp_path / "d.csv"
        path.write_bytes(f"u,y\n{body}".encode())
        try:
            want = _load_columns_by_row(path, columns)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as raised:
                load_columns(path, columns)
            assert str(raised.value) == str(exc)
            return
        got = load_columns(path, columns)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert g.flags.c_contiguous

    @pytest.mark.parametrize("first", ["1", "1_0"])
    def test_value_forms(self, tmp_path, first):
        # numpy reads every row but one with `1_0`, which only `float` takes
        path = write(tmp_path / "d.csv", f'u,y\n{first},"2.5"\n'
                     ' .5 ,-7e-3\n\n"1e2", 5.\r\n1,2,x\n')
        want = [[float(first), 0.5, 100.0, 1.0], [2.5, -0.007, 5.0, 2.0]]
        for parse in (load_columns, _load_columns_by_row):
            got = parse(path, ("u", "y"))
            assert len(got) == 2
            for column, values in zip(got, want):
                np.testing.assert_array_equal(column, values)

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_header_only_file(self, tmp_path, action):
        # numpy warns on a file with no data rows; the warning must not
        # escape, whether warnings are errors or only recorded
        for text in ("u,y\n", "u,y\n\n\n", "u,y"):
            path = write(tmp_path / "d.csv", text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                with pytest.raises(DatasetError, match="no data rows"):
                    load_columns(path, ("u", "y"))
            assert caught == []


class TestSplit:
    def test_benchmark_counts(self):
        ts = TimeSeries(np.zeros(131702), np.zeros(131702), SILVERBOX_DELTA)
        validation, training = split(ts, SILVERBOX_SPLIT)
        assert len(validation) == 40000
        assert len(training) == 91702

    def test_minimum_split(self):
        ts = TimeSeries(np.arange(10.0), np.arange(10.0), 0.1)
        validation, training = split(ts, 3)
        assert len(validation) == 3 and len(training) == 7

    def test_out_of_range(self):
        ts = TimeSeries(np.arange(10.0), np.arange(10.0), 0.1)
        with pytest.raises(DatasetError, match="out of range"):
            split(ts, 9)
        with pytest.raises(DatasetError, match="out of range"):
            split(ts, 2)

    def test_concatenation_restores_series(self):
        rng = np.random.default_rng(1)
        ts = TimeSeries(rng.normal(0, 1, 20), rng.normal(0, 1, 20), 0.1)
        validation, training = split(ts, 8)
        np.testing.assert_array_equal(
            np.concatenate([validation.u, training.u]), ts.u)
        np.testing.assert_array_equal(
            np.concatenate([validation.y, training.y]), ts.y)


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = write(tmp_path / "c.yaml", "")
        assert load_config(path) == PriorConfig()

    def test_overrides(self, tmp_path):
        path = write(tmp_path / "c.yaml",
                     "model_mode: larx\niterations_per_step: 3\n"
                     "m0_theta: [0.5, 0.5, 0.5]\n")
        cfg = load_config(path)
        assert cfg.model_mode == "larx"
        assert cfg.iterations_per_step == 3
        assert cfg.m0_theta == (0.5, 0.5, 0.5)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path / "c.yaml", "epsilonn: 1e-8\n")
        with pytest.raises(ConfigError, match="epsilonn"):
            load_config(path)

    def test_invalid_value_wrapped(self):
        with pytest.raises(ConfigError, match="must be positive"):
            config_from_dict({"v0_theta": -1.0})

    def test_dict_roundtrip(self):
        cfg = PriorConfig(model_mode="larx", state0_cov=1e-4)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_non_mapping_rejected(self, tmp_path):
        path = write(tmp_path / "c.yaml", "- 1\n- 2\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    @pytest.mark.parametrize("a0_xi, m0_eta", [
        ("1e8", "1e-2"), ("1.0e8", "1E-2"), ("1.0e+8", "1.0e-2"),
        ("100000000.0", "0.01")])
    def test_exponent_numbers_are_floats(self, tmp_path, a0_xi, m0_eta):
        # YAML 1.1 takes a float only with a dot and a signed exponent
        path = write(tmp_path / "c.yaml", f"a0_xi: {a0_xi}\nm0_eta: {m0_eta}\n")
        cfg = load_config(path)
        assert type(cfg.a0_xi) is float and cfg.a0_xi == 1e8
        assert type(cfg.m0_eta) is float and cfg.m0_eta == 0.01

    def test_yaml_loader_leaves_other_scalars(self, tmp_path):
        path = write(tmp_path / "d.yaml",
                     "a: 1e\nb: e8\nc: 1e8x\nd: 12\ne: -2.5e3\nf: [.5e1, 7]\n")
        assert load_yaml(path) == {"a": "1e", "b": "e8", "c": "1e8x", "d": 12,
                                   "e": -2500.0, "f": [5.0, 7]}
        # the library's loader leaves PyYAML's own safe loader as it was
        assert yaml.safe_load("x: 1e8") == {"x": "1e8"}


class TestParams:
    def test_params_and_initial_state(self, tmp_path):
        path = write(tmp_path / "p.yaml", "m: 1.0\nc: 0.5\na: 2\nb: 3.0\n"
                     "tau: 1e1\nxi: 1e6\nx0: [0.1, -0.2]\n")
        params, x0 = load_params(path)
        assert params == PhysicalParams(m=1.0, c=0.5, a=2, b=3.0, tau=10.0,
                                        xi=1e6)
        assert x0 == (0.1, -0.2)
        path = write(tmp_path / "q.yaml", "m: 1\nc: 0\na: 1\nb: 0\n"
                     "tau: 1\nxi: 1\n")
        assert load_params(path)[1] == (0.0, 0.0)

    @pytest.mark.parametrize("text, match", [
        ("5\n", "mapping"),
        ("- 1.0\n- 2.0\n", "mapping"),
        ("m: 1\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\nx0: [0.1]\n", "x0"),
        ("m: 1\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\nx0: [1, 2, 3]\n", "x0"),
        ("m: 1\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\nx0: [a, b]\n", "x0"),
        ("m: 1\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\nx0: [.nan, 0]\n", "x0"),
        ("m: 1\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\nx0: [true, false]\n", "x0"),
        ("m: true\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\n", "m must be"),
        ("m: 1\nc: .nan\na: 1\nb: 0\ntau: 1\nxi: 1\n", "c must be"),
        ("m: 1\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\nmass: 2\n", "mass"),
        ("m: 1\nc: 0\na: 1\nb: 0\ntau: 1\n", "xi"),
        ("m: -1\nc: 0\na: 1\nb: 0\ntau: 1\nxi: 1\n", "mass"),
    ])
    def test_malformed_rejected(self, tmp_path, text, match):
        path = write(tmp_path / "p.yaml", text)
        with pytest.raises(ConfigError, match=match):
            load_params(path)

    def test_truth_sidecar(self, tmp_path):
        coeffs = phys_to_ar(PhysicalParams(1.0, 0.5, 2.0, 3.0, 10.0, 1e6), 0.1)
        path = tmp_path / "sim.csv.truth.yaml"
        save_truth(path, coeffs)
        assert load_yaml(path) == {
            "psi": {"theta": coeffs.theta.tolist(), "eta": coeffs.eta,
                    "gamma": coeffs.gamma}}


def make_artifact():
    beliefs = BeliefSet(
        q_coeffs=independent(
            GaussianBelief([1.9, -0.03, -0.95], np.diag([10.0, 5.0, 10.0])),
            GaussianBelief([0.0095], [[1e4]])),
        q_gamma=GammaBelief(100.5, 2.5e-3),
        q_xi=GammaBelief(1e8 + 50.0, 1e3 + 0.2),
        q_state=GaussianBelief([0.01, 0.02], np.diag([1e5, 1e8])),
    )
    return RunArtifact(
        config=PriorConfig(),
        delta=SILVERBOX_DELTA,
        beliefs=beliefs,
        metrics={"final_free_energy": -0.4, "steps": 3},
    )


class TestArtifact:
    def test_roundtrip(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "run.yaml"
        save_artifact(artifact, path)
        back = load_artifact(path)
        assert back.config == artifact.config
        assert back.delta == artifact.delta
        assert back.metrics == artifact.metrics
        np.testing.assert_allclose(back.beliefs.q_theta.mean,
                                   artifact.beliefs.q_theta.mean, rtol=1e-15)
        np.testing.assert_allclose(back.beliefs.q_theta.precision,
                                   artifact.beliefs.q_theta.precision,
                                   rtol=1e-15)
        assert back.beliefs.q_gamma == artifact.beliefs.q_gamma
        assert back.beliefs.q_xi == artifact.beliefs.q_xi

    @pytest.mark.parametrize("values", [
        {"v0_theta": np.float64(10.0), "a0_gamma": np.float64(1e3),
         "m0_eta": np.float64(1.0), "iterations_per_step": np.int64(5)},
        {"m0_theta": np.ones(3), "state0_mean": np.zeros(2)},
        # an int prior field is stored, and saved, as a float
        {"v0_theta": 10, "b0_gamma": 10, "m0_theta": [1, 1, 1]}])
    def test_config_of_other_numbers_saves_as_floats(self, tmp_path, values):
        cfg = PriorConfig(**values)
        assert cfg == PriorConfig() and hash(cfg) == hash(PriorConfig())
        paths = tmp_path / "numbers.yaml", tmp_path / "floats.yaml"
        save_artifact(dataclasses.replace(make_artifact(), config=cfg), paths[0])
        save_artifact(make_artifact(), paths[1])
        assert load_artifact(paths[0]).config == cfg
        assert paths[0].read_text() == paths[1].read_text()

    def test_invalid_stored_config_rejected(self, tmp_path):
        path = tmp_path / "run.yaml"
        save_artifact(make_artifact(), path)
        path.write_text(path.read_text().replace("v0_eta: 10.0",
                                                 "v0_eta: -1.0"))
        with pytest.raises(ConfigError, match="must be positive"):
            load_artifact(path)

    def test_version_mismatch(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "run.yaml"
        save_artifact(artifact, path)
        text = path.read_text().replace("schema_version: 3",
                                        "schema_version: 99")
        path.write_text(text)
        with pytest.raises(ConfigError, match="schema version mismatch"):
            load_artifact(path)

    def test_version_2_loads_without_its_trace(self, tmp_path):
        # a version-2 artifact is a version-3 one with a free-energy trace
        v3, v2 = tmp_path / "v3.yaml", tmp_path / "v2.yaml"
        save_artifact(make_artifact(), v3)
        payload = load_yaml(v3)
        payload.update(schema_version=2, free_energies=[3.2, 1.1, -0.4])
        v2.write_text(yaml.safe_dump(payload))
        old, new = load_artifact(v2), load_artifact(v3)
        assert (old.config, old.delta, old.metrics) == (
            new.config, new.delta, new.metrics)
        assert belief_set_to_dict(old.beliefs) == belief_set_to_dict(new.beliefs)

    @pytest.mark.parametrize("case, message", [
        ("not a mapping", "artifact must be a mapping"),
        ("precision of the wrong shape", "posterior.eta: precision shape "
         "(2, 2) does not match dim 1")])
    def test_malformed_payload_rejected(self, tmp_path, case, message):
        path = tmp_path / "run.yaml"
        save_artifact(make_artifact(), path)
        payload = load_yaml(path)
        if case == "not a mapping":
            payload = [payload]
        else:
            payload["posterior"]["eta"]["precision"] = [[1.0, 0.0], [0.0, 1.0]]
        path.write_text(yaml.safe_dump(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="^" + re.escape(
                    f"{path}: {message}") + "$"):
                load_artifact(path)

    @pytest.mark.parametrize("mode, key, mean", [
        ("nlarx", "theta", [float("nan"), 0.0, 0.0]),
        ("nlarx", "state", [float("inf"), 0.0]),
        ("nlarx", "eta", [float("-inf")]),
        ("nlarx", "theta", [1.9]), ("nlarx", "state", [0.01]),
        ("nlarx", "eta", [0.0095, 0.0]),
        # a LARX config stores 2 coefficients, so the 3 of an NLARX run
        # are not a LARX posterior
        ("larx", "theta", [1.9, -0.03, -0.95])])
    def test_corrupt_posterior_mean_rejected(self, tmp_path, mode, key, mean):
        path = tmp_path / "run.yaml"
        save_artifact(make_artifact(), path)
        payload = load_yaml(path)
        payload["config"]["model_mode"] = mode
        payload["posterior"][key]["mean"] = mean
        path.write_text(yaml.safe_dump(payload))
        size = {"theta": 3 if mode == "nlarx" else 2, "eta": 1, "state": 2}[key]
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"{path}: posterior.{key}.mean must have {size} entries, "
                f"all finite, got {mean!r}") + "$"):
            load_artifact(path)
