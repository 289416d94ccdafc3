"""CSV ingestion, splitting, config parsing and artifact persistence."""

import numpy as np
import pytest

from duffingid import PriorConfig
from duffingid.beliefs import GammaBelief, GaussianBelief, independent
from duffingid.dataio import (
    ConfigError,
    DatasetError,
    DatasetSpec,
    RunArtifact,
    SILVERBOX_DELTA,
    SILVERBOX_SPLIT,
    config_from_dict,
    config_to_dict,
    load_artifact,
    load_config,
    load_csv,
    save_artifact,
    save_csv,
    split,
)
from duffingid.duffing import TimeSeries
from duffingid.engine import BeliefSet


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "u,y\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        ts = load_csv(DatasetSpec(path=path, delta=0.01))
        assert len(ts) == 3
        np.testing.assert_allclose(ts.u, [0.1, 0.3, 0.5])
        np.testing.assert_allclose(ts.y, [0.2, 0.4, 0.6])
        assert ts.delta == 0.01

    def test_nan_row_named(self, tmp_path):
        rows = "\n".join("0.1,0.2" for _ in range(6))
        path = write(tmp_path / "d.csv", f"u,y\n{rows}\nNaN,0.2\n0.1,0.2\n")
        with pytest.raises(DatasetError, match="row 7"):
            load_csv(DatasetSpec(path=path))

    def test_unparseable_row_named(self, tmp_path):
        path = write(tmp_path / "d.csv", "u,y\n0.1,0.2\nx,0.4\n0.5,0.6\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(DatasetSpec(path=path))

    def test_short_row_named_after_a_blank_line(self, tmp_path):
        # blank lines are skipped and do not count as rows
        path = write(tmp_path / "d.csv", "u,y\n0.1,0.2\n\n0.3\n0.5,0.6\n")
        with pytest.raises(DatasetError, match="unparseable value in row 2"):
            load_csv(DatasetSpec(path=path))

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,y\n0.1,0.2\n")
        with pytest.raises(DatasetError, match="missing column 'u'"):
            load_csv(DatasetSpec(path=path))

    def test_column_mapping(self, tmp_path):
        path = write(tmp_path / "d.csv",
                     "V1,V2\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        ts = load_csv(DatasetSpec(path=path, input_column="V1",
                                  output_column="V2"))
        np.testing.assert_allclose(ts.u, [0.1, 0.3, 0.5])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(DatasetError, match="empty file"):
            load_csv(DatasetSpec(path=path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such data file"):
            load_csv(DatasetSpec(path=str(tmp_path / "nope.csv")))

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = TimeSeries(rng.normal(0, 1, 100), rng.normal(0, 1, 100), 0.05)
        path = tmp_path / "rt.csv"
        save_csv(ts, path)
        back = load_csv(DatasetSpec(path=str(path), delta=0.05))
        np.testing.assert_allclose(back.u, ts.u, atol=1e-12)
        np.testing.assert_allclose(back.y, ts.y, atol=1e-12)


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
        config=config_to_dict(PriorConfig()),
        delta=SILVERBOX_DELTA,
        beliefs=beliefs,
        free_energies=[3.2, 1.1, -0.4],
        metrics={"final_free_energy": -0.4, "steps": 3},
        physical={"m": 1.0, "c": 0.5, "a": 2.0, "b": 3.0, "tau": 10.0},
    )


class TestArtifact:
    def test_roundtrip(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "run.yaml"
        save_artifact(artifact, path)
        back = load_artifact(path)
        assert back.config == artifact.config
        assert back.delta == artifact.delta
        assert back.free_energies == artifact.free_energies
        assert back.metrics == artifact.metrics
        assert back.physical == artifact.physical
        np.testing.assert_allclose(back.beliefs.q_theta.mean,
                                   artifact.beliefs.q_theta.mean, rtol=1e-15)
        np.testing.assert_allclose(back.beliefs.q_theta.precision,
                                   artifact.beliefs.q_theta.precision,
                                   rtol=1e-15)
        assert back.beliefs.q_gamma == artifact.beliefs.q_gamma
        assert back.beliefs.q_xi == artifact.beliefs.q_xi

    def test_version_mismatch(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "run.yaml"
        save_artifact(artifact, path)
        text = path.read_text().replace("schema_version: 1",
                                        "schema_version: 99")
        path.write_text(text)
        with pytest.raises(ConfigError, match="schema version mismatch"):
            load_artifact(path)
