"""Command-line interface: subcommands, file formats and exit codes."""

import numpy as np
import pytest
import yaml

from duffingid import PhysicalParams, PriorConfig, phys_to_ar
from duffingid.cli import main
from duffingid.dataio import (
    DatasetSpec,
    config_to_dict,
    load_csv,
    save_artifact,
    save_csv,
)
from duffingid.dataio import RunArtifact
from duffingid.beliefs import GammaBelief, GaussianBelief, independent
from duffingid.duffing import TimeSeries
from duffingid.engine import BeliefSet

PARAMS = {"m": 1.0, "c": 0.5, "a": 2.0, "b": 3.0, "tau": 10.0, "xi": 1e6}


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.yaml"
    path.write_text(yaml.safe_dump(PARAMS))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def make_truth_artifact(path, delta=0.1, xi=1e8):
    """Artifact whose posterior means are the exact generating coefficients."""
    coeffs = phys_to_ar(PhysicalParams(**PARAMS), delta)
    beliefs = BeliefSet(
        q_coeffs=independent(GaussianBelief(coeffs.theta, np.eye(3) * 1e6),
                             GaussianBelief([coeffs.eta], [[1e8]])),
        q_gamma=GammaBelief(10.0, 10.0 / coeffs.gamma),
        q_xi=GammaBelief(10.0, 10.0 / xi),
        q_state=GaussianBelief([0.0, 0.0], np.eye(2)),
    )
    artifact = RunArtifact(
        config=config_to_dict(PriorConfig()),
        delta=delta,
        beliefs=beliefs,
        free_energies=[0.0],
        metrics={"final_free_energy": 0.0, "steps": 1},
        physical={k: PARAMS[k] for k in ("m", "c", "a", "b", "tau")},
    )
    save_artifact(artifact, path)
    return str(path)


class TestSimulate:
    def test_writes_csv_and_truth_sidecar(self, tmp_path, params_file):
        out = tmp_path / "sim.csv"
        code = run("simulate", "--params", params_file, "--steps", 500,
                   "--seed", 3, "--out", out, "--delta", 0.1)
        assert code == 0
        ts = load_csv(DatasetSpec(path=str(out), delta=0.1))
        assert len(ts) == 500
        sidecar = yaml.safe_load((tmp_path / "sim.csv.truth.yaml").read_text())
        coeffs = phys_to_ar(PhysicalParams(**PARAMS), 0.1)
        np.testing.assert_allclose(sidecar["psi"]["theta"], coeffs.theta)
        assert sidecar["psi"]["eta"] == pytest.approx(coeffs.eta)
        assert sidecar["psi"]["gamma"] == pytest.approx(coeffs.gamma)
        assert len(sidecar["latent_x"]) == 500

    def test_reproducible_byte_for_byte(self, tmp_path, params_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--params", params_file, "--steps", 200, "--seed", 7,
            "--out", out1)
        run("simulate", "--params", params_file, "--steps", 200, "--seed", 7,
            "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_noise_free_constant_case(self, tmp_path):
        params = tmp_path / "p.yaml"
        params.write_text(yaml.safe_dump(
            {"m": 1.0, "c": 0.0, "a": 0.0, "b": 0.0, "tau": 1.0, "xi": 1.0,
             "x0": [1.0, 1.0]}))
        drive = tmp_path / "u.csv"
        save_csv(TimeSeries(np.zeros(50), np.zeros(50), 1.0), drive)
        out = tmp_path / "const.csv"
        code = run("simulate", "--params", params, "--input", drive,
                   "--out", out, "--delta", 1.0, "--noise-free")
        assert code == 0
        ts = load_csv(DatasetSpec(path=str(out), delta=1.0))
        np.testing.assert_allclose(ts.y, np.ones(50))

    def test_unknown_param_key(self, tmp_path):
        params = tmp_path / "p.yaml"
        params.write_text(yaml.safe_dump({**PARAMS, "mass": 2.0}))
        assert run("simulate", "--params", params,
                   "--out", tmp_path / "x.csv") == 2

    def test_divergence_exit_code(self, tmp_path):
        params = tmp_path / "p.yaml"
        params.write_text(yaml.safe_dump(
            {"m": 1.0, "c": 0.0, "a": -50.0, "b": -50.0, "tau": 1e6,
             "xi": 1e6}))
        assert run("simulate", "--params", params, "--steps", 200,
                   "--delta", 1.0, "--sine-amplitude", 5.0,
                   "--out", tmp_path / "x.csv") == 1


class TestIdentifyPredictEvaluate:
    @pytest.fixture
    def dataset(self, tmp_path, params_file):
        out = tmp_path / "data.csv"
        run("simulate", "--params", params_file, "--steps", 400, "--seed", 5,
            "--out", out, "--delta", 0.1)
        return out

    def test_identify_writes_artifact(self, tmp_path, dataset):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(yaml.safe_dump(
            {"state0_cov": 1e-4, "a0_gamma": 1.0, "b0_gamma": 1e-4}))
        art = tmp_path / "run.yaml"
        code = run("identify", "--data", dataset, "--config", cfgfile,
                   "--out", art, "--delta", 0.1)
        assert code == 0
        payload = yaml.safe_load(art.read_text())
        assert payload["schema_version"] == 1
        assert payload["metrics"]["steps"] == 399
        assert set(payload["physical"]) == {"m", "c", "a", "b", "tau"}
        assert np.isfinite(payload["metrics"]["final_free_energy"])

    def test_identify_missing_file(self, tmp_path):
        assert run("identify", "--data", tmp_path / "nope.csv",
                   "--out", tmp_path / "a.yaml") == 2

    def test_identify_mode_override(self, tmp_path, dataset):
        art = tmp_path / "run.yaml"
        code = run("identify", "--data", dataset, "--mode", "larx",
                   "--out", art, "--delta", 0.1)
        assert code == 0
        payload = yaml.safe_load(art.read_text())
        assert payload["config"]["model_mode"] == "larx"
        assert len(payload["posterior"]["theta"]["mean"]) == 2

    def test_predict_perfect_model(self, tmp_path, params_file, capsys):
        data = tmp_path / "clean.csv"
        run("simulate", "--params", params_file, "--steps", 300, "--seed", 1,
            "--out", data, "--delta", 0.1, "--noise-free")
        art = make_truth_artifact(tmp_path / "truth.yaml")
        pred = tmp_path / "pred.csv"
        code = run("predict", "--artifact", art, "--data", data,
                   "--delta", 0.1, "--protocol", "onestep", "--out", pred)
        assert code == 0
        mse = float(capsys.readouterr().out.split()[-1])
        assert mse < 1e-20
        rows = pred.read_text().strip().splitlines()
        assert rows[0] == "y_hat,sq_error"
        assert len(rows) == 301

    def test_rollout_at_least_onestep(self, tmp_path, dataset, capsys):
        art = make_truth_artifact(tmp_path / "truth.yaml")
        mse = {}
        for protocol in ("onestep", "rollout"):
            run("predict", "--artifact", art, "--data", dataset,
                "--delta", 0.1, "--protocol", protocol,
                "--out", tmp_path / f"{protocol}.csv")
            mse[protocol] = float(capsys.readouterr().out.split()[-1])
        assert mse["rollout"] >= mse["onestep"]

    def test_predict_delta_mismatch(self, tmp_path, dataset):
        art = make_truth_artifact(tmp_path / "truth.yaml", delta=0.2)
        assert run("predict", "--artifact", art, "--data", dataset,
                   "--delta", 0.1, "--out", tmp_path / "p.csv") == 2

    def test_evaluate_identical_series(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.linspace(-0.1, 0.1, 20)
        save_csv(TimeSeries(np.zeros(20), y, 0.1), data)
        pred = tmp_path / "pred.csv"
        save_csv(TimeSeries(y, np.zeros(20), 0.1), pred,
                 input_column="y_hat", output_column="sq_error")
        assert run("evaluate", "--pred", pred, "--data", data) == 0
        assert capsys.readouterr().out.strip() == "0.000e+00"

    def test_evaluate_constant_offset(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.zeros(50)
        save_csv(TimeSeries(np.zeros(50), y, 0.1), data)
        pred = tmp_path / "pred.csv"
        save_csv(TimeSeries(y + 0.01, np.zeros(50), 0.1), pred,
                 input_column="y_hat", output_column="sq_error")
        run("evaluate", "--pred", pred, "--data", data)
        assert capsys.readouterr().out.strip() == "1.000e-04"

    def test_evaluate_named_input_column(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.zeros(50)
        save_csv(TimeSeries(np.ones(50), y, 0.1), data, input_column="force")
        pred = tmp_path / "pred.csv"
        save_csv(TimeSeries(y + 0.01, np.zeros(50), 0.1), pred,
                 input_column="y_hat", output_column="sq_error")
        assert run("evaluate", "--pred", pred, "--data", data) == 0
        assert capsys.readouterr().out.strip() == "1.000e-04"

    def test_evaluate_prediction_file_with_only_y_hat(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.linspace(0.0, 1.0, 30)
        save_csv(TimeSeries(np.zeros(30), y, 0.1), data)
        pred = tmp_path / "pred.csv"
        # `predict --split-index 20` writes the 20 validation predictions
        rows = "".join(f"{v!r}\n" for v in (y[:20] + 0.02).tolist())
        pred.write_text("y_hat\n" + rows)
        assert run("evaluate", "--pred", pred, "--data", data,
                   "--split-index", 20) == 0
        assert capsys.readouterr().out.strip() == "4.000e-04"

    def test_report(self, tmp_path, capsys):
        art = make_truth_artifact(tmp_path / "truth.yaml")
        assert run("report", "--artifact", art) == 0
        out = capsys.readouterr().out
        for name in ("theta1", "theta2", "theta3", "eta", "gamma", "xi",
                     "m", "c", "a", "b", "tau"):
            assert name in out
