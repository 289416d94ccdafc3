"""Command-line interface: subcommands, file formats and exit codes."""

import gzip
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from duffingid import (PhysicalParams, PriorConfig, identify, phys_to_ar,
                       simulate)
from duffingid import cli
from duffingid.cli import main
from duffingid.dataio import load_columns, load_csv, save_artifact, save_columns
from duffingid.dataio import RunArtifact
from duffingid.beliefs import GammaBelief, GaussianBelief, independent
from duffingid.engine import BeliefSet

SRC = Path(__file__).resolve().parent.parent / "src"
PARAMS = {"m": 1.0, "c": 0.5, "a": 2.0, "b": 3.0, "tau": 10.0, "xi": 1e6}
# an integer beyond the float range: float() and math.isfinite overflow on it
BIG = 10 ** 400


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
        config=PriorConfig(),
        delta=delta,
        beliefs=beliefs,
        metrics={"final_free_energy": 0.0, "steps": 1},
    )
    save_artifact(artifact, path)
    return str(path)


class TestSimulate:
    def test_writes_csv_and_truth_sidecar(self, tmp_path, params_file):
        out = tmp_path / "sim.csv"
        code = run("simulate", "--params", params_file, "--steps", 500,
                   "--seed", 3, "--out", out, "--delta", 0.1)
        assert code == 0
        ts = load_csv(str(out), delta=0.1)
        assert len(ts) == 500
        sidecar = yaml.safe_load((tmp_path / "sim.csv.truth.yaml").read_text())
        coeffs = phys_to_ar(PhysicalParams(**PARAMS), 0.1)
        np.testing.assert_allclose(sidecar["psi"]["theta"], coeffs.theta)
        assert sidecar["psi"]["eta"] == pytest.approx(coeffs.eta)
        assert sidecar["psi"]["gamma"] == pytest.approx(coeffs.gamma)
        (x,) = load_columns(out, ("x",))
        assert len(x) == 500

    @pytest.mark.parametrize("noise_free", [False, True])
    def test_x_column_is_the_latent(self, tmp_path, params_file, noise_free):
        out = tmp_path / "sim.csv"
        flag = ["--noise-free"] if noise_free else []
        assert run("simulate", "--params", params_file, "--steps", 300,
                   "--seed", 3, "--out", out, "--delta", 0.1, *flag) == 0
        assert out.read_text().splitlines()[0] == "u,y,x"
        u, y, x = load_columns(out, ("u", "y", "x"))
        ts, latent = simulate(PhysicalParams(**PARAMS), u, 0.1, seed=3,
                              noise_free=noise_free)
        np.testing.assert_array_equal(y, ts.y)
        np.testing.assert_array_equal(x, latent)
        np.testing.assert_array_equal(np.signbit(x), np.signbit(latent))
        if noise_free:
            np.testing.assert_array_equal(x, y)
        else:
            assert not np.array_equal(x, y)

    def test_sidecar_holds_only_the_coefficients(self, tmp_path, params_file):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--params", params_file, "--steps", 50,
                   "--out", out, "--delta", 0.1) == 0
        coeffs = phys_to_ar(PhysicalParams(**PARAMS), 0.1)
        sidecar = yaml.safe_load((tmp_path / "sim.csv.truth.yaml").read_text())
        assert sidecar == {"psi": {"theta": coeffs.theta.tolist(),
                                   "eta": coeffs.eta, "gamma": coeffs.gamma}}

    def test_input_file_with_its_own_x(self, tmp_path, params_file):
        # an earlier simulation's output drives a new one through its u
        # column alone; the new file's x is the new run's latent
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run("simulate", "--params", params_file, "--steps", 200,
                   "--seed", 1, "--out", first, "--delta", 0.1) == 0
        assert run("simulate", "--params", params_file, "--input", first,
                   "--seed", 2, "--out", second, "--delta", 0.1) == 0
        u, x_first = load_columns(first, ("u", "x"))
        u_second, x = load_columns(second, ("u", "x"))
        _, latent = simulate(PhysicalParams(**PARAMS), u, 0.1, seed=2)
        np.testing.assert_array_equal(u_second, u)
        np.testing.assert_array_equal(x, latent)
        assert not np.array_equal(x, x_first)

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
        save_columns(drive, {"u": np.zeros(50), "y": np.zeros(50)})
        out = tmp_path / "const.csv"
        code = run("simulate", "--params", params, "--input", drive,
                   "--out", out, "--delta", 1.0, "--noise-free")
        assert code == 0
        ts = load_csv(str(out), delta=1.0)
        np.testing.assert_allclose(ts.y, np.ones(50))

    def test_input_file_with_only_u(self, tmp_path, params_file):
        drive = tmp_path / "u.csv"
        save_columns(drive, {"u": 0.1 * np.sin(np.arange(60) * 0.3)})
        out = tmp_path / "sim.csv"
        assert run("simulate", "--params", params_file, "--input", drive,
                   "--out", out, "--delta", 0.1) == 0
        ts = load_csv(str(out), delta=0.1)
        np.testing.assert_array_equal(ts.u, 0.1 * np.sin(np.arange(60) * 0.3))

    def test_steps_cut_an_input_file(self, tmp_path, params_file, capsys):
        drive = tmp_path / "u.csv"
        save_columns(drive, {"u": 0.1 * np.sin(np.arange(50) * 0.3)})
        out = tmp_path / "sim.csv"
        assert run("simulate", "--params", params_file, "--input", drive,
                   "--steps", 5, "--out", out, "--delta", 0.1) == 0
        ts = load_csv(str(out), delta=0.1)
        np.testing.assert_array_equal(ts.u, 0.1 * np.sin(np.arange(5) * 0.3))
        (x,) = load_columns(out, ("x",))
        assert len(x) == 5
        capsys.readouterr()
        # more steps than the file has rows, or fewer than none
        for steps in (51, -1):
            assert run("simulate", "--params", params_file, "--input", drive,
                       "--steps", steps, "--out", tmp_path / "x.csv") == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {drive}: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("steps", [2, 0, -1])
    def test_too_few_steps_exit_2(self, tmp_path, params_file, capsys, steps):
        drive = tmp_path / "u.csv"
        save_columns(drive, {"u": np.zeros(50)})
        out = tmp_path / "x.csv"
        for source in ([], ["--input", drive]):
            assert run("simulate", "--params", params_file, *source,
                       "--steps", steps, "--out", out) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "--steps must be at least 3" in err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [1, 2])
    def test_too_short_input_file_exit_2(self, tmp_path, params_file, capsys,
                                         rows):
        # without --steps every row is simulated, and a file of fewer than
        # 3 rows is a bad input file, as it is for identify
        drive = tmp_path / "u.csv"
        save_columns(drive, {"u": np.zeros(rows)})
        out = tmp_path / "x.csv"
        assert run("simulate", "--params", params_file, "--input", drive,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {drive}: ") and err.count("\n") == 1
        assert "at least 3 input samples" in err
        assert not out.exists()

    def test_exponent_numbers_in_params(self, tmp_path):
        outs = []
        for xi in ("1e6", "1.0e+6"):
            params = tmp_path / f"p{xi}.yaml"
            params.write_text("m: 1.0\nc: 0.5\na: 2.0\nb: 3.0\ntau: 1e1\n"
                              f"xi: {xi}\n")
            outs.append(tmp_path / f"sim{xi}.csv")
            assert run("simulate", "--params", params, "--steps", 100,
                       "--seed", 2, "--out", outs[-1]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unknown_param_key(self, tmp_path):
        params = tmp_path / "p.yaml"
        params.write_text(yaml.safe_dump({**PARAMS, "mass": 2.0}))
        assert run("simulate", "--params", params,
                   "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("text", [
        "5\n", "- 1.0\n- 2.0\n", yaml.safe_dump({**PARAMS, "x0": [0.1]}),
        yaml.safe_dump({**PARAMS, "x0": [1, 2, 3]}),
        # a parameter that is not finite, and an initial state that is not
        *(yaml.safe_dump({**PARAMS, field: value})
          for field, value in (("c", math.nan), ("m", math.inf),
                               ("tau", math.inf), ("xi", math.inf),
                               ("x0", [math.nan, 0]),
                               # YAML booleans, which Python counts as 1 and 0
                               ("m", True), ("x0", [True, False])))])
    def test_malformed_params_exit_2(self, tmp_path, capsys, text):
        params = tmp_path / "p.yaml"
        params.write_text(text)
        out = tmp_path / "x.csv"
        assert run("simulate", "--params", params, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {params}: ")
        assert not out.exists()

    def test_divergence_exit_code(self, tmp_path):
        params = tmp_path / "p.yaml"
        params.write_text(yaml.safe_dump(
            {"m": 1.0, "c": 0.0, "a": -50.0, "b": -50.0, "tau": 1e6,
             "xi": 1e6}))
        assert run("simulate", "--params", params, "--steps", 200,
                   "--delta", 1.0, "--sine-amplitude", 5.0,
                   "--out", tmp_path / "x.csv") == 1


class TestBadOptions:
    @pytest.mark.parametrize("command, option, value", [
        ("simulate", "--delta", "0"),
        ("simulate", "--delta", "1e-300"),  # delta**2 and delta**4 underflow
        ("simulate", "--delta", "nan"),
        ("simulate", "--delta", "inf"),
        ("identify", "--delta", "inf"),
        ("simulate", "--seed", "-1"),
        ("simulate", "--sine-frequency", "inf"),
        ("simulate", "--sine-amplitude", "nan"),
    ])
    def test_bad_option_exit_2(self, tmp_path, params_file, capsys, command,
                               option, value):
        # one error line that names the option: no traceback, and no
        # warning, which is an error here
        data = tmp_path / "data.csv"
        save_columns(data, {"u": np.zeros(50), "y": np.zeros(50)})
        out = tmp_path / "out"
        source = (["--params", params_file] if command == "simulate"
                  else ["--data", data])
        assert run(command, *source, "--out", out, option, value) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and option in captured.err
        assert captured.err.count("\n") == 1 and not captured.out
        assert not out.exists()


class TestUnwritableOut:
    @pytest.mark.parametrize("target", ["missing/out", "folder", ""])
    @pytest.mark.parametrize("command", ["simulate", "identify", "predict"])
    def test_exit_2_before_any_work(self, tmp_path, params_file, capsys,
                                    monkeypatch, command, target):
        # a path in no directory, a directory, or an empty path fails before
        # the command reads its input or runs, with one error line that
        # names the path
        def unreachable(*args, **kwargs):
            raise AssertionError("the command ran before checking --out")

        for module, name in ((cli.dataio, "load_params"),
                             (cli.dataio, "load_csv"),
                             (cli.dataio, "load_artifact"), (cli, "simulate"),
                             (cli.engine, "identify_stream"),
                             (cli.engine, "predict_onestep")):
            monkeypatch.setattr(module, name, unreachable)
        (tmp_path / "folder").mkdir()
        data = tmp_path / "data.csv"
        save_columns(data, {"u": np.zeros(50), "y": np.zeros(50)})
        source = {"simulate": ["--params", params_file],
                  "identify": ["--data", data],
                  "predict": ["--artifact", tmp_path / "run.yaml",
                              "--data", data]}[command]
        out = tmp_path / target if target else ""  # tmp_path / "" is tmp_path
        assert run(command, *source, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out or repr('')}: ")
        assert captured.err.count("\n") == 1 and not captured.out
        assert not (tmp_path / "missing").exists()
        assert not any((tmp_path / "folder").iterdir())


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
        assert payload["schema_version"] == 3
        assert "free_energies" not in payload
        assert payload["metrics"]["steps"] == 399
        assert "physical" not in payload
        assert np.isfinite(payload["metrics"]["final_free_energy"])
        # sweeps per step: never fewer than 2 under the default cap of 5,
        # and the convergence stop ends most steps early
        assert 2.0 <= payload["metrics"]["mean_iterations"] < 5.0

    def test_identify_stores_the_summed_free_energy(self, tmp_path,
                                                    params_file, capsys):
        data, cfgfile = tmp_path / "long.csv", tmp_path / "cfg.yaml"
        run("simulate", "--params", params_file, "--steps", 2100, "--seed", 5,
            "--out", data, "--delta", 0.1)
        config = {"state0_cov": 1e-4, "a0_gamma": 1.0, "b0_gamma": 1e-4}
        cfgfile.write_text(yaml.safe_dump(config))
        art = tmp_path / "run.yaml"
        assert run("identify", "--data", data, "--config", cfgfile,
                   "--out", art, "--delta", 0.1) == 0
        payload = yaml.safe_load(art.read_text())
        _, reports = identify(load_csv(str(data), delta=0.1),
                              PriorConfig(**config))
        total = math.fsum(r.free_energy for r in reports)
        assert payload["metrics"]["free_energy_sum"] == total
        assert payload["metrics"]["final_free_energy"] == reports[-1].free_energy
        capsys.readouterr()
        assert run("report", "--artifact", art) == 0
        assert (f"free energy summed over the run: {total:.6e}\n"
                in capsys.readouterr().out)

    def test_identify_singular_prior_exit_2(self, tmp_path, dataset, capsys):
        cfgfile = tmp_path / "cfg.yaml"
        # a wide prior's determinant underflows, a narrow one's overflows
        for v0, problem in (
                ("1e81", "precision from v0_theta and v0_eta is singular"),
                ("1e-100", "from v0_theta and v0_eta is too narrow: its "
                           "precision's determinant overflows")):
            cfgfile.write_text(f"v0_theta: {v0}\nv0_eta: {v0}\n")
            assert run("identify", "--data", dataset, "--config", cfgfile,
                       "--out", tmp_path / "run.yaml", "--delta", 0.1) == 2
            assert capsys.readouterr().err == (
                f"error: {cfgfile}: the prior {problem} in floating point\n")

    def test_runs_without_scipy(self, tmp_path, dataset):
        # the runtime needs numpy and PyYAML only
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from duffingid.cli import main\n"
            "for argv in (['identify', '--data', 'data.csv', '--delta', '0.1',"
            " '--out', 'run.yaml'],\n"
            "             ['predict', '--artifact', 'run.yaml', '--data',"
            " 'data.csv', '--out', 'pred.csv'],\n"
            "             ['report', '--artifact', 'run.yaml']):\n"
            "    assert main(argv) == 0, argv\n")
        path = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=dataset.parent,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "recovered physical parameters:" in done.stdout

    @pytest.mark.skipif(not yaml.__with_libyaml__,
                        reason="PyYAML built without libyaml")
    def test_runs_without_libyaml(self, tmp_path, params_file):
        # PyYAML's own parser and emitter stand in for libyaml's and read
        # and write the same files byte for byte
        script = (
            "import sys\n"
            "if sys.argv[1] == 'pure':\n"
            "    sys.modules['yaml._yaml'] = None\n"
            "import yaml\n"
            "assert yaml.__with_libyaml__ == (sys.argv[1] == 'libyaml')\n"
            "from duffingid.cli import main\n"
            "for argv in (['simulate', '--params', 'params.yaml', '--steps',"
            " '400', '--seed', '5', '--delta', '0.1', '--out', 'data.csv'],\n"
            "             ['identify', '--data', 'data.csv', '--delta', '0.1',"
            " '--config', 'cfg.yaml', '--out', 'run.yaml'],\n"
            "             ['predict', '--artifact', 'run.yaml', '--data',"
            " 'data.csv', '--out', 'onestep.csv'],\n"
            "             ['predict', '--artifact', 'run.yaml', '--data',"
            " 'data.csv', '--protocol', 'rollout', '--out', 'rollout.csv'],\n"
            "             ['report', '--artifact', 'run.yaml']):\n"
            "    assert main(argv) == 0, argv\n")
        path = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        runs = {}
        for kind in ("libyaml", "pure"):
            work = tmp_path / kind
            work.mkdir()
            (work / "params.yaml").write_text(Path(params_file).read_text())
            (work / "cfg.yaml").write_text("state0_cov: 1e-4\nb0_gamma: 1e-4\n"
                                           "a0_gamma: 1.0\n")
            done = subprocess.run(
                [sys.executable, "-c", script, kind], cwd=work,
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            runs[kind] = done.stdout, {f.name: f.read_bytes()
                                       for f in sorted(work.iterdir())}
        (printed, files), (pure_printed, pure_files) = runs.values()
        assert pure_printed == printed
        assert sorted(files) == sorted(pure_files) == [
            "cfg.yaml", "data.csv", "data.csv.truth.yaml", "onestep.csv",
            "params.yaml", "rollout.csv", "run.yaml"]
        for name, content in files.items():
            assert pure_files[name] == content, name

    def test_identify_reads_a_byte_order_mark(self, tmp_path, dataset):
        # Excel and other Windows tools start a UTF-8 CSV with a byte-order
        # mark; the run is the one on the same file without it
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + dataset.read_bytes())
        for data, art in ((dataset, "plain.yaml"), (marked, "bom.yaml")):
            assert run("identify", "--data", data, "--out", tmp_path / art,
                       "--delta", 0.1) == 0
        assert ((tmp_path / "bom.yaml").read_bytes()
                == (tmp_path / "plain.yaml").read_bytes())

    def test_config_is_read_as_utf8_under_an_ascii_locale(self, tmp_path,
                                                          dataset):
        # a config is UTF-8 whatever the locale: under the C locale with
        # UTF-8 mode off, a comment with a non-ASCII letter reads as it does
        # without the comment, and bytes that are not UTF-8 exit 2 with one
        # error line that names the file
        body = "state0_cov: 1e-4\nb0_gamma: 1e-4\n"
        (tmp_path / "plain.yaml").write_text(body)
        (tmp_path / "greek.yaml").write_bytes(("# prior on γ\n" + body).encode())
        (tmp_path / "latin1.yaml").write_bytes(b"# \xe9\n" + body.encode())
        path = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
               "PYTHONUTF8": "0", "PYTHONPATH": path}
        done = {}
        for name in ("plain", "greek", "latin1"):
            done[name] = subprocess.run(
                [sys.executable, "-m", "duffingid.cli", "identify", "--data",
                 dataset, "--delta", "0.1", "--config", f"{name}.yaml",
                 "--out", f"{name}.run.yaml"], cwd=tmp_path, env=env,
                capture_output=True, text=True, timeout=120)
        assert done["plain"].returncode == done["greek"].returncode == 0, (
            done["greek"].stderr)
        assert done["greek"].stdout == done["plain"].stdout
        assert ((tmp_path / "greek.run.yaml").read_bytes()
                == (tmp_path / "plain.run.yaml").read_bytes())
        assert done["latin1"].returncode == 2
        assert done["latin1"].stderr.startswith("error: latin1.yaml: ")
        assert done["latin1"].stderr.count("\n") == 1

    def test_identify_missing_file(self, tmp_path):
        assert run("identify", "--data", tmp_path / "nope.csv",
                   "--out", tmp_path / "a.yaml") == 2

    def test_exponent_numbers_in_config(self, tmp_path, dataset):
        payloads = []
        for a0_xi, m0_eta in (("1e8", "1e-2"), ("1.0e+8", "1.0e-2")):
            cfgfile = tmp_path / f"cfg{a0_xi}.yaml"
            cfgfile.write_text(f"a0_xi: {a0_xi}\nm0_eta: {m0_eta}\n")
            art = tmp_path / f"run{a0_xi}.yaml"
            assert run("identify", "--data", dataset, "--config", cfgfile,
                       "--out", art, "--delta", 0.1) == 0
            payloads.append(yaml.safe_load(art.read_text()))
        assert payloads[0] == payloads[1]
        assert payloads[0]["config"]["m0_eta"] == 0.01

    def test_identify_mode_override(self, tmp_path, dataset):
        art = tmp_path / "run.yaml"
        code = run("identify", "--data", dataset, "--mode", "larx",
                   "--out", art, "--delta", 0.1)
        assert code == 0
        payload = yaml.safe_load(art.read_text())
        assert payload["config"]["model_mode"] == "larx"
        assert len(payload["posterior"]["theta"]["mean"]) == 2

    def test_mode_is_set_before_the_config_is_checked(self, tmp_path, dataset,
                                                      capsys):
        # a 2-entry m0_theta fits only LARX, which --mode sets
        cfgfile, art = tmp_path / "cfg.yaml", tmp_path / "run.yaml"
        cfgfile.write_text("m0_theta: [1.5, -0.5]\n")
        assert run("identify", "--data", dataset, "--config", cfgfile,
                   "--mode", "larx", "--out", art, "--delta", 0.1) == 0
        payload = yaml.safe_load(art.read_text())
        assert payload["config"]["model_mode"] == "larx"
        assert payload["config"]["m0_theta"] == [1.5, -0.5]
        assert len(payload["posterior"]["theta"]["mean"]) == 2
        capsys.readouterr()
        # ... and a document that is not a mapping is still refused
        for text in ("[]\n", "0\n"):
            cfgfile.write_text(text)
            assert run("identify", "--data", dataset, "--config", cfgfile,
                       "--mode", "larx", "--out", art, "--delta", 0.1) == 2
            assert capsys.readouterr().err == (
                f"error: {cfgfile}: config must be a mapping\n")

    def test_predict_perfect_model(self, tmp_path, params_file, capsys):
        data = tmp_path / "clean.csv"
        run("simulate", "--params", params_file, "--steps", 300, "--seed", 1,
            "--out", data, "--delta", 0.1, "--noise-free")
        art = make_truth_artifact(tmp_path / "truth.yaml")
        pred = tmp_path / "pred.csv"
        code = run("predict", "--artifact", art, "--data", data,
                   "--protocol", "onestep", "--out", pred)
        assert code == 0
        mse = float(capsys.readouterr().out.split()[-1])
        assert mse < 1e-20
        rows = pred.read_text().strip().splitlines()
        assert rows[0] == "y_hat,sq_error"
        assert len(rows) == 301

    def test_predict_overflow_is_named(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.zeros(30)
        y[1] = 1e200  # its float cube overflows in the rollout
        save_columns(data, {"u": np.zeros(30), "y": y})
        art = make_truth_artifact(tmp_path / "truth.yaml")
        assert run("predict", "--artifact", art, "--data", data,
                   "--protocol", "rollout", "--out", tmp_path / "p.csv") == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: unstable simulation at step 2"

    def test_predict_onestep_overflow_is_named(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.zeros(30)
        y[1] = 1e200  # its float cube overflows in the prediction of y[2]
        save_columns(data, {"u": np.zeros(30), "y": y})
        art = make_truth_artifact(tmp_path / "truth.yaml")
        out = tmp_path / "p.csv"
        assert run("predict", "--artifact", art, "--data", data,
                   "--protocol", "onestep", "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: unstable simulation at step 2"
        assert captured.out == "" and not out.exists()

    def test_predict_overflowing_square_is_inf(self, tmp_path, dataset,
                                               capsys):
        # a LARX prediction has no cube to overflow, but its miss of
        # outputs of +-2e154 squares beyond float range
        art, data, out = (tmp_path / "larx.yaml", tmp_path / "big.csv",
                          tmp_path / "p.csv")
        assert run("identify", "--data", dataset, "--delta", 0.1,
                   "--mode", "larx", "--out", art) == 0
        save_columns(data, {"u": np.zeros(30),
                            "y": 2e154 * (-1.0) ** np.arange(30)})
        capsys.readouterr()
        assert run("predict", "--artifact", art, "--data", data,
                   "--out", out) == 0
        assert capsys.readouterr() == ("onestep mse inf\n", "")
        assert any(row.endswith(",inf")
                   for row in out.read_text().splitlines())

    def test_rollout_at_least_onestep(self, tmp_path, dataset, capsys):
        art = make_truth_artifact(tmp_path / "truth.yaml")
        mse = {}
        for protocol in ("onestep", "rollout"):
            run("predict", "--artifact", art, "--data", dataset,
                "--protocol", protocol,
                "--out", tmp_path / f"{protocol}.csv")
            mse[protocol] = float(capsys.readouterr().out.split()[-1])
        assert mse["rollout"] >= mse["onestep"]

    def test_predict_takes_the_artifact_period(self, tmp_path, dataset):
        art = make_truth_artifact(tmp_path / "truth.yaml", delta=0.2)
        assert run("predict", "--artifact", art, "--data", dataset,
                   "--out", tmp_path / "p.csv") == 0

    def test_evaluate_against_the_latent(self, tmp_path, dataset, capsys):
        art = make_truth_artifact(tmp_path / "truth.yaml")
        pred = tmp_path / "pred.csv"
        assert run("predict", "--artifact", art, "--data", dataset,
                   "--out", pred) == 0
        capsys.readouterr()
        assert run("evaluate", "--pred", pred, "--data", dataset,
                   "--output-column", "x") == 0
        (y_hat,) = load_columns(pred, ("y_hat",))
        y, x = load_columns(dataset, ("y", "x"))
        want = f"{np.mean((y_hat - x) ** 2):.3e}\n"
        assert want != f"{np.mean((y_hat - y) ** 2):.3e}\n"
        assert capsys.readouterr() == (want, "")

    def test_evaluate_identical_series(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.linspace(-0.1, 0.1, 20)
        save_columns(data, {"u": np.zeros(20), "y": y})
        pred = tmp_path / "pred.csv"
        save_columns(pred, {"y_hat": y, "sq_error": np.zeros(20)})
        assert run("evaluate", "--pred", pred, "--data", data) == 0
        assert capsys.readouterr().out.strip() == "0.000e+00"

    def test_evaluate_constant_offset(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.zeros(50)
        save_columns(data, {"u": np.zeros(50), "y": y})
        pred = tmp_path / "pred.csv"
        save_columns(pred, {"y_hat": y + 0.01, "sq_error": np.zeros(50)})
        run("evaluate", "--pred", pred, "--data", data)
        assert capsys.readouterr().out.strip() == "1.000e-04"

    def test_evaluate_named_input_column(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.zeros(50)
        save_columns(data, {"force": np.ones(50), "y": y})
        pred = tmp_path / "pred.csv"
        save_columns(pred, {"y_hat": y + 0.01, "sq_error": np.zeros(50)})
        assert run("evaluate", "--pred", pred, "--data", data) == 0
        assert capsys.readouterr().out.strip() == "1.000e-04"

    def test_evaluate_prediction_file_with_only_y_hat(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        y = np.linspace(0.0, 1.0, 30)
        save_columns(data, {"u": np.zeros(30), "y": y})
        pred = tmp_path / "pred.csv"
        # `predict --split-index 20` writes the 20 validation predictions
        rows = "".join(f"{v!r}\n" for v in (y[:20] + 0.02).tolist())
        pred.write_text("y_hat\n" + rows)
        assert run("evaluate", "--pred", pred, "--data", data,
                   "--split-index", 20) == 0
        assert capsys.readouterr().out.strip() == "4.000e-04"

    def test_evaluate_overflowing_square_is_inf(self, tmp_path, capsys):
        data, pred = tmp_path / "d.csv", tmp_path / "pred.csv"
        save_columns(data, {"u": np.zeros(20), "y": np.zeros(20)})
        save_columns(pred, {"y_hat": np.full(20, 1e200)})
        assert run("evaluate", "--pred", pred, "--data", data) == 0
        assert capsys.readouterr() == ("inf\n", "")

    def test_evaluate_length_mismatch_exit_2(self, tmp_path, capsys):
        # a prediction of the validation head scored without --split-index
        data = tmp_path / "d.csv"
        save_columns(data, {"u": np.zeros(30), "y": np.zeros(30)})
        pred = tmp_path / "pred.csv"
        save_columns(pred, {"y_hat": np.zeros(20)})
        assert run("evaluate", "--pred", pred, "--data", data) == 2
        assert capsys.readouterr().err == (
            f"error: {pred}: 20 predictions for 30 samples of {data}\n")
        assert run("evaluate", "--pred", pred, "--data", data,
                   "--split-index", 21) == 2
        assert capsys.readouterr().err == (
            f"error: {pred}: 20 predictions for 21 samples of {data}\n")

    @pytest.mark.parametrize("command", ["report", "predict"])
    def test_invalid_stored_config_fails_at_load(self, tmp_path, dataset,
                                                 capsys, command):
        art = tmp_path / "truth.yaml"
        make_truth_artifact(art)
        art.write_text(art.read_text().replace("state0_cov:", "state0_covv:"))
        argv = ["--artifact", art]
        if command == "predict":
            argv += ["--data", dataset, "--out", tmp_path / "p"]
        assert run(command, *argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {art}: unknown keys ['state0_covv']")

    @pytest.mark.parametrize("version", [1, 99])
    @pytest.mark.parametrize("command", ["report", "predict"])
    def test_other_schema_version_exit_2(self, tmp_path, dataset, capsys,
                                         command, version):
        art = tmp_path / "truth.yaml"
        make_truth_artifact(art)
        art.write_text(art.read_text().replace(
            "schema_version: 3\n", f"schema_version: {version}\n"))
        argv = ["--artifact", art]
        if command == "predict":
            argv += ["--data", dataset, "--out", tmp_path / "p"]
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == (
            f"error: {art}: schema version mismatch (got {version}, "
            "expected 3 or 2)\n")

    def test_version_2_artifact_gives_the_same_output(self, tmp_path,
                                                      dataset, capsys):
        # a version-2 artifact also held a free-energy trace, which is
        # ignored
        v3, v2 = tmp_path / "v3.yaml", tmp_path / "v2.yaml"
        assert run("identify", "--data", dataset, "--delta", 0.1,
                   "--out", v3) == 0
        v2.write_text(v3.read_text().replace(
            "schema_version: 3\n",
            "free_energies:\n- -1.5\n- 2.0\nschema_version: 2\n"))
        outputs = []
        for art in (v2, v3):
            capsys.readouterr()
            assert run("report", "--artifact", art) == 0
            files = []
            for protocol in ("onestep", "rollout"):
                out = tmp_path / f"{art.stem}-{protocol}.csv"
                assert run("predict", "--artifact", art, "--data", dataset,
                           "--protocol", protocol, "--out", out) == 0
                files.append(out.read_bytes())
            outputs.append((capsys.readouterr(), files))
        assert outputs[0] == outputs[1]

    def test_report(self, tmp_path, capsys):
        art = make_truth_artifact(tmp_path / "truth.yaml")
        assert run("report", "--artifact", art) == 0
        out = capsys.readouterr().out
        for name in ("theta1", "theta2", "theta3", "eta", "gamma", "xi",
                     "m", "c", "a", "b", "tau"):
            assert name in out

    def test_report_derives_the_physical_parameters(self, tmp_path, capsys):
        # an older artifact's stored `physical` block is ignored
        art = tmp_path / "truth.yaml"
        make_truth_artifact(art)
        payload = yaml.safe_load(art.read_text())
        payload["physical"] = {k: 0.0 for k in ("m", "c", "a", "b", "tau")}
        art.write_text(yaml.safe_dump(payload))
        assert run("report", "--artifact", art) == 0
        out = capsys.readouterr().out
        _, physical = out.split("recovered physical parameters:\n")
        printed = dict(line.split() for line in physical.splitlines())
        assert printed.keys() == {"m", "c", "a", "b", "tau"}
        for name, value in printed.items():
            assert float(value) == pytest.approx(PARAMS[name], rel=1e-6)

    def test_report_of_a_larx_artifact(self, tmp_path, capsys):
        # LARX stores (theta1, theta3); its theta2 is +0.0, and so is b
        art = tmp_path / "larx.yaml"
        make_truth_artifact(art)
        payload = yaml.safe_load(art.read_text())
        payload["config"]["model_mode"] = "larx"
        theta = payload["posterior"]["theta"]
        theta["mean"] = theta["mean"][::2]
        theta["precision"] = (np.eye(2) * 1e6).tolist()
        art.write_text(yaml.safe_dump(payload))
        assert run("report", "--artifact", art) == 0
        coefficients, physical = capsys.readouterr().out.split(
            "recovered physical parameters:\n")
        names = [line.split()[0] for line in coefficients.splitlines()[1:]]
        assert names == ["theta1", "theta3", "eta", "gamma", "xi"]
        assert "  b        0.000000e+00\n" in physical

    def test_unphysical_posterior_is_kept(self, tmp_path, params_file, capsys):
        # the README walkthrough's data under the default priors ends with
        # theta3 > 0, which maps to no positive mass
        data, art = tmp_path / "data.csv", tmp_path / "run.yaml"
        assert run("simulate", "--params", params_file, "--steps", 2000,
                   "--seed", 42, "--delta", 0.1, "--out", data) == 0
        assert run("identify", "--data", data, "--delta", 0.1,
                   "--out", art) == 0
        assert art.exists()
        capsys.readouterr()
        assert run("report", "--artifact", art) == 0
        out = capsys.readouterr().out
        assert out.endswith("recovered physical parameters:\n"
                            "  none: mass must be positive\n")

    # q(z)'s stored precision is diagonal, so its corner gets an entry
    @pytest.mark.parametrize("key, corner", [("theta", lambda p: 0.9 * p),
                                             ("state", lambda p: p + 1.0)])
    def test_asymmetric_stored_precision_exit_2(self, tmp_path, dataset,
                                                capsys, key, corner):
        # a belief averages its precision with the transpose, so one
        # changed entry would pass as a different posterior
        art = tmp_path / "run.yaml"
        assert run("identify", "--data", dataset, "--delta", 0.1,
                   "--out", art) == 0
        payload = yaml.safe_load(art.read_text())
        precision = payload["posterior"][key]["precision"]
        assert precision == np.transpose(precision).tolist()
        precision[0][-1] = corner(precision[0][-1])
        art.write_text(yaml.safe_dump(payload))
        capsys.readouterr()
        assert run("report", "--artifact", art) == 2
        assert capsys.readouterr().err == (
            f"error: {art}: posterior.{key}.precision must be symmetric\n")

    def test_report_skips_a_summed_free_energy_beyond_float_range(
            self, tmp_path, capsys):
        art = tmp_path / "truth.yaml"
        make_truth_artifact(art)
        payload = yaml.safe_load(art.read_text())
        payload["metrics"]["free_energy_sum"] = BIG
        art.write_text(yaml.safe_dump(payload))
        assert run("report", "--artifact", art) == 0
        out = capsys.readouterr().out
        assert "recovered physical parameters:" in out
        assert "free energy summed" not in out

    def test_report_after_an_overflowing_sample_period(self, tmp_path,
                                                       params_file, capsys):
        # identify accepts --delta 1e200; its square overflows in report
        data, art = tmp_path / "data.csv", tmp_path / "run.yaml"
        assert run("simulate", "--params", params_file, "--steps", 100,
                   "--delta", 0.1, "--out", data) == 0
        assert run("identify", "--data", data, "--delta", 1e200,
                   "--out", art) == 0
        capsys.readouterr()
        assert run("report", "--artifact", art) == 0
        assert capsys.readouterr().out.endswith(
            "recovered physical parameters:\n"
            "  none: the parameters overflow at delta=1e+200\n")

    @pytest.mark.parametrize("command", ["identify", "predict", "evaluate"])
    def test_negative_split_index(self, tmp_path, dataset, capsys, command):
        argv = [command, "--data", dataset, "--split-index", -5]
        if command == "identify":
            argv += ["--out", tmp_path / "run.yaml"]
        elif command == "predict":
            argv += ["--artifact", make_truth_artifact(tmp_path / "t.yaml"),
                     "--out", tmp_path / "p.csv"]
        else:
            pred = tmp_path / "p.csv"
            save_columns(pred, {"y_hat": np.zeros(400)})
            argv += ["--pred", pred]
        assert run(*argv) == 2
        assert "split index -5 out of range" in capsys.readouterr().err


class TestReadWindow:
    """With --split-index S, predict and evaluate parse the data file's
    first S + 3 rows: the validation head and the three rows that show the
    split leaves a training segment. simulate --input parses --steps rows."""

    SPLIT = 100

    @pytest.fixture
    def files(self, tmp_path, params_file, capsys):
        data = tmp_path / "data.csv"
        run("simulate", "--params", params_file, "--steps", 400, "--seed", 5,
            "--out", data, "--delta", 0.1)
        capsys.readouterr()
        pred = tmp_path / "pred.csv"
        save_columns(pred, {"y_hat": np.linspace(-0.01, 0.01, self.SPLIT)})
        return data, make_truth_artifact(tmp_path / "truth.yaml"), pred

    @staticmethod
    def spoil(data, row, value, path):
        """A copy of the data file with every field of a row set to value."""
        lines = data.read_text().splitlines(keepends=True)
        lines[row] = ",".join([value] * 3) + "\r\n"
        path.write_text("".join(lines))
        return path

    def session(self, tmp_path, capsys, data, art, pred, split=SPLIT):
        """Exit code, stdout, stderr and written bytes of predict with both
        protocols, then evaluate of a prediction of the validation head."""
        results = []
        for protocol in ("onestep", "rollout"):
            out = tmp_path / f"{protocol}.csv"
            out.unlink(missing_ok=True)
            code = run("predict", "--artifact", art, "--data", data,
                       "--protocol", protocol, "--out", out,
                       "--split-index", split)
            results.append((code, *capsys.readouterr(),
                            out.read_bytes() if out.exists() else None))
        code = run("evaluate", "--pred", pred, "--data", data,
                   "--split-index", split)
        return results + [(code, *capsys.readouterr())]

    @pytest.mark.parametrize("value", ["nan", "inf", "x", ""])
    @pytest.mark.parametrize("row", [SPLIT + 4, 400])
    def test_bad_row_after_the_window_is_not_read(self, tmp_path, capsys,
                                                  files, value, row):
        data, art, pred = files
        clean = self.session(tmp_path, capsys, data, art, pred)
        assert [result[0] for result in clean] == [0, 0, 0]
        bad = self.spoil(data, row, value, tmp_path / "bad.csv")
        assert self.session(tmp_path, capsys, bad, art, pred) == clean

    @pytest.mark.parametrize("value, error", [("nan", "non-finite"),
                                              ("x", "unparseable")])
    @pytest.mark.parametrize("row", [1, SPLIT, SPLIT + 3])
    def test_bad_row_inside_the_window_is_named(self, tmp_path, capsys, files,
                                                value, error, row):
        data, art, pred = files
        bad = self.spoil(data, row, value, tmp_path / "bad.csv")
        want = f"error: {bad}: {error} value in row {row}\n"
        for code, out, err, *_ in self.session(tmp_path, capsys, bad, art, pred):
            assert (code, out, err) == (2, "", want)

    @pytest.mark.parametrize("rows, split", [(SPLIT + 2, SPLIT),
                                             (400, 398), (400, 10 ** 30)])
    def test_file_too_short_for_its_split(self, tmp_path, capsys, files,
                                          rows, split):
        data, art, pred = files
        lines = data.read_text().splitlines(keepends=True)
        short = tmp_path / "short.csv"
        short.write_text("".join(lines[:rows + 1]))
        want = (f"error: split index {split} out of range for {rows} samples "
                "(both segments need at least 3)\n")
        for code, out, err, *_ in self.session(tmp_path, capsys, short, art,
                                               pred, split):
            assert (code, out, err) == (2, "", want)

    @pytest.mark.parametrize("steps", [3, 40])
    def test_simulate_steps_of_an_input_file(self, tmp_path, params_file,
                                             capsys, steps):
        # the first N rows drive the same samples as a file of only those,
        # and a bad row after them is not read
        u = 0.1 * np.sin(np.arange(50) * 0.3)
        drive, head = tmp_path / "u.csv", tmp_path / "head.csv"
        save_columns(drive, {"u": u})
        save_columns(head, {"u": u[:steps]})
        outputs = []
        for source, cut in ((head, []), (drive, ["--steps", steps])):
            out = tmp_path / f"{source.stem}.out.csv"
            code = run("simulate", "--params", params_file, "--input", source,
                       *cut, "--out", out, "--seed", 3)
            captured = capsys.readouterr()
            outputs.append((code, captured.out.replace(str(out), "OUT"),
                            out.read_bytes(),
                            Path(f"{out}.truth.yaml").read_bytes()))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        bad = self.spoil(drive, steps + 1, "nan", tmp_path / "bad.csv")
        out = tmp_path / "bad.out.csv"
        assert run("simulate", "--params", params_file, "--input", bad,
                   "--steps", steps, "--out", out, "--seed", 3) == 0
        assert out.read_bytes() == outputs[0][2]

    @pytest.mark.parametrize("steps", [51, 10 ** 30])
    def test_simulate_steps_beyond_an_input_file(self, tmp_path, params_file,
                                                 capsys, steps):
        drive, out = tmp_path / "u.csv", tmp_path / "out.csv"
        save_columns(drive, {"u": np.zeros(50)})
        assert run("simulate", "--params", params_file, "--input", drive,
                   "--steps", steps, "--out", out) == 2
        assert capsys.readouterr() == (
            "", f"error: {drive}: --steps {steps} beyond its 50 rows\n")
        assert not out.exists()


class TestNotARegularFile:
    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    @pytest.mark.parametrize("command, option", [
        ("simulate", "--input"), ("identify", "--data"), ("predict", "--data"),
        ("evaluate", "--data"), ("evaluate", "--pred")])
    def test_exit_2_before_any_read(self, tmp_path, params_file, capsys,
                                    command, option, kind):
        # a FIFO is refused before it is opened, so this cannot block
        special = tmp_path / "special"
        if kind == "directory":
            special.mkdir()
        else:
            os.mkfifo(special)
        data, pred = tmp_path / "data.csv", tmp_path / "pred.csv"
        save_columns(data, {"u": np.zeros(50), "y": np.zeros(50)})
        save_columns(pred, {"y_hat": np.zeros(50)})
        argv = {"simulate": ["--params", params_file, "--input", data],
                "identify": ["--data", data],
                "predict": ["--artifact",
                            make_truth_artifact(tmp_path / "t.yaml"),
                            "--data", data],
                "evaluate": ["--pred", pred, "--data", data]}[command]
        argv[argv.index(option) + 1] = special
        if command != "evaluate":
            argv += ["--out", tmp_path / "out"]
        if command != "simulate":  # a split limits the rows read
            argv += ["--split-index", 10]
        assert run(command, *argv) == 2
        assert capsys.readouterr() == (
            "", f"error: {special}: not a regular file\n")
        assert not (tmp_path / "out").exists()


class TestNotUtf8:
    def test_identify_latin1_data_exit_2(self, tmp_path, capsys):
        data = tmp_path / "latin.csv"
        data.write_bytes(b"u,y\n" + b"0.1,0.2\n" * 50 + b"0.3,0.4 \xe9\n")
        assert run("identify", "--data", data, "--out", tmp_path / "a.yaml") == 2
        assert capsys.readouterr() == (
            "", f"error: {data}: not UTF-8 text (invalid continuation byte)\n")
        assert not (tmp_path / "a.yaml").exists()

    def test_evaluate_gzip_prediction_file_exit_2(self, tmp_path, capsys):
        pred, data = tmp_path / "pred.csv.gz", tmp_path / "data.csv"
        with gzip.open(pred, "wt") as handle:
            handle.write("y_hat\n" + "0.0\n" * 50)
        save_columns(data, {"u": np.zeros(50), "y": np.zeros(50)})
        assert run("evaluate", "--pred", pred, "--data", data) == 2
        assert capsys.readouterr() == (
            "", f"error: {pred}: not UTF-8 text (invalid start byte)\n")


class TestMalformedFiles:
    @pytest.mark.parametrize("keys, value", [
        *(((key,), "DROP") for key in ("config", "delta", "posterior")),
        (("posterior", "xi"), "DROP"), (("metrics",), "DROP"),
        (("posterior", "state"), "DROP"), (("posterior", "gamma", "rate"), "DROP"),
        (("posterior", "theta", "mean"), "DROP"), (("delta",), "fast"),
        (("delta",), [0.1]), (("posterior", "gamma"), 5), (("metrics",), [1, 2]),
        (("posterior",), [1.0]), (("posterior", "xi"), "wide"),
        (("posterior", "eta", "mean"), ["a", "b"]), (("config",), None),
        (("delta",), -0.1), (("delta",), 0), (("delta",), float("nan")),
        (("posterior", "gamma", "shape"), -1.0),
        # precisions that are not positive definite
        (("posterior", "eta", "precision"), [[0.0]]),
        (("posterior", "eta", "precision"), [[-1.0]]),
        (("posterior", "theta", "precision"), np.diag([1.0, -1.0, 1.0]).tolist()),
        (("posterior", "state", "precision"), [[1.0, 0.0], [0.0, 0.0]]),
        # a mean that is not finite
        (("posterior", "theta", "mean"), [float("nan"), 0.0, 0.0]),
        # precisions that are not symmetric
        (("posterior", "theta", "precision"),
         [[1e6, 0.0, 1.0], [0.0, 1e6, 0.0], [0.0, 0.0, 1e6]]),
        (("posterior", "state", "precision"), [[1.0, 0.5], [0.0, 1.0]]),
        # integers beyond the float range
        *(pytest.param(keys, value, id=".".join(keys) + "-big")
          for keys, value in ((("delta",), BIG),
                              (("posterior", "gamma", "rate"), BIG),
                              (("posterior", "theta", "mean"), [BIG, 0.0, 0.0]),
                              (("posterior", "state", "precision"),
                               [[BIG, 0.0], [0.0, 1.0]])))])
    @pytest.mark.parametrize("command", ["report", "predict"])
    def test_malformed_artifact_exit_2(self, tmp_path, capsys, command, keys,
                                       value):
        art = tmp_path / "run.yaml"
        make_truth_artifact(art)
        payload = yaml.safe_load(art.read_text())
        *parents, last = keys
        node = payload
        for key in parents:
            node = node[key]
        if value == "DROP":
            del node[last]
        else:
            node[last] = value
        art.write_text(yaml.safe_dump(payload))
        argv = [command, "--artifact", art]
        if command == "predict":
            data = tmp_path / "d.csv"
            save_columns(data, {"u": np.zeros(10), "y": np.zeros(10)})
            argv += ["--data", data, "--out", tmp_path / "p.csv"]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {art}: ") and err.count("\n") == 1
        # the message names the dotted key at fault
        assert ".".join(keys) in err

    @pytest.mark.parametrize("command", ["identify", "simulate", "report"])
    def test_unknown_keys_of_mixed_types_exit_2(self, tmp_path, params_file,
                                                capsys, command):
        # YAML keys may be ints, listed beside str keys in order of their text
        bad = tmp_path / "bad.yaml"
        keys = "[1, 'foo']"
        if command == "identify":
            data = tmp_path / "d.csv"
            save_columns(data, {"u": np.zeros(10), "y": np.zeros(10)})
            bad.write_text("1: 2\nfoo: 3\n")
            argv = ["--data", data, "--config", bad, "--out", tmp_path / "r"]
        elif command == "simulate":
            bad.write_text(Path(params_file).read_text() + "2: 3\nzz: 1\n")
            argv = ["--params", bad, "--out", tmp_path / "x.csv"]
            keys = "[2, 'zz']"
        else:
            text = Path(make_truth_artifact(tmp_path / "t.yaml")).read_text()
            bad.write_text(text.replace("config:\n", "config:\n  1: 2\n  foo: 3\n"))
            argv = ["--artifact", bad]
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: unknown keys {keys}\n"

    @pytest.mark.parametrize("command, text", [
        ("simulate", b"m: 1.0\nc: [0.5\n"), ("identify", b"a0_gamma: [1, 2\n"),
        ("identify", b"\xff\xfe a0_gamma: 1\n"), ("report", None),
        # valid YAML that PriorConfig rejects: a narrow prior whose
        # determinant overflows, and a sweep cap `range` cannot take
        ("identify", b"v0_theta: 1e-100\nv0_eta: 1e-100\n"),
        ("identify", b"iterations_per_step: 2.5\n"),
        # an infinite variance or Gamma parameter, a prior mean of the wrong
        # length, of strings or not finite, and a flag that is not a bool
        ("identify", b"b0_xi: .inf\n"), ("identify", b"a0_gamma: .inf\n"),
        ("identify", b"m0_theta: [1.0, 2.0]\n"),
        ("identify", b"m0_theta: [a, b, c]\n"), ("identify", b"m0_eta: .nan\n"),
        ("identify", b"state0_mean: [0.0, 0.0, 0.0]\n"),
        ("identify", b'trace_free_energy: "no"\n'),
        ("identify", b"m0_eta: [1, 2]\n"), ("identify", b"state0_mean: [a, 0]\n"),
        ("identify", b"v0_theta: abc\n"),
        # YAML booleans, which Python counts as 1 and 0
        ("identify", b"v0_theta: true\n"), ("identify", b"m0_eta: false\n"),
        # Gamma priors at the edges of the float range: a mean that rounds
        # to 0, and a shape whose lgamma overflows
        ("identify", b"a0_gamma: 5.0e-324\n"),
        ("identify", b"a0_gamma: 1.0e+308\n"),
        ("identify", b"a0_xi: 5.0e-324\n"), ("identify", b"a0_xi: 1.0e+308\n"),
        # Gamma priors whose means overflow q(z)'s precision determinant,
        # (E[gamma] + E[xi]) / EPSILON
        ("identify", b"a0_xi: 2.556348e+305\n"),
        ("identify", b"a0_gamma: 2.5e+305\n")])
    def test_yaml_syntax_error_exit_2(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.yaml"
        if command == "report":
            # an artifact cut off in the middle of a write
            full = Path(make_truth_artifact(tmp_path / "t.yaml")).read_text()
            text = (full[:full.index("precision:")]
                    + "precision: [[1000000.0, 0.0").encode()
        bad.write_bytes(text)
        data = tmp_path / "d.csv"
        save_columns(data, {"u": np.zeros(10), "y": np.zeros(10)})
        argv = {"simulate": ["--params", bad, "--out", tmp_path / "x.csv"],
                "identify": ["--data", data, "--config", bad,
                             "--out", tmp_path / "run.yaml"],
                "report": ["--artifact", bad]}[command]
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, field, value", [
        ("identify", "v0_theta", BIG), ("identify", "m0_theta", [1.0, BIG, 1.0]),
        ("identify", "state0_mean", [0.0, -BIG]), ("identify", "m0_eta", BIG),
        ("simulate", "m", BIG), ("simulate", "x0", [BIG, 0.0])],
        ids=lambda value: "big" if value is BIG else None)
    def test_integer_beyond_float_range_exit_2(self, tmp_path, capsys,
                                               command, field, value):
        bad = tmp_path / "bad.yaml"
        if command == "simulate":
            bad.write_text(yaml.safe_dump({**PARAMS, field: value}))
            argv = ["--params", bad, "--out", tmp_path / "x.csv"]
        else:
            bad.write_text(yaml.safe_dump({field: value}))
            data = tmp_path / "d.csv"
            save_columns(data, {"u": np.zeros(10), "y": np.zeros(10)})
            argv = ["--data", data, "--config", bad,
                    "--out", tmp_path / "run.yaml"]
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {field} ") and err.count("\n") == 1
