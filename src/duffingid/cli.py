"""Command-line front end: simulate, identify, predict, evaluate, report.

Exit codes: 0 success, 1 inference/simulation error, 2 I/O or config error.
Results go to stdout, structured errors to stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np
import yaml

from . import dataio, engine
from .beliefs import ImproperBeliefError, gaussian_moments
from .dataio import ConfigError, DatasetError, DatasetSpec, SILVERBOX_DELTA
from .duffing import (
    PhysicalParams,
    TimeSeries,
    UnstableSimulationError,
    ar_to_phys,
    phys_to_ar,
    simulate,
)
from .engine import InferenceError, PriorConfig


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ConfigError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InferenceError, UnstableSimulationError, ImproperBeliefError,
            RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duffingid",
        description="Online Bayesian identification of a Duffing oscillator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--params", required=True,
                   help="YAML file with m, c, a, b, tau, xi (optional x0)")
    p.add_argument("--input", default="sine",
                   help="'sine' or path to a CSV whose input column drives the system")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=SILVERBOX_DELTA)
    p.add_argument("--sine-amplitude", type=float, default=0.1)
    p.add_argument("--sine-frequency", type=float, default=0.7,
                   help="sine frequency in Hz")
    p.add_argument("--noise-free", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("identify", help="run online inference on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="YAML PriorConfig overrides")
    p.add_argument("--mode", choices=["nlarx", "larx"], default=None)
    p.add_argument("--out", required=True, help="artifact output path")
    p.add_argument("--delta", type=float, default=SILVERBOX_DELTA)
    p.add_argument("--split-index", type=int, default=0,
                   help="if > 0, train on samples [split:], as in the benchmark")
    p.add_argument("--input-column", default="u")
    p.add_argument("--output-column", default="y")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("predict", help="frozen-parameter prediction")
    p.add_argument("--artifact", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", choices=["onestep", "rollout"], default="onestep")
    p.add_argument("--out", required=True)
    p.add_argument("--delta", type=float, default=SILVERBOX_DELTA)
    p.add_argument("--split-index", type=int, default=0,
                   help="if > 0, predict on the validation samples [:split]")
    p.add_argument("--input-column", default="u")
    p.add_argument("--output-column", default="y")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="mean squared error of a prediction file")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split-index", type=int, default=0)
    p.add_argument("--output-column", default="y")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="posterior summary of an artifact")
    p.add_argument("--artifact", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def cmd_simulate(args) -> int:
    with open(args.params) as handle:
        raw = yaml.safe_load(handle) or {}
    known = {"m", "c", "a", "b", "tau", "xi", "x0"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{args.params}: unknown keys {unknown}")
    x0 = tuple(raw.pop("x0", (0.0, 0.0)))
    try:
        params = PhysicalParams(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{args.params}: {exc}") from exc

    if args.input == "sine":
        t = np.arange(args.steps)
        u = args.sine_amplitude * np.sin(
            2.0 * math.pi * args.sine_frequency * t * args.delta)
    else:
        spec = DatasetSpec(path=args.input, delta=args.delta)
        u = dataio.load_csv(spec).u

    ts, latent = simulate(params, u, args.delta, seed=args.seed, x0=x0,
                          noise_free=args.noise_free)
    dataio.save_csv(ts, args.out)

    coeffs = phys_to_ar(params, args.delta)
    sidecar = {
        "psi": {
            "theta": coeffs.theta.tolist(),
            "eta": coeffs.eta,
            "gamma": coeffs.gamma,
        },
        "latent_x": latent.tolist(),
    }
    with open(str(args.out) + ".truth.yaml", "w") as handle:
        yaml.safe_dump(sidecar, handle)
    print(f"wrote {len(ts)} samples to {args.out}")
    return 0


def _load_series(args) -> TimeSeries:
    spec = DatasetSpec(
        path=args.data,
        input_column=args.input_column,
        output_column=args.output_column,
        delta=getattr(args, "delta", SILVERBOX_DELTA),
    )
    return dataio.load_csv(spec)


def cmd_identify(args) -> int:
    data = _load_series(args)
    if args.split_index > 0:
        _, data = dataio.split(data, args.split_index)
    cfg = dataio.load_config(args.config) if args.config else PriorConfig()
    if args.mode is not None and args.mode != cfg.model_mode:
        cfg = dataio.config_from_dict(
            {**dataio.config_to_dict(cfg), "model_mode": args.mode})

    beliefs, reports = engine.identify(data, cfg)

    stride = max(1, len(reports) // 1000)
    free_energies = [r.free_energy for r in reports[::stride]]
    coeffs = engine.posterior_coefficients(beliefs)
    phys = ar_to_phys(coeffs, data.delta, xi=beliefs.q_xi.mean)
    artifact = dataio.RunArtifact(
        config=dataio.config_to_dict(cfg),
        delta=data.delta,
        beliefs=beliefs,
        free_energies=free_energies,
        metrics={"final_free_energy": reports[-1].free_energy,
                 "steps": len(reports)},
        physical={"m": phys.m, "c": phys.c, "a": phys.a, "b": phys.b,
                  "tau": phys.tau},
    )
    dataio.save_artifact(artifact, args.out)
    print(f"identified {len(reports)} steps, "
          f"final free energy {reports[-1].free_energy:.6e}")
    return 0


def cmd_predict(args) -> int:
    artifact = dataio.load_artifact(args.artifact)
    data = _load_series(args)
    if args.split_index > 0:
        data, _ = dataio.split(data, args.split_index)
    if not math.isclose(artifact.delta, data.delta, rel_tol=1e-9):
        raise ConfigError(
            f"sample period mismatch: artifact {artifact.delta}, "
            f"data {data.delta}")
    cfg = dataio.config_from_dict(artifact.config)

    if args.protocol == "onestep":
        pred = engine.predict_onestep(artifact.beliefs, data, cfg)
    else:
        pred = engine.simulate_rollout(artifact.beliefs, data, cfg)

    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y_hat", "sq_error"])
        for p_val, y_val in zip(pred, data.y):
            writer.writerow([repr(float(p_val)), repr(float((p_val - y_val) ** 2))])
    mse = engine.evaluate_mse(pred, data.y)
    print(f"{args.protocol} mse {mse:.3e}")
    return 0


def cmd_evaluate(args) -> int:
    (pred,) = dataio.load_columns(args.pred, ("y_hat",))
    # the input column plays no part in the error, so only y is read
    (y,) = dataio.load_columns(args.data, (args.output_column,))
    if args.split_index > 0:
        dataio.check_split(len(y), args.split_index)
        y = y[:args.split_index]
    mse = engine.evaluate_mse(pred, y)
    print(f"{mse:.3e}")
    return 0


def cmd_report(args) -> int:
    artifact = dataio.load_artifact(args.artifact)
    beliefs = artifact.beliefs
    th_mean, th_cov = gaussian_moments(beliefs.q_theta)
    eta_mean, eta_cov = gaussian_moments(beliefs.q_eta)
    names = (["theta1", "theta2", "theta3"] if th_mean.size == 3
             else ["theta1", "theta3"])
    print("posterior coefficients (mean +/- std):")
    for name, mean, var in zip(names, th_mean, np.diag(th_cov)):
        print(f"  {name:7s} {mean: .6e} +/- {math.sqrt(var):.3e}")
    print(f"  eta     {eta_mean[0]: .6e} +/- {math.sqrt(eta_cov[0, 0]):.3e}")
    for name, belief in (("gamma", beliefs.q_gamma), ("xi", beliefs.q_xi)):
        std = math.sqrt(belief.shape) / belief.rate
        print(f"  {name:7s} {belief.mean: .6e} +/- {std:.3e}")
    print("recovered physical parameters:")
    for name in ("m", "c", "a", "b", "tau"):
        print(f"  {name:7s} {artifact.physical[name]: .6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
