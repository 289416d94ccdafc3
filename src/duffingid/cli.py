"""Command-line front end: simulate, identify, predict, evaluate, report.

Exit codes: 0 success, 1 inference/simulation error, 2 I/O or config error.
Results go to stdout, structured errors to stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import dataio, engine
from .beliefs import gaussian_moments
from .dataio import ConfigError, DatasetError, SILVERBOX_DELTA
from .duffing import ar_to_phys, fits_float, phys_to_ar, simulate


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
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
    p.add_argument("--steps", type=int, help="samples to simulate, at least "
                   "3: 2000 of the sine, or all rows of an --input file, by "
                   "default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV of the input u, output "
                   "y and latent x; the coefficients go to OUT.truth.yaml")
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
                   help="if nonzero, train on samples [split:], as in the benchmark")
    p.add_argument("--input-column", default="u")
    p.add_argument("--output-column", default="y")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("predict", help="frozen-parameter prediction")
    p.add_argument("--artifact", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--protocol", choices=["onestep", "rollout"], default="onestep")
    p.add_argument("--out", required=True)
    p.add_argument("--split-index", type=int, default=0,
                   help="if nonzero, predict on the validation samples [:split]")
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


def _check_out(path) -> None:
    """Refuse an output path that is a directory or whose directory does
    not exist, before the command does any work."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    folder = os.path.dirname(path)
    if not os.path.isdir(folder or "."):
        raise FileNotFoundError(f"cannot write {path}: no such directory {folder}")


def cmd_simulate(args) -> int:
    _check_out(args.out)
    params, x0 = dataio.load_params(args.params)
    source = "" if args.input == "sine" else f"{args.input}: "
    if args.steps is not None and args.steps < 3:
        raise DatasetError(f"{source}--steps must be at least 3, got {args.steps}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    try:
        truth = phys_to_ar(params, args.delta)
    except ValueError as exc:
        raise ConfigError(f"--delta: {exc}") from None
    if args.input == "sine":
        t = np.arange(2000 if args.steps is None else args.steps)
        with np.errstate(invalid="ignore", over="ignore"):  # checked below
            u = args.sine_amplitude * np.sin(
                2.0 * math.pi * args.sine_frequency * t * args.delta)
        if not np.isfinite(u).all():
            raise ConfigError("--sine-amplitude and --sine-frequency must give "
                              "a finite input")
    else:
        (u,) = dataio.load_columns(args.input, ("u",))
        if args.steps is not None and args.steps > len(u):
            raise DatasetError(f"{source}--steps {args.steps} beyond its {len(u)} rows")
        if len(u) < 3:
            raise DatasetError(f"{source}insufficient data: need at least 3 "
                               f"input samples, got {len(u)}")
        u = u[:args.steps]

    ts, latent = simulate(params, u, args.delta, seed=args.seed, x0=x0,
                          noise_free=args.noise_free)
    dataio.save_columns(args.out, {"u": ts.u, "y": ts.y, "x": latent})
    dataio.save_truth(f"{args.out}.truth.yaml", truth)
    print(f"wrote {len(ts)} samples to {args.out}")
    return 0


def cmd_identify(args) -> int:
    _check_out(args.out)
    if not 0 < args.delta < math.inf:  # as `TimeSeries` requires
        raise ConfigError(f"--delta must be positive and finite, got {args.delta}")
    data = dataio.load_csv(args.data, args.delta, args.input_column,
                           args.output_column)
    if args.split_index:
        _, data = dataio.split(data, args.split_index)
    mode = {} if args.mode is None else {"model_mode": args.mode}
    cfg = dataio.load_config(args.config, **mode)

    beliefs, reports = engine.identify(data, cfg)

    final = reports[-1].free_energy
    metrics = {"final_free_energy": final,
               "free_energy_sum": math.fsum(r.free_energy for r in reports),
               "steps": len(reports),
               "mean_iterations": sum(r.iterations for r in reports) / len(reports)}
    dataio.save_artifact(dataio.RunArtifact(cfg, data.delta, beliefs, metrics),
                         args.out)
    print(f"identified {len(reports)} steps, final free energy {final:.6e}")
    return 0


def cmd_predict(args) -> int:
    _check_out(args.out)
    artifact = dataio.load_artifact(args.artifact)
    data = dataio.load_csv(args.data, artifact.delta, args.input_column,
                           args.output_column)
    if args.split_index:
        data, _ = dataio.split(data, args.split_index)

    if args.protocol == "onestep":
        pred = engine.predict_onestep(artifact.beliefs, data, artifact.config)
    else:
        pred = engine.simulate_rollout(artifact.beliefs, data, artifact.config)

    with np.errstate(over="ignore"):  # a miss beyond float range is inf
        sq_error = (pred - data.y) ** 2
    dataio.save_columns(args.out, {"y_hat": pred, "sq_error": sq_error})
    mse = engine.evaluate_mse(pred, data.y)
    print(f"{args.protocol} mse {mse:.3e}")
    return 0


def cmd_evaluate(args) -> int:
    (pred,) = dataio.load_columns(args.pred, ("y_hat",))
    # the input column plays no part in the error, so only y is read
    (y,) = dataio.load_columns(args.data, (args.output_column,))
    if args.split_index:
        dataio.check_split(len(y), args.split_index)
        y = y[:args.split_index]
    if len(pred) != len(y):
        raise DatasetError(f"{args.pred}: {len(pred)} predictions for "
                           f"{len(y)} samples of {args.data}")
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
    total = artifact.metrics.get("free_energy_sum")
    if fits_float(total):  # artifacts written by hand may lack it
        print(f"free energy summed over the run: {total:.6e}")
    print("recovered physical parameters:")
    try:
        phys = ar_to_phys(engine.posterior_coefficients(beliefs),
                          artifact.delta, xi=beliefs.q_xi.mean)
    except ValueError as exc:  # the posterior maps to no oscillator
        print(f"  none: {exc}")
        return 0
    for name in ("m", "c", "a", "b", "tau"):
        print(f"  {name:7s} {getattr(phys, name): .6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
