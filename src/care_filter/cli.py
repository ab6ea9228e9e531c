"""Command-line front end: run scenarios, batch them, validate, query quantiles.

Four subcommands:

  simulate    one closed-loop realization, written as three CSV files
  montecarlo  N independent realizations, per-run metrics plus a mean row
  validate    structural checks of the configured scenario
  quantile    upper chi-square quantile used by the detector

Exit codes: 0 on success, 1 when the configuration or the scenario fails
validation, 2 on runtime failures (one line on stderr). Output files are
deterministic: the same config and seed produce byte-identical CSVs.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, load_config
from .detector import chi2_quantile
from .harness import _METRIC_FIELDS, monte_carlo, simulate
from .model import validate
from .vehicle import VehicleParams, vehicle_constraints, vehicle_model

__all__ = ["main"]

_STATE_NAMES = ("x", "y", "psi", "v")
_ATTACK_NAMES = ("slip", "accel")


def _fmt(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_scenario(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        overrides["runs"] = args.runs
    if overrides:
        from dataclasses import replace
        cfg = replace(cfg, **overrides)
    return cfg


def _filters(args):
    return {"both": ("care", "ise"), "care": ("care",), "ise": ("ise",)}[args.baseline]


def _trajectory_rows(res, filters):
    K = res.config.horizon
    nan2 = (float("nan"), float("nan"))
    for k in range(K + 1):
        row = [k]
        row.extend(res.x_true[k])
        for name in filters:
            row.extend(res.filters[name].x_hat[k])
        row.extend(res.d_true[k] if k < K else nan2)
        for name in filters:
            row.extend(res.filters[name].d_hat[k] if k < K else nan2)
        yield row


def _write_simulation(res, out_dir, filters):
    header = ["k"] + [f"{s}_true" for s in _STATE_NAMES]
    for name in filters:
        header += [f"{s}_{name}" for s in _STATE_NAMES]
    header += [f"d_{a}_true" for a in _ATTACK_NAMES]
    for name in filters:
        header += [f"d_{a}_{name}" for a in _ATTACK_NAMES]
    _write_csv(out_dir / "trajectories.csv", header, _trajectory_rows(res, filters))

    header = ["filter"] + list(_METRIC_FIELDS)
    rows = [[name] + res.filters[name].metrics.as_row() for name in filters]
    _write_csv(out_dir / "metrics.csv", header, rows)

    header = ["k"]
    for name in filters:
        header += [f"stat_{name}", f"cusum_{name}", f"alarm_{name}"]
    K = res.config.horizon

    def det_rows():
        for k in range(K + 1):
            row = [k]
            for name in filters:
                fr = res.filters[name]
                row += [fr.stats[k], fr.cusum[k], bool(fr.alarms[k])]
            yield row

    _write_csv(out_dir / "detector.csv", header, det_rows())


def _cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    filters = _filters(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    res = simulate(cfg, filters=filters)
    _write_simulation(res, out_dir, filters)
    for name in ("trajectories.csv", "metrics.csv", "detector.csv"):
        print(out_dir / name)
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _load_scenario(args)
    filters = _filters(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = monte_carlo(cfg, filters=filters)

    header = ["run", "filter"] + list(_METRIC_FIELDS)
    rows = []
    for i, res in enumerate(results):
        for name in filters:
            rows.append([i, name] + res.filters[name].metrics.as_row())
    for name in filters:
        block = np.array([res.filters[name].metrics.as_row() for res in results])
        rows.append(["mean", name] + block.mean(axis=0).tolist())
    _write_csv(out_dir / "metrics.csv", header, rows)
    print(out_dir / "metrics.csv")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_scenario(args)
    params = VehicleParams(l_f=cfg.l_f, l_r=cfg.l_r, T_s=cfg.t_s)
    v0 = cfg.x0[3]
    model = vehicle_model(lambda k: v0, params)
    constraints = vehicle_constraints(
        lambda k: (cfg.control_delta, cfg.control_accel), params)
    report = validate(model, constraints, horizon=min(cfg.horizon, 50))
    print(report)
    return 0 if report.ok else 1


def _cmd_quantile(args) -> int:
    print(_fmt(chi2_quantile(args.df, args.alpha)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="care-filter",
        description="Constrained attack-resilient estimation: simulation and tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_runs=False):
        p.add_argument("--config", metavar="PATH",
                       help="scenario config file (key = value lines)")
        p.add_argument("--seed", type=int, help="override the config seed")
        if with_runs:
            p.add_argument("--runs", type=int, help="override the run count")

    p = sub.add_parser("simulate", help="one realization, three CSV files")
    add_common(p)
    p.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p.add_argument("--baseline", choices=("care", "ise", "both"), default="both",
                   help="which filters to run")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("montecarlo", help="independent batch, metrics CSV")
    add_common(p, with_runs=True)
    p.add_argument("--out", default=".", metavar="DIR", help="output directory")
    p.add_argument("--baseline", choices=("care", "ise", "both"), default="both",
                   help="which filters to run")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser(
        "validate",
        help="structural checks of the configured scenario "
             "(probes the first 50 steps at the nominal speed)",
    )
    add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("quantile", help="upper chi-square quantile")
    p.add_argument("--df", type=int, required=True, help="degrees of freedom")
    p.add_argument("--alpha", type=float, required=True,
                   help="upper tail probability in (0, 1)")
    p.set_defaults(func=_cmd_quantile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # the package's errors are RuntimeError and ValueError subclasses
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
