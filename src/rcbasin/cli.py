"""Command-line entry points: simulate, train, predict, basin-map, sweep, render.

Configuration is a flat INI file with sections mirroring the library
modules; every omitted key falls back to the per-system defaults, so a
minimal config is just ``[system]\\nname = duffing``.  All randomness flows
from config-declared seeds (overridable on the command line); there is no
wall-clock seeding, and results do not depend on ``--parallel``.

Exit code 0 means the requested artifact was fully written; on failure,
partially written files are removed.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, replace

import numpy as np

from . import experiment, training
from .errors import RcbasinError
from .experiment import ExperimentConfig, default_config
from .reservoir import run_closed_loop, synchronize
from .timeseries import TimeSeries, write_csv


class ConfigError(RcbasinError):
    """Raised with a section/key diagnostic when a config does not validate."""


def _ints(text): return tuple(int(tok) for tok in text.replace(",", " ").split())
def _floats(text): return tuple(float(tok) for tok in text.replace(",", " ").split())
def _bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")
def _opt_int(text): return None if text.strip() == "" else int(text)
def _opt_float(text): return None if text.strip() == "" else float(text)


#: Value parser for each ExperimentConfig field annotation.
_PARSERS = {"float": float, "int": int, "bool": _bool, "int | None": _opt_int,
            "float | None": _opt_float, "tuple[int, ...]": _ints, "tuple[int, int]": _ints}

#: ExperimentConfig fields set by each INI section (``system`` and
#: ``system_params`` come from ``[system]`` separately).
_SECTIONS = {
    "system": ("dt", "adaptive_truth", "rel_tol", "abs_tol"),
    "observation": ("observe",),
    "reservoir": ("n_r", "mean_degree", "spectral_radius", "input_strength",
                  "bias_strength", "leakage"),
    "training": ("n_trans", "alpha", "eta", "batch_max_states", "standardize_inputs"),
    "experiment": ("n_train", "train_sig_len", "train_half_width", "restrict_to_basin",
                   "reject_horizon", "max_attempt_factor", "grid_axes", "test_half_width",
                   "resolution", "n_test", "horizon"),
    "criteria": ("eps_c", "tail_len", "energy_barrier", "kl_threshold", "kl_tail"),
    "seeds": ("seed_reservoir", "seed_sampling", "seed_noise"),
}

#: INI keys that differ from their field names.
_KEYS = {"observe": "components", "seed_reservoir": "reservoir",
         "seed_sampling": "sampling", "seed_noise": "noise"}

# (section, key) -> (config field, parser)
_FIELD_MAP = {(section, _KEYS.get(f.name, f.name)): (f.name, _PARSERS[f.type])
              for section, names in _SECTIONS.items()
              for f in fields(ExperimentConfig) if f.name in names}

#: Sections whose keys are consumed by subcommands rather than the config.
_COMMAND_SECTIONS = ("simulate", "predict", "sweep")


def read_config(path) -> tuple[ExperimentConfig, configparser.ConfigParser]:
    """Parse and fully validate an INI config before any computation starts."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"config parse failure: {err}") from err
    if not parser.has_section("system") or not parser.has_option("system", "name"):
        raise ConfigError("missing required field: [system] name")
    system = parser.get("system", "name")

    overrides: dict = {}
    system_params: dict = {}
    for section in parser.sections():
        if section in _COMMAND_SECTIONS:
            continue
        for key, raw in parser.items(section):
            if section == "system" and key == "name":
                continue
            if section == "system" and ("system", key) not in _FIELD_MAP:
                try:
                    system_params[key] = float(raw)
                except ValueError as err:
                    raise ConfigError(f"invalid value in [system] {key}: {raw!r}") from err
                continue
            if (section, key) not in _FIELD_MAP:
                raise ConfigError(f"unknown key in [{section}]: {key}")
            name, parse = _FIELD_MAP[(section, key)]
            try:
                overrides[name] = parse(raw)
            except ValueError as err:
                raise ConfigError(f"invalid value in [{section}] {key}: {raw!r}") from err
    if system_params:
        overrides["system_params"] = system_params
    try:
        cfg = default_config(system, **overrides)
    except (RcbasinError, ValueError) as err:
        raise ConfigError(f"config does not validate: {err}") from err
    return cfg, parser


def _require(parser: configparser.ConfigParser, section: str, key: str) -> str:
    if not parser.has_option(section, key):
        raise ConfigError(f"missing required field: [{section}] {key}")
    return parser.get(section, key)


class _OutputTracker:
    """Removes the files written so far if the command fails midway."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.paths: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.paths.append(full)
        return full

    def cleanup(self):
        for p in self.paths:
            if os.path.exists(p):
                os.remove(p)


def _print_label(cfg, sys_def, values, components) -> None:
    crit = experiment.criteria_from_config(cfg)
    label = experiment.label_trajectories(sys_def, crit, values[None], components)[0]
    if isinstance(label, int):
        print(f"converged to attractor {label} ({sys_def.attractors[label].label})")
    else:
        print(f"convergence label: {label}")


def cmd_simulate(cfg, parser, out: _OutputTracker) -> None:
    ic = _floats(_require(parser, "simulate", "ic"))
    n_steps = int(_require(parser, "simulate", "n_steps"))
    sys_def = experiment.system_from_config(cfg)
    if len(ic) != sys_def.dim:
        raise ConfigError(f"[simulate] ic needs {sys_def.dim} components, got {len(ic)}")
    values = experiment.integrate_truth(cfg, sys_def, np.array(ic), n_steps)
    series = TimeSeries(values, cfg.dt)
    write_csv(series, out.path("trajectory.csv"))
    print(f"wrote trajectory.csv ({series.n_samples} samples)")
    print("final state:", " ".join(repr(v) for v in values[-1]))
    if not sys_def.chaotic:
        _print_label(cfg, sys_def, values, range(sys_def.dim))


def cmd_train(cfg, parser, out: _OutputTracker) -> None:
    res, readout, mse = experiment.train_from_config(cfg)
    training.save_model(out.path("model.npz"), res, readout)
    print(f"wrote model.npz (n_r={cfg.n_r}, spectral_radius={cfg.spectral_radius}, "
          f"input_strength={cfg.input_strength}, alpha={cfg.alpha}, eta={cfg.eta})")
    print(f"n_fit: {readout.n_fit}")
    print(f"training mse: {mse!r}")


def cmd_predict(cfg, parser, out: _OutputTracker, bundle: str) -> None:
    if bundle is None:
        raise ConfigError("predict requires --bundle MODEL")
    res, readout = training.load_model(bundle)
    ic = _floats(_require(parser, "predict", "ic"))
    sys_def = experiment.system_from_config(cfg)
    if len(ic) != sys_def.dim:
        raise ConfigError(f"[predict] ic needs {sys_def.dim} components, got {len(ic)}")
    truth = experiment.integrate_truth(cfg, sys_def, np.array(ic), cfg.n_test - 1)
    test_signal = TimeSeries(truth[:, list(cfg.observe)], cfg.dt)
    state = synchronize(res, readout, test_signal)
    n_pred = cfg.horizon - cfg.n_test
    prediction = run_closed_loop(res, readout, state, n_pred, dt=cfg.dt,
                                 t0=cfg.n_test * cfg.dt)
    write_csv(test_signal, out.path("test_signal.csv"))
    write_csv(prediction, out.path("prediction.csv"))
    print(f"wrote test_signal.csv ({cfg.n_test} samples) and "
          f"prediction.csv ({n_pred} samples)")
    print("final predicted state:", " ".join(repr(v) for v in prediction.values[-1]))
    if not sys_def.chaotic:
        _print_label(cfg, sys_def, prediction.values, cfg.observe)


def _print_summary(basin_map) -> None:
    m = basin_map.metrics
    print(f"f_c: {m.f_c:.4f}   f_wrong: {m.f_wrong:.4f}   "
          f"f_spurious: {m.f_spurious:.6f}   f_unresolved: {m.f_unresolved:.4f}")
    print(f"{'basin':>8} {'n_true':>7} {'f_c':>7} {'FNR':>7} {'FPR':>7}")
    for pb in m.per_basin:
        print(f"{pb.basin:>8} {pb.n_true:>7} {pb.f_c:>7.3f} "
              f"{pb.false_negative_rate:>7.3f} {pb.false_positive_rate:>7.3f}")
    if basin_map.baseline_f_c is not None:
        print(f"baseline f_c: {basin_map.baseline_f_c:.4f}")


def cmd_basin_map(cfg, parser, out: _OutputTracker, parallel: int,
                  bundle: str | None = None) -> None:
    model = training.load_model(bundle) if bundle else None
    basin_map = experiment.run_basin_experiment(cfg, parallel=parallel, model=model)
    csv_path = out.path("basin_map.csv")
    out.paths.append(csv_path + ".meta")
    experiment.persist(basin_map, csv_path)
    experiment.render_basin_map(basin_map, out.path("basin_map.ppm"))
    print(f"wrote basin_map.csv (+.meta) and basin_map.ppm "
          f"({cfg.resolution}x{cfg.resolution} cells)")
    _print_summary(basin_map)


def cmd_sweep(cfg, parser, out: _OutputTracker, parallel: int) -> None:
    n_train = _ints(_require(parser, "sweep", "n_train"))
    half_train = _floats(_require(parser, "sweep", "train_half_width"))
    half_test = _floats(_require(parser, "sweep", "test_half_width"))
    realizations = int(parser.get("sweep", "realizations", fallback="1"))
    rows, errors = experiment.run_sweep(cfg, n_train, half_train, half_test,
                                        realizations=realizations, parallel=parallel)
    csv_path = out.path("sweep.csv")
    out.paths.append(csv_path + ".meta")
    experiment.write_sweep_csv(rows, csv_path, provenance={
        **experiment.provenance(cfg), "realizations": realizations})
    print(f"wrote sweep.csv ({len(rows)} rows, {len(errors)} failed cells)")
    for err in errors:
        print("failed:", err, file=sys.stderr)
    by_cell: dict = {}
    for row in rows:
        by_cell.setdefault((row.n_train, row.half_train, row.half_test), []).append(row.f_c)
    for key, vals in sorted(by_cell.items()):
        mean = float("nan") if np.isnan(vals).all() else np.nanmean(vals)
        print(f"n_train={key[0]} half_train={key[1]} half_test={key[2]} "
              f"mean f_c={mean:.4f}")


def cmd_render(map_path: str, out: _OutputTracker) -> None:
    basin_map = experiment.load_basin_map(map_path)
    experiment.render_basin_map(basin_map, out.path("basin_map.ppm"))
    print(f"wrote basin_map.ppm ({basin_map.resolution}x{basin_map.resolution})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rcbasin",
        description="Reservoir-computing basin-prediction experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "train", "predict", "basin-map", "sweep", "render"):
        p = sub.add_parser(name)
        if name != "render":
            p.add_argument("--config", required=True, help="INI experiment config")
            p.add_argument("--seed-reservoir", type=int, default=None)
            p.add_argument("--seed-sampling", type=int, default=None)
            p.add_argument("--seed-noise", type=int, default=None)
        else:
            p.add_argument("--map", required=True, help="persisted basin map CSV")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("basin-map", "sweep"):
            p.add_argument("--parallel", type=int, default=os.cpu_count() or 1)
        if name in ("predict", "basin-map"):
            p.add_argument("--bundle", default=None, help="trained model bundle")
    args = parser.parse_args(argv)

    out = None
    try:
        out = _OutputTracker(args.out)
        if args.command == "render":
            cmd_render(args.map, out)
            return 0
        cfg, ini = read_config(args.config)
        seeds = {name: getattr(args, name)
                 for name in ("seed_reservoir", "seed_sampling", "seed_noise")}
        cfg = replace(cfg, **{k: v for k, v in seeds.items() if v is not None})
        if args.command == "simulate":
            cmd_simulate(cfg, ini, out)
        elif args.command == "train":
            cmd_train(cfg, ini, out)
        elif args.command == "predict":
            cmd_predict(cfg, ini, out, args.bundle)
        elif args.command == "basin-map":
            cmd_basin_map(cfg, ini, out, args.parallel, args.bundle)
        elif args.command == "sweep":
            cmd_sweep(cfg, ini, out, args.parallel)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        if out is not None:
            out.cleanup()
        return 2
    except (RcbasinError, OSError, ValueError, BrokenProcessPool) as err:
        print(f"error: {err}", file=sys.stderr)
        if out is not None:
            out.cleanup()
        return 1


if __name__ == "__main__":
    sys.exit(main())
