"""Command-line entry points: simulate, train, predict, basin-map, sweep, render.

Configuration is a flat INI file with sections mirroring the library
modules; every omitted key falls back to the per-system defaults, so a
minimal config is just ``[system]\\nname = duffing``.  Each key is declared
once, by an :class:`ExperimentConfig` field or as a subcommand input, and
:func:`read_config` checks every section before any work starts.  All
randomness flows from the ``[seeds]`` section, so the INI file alone
describes a run; there is no wall-clock seeding, and results do not depend
on ``--parallel``.

Exit code 0 means the requested artifact was fully written; on failure,
partially written files are removed.  Each command returns its stdout
report, printed once its artifacts are written: a report that cannot be
printed (a closed stdout) exits 1 and keeps them.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import fields

import numpy as np

from . import experiment, training
from .errors import NonFiniteError, RcbasinError
from .experiment import ExperimentConfig, default_config
from .systems import system_parameters
from .timeseries import TimeSeries, write_csv


class ConfigError(RcbasinError):
    """Raised with a section/key diagnostic when a config does not validate."""


def _values(parse, text):
    values = tuple(parse(tok) for tok in text.replace(",", " ").split())
    if not values:
        raise ValueError("needs at least one value")
    return values
def _ints(text): return _values(int, text)
def _floats(text):
    values = _values(float, text)
    if not np.isfinite(values).all():
        raise ValueError("every value must be finite")
    return values
def _bool(text):
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")
def _opt_int(text): return None if text.strip() == "" else int(text)
def _opt_float(text): return None if text.strip() == "" else float(text)
def _at_least_one(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


#: Value parser for each ExperimentConfig field annotation.
_PARSERS = {"float": float, "int": int, "bool": _bool, "int | None": _opt_int,
            "float | None": _opt_float, "tuple[int, ...]": _ints, "tuple[int, int]": _ints}

# (section, key) -> (config field, parser), from each field's ``ini`` metadata
_FIELD_MAP = {(f.metadata["ini"][0], f.metadata["ini"][1] or f.name): (f.name, _PARSERS[f.type])
              for f in fields(ExperimentConfig) if "ini" in f.metadata}

#: Subcommand inputs: (section, key) -> parser.
_INPUTS = {("simulate", "ic"): _floats, ("simulate", "n_steps"): _at_least_one,
           ("predict", "ic"): _floats, ("sweep", "realizations"): _at_least_one}

#: [sweep] axes: a scalar field's bare INI key -> (("sweep", field), its values' parser).
_AXES = {key: (("sweep", name), functools.partial(_values, parse))
         for (_, key), (name, parse) in _FIELD_MAP.items() if parse is not _ints}


def read_config(path) -> tuple[ExperimentConfig, dict]:
    """Parse and fully validate an INI config before any computation starts.

    Returns the config and the subcommand inputs, keyed by (section, key),
    a ``[sweep]`` axis by ("sweep", field name).  A ``[system]`` key that
    names a parameter of the system's factory (such as ``f0``) is a float
    system parameter; ``[DEFAULT]`` is rejected, since its keys would reach
    every section.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"config parse failure: {err}") from err
    if parser.defaults():
        raise ConfigError(f"[DEFAULT] is not supported; move its keys to their sections: "
                          f"{', '.join(parser.defaults())}")
    if not parser.has_section("system") or not parser.has_option("system", "name"):
        raise ConfigError("missing required field: [system] name")
    system = parser.get("system", "name")
    try:
        accepted = system_parameters(system)
    except ValueError as err:
        raise ConfigError(f"config does not validate: {err}") from err

    overrides: dict = {}
    system_params: dict = {}
    inputs: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) == ("system", "name"):
                continue
            if (section, key) in _FIELD_MAP:
                (name, parse), target = _FIELD_MAP[(section, key)], overrides
            elif (section, key) in _INPUTS:
                name, parse, target = (section, key), _INPUTS[(section, key)], inputs
            elif section == "sweep" and key in _AXES:
                (name, parse), target = _AXES[key], inputs
            elif section == "system" and key in accepted:
                name, parse, target = key, float, system_params
            else:
                raise ConfigError(f"unknown key in [{section}]: {key}")
            try:
                target[name] = parse(raw)
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise ConfigError(f"invalid value in [{section}] {key}: {raw!r} ({err})") from err
    if system_params:
        overrides["system_params"] = system_params
    try:
        cfg = default_config(system, **overrides)
    except (RcbasinError, ValueError) as err:
        raise ConfigError(f"config does not validate: {err}") from err
    return cfg, inputs


def _require(inputs: dict, section: str, key: str):
    if (section, key) not in inputs:
        raise ConfigError(f"missing required field: [{section}] {key}")
    return inputs[(section, key)]


class _OutputTracker:
    """Creates the output directory at the first write; if the command fails
    midway, removes the files written so far and a directory it created."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.paths: list[str] = []
        self.new_dir = not os.path.isdir(out_dir)

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        full = os.path.join(self.out_dir, name)
        self.paths.append(full)
        return full

    def cleanup(self):
        for p in self.paths:
            if os.path.exists(p):
                os.remove(p)
        if self.new_dir and os.path.isdir(self.out_dir) and not os.listdir(self.out_dir):
            os.rmdir(self.out_dir)


def _label_line(sys_def, label) -> str:
    if isinstance(label, int):
        return f"converged to attractor {label} ({sys_def.attractors[label].label})"
    return f"convergence label: {label}"


def cmd_simulate(cfg, inputs: dict, out: _OutputTracker) -> list[str]:
    ic = _require(inputs, "simulate", "ic")
    n_steps = _require(inputs, "simulate", "n_steps")
    sys_def = experiment.system_from_config(cfg)
    crit = experiment.criteria_from_config(cfg)
    if len(ic) != sys_def.dim:
        raise ConfigError(f"[simulate] ic needs {sys_def.dim} components, got {len(ic)}")
    if not sys_def.chaotic and n_steps + 1 < experiment.labelled_tail(sys_def, crit):
        raise ConfigError(f"[simulate] n_steps ({n_steps}) gives {n_steps + 1} samples, "
                          f"fewer than [criteria] tail_len ({cfg.tail_len}) to label")
    values = experiment.integrate_truth(cfg, sys_def, np.array([ic]), n_steps)[0]
    series = TimeSeries(values, cfg.dt)
    write_csv(series, out.path("trajectory.csv"))
    report = [f"wrote trajectory.csv ({series.n_samples} samples)",
              "final state: " + " ".join(repr(float(v)) for v in values[-1])]
    if not sys_def.chaotic:
        report.append(_label_line(sys_def, experiment.label_trajectories(
            sys_def, crit, values[None], range(sys_def.dim))[0]))
    return report


def cmd_train(cfg, out: _OutputTracker) -> list[str]:
    res, readout, mse = experiment.train_from_config(cfg)
    training.save_model(out.path("model.npz"), res, readout)
    return [f"wrote model.npz (n_r={cfg.n_r}, spectral_radius={cfg.spectral_radius}, "
            f"input_strength={cfg.input_strength}, alpha={cfg.alpha}, eta={cfg.eta})",
            f"n_fit: {readout.n_fit}",
            f"training mse: {mse!r}"]


def cmd_predict(cfg, inputs: dict, out: _OutputTracker, bundle: str) -> list[str]:
    if bundle is None:
        raise ConfigError("predict requires --bundle MODEL")
    res, readout = training.load_model(bundle)
    experiment.check_model(cfg, res)
    ic = _require(inputs, "predict", "ic")
    sys_def = experiment.system_from_config(cfg)
    if len(ic) != sys_def.dim:
        raise ConfigError(f"[predict] ic needs {sys_def.dim} components, got {len(ic)}")
    # the map's chunk path on a batch of one cell
    (truth,), (label,), (prefix,), (values,) = experiment.forecast_cells(
        cfg, res, readout, np.array([ic]))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise NonFiniteError(
            f"closed-loop output became non-finite at step {np.argmin(finite)}")
    write_csv(TimeSeries(prefix, cfg.dt), out.path("test_signal.csv"))
    write_csv(TimeSeries(values, cfg.dt, cfg.n_test * cfg.dt), out.path("prediction.csv"))
    return [f"wrote test_signal.csv ({cfg.n_test} samples) and "
            f"prediction.csv ({len(values)} samples)",
            "final predicted state: " + " ".join(repr(float(v)) for v in values[-1]),
            "true basin: " + (f"{truth} ({sys_def.attractors[truth].label})" if truth >= 0
                              else "unresolved"),
            _label_line(sys_def, label)]


def _summary(basin_map) -> list[str]:
    m = basin_map.metrics
    lines = [f"f_c: {m.f_c:.4f}   f_wrong: {m.f_wrong:.4f}   "
             f"f_spurious: {m.f_spurious:.6f}   f_unresolved: {m.f_unresolved:.4f}",
             f"{'basin':>8} {'n_true':>7} {'f_c':>7} {'FNR':>7} {'FPR':>7}"]
    lines += [f"{pb.basin:>8} {pb.n_true:>7} {pb.f_c:>7.3f} "
              f"{pb.false_negative_rate:>7.3f} {pb.false_positive_rate:>7.3f}"
              for pb in m.per_basin]
    if basin_map.baseline_f_c is not None:
        lines.append(f"baseline f_c: {basin_map.baseline_f_c:.4f}")
    return lines


def cmd_basin_map(cfg, out: _OutputTracker, parallel: int,
                  bundle: str | None = None) -> list[str]:
    model = training.load_model(bundle) if bundle else None
    basin_map = experiment.run_basin_experiment(cfg, parallel=parallel, model=model)
    csv_path = out.path("basin_map.csv")
    out.paths.append(csv_path + ".meta")
    experiment.persist(basin_map, csv_path)
    experiment.render_basin_map(basin_map, out.path("basin_map.ppm"))
    return [f"wrote basin_map.csv (+.meta) and basin_map.ppm "
            f"({cfg.resolution}x{cfg.resolution} cells)", *_summary(basin_map)]


def cmd_sweep(cfg, inputs: dict, out: _OutputTracker, parallel: int) -> list[str]:
    axes = {name: values for (section, name), values in inputs.items()
            if section == "sweep" and name != "realizations"}
    if not axes:
        raise ConfigError("missing required field: [sweep] needs at least one axis")
    realizations = inputs.get(("sweep", "realizations"), 1)
    rows, errors = experiment.run_sweep(cfg, axes, realizations=realizations,
                                        parallel=parallel)
    csv_path = out.path("sweep.csv")
    out.paths.append(csv_path + ".meta")
    experiment.write_sweep_csv(rows, csv_path, axes, provenance={
        **experiment.provenance(cfg), "realizations": realizations})
    for err in errors:
        print("failed:", err, file=sys.stderr)
    report = [f"wrote sweep.csv ({len(rows)} rows, {len(errors)} failed cells)"]
    for start in range(0, len(rows), realizations):  # a cell's realizations are adjacent
        f_c = [row[-2] for row in rows[start:start + realizations]]
        mean = float("nan") if np.isnan(f_c).all() else np.nanmean(f_c)
        report.append(" ".join(f"{name}={value}" for name, value in zip(axes, rows[start]))
                      + f" mean f_c={mean:.4f}")
    return report


def cmd_render(map_path: str, out: _OutputTracker) -> list[str]:
    basin_map = experiment.load_basin_map(map_path)
    experiment.render_basin_map(basin_map, out.path("basin_map.ppm"))
    return [f"wrote basin_map.ppm ({basin_map.resolution}x{basin_map.resolution})"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rcbasin",
        description="Reservoir-computing basin-prediction experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "train", "predict", "basin-map", "sweep", "render"):
        p = sub.add_parser(name)
        if name != "render":
            p.add_argument("--config", required=True, help="INI experiment config")
        else:
            p.add_argument("--map", required=True, help="persisted basin map CSV")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("basin-map", "sweep"):
            p.add_argument("--parallel", type=_at_least_one, default=os.cpu_count() or 1)
        if name in ("predict", "basin-map"):
            p.add_argument("--bundle", default=None, help="trained model bundle")
    args = parser.parse_args(argv)

    out = _OutputTracker(args.out)
    cfg = None
    try:
        if args.command == "render":
            report = cmd_render(args.map, out)
        else:
            cfg, inputs = read_config(args.config)
            if args.command == "simulate":
                report = cmd_simulate(cfg, inputs, out)
            elif args.command == "train":
                report = cmd_train(cfg, out)
            elif args.command == "predict":
                report = cmd_predict(cfg, inputs, out, args.bundle)
            elif args.command == "basin-map":
                report = cmd_basin_map(cfg, out, args.parallel, args.bundle)
            else:
                report = cmd_sweep(cfg, inputs, out, args.parallel)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        out.cleanup()
        return 2
    except (RcbasinError, OSError, ValueError, BrokenExecutor) as err:
        print(f"error: {err}", file=sys.stderr)
        out.cleanup()
        return 1
    except MemoryError:
        # training and the solve hold the largest arrays, each n_r x n_r
        sizes = ("" if cfg is None else f" at n_r={cfg.n_r}, where each n_r x n_r "
                 f"array takes {8 * cfg.n_r ** 2:,} bytes")
        print(f"error: out of memory{sizes}", file=sys.stderr)
        out.cleanup()
        return 1
    try:
        print("\n".join(report))
        sys.stdout.flush()
    except BrokenPipeError as err:
        # every artifact is written, so keep it; as the Python docs advise,
        # send the exit-time flush of stdout to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
