import hashlib
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import zipfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from rcbasin import cli, experiment
from rcbasin.cli import main
from rcbasin.experiment import ExperimentConfig, config_hash, load_basin_map
from rcbasin.reservoir import Reservoir, ReservoirSpec
from rcbasin.timeseries import Standardizer, read_table
from rcbasin.training import Readout, load_model, save_model

MINIMAL_WELLS = """
[system]
name = multi_well

[experiment]
n_train = 6
resolution = 5
horizon = 600
n_test = 5

[simulate]
ic = 0.3, -2.0
n_steps = 500

[predict]
ic = 2.0, 2.0
"""

DUFFING_TABLE = """
[system]
name = duffing

[experiment]
n_train = 4
resolution = 4
horizon = 400
n_test = 10

[simulate]
ic = 3.1623, 0.0
n_steps = 100

[sweep]
n_train = 2, 3
train_half_width = 6, 10
test_half_width = 10
realizations = 2
"""

#: Fully observed Duffing at a horizon where forecast tails are still
#: spiralling in: the energy test labels them, the eps_c test would not.
DUFFING_FULL_STATE = """
[system]
name = duffing

[observation]
components = 0, 1

[experiment]
n_train = 4
resolution = 4
horizon = 600
n_test = 10
"""

#: A 3x3 Lorenz map with one unresolved true cell, at (0, 0).
LORENZ_CELLS = """
[system]
name = multistable_lorenz

[reservoir]
n_r = 50

[experiment]
restrict_to_basin = 0
train_sig_len = 600
resolution = 3
n_test = 20
horizon = 400

[criteria]
kl_tail = 100
"""

#: A sweep whose n_train = 0 cell fails and whose n_train = 2 cell runs.
TINY_SWEEP = """
[system]
name = multi_well

[experiment]
n_train = 4
resolution = 3
horizon = 400
n_test = 5

[sweep]
n_train = 0, 2
train_half_width = 4
test_half_width = 4
"""


#: Adaptive truth: a window shorter than the horizon integrates a different
#: step sequence, so only the map's own path gives the map's prefix.
PENDULUM_CELL = """
[system]
name = magnetic_pendulum
adaptive_truth = true

[experiment]
n_test = 20
horizon = 300

[predict]
ic = 0.7, -0.4, 0, 0
"""


@pytest.fixture()
def wells_ini(tmp_path):
    path = tmp_path / "wells.ini"
    path.write_text(MINIMAL_WELLS)
    return str(path)


@pytest.fixture()
def duffing_ini(tmp_path):
    path = tmp_path / "duffing.ini"
    path.write_text(DUFFING_TABLE)
    return str(path)


def run(args):
    return main(args)


def printed_state(printed: str, prefix: str) -> np.ndarray:
    """The numbers on the ``prefix`` line, which must be bare floats."""
    line = next(line for line in printed.splitlines() if line.startswith(prefix))
    return np.array([float(tok) for tok in line[len(prefix):].split()])


def predict_every_map_cell(tmp_path, capsys, config: str):
    """Train a bundle, map with it, then ``predict`` each cell with it.

    Yields each map row's (true_label, pred_label, outcome) cells with the
    last two lines ``predict`` printed for that cell.
    """
    ini = tmp_path / "cells.ini"
    ini.write_text(config)
    cfg, _ = cli.read_config(str(ini))
    dim = experiment.system_from_config(cfg).dim
    bundle = str(tmp_path / "model" / "model.npz")
    assert run(["train", "--config", str(ini), "--out", str(tmp_path / "model")]) == 0
    assert run(["basin-map", "--config", str(ini), "--out", str(tmp_path / "map"),
                "--parallel", "1", "--bundle", bundle]) == 0
    capsys.readouterr()
    for cell in (tmp_path / "map" / "basin_map.csv").read_text().splitlines()[1:]:
        c0, c1, *labels = cell.split(",")
        ic = np.zeros(dim)
        ic[list(cfg.grid_axes)] = float(c0), float(c1)
        ini.write_text(config + f"[predict]\nic = {' '.join(str(float(v)) for v in ic)}\n")
        assert run(["predict", "--config", str(ini), "--out", str(tmp_path / "p"),
                    "--bundle", bundle]) == 0
        yield labels, capsys.readouterr().out.splitlines()[-2:]


def read_series(path) -> np.ndarray:
    """The ``t,u0,u1,...`` rows of a CLI series CSV as floats."""
    _, rows = read_table(path)
    return np.array([[float(cell) for cell in row] for row in rows])


def frozen_bundle(path, n_in: int, w_out: float) -> str:
    """A bundle of two leaky nodes that ignore their input and ramp toward
    tanh(5), read out with ``w_out`` in every weight and no standardization."""
    spec = ReservoirSpec(n_r=2, mean_degree=1.0, spectral_radius=0.0, input_strength=0.0,
                         bias_strength=5.0, leakage=0.5, n_in=n_in, seed=0)
    res = Reservoir(sparse.csr_matrix((2, 2)), np.zeros((2, n_in)), np.full(2, 5.0),
                    spec.leakage, spec=spec)
    save_model(path, res, Readout(w_out=np.full((n_in, 2), w_out),
                                  standardizer=Standardizer.identity(n_in), n_fit=1))
    return str(path)


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        code = run(["simulate", "--config", str(tmp_path / "nope.ini"),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_system_name(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[experiment]\nn_train = 3\n")
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "[system] name" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("ic = 1, 0\n", "config parse failure: File contains no section headers"),
        ("[system]\nname = pendulum\n", "config does not validate: unknown system 'pendulum'"),
    ], ids=["no-section", "unknown-system"])
    def test_unreadable_config(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        for section, key in [("reservoir", "nodez"), ("simulate", "n_step"),
                             ("predict", "ics"), ("sweep", "realisations")]:
            cfg.write_text(f"[system]\nname = duffing\n[{section}]\n{key} = 3\n"
                           + ("" if section == "simulate" else "[simulate]\n")
                           + "ic = 1, 0\nn_steps = 5\n")
            out = tmp_path / "out"
            code = run(["simulate", "--config", str(cfg), "--out", str(out)])
            assert code == 2, key
            assert f"config error: unknown key in [{section}]: {key}" in \
                capsys.readouterr().err
            assert not list(out.glob("*"))

    def test_unknown_system_parameter_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[system]\nname = duffing\nf_0 = 0.3\n"
                       "[simulate]\nic = 1, 0\nn_steps = 5\n")
        out = tmp_path / "out"
        code = run(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "config error: unknown key in [system]: f_0" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_default_section_rejected(self, tmp_path):
        cfg = tmp_path / "defaults.ini"
        cfg.write_text("[DEFAULT]\nn_r = 50\n[system]\nname = duffing\n")
        with pytest.raises(cli.ConfigError, match=r"\[DEFAULT\].*n_r"):
            cli.read_config(str(cfg))

    def test_missing_required_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "nosim.ini"
        cfg.write_text("[system]\nname = duffing\n")
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "[simulate] ic" in capsys.readouterr().err

    def test_invalid_value_named(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[system]\nname = duffing\n[reservoir]\nn_r = many\n")
        code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_r" in err and "many" in err
        for section, key, value in [("simulate", "n_steps", "ten"),
                                    ("training", "standardize_inputs", "maybe"),
                                    ("sweep", "realizations", "many"),
                                    ("sweep", "n_train", ""), ("sweep", "train_half_width", ""),
                                    ("sweep", "test_half_width", "")]:
            cfg.write_text(f"[system]\nname = duffing\n[{section}]\n{key} = {value}\n"
                           + ("" if section == "simulate" else "[simulate]\n")
                           + "ic = 1, 0\n")
            code = run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert code == 2, key
            assert f"config error: invalid value in [{section}] {key}: {value!r}" in \
                capsys.readouterr().err

    def test_attempt_factor_below_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[system]\nname = duffing\n[experiment]\nmax_attempt_factor = 0\n")
        code = run(["basin-map", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "max_attempt_factor must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, message", [
        ("training", "eta", "-1", "eta must be non-negative"),
        ("criteria", "eps_c", "0", "eps_c must be positive"),
        ("reservoir", "leakage", "2", "leakage must lie in [0, 1]"),
    ])
    @pytest.mark.parametrize("command", ["train", "basin-map"])
    def test_sub_config_check_before_any_work(self, tmp_path, capsys, command,
                                              section, key, value, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[system]\nname = duffing\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: config does not validate: {message}" in \
            capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("section, key, value, message", [
        ("experiment", "train_half_width", "nan", "[experiment] train_half_width must be finite"),
        ("criteria", "eps_c", "nan", "[criteria] eps_c must be finite"),
        ("system", "dt", "nan", "[system] dt must be finite"),
        ("system", "dt", "0", "[system] dt must be positive"),
        ("system", "f0", "nan", "[system] f0 must be finite"),
        ("system", "rel_tol", "0", "[system] rel_tol must be positive"),
        ("system", "abs_tol", "-1e-9", "[system] abs_tol must be positive"),
    ], ids=["train_half_width-nan", "eps_c-nan", "dt-nan", "dt-0", "f0-nan", "rel_tol-0",
            "abs_tol-negative"])
    def test_non_finite_or_zero_step_rejected(self, tmp_path, capsys, section, key, value,
                                              message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[system]\nname = duffing\n"
                       + ("" if section == "system" else f"[{section}]\n") + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert run(["basin-map", "--config", str(cfg), "--out", str(out),
                    "--parallel", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config does not validate: {message}, got {float(value)!r}\n"
        assert not out.exists()


class TestFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("command", ["simulate", "train", "predict"])
    def test_parallel_rejected_where_unread(self, wells_ini, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--config", wells_ini, "--out", str(tmp_path / "o"),
                 "--parallel", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command", ["basin-map", "sweep"])
    def test_parallel_below_one_rejected(self, duffing_ini, tmp_path, capsys,
                                         command, value):
        with pytest.raises(SystemExit) as exit_info:
            run([command, "--config", duffing_ini, "--out", str(tmp_path / "o"),
                 "--parallel", value])
        assert exit_info.value.code == 2
        assert f"argument --parallel: must be at least 1, got {value}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed-reservoir", "--seed-sampling", "--seed-noise"])
    def test_seeds_come_only_from_the_config(self, duffing_ini, tmp_path, capsys, flag):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            run(["basin-map", "--config", duffing_ini, "--out", str(out), flag, "7"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed-reservoir", "--seed-sampling",
                                      "--seed-noise", "--parallel"])
    def test_render_rejects_config_flags(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            run(["render", "--map", str(tmp_path / "m.csv"), "--out",
                 str(tmp_path / "o"), flag, "3"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


class TestSimulate:
    def test_near_equilibrium_stays(self, duffing_ini, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run(["simulate", "--config", duffing_ini, "--out", str(out)]) == 0
        traj = read_series(out / "trajectory.csv")[:, 1:]
        assert len(traj) == 101
        assert abs(traj[-1, 0] - 3.1623) < 1e-3
        printed = capsys.readouterr().out
        assert "converged to attractor 1" in printed
        # bare round-tripping numbers, not numpy scalar reprs
        assert printed_state(printed, "final state:").tobytes() == traj[-1].tobytes()

    def test_unresolved_tail_printed(self, tmp_path, capsys):
        # 31 samples from far above the barrier are still swinging between the wells
        ini = tmp_path / "short.ini"
        ini.write_text("[system]\nname = duffing\n[simulate]\nic = 0.0, 8.0\nn_steps = 30\n")
        assert run(["simulate", "--config", str(ini), "--out", str(tmp_path / "sim")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "convergence label: unresolved"

    def test_repeatable_output(self, wells_ini, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", wells_ini, "--out", str(out1)]) == 0
        assert run(["simulate", "--config", wells_ini, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
               (out2 / "trajectory.csv").read_bytes()


class TestTrainPredict:
    def test_train_writes_bundle_and_reports(self, wells_ini, tmp_path, capsys):
        out = tmp_path / "model"
        assert run(["train", "--config", wells_ini, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "n_fit: " in printed and "training mse" in printed
        n_fit = int(printed.split("n_fit: ")[1].splitlines()[0])
        assert n_fit == 6 * 500 - 6 * (5 + 1)
        res, readout = load_model(out / "model.npz")
        assert res.spec.n_r == 200 and readout.n_fit == n_fit

    def test_train_rerun_identical_bundle(self, wells_ini, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        run(["train", "--config", wells_ini, "--out", str(out1)])
        run(["train", "--config", wells_ini, "--out", str(out2)])
        assert (out1 / "model.npz").read_bytes() == (out2 / "model.npz").read_bytes()

    def test_predict_with_bundle(self, wells_ini, tmp_path, capsys):
        model_dir = tmp_path / "model"
        run(["train", "--config", wells_ini, "--out", str(model_dir)])
        out = tmp_path / "pred"
        code = run(["predict", "--config", wells_ini, "--out", str(out),
                    "--bundle", str(model_dir / "model.npz")])
        assert code == 0
        rows = read_series(out / "prediction.csv")
        prediction = rows[:, 1:]
        assert len(prediction) == 600 - 5
        assert rows[0, 0] == 5 * 0.01
        # initial condition (2, 2) sits in the trained-on quadrant
        assert np.abs(prediction[-1] - [1.0, 1.0]).max() < 0.3
        printed = printed_state(capsys.readouterr().out, "final predicted state:")
        assert printed.tobytes() == prediction[-1].tobytes()

    def test_predict_divergence_is_an_error(self, tmp_path, capsys):
        # after one synchronizing sample the output 1e308 * (r_a + r_b) of the
        # frozen pair is finite for steps 0-2 and overflows at step 3
        bundle = frozen_bundle(tmp_path / "diverging.npz", 1, 1e308)
        ini = tmp_path / "duffing.ini"
        ini.write_text("[system]\nname = duffing\n[experiment]\nn_test = 1\nhorizon = 40\n"
                       "[predict]\nic = 1.0, 0.0\n")
        out = tmp_path / "pred"
        assert run(["predict", "--config", str(ini), "--out", str(out),
                    "--bundle", str(bundle)]) == 1
        assert "error: closed-loop output became non-finite at step 3" in \
            capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("config", [PENDULUM_CELL,
                                        DUFFING_TABLE + "[predict]\nic = 1.5, -0.5\n"],
                             ids=["adaptive", "rk4"])
    def test_test_signal_is_the_map_prefix(self, tmp_path, config):
        ini = tmp_path / "cell.ini"
        ini.write_text(config)
        cfg, inputs = cli.read_config(str(ini))
        bundle = frozen_bundle(tmp_path / "model.npz", len(cfg.observe), 0.0)
        out = tmp_path / "pred"
        assert run(["predict", "--config", str(ini), "--out", str(out), "--bundle", bundle]) == 0
        ic = np.array(inputs[("predict", "ic")])
        prefix = experiment.truth_and_test_signals(cfg, ic[None])[1][0]
        assert read_series(out / "test_signal.csv")[:, 1:].tobytes() == prefix.tobytes()

    def test_predict_prints_map_label(self, tmp_path, capsys):
        truths = set()
        for name, config in (("duffing", DUFFING_FULL_STATE), ("lorenz", LORENZ_CELLS)):
            (tmp_path / name).mkdir()
            for (truth, pred, outcome), printed in predict_every_map_cell(tmp_path / name,
                                                                          capsys, config):
                truths.add((name, truth))
                true_line = ("true basin: unresolved" if truth == "-1"
                             else f"true basin: {truth} (")
                label_line = (f"convergence label: {outcome}" if pred == "-1"
                              else f"converged to attractor {pred} (")
                assert printed[0].startswith(true_line), (name, truth, printed)
                assert printed[1].startswith(label_line), (name, pred, outcome, printed)
        # both Lorenz basins and an unresolved Lorenz truth are among the cells
        assert {("lorenz", "-1"), ("lorenz", "0"), ("lorenz", "1")} <= truths

    def test_predict_requires_bundle(self, wells_ini, tmp_path, capsys):
        code = run(["predict", "--config", wells_ini, "--out", str(tmp_path / "p")])
        assert code == 2
        assert "--bundle" in capsys.readouterr().err


class TestBundleCheck:
    """A bundle must read the components the config observes."""

    @pytest.mark.parametrize("command", ["basin-map", "predict"])
    def test_observed_components_must_match(self, duffing_ini, tmp_path, capsys, command):
        bundle = tmp_path / "model" / "model.npz"
        assert run(["train", "--config", duffing_ini, "--out", str(bundle.parent)]) == 0
        ini = tmp_path / "full.ini"
        ini.write_text("[system]\nname = duffing\n[observation]\ncomponents = 0 1\n"
                       "[experiment]\nn_train = 2\nresolution = 2\n"
                       "[predict]\nic = 1.0, 0.0\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([command, "--config", str(ini), "--out", str(out),
                    "--bundle", str(bundle)]) == 1
        assert capsys.readouterr().err == \
            "error: bundle expects 1 observed components, config observes 2\n"
        assert not list(out.glob("*"))


class TestForecastWindow:
    """A window too short to label is a config error before any work."""

    SHORT = "[system]\nname = duffing\n[experiment]\nn_train = 2\nresolution = 2\n" \
            "n_test = 10\nhorizon = 20\n[predict]\nic = 1.0, 0.0\n"

    @pytest.mark.parametrize("command", ["basin-map", "predict"])
    def test_forecast_shorter_than_tail(self, duffing_ini, tmp_path, capsys, command):
        bundle = tmp_path / "model" / "model.npz"
        assert run(["train", "--config", duffing_ini, "--out", str(bundle.parent)]) == 0
        ini = tmp_path / "short.ini"
        ini.write_text(self.SHORT)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([command, "--config", str(ini), "--out", str(out),
                    "--bundle", str(bundle)]) == 2
        assert "horizon - n_test (10) must be at least tail_len (25)" in \
            capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_simulation_shorter_than_tail(self, tmp_path, capsys):
        ini = tmp_path / "short.ini"
        ini.write_text("[system]\nname = duffing\n[simulate]\nic = 1.0, 0.0\nn_steps = 5\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(ini), "--out", str(out)]) == 2
        assert "[simulate] n_steps (5) gives 6 samples" in capsys.readouterr().err
        assert not list(out.glob("*"))


class TestIndexInputs:
    """Grid axes and observed components are checked before any integration."""

    @pytest.mark.parametrize("section, key, value, message", [
        ("experiment", "grid_axes", "0", "grid_axes must be two distinct"),
        ("experiment", "grid_axes", "1 1", "grid_axes must be two distinct"),
        ("experiment", "grid_axes", "-1 0", "grid_axes must be two distinct"),
        ("observation", "components", "0 -1", "each a non-negative index"),
        ("observation", "components", "0 0", "distinct components"),
        ("experiment", "train_sig_len", "3", "train_sig_len (3) must be at least n_trans + 2"),
    ])
    @pytest.mark.parametrize("command", ["train", "basin-map"])
    def test_config_error(self, tmp_path, capsys, command, section, key, value, message):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[system]\nname = duffing\n[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert run([command, "--config", str(ini), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("experiment", "grid_axes", "0 5", "grid_axes [0, 5] must index"),
        ("observation", "components", "0 7", "components [0, 7] and grid_axes [0, 1] must"),
    ])
    @pytest.mark.parametrize("command", ["train", "basin-map"])
    def test_index_beyond_dim(self, tmp_path, capsys, monkeypatch, command,
                              section, key, value, message):
        calls = []
        for name in ("rk4_ensemble", "integrate_adaptive"):
            monkeypatch.setattr(experiment, name, lambda *args, **kwargs: calls.append(args))
        sections = {"experiment": "n_train = 2\nresolution = 2\n", "observation": ""}
        sections[section] += f"{key} = {value}\n"
        ini = tmp_path / "bad.ini"
        ini.write_text("[system]\nname = duffing\n" + "".join(
            f"[{name}]\n{body}" for name, body in sections.items()))
        out = tmp_path / "out"
        flags = ["--parallel", "1"] if command == "basin-map" else []
        assert run([command, "--config", str(ini), "--out", str(out), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "the 2 state components of duffing" in err and "Traceback" not in err
        assert calls == []
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["train", "basin-map"])
    def test_chaotic_system_needs_kl_threshold(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        for name in ("rk4_ensemble", "integrate_adaptive"):
            monkeypatch.setattr(experiment, name, lambda *args, **kwargs: calls.append(args))
        ini = tmp_path / "bad.ini"
        ini.write_text("[system]\nname = multistable_lorenz\n[reservoir]\nn_r = 50\n"
                       "[experiment]\nresolution = 2\n[criteria]\nkl_threshold =\n")
        out = tmp_path / "out"
        flags = ["--parallel", "1"] if command == "basin-map" else []
        assert run([command, "--config", str(ini), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == ("error: multistable_lorenz is chaotic: its labels "
                                           "need [criteria] kl_threshold\n")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "basin-map"])
    def test_chaotic_system_observed_in_full(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        for name in ("rk4_ensemble", "integrate_adaptive"):
            monkeypatch.setattr(experiment, name, lambda *args, **kwargs: calls.append(args))
        ini = tmp_path / "bad.ini"
        ini.write_text("[system]\nname = multistable_lorenz\n[reservoir]\nn_r = 50\n"
                       "[observation]\ncomponents = 0 2\n[experiment]\nresolution = 2\n")
        out = tmp_path / "out"
        flags = ["--parallel", "1"] if command == "basin-map" else []
        assert run([command, "--config", str(ini), "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == (
            "error: multistable_lorenz is chaotic: [observation] components [0, 2] must be "
            "[0, 1, 2], the full state its KL references hold\n")
        assert calls == []
        assert not out.exists()

    @staticmethod
    def run_cell(tmp_path, system: str, command: str, ic: str) -> int:
        """``simulate`` or ``predict`` (with a one-input bundle) from ``ic``; no output kept."""
        ini = tmp_path / "cell.ini"
        ini.write_text(f"[system]\nname = {system}\n[{command}]\nic = {ic}\n"
                       + ("n_steps = 50\n" if command == "simulate" else ""))
        out = tmp_path / "out"
        code = run([command, "--config", str(ini), "--out", str(out),
                    *(["--bundle", frozen_bundle(tmp_path / "model.npz", 1, 0.0)]
                      if command == "predict" else [])])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_ic_needs_every_component(self, tmp_path, capsys, command):
        assert self.run_cell(tmp_path, "duffing", command, "1.0, 0.0, 2.0") == 2
        assert capsys.readouterr().err == \
            f"config error: [{command}] ic needs 2 components, got 3\n"

    @pytest.mark.parametrize("system, command, ic", [
        ("duffing", "simulate", "nan 0"), ("duffing", "predict", "inf 0"),
        ("magnetic_pendulum", "simulate", "nan 0 0 0")],
        ids=["duffing-simulate", "duffing-predict", "pendulum-simulate"])
    def test_ic_must_be_finite(self, tmp_path, capsys, system, command, ic):
        # these used to exit 1 after integrating, each with its own message
        assert self.run_cell(tmp_path, system, command, ic) == 2
        assert capsys.readouterr().err == (f"config error: invalid value in [{command}] ic: "
                                           f"{ic!r} (every value must be finite)\n")

    @pytest.mark.parametrize("system, ic", [("duffing", "1.0, 0.0"),
                                            ("multistable_lorenz", "1.0, 1.0, 1.0")])
    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_simulate_needs_a_step(self, tmp_path, capsys, system, ic, n_steps):
        ini = tmp_path / "short.ini"
        ini.write_text(f"[system]\nname = {system}\n[simulate]\nic = {ic}\n"
                       f"n_steps = {n_steps}\n")
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(ini), "--out", str(out)]) == 2
        assert (f"config error: invalid value in [simulate] n_steps: '{n_steps}' "
                f"(must be at least 1, got {n_steps})") in capsys.readouterr().err
        assert not list(out.glob("*"))


class TestBasinMapCommand:
    def test_artifacts_and_summary(self, wells_ini, tmp_path, capsys):
        out = tmp_path / "map"
        assert run(["basin-map", "--config", wells_ini, "--out", str(out),
                    "--parallel", "1"]) == 0
        printed = capsys.readouterr().out
        assert "f_c:" in printed and "baseline f_c:" in printed
        loaded = load_basin_map(out / "basin_map.csv")
        assert loaded.metrics.n == 25
        f_c = float(printed.split("f_c: ")[1].split()[0])
        assert f_c == pytest.approx(loaded.metrics.f_c, abs=5e-5)
        assert (out / "basin_map.ppm").exists()

    def test_parallel_degree_invariant(self, wells_ini, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p8"
        run(["basin-map", "--config", wells_ini, "--out", str(out1), "--parallel", "1"])
        run(["basin-map", "--config", wells_ini, "--out", str(out2), "--parallel", "8"])
        assert (out1 / "basin_map.csv").read_bytes() == \
               (out2 / "basin_map.csv").read_bytes()
        assert (out1 / "basin_map.csv.meta").read_bytes() == \
               (out2 / "basin_map.csv.meta").read_bytes()

    def test_reuses_trained_bundle(self, wells_ini, tmp_path):
        model_dir = tmp_path / "model"
        run(["train", "--config", wells_ini, "--out", str(model_dir)])
        out1, out2 = tmp_path / "fresh", tmp_path / "bundled"
        run(["basin-map", "--config", wells_ini, "--out", str(out1), "--parallel", "1"])
        code = run(["basin-map", "--config", wells_ini, "--out", str(out2),
                    "--parallel", "1", "--bundle", str(model_dir / "model.npz")])
        assert code == 0
        # same seeds, so training fresh or loading the bundle must agree
        assert (out1 / "basin_map.csv").read_bytes() == \
               (out2 / "basin_map.csv").read_bytes()

    def test_seed_override_changes_hash(self, wells_ini, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        seeded = tmp_path / "seeded.ini"
        seeded.write_text(MINIMAL_WELLS + "[seeds]\nreservoir = 7\n")
        run(["basin-map", "--config", wells_ini, "--out", str(out1), "--parallel", "1"])
        run(["basin-map", "--config", str(seeded), "--out", str(out2), "--parallel", "1"])
        a = load_basin_map(out1 / "basin_map.csv")
        b = load_basin_map(out2 / "basin_map.csv")
        assert a.provenance["config_hash"] != b.provenance["config_hash"]
        assert np.array_equal(a.true_labels, b.true_labels)


class TestRender:
    def test_render_matches_original(self, wells_ini, tmp_path):
        out = tmp_path / "map"
        run(["basin-map", "--config", wells_ini, "--out", str(out), "--parallel", "1"])
        rendered = tmp_path / "render"
        code = run(["render", "--map", str(out / "basin_map.csv"),
                    "--out", str(rendered)])
        assert code == 0
        assert (rendered / "basin_map.ppm").read_bytes() == \
               (out / "basin_map.ppm").read_bytes()


class TestSweepCommand:
    def test_row_count_and_csv(self, duffing_ini, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", duffing_ini, "--out", str(out),
                    "--parallel", "2"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 1 * 2  # header + factorial x realizations
        assert "mean f_c" in capsys.readouterr().out

    def test_rows_follow_the_listing_order(self, tmp_path, capsys, monkeypatch):
        def no_run(cfg):
            raise ValueError("not run")

        monkeypatch.setattr(experiment, "run_basin_experiment", no_run)
        ini = tmp_path / "sweep.ini"
        ini.write_text("[system]\nname = duffing\n[sweep]\ntrain_sig_len = 100 20\n"
                       "realizations = 2\nn_train = 50, 10\n")
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(ini), "--out", str(out),
                    "--parallel", "1"]) == 0
        header, rows = read_table(out / "sweep.csv")
        assert header == "train_sig_len,n_train,realization,f_c,f_spurious"
        assert [row[:3] for row in rows] == [
            [length, n, r] for length in ("100", "20") for n in ("50", "10") for r in "01"]
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"train_sig_len={length} n_train={n} mean f_c=nan"
            for length in (100, 20) for n in (50, 10)]

    @pytest.mark.parametrize("body, message", [
        ("n_trian = 2 3\n", "unknown key in [sweep]: n_trian"),
        ("components = 0 1\n", "unknown key in [sweep]: components"),
        ("grid_axes = 0 1\n", "unknown key in [sweep]: grid_axes"),
        ("realizations = 2\n", "missing required field: [sweep] needs at least one axis"),
        ("", "missing required field: [sweep] needs at least one axis"),
    ], ids=["no-field", "components", "grid_axes", "realizations-only", "empty"])
    def test_axis_config_error(self, tmp_path, capsys, body, message):
        ini = tmp_path / "sweep.ini"
        ini.write_text(f"[system]\nname = duffing\n[sweep]\n{body}")
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(ini), "--out", str(out),
                    "--parallel", "1"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_realizations_below_one_is_an_error(self, tmp_path, capsys):
        ini = tmp_path / "sweep.ini"
        ini.write_text(TINY_SWEEP + "realizations = 0\n")
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(ini), "--out", str(out),
                    "--parallel", "1"]) == 2
        assert ("config error: invalid value in [sweep] realizations: '0' "
                "(must be at least 1, got 0)") in capsys.readouterr().err
        assert not list(out.glob("*"))


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "w.ini"
        cfg.write_text("[system]\nname = multi_well\n"
                       "[simulate]\nic = 0.5, 0.5\nn_steps = 50\n")
        proc = subprocess.run(
            [sys.executable, "-m", "rcbasin.cli", "simulate",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "trajectory.csv").exists()


class TestArtifactBytes:
    """Artifact digests pinned when the table codec was merged."""

    MAP_SHA256 = {
        "basin_map.csv": "fae2ac94259e2076e2687a9fdd4de8947a1e4feb0a00931ddc2ef11ab6853717",
        "basin_map.csv.meta": "40dcd48b8062ef8d65a6dcb3db051cb678f90a79b67cbb94aa080e638f9cbce8",
        "basin_map.ppm": "1ccd0f4648ed4e845e709e28695c99299c7a06e89ce886f2cacd5dd98e1d14af",
    }
    SWEEP_SHA256 = {
        "sweep.csv": "bcc02b838577bcf02a50a4b604f7f3d6c6b8d8e1068c16a1fe1ab020f2bfef35",
        "sweep.csv.meta": "8e08f553b6f57e6a522b14e2afbd43b1877eeaf9fa787fd2517f2736fc50a145",
    }
    #: sweep.csv under the header it had before the axes were named by their
    #: config fields: the rows are unchanged
    OLD_SWEEP_HEADER = b"n_train,half_train,half_test,realization,f_c,f_spurious"
    OLD_SWEEP_SHA256 = "cfc9281a3537069c3ed0253c8ae87614311d4724a9e72a72184d85de18999026"

    @staticmethod
    def digests(out, names):
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in names}

    def test_basin_map(self, wells_ini, tmp_path):
        out = tmp_path / "map"
        assert run(["basin-map", "--config", wells_ini, "--out", str(out),
                    "--parallel", "1"]) == 0
        assert self.digests(out, self.MAP_SHA256) == self.MAP_SHA256

    def test_sweep_with_failed_cell(self, tmp_path, capsys):
        ini = tmp_path / "sweep.ini"
        ini.write_text(TINY_SWEEP)
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(ini), "--out", str(out),
                    "--parallel", "1"]) == 0
        assert "n_train=0" in capsys.readouterr().err
        assert self.digests(out, self.SWEEP_SHA256) == self.SWEEP_SHA256
        header, rows = (out / "sweep.csv").read_bytes().split(b"\n", 1)
        assert header == b"n_train,train_half_width,test_half_width,realization,f_c,f_spurious"
        old = hashlib.sha256(self.OLD_SWEEP_HEADER + b"\n" + rows).hexdigest()
        assert old == self.OLD_SWEEP_SHA256


class TestFailureCleanup:
    def test_partial_outputs_removed(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[system]\nname = duffing\n[experiment]\nn_train = 2\n"
                       "restrict_to_basin = 9\nmax_attempt_factor = 4\n"
                       "resolution = 3\nhorizon = 100\n")
        out = tmp_path / "out"
        code = run(["basin-map", "--config", str(cfg), "--out", str(out),
                    "--parallel", "1"])
        assert code == 1
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "existing-dir"])
    def test_written_files_removed(self, wells_ini, tmp_path, capsys, monkeypatch, existing):
        out = tmp_path / "map"
        written = []

        def failing_render(basin_map, path):
            written.extend(sorted(p.name for p in out.glob("*")))
            raise OSError("render failed")

        monkeypatch.setattr(experiment, "render_basin_map", failing_render)
        if existing:
            out.mkdir()
        assert run(["basin-map", "--config", wells_ini, "--out", str(out),
                    "--parallel", "1"]) == 1
        assert capsys.readouterr().err == "error: render failed\n"
        assert written == ["basin_map.csv", "basin_map.csv.meta"]
        # the directory goes too if this run created it
        assert out.exists() == existing and not list(out.glob("*"))


    @pytest.mark.parametrize("stage", ["run_basin_experiment", "render_basin_map"])
    def test_out_of_memory(self, wells_ini, tmp_path, capsys, monkeypatch, stage):
        # raised, not provoked: no large array is allocated
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(experiment, stage, exhausted)
        out = tmp_path / "map"
        assert run(["basin-map", "--config", wells_ini, "--out", str(out),
                    "--parallel", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: out of memory at n_r=200, where each n_r x n_r array takes "
            "320,000 bytes\n")
        assert not out.exists()


@pytest.fixture(scope="module")
def wells_artifacts(tmp_path_factory):
    """A persisted multi-well map and a bundle for the wells config."""
    root = tmp_path_factory.mktemp("artifacts")
    ini = root / "wells.ini"
    ini.write_text(MINIMAL_WELLS)
    assert run(["basin-map", "--config", str(ini), "--out", str(root / "map"),
                "--parallel", "1"]) == 0
    return str(ini), root / "map" / "basin_map.csv", frozen_bundle(root / "model.npz", 2, 0.0)


def _spec_with_n_in(members: dict, n_in: int) -> dict:
    spec = members["spec"].copy()
    spec[[f.name for f in fields(ReservoirSpec)].index("n_in")] = n_in
    return {"spec": spec}


#: Bundle members replaced so that the two-node, two-input bundle no longer
#: loads: (replacements, the error's detail).
MISFIT_PARTS = {
    "bundle-w_out-cut": (lambda m: {"w_out": m["w_out"][:, :1]},
                         "w_out of shape (2, 1), not (2, 2) as its spec says"),
    "bundle-long-standardizer": (lambda m: {"shift": np.zeros(3), "scale": np.ones(3)},
                                 "shift and scale of shape (3,), not (2,) as its spec says"),
    "bundle-spec-n_in": (lambda m: _spec_with_n_in(m, 3),
                         "w_in of shape (2, 2), not (2, 3) as its spec says"),
    "bundle-short-bias": (lambda m: {"bias": m["bias"][:1]}, "bias must be (n_r,)"),
    "bundle-other-schema": (lambda m: {"schema": np.array("rcbasin-model-0")},
                            "unexpected archive schema rcbasin-model-0"),
}


class TestDamagedArtifacts:
    """A damaged map or bundle ends the command with one error line naming the file."""

    @pytest.mark.parametrize("damage", ["meta-without-resolution", "meta-line-not-literal",
                                        "missing-map", "bundle-without-n_fit",
                                        "truncated-bundle", "short-row", "unparsable-cell",
                                        "missing-row", "non-ascii-map", "non-ascii-meta",
                                        "resolution=-5", "resolution='5'", "resolution=5.5",
                                        "resolution=True", *MISFIT_PARTS])
    def test_one_error_line(self, wells_artifacts, tmp_path, capsys, damage):
        ini, map_csv, bundle = wells_artifacts
        csv, meta, npz = tmp_path / "map.csv", tmp_path / "map.csv.meta", tmp_path / "model.npz"
        shutil.copy(map_csv, csv)
        shutil.copy(f"{map_csv}.meta", meta)
        lines = meta.read_text().splitlines(keepends=True)
        if damage == "meta-without-resolution":
            meta.write_text("".join(ln for ln in lines if not ln.startswith("resolution=")))
            named = f"{meta}: no resolution"
        elif damage == "meta-line-not-literal":
            meta.write_text("".join(lines) + "garbage\n")
            named = f"{meta}: 'garbage' is not a key=literal line"
        elif damage == "missing-map":
            csv = tmp_path / "nope.csv"
            named = f"'{csv}'"
        elif damage in ("short-row", "unparsable-cell"):
            rows = csv.read_text().splitlines(keepends=True)
            cells = rows[3].rstrip("\n").split(",")
            cells = cells[:4] if damage == "short-row" else ["x", *cells[1:]]
            rows[3] = ",".join(cells) + "\n"
            csv.write_text("".join(rows))
            named = f"{csv}: line 4: "
        elif damage == "missing-row":
            csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:-1]))
            named = f"{csv}: 24 cells, not resolution^2"
        elif damage.startswith("resolution="):
            meta.write_text("".join(damage + "\n" if ln.startswith("resolution=") else ln
                                    for ln in lines))
            named = f"{meta}: resolution {damage.partition('=')[2]} is not an int >= 1"
        elif damage.startswith("non-ascii"):
            damaged = csv if damage == "non-ascii-map" else meta
            damaged.write_bytes(damaged.read_bytes() + "caf\u00e9\n".encode("latin-1"))
            named = f"{damaged}: 'ascii' codec can't decode byte 0xe9"
        elif damage == "bundle-without-n_fit":
            with zipfile.ZipFile(bundle) as src, zipfile.ZipFile(npz, "w") as dst:
                for info in src.infolist():
                    if info.filename != "n_fit.npy":
                        dst.writestr(info, src.read(info))
            named = f"{npz} is not a complete model bundle"
        elif damage in MISFIT_PARTS:
            replace, detail = MISFIT_PARTS[damage]
            with np.load(bundle) as archive:
                members = dict(archive)
            np.savez(npz, **{**members, **replace(members)})
            named = f"{npz} is not a complete model bundle: {detail}"
        else:
            data = Path(bundle).read_bytes()
            npz.write_bytes(data[:len(data) // 2])
            named = f"{npz} is not a complete model bundle"
        out = tmp_path / "out"
        capsys.readouterr()
        if "bundle" in damage:
            args = ["predict", "--config", ini, "--bundle", str(npz)]
        else:
            args = ["render", "--map", str(csv)]
        assert run([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err
        assert not out.exists()

    def test_bundle_spec_of_seven_values(self, wells_artifacts, tmp_path, capsys):
        # a spec one value short used to end basin-map with a TypeError traceback
        ini, _, bundle = wells_artifacts
        npz, out = tmp_path / "model.npz", tmp_path / "out"
        with np.load(bundle) as archive:
            members = dict(archive)
        np.savez(npz, **{**members, "spec": members["spec"][:7]})
        capsys.readouterr()
        assert run(["basin-map", "--config", ini, "--bundle", str(npz), "--parallel", "1",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {npz} is not a complete model bundle: spec must hold 8 numbers, "
            "not a float64 array of shape (7,)\n")
        assert not list(out.glob("*"))


class TestDeadWorker:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched labelling")
    def test_dead_chunk_job_is_an_error_line(self, wells_ini, tmp_path, capsys,
                                             monkeypatch):
        parent = os.getpid()
        label = experiment.label_trajectories

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(3)
            return label(*args, **kwargs)

        monkeypatch.setattr(experiment, "CELL_CHUNK", 10)  # 25 cells in 3 chunks
        monkeypatch.setattr(experiment, "label_trajectories", dying)
        out = tmp_path / "map"
        assert run(["basin-map", "--config", wells_ini, "--out", str(out),
                    "--parallel", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not list(out.glob("*"))


REPO = Path(__file__).resolve().parents[1]


class TestClosedStdout:
    """A reader that has closed stdout before the report ends the command with
    one error line (exit 1), and every artifact of the finished run stays."""

    @pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["basin-map", "sweep"])
    def test_artifacts_kept(self, tmp_path, command, buffering):
        ini = tmp_path / "run.ini"
        ini.write_text(MINIMAL_WELLS if command == "basin-map" else TINY_SWEEP)
        args = [command, "--config", str(ini), "--parallel", "1", "--out"]
        assert run([*args, str(tmp_path / "normal")]) == 0

        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                          env.get("PYTHONPATH")]))
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "rcbasin.cli", *args,
                                   str(tmp_path / "closed")],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert errors == ["error: [Errno 32] Broken pipe"], proc.stderr
        assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr
        normal = sorted(p.name for p in (tmp_path / "normal").iterdir())
        assert sorted(p.name for p in (tmp_path / "closed").iterdir()) == normal
        for name in normal:
            assert (tmp_path / "closed" / name).read_bytes() == \
                (tmp_path / "normal" / name).read_bytes(), name

#: config_hash of every shipped config, recorded while the INI key table was
#: still kept by hand; the benchmark's reference sidecars check these hashes.
CONFIG_HASHES = {
    "configs/duffing_basin_map.ini": "4a689e4d029b21e2",
    "configs/duffing_basin_map_desk.ini": "54caf351852d2124",
    "configs/duffing_forced.ini": "1507c976977e880d",
    "configs/duffing_restricted.ini": "05cdf6bfe6051ade",
    "configs/duffing_sweep.ini": "496f51beb95ecc9d",
    "configs/lorenz_basin_map.ini": "743d6482be5b2729",
    "configs/lorenz_full.ini": "251ca2c3ea566f8a",
    "configs/magnetic_desk.ini": "e5e67a45ae034d71",
    "configs/magnetic_full.ini": "13384d89fd82575e",
    "configs/magnetic_smoke.ini": "895f18136a5c74eb",
    "configs/multi_well_all_basins.ini": "3b58973b26e69779",
    "configs/multi_well_raw.ini": "be5d1d89d000df90",
    "perfbench/workloads/duffing_desk.ini": "54caf351852d2124",
    "perfbench/workloads/lorenz_kl.ini": "dd53e939587e1d2b",
    "perfbench/workloads/pendulum_adaptive.ini": "7236947355b9a967",
    "perfbench/workloads/tiny_duffing.ini": "534a1c463b5e9e27",
    "perfbench/workloads/tiny_lorenz.ini": "25230d42fad23830",
    "perfbench/workloads/tiny_pendulum.ini": "89ea3983413a6e80",
    "perfbench/workloads/train_wide.ini": "ed9d56b5f0a73c4a",
}


class TestConfigSchema:
    def test_every_field_has_exactly_one_key(self):
        targets = [name for name, _ in cli._FIELD_MAP.values()]
        settable = {f.name for f in fields(ExperimentConfig)} - {"system", "system_params"}
        assert sorted(targets) == sorted(settable)

    def test_shipped_configs_cover_the_pinned_set(self):
        shipped = {str(p.relative_to(REPO)) for pattern in ("configs/*.ini",
                                                            "perfbench/workloads/*.ini")
                   for p in REPO.glob(pattern)}
        assert shipped == set(CONFIG_HASHES)

    def test_keys_unique_across_sections(self):
        # a [sweep] axis names its field by the bare key
        keys = [key for _, key in cli._FIELD_MAP]
        assert len(set(keys)) == len(keys)
        assert "realizations" not in keys

    def test_readme_lists_every_key(self):
        readme = (REPO / "README.md").read_text()
        block = readme.split("```ini\n")[1].split("```")[0]
        listed: dict = {}
        section = None
        for line in block.splitlines():
            head, _, keys = line.partition(";")
            if head.strip():
                section = head.strip().strip("[]")
            listed.setdefault(section, set()).update(re.findall(r"\w+", keys))
        accepted = {("system", "name"), *cli._FIELD_MAP, *cli._INPUTS}
        assert {(s, k) for s, k in accepted if k not in listed.get(s, ())} == set()

    @pytest.mark.parametrize("name", sorted(CONFIG_HASHES))
    def test_config_hash_pinned(self, name):
        cfg, _ = cli.read_config(str(REPO / name))
        assert config_hash(cfg) == CONFIG_HASHES[name]
