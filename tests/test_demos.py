"""Every name a demo imports from the package exists, and every config a
demo names reads, without running the demos; the sweep demo runs on stubbed
sweep rows."""

import ast
import importlib
import importlib.util
import itertools
import re
from pathlib import Path

import pytest

from rcbasin.cli import read_config

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def package_imports(path):
    """(module, name) for each ``from rcbasin... import name`` in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "rcbasin"
            for alias in node.names]


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(path):
    imports = package_imports(path)
    assert imports, f"{path.name} imports nothing from rcbasin"
    for module, name in imports:
        # as ``from module import name`` does: an attribute, else a submodule
        assert (hasattr(importlib.import_module(module), name)
                or importlib.util.find_spec(f"{module}.{name}") is not None), \
            f"{path.name}: {module}.{name}"


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_configs_read(path):
    names = sorted(set(re.findall(r"configs/[\w.-]+\.ini", path.read_text())))
    assert names, f"{path.name} names no configs/*.ini"
    for name in names:
        read_config(str(REPO / name))  # a missing or invalid file raises ConfigError


def test_sweep_demo_reads_tuple_rows(monkeypatch, capsys):
    """Demo 06 runs on the rows ``run_sweep`` returns, with both the sweep
    and the CSV writer stubbed."""
    from rcbasin import experiment

    calls = {}

    def run_sweep(cfg, axes, realizations=1, parallel=1):
        calls["axes"] = dict(axes)
        cells = itertools.product(*axes.values())
        return [(*cell, r, 0.25 * r, 0.0) for cell in cells for r in range(realizations)], []

    monkeypatch.setattr(experiment, "run_sweep", run_sweep)
    monkeypatch.setattr(experiment, "write_sweep_csv",
                        lambda rows, path, axes: calls.update(rows=rows, header=list(axes)))
    monkeypatch.chdir(REPO)
    path = REPO / "demos" / "06_training_sweep.py"
    exec(compile(path.read_text(), str(path), "exec"), {"__name__": "__main__"})

    assert calls["axes"] == {"n_train": (2, 10), "train_half_width": [4.0, 7.0, 10.0],
                             "test_half_width": (10.0,)}
    assert calls["header"] == ["n_train", "train_half_width", "test_half_width"]
    assert len(calls["rows"]) == 2 * 3 * 3
    out = capsys.readouterr().out
    assert "running 18 cells ..." in out
    # each cell's mean over realizations 0, 1 and 2
    assert f"{2:>20} {'0.250':>8}{'0.250':>8}{'0.250':>8}" in out
