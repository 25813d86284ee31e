"""The README's library quickstart and its command-line block run as written."""

from pathlib import Path

import numpy as np

from rcbasin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart")[1]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    (last,) = np.array(capsys.readouterr().out.strip().strip("[]").split(), dtype=float)
    # the forecast settles near one of the wells, +-sqrt(10)
    assert abs(abs(last) - np.sqrt(10.0)) < 0.1


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line")[1]
    block = section.split("```\n")[1].split("```")[0].replace("\\\n", " ")
    commands = {line.split()[1]: line.split()[2:] for line in block.splitlines()}
    monkeypatch.chdir(README.parent)   # the configs/ paths; outputs go to tmp_path
    for name in ("simulate", "train", "predict"):
        args = [arg.replace("out/", f"{tmp_path}/") for arg in commands[name]]
        assert main([name, *args]) == 0, capsys.readouterr().err
    assert (tmp_path / "pred" / "prediction.csv").exists()
