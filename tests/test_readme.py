"""The README's library quickstart runs as written."""

from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text().split("## Library quickstart")[1]
    code = section.split("```python\n")[1].split("```")[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    (last,) = np.array(capsys.readouterr().out.strip().strip("[]").split(), dtype=float)
    # the forecast settles near one of the wells, +-sqrt(10)
    assert abs(abs(last) - np.sqrt(10.0)) < 0.1
