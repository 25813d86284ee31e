"""Every test module imports.

The test suite may run with ``--continue-on-collection-errors``, which
reports a module that cannot be imported only as a collection error and
runs the rest.  Here each ``test_*.py`` beside this file is imported by
path, and one that raises fails its own test, naming the module and the
exception.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

MODULES = sorted(Path(__file__).parent.glob("test_*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports(path):
    name = f"_imported_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as err:
        pytest.fail(f"{path.name} cannot be imported: {type(err).__name__}: {err}")
    finally:
        del sys.modules[name]
