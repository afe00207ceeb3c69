"""Each module imports on its own: the package roots re-export nothing, so
an import cycle would show only for the module that happens to be first."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import opfuzz

SRC = Path(opfuzz.__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.walk_packages(opfuzz.__path__, "opfuzz."))


def test_every_module_is_listed():
    assert {"opfuzz.cli", "opfuzz.kernel", "opfuzz.kernel.vm", "opfuzz.orchestrator"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
