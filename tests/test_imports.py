"""Every module of the package imports on its own, as the first import of a
fresh interpreter: an import cycle between modules (wedge and fock import each
other) fails here at import time rather than depending on import order."""

import subprocess
import sys
from pathlib import Path

import pytest

# found by path: importing the package here would hide the failure behind a
# collection error
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fockcanon"
MODULES = sorted(
    "fockcanon" if path.stem == "__init__" else f"fockcanon.{path.stem}"
    for path in PACKAGE.glob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=PACKAGE.parent, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
