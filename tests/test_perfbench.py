"""The benchmark under perfbench/ reaches into the program by name: these
tests fail when a name it wraps or calls is renamed, before a traced run does."""

import importlib.util
import subprocess
import sys
import types
from pathlib import Path

from fockcanon import canonical, cli, fock, matrixio, partitions, verify, wedge

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    prog = types.SimpleNamespace(
        wedge=wedge, fock=fock, canonical=canonical, partitions=partitions,
        matrixio=matrixio, cli=cli, verify=verify,
    )
    table = _load_spans().patch_table(prog)
    assert table
    for module, attr, name, _ in table:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
