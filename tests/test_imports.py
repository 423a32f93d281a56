"""Importing advgrad loads numpy and the standard library, nothing else heavy.

scipy is a test dependency only (the oracle of the TIM kernel); the package
itself must not load it, so the check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

CHILD = """
import importlib, pkgutil, sys
import advgrad
names = [m.name for m in pkgutil.iter_modules(advgrad.__path__, "advgrad.")]
for name in names:
    importlib.import_module(name)
print(" ".join(names))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_no_module_of_advgrad_imports_scipy():
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    imported, scipy_modules = proc.stdout.split("\n")[:2]
    assert "advgrad.cli" in imported.split() and "advgrad.attacks" in imported.split()
    assert scipy_modules == ""
