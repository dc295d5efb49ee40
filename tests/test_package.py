"""Package surface: the lazy exports resolve and importing stays numpy-free.

The command line entry point pins BLAS thread pools before numpy loads, so
neither ``import revtori`` nor ``import revtori.cli`` may import numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import revtori


def test_every_export_resolves():
    for name in revtori.__all__:
        assert getattr(revtori, name) is not None, name


def test_imports_leave_numpy_unloaded():
    src = str(Path(revtori.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, revtori, revtori.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
