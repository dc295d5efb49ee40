"""Package surface: the lazy exports resolve and imports stay light.

The command line entry point pins BLAS thread pools before numpy loads, so
neither ``import revtori`` nor ``import revtori.cli`` may import numpy.  The
solver modules may not import ``scipy.signal`` or ``scipy.stats``.
"""

import os
import subprocess
import sys
from pathlib import Path

import revtori


def test_every_export_resolves():
    for name in revtori.__all__:
        assert getattr(revtori, name) is not None, name


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this package."""
    src = str(Path(revtori.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_imports_leave_numpy_unloaded():
    out = _fresh_interpreter(
        "import sys, revtori, revtori.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert out == "[]", out


def test_solver_imports_leave_scipy_signal_and_stats_unloaded():
    # scipy.signal pulls in scipy.stats: about 0.7 s and 24 MiB at start-up
    out = _fresh_interpreter(
        "import sys, revtori.cli, revtori.newton, revtori.persistence, "
        "revtori.lienard; "
        "print(sorted(m for m in ('scipy.signal', 'scipy.stats') "
        "if m in sys.modules))")
    assert out == "[]", out
