"""Package surface: the lazy exports resolve and imports stay light.

The command line entry point pins BLAS thread pools before numpy loads, so
neither ``import revtori`` nor ``import revtori.cli`` may import numpy.  No
module of the package imports scipy, which serves the tests only as an
oracle, and the map demo and the section map run without
``scipy.integrate``.  The Liénard commands load none of the torus solver.
The README's library example runs, every name its
module table quotes exists in that module, and its command table lists
exactly each command's config keys.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import revtori


def test_every_export_resolves():
    for name in revtori.__all__:
        assert getattr(revtori, name) is not None, name
    # a name deleted from a submodule must leave its __all__ too
    package = Path(revtori.__file__).parent
    listed = []
    for path in sorted(package.glob("[!_]*.py")):
        module = importlib.import_module(f"revtori.{path.stem}")
        if hasattr(module, "__all__"):
            listed.append(path.stem)
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
    assert {"newton", "lienard", "persistence"} <= set(listed)


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


def test_module_imports_leave_scipy_unloaded():
    # scipy.integrate alone costs about 0.8 s at start-up
    modules = sorted(p.stem for p in Path(revtori.__file__).parent.glob("[!_]*.py"))
    out = _fresh_interpreter(
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module('revtori.' + name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]", out


def test_commands_leave_scipy_integrate_unloaded(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "kam_map.json"
    out = _fresh_interpreter(
        "import contextlib, io, sys\n"
        "from revtori.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['kam', 'run', '--config', {str(config)!r}, "
        f"'--set', 'M=1', '--out', {str(tmp_path)!r}]),\n"
        f"             main(['lienard', 'poincare', '--set', 'n_steps=4', "
        f"'--out', {str(tmp_path)!r}])]\n"
        "print(codes, 'scipy.integrate' in sys.modules)")
    assert out == "[0, 0] False", out


def test_lienard_commands_leave_the_solver_unloaded(tmp_path):
    # persistence and lienard import nothing of the torus solver or its model families
    out = _fresh_interpreter(
        "import contextlib, io, sys\n"
        "import revtori.cli, revtori.lienard, revtori.persistence\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = revtori.cli.main(['lienard', 'poincare', '--set', 'n_steps=4', "
        f"'--out', {str(tmp_path)!r}])\n"
        "solver = ('fields', 'newton', 'homological', 'smoothing', 'diophantine', 'systems')\n"
        "print(code, [m for m in solver if 'revtori.' + m in sys.modules])")
    assert out == "0 []", out


def test_verify_of_a_stability_run_leaves_the_solver_unloaded(tmp_path):
    # a run without embedding.json is checked by its digests alone
    from revtori.cli import main
    assert main(["lienard", "stability", "--set", "t_max=1", "--set", "levels=[1.0]",
                 "--set", "phases=[0.0]", "--out", str(tmp_path)]) == 0
    out = _fresh_interpreter(
        "import contextlib, io, sys\n"
        "from revtori.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['verify', {str(tmp_path / 'lienard-stability')!r}])\n"
        "solver = ('fields', 'newton', 'homological', 'smoothing', 'diophantine',\n"
        "          'integrators', 'systems', 'lienard')\n"
        "print(code, [m for m in solver if 'revtori.' + m in sys.modules])")
    assert out == "0 []", out


# --------------------------------------------------------------------------- #
# the README's library section, executed and cross-checked
# --------------------------------------------------------------------------- #

_README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = _README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def test_readme_library_example_runs():
    section = _section("Library")
    code = section[section.index("```python\n") + len("```python\n"):]
    code = code[:code.index("```")]
    namespace = {}
    exec(compile(code, str(_README), "exec"), namespace)
    assert not namespace["report"].failed
    assert namespace["inv"] < 1e-8


def test_readme_module_table_names_exist():
    rows = [line for line in _section("Library").splitlines()
            if line.startswith("| `revtori.")]
    assert len(rows) >= 10
    for row in rows:
        cells = row.split("|")
        module = importlib.import_module(re.findall(r"`([^`]+)`", cells[1])[0])
        for name in re.findall(r"`([^`]+)`", cells[2]):
            assert hasattr(module, name), f"README names {module.__name__}.{name}"


# the defaults each configured command starts from, by its name in the table
_COMMAND_DEFAULTS = {"dioph": "_DIOPH_DEFAULTS", "smooth-test": "_SMOOTH_DEFAULTS",
                     "homsolve": "_HOMSOLVE_DEFAULTS", "kam run": "_KAM_DEFAULTS",
                     "lienard orbit": "_ORBIT_DEFAULTS",
                     "lienard poincare": "_POINCARE_DEFAULTS",
                     "lienard stability": "_STABILITY_DEFAULTS"}


def test_readme_command_table_lists_the_config_keys():
    # the table is the only documentation of the config keys; each key
    # appears in it as `key` (default)
    from revtori import cli
    assert {name for name in vars(cli) if name.endswith("_DEFAULTS")} \
        == set(_COMMAND_DEFAULTS.values())
    rows = {}
    for line in _section("Command line").splitlines():
        cells = line.split("|")
        command = re.fullmatch(r" `([a-z -]+)` ", cells[1]) if len(cells) == 4 else None
        if command:
            rows[command.group(1)] = sorted(re.findall(r"`([A-Za-z_]\w*)` \(", cells[2]))
    assert set(rows) == set(_COMMAND_DEFAULTS)
    for command, defaults in _COMMAND_DEFAULTS.items():
        assert rows[command] == sorted(getattr(cli, defaults)), command
