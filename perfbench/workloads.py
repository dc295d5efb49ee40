"""The workloads: seeded inputs, one-off set-up and output checks.

A workload's seed only generates ``--set`` overrides; the program sees
nothing but the shipped config plus those overrides.  Each solve is one
or two ``revtori.cli.main`` calls, and every solve's outputs are checked
against the acceptance bounds before it counts as correct.
"""

import csv
import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple        # revtori modules the commands import lazily
    one_off: Callable     # () -> None, the inputs computed once per process
    inputs: Callable      # random.Random -> {override key: JSON value}
    commands: Callable    # inputs -> list of argv lists, run in order
    warmup: tuple         # argv lists run once before timing
    check: Callable       # summaries -> (quality records, problems)


def _set(key, value):
    return ["--set", f"{key}={json.dumps(value)}"]


def _sets(inputs):
    return [arg for key, value in inputs.items() for arg in _set(key, value)]


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #

def import_modules(workload):
    """Import the CLI and every module its handlers import lazily."""
    importlib.import_module("revtori.cli")
    for mod in workload.modules:
        importlib.import_module(f"revtori.{mod}")


def setup(workload):
    """Everything that must happen before the first solve can begin."""
    import_modules(workload)
    workload.one_off()


def _certify_golden():
    from revtori import diophantine
    diophantine.certify(diophantine.make_frequency(1, "golden"))


def _lienard_system():
    from revtori import lienard
    cfg = json.loads(Path("configs/lienard_poincare.json").read_text())
    pert = dict(cfg["perturbation"])
    problem = lienard.make_problem(cfg["n"], pert.pop("kind"), **pert)
    orbit = lienard.compute_reference_orbit(problem.n)
    lienard.action_angle(problem, orbit=orbit, rho_star=cfg["rho_star"])


# --------------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------------- #

def _manifest_config(summary):
    manifest = Path(summary["run_dir"]) / "manifest.json"
    return json.loads(manifest.read_text())["config"]


def _majorants(summary):
    with open(Path(summary["run_dir"]) / "convergence.csv", newline="") as fh:
        return [float(row["sup_f"]) for row in csv.DictReader(fh)]


def _within(problems, label, value, bound, below=True):
    ok = value <= bound if below else value >= bound
    if not ok:  # also catches nan
        problems.append(f"{label} {value!r} not {'<=' if below else '>='} "
                        f"{bound!r}")


def check_kam_flow(summaries):
    from revtori import newton
    (summary,) = summaries
    problems = []
    if summary["failed"]:
        problems.append(f"kam run failed: {summary['failure']}")
    _within(problems, "invariance residual", summary["invariance_residual"],
            1e-8)
    cfg = _manifest_config(summary)
    if summary["steps_completed"] != cfg["M"]:
        problems.append(f"{summary['steps_completed']} of {cfg['M']} steps")
    maj = _majorants(summary)
    if not all(b < a for a, b in zip(maj, maj[1:])):
        problems.append(f"majorants not decreasing: {maj}")
    schedule = newton.make_schedule(cfg["d"], cfg["mu"], cfg["eps0"], cfg["M"])
    _within(problems, "fitted order", summary["fitted_order"],
            1.0 + schedule.mu_tilde / 2.0, below=False)
    return {"invariance_residual": summary["invariance_residual"],
            "fitted_order": summary["fitted_order"]}, problems


def check_lienard_dense(summaries):
    poincare, stability = summaries
    problems = []
    _within(problems, "reversibility", poincare["reversibility_residual"],
            1e-9)
    if stability["n_orbits"] != 400:
        problems.append(f"{stability['n_orbits']} orbits, expected 400")
    if not stability["stable"]:
        problems.append("stability verdict is not 'stable'")
    _within(problems, "max ratio", stability["max_ratio"], 1.5)
    return {"reversibility": poincare["reversibility_residual"],
            "max_ratio": stability["max_ratio"]}, problems


# --------------------------------------------------------------------------- #
# the workloads
# --------------------------------------------------------------------------- #

def _lienard(command, config, *sets):
    return ["lienard", command, "--config", config, *sets]


def _flow_inputs(rng):
    c = rng.uniform(0.6, 1.0)
    return {"perturbation.eps": 1e-4 * c, "perturbation.g_amp": 0.05 * c}


def _phases(base):
    def inputs(rng):
        offset = rng.uniform(0.0, 0.25)
        return {"phases": [p + offset for p in base]}
    return inputs


_FLOW = ("kam", "run", "--config", "configs/kam_flow.json")
_DENSE_LEVELS = [1.0 + 2.0 * i / 19 for i in range(20)]

WORKLOADS = {w.name: w for w in (
    # Flow torus, N=20 and n_fit=76 at every step: the scattered Fourier
    # evaluation is nearly all of it.  M=2 is the fewest steps for which a
    # fitted order exists.
    Workload(
        name="kam-flow",
        modules=("diophantine", "newton", "persistence", "systems"),
        one_off=_certify_golden, inputs=_flow_inputs,
        commands=lambda inp: [[*_FLOW, "--set", "M=2", *_sets(inp)]],
        # A tiny schedule (N=5) on the same code path, well under 1 s.
        warmup=([*_FLOW, "--set", "M=1", "--set", "eps0=0.01"],),
        check=check_kam_flow),
    # The boundedness verdict: the reversible section map, then the
    # stability integrator on 20 levels x 20 phases (B=400) to t=250.  Array
    # work per orbit dominates the integrator; the section map's implicit
    # midpoint steps are interpreter-bound.
    Workload(
        name="lienard-dense",
        modules=("lienard", "persistence"), one_off=_lienard_system,
        inputs=_phases([i / 20 for i in range(20)]),
        commands=lambda inp: [
            _lienard("poincare", "configs/lienard_poincare.json"),
            _lienard("stability", "configs/lienard_stability.json",
                     "--set", "t_max=250", *_set("levels", _DENSE_LEVELS),
                     *_sets(inp))],
        warmup=(_lienard("poincare", "configs/lienard_poincare.json",
                         "--set", "n_steps=4"),
                _lienard("stability", "configs/lienard_stability.json",
                         "--set", "t_max=1")),
        check=check_lienard_dense),
)}


def make_inputs(workload, seed):
    """The seeded ``--set`` overrides; the same seed gives the same inputs."""
    return workload.inputs(random.Random(f"{workload.name}/{seed}"))
