"""Invariant tori of reversible twist systems.

Fourier fields with action jets, Diophantine certification, a smoothing
decomposition, the homological solvers, and the quadratic Newton
iteration that composes near-identity transforms into an invariant torus
embedding -- plus the forced oscillator application whose bounded orbits
the tori explain.

Submodule attributes are re-exported lazily so that importing the package
(in particular through the command line entry point, which pins BLAS
thread pools first) does not pull in numpy as a side effect.
"""

from .errors import (DomainError, ParameterError, PersistenceError,
                     ShapeError, SmallDivisorError, StepFailureError,
                     StructureError)

__version__ = "0.1.0"

_EXPORTS = {
    "FourierField": "fields",
    "action_powers": "fields",
    "default_action_nodes": "fields",
    "field_from_function": "fields",
    "field_from_grid_samples": "fields",
    "harmonic_field": "fields",
    "project_structure": "fields",
    "Frequency": "diophantine",
    "certify": "diophantine",
    "make_frequency": "diophantine",
    "russmann_sum": "diophantine",
    "decompose": "smoothing",
    "smooth": "smoothing",
    "synthetic_rough_field": "smoothing",
    "HomologicalSolution": "homological",
    "solve_flow": "homological",
    "solve_map": "homological",
    "yoshida_weights": "integrators",
    "implicit_midpoint_step": "integrators",
    "Schedule": "newton",
    "make_schedule": "newton",
    "newton_step": "newton",
    "run_kam": "newton",
    "fit_embedding": "newton",
    "verify_invariance": "newton",
    "rotation_number": "newton",
    "TorusEmbedding": "newton",
    "ConvergenceReport": "newton",
    "FlowSystem": "systems",
    "MapSystem": "systems",
    "single_mode_flow": "systems",
    "make_flow_perturbation": "systems",
    "make_map_perturbation": "systems",
    "Perturbation": "lienard",
    "make_perturbation": "lienard",
    "LienardProblem": "lienard",
    "make_problem": "lienard",
    "ReferenceOrbit": "lienard",
    "compute_reference_orbit": "lienard",
    "TransformedSystem": "lienard",
    "action_angle": "lienard",
    "poincare_map": "lienard",
    "poincare_reversibility_residual": "lienard",
    "chain_rule_residual": "lienard",
    "lagrange_stability_experiment": "lienard",
    "StabilityReport": "lienard",
    "RunManifest": "persistence",
    "save_json": "persistence",
    "load_json": "persistence",
    "emit_csv": "persistence",
    "sha256_file": "persistence",
    "save_embedding": "persistence",
    "load_embedding": "persistence",
}

__all__ = ["__version__", "DomainError", "ParameterError", "PersistenceError",
           "ShapeError", "SmallDivisorError", "StepFailureError",
           "StructureError"] + sorted(_EXPORTS)


def __getattr__(name):
    modname = _EXPORTS.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    value = getattr(importlib.import_module(f".{modname}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
