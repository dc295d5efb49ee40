"""Command line front end.

Subcommands cover the individual stages (frequency certification,
smoothing rates, one homological solve, the reference orbit) as well as
the full Newton iteration (``kam run``) and the long-time oscillator
experiment (``lienard stability``).  Run-producing commands write a
directory ``<out>/<name>/`` containing ``manifest.json`` plus their
artifacts; ``verify`` rechecks such a directory against its manifest.

Every command but ``verify`` reads its parameters from one place: its
built-in defaults, overlaid by ``--config`` (a JSON object) and then by
repeatable ``--set KEY=VALUE`` flags (dotted keys reach into nested
sections; values are parsed as JSON when they look like it).  Unknown
top-level keys are rejected.  ``verify`` takes no config: it reads the one
its run directory's manifest recorded.  The remaining flags say where
output goes and how it is printed (``--out``, ``--csv``,
``--json-summary``), plus ``--threads`` and ``--seed``.

Exit codes: 0 success, 2 invalid parameters or malformed input, 3 a
certification or iteration failure (small divisors, a failed Newton
step), 4 I/O or persistence trouble, 1 anything unexpected.

Thread pinning happens before numpy is first imported: numerical modules
are only pulled in inside the command handlers.
"""

import argparse
import copy
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import errors

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# --------------------------------------------------------------------------- #
# configuration plumbing
# --------------------------------------------------------------------------- #

# omega is a family name or the components; tau None means d + 1e-4.
_DIOPH_DEFAULTS = {"omega": "golden", "d": 1, "tau": None, "K_max": 2000}

_SMOOTH_DEFAULTS = {"ell_star": 2.5, "n_modes": 512, "n_scales": 6,
                    "s_max": 0.5, "s_min": 0.05}

# g_amp None means the flow factory's ratio of g to f.
_HOMSOLVE_DEFAULTS = {"mode": "flow", "omega": "golden", "tau": None, "K_max": 2000,
                      "n_modes": 8, "q_y": 2, "r": 0.1, "eps": 1e-3, "g_amp": None}

_KAM_DEFAULTS = {
    "name": None,
    "mode": "flow",
    **_DIOPH_DEFAULTS,
    "mu": 0.1,
    "eps0": 1e-4,
    "M": 5,
    "q_y": 2,
    "perturbation": {"kind": "standard"},
    "verify_samples": 64,
    "verify_dt": 1.0,
    "verify_tol": 1e-12,
}

_STABILITY_DEFAULTS = {
    "name": "lienard-stability",
    "n": 1,
    "perturbation": {"kind": "rational_cubic"},
    "t_max": 1e4,
    "dt": 1.0 / 64,
    "order": 4,
    "levels": [1.0, 1.5, 2.0, 2.5, 3.0],
    "phases": [0.0, 0.25, 0.5, 0.75],  # fractions of a full angle
    "threshold": 3.0,
    "t_ref": None,
}

_ORBIT_DEFAULTS = {"n": 1, "samples": 8192, "csv_samples": 512}

_POINCARE_DEFAULTS = {
    "n": 1,
    "perturbation": {"kind": "rational_cubic"},
    "rho_star": 0.25,
    "n_steps": 8,
    "theta_points": 8,
    "rho_levels": [0.8, 1.2, 1.8, 2.5],
    "iterates": 32,  # section iterations per sample for --csv
}


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _apply_override(cfg: dict, item: str) -> None:
    if "=" not in item:
        raise errors.ParameterError(f"--set expects KEY=VALUE, got {item!r}")
    key, raw = item.split("=", 1)
    parts = key.split(".")
    if parts[0] not in cfg:
        raise errors.ParameterError(
            f"unknown config key {parts[0]!r}; valid keys: "
            + ", ".join(sorted(cfg)))
    node = cfg
    for part in parts[:-1]:
        nxt = node.get(part)
        if nxt is None:
            nxt = node[part] = {}
        elif not isinstance(nxt, dict):
            raise errors.ParameterError(
                f"cannot descend into {part!r} in --set {item!r}")
        node = nxt
    node[parts[-1]] = _parse_value(raw)


def _number(cfg: dict, key: str, kind):
    """cfg[key] as ``kind`` (int or float); anything else exits 2.

    Booleans, NaN, infinities and, for ints, values with a fractional part
    are refused rather than truncated.
    """
    value = cfg[key]
    try:
        out = kind(value)
        if isinstance(value, bool) or not math.isfinite(out) \
                or (kind is int and out != float(value)):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise errors.ParameterError(
            f"config key {key!r} must be "
            f"{'an integer' if kind is int else 'a finite number'}, got {value!r}") from None
    return out


def _verify_settings(cfg: dict) -> dict:
    """The invariance-check settings of a kam config, as numbers.

    Keys the config lacks take their ``_KAM_DEFAULTS`` values.
    """
    out = {}
    for key, kind in (("verify_samples", int), ("verify_dt", float), ("verify_tol", float)):
        try:
            out[key] = _number({key: cfg.get(key, _KAM_DEFAULTS[key])}, key, kind)
        except errors.ParameterError as exc:
            raise errors.ParameterError(f"verification settings: {exc}") from None
    return out


def _numbers(cfg: dict, key: str) -> list:
    """cfg[key] (a list, or one number) as a list of floats; anything else exits 2."""
    values = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
    return [_number({key: v}, key, float) for v in values]


def _merge_config(args, defaults: dict) -> dict:
    cfg = copy.deepcopy(defaults)
    if args.config:
        from . import persistence
        data = persistence.load_json(args.config)
        if not isinstance(data, dict):
            raise errors.ParameterError(
                f"{args.config}: config must be a JSON object")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise errors.ParameterError(
                f"{args.config}: unknown config keys {unknown}; valid keys: "
                + ", ".join(sorted(defaults)))
        for key, value in data.items():
            if isinstance(cfg.get(key), dict) and isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    for item in args.overrides:
        _apply_override(cfg, item)
    return cfg


def _frequency(cfg: dict, d: int):
    """The certified frequency of cfg's omega, tau and K_max.

    omega is a family name (of dimension d) or the components themselves,
    d of them.
    """
    from . import diophantine
    omega = cfg["omega"]
    if isinstance(omega, str):
        omega = diophantine.make_frequency(d, omega)
    else:
        omega = _numbers(cfg, "omega")
        if len(omega) != d:
            raise errors.ParameterError(
                f"config key 'omega' has {len(omega)} components, but d = {d}")
    tau = None if cfg["tau"] is None else _number(cfg, "tau", float)
    return diophantine.certify(omega, tau=tau, K_max=_number(cfg, "K_max", int))


def _perturbation_params(pert_cfg: dict) -> dict:
    """The numeric parameters of a perturbation section (all but ``kind``)."""
    if not isinstance(pert_cfg, dict):
        raise errors.ParameterError(f"perturbation must be an object, got {pert_cfg!r}")
    return {k: _number(pert_cfg, k, float) for k in pert_cfg if k != "kind"}


def _build_inputs(mode, pert_cfg: dict, omega):
    """run_kam's system for a kam config: a flow's fg, or the map A turning by 2 pi omega."""
    from . import systems
    params = _perturbation_params(pert_cfg)
    kind = pert_cfg.get("kind", "standard")
    if mode == "flow":
        return systems.make_flow_perturbation(kind, **params)
    if mode == "map":
        return systems.make_map_perturbation(kind, omega, **params).A
    raise errors.ParameterError(f"mode must be 'flow' or 'map', got {mode!r}")


def _make_problem(cfg):
    from . import lienard
    pert = cfg["perturbation"]
    params = _perturbation_params(pert)
    return lienard.make_problem(cfg["n"], pert.get("kind", "none"), **params)


def _run_name(name) -> str:
    """The run directory's name: a single path component, so the run stays under --out."""
    if not isinstance(name, str):
        raise errors.ParameterError(f"config key 'name' must be a string, got {name!r}")
    if (name in ("", ".", "..") or os.path.isabs(name)
            or any(sep and sep in name for sep in ("/", os.sep, os.altsep))):
        raise errors.ParameterError(
            f"config key 'name' must be a single path component, got {name!r}")
    return name


# --------------------------------------------------------------------------- #
# command handlers (each returns the summary dict to print)
# --------------------------------------------------------------------------- #

def _cmd_dioph(args):
    cfg = _merge_config(args, _DIOPH_DEFAULTS)
    return _frequency(cfg, _number(cfg, "d", int)).to_dict()


def _cmd_smooth_test(args):
    import numpy as np
    from . import smoothing
    cfg = _merge_config(args, _SMOOTH_DEFAULTS)
    ell_star, s_max, s_min = (_number(cfg, key, float)
                              for key in ("ell_star", "s_max", "s_min"))
    n_modes, n_scales = (_number(cfg, key, int) for key in ("n_modes", "n_scales"))
    if not 0 < s_min < s_max:
        raise errors.ParameterError(
            f"s_min and s_max must satisfy 0 < s_min < s_max, got {s_min} and {s_max}")
    if n_scales < 2:
        raise errors.ParameterError(
            f"n_scales must be at least 2 to fit a rate, got {n_scales}")
    seed = 0 if args.seed is None else args.seed
    field = smoothing.synthetic_rough_field(ell_star, N=n_modes, seed=seed)
    scales = np.geomspace(s_max, s_min, n_scales)
    errs = np.array([(field - smoothing.smooth(field, float(s))).sup_norm()
                     for s in scales])
    if not np.all(errs > 0):
        raise errors.ParameterError(
            f"a rate needs a positive error at every scale, got {errs.tolist()}; "
            "raise n_modes or s_max")
    slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
    return {
        "ell_star": ell_star,
        "fitted_rate": slope,
        "relative_gap": abs(slope - ell_star) / ell_star,
        "scales": [float(s) for s in scales],
        "errors": [float(e) for e in errs],
    }


def _cmd_homsolve(args):
    from . import newton
    cfg = _merge_config(args, _HOMSOLVE_DEFAULTS)
    mode = cfg["mode"]
    dyn = newton._dynamics(mode)
    freq = _frequency(cfg, 1)
    pert = {"kind": "standard", "eps": cfg["eps"]}
    if cfg["g_amp"] is not None:
        pert["g_amp"] = cfg["g_amp"]
    fg = dyn.sample(_build_inputs(mode, pert, freq.omega), freq.omega, 1,
                    _number(cfg, "n_modes", int), _number(cfg, "q_y", int),
                    _number(cfg, "r", float))
    sol = dyn.solve(fg, freq)
    return {"mode": mode, "min_divisor": sol.min_divisor,
            "residual_u": sol.residual_u, "residual_v": sol.residual_v,
            "sup_u": sol.uv.components(0, 1).sup_norm(),
            "sup_v": sol.uv.components(1, 2).sup_norm(),
            "sup_mean_correction": sol.g_mean.sup_norm()}


def _write_run_dir(out_root, name, command, cfg, seed, artifacts, formats=None):
    """Write artifact files plus the manifest; returns the directory path.

    ``formats`` maps artifact filenames to the schema versions the manifest
    records for them.
    """
    from . import persistence
    run_dir = Path(out_root) / name
    run_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for filename, writer in artifacts:
        path = run_dir / filename
        writer(path)
        digests[filename] = persistence.sha256_file(path)
    manifest = persistence.RunManifest(name=name, command=command, config=cfg,
                                       seed=seed, outputs=digests,
                                       formats=formats or {})
    persistence.write_manifest(run_dir / "manifest.json", manifest)
    return run_dir


def _cmd_kam_run(args):
    from . import newton, persistence
    cfg = _merge_config(args, _KAM_DEFAULTS)
    mode = cfg["mode"]
    name = cfg["name"] = _run_name(cfg["name"] or f"kam-{mode}")
    num = {key: _number(cfg, key, kind) for key, kind in (
        ("d", int), ("mu", float), ("eps0", float), ("M", int), ("q_y", int))}
    verify = _verify_settings(cfg)
    freq = _frequency(cfg, num["d"])
    cfg["omega"] = [float(w) for w in freq.omega]
    schedule = newton.make_schedule(num["d"], num["mu"], num["eps0"], num["M"])
    system = _build_inputs(mode, cfg["perturbation"], freq.omega)
    report = newton.run_kam(mode, system, freq, schedule, q_y=num["q_y"], **verify)
    run_dir = _write_run_dir(
        args.out, name, "kam run", cfg, args.seed,
        [("embedding.json",
          lambda p: persistence.save_json(p, report.embedding.to_dict())),
         ("convergence.csv",
          lambda p: persistence.emit_csv(p, newton.CONVERGENCE_COLUMNS,
                                         report.csv_rows()))],
        formats={"convergence.csv": newton.CONVERGENCE_FORMAT})
    summary = report.summary()
    summary["run_dir"] = str(run_dir)
    if report.failed:
        summary["exit_code"] = 3
    return summary


def _cmd_lienard_orbit(args):
    import numpy as np
    from . import lienard, persistence
    cfg = _merge_config(args, _ORBIT_DEFAULTS)
    n, samples, csv_samples = (_number(cfg, key, int)
                               for key in ("n", "samples", "csv_samples"))
    if args.csv and csv_samples < 1:
        raise errors.ParameterError(
            f"config key 'csv_samples' must be at least 1, got {csv_samples}")
    orbit = lienard.compute_reference_orbit(n, n_samples=samples)
    summary = {
        "n": n,
        "period": orbit.period,
        "modes": len(orbit.y_cos) - 1,
        "amplitude": orbit.amplitude(),
        "closure_error": orbit.closure_error,
        "symmetry_defect": orbit.symmetry_defect,
        "energy_residual": orbit.energy_residual(),
    }
    if args.csv:
        x0, y0 = orbit.angle_data(2.0 * np.pi * np.arange(csv_samples) / csv_samples)
        rows = zip(orbit.period * np.arange(csv_samples) / csv_samples, x0, y0)
        persistence.emit_csv(args.csv, ("t", "x", "xdot"), rows)
        summary["csv"] = args.csv
    return summary


def _cmd_lienard_poincare(args):
    import numpy as np
    from . import lienard, persistence
    cfg = _merge_config(args, _POINCARE_DEFAULTS)
    iterates = _number(cfg, "iterates", int)
    if iterates < 0:
        raise errors.ParameterError(
            f"config key 'iterates' must be >= 0, got {iterates}")
    problem = _make_problem(cfg)
    n_steps = _number(cfg, "n_steps", int)
    theta_points = _number(cfg, "theta_points", int)
    rhos = np.asarray(_numbers(cfg, "rho_levels"))
    system = lienard.action_angle(problem, rho_star=_number(cfg, "rho_star", float))
    thetas = 2.0 * np.pi * np.arange(theta_points) / theta_points
    residual = lienard.poincare_reversibility_residual(
        system, thetas, rhos, n_steps=n_steps)
    summary = {"n": problem.n, "perturbation": problem.perturbation.kind,
               "reversibility_residual": residual,
               "n_steps": n_steps,
               "warnings": problem.validate()}
    if args.csv:
        TH, RH = np.meshgrid(thetas, rhos, indexing="ij")
        theta, rho = TH.ravel(), RH.ravel()
        rows = [(i, 0, theta[i], rho[i], False) for i in range(len(theta))]
        for it in range(1, iterates + 1):
            res = lienard.poincare_map(system, theta, rho,
                                       n_steps=n_steps)
            theta, rho = np.mod(res.theta, 2.0 * np.pi), res.rho
            rows.extend((i, it, theta[i], rho[i], bool(res.escaped[i]))
                        for i in range(len(theta)))
        persistence.emit_csv(args.csv,
                             ("sample", "iterate", "theta", "rho", "escaped"),
                             rows)
        summary["csv"] = args.csv
    return summary


def _cmd_lienard_stability(args):
    import numpy as np
    from . import lienard, persistence
    cfg = _merge_config(args, _STABILITY_DEFAULTS)
    name = _run_name(cfg["name"])
    problem = _make_problem(cfg)
    report = lienard.lagrange_stability_experiment(
        problem, t_max=_number(cfg, "t_max", float),
        dt=_number(cfg, "dt", float),
        levels=_numbers(cfg, "levels"),
        phases=[2.0 * np.pi * v for v in _numbers(cfg, "phases")],
        threshold=_number(cfg, "threshold", float),
        t_ref=None if cfg["t_ref"] is None else _number(cfg, "t_ref", float),
        order=_number(cfg, "order", int))
    run_dir = _write_run_dir(
        args.out, name, "lienard stability", cfg, args.seed,
        [("stability.csv",
          lambda p: persistence.emit_csv(p, lienard.STABILITY_COLUMNS,
                                         report.csv_rows()))])
    summary = report.summary()
    summary["run_dir"] = str(run_dir)
    return summary


def _cmd_verify(args):
    from . import persistence
    run_dir = Path(args.run)
    manifest = persistence.load_manifest(run_dir / "manifest.json")
    stale = []
    for filename, recorded in manifest.outputs.items():
        actual = persistence.sha256_file(run_dir / filename)
        if actual != recorded:
            stale.append(filename)
    if stale:
        raise errors.PersistenceError(
            f"{run_dir}: digests changed since the manifest was written: "
            + ", ".join(sorted(stale)))
    summary = {"run": str(run_dir), "command": manifest.command,
               "digests_ok": True}
    if "embedding.json" in manifest.outputs:
        from . import newton
        cfg = manifest.config
        embedding = newton.load_embedding(run_dir / "embedding.json")
        system = _build_inputs(embedding.mode, cfg["perturbation"], embedding.omega)
        verify = _verify_settings(cfg)
        summary["invariance_residual"] = newton.verify_invariance(
            embedding, system, samples=verify["verify_samples"],
            dt=verify["verify_dt"], tol=verify["verify_tol"])
    return summary


# --------------------------------------------------------------------------- #
# parser / entry point
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="runs", metavar="DIR",
                        help="root of run directories (default: runs); only "
                             "'kam run' and 'lienard stability' write one, "
                             "the other commands accept and ignore it")
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="BLAS/OpenMP threads (default: 1)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the manifest and used by "
                             "randomized diagnostics")
    common.add_argument("--json-summary", action="store_true",
                        help="print the summary as JSON instead of key = value")
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", metavar="PATH",
                            help="JSON config file overlaying the defaults")
    configured.add_argument("--set", dest="overrides", action="append", default=[],
                            metavar="KEY=VALUE",
                            help="override one config entry (repeatable; dotted "
                                 "keys reach nested sections)")

    def add_configured(sub, name, help, handler, defaults):
        """A subcommand reading ``defaults`` overlaid by --config and --set."""
        p = sub.add_parser(name, parents=[configured], help=help,
                           description="config keys and their defaults: "
                                       + json.dumps(defaults))
        p.set_defaults(handler=handler)
        return p

    parser = argparse.ArgumentParser(
        prog="revtori",
        description="Invariant tori of reversible twist systems and the "
                    "Lagrange stability experiment built on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    add_configured(sub, "dioph", "certify a frequency vector",
                   _cmd_dioph, _DIOPH_DEFAULTS)
    add_configured(sub, "smooth-test", "fit the smoothing approximation rate on "
                   "a synthetic field of known regularity",
                   _cmd_smooth_test, _SMOOTH_DEFAULTS)
    add_configured(sub, "homsolve", "solve one homological system for a "
                   "single-mode input and report residuals",
                   _cmd_homsolve, _HOMSOLVE_DEFAULTS)

    p = sub.add_parser("kam", help="Newton iteration for invariant tori")
    kam_sub = p.add_subparsers(dest="kam_command", required=True)
    add_configured(kam_sub, "run", "run the iteration and write a run directory",
                   _cmd_kam_run, _KAM_DEFAULTS)

    p = sub.add_parser("lienard", help="forced oscillator experiments")
    lie_sub = p.add_subparsers(dest="lienard_command", required=True)
    p = add_configured(lie_sub, "orbit", "reference orbit residuals",
                       _cmd_lienard_orbit, _ORBIT_DEFAULTS)
    p.add_argument("--csv", metavar="PATH",
                   help="also write csv_samples (t, x, xdot) rows over one period")
    p = add_configured(lie_sub, "poincare", "reversibility residual of the "
                       "period-1 section map",
                       _cmd_lienard_poincare, _POINCARE_DEFAULTS)
    p.add_argument("--csv", metavar="PATH",
                   help="also write the section iterates of every sample")
    add_configured(lie_sub, "stability", "long-time excursion ratios, written "
                   "as a run directory",
                   _cmd_lienard_stability, _STABILITY_DEFAULTS)

    p = sub.add_parser("verify", parents=[common],
                       help="recheck a run directory against its manifest "
                            "(takes no config)")
    p.add_argument("run", help="run directory containing manifest.json")
    p.set_defaults(handler=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`build_parser`, built on the first call only."""
    return build_parser()


def _print_summary(summary: dict, as_json: bool) -> None:
    if as_json:
        from . import persistence
        sys.stdout.write(persistence.canonical_json(summary))
        return
    for key, value in summary.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        print(f"{key} = {value}")


def main(argv=None) -> int:
    args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        threads = args.threads
        if threads is not None and threads < 1:
            raise errors.ParameterError(f"--threads must be at least 1, got {threads}")
        # Pin the BLAS/OpenMP pools before a handler first imports numpy: an
        # explicit --threads overrides the environment, otherwise existing
        # settings stand and unset ones get one thread.
        for var in _THREAD_VARS:
            if threads is None:
                os.environ.setdefault(var, "1")
            else:
                os.environ[var] = str(threads)
        summary = args.handler(args)
        code = int(summary.pop("exit_code", 0))
        _print_summary(summary, args.json_summary)
        return code
    except (errors.ParameterError, errors.ShapeError, errors.StructureError,
            errors.DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (errors.SmallDivisorError, errors.StepFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (errors.PersistenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
