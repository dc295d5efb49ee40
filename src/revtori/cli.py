"""Command line front end.

Subcommands cover the individual stages (frequency certification,
smoothing rates, one homological solve, the reference orbit) as well as
the full Newton iteration (``kam run``) and the long-time oscillator
experiment (``lienard stability``).  Run-producing commands write a
directory ``<out>/<name>/`` containing ``manifest.json`` plus their
artifacts; ``verify`` rechecks such a directory against its manifest.

Configuration comes from built-in defaults, overlaid by ``--config``
(a JSON object) and then by repeatable ``--set KEY=VALUE`` flags (dotted
keys reach into nested sections; values are parsed as JSON when they look
like it).  Unknown top-level keys are rejected.

Exit codes: 0 success, 2 invalid parameters or malformed input, 3 a
certification or iteration failure (small divisors, a failed Newton
step), 4 I/O or persistence trouble, 1 anything unexpected.

Thread pinning happens before numpy is first imported: numerical modules
are only pulled in inside the command handlers.
"""

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _apply_threads(argv) -> None:
    """Pin BLAS/OpenMP pools from --threads before numpy import.

    An explicit flag overrides the environment; otherwise existing
    settings are respected and the default of one thread is filled in.
    """
    explicit = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            explicit = argv[i + 1]
        elif arg.startswith("--threads="):
            explicit = arg.split("=", 1)[1]
    try:
        value = int(explicit) if explicit is not None else None
    except ValueError:
        return  # argparse will produce the proper complaint later
    if value is not None and value < 1:
        return  # main refuses it once the arguments are parsed
    for var in _THREAD_VARS:
        if value is not None:
            os.environ[var] = str(value)
        else:
            os.environ.setdefault(var, "1")


# --------------------------------------------------------------------------- #
# configuration plumbing
# --------------------------------------------------------------------------- #

_KAM_DEFAULTS = {
    "name": None,
    "mode": "flow",
    "d": 1,
    "omega": "golden",
    "tau": None,
    "K_max": 2000,
    "mu": 0.1,
    "eps0": 1e-4,
    "M": 5,
    "q_y": 2,
    "tol": 0.0,
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

_POINCARE_DEFAULTS = {
    "n": 1,
    "perturbation": {"kind": "rational_cubic"},
    "rho_star": 0.25,
    "n_steps": 256,
    "theta_points": 8,
    "rho_levels": [0.8, 1.2, 1.8, 2.5],
}


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _apply_override(cfg: dict, item: str, errors) -> None:
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


def _number(cfg: dict, key: str, kind, errors):
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


def _verify_settings(cfg: dict, errors) -> dict:
    """The invariance-check settings of a kam config, as numbers.

    Keys the config lacks take their ``_KAM_DEFAULTS`` values.
    """
    out = {}
    for key, kind in (("verify_samples", int), ("verify_dt", float), ("verify_tol", float)):
        try:
            out[key] = _number({key: cfg.get(key, _KAM_DEFAULTS[key])}, key, kind, errors)
        except errors.ParameterError as exc:
            raise errors.ParameterError(f"verification settings: {exc}") from None
    return out


def _numbers(cfg: dict, key: str, errors) -> list:
    """cfg[key] (a list, or one number) as a list of floats; anything else exits 2."""
    values = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
    return [_number({key: v}, key, float, errors) for v in values]


def _merge_config(args, defaults: dict, errors) -> dict:
    cfg = copy.deepcopy(defaults)
    if getattr(args, "config", None):
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
    for item in getattr(args, "overrides", []) or []:
        _apply_override(cfg, item, errors)
    return cfg


def _resolve_frequency(omega_spec, d: int, tau, K_max: int):
    from . import diophantine
    if isinstance(omega_spec, str):
        omega = diophantine.make_frequency(d, omega_spec)
    else:
        omega = [float(v) for v in omega_spec]
    return diophantine.certify(omega, tau=tau, K_max=K_max)


def _omega_spec(args):
    """--omega as a float list, a family name, or fall back to --kind."""
    if not args.omega:
        return args.kind
    tokens = [tok.strip() for tok in args.omega.split(",") if tok.strip()]
    if not tokens:
        from . import errors
        raise errors.ParameterError("--omega is empty")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        if len(tokens) == 1:
            return tokens[0]
        from . import errors
        raise errors.ParameterError(
            f"--omega must be comma-separated numbers, got {args.omega!r}")


def _perturbation_params(pert_cfg: dict) -> dict:
    """The numeric parameters of a perturbation section (all but ``kind``)."""
    from . import errors
    if not isinstance(pert_cfg, dict):
        raise errors.ParameterError(f"perturbation must be an object, got {pert_cfg!r}")
    return {k: _number(pert_cfg, k, float, errors) for k in pert_cfg if k != "kind"}


def _build_inputs(mode, pert_cfg: dict, omega: float):
    """The perturbation pair (f, g) of a kam config's flow or map."""
    from . import errors, systems
    params = _perturbation_params(pert_cfg)
    kind = pert_cfg.get("kind", "standard")
    if mode == "flow":
        system = systems.make_flow_perturbation(kind, **params)
    elif mode == "map":
        system = systems.make_map_perturbation(kind, omega, **params)
    else:
        raise errors.ParameterError(f"mode must be 'flow' or 'map', got {mode!r}")
    return system.f, system.g


def _make_problem(cfg, errors):
    from . import lienard
    pert = cfg["perturbation"]
    params = _perturbation_params(pert)
    return lienard.make_problem(cfg["n"], pert.get("kind", "none"), **params)


def _run_name(name, errors) -> str:
    if not isinstance(name, str):
        raise errors.ParameterError(f"config key 'name' must be a string, got {name!r}")
    return name


# --------------------------------------------------------------------------- #
# command handlers (each returns the summary dict to print)
# --------------------------------------------------------------------------- #

def _cmd_dioph(args):
    freq = _resolve_frequency(_omega_spec(args), args.d, args.tau, args.k_max)
    return freq.to_dict()


def _cmd_smooth_test(args):
    import numpy as np
    from . import errors, smoothing
    if not (args.s_min > 0 and args.s_max > 0):
        raise errors.ParameterError(
            f"--s-min and --s-max must be positive, got {args.s_min} and {args.s_max}")
    if args.n_scales < 2:
        raise errors.ParameterError(
            f"--n-scales must be at least 2 to fit a rate, got {args.n_scales}")
    seed = 0 if args.seed is None else args.seed
    field = smoothing.synthetic_rough_field(args.ell_star, N=args.n_modes,
                                            seed=seed)
    scales = np.geomspace(args.s_max, args.s_min, args.n_scales)
    errs = np.array([(field - smoothing.smooth(field, float(s))).sup_norm()
                     for s in scales])
    slope = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
    return {
        "ell_star": args.ell_star,
        "fitted_rate": slope,
        "relative_gap": abs(slope - args.ell_star) / args.ell_star,
        "scales": [float(s) for s in scales],
        "errors": [float(e) for e in errs],
    }


def _cmd_homsolve(args):
    from . import newton
    freq = _resolve_frequency(_omega_spec(args), 1, args.tau, args.k_max)
    pert = {"kind": "standard", "eps": args.eps}
    if args.g_amp is not None:
        pert["g_amp"] = args.g_amp
    dyn = newton._dynamics(args.mode)
    f, g = (newton._materialize(h, what, 1, args.n_modes, args.q_y, args.r,
                                dyn.autonomous, p)
            for h, what, p in zip(_build_inputs(args.mode, pert, float(freq.omega[0])),
                                  "fg", dyn.fg_parity))
    sol = dyn.solve(f, g, freq)
    return {"mode": args.mode, "min_divisor": sol.min_divisor,
            "residual_u": sol.residual_u, "residual_v": sol.residual_v,
            "sup_u": sol.u.sup_norm(), "sup_v": sol.v.sup_norm(),
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
    from . import errors, newton, persistence
    cfg = _merge_config(args, _KAM_DEFAULTS, errors)
    mode = cfg["mode"]
    name = cfg["name"] = _run_name(cfg["name"] or f"kam-{mode}", errors)
    num = {key: _number(cfg, key, kind, errors) for key, kind in (
        ("d", int), ("K_max", int), ("mu", float), ("eps0", float), ("M", int),
        ("tol", float), ("q_y", int))}
    verify = _verify_settings(cfg, errors)
    omega = cfg["omega"] if isinstance(cfg["omega"], str) else _numbers(cfg, "omega", errors)
    tau = None if cfg["tau"] is None else _number(cfg, "tau", float, errors)
    freq = _resolve_frequency(omega, num["d"], tau, num["K_max"])
    cfg["omega"] = [float(w) for w in freq.omega]
    schedule = newton.make_schedule(num["d"], num["mu"], num["eps0"], num["M"])
    f, g = _build_inputs(mode, cfg["perturbation"], float(freq.omega[0]))
    report = newton.run_kam(
        mode, f, g, freq, schedule, tol=num["tol"], q_y=num["q_y"], **verify)
    run_dir = _write_run_dir(
        args.out, name, "kam run", cfg, args.seed,
        [("embedding.json",
          lambda p: persistence.save_embedding(p, report.embedding)),
         ("convergence.csv",
          lambda p: persistence.emit_csv(p, report.csv_header(),
                                         report.csv_rows()))],
        formats={"convergence.csv": newton.CONVERGENCE_FORMAT})
    summary = report.summary()
    summary["run_dir"] = str(run_dir)
    if report.failed:
        summary["exit_code"] = 3
    return summary


def _cmd_lienard_orbit(args):
    import numpy as np
    from . import errors, lienard, persistence
    if args.csv and args.csv_samples < 1:
        raise errors.ParameterError(
            f"--csv-samples must be at least 1, got {args.csv_samples}")
    orbit = lienard.compute_reference_orbit(args.n, n_samples=args.samples)
    summary = {
        "n": args.n,
        "period": orbit.period,
        "modes": (len(orbit.coeffs_x) - 1) // 2,
        "amplitude": orbit.amplitude(),
        "closure_error": orbit.closure_error,
        "symmetry_defect": orbit.symmetry_defect,
        "energy_residual": orbit.energy_residual(),
    }
    if args.csv:
        s = orbit.period * np.arange(args.csv_samples) / args.csv_samples
        phi = (2.0 * np.pi / orbit.period) * s
        x0, y0 = orbit.angle_data(phi)
        rows = zip(s, x0, y0)
        persistence.emit_csv(args.csv, ("t", "x", "xdot"), rows)
        summary["csv"] = args.csv
    return summary


def _cmd_lienard_poincare(args):
    import numpy as np
    from . import errors, lienard, persistence
    cfg = _merge_config(args, _POINCARE_DEFAULTS, errors)
    if args.iterates < 0:
        raise errors.ParameterError(f"--iterates must be >= 0, got {args.iterates}")
    problem = _make_problem(cfg, errors)
    n_steps = _number(cfg, "n_steps", int, errors)
    theta_points = _number(cfg, "theta_points", int, errors)
    rhos = np.asarray(_numbers(cfg, "rho_levels", errors))
    system = lienard.action_angle(problem, rho_star=_number(cfg, "rho_star", float, errors))
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
        for it in range(1, args.iterates + 1):
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
    from . import errors, lienard, persistence
    cfg = _merge_config(args, _STABILITY_DEFAULTS, errors)
    name = _run_name(cfg["name"], errors)
    problem = _make_problem(cfg, errors)
    report = lienard.lagrange_stability_experiment(
        problem, t_max=_number(cfg, "t_max", float, errors),
        dt=_number(cfg, "dt", float, errors),
        levels=_numbers(cfg, "levels", errors),
        phases=[2.0 * np.pi * v for v in _numbers(cfg, "phases", errors)],
        threshold=_number(cfg, "threshold", float, errors),
        t_ref=None if cfg["t_ref"] is None else _number(cfg, "t_ref", float, errors),
        order=_number(cfg, "order", int, errors))
    run_dir = _write_run_dir(
        args.out, name, "lienard stability", cfg, args.seed,
        [("stability.csv",
          lambda p: persistence.emit_csv(p, report.csv_header(),
                                         report.csv_rows()))])
    summary = report.summary()
    summary["run_dir"] = str(run_dir)
    return summary


def _cmd_verify(args):
    from . import errors, newton, persistence
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
        cfg = manifest.config
        embedding = persistence.load_embedding(run_dir / "embedding.json")
        system = _build_inputs(embedding.mode, cfg["perturbation"],
                               float(embedding.omega[0]))
        verify = _verify_settings(cfg, errors)
        inv = newton.verify_invariance(
            embedding, system, samples=verify["verify_samples"],
            dt=verify["verify_dt"], tol=verify["verify_tol"])
        summary["invariance_residual"] = inv.residual
    return summary


# --------------------------------------------------------------------------- #
# parser / entry point
# --------------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file overlaying the defaults")
    common.add_argument("--out", default="runs", metavar="DIR",
                        help="root directory for run outputs (default: runs)")
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="BLAS/OpenMP threads (default: 1)")
    common.add_argument("--seed", type=int, default=None,
                        help="seed recorded in the manifest and used by "
                             "randomized diagnostics")
    common.add_argument("--json-summary", action="store_true",
                        help="print the summary as JSON instead of key = value")
    common.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one config entry (repeatable; dotted "
                             "keys reach nested sections)")

    parser = argparse.ArgumentParser(
        prog="revtori",
        description="Invariant tori of reversible twist systems and the "
                    "Lagrange stability experiment built on them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dioph", parents=[common],
                       help="certify a frequency vector")
    p.add_argument("--omega", help="comma-separated components; overrides --kind")
    p.add_argument("--kind", default="golden",
                   help="named frequency family (default: golden)")
    p.add_argument("--d", type=int, default=1, help="dimension for --kind")
    p.add_argument("--tau", type=float, default=None,
                   help="Diophantine exponent (default: d + 1e-4)")
    p.add_argument("--k-max", type=int, default=2000,
                   help="largest |k|_1 scanned by the certifier")
    p.set_defaults(handler=_cmd_dioph)

    p = sub.add_parser("smooth-test", parents=[common],
                       help="fit the smoothing approximation rate on a "
                            "synthetic field of known regularity")
    p.add_argument("--ell-star", type=float, default=2.5)
    p.add_argument("--n-modes", type=int, default=512)
    p.add_argument("--n-scales", type=int, default=6)
    p.add_argument("--s-max", type=float, default=0.5)
    p.add_argument("--s-min", type=float, default=0.05)
    p.set_defaults(handler=_cmd_smooth_test)

    p = sub.add_parser("homsolve", parents=[common],
                       help="solve one homological system for a single-mode "
                            "input and report residuals")
    p.add_argument("--mode", choices=("flow", "map"), default="flow")
    p.add_argument("--omega", help="comma-separated components; overrides --kind")
    p.add_argument("--kind", default="golden")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--k-max", type=int, default=2000)
    p.add_argument("--n-modes", type=int, default=8)
    p.add_argument("--q-y", type=int, default=2)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--g-amp", type=float, default=None,
                   help="ratio of g to f in flow mode (default: 0.05)")
    p.set_defaults(handler=_cmd_homsolve)

    p = sub.add_parser("kam", help="Newton iteration for invariant tori")
    kam_sub = p.add_subparsers(dest="kam_command", required=True)
    p = kam_sub.add_parser("run", parents=[common],
                           help="run the iteration and write a run directory")
    p.set_defaults(handler=_cmd_kam_run)

    p = sub.add_parser("lienard", help="forced oscillator experiments")
    lie_sub = p.add_subparsers(dest="lienard_command", required=True)
    p = lie_sub.add_parser("orbit", parents=[common],
                           help="reference orbit residuals")
    p.add_argument("--n", type=int, default=1,
                   help="power n in the restoring force x^(2n+1)")
    p.add_argument("--samples", type=int, default=8192)
    p.add_argument("--csv", metavar="PATH",
                   help="also write (t, x, xdot) samples over one period")
    p.add_argument("--csv-samples", type=int, default=512)
    p.set_defaults(handler=_cmd_lienard_orbit)
    p = lie_sub.add_parser("poincare", parents=[common],
                           help="reversibility residual of the period-1 "
                                "section map")
    p.add_argument("--csv", metavar="PATH",
                   help="also write section iterates as CSV")
    p.add_argument("--iterates", type=int, default=32,
                   help="section iterations per sample for --csv")
    p.set_defaults(handler=_cmd_lienard_poincare)
    p = lie_sub.add_parser("stability", parents=[common],
                           help="long-time excursion ratios, written as a "
                                "run directory")
    p.set_defaults(handler=_cmd_lienard_stability)

    p = sub.add_parser("verify", parents=[common],
                       help="recheck a run directory against its manifest")
    p.add_argument("run", help="run directory containing manifest.json")
    p.set_defaults(handler=_cmd_verify)

    return parser


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
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    _apply_threads(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    from . import errors
    try:
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise errors.ParameterError(f"--threads must be at least 1, got {args.threads}")
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
