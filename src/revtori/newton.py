"""Quadratically convergent Newton iteration for invariant tori.

The target systems are the reversible plane models

    flow:  dx/dt = omega + y + f(x, y, t),   dy/dt = g(x, y, t)
    map:   x' = x + Omega + y + f(x, y),     y' = y + g(x, y),  Omega = 2 pi omega

with f even and g odd under (x, t) -> (-x, -t) in the flow case, and the
analogous reversibility for maps.  Each step solves the linearized
(homological) equations, changes coordinates by the near-identity transform
they generate, and re-expands the remainder on a shrinking analyticity
schedule.  The output is a chain of transforms whose composition embeds an
invariant torus with rotation vector omega.

Flows and maps share one iteration.  The ``mode`` string ("flow" or "map")
selects one of two private dynamics objects, ``_FLOW`` and ``_MAP``, which
supply only what differs: the homological solve, the transformed remainder
on grid jets, the number of time slots (autonomous map fields have one),
the parity tags of (f, g) and (U, V), and one step of the true dynamics
for the invariance check.

Both remainders are formed point by point from grid-jet values at the
inverted sample points and become fields only through the FFT fit: for
flows, products of the values of f, g and the first derivatives of u and
v; for maps, differences of the values of the shifted generators.
"""

import math
from dataclasses import dataclass, field as _dc_field
from typing import Callable, Optional

import numpy as np

from . import homological
from .diophantine import Frequency
from .errors import (ParameterError, PersistenceError, ShapeError,
                     SmallDivisorError, StepFailureError)
from .fields import (FourierField, GridJet, default_action_nodes,
                     field_from_function, field_from_grid_samples)
from .integrators import extrapolate
from .smoothing import cutoff, decompose

__all__ = [
    "Schedule", "make_schedule", "NearIdentityTransform", "TorusEmbedding",
    "ConvergenceReport", "InvarianceReport", "newton_step", "run_kam",
    "fit_embedding", "verify_invariance", "rotation_number",
]

# Columns of the per-step convergence table, in emission order, and the
# schema version a run manifest records for the table.  Version 2 appended
# the columns from osc_f on; taylor_order is the largest Taylor order the
# step's grid jets used.
CONVERGENCE_COLUMNS = ("m", "sup_f", "sup_g", "min_divisor",
                       "inversion_iters", "invariance_residual",
                       "osc_f", "osc_g", "c_f", "c_g", "composition_residual",
                       "n_fit", "y_excursion", "taylor_order")
CONVERGENCE_FORMAT = "convergence/2"

# A step may push action values past the nominal radius of the current
# domain by the size of the coordinate change; the polynomial jets stay
# trustworthy well past the nominal radius, so only a gross excursion
# aborts the step.
_NESTING_SLACK = 2.0
_CONTRACTION_FLOOR = 1e-14
_CONTRACTION_RATIO = 0.9
# The fixed-point inversion of a transform stops once an update is below
# _INVERT_TOL times the largest node coordinate, and gives up after
# _INVERT_MAX_ITER iterations.
_INVERT_TOL = 1e-13
_INVERT_MAX_ITER = 50


# --------------------------------------------------------------------------- #
# schedule
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Schedule:
    """Geometric data driving the iteration.

    eps[m] is the error budget entering step m, s[m] the analyticity strip
    width, r[m] the action radius, and N[m] the mode cutoff that the
    smoothing kernel assigns to scale s[m].  All sequences have M + 1
    entries so that step m maps the state at index m to index m + 1.
    """

    d: int
    mu: float
    ell: float
    tau: float
    mu_tilde: float
    eps0: float
    M: int
    eps: np.ndarray
    s: np.ndarray
    r: np.ndarray
    N: tuple

    def to_dict(self) -> dict:
        return {
            "d": self.d, "mu": self.mu, "ell": self.ell, "tau": self.tau,
            "mu_tilde": self.mu_tilde, "eps0": self.eps0, "M": self.M,
            "eps": [float(e) for e in self.eps],
            "s": [float(s) for s in self.s],
            "r": [float(r) for r in self.r],
            "N": [int(n) for n in self.N],
        }


def make_schedule(d: int, mu: float, eps0: float, M: int) -> Schedule:
    """Build the loss-of-smoothness schedule for M Newton steps.

    The exponents are tied together by the smoothness budget:
    ell = 2 d + 1 + mu, tau = d + mu / 100, and the superlinear rate
    mu_tilde = mu / (100 (2 tau + 1 + mu)).  From eps0 the sequences
    follow as eps_m = eps0^((1 + mu_tilde)^m), s_m = eps_m^(1/ell),
    r_m = s_m^(d + 1 + mu/10).
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ParameterError(f"dimension must be a positive integer, got {d!r}")
    if not 0.0 < mu <= 0.5:
        raise ParameterError(f"smoothness margin mu must lie in (0, 0.5], got {mu}")
    if not 0.0 < eps0 < 1.0:
        raise ParameterError(f"initial error eps0 must lie in (0, 1), got {eps0}")
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)) or M < 1:
        raise ParameterError(f"step count M must be a positive integer, got {M!r}")
    d = int(d)
    M = int(M)
    ell = 2.0 * d + 1.0 + mu
    tau = d + mu / 100.0
    mu_tilde = mu / (100.0 * (2.0 * tau + 1.0 + mu))
    exps = (1.0 + mu_tilde) ** np.arange(M + 1)
    eps = eps0 ** exps
    s = eps ** (1.0 / ell)
    r = s ** (d + 1.0 + mu / 10.0)
    if s[0] > 0.5:
        raise ParameterError(
            f"eps0 = {eps0} gives initial strip s0 = {s[0]:.4f} > 1/2; "
            "choose a smaller initial error")
    N = tuple(cutoff(float(sv)) for sv in s)
    return Schedule(d=d, mu=float(mu), ell=ell, tau=tau, mu_tilde=mu_tilde,
                    eps0=float(eps0), M=M, eps=eps, s=s, r=r, N=N)


# --------------------------------------------------------------------------- #
# transforms and their composition
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class NearIdentityTransform:
    """One coordinate change  x = xi + U(xi, eta, t),  y = eta + V(xi, eta, t).

    u and v are the generators produced by the homological solve (the
    inverse direction, xi = x + u(x, y, t)); U and V are their fitted
    inverses.  The step's diagnostics travel beside it in the dict
    newton_step returns: exactly the step columns of a convergence row.
    """

    u: FourierField
    v: FourierField
    U: FourierField
    V: FourierField


@dataclass(frozen=True)
class TorusEmbedding:
    """Parametrized invariant torus  K(theta, t) = (theta + x_offset, y).

    For flows K(theta + omega t, t) follows the trajectories; for maps the
    fields are autonomous (time cutoff N_t = 0), the image of K is
    invariant and carries rotation vector omega.
    """

    x_offset: FourierField
    y: FourierField
    omega: np.ndarray
    r0: float
    mode: str

    @property
    def d(self) -> int:
        return self.x_offset.d

    def evaluate(self, theta, t=None):
        """Embedding values; theta (S, d) (or (S,) for d = 1), t (S,)."""
        theta = np.asarray(theta, dtype=float)
        squeeze = False
        if theta.ndim == 0:
            theta = theta.reshape(1, 1)
            squeeze = True
        elif theta.ndim == 1:
            theta = theta.reshape(-1, 1) if self.d == 1 else theta.reshape(1, -1)
        dx = self.x_offset.evaluate(theta, None, t, check_domain=False)
        yv = self.y.evaluate(theta, None, t, check_domain=False)
        x = theta + dx
        if squeeze:
            return x[0], yv[0]
        return x, yv

    def to_dict(self) -> dict:
        return {
            "format": "torus-embedding/1",
            "mode": self.mode,
            "omega": [float(w) for w in np.atleast_1d(self.omega)],
            "r0": float(self.r0),
            "x_offset": self.x_offset.to_dict(),
            "y": self.y.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TorusEmbedding":
        if not isinstance(data, dict) or data.get("format") != "torus-embedding/1":
            raise PersistenceError(
                f"not a torus embedding record: format = {data.get('format')!r}"
                if isinstance(data, dict) else "torus embedding record must be a dict")
        mode = data.get("mode")
        try:
            _dynamics(mode)
        except ParameterError:
            raise PersistenceError(f"unknown embedding mode {mode!r}") from None
        try:
            x_offset = FourierField.from_dict(data["x_offset"])
            y = FourierField.from_dict(data["y"])
            omega = np.asarray(data["omega"], dtype=float)
            r0 = float(data["r0"])
        except KeyError as exc:
            raise PersistenceError(f"embedding record missing key {exc}") from exc
        if x_offset.d != len(omega) or y.d != len(omega):
            raise PersistenceError("embedding component dimensions disagree with omega")
        return cls(x_offset=x_offset, y=y, omega=omega, r0=r0, mode=mode)


class _OrderedJet:
    """A GridJet that folds its Taylor order into a shared running maximum.

    A Newton step reports the largest order its jets used; keeping that
    maximum (a one-entry list) instead of the jets frees each jet after
    its last use.
    """

    def __init__(self, field: FourierField, n: int, n_t: int, orders: list):
        self.jet, self.n, self._orders = GridJet(field, n, n_t), n, orders

    def evaluate(self, delta, y=None) -> np.ndarray:
        out = self.jet.evaluate(delta, y)
        self._orders[0] = max(self._orders[0], self.jet.max_order)
        return out


def _invert_transform(u: GridJet, v: GridJet, eta):
    """Solve  xi = x + u(x, y, t),  eta = y + v(x, y, t)  for (x, y).

    (xi, t) runs over the nodes of the jets' grid, one sample of ``eta``
    per node.  Plain fixed-point iteration; contraction factor is the size
    of the derivatives of (u, v), far below one for the fields this module
    produces.  The iteration runs on the increments dx = x - xi,
    dy = y - eta rather than on (x, y): forming x and subtracting xi back
    would drown increments near roundoff in the rounding of xi + dx, and
    the fitted transforms at late steps are exactly that small.
    Returns (dx, dy, iterations).
    """
    dx = np.zeros_like(eta)
    dy = np.zeros_like(eta)
    scale = 1.0 + 2.0 * np.pi * (u.n - 1) / u.n  # 1 + the largest node angle
    for it in range(1, _INVERT_MAX_ITER + 1):
        dx_new = -u.evaluate(dx, eta + dy)
        dy_new = -v.evaluate(dx, eta + dy)
        step = max(float(np.max(np.abs(dx_new - dx))),
                   float(np.max(np.abs(dy_new - dy))))
        dx, dy = dx_new, dy_new
        if step <= _INVERT_TOL * scale:
            return dx, dy, it
    raise StepFailureError(
        f"transform inversion stalled after {_INVERT_MAX_ITER} iterations "
        f"(last update {step:.3e})")


# --------------------------------------------------------------------------- #
# flows and maps
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class _Dynamics:
    """What a forced flow and a map do differently; one instance of each.

    remainder gives the transformed (f, g) at the grid nodes moved by dx,
    at actions ys.  Autonomous fields have one time slot.  The parity
    pairs tag (f, g) and (U, V), and the embedding like (U, V).  advance
    returns one step of the true dynamics, the angle the torus turns by
    and the time it ends at.
    """

    mode: str
    remainder: Callable
    autonomous: bool
    fg_parity: tuple
    uv_parity: tuple
    advance: Callable

    def solve(self, f, g, freq) -> "homological.HomologicalSolution":
        """solve_flow or solve_map, looked up at call time so module wrappers apply."""
        return getattr(homological, "solve_" + self.mode)(f, g, freq)

    def time_slots(self, n: int) -> int:
        """Time nodes of an n-node grid: all of them, or t = 0 alone."""
        return 1 if self.autonomous else n


def _flow_remainder(jet, f, g, u, v, g_mean, freq, dx, ys):
    # Transformed remainders in the old variables, as products of jet values:
    #   T_f = (D_x u) (y + f) + (D_y u) g,   T_g likewise with v.
    W = ys + jet(f).evaluate(dx, ys)
    G = jet(g).evaluate(dx, ys)
    return tuple(sum(jet(w.diff_x(j)).evaluate(dx, ys) * W[:, j:j + 1]
                     + jet(w.diff_y(j)).evaluate(dx, ys) * G[:, j:j + 1]
                     for j in range(f.d))
                 for w in (u, v))


def _map_remainder(jet, f, g, u, v, g_mean, freq, dx, ys):
    # x1 = x + Omega + y + f, y1 = y + g; the shifted generators take the
    # rotation Omega, so every jet offset stays small.
    Omega = 2.0 * np.pi * freq.omega
    u_shift, v_shift = jet(u.shift_x(Omega)), jet(v.shift_x(Omega))
    dx1 = dx + ys + jet(f).evaluate(dx, ys)
    y1 = ys + jet(g).evaluate(dx, ys)
    return (u_shift.evaluate(dx1, y1) - u_shift.evaluate(dx, ys),
            v_shift.evaluate(dx1, y1) - v_shift.evaluate(dx, ys)
            + jet(g_mean).evaluate(dx, ys))


def _as_pair(system, message: str):
    """(x, y, t) -> (S, d) evaluators of a pair of fields or callables."""
    if not (isinstance(system, (tuple, list)) and len(system) == 2):
        raise ParameterError(message)
    return tuple((lambda x, y, t, h=h: h.evaluate(x, y, t, check_domain=False))
                 if isinstance(h, FourierField) else h for h in system)


def _flow_advance(system, omega, dt, tol):
    """Integrate the pair (f, g) over [0, dt] by extrapolation at tolerance tol.

    ``integrators.extrapolate`` holds every component to the local error
    atol + tol |z| with atol = tol * 1e-3.  A non-finite right-hand side, a
    collapsed step size or too many steps raise StepFailureError.
    """
    f_fn, g_fn = _as_pair(system, "flow verification needs the pair (f, g)")

    def step(x0, y0):
        S, d = x0.shape

        def rhs(z, t):
            x, y = z
            tt = np.full(S, t)
            return np.stack([omega + y + np.asarray(f_fn(x, y, tt)).reshape(S, d),
                             np.asarray(g_fn(x, y, tt)).reshape(S, d)])

        try:
            x1, y1 = extrapolate(rhs, np.stack([x0, y0]), 0.0, dt, tol)
        except StepFailureError as exc:
            raise StepFailureError(f"verification integration failed: {exc}") from None
        return x1, y1

    return step, omega * dt, dt


def _map_advance(system, omega, dt, tol):
    """Apply the map once: a callable A(x, y), or the normal form of a pair (f, g)."""
    Omega = 2.0 * np.pi * omega
    if callable(system):
        return system, Omega, 0.0
    f_fn, g_fn = _as_pair(system, "map verification needs the pair (f, g) or a callable map")

    def apply_map(x, y):
        tt = np.zeros(x.shape[0])
        return (x + Omega + y + np.asarray(f_fn(x, y, tt)).reshape(x.shape),
                y + np.asarray(g_fn(x, y, tt)).reshape(x.shape))

    return apply_map, Omega, 0.0


_FLOW = _Dynamics("flow", _flow_remainder, autonomous=False,
                  fg_parity=("even", "odd"), uv_parity=("odd", "even"), advance=_flow_advance)
_MAP = _Dynamics("map", _map_remainder, autonomous=True,
                 fg_parity=(None, None), uv_parity=(None, None), advance=_map_advance)


def _dynamics(mode) -> _Dynamics:
    """The dynamics object of a mode string; ParameterError for anything else."""
    for dyn in (_FLOW, _MAP):
        if mode == dyn.mode:
            return dyn
    raise ParameterError(f"mode must be 'flow' or 'map', got {mode!r}")


# --------------------------------------------------------------------------- #
# one Newton step
# --------------------------------------------------------------------------- #

def newton_step(f: FourierField, g: FourierField, freq: Frequency,
                schedule: Schedule, m: int, mode: str = "flow"):
    """Perform Newton step m: solve, transform, re-expand the remainder.

    Parameters
    ----------
    f, g : FourierField
        Current perturbation pair (m = d components each), defined on the
        domain with strip s[m] and action radius r[m].
    freq : Frequency
        Certified rotation vector.
    schedule : Schedule
        Geometry of the iteration; supplies r[m], r[m+1] and the output
        cutoff N[m+1].
    m : int
        Step index, 0 <= m < schedule.M.
    mode : {"flow", "map"}

    Returns
    -------
    (transform, f_next, g_next, diagnostics)
        transform is the NearIdentityTransform for this step; f_next and
        g_next are the transformed remainders fitted at cutoff N[m+1] on
        the shrunk domain; diagnostics holds exactly the step columns of
        a convergence row, the keys of _NO_STEP.
    """
    dyn = _dynamics(mode)
    if not 0 <= m < schedule.M:
        raise ParameterError(f"step index {m} outside schedule of {schedule.M} steps")
    d = f.d
    if g.d != d or f.m != d or g.m != d:
        raise ShapeError("newton_step expects m = d vector fields f, g")
    if d != schedule.d:
        raise ShapeError(f"field dimension {d} does not match schedule d = {schedule.d}")

    r_m = float(schedule.r[m])
    r_next = float(schedule.r[m + 1])
    N_m = max(f.N, g.N)
    N_next = int(schedule.N[m + 1])
    q_y_fit = max(f.q_y, g.q_y, 1)

    # Fitting grid: wide enough that the polynomial part of the transformed
    # remainder (bandwidth <= 2 N_m + N_next plus a margin for composition
    # tails) does not alias into the retained modes.
    n_fit = max(N_next + 2 * N_m + 16, 2 * N_next + 2, 2 * (N_m + 8) + 2)
    N_UV = min(N_m + 8, (n_fit - 1) // 2)

    sol = dyn.solve(f, g, freq)
    u, v, g_mean, min_div = sol.u, sol.v, sol.g_mean, sol.min_divisor

    # Sample the new perturbation on (angle/time grid) x (action nodes in
    # the shrunk ball) by inverting the generator at each node.  Samples
    # are stacked in sheets of S grid nodes, one sheet per action node.
    n_t = dyn.time_slots(n_fit)
    grid_shape = (n_fit,) * d + (n_t,)
    S = n_fit ** d * n_t
    y_nodes = default_action_nodes(d, q_y_fit, r_next)
    n_y = len(y_nodes)
    eta = np.repeat(y_nodes, S, axis=0)
    taylor = [0]  # largest Taylor order of the step's jets, which are not kept

    def on_grid(h):
        return _OrderedJet(h, n_fit, n_t, taylor)

    u_jet, v_jet = on_grid(u), on_grid(v)
    dx, dy = np.empty((n_y * S, d)), np.empty((n_y * S, d))
    iters = 0
    for iy in range(n_y):
        sheet = slice(iy * S, (iy + 1) * S)
        dx[sheet], dy[sheet], it = _invert_transform(u_jet, v_jet, eta[sheet])
        iters = max(iters, it)
    ys = eta + dy
    y_excursion = float(np.max(np.sqrt(np.sum(ys * ys, axis=1))))
    if y_excursion > _NESTING_SLACK * r_m + 1e-12:
        raise StepFailureError(
            f"step {m}: inverted action values reach |y| = {y_excursion:.3e}, "
            f"far outside the domain radius r = {r_m:.3e}")

    f_vals, g_vals = dyn.remainder(on_grid, f, g, u, v, g_mean, freq, dx, ys)

    def _fit(vals, N_out, parity):
        vals = np.moveaxis(vals.reshape(n_y, S, d), 0, 1)
        return field_from_grid_samples(vals.reshape(grid_shape + (n_y, d)), d, N_out,
                                       q_y_fit, r_next, y_nodes=y_nodes, parity=parity)

    U, V = (_fit(vals, N_UV, p) for vals, p in zip((dx, dy), dyn.uv_parity))
    f_next, g_next = (_fit(vals, N_next, p)
                      for vals, p in zip((f_vals, g_vals), dyn.fg_parity))

    # Cross-check the pair (u, v) / (U, V): pushing the grid forward through
    # xi = x + u and evaluating the fitted inverse there must cancel.
    zero = np.zeros_like(eta)
    u_here = u_jet.evaluate(zero, eta)
    v_here = v_jet.evaluate(zero, eta)
    U_jet, V_jet = on_grid(U), on_grid(V)
    res_u = np.max(np.abs(u_here + U_jet.evaluate(u_here, eta + v_here)))
    res_v = np.max(np.abs(v_here + V_jet.evaluate(u_here, eta + v_here)))
    comp_res = max(float(res_u), float(res_v))
    tol_comp = max(1e-10, 1e-9 * max(u.majorant(r_m), v.majorant(r_m)))
    if comp_res > tol_comp:
        raise StepFailureError(
            f"step {m}: transform composition residual {comp_res:.3e} exceeds "
            f"tolerance {tol_comp:.3e}")

    diagnostics = {"min_divisor": float(min_div), "inversion_iters": iters,
                   "composition_residual": comp_res, "n_fit": n_fit,
                   "y_excursion": y_excursion, "taylor_order": taylor[0]}
    return NearIdentityTransform(u=u, v=v, U=U, V=V), f_next, g_next, diagnostics


# --------------------------------------------------------------------------- #
# full runs
# --------------------------------------------------------------------------- #

@dataclass
class InvarianceReport:
    """Result of checking an embedding against the true dynamics."""

    mode: str
    residual: float
    x_residual: float
    y_residual: float
    samples: int
    dt: float
    tol: float


@dataclass
class ConvergenceReport:
    """Everything a run produces besides the embedding itself.

    rows holds one dict per Newton step (plus a closing row for the final
    state) with the majorants of the carried perturbation on entry, the
    step diagnostics, and the per-step invariance residual when it was
    measured.  failed runs keep the last good chain and embedding.
    """

    mode: str
    omega: np.ndarray
    schedule: Schedule
    rows: list
    chain: list
    embedding: Optional[TorusEmbedding]
    invariance_residual: Optional[float]
    failed: bool = False
    failure: Optional[str] = None
    warnings: list = _dc_field(default_factory=list)

    @property
    def steps_completed(self) -> int:
        return len(self.chain)

    @property
    def final_sup_f(self) -> float:
        return float(self.rows[-1]["sup_f"]) if self.rows else math.nan

    @property
    def final_sup_g(self) -> float:
        return float(self.rows[-1]["sup_g"]) if self.rows else math.nan

    def majorant_sequence(self) -> np.ndarray:
        return np.array([row["sup_f"] for row in self.rows])

    def fitted_order(self) -> float:
        """Slope of log eps_{m+1} against log eps_m over the useful range.

        A quadratic scheme gives 2; the schedule only promises
        1 + mu_tilde.  Entries at the roundoff floor or above 0.1 are
        dropped; returns nan when fewer than two consecutive pairs remain.
        """
        e = self.majorant_sequence()
        keep = (e > 1e-280) & (e < 0.1)
        pairs = [(math.log(e[i]), math.log(e[i + 1]))
                 for i in range(len(e) - 1) if keep[i] and keep[i + 1]]
        if len(pairs) < 2:
            return math.nan
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        return float(np.polyfit(xs, ys, 1)[0])

    def csv_header(self) -> tuple:
        return CONVERGENCE_COLUMNS

    def csv_rows(self) -> list:
        out = []
        for row in self.rows:
            out.append([row.get(col, math.nan) for col in CONVERGENCE_COLUMNS])
        return out

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "omega": [float(w) for w in np.atleast_1d(self.omega)],
            "d": self.schedule.d,
            "M": self.schedule.M,
            "steps_completed": self.steps_completed,
            "final_sup_f": self.final_sup_f,
            "final_sup_g": self.final_sup_g,
            "fitted_order": self.fitted_order(),
            "invariance_residual": (None if self.invariance_residual is None
                                    else float(self.invariance_residual)),
            "failed": self.failed,
            "failure": self.failure,
            "warnings": list(self.warnings),
        }


# The step columns of a convergence row, as they read without a step;
# newton_step's diagnostics hold exactly these keys.
_NO_STEP = {"min_divisor": math.nan, "inversion_iters": 0,
            "composition_residual": math.nan, "n_fit": 0,
            "y_excursion": math.nan, "taylor_order": 0}


def _row(m: int, f: FourierField, g: FourierField, schedule: Schedule) -> dict:
    """Convergence row of the pair (f, g) entering step m, before the step."""
    r = float(schedule.r[m])
    sup_f, sup_g = f.majorant(r), g.majorant(r)
    return {"m": m, "sup_f": sup_f, "sup_g": sup_g,
            "osc_f": f.oscillating_part().majorant(r),
            "osc_g": g.oscillating_part().majorant(r),
            "c_f": sup_f / schedule.eps[m],
            "c_g": sup_g / (schedule.eps[m] * schedule.s[m] ** schedule.d),
            "invariance_residual": math.nan, **_NO_STEP}


def _materialize(h, what: str, d: int, N: int, q_y: int, r: float,
                 autonomous: bool, parity) -> FourierField:
    if isinstance(h, FourierField):
        if h.d != d or h.m != d:
            raise ShapeError(f"{what} must have d = m = {d}")
        return h
    if not callable(h):
        raise ParameterError(f"{what} must be a FourierField or a callable")
    return field_from_function(h, d, d, N, q_y=q_y, r=r, parity=parity,
                               time_independent=autonomous)


def fit_embedding(chain: list, freq: Frequency, r0: float, mode: str,
                  N: int) -> TorusEmbedding:
    """Fit the composed chain at y = 0 to a torus embedding.

    chain lists the NearIdentityTransforms outermost first and applies
    innermost first, so it realizes step0 o step1 o ... o step_{M-1} acting
    on new coordinates.  It is evaluated on the grid of 2N+2 angle nodes
    per axis times the time nodes (all of them for flows, t = 0 for maps,
    whose embedding is autonomous) and the offsets are fitted by FFT.
    """
    dyn = _dynamics(mode)
    d = freq.d
    n = 2 * N + 2
    n_t = dyn.time_slots(n)
    grid_shape = (n,) * d + (n_t,)
    # The chain moves each node by the small offsets its steps add up.
    x = np.zeros((n ** d * n_t, d))
    y = np.zeros_like(x)
    for tr in reversed(chain):
        dx = GridJet(tr.U, n, n_t).evaluate(x, y)
        dy = GridJet(tr.V, n, n_t).evaluate(x, y)
        x, y = x + dx, y + dy
    x_offset, y_field = (field_from_grid_samples(z.reshape(grid_shape + (1, d)), d, N,
                                                 0, 0.0, parity=p)
                         for z, p in zip((x, y), dyn.uv_parity))
    return TorusEmbedding(x_offset=x_offset, y=y_field,
                          omega=np.array(freq.omega, dtype=float),
                          r0=float(r0), mode=mode)


def run_kam(mode: str, f, g, freq: Frequency, schedule: Schedule, *,
            tol: float = 0.0, q_y: int = 2, verify_samples: int = 64,
            verify_dt: float = 1.0, verify_tol: float = 1e-12) -> ConvergenceReport:
    """Run the full Newton iteration for a forced flow or a map.

    mode is "flow", for dx/dt = omega + y + f(x, y, t), dy/dt = g(x, y, t),
    or "map", for x' = x + 2 pi omega + y + f(x, y), y' = y + g(x, y).  f and
    g may be FourierFields (m = d components) or callables (x, y, t) ->
    (S, d); callables are sampled at the finest cutoff of the schedule, at
    t = 0 alone for maps, and the pair is decomposed into band-limited
    pieces fed to the steps one scale at a time.  A map carries the angular
    average of g along rather than solving it away, so a small mean
    survives in g; convergence is measured on the oscillating parts.

    The run stops early once both majorants fall below tol (when tol > 0).
    A step failure ends the run early with the last good chain; the report
    carries the failure text.  After every step the chain so far is fitted
    and checked once with verify_invariance at verify_samples, verify_dt
    and verify_tol (maps ignore verify_dt).  The report's embedding and
    residual, which the last row repeats, are those of the last check, or
    of the identity embedding when no step completed.
    """
    d = schedule.d
    if freq.d != d:
        raise ShapeError(f"frequency dimension {freq.d} does not match schedule d = {d}")
    dyn = _dynamics(mode)
    N_master = int(schedule.N[schedule.M])
    system = (f, g)
    dec_f, dec_g = (decompose(_materialize(h, what, d, N_master, q_y, schedule.r[0],
                                           dyn.autonomous, p), schedule)
                    for h, what, p in zip(system, "fg", dyn.fg_parity))

    warnings = []
    for nu, (pf, pg) in enumerate(zip(dec_f, dec_g)):
        eps = schedule.eps[nu]
        for name, piece, budget in (("f", pf, eps), ("g", pg, eps * schedule.s[nu] ** d)):
            maj = piece.majorant(schedule.r[nu])
            if maj > 10.0 * budget:
                warnings.append(
                    f"{name} piece {nu} has majorant {maj:.3e}, over 10x the budget "
                    f"{budget:.3e}; the schedule may be too optimistic")

    def check(chain):  # each chain is fitted and verified once
        emb = fit_embedding(chain, freq, schedule.r[0], mode, int(schedule.N[0]) + 8)
        return emb, verify_invariance(emb, system, samples=verify_samples,
                                      dt=verify_dt, tol=verify_tol).residual

    chain = []
    cur_f, cur_g = dec_f[0], dec_g[0]
    rows = []
    failure = None

    for m in range(schedule.M):
        row = _row(m, cur_f, cur_g, schedule)
        rows.append(row)
        if tol > 0.0 and max(row["sup_f"], row["sup_g"]) < tol:
            break
        try:
            transform, f_next, g_next, diag = newton_step(
                cur_f, cur_g, freq, schedule, m, mode=mode)
            for name, h in (("f", f_next), ("g", g_next)):
                osc = row["osc_" + name]
                rem = h.oscillating_part().majorant(schedule.r[m + 1])
                if osc > _CONTRACTION_FLOOR and rem > _CONTRACTION_RATIO * osc:
                    raise StepFailureError(
                        f"step {m}: no contraction in {name} ({rem:.3e} after {osc:.3e})")
        except (StepFailureError, SmallDivisorError) as exc:
            failure = str(exc)
            break
        row.update(diag)
        if diag["y_excursion"] > schedule.r[m]:
            warnings.append(
                f"step {m}: action excursion {diag['y_excursion']:.3e} past the "
                f"nominal radius {schedule.r[m]:.3e} (within the jet trust region)")
        chain.append(transform)
        cur_f = f_next + dec_f[m + 1]
        cur_g = g_next + dec_g[m + 1]
        embedding, residual = check(chain)
        row["invariance_residual"] = residual

    if len(chain) == schedule.M:  # neither failed nor stopped at tol
        rows.append(_row(schedule.M, cur_f, cur_g, schedule))
    if not chain:  # the identity embedding, after a failure or a stop at step 0
        embedding, residual = check(chain)
    rows[-1]["invariance_residual"] = residual

    return ConvergenceReport(
        mode=mode, omega=np.array(freq.omega, dtype=float), schedule=schedule,
        rows=rows, chain=chain, embedding=embedding,
        invariance_residual=residual, failed=failure is not None, failure=failure,
        warnings=warnings)


# --------------------------------------------------------------------------- #
# verification
# --------------------------------------------------------------------------- #

def _wrap_angle(delta: np.ndarray) -> np.ndarray:
    return (delta + np.pi) % (2.0 * np.pi) - np.pi


def verify_invariance(embedding: TorusEmbedding, system,
                      samples: int = 64, dt: float = 1.0,
                      tol: float = 1e-12) -> InvarianceReport:
    """Measure how close an embedding is to an invariant torus.

    For flows the embedded circle of initial conditions K(theta, 0) is
    integrated for time dt by Gragg-Bulirsch-Stoer extrapolation
    (``integrators.extrapolate``) at local relative tolerance tol and
    compared against K(theta + omega dt, dt).  For maps the image
    A(K(theta)) is compared against K(theta + 2 pi omega); dt and tol play
    no part.  Angle mismatches are wrapped to (-pi, pi].

    system defines the true dynamics.  Flows take the pair (f, g) of
    fields or callables (x, y, t) -> (S, d).  Maps take either that pair,
    which becomes the normal form A(x, y) = (x + 2 pi omega + y + f,
    y + g) with f and g sampled at t = 0, or a callable
    A(x, y) -> (x1, y1) such as a section map.

    samples must be a positive integer, tol finite and positive, and dt
    finite and nonzero (negative dt integrates backwards), in either mode;
    anything else raises ParameterError.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) \
            or samples < 1:
        raise ParameterError(f"verification samples must be a positive integer, "
                             f"got {samples!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ParameterError(f"verification tolerance must be finite and positive, "
                             f"got {tol!r}")
    if not (math.isfinite(dt) and dt != 0.0):
        raise ParameterError(f"verification time dt must be finite and nonzero, "
                             f"got {dt!r}")
    d = embedding.d
    omega = np.atleast_1d(np.asarray(embedding.omega, dtype=float))
    step, turn, t_end = _dynamics(embedding.mode).advance(system, omega, dt, tol)
    axes = np.meshgrid(*([2.0 * np.pi * np.arange(samples) / samples] * d),
                       indexing="ij")
    theta = np.stack([a.ravel() for a in axes], axis=-1)
    S = theta.shape[0]

    x0, y0 = embedding.evaluate(theta, np.zeros(S))
    x1, y1 = step(x0, y0)
    x_target, y_target = embedding.evaluate(theta + turn, np.full(S, t_end))
    x_res = float(np.max(np.abs(_wrap_angle(np.asarray(x1) - x_target))))
    y_res = float(np.max(np.abs(np.asarray(y1) - y_target)))
    return InvarianceReport(mode=embedding.mode, residual=max(x_res, y_res),
                            x_residual=x_res, y_residual=y_res,
                            samples=samples, dt=float(dt), tol=float(tol))


def rotation_number(map_fn: Callable, z0, n_iter: int = 4096):
    """Weighted Birkhoff estimate of the rotation vector of an orbit.

    The exponential bump w(t) = exp(-1 / (t (1 - t))) weights the angle
    increments (x_{j+1} - x_j) / 2 pi; on a smooth quasiperiodic orbit the
    average converges faster than any power of 1/n_iter.  map_fn maps
    (x, y) arrays of shape (1, d) to the next point; z0 = (x0, y0).
    """
    x = np.atleast_1d(np.asarray(z0[0], dtype=float)).reshape(1, -1)
    y = np.atleast_1d(np.asarray(z0[1], dtype=float)).reshape(1, -1)
    d = x.shape[1]
    acc = np.zeros(d)
    wsum = 0.0
    for j in range(n_iter):
        x1, y1 = map_fn(x, y)
        x1 = np.asarray(x1, dtype=float).reshape(1, d)
        y1 = np.asarray(y1, dtype=float).reshape(1, d)
        tj = (j + 1.0) / (n_iter + 1.0)
        w = math.exp(-1.0 / (tj * (1.0 - tj)))
        acc += w * (x1 - x).ravel() / (2.0 * np.pi)
        wsum += w
        x, y = x1, y1
    rot = acc / wsum
    return float(rot[0]) if d == 1 else rot
