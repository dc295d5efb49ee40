"""Quadratically convergent Newton iteration for invariant tori.

The target systems are the reversible plane models

    flow:  dx/dt = omega + y + f(x, y, t),   dy/dt = g(x, y, t)
    map:   x' = x + Omega + y + f(x, y),     y' = y + g(x, y),  Omega = 2 pi omega

with f even and g odd under (x, t) -> (-x, -t) in the flow case, and the
analogous reversibility for maps.  The iteration carries one field F.
Step m solves the linearized (homological) equations for its head
H = S_{s[m]} F, changes coordinates by the near-identity transform they
generate, and re-expands all of F, the rest F - H included, on a shrinking
analyticity schedule.  The output is a chain of transforms whose
composition embeds an invariant torus with rotation vector omega.

Flows and maps share one iteration.  The ``mode`` string ("flow" or "map")
selects one of two private dynamics objects, ``_FLOW`` and ``_MAP``, which
supply only what differs: the input system as a pair callable, the
homological solve, the transformed remainder on grid jets, the number of
time slots (autonomous map fields have one), the parity tags of (f, g) and
(U, V), and one step of the true dynamics for the invariance check.  Either
system is one callable: a flow fg(x, y, t) -> (S, 2d), f then g, a map
A(x, y) -> (x1, y1) whose f = wrap(x1 - x - Omega - y) and g = y1 - y.

Each pair, the perturbation (f, g), the generator (u, v), its fitted
inverse (U, V) and the embedding's (x_offset, y), is one FourierField of
2d components, the first half then the second, from the sampling of the
input system to the step's output; only the diagnostics (convergence
rows, budget warnings and the contraction check, all on heads) and the
embedding file take a pair apart.  The next F is formed point by point
from grid-jet values at the inverted sample points, in the sheets of grid
nodes (one per action node) that the FFT fit reads: the rest F - H plus,
for flows, products of F and the first derivatives of u and v, for maps,
differences of the shifted generators.  A step builds one grid jet per
pair, (u, v) (also the flow's first derivatives), F - H, F (for maps with
g_mean and the shifted generators) and (U, V), and fits (U, V) and F.
A flow's pairs are all tagged, so its jets run on the rows j = 0..n//2 of
the leading angle only, and the fits read samples that the tags unfold
to the whole grid (:func:`fields.unfold_samples`).
"""

import inspect
import math
from dataclasses import dataclass, field as _dc_field, replace
from typing import Callable, Optional

import numpy as np

from . import homological, persistence
from .diophantine import Frequency
from .errors import (ParameterError, PersistenceError, ShapeError,
                     SmallDivisorError, StepFailureError, positive_count)
from .fields import (FourierField, GridJet, default_action_nodes, field_from_function,
                     field_from_grid_samples, fundamental_rows, stack_components,
                     unfold_samples)
from .integrators import extrapolate
from .smoothing import cutoff, smooth

__all__ = [
    "Schedule", "make_schedule", "TorusEmbedding", "ConvergenceReport", "newton_step",
    "run_kam", "fit_embedding", "verify_invariance", "load_embedding", "rotation_number",
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
    """The sequences driving the iteration, and the values they fix.

    eps[m] is the error budget entering step m, s[m] the analyticity strip
    width and r[m] the action radius, each of one length M + 1 >= 2 (else
    ShapeError), so step m maps index m to m + 1.  The widths s lie in
    (0, 1] and never increase (else ParameterError).  M, the mode cutoffs
    N[m] = cutoff(s[m]) and the superlinear rate mu_tilde of (d, mu)
    (:func:`_exponents`) are worked out once; :func:`make_schedule`
    builds the paper's sequences.
    """

    d: int
    mu: float
    eps: np.ndarray
    s: np.ndarray
    r: np.ndarray
    mu_tilde: float = _dc_field(init=False)
    M: int = _dc_field(init=False)
    N: tuple = _dc_field(init=False)

    def __post_init__(self):
        lengths = tuple(len(getattr(self, name)) for name in ("eps", "s", "r"))
        if len(set(lengths)) > 1 or lengths[0] < 2:
            raise ShapeError(f"schedule sequences eps, s and r need one length of at "
                             f"least 2, got {lengths}")
        s = [float(sv) for sv in self.s]
        if not all(0.0 < b <= a <= 1.0 for a, b in zip([1.0] + s, s)):
            raise ParameterError(f"strip widths s must lie in (0, 1] and never increase: {s}")
        derived = dict(mu_tilde=_exponents(self.d, self.mu)[2], M=lengths[0] - 1,
                       N=tuple(cutoff(float(sv)) for sv in self.s))
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _exponents(d: int, mu: float) -> tuple:
    """(ell, tau, mu_tilde) of the smoothness budget.

    ell = 2 d + 1 + mu, tau = d + mu / 100 and the superlinear rate
    mu_tilde = mu / (100 (2 tau + 1 + mu)).
    """
    ell = 2.0 * d + 1.0 + mu
    tau = d + mu / 100.0
    return ell, tau, mu / (100.0 * (2.0 * tau + 1.0 + mu))


def make_schedule(d: int, mu: float, eps0: float, M: int) -> Schedule:
    """Build the paper's loss-of-smoothness schedule for M Newton steps.

    With the exponents of :func:`_exponents`, the sequences follow from
    eps0 as eps_m = eps0^((1 + mu_tilde)^m), s_m = eps_m^(1/ell),
    r_m = s_m^(d + 1 + mu/10).
    """
    d = positive_count(d, "dimension")
    if not 0.0 < mu <= 0.5:
        raise ParameterError(f"smoothness margin mu must lie in (0, 0.5], got {mu}")
    if not 0.0 < eps0 < 1.0:
        raise ParameterError(f"initial error eps0 must lie in (0, 1), got {eps0}")
    M = positive_count(M, "step count M")
    ell, _, mu_tilde = _exponents(d, mu)
    exps = (1.0 + mu_tilde) ** np.arange(M + 1)
    eps = eps0 ** exps
    s = eps ** (1.0 / ell)
    r = s ** (d + 1.0 + mu / 10.0)
    if s[0] > 0.5:
        raise ParameterError(
            f"eps0 = {eps0} gives initial strip s0 = {s[0]:.4f} > 1/2; "
            "choose a smaller initial error")
    return Schedule(d=d, mu=float(mu), eps=eps, s=s, r=r)


# --------------------------------------------------------------------------- #
# transforms and their composition
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TorusEmbedding:
    """Parametrized invariant torus  K(theta, t) = (theta + x_offset, y).

    xy holds x_offset then y as the 2d components of one field.  For
    flows K(theta + omega t, t) follows the trajectories; for maps the
    field is autonomous (time cutoff N_t = 0), the image of K is invariant
    and carries rotation vector omega.  The ``torus-embedding/1`` record
    keeps x_offset and y as two field records.
    """

    xy: FourierField
    omega: np.ndarray
    r0: float
    mode: str

    @property
    def d(self) -> int:
        return self.xy.d

    def evaluate(self, theta, t=None):
        """Embedding values; theta (S, d) (or (S,) for d = 1), t (S,)."""
        theta = np.asarray(theta, dtype=float)
        squeeze = False
        if theta.ndim == 0:
            theta = theta.reshape(1, 1)
            squeeze = True
        elif theta.ndim == 1:
            theta = theta.reshape(-1, 1) if self.d == 1 else theta.reshape(1, -1)
        xy = self.xy.evaluate(theta, None, t)
        x, yv = theta + xy[:, :self.d], xy[:, self.d:]
        if squeeze:
            return x[0], yv[0]
        return x, yv

    def to_dict(self) -> dict:
        d = self.d
        return {
            "format": "torus-embedding/1",
            "mode": self.mode,
            "omega": [float(w) for w in np.atleast_1d(self.omega)],
            "r0": float(self.r0),
            "x_offset": self.xy.components(0, d).to_dict(),
            "y": self.xy.components(d, 2 * d).to_dict(),
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
        missing = {"x_offset", "y", "omega", "r0"} - set(data)
        if missing:
            raise PersistenceError(f"embedding record missing keys {sorted(missing)}")
        parts = []
        for key in ("x_offset", "y"):
            try:
                parts.append(FourierField.from_dict(data[key]))
            except PersistenceError as exc:
                raise PersistenceError(f"{key}: {exc}") from exc
        omega, r0 = data["omega"], data["r0"]
        if not (isinstance(omega, list) and omega and all(map(_finite_number, omega))):
            raise PersistenceError(
                f"embedding record has omega = {omega!r}, needs a list of finite numbers")
        if not _finite_number(r0):
            raise PersistenceError(f"embedding record has r0 = {r0!r}, needs a finite number")
        omega, r0 = np.array(omega, dtype=float), float(r0)
        if any((h.d, h.m) != (len(omega),) * 2 for h in parts):
            raise PersistenceError("embedding component dimensions disagree with omega")
        return cls(xy=stack_components(*parts), omega=omega, r0=r0, mode=mode)


def _finite_number(value) -> bool:
    """True for a finite int or float (a JSON number), not for a bool or a string."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def load_embedding(path) -> TorusEmbedding:
    """Read an embedding file; each field record is checked as it is read.

    :meth:`FourierField.from_dict` checks each record's coefficients
    against reality and the parity tags it declares (within 1e-9 of each
    component's largest coefficient) and projects them exactly, so
    downstream code can rely on the tags.  Violations surface as
    PersistenceError naming the file and the record.
    """
    data = persistence.load_json(path)
    try:
        return TorusEmbedding.from_dict(data)
    except PersistenceError as exc:
        raise PersistenceError(f"{path}: {exc}") from exc


class _OrderedJet:
    """A GridJet that folds its Taylor order into a shared running maximum.

    A Newton step reports the largest order its jets used; keeping that
    maximum (a one-entry list) instead of the jets frees each jet after
    its last use.
    """

    def __init__(self, field: FourierField, n: int, n_t: int, rows: int, orders: list):
        self.jet, self.field, self.n = GridJet(field, n, n_t, rows), field, n
        self._orders = orders

    def evaluate(self, delta, y=None) -> np.ndarray:
        return self._track(self.jet.evaluate(delta, y))

    def evaluate_with_gradient(self, delta, y) -> tuple:
        return self._track(self.jet.evaluate_with_gradient(delta, y))

    def _track(self, out):
        self._orders[0] = max(self._orders[0], self.jet.max_order)
        return out


def _invert_transform(uv: GridJet, eta):
    """Solve  xi = x + u(x, y, t),  eta = y + v(x, y, t)  for (x, y).

    ``uv`` is one jet of the pair field (u, v), u then v.  (xi, t)
    runs over the nodes of its grid, one sample of ``eta`` per node.
    Plain fixed-point iteration; contraction factor is the size of the
    derivatives of (u, v), far below one for the fields this module
    produces.  The iteration runs on the increments dx = x - xi,
    dy = y - eta rather than on (x, y): forming x and subtracting xi back
    would drown increments near roundoff in the rounding of xi + dx, and
    the fitted transforms at late steps are exactly that small.
    Returns (dx, dy, iterations, uv0), uv0 the values of (u, v) at the
    nodes themselves: the first iterate, negated.
    """
    d = eta.shape[1]
    dx = np.zeros_like(eta)
    dy = np.zeros_like(eta)
    scale = 1.0 + 2.0 * np.pi * (uv.n - 1) / uv.n  # 1 + the largest node angle
    for it in range(1, _INVERT_MAX_ITER + 1):
        w = uv.evaluate(dx, eta + dy)
        if it == 1:
            uv0 = w
        dx_new, dy_new = -w[:, :d], -w[:, d:]
        step = max(float(np.max(np.abs(dx_new - dx))),
                   float(np.max(np.abs(dy_new - dy))))
        dx, dy = dx_new, dy_new
        if step <= _INVERT_TOL * scale:
            return dx, dy, it, uv0
    raise StepFailureError(
        f"transform inversion stalled after {_INVERT_MAX_ITER} iterations "
        f"(last update {step:.3e})")


# --------------------------------------------------------------------------- #
# flows and maps
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class _Dynamics:
    """What a forced flow and a map do differently; one instance of each.

    remainder gives the transformed pair (f, g) at the grid nodes moved
    by dx, at actions ys.  Autonomous fields have one time slot.  The
    parity pairs give the tag of each half of the pair fields (f, g) and
    (U, V) (:func:`_pair_tags` spreads them over the components), and tag the
    embedding like (U, V).  An input system is one callable, ``takes``;
    pair gives it as the pair callable fg(x, y, t) -> (S, 2d), f then g,
    which :meth:`sample` fits, and advance returns one step of it, the
    angle the torus turns by and the time it ends at.
    """

    mode: str
    remainder: Callable
    autonomous: bool
    fg_parity: tuple
    uv_parity: tuple
    takes: str
    pair: Callable
    advance: Callable

    def checked(self, system) -> Callable:
        """system if it takes the mode's arguments, (x, y) or (x, y, t); else ParameterError."""
        try:
            inspect.signature(system).bind(*"xyt"[:2 if self.autonomous else 3])
        except TypeError:  # not callable, or not with these arguments
            raise ParameterError(f"{self.mode} mode takes one callable {self.takes}, "
                                 f"not {type(system).__name__}") from None
        except ValueError:  # a callable without a signature to inspect
            pass
        return system

    def sample(self, system, omega, d, N, q_y, r) -> FourierField:
        """Fit the system's pair (f, g) at cutoff N, calling it once per action node."""
        return field_from_function(self.pair(system, omega), d, 2 * d, N, q_y=q_y, r=r,
                                   parity=_pair_tags(self.fg_parity, d),
                                   time_independent=self.autonomous)

    def solve(self, fg, freq) -> "homological.HomologicalSolution":
        """solve_flow or solve_map, looked up at call time so module wrappers apply."""
        return getattr(homological, "solve_" + self.mode)(fg, freq)

    def time_slots(self, n: int) -> int:
        """Time nodes of an n-node grid: all of them, or t = 0 alone."""
        return 1 if self.autonomous else n


def _pair_tags(halves: tuple, d: int):
    """Component tags of a pair field whose halves are tagged ``halves``."""
    return (halves[0],) * d + (halves[1],) * d


def _flow_remainder(jet, uv, fg, g_mean, freq, dx, ys):
    """Transformed remainders in the old variables, as products of jet values.

    T_f = (D_x u)(y + f) + (D_y u) g and T_g likewise with v, at the
    nodes moved by dx and actions ys, as one (S, 2d) array, for the whole
    carried pair fg (newton_step adds the rest).  The values of
    f and g come from one jet of the pair fg, the first derivatives of u
    and v from the step's jet ``uv``; no derivative field is formed.
    """
    d = fg.d
    vals = jet(fg).evaluate(dx, ys)
    W, G = ys + vals[:, :d], vals[:, d:]
    _, d_x, d_y = uv.evaluate_with_gradient(dx, ys)
    return sum(d_x[j] * W[:, j:j + 1] + d_y[j] * G[:, j:j + 1] for j in range(d))


def _map_remainder(jet, uv, fg, g_mean, freq, dx, ys):
    """Differences of the shifted generators along one step of the map.

    x1 = x + Omega + y + f, y1 = y + g with (f, g) the whole carried pair;
    the generators are shifted by the rotation Omega, so every jet offset
    stays small; g_mean is the head's, and newton_step adds the rest.  One
    jet holds f, g, g_mean and the shifted pair (u, v) as components.
    Returns the pair as one (S, 2d) array.
    """
    d = fg.d
    Omega = 2.0 * np.pi * freq.omega
    both = jet(stack_components(fg, g_mean, uv.field.shift_x(Omega)))
    here = both.evaluate(dx, ys)
    shifted = both.evaluate(dx + ys + here[:, :d], ys + here[:, d:2 * d])[:, 3 * d:]
    T = shifted - here[:, 3 * d:]
    T[:, d:] += here[:, 2 * d:3 * d]
    return T


def _wrap_angle(delta: np.ndarray) -> np.ndarray:
    return (delta + np.pi) % (2.0 * np.pi) - np.pi


def _flow_advance(system, omega, dt, tol):
    """Integrate the flow fg over [0, dt] by extrapolation at tolerance tol.

    ``integrators.extrapolate`` holds every component to the local error
    atol + tol |z| with atol = tol * 1e-3.  A non-finite right-hand side, a
    collapsed step size or too many steps raise StepFailureError.
    """
    fg = _FLOW.checked(system)

    def step(x0, y0):
        S, d = x0.shape

        def rhs(z, t):
            x, y = z
            vals = np.asarray(fg(x, y, np.full(S, t))).reshape(S, 2 * d)
            return np.stack([omega + y + vals[:, :d], vals[:, d:]])

        try:
            x1, y1 = extrapolate(rhs, np.stack([x0, y0]), 0.0, dt, tol)
        except StepFailureError as exc:
            raise StepFailureError(f"verification integration failed: {exc}") from None
        return x1, y1

    return step, omega * dt, dt


def _map_advance(system, omega, dt, tol):
    """Apply the map A once; the torus turns by 2 pi omega."""
    return _MAP.checked(system), 2.0 * np.pi * omega, 0.0


def _map_pair(system, omega):
    """The map A as the pair fg(x, y, t): f = wrap(x1 - x - Omega - y), g = y1 - y."""
    A, Omega = _MAP.checked(system), 2.0 * np.pi * omega

    def fg(x, y, t):
        x1, y1 = A(x, y)
        return np.concatenate([_wrap_angle(np.reshape(x1, x.shape) - x - Omega - y),
                               np.reshape(y1, y.shape) - y], axis=-1)

    return fg


_FLOW = _Dynamics("flow", _flow_remainder, autonomous=False,
                  fg_parity=("even", "odd"), uv_parity=("odd", "even"),
                  takes="fg(x, y, t) -> (S, 2d), f then g",
                  pair=lambda system, omega: _FLOW.checked(system), advance=_flow_advance)
_MAP = _Dynamics("map", _map_remainder, autonomous=True,
                 fg_parity=(None, None), uv_parity=(None, None),
                 takes="A(x, y) -> (x1, y1)",
                 pair=_map_pair, advance=_map_advance)


def _dynamics(mode) -> _Dynamics:
    """The dynamics object of a mode string; ParameterError for anything else."""
    for dyn in (_FLOW, _MAP):
        if mode == dyn.mode:
            return dyn
    raise ParameterError(f"mode must be 'flow' or 'map', got {mode!r}")


# --------------------------------------------------------------------------- #
# one Newton step
# --------------------------------------------------------------------------- #

def newton_step(fg: FourierField, freq: Frequency, schedule: Schedule, m: int,
                mode: str = "flow"):
    """Perform Newton step m: solve the head, transform the whole field.

    Parameters
    ----------
    fg : FourierField
        Current pair F, f then g as the 2d components of one field; the
        step solves its head S_{s[m]} F and carries the rest unsolved.
    freq : Frequency
        Certified rotation vector.
    schedule : Schedule
        Geometry of the iteration; supplies s[m], r[m] and r[m+1].
    m : int
        Step index, 0 <= m < schedule.M.
    mode : {"flow", "map"}

    Returns
    -------
    (UV, fg_next, diagnostics)
        UV is the step's coordinate change x = xi + U(xi, eta, t),
        y = eta + V(xi, eta, t): the fitted inverse of the generator (u, v)
        of the homological solve of H (xi = x + u(x, y, t)), U then V as
        one pair field; fg_next is the whole pair F in the new coordinates,
        fitted at fg's cutoff on the shrunk domain; diagnostics holds
        exactly the step columns of a convergence row, the keys of _NO_STEP.

    When every component of the step's pair fields carries a tag (all
    flows), the jets, the inversion, the rest, the remainder and the
    composition check run on the rows j = 0..n_fit//2 of the leading
    angle (:func:`fields.fundamental_rows`), and each fit reads the other
    rows from the tags; the rows that mirror onto themselves must agree
    with the tags, else StructureError (:func:`fields.unfold_samples`).
    Maps and untagged fields use all n_fit rows.
    """
    dyn = _dynamics(mode)
    if not 0 <= m < schedule.M:
        raise ParameterError(f"step index {m} outside schedule of {schedule.M} steps")
    d = fg.d
    if d != schedule.d:
        raise ShapeError(f"field dimension {d} does not match schedule d = {schedule.d}")

    head = smooth(fg, float(schedule.s[m]))
    r_m = float(schedule.r[m])
    r_next = float(schedule.r[m + 1])
    q_y_fit = max(fg.q_y, 1)

    # Fitting grid: wide enough that the polynomial part of the transformed
    # field (bandwidth <= 2 head.N + fg.N plus a margin for composition
    # tails) does not alias into the retained modes.
    n_fit = max(fg.N + 2 * head.N + 16, 2 * fg.N + 2, 2 * (head.N + 8) + 2)

    sol = dyn.solve(head, freq)

    # Sample the new perturbation on (angle/time grid) x (action nodes in
    # the shrunk ball) by inverting the generator at each node.  Samples
    # are stacked in sheets of S grid nodes, one sheet per action node.
    # When every pair is tagged, the sheets hold the rows of the leading
    # angle that the tags determine the others from.
    n_t = dyn.time_slots(n_fit)
    rows = fundamental_rows(n_fit, fg.parity + sol.uv.parity + dyn.fg_parity + dyn.uv_parity)
    grid_shape = (rows,) + (n_fit,) * (d - 1) + (n_t,)
    S = math.prod(grid_shape)
    y_nodes = default_action_nodes(d, q_y_fit, r_next)
    n_y = len(y_nodes)
    eta = np.repeat(y_nodes, S, axis=0)
    taylor = [0]  # largest Taylor order of the step's jets, which are not kept

    def on_grid(h):
        return _OrderedJet(h, n_fit, n_t, rows, taylor)

    uv_jet = on_grid(sol.uv)
    dx, dy, iters, uv_here = _invert_transform(uv_jet, eta)  # uv_here: (u, v) at the nodes
    ys = eta + dy
    y_excursion = float(np.max(np.sqrt(np.sum(ys * ys, axis=1))))
    if y_excursion > _NESTING_SLACK * r_m + 1e-12:
        raise StepFailureError(
            f"step {m}: inverted action values reach |y| = {y_excursion:.3e}, "
            f"far outside the domain radius r = {r_m:.3e}")

    def _fit(vals, N_out, halves):
        tags = _pair_tags(halves, d)
        vals = unfold_samples(vals.reshape((n_y,) + grid_shape + (2 * d,)), n_fit, tags)
        return field_from_grid_samples(vals, d, N_out, q_y_fit, r_next, parity=tags)

    UV = _fit(np.hstack([dx, dy]), head.N + 8, dyn.uv_parity)
    # the rest F - H at the inverted points; its jet is freed before the remainder's is made
    rest = on_grid(fg - head).evaluate(dx, ys)
    fg_next = _fit(dyn.remainder(on_grid, uv_jet, fg, sol.g_mean, freq, dx, ys) + rest,
                   fg.N, dyn.fg_parity)

    # Cross-check the pair (u, v) / (U, V): pushing the grid forward through
    # xi = x + u and evaluating the fitted inverse there must cancel.
    comp_res = float(np.max(np.abs(
        uv_here + on_grid(UV).evaluate(uv_here[:, :d], eta + uv_here[:, d:]))))
    tol_comp = max(1e-10, 1e-9 * sol.uv.majorant(r_m))
    if comp_res > tol_comp:
        raise StepFailureError(
            f"step {m}: transform composition residual {comp_res:.3e} exceeds "
            f"tolerance {tol_comp:.3e}")

    diagnostics = {"min_divisor": float(sol.min_divisor), "inversion_iters": iters,
                   "composition_residual": comp_res, "n_fit": n_fit,
                   "y_excursion": y_excursion, "taylor_order": taylor[0]}
    return UV, fg_next, diagnostics


# --------------------------------------------------------------------------- #
# full runs
# --------------------------------------------------------------------------- #

@dataclass
class ConvergenceReport:
    """Everything a run produces besides the embedding itself.

    rows holds one dict per Newton step (plus a closing row for the final
    state) with the majorants of the carried pair's head on entry, the
    step diagnostics, and the per-step invariance residual when it was
    measured, the last row's being the report's.  chain lists each
    completed step's coordinate change (U, V), as newton_step returns it.
    A run that failed keeps the last good chain and embedding; the
    embedding also carries the run's mode and omega.
    """

    schedule: Schedule
    rows: list
    chain: list
    embedding: TorusEmbedding
    failure: Optional[str] = None
    warnings: list = _dc_field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def invariance_residual(self) -> float:
        """The residual of the report's embedding, as the last row holds it."""
        return self.rows[-1]["invariance_residual"]

    @property
    def steps_completed(self) -> int:
        return len(self.chain)

    def majorant_sequence(self) -> np.ndarray:
        return np.array([row["sup_f"] for row in self.rows])

    def fitted_order(self) -> float:
        """Slope of log eps_{m+1} against log eps_m over the useful range.

        A quadratic scheme gives 2; the schedule only promises
        1 + mu_tilde.  Entries of 0.1 or more are dropped, and so are
        those of 1e-280 or less, a guard against log(0) and underflow, not
        a rounding floor: small late majorants carry the later steps'
        contraction and stay in.  Returns nan when fewer than two
        consecutive pairs remain.
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

    def csv_rows(self) -> list:
        out = []
        for row in self.rows:
            out.append([row.get(col, math.nan) for col in CONVERGENCE_COLUMNS])
        return out

    def summary(self) -> dict:
        last = self.rows[-1]
        return {
            "mode": self.embedding.mode,
            "omega": [float(w) for w in np.atleast_1d(self.embedding.omega)],
            "d": self.schedule.d,
            "M": self.schedule.M,
            "steps_completed": self.steps_completed,
            "final_sup_f": float(last["sup_f"]),
            "final_sup_g": float(last["sup_g"]),
            "fitted_order": self.fitted_order(),
            "invariance_residual": float(self.invariance_residual),
            "failed": self.failed,
            "failure": self.failure,
            "warnings": list(self.warnings),
        }


# The step columns of a convergence row, as they read without a step;
# newton_step's diagnostics hold exactly these keys.
_NO_STEP = {"min_divisor": math.nan, "inversion_iters": 0,
            "composition_residual": math.nan, "n_fit": 0,
            "y_excursion": math.nan, "taylor_order": 0}


def _halves(fg: FourierField) -> tuple:
    """The pair field fg as the two fields f and g, for the diagnostics."""
    return fg.components(0, fg.d), fg.components(fg.d, 2 * fg.d)


def _row(m: int, head: FourierField, schedule: Schedule, warnings: list) -> dict:
    """Convergence row of the head entering step m; a c column over 10 adds a warning."""
    r, eps = float(schedule.r[m]), schedule.eps[m]
    row = {"m": m, "invariance_residual": math.nan, **_NO_STEP}
    for name, h, budget in zip("fg", _halves(head), (eps, eps * schedule.s[m] ** schedule.d)):
        row["sup_" + name] = h.majorant(r)
        row["osc_" + name] = h.oscillating_part().majorant(r)
        row["c_" + name] = row["sup_" + name] / budget
        if row["c_" + name] > 10.0:
            warnings.append(f"{name} head {m} has majorant {row['sup_' + name]:.3e}, over 10x "
                            f"the budget {budget:.3e}; the schedule may be too optimistic")
    return row


def _above_rounding(h: FourierField) -> FourierField:
    """h with every coefficient |c| <= eps max|c| of its component set to zero.

    eps is the float epsilon.  A component whose largest modulus is NaN
    keeps all its coefficients, so a diverged fit stays as it is.
    """
    a = np.abs(h.coeffs)
    floor = np.finfo(float).eps * np.max(a.reshape(-1, h.m), axis=0)
    return replace(h, coeffs=np.where(a <= floor, 0.0, h.coeffs))


def fit_embedding(chain: list, freq: Frequency, r0: float, mode: str) -> TorusEmbedding:
    """Fit the composed chain at y = 0 to a torus embedding.

    chain lists the steps' pair fields (U, V) outermost first and applies
    innermost first, so it realizes step0 o step1 o ... o step_{M-1} acting
    on new coordinates.  The fit's cutoff N is the largest cutoff of the
    chain, 0 for an empty chain (the identity, a zero field).  The
    chain is evaluated on the grid of 2N+2 angle nodes per axis times the
    time nodes (all of them for flows, t = 0 for maps, whose embedding is
    autonomous), with one grid jet per (U, V), and the
    offsets (x, y) are fitted by one FFT as one pair field.  A tagged chain
    (all flows) is evaluated on the rows j = 0..n//2 of the leading angle
    and unfolded to the whole grid by its tags before the fit, as in
    :func:`newton_step`.  Each fitted
    component keeps only its coefficients above eps times its largest
    modulus (eps the float epsilon): the rest are rounding noise of the
    fit, and dropping them makes the embedding that is verified, written
    and reloaded one and the same.
    """
    dyn = _dynamics(mode)
    d = freq.d
    N = max((UV.N for UV in chain), default=0)
    n = 2 * N + 2
    n_t = dyn.time_slots(n)
    tags = _pair_tags(dyn.uv_parity, d)
    rows = fundamental_rows(n, sum((UV.parity for UV in chain), tags))
    grid_shape = (rows,) + (n,) * (d - 1) + (n_t,)
    # The chain moves each node by the small offsets its steps add up.
    xy = np.zeros((math.prod(grid_shape), 2 * d))
    for UV in reversed(chain):
        xy += GridJet(UV, n, n_t, rows).evaluate(xy[:, :d], xy[:, d:])
    xy = unfold_samples(xy.reshape((1,) + grid_shape + (2 * d,)), n, tags)
    fit = field_from_grid_samples(xy, d, N, 0, 0.0, parity=tags)
    return TorusEmbedding(xy=_above_rounding(fit), omega=np.array(freq.omega, dtype=float),
                          r0=float(r0), mode=mode)


def run_kam(mode: str, system, freq: Frequency, schedule: Schedule, *,
            q_y: int = 2, verify_samples: int = 64,
            verify_dt: float = 1.0, verify_tol: float = 1e-12) -> ConvergenceReport:
    """Run the full Newton iteration for a forced flow or a map.

    mode is "flow", for dx/dt = omega + y + f(x, y, t), dy/dt = g(x, y, t),
    or "map", for x' = x + 2 pi omega + y + f(x, y), y' = y + g(x, y).
    system is what verify_invariance takes, one callable: fg(x, y, t) ->
    (S, 2d), f then g, for a flow, A(x, y) -> (x1, y1) for a map.  (f, g)
    is sampled once, at the finest cutoff of the schedule, with one call of
    the system per action node, and carried whole: step m solves its head
    S_{s[m]} F, on which the rows, budget warnings and contraction check
    are measured.  A map carries the angular average of g along rather than
    solving it away, so a small mean survives in g; convergence is measured
    on the oscillating parts.

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
    cur = dyn.sample(system, freq.omega, d, int(schedule.N[schedule.M]), q_y,
                     schedule.r[0])
    head = smooth(cur, float(schedule.s[0]))

    def check(chain):  # each chain is fitted and verified once
        emb = fit_embedding(chain, freq, schedule.r[0], mode)
        return emb, verify_invariance(emb, system, samples=verify_samples,
                                      dt=verify_dt, tol=verify_tol)

    chain = []
    rows = []
    warnings = []
    failure = None

    for m in range(schedule.M):
        row = _row(m, head, schedule, warnings)
        rows.append(row)
        try:
            UV, fg_next, diag = newton_step(cur, freq, schedule, m, mode=mode)
            head_next = smooth(fg_next, float(schedule.s[m + 1]))
            for name, h in zip("fg", _halves(head_next)):
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
        chain.append(UV)
        cur, head = fg_next, head_next
        embedding, residual = check(chain)
        row["invariance_residual"] = residual

    if failure is None:
        rows.append(_row(schedule.M, head, schedule, warnings))
    if not chain:  # the identity embedding, after a failure at step 0
        embedding, residual = check(chain)
    rows[-1]["invariance_residual"] = residual

    return ConvergenceReport(schedule=schedule, rows=rows, chain=chain,
                             embedding=embedding, failure=failure, warnings=warnings)


# --------------------------------------------------------------------------- #
# verification
# --------------------------------------------------------------------------- #

def verify_invariance(embedding: TorusEmbedding, system,
                      samples: int = 64, dt: float = 1.0,
                      tol: float = 1e-12) -> float:
    """How far an embedding is from an invariant torus, as one residual.

    For flows the embedded circle of initial conditions K(theta, 0) is
    integrated for time dt by Gragg-Bulirsch-Stoer extrapolation
    (``integrators.extrapolate``) at local relative tolerance tol and
    compared against K(theta + omega dt, dt).  For maps the image
    A(K(theta)) is compared against K(theta + 2 pi omega); dt and tol play
    no part.  The residual is the largest mismatch of either coordinate
    over the samples, angle mismatches wrapped to (-pi, pi]; a NaN in
    either coordinate makes it NaN.

    system defines the true dynamics, as for run_kam: one callable, fg(x,
    y, t) -> (S, 2d) for a flow and A(x, y) -> (x1, y1), such as a section
    map, called once, for a map.

    samples must be a positive integer, tol finite and positive, and dt
    finite and nonzero (negative dt integrates backwards), in either mode;
    anything else raises ParameterError.
    """
    positive_count(samples, "verification samples")
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
    # np.max keeps a NaN of either coordinate, where the builtin max drops a second one
    return float(np.max([np.max(np.abs(_wrap_angle(np.asarray(x1) - x_target))),
                         np.max(np.abs(np.asarray(y1) - y_target))]))


def rotation_number(map_fn: Callable, z0, n_iter: int = 4096):
    """Weighted Birkhoff estimate of the rotation vector of an orbit.

    The exponential bump w(t) = exp(-1 / (t (1 - t))) weights the angle
    increments (x_{j+1} - x_j) / 2 pi; on a smooth quasiperiodic orbit the
    average converges faster than any power of 1/n_iter, a positive integer
    (else ParameterError).  map_fn maps (x, y) arrays of shape (1, d) to
    the next point; z0 = (x0, y0).
    """
    n_iter = positive_count(n_iter, "iteration count n_iter")
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
