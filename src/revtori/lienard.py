"""Lagrange stability of a periodically forced Lienard-type oscillator.

The plane system is

    dx/dt = y,    dy/dt = -x^(2n+1) - f(x, t) y - g(x, t),

with f and g jointly odd under (x, t) -> (-x, -t) (which makes the flow
reversible with respect to (x, y) -> (-x, y)) and 1-periodic in t.  Away
from the origin the unperturbed part is an oscillator whose period shrinks
with amplitude; rescaling along the reference orbit of x'' + x^(2n+1) = 0
turns the outer dynamics into a twist system in angle/action coordinates
(theta, rho), where invariant tori confine every orbit.  This module
builds the reference orbit, the coordinate change and its pushed-forward
vector field, the period-1 Poincare section, and a long-time stability
experiment in the original plane variables.  A forcing pair (f, g) is one
callable, ``Perturbation.forcing``, which every one of them reads.
"""

import math
from dataclasses import dataclass, field as _dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, ParameterError
from .integrators import implicit_midpoint_step, yoshida_weights
from .systems import _check_params, _int_param

__all__ = [
    "Perturbation", "make_perturbation", "LienardProblem", "make_problem",
    "ReferenceOrbit", "compute_reference_orbit", "TransformedSystem",
    "action_angle", "PoincareResult", "poincare_map",
    "poincare_reversibility_residual", "chain_rule_residual",
    "StabilityReport", "lagrange_stability_experiment",
]

STABILITY_COLUMNS = ("level", "phase", "ratio", "max_norm", "initial_max",
                     "energy_drift", "failed", "t_fail")

# The stability experiment checks its B orbits once every K steps, on (K, B)
# buffers of their states; this caps K * B, with K = max(1, cap // B).
_STABILITY_BLOCK_ENTRIES = 1 << 15

# Relative tolerance of the adaptive solve for the reference orbit's period.
_PERIOD_RTOL = 1e-13


def _int_power(x, p: int):
    """x ** p for an integer p by repeated multiplication.

    numpy evaluates ``x ** p`` on a float array through libm ``pow``, one
    element at a time, which is an order of magnitude slower than a few
    multiplications.  Each multiplication rounds once, so for p >= 2 the
    result is within p - 1 units in the last place of ``x ** p``; the
    products after the first accumulate in place.  p = 1 returns x itself
    and p < 1 falls back to ``**``.
    """
    if p < 1:
        return x ** p
    if p == 1:
        return x
    result = x * x
    for _ in range(p - 2):
        result *= x
    return result


# --------------------------------------------------------------------------- #
# the problem
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Perturbation:
    """Forcing pair (f, g) as one callable.

    ``forcing(x, t)`` returns the pair (f(x, t), g(x, t)) elementwise, as
    new arrays of x's shape, for a scalar t or an array t that broadcasts
    to that shape, computing the time factor once.  ``p`` and ``q``
    declare growth exponents: |f| = O(|x|^p) and |g| = O(|x|^q) for large
    |x|.  They stay None for the zero forcing.
    """

    kind: str
    forcing: Callable
    params: dict = _dc_field(default_factory=dict)
    p: Optional[int] = None
    q: Optional[int] = None


def make_perturbation(kind: str, **params) -> Perturbation:
    """Build a forcing pair by name.

    "none" is the unperturbed control; its forcing returns zeros, and the
    stability experiment never calls it.  "rational_cubic" is the bounded
    reversible pair f = f_amp x cos(2 pi t) / (1 + x^2),
    g = g_amp x^3 cos(2 pi t) / (1 + x^2); both are jointly odd in (x, t).
    "rational_cubic_skew" shifts the forcing phase, deliberately breaking
    the parity so reversibility diagnostics have something to catch.
    "power" is the homogeneous pair f = f_amp x^p cos(2 pi t),
    g = g_amp x^q cos(2 pi t) (defaults p = q = 1); with odd exponents it
    is reversible.  Parameters the kind does not take raise
    ParameterError.
    """
    if kind == "none":
        _check_params(kind, params, ())

        def forcing(x, t):
            zero = np.zeros_like(np.asarray(x, dtype=float))
            return zero, zero

        return Perturbation(kind=kind, forcing=forcing)
    if kind == "power":
        _check_params(kind, params, ("f_amp", "g_amp", "p", "q"))
        f_amp = float(params.get("f_amp", 0.05))
        g_amp = float(params.get("g_amp", 0.05))
        p = _int_param(kind, params, "p", 1)
        q = _int_param(kind, params, "q", 1)

        def forcing(x, t):
            c = np.cos(2.0 * np.pi * t)
            return (f_amp * c) * _int_power(x, p), (g_amp * c) * _int_power(x, q)

        return Perturbation(kind=kind, forcing=forcing,
                            params={"f_amp": f_amp, "g_amp": g_amp, "p": p, "q": q},
                            p=p, q=q)
    if kind in ("rational_cubic", "rational_cubic_skew"):
        skew = kind == "rational_cubic_skew"
        _check_params(kind, params, ("f_amp", "g_amp") + (("phase",) if skew else ()))
        f_amp = float(params.get("f_amp", 0.05))
        g_amp = float(params.get("g_amp", 0.05))
        phase = float(params.get("phase", 0.4)) if skew else 0.0

        def forcing(x, t):
            c = np.cos(2.0 * np.pi * t + phase)
            g = x * x
            f = x / (1.0 + g)
            g *= f
            g *= g_amp * c
            f *= f_amp * c
            return f, g

        return Perturbation(kind=kind, forcing=forcing,
                            params={"f_amp": f_amp, "g_amp": g_amp, "phase": phase},
                            p=0, q=1)
    raise ParameterError(f"unknown perturbation kind {kind!r}")


@dataclass(frozen=True)
class LienardProblem:
    """Power n >= 1 of the restoring force x^(2n+1) plus a forcing pair."""

    n: int
    perturbation: Perturbation

    def __post_init__(self):
        if (not isinstance(self.n, (int, np.integer)) or isinstance(self.n, bool)
                or self.n < 1):
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")

    def restoring(self, x):
        """The restoring force x^(2n+1), as x (x^2)^n."""
        return x * _int_power(x * x, self.n)

    def plane_rhs(self, x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        fv, gv = self.perturbation.forcing(x, t)
        return y, -self.restoring(x) - fv * y - gv

    def energy(self, x, y):
        """(n+1) y^2 + x^(2n+2), conserved when the forcing vanishes."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (self.n + 1) * y * y + _int_power(x * x, self.n + 1)

    def validate(self) -> list:
        """Check the structural assumptions; returns human-readable warnings.

        The confinement argument needs f and g odd in x and even in t
        (which together reverse the flow under (x, y) -> (-x, y)), with
        declared growth exponents p <= n - 1 for f and q <= 2n - 1 for g.
        Parities are sampled on a grid at relative tolerance 1e-10; growth
        is fitted at |x| in {10, 100, 1000} and compared with the declared
        exponent plus 0.2.  Violations come back as warnings, not errors:
        the experiment still runs, it just loses its theoretical safety
        net.
        """
        warnings = []
        xs = np.geomspace(0.25, 64.0, 9)
        tail = np.array([10.0, 100.0, 1000.0])
        ts = np.linspace(0.0, 1.0, 9)[:-1]
        X, T = np.meshgrid(xs, ts, indexing="ij")
        XT, TT = np.meshgrid(tail, ts, indexing="ij")
        pert = self.perturbation
        at, flip_x, flip_t, at_tail = (pert.forcing(x, t) for x, t in (
            (X, T), (-X, T), (X, -T), (XT, TT)))
        for i, (name, declared, admissible) in enumerate((
                ("f", pert.p, self.n - 1), ("g", pert.q, 2 * self.n - 1))):
            vals = np.asarray(at[i], dtype=float)
            scale = float(np.max(np.abs(vals)))
            if scale > 0.0:
                odd_x = float(np.max(np.abs(vals + flip_x[i]))) / scale
                even_t = float(np.max(np.abs(vals - flip_t[i]))) / scale
                if odd_x > 1e-10:
                    warnings.append(
                        f"{name} is not odd in x (relative residual "
                        f"{odd_x:.2e}); the flow is not reversible")
                if even_t > 1e-10:
                    warnings.append(
                        f"{name} is not even in t (relative residual "
                        f"{even_t:.2e}); the flow is not reversible")
            if declared is not None and declared > admissible:
                warnings.append(
                    f"{name} declares growth exponent {declared}, above the "
                    f"admissible {admissible} for n = {self.n}")
            sups = np.max(np.abs(np.asarray(at_tail[i], dtype=float)), axis=1)
            if np.all(sups > 1e-300):
                slope = float(np.polyfit(np.log(tail), np.log(sups), 1)[0])
                allowed = admissible if declared is None else declared
                if slope > allowed + 0.2:
                    warnings.append(
                        f"{name} grows like x^{slope:.2f}, above its declared "
                        f"exponent {allowed}")
        return warnings


def make_problem(n: int, kind: str = "none", **params) -> LienardProblem:
    return LienardProblem(n=n, perturbation=make_perturbation(kind, **params))


# --------------------------------------------------------------------------- #
# reference orbit of x'' + x^(2n+1) = 0
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ReferenceOrbit:
    """Trigonometric interpolant of the orbit of x'' + x^(2n+1) = 0 from (0, 1).

    x0 is odd and y0 even in the time parameter s; period is the full
    revolution time T0, and ``angle_data`` reads the orbit at the phase
    phi = 2 pi s / T0.  closure_error records how far the generating
    integration landed from its start after one period, symmetry_defect
    the size of the parity components removed by projection.

    coeffs_x and coeffs_y hold the complex modes -K..K; every evaluation
    is the real part of their sum, taken as one real series in the phase
    phi = 2 pi s / T0: a table [1, cos(k phi), sin(k phi)], k = 1..K, built
    once per call, times a (4, 2K + 1) weight matrix whose rows give x0,
    y0, dx0 and dy0 (derivatives in s).  The (x0, y0) rows are always
    contracted as one pair and the derivative rows as another, so the
    bits of x0 and y0 do not depend on which rows a caller asks for.
    """

    n: int
    period: float
    coeffs_x: np.ndarray
    coeffs_y: np.ndarray
    closure_error: float
    symmetry_defect: float
    _weights: np.ndarray = _dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = (len(self.coeffs_x) - 1) // 2
        k = np.arange(1, K + 1)
        omega = 2.0 * np.pi / self.period
        values, slopes = [], []
        for coeffs in (self.coeffs_x, self.coeffs_y):
            c = np.asarray(coeffs, dtype=complex)
            # Re sum_k c_k e^(ik phi) = Re c_0 + sum_k>0 cw_k cos + sw_k sin
            cw = (c[K + k] + c[K - k]).real
            sw = (c[K - k] - c[K + k]).imag
            values.append(np.concatenate(([c[K].real], cw, sw)))
            slopes.append(np.concatenate(([0.0], omega * k * sw, -omega * k * cw)))
        object.__setattr__(self, "_weights", np.array(values + slopes))

    def angle_data(self, theta, derivatives: bool = False):
        """(x0, y0) at the angle theta = 2 pi s / T0, from one table.

        With ``derivatives`` also dx0 and dy0 (in s) from the same table.
        """
        phi = np.asarray(theta, dtype=float)
        K = (self._weights.shape[1] - 1) // 2
        arg = np.multiply.outer(phi.ravel(), np.arange(1.0, K + 1))
        table = np.empty((arg.shape[0], 2 * K + 1))
        table[:, 0] = 1.0
        np.cos(arg, out=table[:, 1:K + 1])
        np.sin(arg, out=table[:, K + 1:])
        pairs = (slice(0, 2), slice(2, 4)) if derivatives else (slice(0, 2),)
        return tuple(v.reshape(phi.shape) for rows in pairs
                     for v in self._weights[rows] @ table.T)

    def _period_phases(self, count: int) -> np.ndarray:
        """Phases 2 pi s / T0 of ``count`` equispaced times s in one period."""
        s = self.period * np.arange(count) / count
        return (2.0 * np.pi / self.period) * s

    def amplitude(self) -> float:
        """max |x0| over 4096 samples of one period."""
        x0, _ = self.angle_data(self._period_phases(4096))
        return float(np.max(np.abs(x0)))

    def energy_residual(self) -> float:
        """sup |(n+1) y0^2 + x0^(2n+2) - (n+1)| over 2048 samples of one period."""
        x0, y0 = self.angle_data(self._period_phases(2048))
        E = (self.n + 1) * y0 ** 2 + x0 ** (2 * self.n + 2)
        return float(np.max(np.abs(E - (self.n + 1))))


def _quarter_period(n: int) -> float:
    """Time for the orbit from (0, 1) to reach its turning point y = 0."""

    def rhs(t, z):
        return [z[1], -z[0] ** (2 * n + 1)]

    def turning(t, z):
        return z[1]

    turning.terminal = True
    turning.direction = -1.0
    sol = solve_ivp(rhs, (0.0, 10.0), [0.0, 1.0], method="DOP853",
                    events=turning, rtol=_PERIOD_RTOL, atol=1e-15)
    if not sol.t_events[0].size:
        raise ParameterError(f"no turning point found for n = {n}")
    return float(sol.t_events[0][0])


def compute_reference_orbit(n: int, n_samples: int = 8192) -> ReferenceOrbit:
    """Integrate one period and fit the trigonometric interpolant.

    The period comes from a high-order adaptive solve with an event at the
    turning point (a quarter period, by symmetry); the samples come from a
    sixth-order symmetric composition at fixed step, which keeps the
    energy error at roundoff over a single revolution.  The parity parts
    that should vanish are projected away after measuring them.  The kept
    band reaches up to n_samples // 4 modes and at least 8, so n_samples
    must leave n_samples // 4 > 8.

    The stepping loop runs on Python floats: each stage is the
    kick-drift-kick leapfrog with step w h, and its closing force is the
    next stage's opening force, so it is computed once.  Every operation
    is the one the leapfrog makes, in the same order, so the samples are
    the same floats.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if (isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer))
            or n_samples // 4 <= 8):
        raise ParameterError(
            f"n_samples must be an integer with n_samples // 4 > 8, got {n_samples!r}")
    n = int(n)
    n_samples = int(n_samples)
    T0 = 4.0 * _quarter_period(n)
    h = T0 / n_samples
    stages = [(w * h, 0.5 * (w * h)) for w in yoshida_weights(6).tolist()]
    p = 2 * n + 1

    xs = np.empty(n_samples)
    ys = np.empty(n_samples)
    x, y = 0.0, 1.0
    force = -x ** p
    for j in range(n_samples):
        xs[j] = x
        ys[j] = y
        for hw, half in stages:
            y = y + half * force
            x = x + hw * y
            force = -x ** p
            y = y + half * force
    closure = max(abs(x - 0.0), abs(y - 1.0))

    cx = np.fft.fft(xs) / n_samples
    cy = np.fft.fft(ys) / n_samples
    K_max = n_samples // 4
    mags = np.maximum(np.abs(cx), np.abs(cy))
    tail = np.arange(1, K_max)
    keep = tail[np.maximum(mags[tail], mags[-tail]) > 1e-14 * mags.max()]
    K = max(int(keep.max()) if keep.size else 1, 8)
    idx = np.arange(-K, K + 1) % n_samples
    cx, cy = cx[idx], cy[idx]

    # x0 must be odd (purely imaginary coefficients), y0 even (real).
    defect = max(float(np.max(np.abs(cx.real))), float(np.max(np.abs(cy.imag))))
    cx = 1j * cx.imag
    cy = cy.real + 0j
    return ReferenceOrbit(n=n, period=T0, coeffs_x=cx, coeffs_y=cy,
                          closure_error=closure, symmetry_defect=defect)


# --------------------------------------------------------------------------- #
# angle/action coordinates
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TransformedSystem:
    """The oscillator in scaled angle/action coordinates.

    psi(theta, rho) = (c^alpha rho^alpha x0(phi), c^beta rho^beta y0(phi)),
    phi = theta T0 / 2 pi, with alpha = 1/(n+2), beta = 1 - alpha and
    c = 2 pi / (beta T0).  The pushed-forward equations are

        d theta/dt = c0 rho^(2 beta - 1) + F2(theta, rho, t),
        d rho/dt   = F1(theta, rho, t),

    with c0 = beta c^(2 beta); F1 is jointly odd and F2 jointly even in
    (theta, t).  The class bounds behind the confinement argument hold for
    rho >= rho_star; rhs, the one evaluator of these equations, enforces
    that floor.
    """

    problem: LienardProblem
    orbit: ReferenceOrbit
    rho_star: float
    alpha: float
    beta: float
    c: float
    c0: float

    @property
    def n(self) -> int:
        return self.problem.n

    def _check_rho(self, rho, floor, what: str):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho < floor):
            raise DomainError(
                f"{what}: action {float(np.min(rho)):.6g} below the validity "
                f"floor {floor:.6g}")
        return rho

    def psi(self, theta, rho):
        """Angle/action to plane coordinates; needs rho > 0."""
        rho = self._check_rho(rho, 0.0, "psi")
        x0, y0 = self.orbit.angle_data(theta)
        x = self.c ** self.alpha * rho ** self.alpha * x0
        y = self.c ** self.beta * rho ** self.beta * y0
        return x, y

    def psi_jacobian(self, theta, rho) -> np.ndarray:
        """d(x, y)/d(theta, rho), shape (S, 2, 2); derivatives are spectral."""
        rho = self._check_rho(np.atleast_1d(rho), 0.0, "psi_jacobian")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        T0 = self.orbit.period
        x0, y0, dx0, dy0 = self.orbit.angle_data(theta, derivatives=True)
        ca, cb = self.c ** self.alpha, self.c ** self.beta
        J = np.empty(theta.shape + (2, 2))
        J[..., 0, 0] = ca * rho ** self.alpha * dx0 * T0 / (2.0 * np.pi)
        J[..., 0, 1] = self.alpha * ca * rho ** (self.alpha - 1.0) * x0
        J[..., 1, 0] = cb * rho ** self.beta * dy0 * T0 / (2.0 * np.pi)
        J[..., 1, 1] = self.beta * cb * rho ** (self.beta - 1.0) * y0
        return J

    def twist(self, rho):
        rho = self._check_rho(rho, 0.0, "twist")
        return self.c0 * rho ** (2.0 * self.beta - 1.0)

    def rhs(self, theta, rho, t, check_domain: bool = True):
        """(d theta/dt, d rho/dt) = (twist(rho) + F2, F1).

        One orbit table and one forcing call at X = c^alpha rho^alpha
        x0(theta), for a scalar or an array t.  Actions below rho_star
        raise DomainError, or below 0 when ``check_domain`` is off; the
        twist is evaluated here on the checked actions, so the domain is
        checked once per call.
        """
        floor = self.rho_star if check_domain else 0.0
        rho = self._check_rho(rho, floor, "rhs")
        x0, y0 = self.orbit.angle_data(theta)
        ca = self.c ** self.alpha
        ra = rho ** self.alpha
        fv, gv = self.problem.perturbation.forcing(ca * ra * x0, t)
        F1 = -(self.orbit.period / (2.0 * np.pi)) * y0 * (
            self.c * rho * y0 * fv + ca * ra * gv)
        F2 = (self.alpha * self.c * x0 * y0 * fv
              + self.alpha * ca * rho ** (self.alpha - 1.0) * x0 * gv)
        return self.c0 * rho ** (2.0 * self.beta - 1.0) + F2, F1


def action_angle(problem: LienardProblem, orbit: Optional[ReferenceOrbit] = None,
                 rho_star: float = 0.25) -> TransformedSystem:
    """Build the angle/action system for a problem (reference orbit included)."""
    if not (math.isfinite(rho_star) and rho_star > 0.0):
        raise ParameterError(f"rho_star must be positive and finite, got {rho_star}")
    orbit = orbit if orbit is not None else compute_reference_orbit(problem.n)
    if orbit.n != problem.n:
        raise ParameterError(
            f"reference orbit was computed for n = {orbit.n}, problem has n = {problem.n}")
    n = problem.n
    alpha = 1.0 / (n + 2.0)
    beta = 1.0 - alpha
    c = 2.0 * np.pi / (beta * orbit.period)
    c0 = beta * c ** (2.0 * beta)
    return TransformedSystem(problem=problem, orbit=orbit, rho_star=float(rho_star),
                             alpha=alpha, beta=beta, c=c, c0=c0)


# --------------------------------------------------------------------------- #
# Poincare section
# --------------------------------------------------------------------------- #

@dataclass
class PoincareResult:
    theta: np.ndarray
    rho: np.ndarray
    escaped: np.ndarray


def poincare_map(system: TransformedSystem, theta, rho,
                 n_steps: int = 256) -> PoincareResult:
    """Period-1 return map of the angle/action system, implicit midpoint.

    The stepper is time-symmetric, so the discrete section map inherits
    the reversibility P G P = G with G(theta, rho) = (-theta, rho) up to
    the inner solve tolerance (1e-14).  Samples whose action falls below the
    validity floor are frozen where that happened and flagged escaped
    instead of raising.  n_steps must be a positive integer and the
    samples finite, at least one of them.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float)).copy()
    rho = np.atleast_1d(np.asarray(rho, dtype=float)).copy()
    if theta.shape != rho.shape:
        raise ParameterError("theta and rho must have matching shapes")
    if (isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer))
            or n_steps < 1):
        raise ParameterError(f"n_steps must be a positive integer, got {n_steps!r}")
    if theta.size == 0:
        raise ParameterError("the section map needs at least one sample")
    if not (np.isfinite(theta).all() and np.isfinite(rho).all()):
        raise ParameterError("theta and rho must be finite")
    floor = system.rho_star
    escaped = rho < floor
    z = np.stack([theta, rho], axis=-1)
    h = 1.0 / n_steps

    def rhs(zz, t):
        th = zz[..., 0]
        rh = np.maximum(zz[..., 1], 0.5 * floor)
        td, rd = system.rhs(th, rh, t, check_domain=False)
        out = np.stack([td, rd], axis=-1)
        out[escaped] = 0.0
        return out

    for k in range(n_steps):
        z = implicit_midpoint_step(rhs, z, k * h, h)
        newly = (~escaped) & (z[..., 1] < floor)
        escaped |= newly
    return PoincareResult(theta=z[..., 0], rho=z[..., 1], escaped=escaped)


def poincare_reversibility_residual(system: TransformedSystem,
                                    thetas: Optional[np.ndarray] = None,
                                    rhos: Optional[np.ndarray] = None,
                                    n_steps: int = 256) -> float:
    """sup |P G P (z) - G(z)| over a grid, G(theta, rho) = (-theta, rho).

    Equality is the reversibility of the section map; for the symmetric
    stepper it holds to the inner solve tolerance times the step count.
    Escaped samples make the residual infinite.
    """
    if thetas is None:
        thetas = 2.0 * np.pi * np.arange(8) / 8
    if rhos is None:
        rhos = np.array([0.8, 1.2, 1.8, 2.5])
    TH, RH = np.meshgrid(np.asarray(thetas, float), np.asarray(rhos, float),
                         indexing="ij")
    TH, RH = TH.ravel(), RH.ravel()
    first = poincare_map(system, TH, RH, n_steps=n_steps)
    second = poincare_map(system, -first.theta, first.rho, n_steps=n_steps)
    if first.escaped.any() or second.escaped.any():
        return math.inf
    dtheta = np.angle(np.exp(1j * (second.theta - (-TH))))
    drho = second.rho - RH
    return float(max(np.max(np.abs(dtheta)), np.max(np.abs(drho))))


def chain_rule_residual(system: TransformedSystem, samples: int = 1000,
                        seed: int = 0) -> float:
    """Relative mismatch between the pushed-forward and plane vector fields.

    Draws random (theta, rho, t), evaluates the angle/action right-hand
    side, pushes it through the Jacobian of psi, and compares with the
    plane right-hand side at psi(theta, rho).  Exactness of the coordinate
    change makes this roundoff-plus-interpolant small.
    """
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, samples)
    rho = rng.uniform(max(0.5, system.rho_star), 3.0, samples)
    t = rng.uniform(0.0, 1.0, samples)
    td, rd = system.rhs(theta, rho, t, check_domain=False)
    J = system.psi_jacobian(theta, rho)
    vx = J[:, 0, 0] * td + J[:, 0, 1] * rd
    vy = J[:, 1, 0] * td + J[:, 1, 1] * rd
    x, y = system.psi(theta, rho)
    tx, ty = system.problem.plane_rhs(x, y, t)
    scale = max(float(np.max(np.abs(tx))), float(np.max(np.abs(ty))), 1.0)
    return float(max(np.max(np.abs(vx - tx)), np.max(np.abs(vy - ty)))) / scale


# --------------------------------------------------------------------------- #
# long-time stability in the plane
# --------------------------------------------------------------------------- #

@dataclass
class StabilityReport:
    """Per-orbit excursion ratios from the long-time plane integration."""

    rows: list
    t_max: float
    dt: float
    t_ref: float
    threshold: float
    max_ratio: float
    stable: bool
    warnings: list

    def csv_header(self) -> tuple:
        return STABILITY_COLUMNS

    def csv_rows(self) -> list:
        return [[row.get(col, math.nan) for col in STABILITY_COLUMNS]
                for row in self.rows]

    def summary(self) -> dict:
        return {
            "t_max": self.t_max, "dt": self.dt, "t_ref": self.t_ref,
            "threshold": self.threshold, "max_ratio": self.max_ratio,
            "stable": self.stable, "n_orbits": len(self.rows),
            "n_failed": int(sum(1 for r in self.rows if r["failed"])),
            "warnings": list(self.warnings),
        }


def lagrange_stability_experiment(problem: LienardProblem, t_max: float = 1e4,
                                  dt: float = 1.0 / 64,
                                  levels: Sequence = (1.0, 1.5, 2.0, 2.5, 3.0),
                                  phases: Sequence = (0.0, 0.5 * np.pi, np.pi,
                                                      1.5 * np.pi),
                                  threshold: float = 3.0,
                                  t_ref: Optional[float] = None,
                                  orbit: Optional[ReferenceOrbit] = None,
                                  order: int = 4) -> StabilityReport:
    """Integrate a bundle of orbits for a long time and measure excursions.

    Initial conditions sit on rescaled copies of the reference orbit
    (amplitude factor per level, position per phase).  The integrator is a
    symmetric composition (order 2, 4 or 6) of a split step whose velocity
    half-kick handles the f(x, t) y damping term in closed form, so the
    cost per step is a handful of array operations; the unperturbed
    control (kind "none") drops to a plain kick-drift-kick and never calls
    the forcing.  The closing half-kick of one substep and the opening
    half-kick of the next see the same point, across step boundaries too,
    so the forces are evaluated once per point: a composition of S stages
    calls the forcing S times per step, and again only where a freeze
    resets x.  Each step restarts its stage time from k dt.  The state
    and scratch arrays are allocated once, and every kick and drift
    writes into them, so a step allocates nothing per stage beyond the
    forcing's own result.  Each orbit reports the ratio of its all-time
    excursion max |x| + |y| to the same max over the initial window
    t <= t_ref (default min(10, t_max)); an orbit that leaves
    [-1e6, 1e6] or produces non-finite values is recorded as failed at
    that time and frozen, never raised.  The checks run on blocks of
    steps at once and give the same result as checking after every step.
    """
    if not (math.isfinite(t_max) and math.isfinite(dt)) or t_max <= 0 or dt <= 0:
        raise ParameterError(f"t_max and dt must be positive and finite, "
                             f"got t_max = {t_max}, dt = {dt}")
    if len(levels) == 0 or len(phases) == 0:
        raise ParameterError("levels and phases must each hold at least one value")
    if not (math.isfinite(threshold) and threshold > 0):
        raise ParameterError(f"threshold must be positive and finite, got {threshold}")
    n_steps = int(round(t_max / dt))
    if n_steps < 1:
        raise ParameterError(f"t_max = {t_max} rounds to zero steps of dt = {dt}")
    t_ref = min(10.0, t_max) if t_ref is None else float(t_ref)
    if not (math.isfinite(t_ref) and t_ref >= 0):
        raise ParameterError(f"t_ref must be finite and nonnegative, got {t_ref}")
    orbit = orbit if orbit is not None else compute_reference_orbit(problem.n)
    warnings = problem.validate()

    n = problem.n
    forcing = problem.perturbation.forcing
    unforced = problem.perturbation.kind == "none"
    lam = np.repeat(np.asarray(levels, dtype=float), len(phases))
    phs = np.tile(np.asarray(phases, dtype=float), len(levels))
    x0, y0 = orbit.angle_data(phs)
    x = lam * x0
    y = lam ** (n + 1) * y0
    B = len(x)

    E0 = problem.energy(x, y)
    running = np.abs(x) + np.abs(y)
    initial = running.copy()
    drift = np.zeros(B)
    alive = np.ones(B, dtype=bool)
    t_fail = np.full(B, math.nan)

    k_ref = int(math.ceil(t_ref / dt))
    cap = 1e6
    K = max(1, _STABILITY_BLOCK_ENTRIES // B)
    xs = np.empty((K, B))
    ys = np.empty((K, B))
    x_start = np.empty(B)
    y_start = np.empty(B)

    # Every ufunc below writes into these buffers, and its constants are
    # length-B arrays (per stage h and h/2, and the 1 of the implicit
    # half-kick's denominator), so no call allocates or promotes a scalar.
    # The stage time advances by the Python float h.
    stages = [(np.full(B, h), np.full(B, 0.5 * h), h)
              for h in (float(w) * dt for w in yoshida_weights(order))]
    one = np.ones(B)
    r = np.empty(B)
    sq = np.empty(B)
    a = np.empty(B)
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide

    def restore():
        """r = x^(2n+1) by the multiplications of ``problem.restoring``."""
        mul(x, x, sq)
        p = sq
        for _ in range(n - 1):
            mul(p, sq, r)
            p = r
        mul(x, p, r)

    def kick_drift_kick(fg, t_sub):
        """One composed step of the unforced control; fg stays None."""
        for h, half, _ in stages:
            mul(half, r, a)
            sub(y, a, y)
            mul(h, y, a)
            add(x, a, x)
            restore()
            mul(half, r, a)
            sub(y, a, y)
        return fg

    def split_step(fg, t_sub):
        """One composed step; fg is the forcing at the current point."""
        fv, gv = fg
        for h, half, dh in stages:
            # y = (y - half (r + g)) / (1 + half f)
            add(r, gv, a)
            mul(half, a, a)
            sub(y, a, y)
            mul(half, fv, a)
            add(one, a, a)
            div(y, a, y)
            mul(h, y, a)
            add(x, a, x)
            t_sub += dh
            restore()
            fv, gv = forcing(x, t_sub)
            # y = y - half (r + f y + g)
            mul(fv, y, a)
            add(r, a, a)
            add(a, gv, a)
            mul(half, a, a)
            sub(y, a, y)
        return fv, gv

    step = kick_drift_kick if unforced else split_step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        restore()
        fg = None if unforced else forcing(x, 0.0)
        for k0 in range(0, n_steps, K):
            count = min(K, n_steps - k0)
            np.copyto(x_start, x)
            np.copyto(y_start, y)
            for j in range(count):
                fg = step(fg, (k0 + j) * dt)
                xs[j] = x
                ys[j] = y
            X, Y = xs[:count], ys[:count]
            norm = np.abs(X) + np.abs(Y)
            # norm >= 0, so this is false exactly for NaN, inf and > cap
            bad = ~(norm <= cap) & alive
            hit = bad.any(axis=0)
            first = np.where(hit, bad.argmax(axis=0), count)
            good = (np.arange(count)[:, None] < first) & alive
            running = np.maximum(running, np.where(good, norm, -np.inf).max(axis=0))
            if k0 < k_ref:
                m = min(count, k_ref - k0)
                initial = np.maximum(
                    initial, np.where(good[:m], norm[:m], -np.inf).max(axis=0))
            dE = np.abs(problem.energy(X, Y) - E0) / np.maximum(E0, 1e-300)
            drift = np.maximum(drift, np.where(good, dE, -np.inf).max(axis=0))
            if hit.any():
                idx = np.flatnonzero(hit)
                last = first[idx] - 1
                t_fail[idx] = (k0 + first[idx] + 1) * dt
                alive[idx] = False
                # freeze at the last good state: the row before the first
                # bad one, or the block's start state
                x[idx] = np.where(last >= 0, X[last, idx], x_start[idx])
                y[idx] = np.where(last >= 0, Y[last, idx], y_start[idx])
                restore()
                if not unforced:
                    fv, gv = fg
                    fv[idx], gv[idx] = forcing(x[idx], (k0 + count) * dt)

    rows = []
    for i in range(B):
        ratio = float(running[i] / initial[i]) if alive[i] else math.inf
        rows.append({
            "level": float(lam[i]), "phase": float(phs[i]),
            "ratio": ratio, "max_norm": float(running[i]),
            "initial_max": float(initial[i]),
            "energy_drift": float(drift[i]),
            "failed": bool(~alive[i]),
            "t_fail": float(t_fail[i]),
        })
    finite_ratios = [r["ratio"] for r in rows if math.isfinite(r["ratio"])]
    max_ratio = max(finite_ratios) if finite_ratios else math.inf
    stable = bool(alive.all()) and max_ratio <= threshold
    return StabilityReport(rows=rows, t_max=float(t_max), dt=float(dt),
                           t_ref=t_ref, threshold=float(threshold),
                           max_ratio=max_ratio, stable=stable, warnings=warnings)
