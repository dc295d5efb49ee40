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
vector field, growth-class estimates for the perturbation terms, the
period-1 Poincare section, and a long-time stability experiment in the
original plane variables.
"""

import math
from dataclasses import dataclass, field as _dc_field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, ParameterError
from .integrators import implicit_midpoint_step, yoshida_weights
from .systems import _check_params

__all__ = [
    "Perturbation", "make_perturbation", "LienardProblem", "make_problem",
    "ReferenceOrbit", "compute_reference_orbit", "TransformedSystem",
    "action_angle", "estimate_rho_star", "PClassReport", "p_class_estimate",
    "PoincareResult", "poincare_map", "poincare_reversibility_residual",
    "chain_rule_residual", "StabilityReport", "lagrange_stability_experiment",
]

STABILITY_COLUMNS = ("level", "phase", "ratio", "max_norm", "initial_max",
                     "energy_drift", "failed", "t_fail")

# The stability experiment checks its B orbits once every K steps, on (K, B)
# buffers of their states; this caps K * B, with K = max(1, cap // B).
_STABILITY_BLOCK_ENTRIES = 1 << 15


def _int_power(x, p: int):
    """x ** p for an integer p by repeated multiplication.

    numpy evaluates ``x ** p`` on a float array through libm ``pow``, one
    element at a time, which is an order of magnitude slower than a few
    multiplications.  Each multiplication rounds once, so for p >= 2 the
    result is within p - 1 units in the last place of ``x ** p``.  p < 1
    falls back to ``**``.
    """
    if p < 1:
        return x ** p
    result = x
    for _ in range(p - 1):
        result = result * x
    return result


# --------------------------------------------------------------------------- #
# the problem
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class Perturbation:
    """Forcing pair (f, g); both callables take (x, t) elementwise.

    ``forcing(x, t)`` returns the pair (f(x, t), g(x, t)) for a scalar t in
    one call, computing the time factor once; the stability integrator
    and the angle/action right-hand side call it instead of f and g.  It
    is None for the zero forcing.
    ``p`` and ``q`` declare growth exponents: |f| = O(|x|^p) and
    |g| = O(|x|^q) for large |x|.  They stay None for the zero forcing.
    """

    kind: str
    f: Callable
    g: Callable
    params: dict = _dc_field(default_factory=dict)
    p: Optional[int] = None
    q: Optional[int] = None
    forcing: Optional[Callable] = None


def make_perturbation(kind: str, **params) -> Perturbation:
    """Build a forcing pair by name.

    "none" is the unperturbed control.  "rational_cubic" is the bounded
    reversible pair f = f_amp x cos(2 pi t) / (1 + x^2),
    g = g_amp x^3 cos(2 pi t) / (1 + x^2); both are jointly odd in (x, t).
    "rational_cubic_skew" shifts the forcing phase, deliberately breaking
    the parity so reversibility diagnostics have something to catch.
    "power" is the homogeneous pair f = f_amp x^p cos(2 pi t),
    g = g_amp x^q cos(2 pi t) (defaults p = q = 1); with odd exponents it
    is reversible, and homogeneity makes its pushed-forward growth classes
    exact, which the class estimator tests lean on.  Parameters the kind
    does not take raise ParameterError.
    """
    if kind == "none":
        _check_params(kind, params, ())

        def f(x, t):
            return np.zeros_like(np.asarray(x, dtype=float))

        return Perturbation(kind=kind, f=f, g=f, params={})
    if kind == "power":
        _check_params(kind, params, ("f_amp", "g_amp", "p", "q"))
        f_amp = float(params.get("f_amp", 0.05))
        g_amp = float(params.get("g_amp", 0.05))
        p = int(params.get("p", 1))
        q = int(params.get("q", 1))

        def f(x, t):
            x = np.asarray(x, dtype=float)
            return f_amp * _int_power(x, p) * np.cos(2.0 * np.pi * np.asarray(t))

        def g(x, t):
            x = np.asarray(x, dtype=float)
            return g_amp * _int_power(x, q) * np.cos(2.0 * np.pi * np.asarray(t))

        def forcing(x, t):
            c = math.cos(2.0 * math.pi * t)
            return (f_amp * c) * _int_power(x, p), (g_amp * c) * _int_power(x, q)

        return Perturbation(kind=kind, f=f, g=g,
                            params={"f_amp": f_amp, "g_amp": g_amp, "p": p, "q": q},
                            p=p, q=q, forcing=forcing)
    if kind in ("rational_cubic", "rational_cubic_skew"):
        skew = kind == "rational_cubic_skew"
        _check_params(kind, params, ("f_amp", "g_amp") + (("phase",) if skew else ()))
        f_amp = float(params.get("f_amp", 0.05))
        g_amp = float(params.get("g_amp", 0.05))
        phase = float(params.get("phase", 0.4)) if skew else 0.0

        def f(x, t):
            x = np.asarray(x, dtype=float)
            return f_amp * x * np.cos(2.0 * np.pi * np.asarray(t) + phase) / (1.0 + x * x)

        def g(x, t):
            x = np.asarray(x, dtype=float)
            return g_amp * x ** 3 * np.cos(2.0 * np.pi * np.asarray(t) + phase) / (1.0 + x * x)

        def forcing(x, t):
            c = math.cos(2.0 * math.pi * t + phase)
            x2 = x * x
            ratio = x / (1.0 + x2)
            return (f_amp * c) * ratio, (g_amp * c) * (x2 * ratio)

        return Perturbation(kind=kind, f=f, g=g,
                            params={"f_amp": f_amp, "g_amp": g_amp, "phase": phase},
                            p=0, q=1, forcing=forcing)
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
        return y, (-self.restoring(x)
                   - self.perturbation.f(x, t) * y - self.perturbation.g(x, t))

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
        for name, fn, declared, admissible in (
                ("f", pert.f, pert.p, self.n - 1),
                ("g", pert.g, pert.q, 2 * self.n - 1)):
            vals = np.asarray(fn(X, T), dtype=float)
            scale = float(np.max(np.abs(vals)))
            if scale > 0.0:
                odd_x = float(np.max(np.abs(vals + fn(-X, T)))) / scale
                even_t = float(np.max(np.abs(vals - fn(X, -T)))) / scale
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
            sups = np.max(np.abs(np.asarray(fn(XT, TT), dtype=float)), axis=1)
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
    revolution time T0.  closure_error records how far the generating
    integration landed from its start after one period, symmetry_defect
    the size of the parity components removed by projection.

    coeffs_x and coeffs_y hold the complex modes -K..K; every evaluation
    is the real part of their sum, taken as one real series in the phase
    phi = 2 pi s / T0: a table [1, cos(k phi), sin(k phi)], k = 1..K, built
    once per call, times a (4, 2K + 1) weight matrix whose rows give x0,
    y0, dx0 and dy0 (derivatives in s).
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

    def _series(self, phi, rows: slice):
        """The weight rows ``rows`` of the series at phases phi, one table."""
        phi = np.asarray(phi, dtype=float)
        K = (self._weights.shape[1] - 1) // 2
        arg = np.multiply.outer(phi.ravel(), np.arange(1.0, K + 1))
        table = np.empty((arg.shape[0], 2 * K + 1))
        table[:, 0] = 1.0
        np.cos(arg, out=table[:, 1:K + 1])
        np.sin(arg, out=table[:, K + 1:])
        vals = self._weights[rows] @ table.T
        return tuple(v.reshape(phi.shape) for v in vals)

    def _at(self, s, rows):
        phi = (2.0 * np.pi / self.period) * np.asarray(s, dtype=float)
        return self._series(phi, rows)

    def angle_data(self, theta, derivatives: bool = False):
        """(x0, y0) at the angle theta = 2 pi s / T0, from one table.

        With ``derivatives`` also dx0 and dy0 (in s) from the same table.
        """
        return self._series(theta, slice(0, 4 if derivatives else 2))

    def x0(self, s):
        return self._at(s, slice(0, 1))[0]

    def y0(self, s):
        return self._at(s, slice(1, 2))[0]

    def dx0(self, s):
        return self._at(s, slice(2, 3))[0]

    def dy0(self, s):
        return self._at(s, slice(3, 4))[0]

    def amplitude(self, samples: int = 4096) -> float:
        s = self.period * np.arange(samples) / samples
        return float(np.max(np.abs(self.x0(s))))

    def energy_residual(self, samples: int = 2048) -> float:
        """sup |(n+1) y0^2 + x0^(2n+2) - (n+1)| over one period."""
        s = self.period * np.arange(samples) / samples
        x0, y0 = self._at(s, slice(0, 2))
        E = (self.n + 1) * y0 ** 2 + x0 ** (2 * self.n + 2)
        return float(np.max(np.abs(E - (self.n + 1))))

    def periodicity_residual(self) -> float:
        return float(self.closure_error)


def _quarter_period(n: int, rtol: float = 1e-13) -> float:
    """Time for the orbit from (0, 1) to reach its turning point y = 0."""

    def rhs(t, z):
        return [z[1], -z[0] ** (2 * n + 1)]

    def turning(t, z):
        return z[1]

    turning.terminal = True
    turning.direction = -1.0
    sol = solve_ivp(rhs, (0.0, 10.0), [0.0, 1.0], method="DOP853",
                    events=turning, rtol=rtol, atol=1e-15)
    if not sol.t_events[0].size:
        raise ParameterError(f"no turning point found for n = {n}")
    return float(sol.t_events[0][0])


def compute_reference_orbit(n: int, n_samples: int = 8192,
                            rtol: float = 1e-13) -> ReferenceOrbit:
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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    if (isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer))
            or n_samples // 4 <= 8):
        raise ParameterError(
            f"n_samples must be an integer with n_samples // 4 > 8, got {n_samples!r}")
    n = int(n)
    n_samples = int(n_samples)
    T0 = 4.0 * _quarter_period(n, rtol=rtol)
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
    rho >= rho_star; rhs enforces that floor.
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

    def _drifts(self, theta, rho, t):
        """(F2, F1) from one orbit table and one forcing evaluation.

        The forcing is read at X = c^alpha rho^alpha x0(theta); a scalar t
        takes the perturbation's fused ``forcing`` call, an array t (or a
        perturbation without one) takes f and g.
        """
        x0, y0 = self.orbit.angle_data(theta)
        ca = self.c ** self.alpha
        ra = rho ** self.alpha
        X = ca * ra * x0
        pert = self.problem.perturbation
        if pert.forcing is not None and np.ndim(t) == 0:
            fv, gv = pert.forcing(X, t)
        else:
            fv, gv = pert.f(X, t), pert.g(X, t)
        F1 = -(self.orbit.period / (2.0 * np.pi)) * y0 * (
            self.c * rho * y0 * fv + ca * ra * gv)
        F2 = (self.alpha * self.c * x0 * y0 * fv
              + self.alpha * ca * rho ** (self.alpha - 1.0) * x0 * gv)
        return F2, F1

    def F1(self, theta, rho, t, check_domain: bool = True):
        """Action drift; decays relative to rho by one angular power of x."""
        floor = self.rho_star if check_domain else 0.0
        return self._drifts(theta, self._check_rho(rho, floor, "F1"), t)[1]

    def F2(self, theta, rho, t, check_domain: bool = True):
        """Angle-speed correction on top of the twist."""
        floor = self.rho_star if check_domain else 0.0
        return self._drifts(theta, self._check_rho(rho, floor, "F2"), t)[0]

    def twist(self, rho):
        rho = self._check_rho(rho, 0.0, "twist")
        return self.c0 * rho ** (2.0 * self.beta - 1.0)

    def rhs(self, theta, rho, t, check_domain: bool = True):
        floor = self.rho_star if check_domain else 0.0
        rho = self._check_rho(rho, floor, "rhs")
        F2, F1 = self._drifts(theta, rho, t)
        return self.twist(rho) + F2, F1


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


def estimate_rho_star(evaluator: Callable, gamma: float,
                      rho_grid: Optional[np.ndarray] = None,
                      theta_points: int = 64, t_points: int = 8,
                      factor: float = 2.0) -> float:
    """Smallest action from which the growth bound holds with a factor-2 cushion.

    Computes w(rho) = rho^(-gamma) sup_{theta,t} |evaluator(theta, rho, t)|
    on a grid, takes the plateau value from the largest sampled actions,
    and returns the smallest rho beyond which w never exceeds factor times
    that plateau.  Returns inf when no such onset exists in the sampled
    window.
    """
    if rho_grid is None:
        rho_grid = np.geomspace(0.05, 64.0, 29)
    rho_grid = np.sort(np.asarray(rho_grid, dtype=float))
    thetas = 2.0 * np.pi * np.arange(theta_points) / theta_points
    ts = np.arange(t_points) / t_points
    TH, TT = np.meshgrid(thetas, ts, indexing="ij")
    TH, TT = TH.ravel(), TT.ravel()
    w = np.empty(len(rho_grid))
    for i, rho in enumerate(rho_grid):
        vals = np.asarray(evaluator(TH, np.full_like(TH, rho), TT))
        w[i] = rho ** (-gamma) * float(np.max(np.abs(vals)))
    tail = w[2 * len(w) // 3:]
    plateau = float(np.median(tail))
    if plateau <= 0.0:
        return float(rho_grid[0])
    ok = w <= factor * plateau
    for i in range(len(w)):
        if ok[i:].all():
            return float(rho_grid[i])
    return math.inf


# --------------------------------------------------------------------------- #
# growth classes
# --------------------------------------------------------------------------- #

@dataclass
class PClassReport:
    """Fitted growth exponents of weighted derivatives of an evaluator.

    Each term dict records the derivative orders (k in theta, l in rho,
    p in t), the weighted sups along the action ladder, and the fitted
    log-log slope.  Membership in the class with power gamma means every
    slope is <= 0 up to fitting noise.
    """

    gamma: float
    rho_samples: np.ndarray
    terms: list
    max_slope: float

    def member(self, tol: float = 0.1) -> bool:
        return self.max_slope <= tol


def _spectral_diff(values: np.ndarray, order: int, axis: int, period: float) -> np.ndarray:
    if order == 0:
        return values
    n = values.shape[axis]
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    shape = [1] * values.ndim
    shape[axis] = n
    mult = (1j * freqs) ** order
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape),
                       axis=axis).real


def p_class_estimate(evaluator: Callable, q: int, p_t: int, gamma: float,
                     rho_samples: Optional[Sequence] = None,
                     theta_points: int = 64, t_points: int = 16,
                     rel_step: float = 1e-2) -> PClassReport:
    """Estimate the growth class of F(theta, rho, t) as rho -> infinity.

    For every derivative combination with k + l <= q angle/action orders
    and up to p_t time orders, the weighted quantity
    rho^(l - gamma) |d^k_theta d^l_rho d^p_t F| is sampled on an action
    ladder (default geometric, 1 to 64) and its log-log growth slope
    fitted.  Angle and time derivatives are spectral on periodic grids;
    action derivatives use central differences with relative step
    rel_step.  Terms whose sups sit at roundoff get slope -inf.
    """
    if q < 0 or p_t < 0:
        raise ParameterError("derivative orders must be nonnegative")
    if rho_samples is None:
        rho_samples = np.geomspace(1.0, 64.0, 13)
    rho_samples = np.asarray(rho_samples, dtype=float)
    thetas = 2.0 * np.pi * np.arange(theta_points) / theta_points
    ts = np.arange(t_points) / t_points
    TH, TT = np.meshgrid(thetas, ts, indexing="ij")
    TH_f, TT_f = TH.ravel(), TT.ravel()

    def grid_eval(rho_val: float) -> np.ndarray:
        vals = np.asarray(evaluator(TH_f, np.full_like(TH_f, rho_val), TT_f),
                          dtype=float)
        return vals.reshape(theta_points, t_points)

    terms = []
    for l in range(q + 1):
        # central stencil of width l+1 (binomial weights) in the action
        offsets = l / 2.0 - np.arange(l + 1)
        stencil = np.array([(-1.0) ** j * math.comb(l, j) for j in range(l + 1)])
        sups_by_kp = {}
        for rho in rho_samples:
            h = rel_step * rho
            acc = None
            for off, wgt in zip(offsets, stencil):
                block = grid_eval(rho + off * h)
                acc = wgt * block if acc is None else acc + wgt * block
            D_l = acc / h ** l if l else acc
            for k in range(q - l + 1):
                Dk = _spectral_diff(D_l, k, axis=0, period=2.0 * np.pi)
                for p in range(p_t + 1):
                    Dkp = _spectral_diff(Dk, p, axis=1, period=1.0)
                    weight = rho ** (l - gamma)
                    sups_by_kp.setdefault((k, p), []).append(
                        weight * float(np.max(np.abs(Dkp))))
        for (k, p), sups in sorted(sups_by_kp.items()):
            sups = np.asarray(sups)
            if np.max(sups) < 1e-250:
                slope = -math.inf
            else:
                slope = float(np.polyfit(np.log(rho_samples),
                                         np.log(np.maximum(sups, 1e-300)), 1)[0])
            terms.append({"k": k, "l": l, "p": p, "slope": slope,
                          "sups": sups.tolist()})
    finite = [t["slope"] for t in terms if t["slope"] > -math.inf]
    max_slope = max(finite) if finite else -math.inf
    return PClassReport(gamma=float(gamma), rho_samples=rho_samples,
                        terms=terms, max_slope=max_slope)


# --------------------------------------------------------------------------- #
# Poincare section
# --------------------------------------------------------------------------- #

@dataclass
class PoincareResult:
    theta: np.ndarray
    rho: np.ndarray
    escaped: np.ndarray
    n_steps: int


def poincare_map(system: TransformedSystem, theta, rho, n_steps: int = 256,
                 tol: float = 1e-14) -> PoincareResult:
    """Period-1 return map of the angle/action system, implicit midpoint.

    The stepper is time-symmetric, so the discrete section map inherits
    the reversibility P G P = G with G(theta, rho) = (-theta, rho) up to
    the inner solve tolerance.  Samples whose action falls below the
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
        z = implicit_midpoint_step(rhs, z, k * h, h, tol=tol)
        newly = (~escaped) & (z[..., 1] < floor)
        escaped |= newly
    return PoincareResult(theta=z[..., 0], rho=z[..., 1],
                          escaped=escaped, n_steps=n_steps)


def poincare_reversibility_residual(system: TransformedSystem,
                                    thetas: Optional[np.ndarray] = None,
                                    rhos: Optional[np.ndarray] = None,
                                    n_steps: int = 256,
                                    tol: float = 1e-14) -> float:
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
    first = poincare_map(system, TH, RH, n_steps=n_steps, tol=tol)
    second = poincare_map(system, -first.theta, first.rho, n_steps=n_steps, tol=tol)
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
    control drops to a plain kick-drift-kick.  The closing half-kick of one
    substep and the opening half-kick of the next see the same point, so
    the forces are evaluated once there.  Each orbit reports the ratio of
    its all-time excursion max |x| + |y| to the same max over the initial
    window t <= t_ref (default min(10, t_max)); an orbit that leaves
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
    restoring = problem.restoring
    pert = problem.perturbation
    forcing = pert.forcing
    if forcing is None and pert.kind != "none":
        def forcing(x, t):
            return pert.f(x, t), pert.g(x, t)
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

    weights = yoshida_weights(order)
    k_ref = int(math.ceil(t_ref / dt))
    cap = 1e6
    K = max(1, _STABILITY_BLOCK_ENTRIES // B)
    xs = np.empty((K, B))
    ys = np.empty((K, B))

    def step(x, y, r, t_sub):
        """One composed step from (x, y) with r = restoring(x)."""
        if forcing is None:
            for w in weights:
                h = w * dt
                half = 0.5 * h
                y = y - half * r
                x = x + h * y
                r = restoring(x)
                y = y - half * r
            return x, y, r
        fv, gv = forcing(x, t_sub)
        for w in weights:
            h = w * dt
            half = 0.5 * h
            y = (y - half * (r + gv)) / (1.0 + half * fv)
            x = x + h * y
            t_sub += h
            r = restoring(x)
            fv, gv = forcing(x, t_sub)
            y = y - half * (r + fv * y + gv)
        return x, y, r

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = restoring(x)
        for k0 in range(0, n_steps, K):
            count = min(K, n_steps - k0)
            x_start, y_start = x, y
            for j in range(count):
                x, y, r = step(x, y, r, (k0 + j) * dt)
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
                r = restoring(x)

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
