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
experiment in the original plane variables.  A forcing pair (f, g) is a
time factor times a profile in x (``Perturbation``); the section map, the
plane vector field and the structural checks read the pair through
``Perturbation.forcing``, and the stability integrator calls the profile
into its own buffers and the time factor as a Python-float cosine.
"""

import math
from dataclasses import dataclass, field as _dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, ParameterError, check_params, int_param, positive_count
from .integrators import extrapolate, yoshida_weights

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
# buffers of their states; this caps K * B, with K = max(1, cap // B).  At
# 128 KiB a buffer, the checks' half-dozen temporaries fit a 2 MiB L2 cache.
_STABILITY_BLOCK_ENTRIES = 1 << 14

# The section map's local relative tolerance, per extrapolation step.
_SECTION_TOL = 1e-12


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
    """Forcing pair (f, g) = c(t) (f_amp phi(x), g_amp gamma(x)).

    The time factor is c(t) = cos(omega t + phase), with omega = 2 pi for
    every shipped kind; omega = 0 makes it the constant cos(phase).
    ``profile(x, sq, f, g)`` writes phi(x) into f and gamma(x) into g,
    buffers of x's shape, and may read sq = x * x, which the restoring
    force computes anyway.
    ``forcing(x, t)`` is the pair itself, as new arrays, for a scalar t or
    an array t that broadcasts to x's shape; it forms phi (f_amp c), in
    that order, and the stability integrator forms the same products.
    ``p`` and ``q`` declare growth exponents: |f| = O(|x|^p) and
    |g| = O(|x|^q) for large |x|.  They stay None for the zero forcing.
    """

    kind: str
    profile: Callable
    f_amp: float = 0.0
    g_amp: float = 0.0
    omega: float = 2.0 * math.pi
    phase: float = 0.0
    p: Optional[int] = None
    q: Optional[int] = None

    def time_factor(self, t):
        """c(t) = cos(omega t + phase), for a scalar or an array t."""
        return np.cos(self.omega * t + self.phase)

    def forcing(self, x, t):
        """(f(x, t), g(x, t)) elementwise: one profile call, one time factor."""
        x = np.asarray(x, dtype=float)
        f, g = np.empty_like(x), np.empty_like(x)
        self.profile(x, x * x, f, g)
        c = self.time_factor(t)
        return f * (self.f_amp * c), g * (self.g_amp * c)


def make_perturbation(kind: str, **params) -> Perturbation:
    """Build a forcing pair by name.

    "none" is the unperturbed control: a zero profile and zero amplitudes,
    which the stability experiment never calls per step.
    "rational_cubic" is the bounded reversible pair with profile
    phi = x / (1 + x^2), gamma = x^2 phi, so f = f_amp x cos(2 pi t) /
    (1 + x^2) and g = g_amp x^3 cos(2 pi t) / (1 + x^2); both are jointly
    odd in (x, t).  "rational_cubic_skew" shifts the forcing phase,
    deliberately breaking the parity so reversibility diagnostics have
    something to catch.  "power" is the homogeneous pair with profile
    (x^p, x^q), f = f_amp x^p cos(2 pi t), g = g_amp x^q cos(2 pi t)
    (defaults p = q = 1); with odd exponents it is reversible.  Parameters
    the kind does not take raise ParameterError.
    """
    if kind == "none":
        check_params(kind, params, ())

        def profile(x, sq, f, g):
            f.fill(0.0)
            g.fill(0.0)

        return Perturbation(kind=kind, profile=profile)
    if kind == "power":
        check_params(kind, params, ("f_amp", "g_amp", "p", "q"))
        f_amp = float(params.get("f_amp", 0.05))
        g_amp = float(params.get("g_amp", 0.05))
        p = int_param(kind, params, "p", 1)
        q = int_param(kind, params, "q", 1)

        def profile(x, sq, f, g):
            np.copyto(f, _int_power(x, p))
            np.copyto(g, _int_power(x, q))

        return Perturbation(kind=kind, profile=profile, f_amp=f_amp, g_amp=g_amp,
                            p=p, q=q)
    if kind in ("rational_cubic", "rational_cubic_skew"):
        skew = kind == "rational_cubic_skew"
        check_params(kind, params, ("f_amp", "g_amp") + (("phase",) if skew else ()))
        f_amp = float(params.get("f_amp", 0.05))
        g_amp = float(params.get("g_amp", 0.05))
        phase = float(params.get("phase", 0.4)) if skew else 0.0
        one = np.ones(())

        def profile(x, sq, f, g):
            np.add(one, sq, f)
            np.divide(x, f, f)
            np.multiply(sq, f, g)

        return Perturbation(kind=kind, profile=profile, f_amp=f_amp, g_amp=g_amp,
                            phase=phase, p=0, q=1)
    raise ParameterError(f"unknown perturbation kind {kind!r}")


@dataclass(frozen=True)
class LienardProblem:
    """Power n >= 1 of the restoring force x^(2n+1) plus a forcing pair."""

    n: int
    perturbation: Perturbation

    def __post_init__(self):
        positive_count(self.n, "n")

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

    The orbit is read at the angle theta = 2 pi s / T0 of its time s, T0 =
    ``period`` = 4 _quarter_period(n) the full revolution time.  x0 is odd
    and y0 even in theta, so each is one real series over the modes
    k = 0..K: x0 = sum x_sin[k] sin(k theta) (x_sin[0] = 0) and
    y0 = sum y_cos[k] cos(k theta).  closure_error records how far the
    generating integration landed from its start after one period,
    symmetry_defect the size of the parity components removed.
    """

    n: int
    x_sin: np.ndarray
    y_cos: np.ndarray
    closure_error: float
    symmetry_defect: float
    period: float = _dc_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "period", 4.0 * _quarter_period(self.n))

    def angle_data(self, theta, derivatives: bool = False):
        """(x0, y0) at the angle theta, from one table of sin(k theta) and cos(k theta).

        With ``derivatives`` also dx0 and dy0 in theta, from the same
        tables; x0 and y0 are the same contractions either way, so their
        bits do not depend on it.
        """
        theta = np.asarray(theta, dtype=float)
        k = np.arange(len(self.y_cos))
        k_theta = np.multiply.outer(k, theta.ravel())
        sin, cos = np.sin(k_theta), np.cos(k_theta)
        out = (self.x_sin @ sin, self.y_cos @ cos)
        if derivatives:
            out += ((k * self.x_sin) @ cos, -(k * self.y_cos) @ sin)
        return tuple(v.reshape(theta.shape) for v in out)

    def amplitude(self) -> float:
        """max |x0| over 4096 equispaced angles."""
        x0, _ = self.angle_data(2.0 * np.pi * np.arange(4096) / 4096)
        return float(np.max(np.abs(x0)))

    def energy_residual(self) -> float:
        """sup |(n+1) y0^2 + x0^(2n+2) - (n+1)| over 2048 equispaced angles."""
        x0, y0 = self.angle_data(2.0 * np.pi * np.arange(2048) / 2048)
        E = (self.n + 1) * y0 ** 2 + x0 ** (2 * self.n + 2)
        return float(np.max(np.abs(E - (self.n + 1))))


def _quarter_period(n: int) -> float:
    """Time for the orbit from (0, 1) to reach its turning point y = 0.

    The energy (n+1) y^2 + x^(2n+2) = n+1 puts the turning point at
    A = (n+1)^a with a = 1/(2n+2), and the substitution x = A u turns the
    time integral of dx / y into T/4 = A a B(a, 1/2), B the Beta function.
    """
    a = 1.0 / (2 * n + 2)
    beta = math.gamma(a) * math.gamma(0.5) / math.gamma(a + 0.5)
    return (n + 1) ** a * beta * a


def compute_reference_orbit(n: int, n_samples: int = 8192) -> ReferenceOrbit:
    """Integrate one period and fit the trigonometric interpolant.

    The period is four times the closed-form quarter period of
    ``_quarter_period``; the samples come from a sixth-order symmetric
    composition at fixed step, which keeps the energy error at roundoff
    over a single revolution.  The parity parts
    that should vanish are projected away after measuring them.  The kept
    band reaches up to n_samples // 4 modes and at least 8, so n_samples
    must leave n_samples // 4 > 8.

    The stepping loop runs on Python floats: each stage is the
    kick-drift-kick leapfrog with step w h, and its closing force is the
    next stage's opening force, so it is computed once.  Every operation
    is the one the leapfrog makes, in the same order, so the samples are
    the same floats.
    """
    n = positive_count(n, "n")
    if (isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer))
            or n_samples // 4 <= 8):
        raise ParameterError(
            f"n_samples must be an integer with n_samples // 4 > 8, got {n_samples!r}")
    n_samples = int(n_samples)
    h = 4.0 * _quarter_period(n) / n_samples
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

    # x0 must be odd (purely imaginary coefficients), y0 even (real); the
    # modes +-k of what is kept fold into one sine or cosine coefficient.
    defect = max(float(np.max(np.abs(cx.real[idx]))), float(np.max(np.abs(cy.imag[idx]))))
    k = np.arange(1, K + 1)
    x_sin = np.concatenate([[0.0], cx.imag[-k] - cx.imag[k]])
    y_cos = np.concatenate([cy.real[:1], cy.real[k] + cy.real[-k]])
    return ReferenceOrbit(n=n, x_sin=x_sin, y_cos=y_cos,
                          closure_error=closure, symmetry_defect=defect)


# --------------------------------------------------------------------------- #
# angle/action coordinates
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class TransformedSystem:
    """The oscillator in scaled angle/action coordinates.

    psi(theta, rho) = (c^alpha rho^alpha x0(theta), c^beta rho^beta y0(theta)),
    the reference orbit read at the angle theta, with alpha = 1/(n+2),
    beta = 1 - alpha and c = 2 pi / (beta T0).  The pushed-forward equations are

        d theta/dt = c0 rho^(2 beta - 1) + F2(theta, rho, t),
        d rho/dt   = F1(theta, rho, t),

    with c0 = beta c^(2 beta); F1 is jointly odd and F2 jointly even in
    (theta, t).  The class bounds behind the confinement argument hold for
    rho >= rho_star; rhs, the one evaluator of these equations, enforces
    that floor.  alpha, beta, c, c0 and the constants c^alpha, T0 / 2 pi
    and 2 beta - 1 are computed once, when the system is built.
    """

    problem: LienardProblem
    orbit: ReferenceOrbit
    rho_star: float
    alpha: float = _dc_field(init=False)
    beta: float = _dc_field(init=False)
    c: float = _dc_field(init=False)
    c0: float = _dc_field(init=False)
    _ca: float = _dc_field(init=False, repr=False, compare=False)
    _t_2pi: float = _dc_field(init=False, repr=False, compare=False)
    _twist_exp: float = _dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha = 1.0 / (self.n + 2.0)
        beta = 1.0 - alpha
        c = 2.0 * np.pi / (beta * self.orbit.period)
        derived = dict(alpha=alpha, beta=beta, c=c, c0=beta * c ** (2.0 * beta), _ca=c ** alpha,
                       _t_2pi=self.orbit.period / (2.0 * np.pi), _twist_exp=2.0 * beta - 1.0)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.problem.n

    def _check_rho(self, rho, floor, what: str):
        rho = np.asarray(rho, dtype=float)
        if (rho < floor).any():
            raise DomainError(
                f"{what}: action {float(np.min(rho)):.6g} below the validity "
                f"floor {floor:.6g}")
        return rho

    def psi(self, theta, rho):
        """Angle/action to plane coordinates; needs rho > 0."""
        rho = self._check_rho(rho, 0.0, "psi")
        x0, y0 = self.orbit.angle_data(theta)
        x = self._ca * rho ** self.alpha * x0
        y = self.c ** self.beta * rho ** self.beta * y0
        return x, y

    def psi_jacobian(self, theta, rho) -> np.ndarray:
        """d(x, y)/d(theta, rho), shape (S, 2, 2); derivatives are spectral."""
        rho = self._check_rho(np.atleast_1d(rho), 0.0, "psi_jacobian")
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        x0, y0, dx0, dy0 = self.orbit.angle_data(theta, derivatives=True)
        ca, cb = self._ca, self.c ** self.beta
        J = np.empty(theta.shape + (2, 2))
        J[..., 0, 0] = ca * rho ** self.alpha * dx0
        J[..., 0, 1] = self.alpha * ca * rho ** (self.alpha - 1.0) * x0
        J[..., 1, 0] = cb * rho ** self.beta * dy0
        J[..., 1, 1] = self.beta * cb * rho ** (self.beta - 1.0) * y0
        return J

    def twist(self, rho):
        rho = self._check_rho(rho, 0.0, "twist")
        return self.c0 * rho ** self._twist_exp

    def rhs(self, theta, rho, t, check_domain: bool = True):
        """(d theta/dt, d rho/dt) = (twist(rho) + F2, F1).

        One orbit table and one forcing call at X = c^alpha rho^alpha
        x0(theta), for a scalar or an array t.  With u = c y0 f and
        v = c^alpha rho^alpha g,

            F1 = -(T0 / 2 pi) y0 (rho u + v),   F2 = alpha x0 (u + v / rho).

        Actions below rho_star raise DomainError, or below 0 when
        ``check_domain`` is off; the twist is evaluated here on the checked
        actions, so the domain is checked once per call.
        """
        floor = self.rho_star if check_domain else 0.0
        rho = self._check_rho(rho, floor, "rhs")
        x0, y0 = self.orbit.angle_data(theta)
        car = self._ca * rho ** self.alpha
        fv, gv = self.problem.perturbation.forcing(car * x0, t)
        u = self.c * y0 * fv
        v = car * gv
        F1 = (-self._t_2pi * y0) * (rho * u + v)
        F2 = self.alpha * x0 * (u + v / rho)
        return self.c0 * rho ** self._twist_exp + F2, F1


def action_angle(problem: LienardProblem, orbit: Optional[ReferenceOrbit] = None,
                 rho_star: float = 0.25) -> TransformedSystem:
    """Build the angle/action system for a problem (reference orbit included)."""
    if not (math.isfinite(rho_star) and rho_star > 0.0):
        raise ParameterError(f"rho_star must be positive and finite, got {rho_star}")
    orbit = orbit if orbit is not None else compute_reference_orbit(problem.n)
    if orbit.n != problem.n:
        raise ParameterError(
            f"reference orbit was computed for n = {orbit.n}, problem has n = {problem.n}")
    return TransformedSystem(problem=problem, orbit=orbit, rho_star=float(rho_star))


# --------------------------------------------------------------------------- #
# Poincare section
# --------------------------------------------------------------------------- #

@dataclass
class PoincareResult:
    theta: np.ndarray
    rho: np.ndarray
    escaped: np.ndarray


def poincare_map(system: TransformedSystem, theta, rho,
                 n_steps: int = 8) -> PoincareResult:
    """Period-1 return map of the angle/action system.

    The period [0, 1] splits into n_steps equal segments, each one
    ``integrators.extrapolate`` call at local tolerance _SECTION_TOL on
    one (2, S) state.  The segment ends are the escape checkpoints: a
    sample whose action is below the validity floor there gets a zero
    drift (a 0/1 mask) from then on, so it is frozen at that checkpoint
    and flagged escaped instead of raising.  Within a segment the drift
    reads actions clamped to half the floor.  n_steps must be a positive
    integer and the samples finite, at least one of them.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if theta.shape != rho.shape:
        raise ParameterError("theta and rho must have matching shapes")
    positive_count(n_steps, "n_steps")
    if theta.size == 0:
        raise ParameterError("the section map needs at least one sample")
    if not (np.isfinite(theta).all() and np.isfinite(rho).all()):
        raise ParameterError("theta and rho must be finite")
    floor = system.rho_star
    escaped = rho < floor
    live = np.logical_not(escaped).astype(float)
    z = np.array([theta, rho])

    def rhs(zz, t):
        td, rd = system.rhs(zz[0], np.maximum(zz[1], 0.5 * floor), t,
                            check_domain=False)
        return np.array([td * live, rd * live])

    for k in range(n_steps):
        z = extrapolate(rhs, z, k / n_steps, (k + 1) / n_steps, _SECTION_TOL)
        escaped |= z[1] < floor
        np.logical_not(escaped, out=live)
    return PoincareResult(theta=z[0], rho=z[1], escaped=escaped)


def poincare_reversibility_residual(system: TransformedSystem,
                                    thetas: Optional[np.ndarray] = None,
                                    rhos: Optional[np.ndarray] = None,
                                    n_steps: int = 8) -> float:
    """sup |P G P (z) - G(z)| over a grid, G(theta, rho) = (-theta, rho).

    Equality is the reversibility of the period map; the computed section
    map keeps it to about the integration tolerance _SECTION_TOL.  Escaped
    samples make the residual infinite.
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
    warnings: list

    @property
    def max_ratio(self) -> float:
        """The largest finite excursion ratio, inf when there is none."""
        finite_ratios = [r["ratio"] for r in self.rows if math.isfinite(r["ratio"])]
        return max(finite_ratios) if finite_ratios else math.inf

    @property
    def stable(self) -> bool:
        """No orbit failed and no ratio exceeds the threshold."""
        return all(not r["failed"] for r in self.rows) and self.max_ratio <= self.threshold

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
    (amplitude factor per level, finite and nonzero, position per phase,
    finite).  The integrator is a symmetric composition (order 2, 4 or 6)
    of a split step whose velocity
    half-kick handles the f(x, t) y damping term in closed form, so the
    cost per step is a handful of array operations; the unperturbed
    control (kind "none") drops to a plain kick-drift-kick and never calls
    the profile.  The closing half-kick of one substep and the opening
    half-kick of the next see the same point, across step boundaries too,
    so the forces are evaluated once per point: a composition of S stages
    calls the profile S times per step, and forms s = r + g once per point.
    With half-steps h_i, h_j on either side of a drift, the two half-kicks
    inside a step are one update, y <- y - (h_i + h_j) (f y + s) /
    (1 + h_j f), or y <- y - (h_i + h_j) r unforced; a step opens with
    y <- (y - h_0 s) / (1 + h_0 f) and closes with y <- y - h (f y + s),
    because the state is recorded at step boundaries.  Each step restarts
    its stage time from k dt.  The state, the forcing and the scratch
    arrays are allocated once; every kick, drift and profile writes into
    them, and every constant operand is an array (the stage's two time
    factors are 0-d, set in place), so no ufunc call converts a scalar and,
    for the rational kinds, a step allocates no array (the power kind's
    profile forms its powers in temporaries).  Each orbit reports the
    ratio of its all-time excursion max |x| + |y| to the same max over the
    initial window t <= t_ref (default min(10, t_max)); an orbit that leaves
    [-1e6, 1e6] or produces non-finite values is recorded as failed at
    that time, never raised, and its later states count for nothing: it
    runs on with the others, but no maximum or energy spread reads it.
    The checks run on blocks of steps at once: column maxima of |x| + |y|
    and of the energy, and its column minimum, settle every orbit that
    stayed good through the block, and only the columns that went bad look
    for their first bad row.  Maxima are exact and rounding is monotone,
    so every number is the one checking after every step would give,
    whatever the block size.
    """
    if not (math.isfinite(t_max) and math.isfinite(dt)) or t_max <= 0 or dt <= 0:
        raise ParameterError(f"t_max and dt must be positive and finite, "
                             f"got t_max = {t_max}, dt = {dt}")
    if len(levels) == 0 or len(phases) == 0:
        raise ParameterError("levels and phases must each hold at least one value")
    if not all(math.isfinite(v) and v != 0 for v in levels):
        raise ParameterError(f"levels must be finite and nonzero (level 0 is the "
                             f"equilibrium), got {list(levels)}")
    if not all(math.isfinite(v) for v in phases):
        raise ParameterError(f"phases must be finite, got {list(phases)}")
    if not (math.isfinite(threshold) and threshold > 0):
        raise ParameterError(f"threshold must be positive and finite, got {threshold}")
    steps = t_max / dt
    if not math.isfinite(steps):
        raise ParameterError(f"t_max / dt overflows for t_max = {t_max}, dt = {dt}")
    n_steps = int(round(steps))
    if n_steps < 1:
        raise ParameterError(f"t_max = {t_max} rounds to zero steps of dt = {dt}")
    t_ref = min(10.0, t_max) if t_ref is None else float(t_ref)
    if not (math.isfinite(t_ref) and t_ref >= 0):
        raise ParameterError(f"t_ref must be finite and nonnegative, got {t_ref}")
    orbit = orbit if orbit is not None else compute_reference_orbit(problem.n)
    warnings = problem.validate()

    n = problem.n
    pert = problem.perturbation
    unforced = pert.kind == "none"
    lam = np.repeat(np.asarray(levels, dtype=float), len(phases))
    phs = np.tile(np.asarray(phases, dtype=float), len(levels))
    x0, y0 = orbit.angle_data(phs)
    x = lam * x0
    y = lam ** (n + 1) * y0
    B = len(x)

    E0 = problem.energy(x, y)
    E_scale = np.maximum(E0, 1e-300)
    running = np.abs(x) + np.abs(y)
    initial = running.copy()
    drift = np.zeros(B)
    alive = np.ones(B, dtype=bool)
    t_fail = np.full(B, math.nan)

    # a window past t_max holds every row, as one ending at t_max does
    k_ref = int(math.ceil(min(t_ref, t_max) / dt))
    cap = 1e6
    K = max(1, _STABILITY_BLOCK_ENTRIES // B)
    xs = np.empty((K, B))
    ys = np.empty((K, B))

    # Every ufunc below writes into these buffers, and its constants are
    # arrays (length B per stage: h, the half-steps and the sums of two
    # neighbours, and the 1 of the implicit half-kick's denominator; 0-d:
    # the two time factors, set in place per stage), so no call allocates
    # or promotes a scalar.  The stage time advances by the Python float h
    # and the time factor is a Python-float cosine of it.
    substeps = [float(w) * dt for w in yoshida_weights(order)]
    drifts = [(np.full(B, h), h) for h in substeps]
    halves = [np.full(B, 0.5 * h) for h in substeps]
    # the merged kick between drifts i and j = i + 1: (h_i + h_j, h_j);
    # None after the last drift, where the closing half-kick follows
    joins = [(lo + hi, hi) for lo, hi in zip(halves, halves[1:])] + [None]
    one = np.ones(B)
    r, sq, a, b = (np.empty(B) for _ in range(4))
    fv, gv, s = (np.empty(B) for _ in range(3))
    cf, cg = np.empty(()), np.empty(())
    profile, f_amp, g_amp = pert.profile, pert.f_amp, pert.g_amp
    omega, phase, cos = pert.omega, pert.phase, math.cos
    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide

    def restore():
        """r = x^(2n+1) by the multiplications of ``problem.restoring``."""
        mul(x, x, sq)
        p = sq
        for _ in range(n - 1):
            mul(p, sq, r)
            p = r
        mul(x, p, r)

    def force(t):
        """f, g and s = r + g at the current point and time t."""
        profile(x, sq, fv, gv)
        c = cos(omega * t + phase)
        cf[()] = f_amp * c
        cg[()] = g_amp * c
        mul(fv, cf, fv)
        mul(gv, cg, gv)
        add(r, gv, s)

    def kick_drift_kick(t_sub):
        """One composed step of the unforced control."""
        mul(halves[0], r, a)
        sub(y, a, y)
        for (h, _), join in zip(drifts, joins):
            mul(h, y, a)
            add(x, a, x)
            restore()
            # y = y - (h_i + h_j) r, or y - h_i r to close the step
            mul(halves[-1] if join is None else join[0], r, a)
            sub(y, a, y)

    def split_step(t_sub):
        """One composed step; f, g and s hold the forcing at the current point."""
        # y = (y - h_0 s) / (1 + h_0 f)
        mul(halves[0], s, a)
        sub(y, a, y)
        mul(halves[0], fv, a)
        add(one, a, a)
        div(y, a, y)
        for (h, dh), join in zip(drifts, joins):
            mul(h, y, a)
            add(x, a, x)
            t_sub += dh
            restore()
            force(t_sub)
            if join is None:
                break
            both, hi = join
            # y = y - (h_i + h_j) (f y + s) / (1 + h_j f)
            mul(fv, y, a)
            add(a, s, a)
            mul(both, a, a)
            mul(hi, fv, b)
            add(one, b, b)
            div(a, b, a)
            sub(y, a, y)
        # y = y - h_last (f y + s)
        mul(fv, y, a)
        add(a, s, a)
        mul(halves[-1], a, a)
        sub(y, a, y)

    step = kick_drift_kick if unforced else split_step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        restore()
        if not unforced:
            force(0.0)
        for k0 in range(0, n_steps, K):
            count = min(K, n_steps - k0)
            for j in range(count):
                step((k0 + j) * dt)
                xs[j] = x
                ys[j] = y
            X, Y = xs[:count], ys[:count]
            norm = np.abs(X) + np.abs(Y)
            E = problem.energy(X, Y)
            peak = norm.max(axis=0)
            # peak >= 0, so this is false exactly for NaN, inf and > cap
            hit = ~(peak <= cap) & alive
            if hit.any():
                # rows from a column's first bad one on count for nothing
                idx = np.flatnonzero(hit)
                first = (~(norm[:, idx] <= cap)).argmax(axis=0)
                after = np.arange(count)[:, None] >= first
                norm[:, idx] = np.where(after, -np.inf, norm[:, idx])
                E[:, idx] = np.where(after, E0[idx], E[:, idx])
                peak[idx] = norm[:, idx].max(axis=0)
                t_fail[idx] = (k0 + first + 1) * dt
            np.maximum(running, peak, out=running, where=alive)
            if k0 < k_ref:
                np.maximum(initial, norm[:k_ref - k0].max(axis=0), out=initial,
                           where=alive)
            # |E - E0| peaks at the column's largest or smallest energy
            spread = np.maximum(E.max(axis=0) - E0, E0 - E.min(axis=0))
            np.maximum(drift, spread / E_scale, out=drift, where=alive)
            alive &= ~hit

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
    return StabilityReport(rows=rows, t_max=float(t_max), dt=float(dt),
                           t_ref=t_ref, threshold=float(threshold), warnings=warnings)
