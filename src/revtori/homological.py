"""Linearized conjugation (homological) equations for flows and maps.

Flow case.  Given a perturbed system  dx/dt = omega + y + f,  dy/dt = g,
the change of variables xi = x + u, eta = y + v removes the first-order
perturbation when

    D_omega u = v - f,      D_omega v = -g,

with D_omega = <omega, d/dx> + d/dt.  Map case.  For a twist map
A(x, y) = (x + Omega + y + f, y + g), Omega = 2 pi omega, the analogous
equations are difference equations along the shift T: x -> x + Omega,

    u o T - u = v - f,      v o T - v = -(g - g_mean).

In Fourier modes both read

    v_hat = -g_hat / L,     u_hat = (v_hat - f_hat) / L,

with the divisor L(k, l) = i (<k, omega> + l) for flows and
L(k) = exp(2 pi i <k, omega>) - 1 for maps, and one kernel solves both.
At (k, l) = 0, where L vanishes, v takes f's zero mode (the choice that
makes the angle equation solvable) and u takes 0; g's zero block is split
off as ``g_mean``.  A pair is one field of 2d components: both solvers
take fg, f then g, and return uv, u then v.  :func:`solve_flow` requires
g's zero block to vanish and flips the parity tags (f even, g odd give
u odd, v even); :func:`solve_map` takes autonomous fields only and hands
``g_mean`` back for the iteration to carry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diophantine import Frequency
from .errors import ParameterError, ShapeError, SmallDivisorError, StructureError
from .fields import _FLIPPED, FourierField, abs_order_grid, mode_mask

_MEAN_TOL = 1e-12
_FLOOR_SAFETY = 0.5
_MAP_FLOOR_CONST = 2.0 / np.pi


@dataclass(frozen=True)
class HomologicalSolution:
    """Solution pair of the linearized conjugation equations.

    ``uv`` holds u then v as the 2d components of one field.  ``g_mean``
    is the (k, l) = 0 block of g, which the equations cannot remove.
    ``residual_u`` and ``residual_v`` are coefficient majorants of the
    defining equations' residuals, upper bounds on their sup norms (zero up
    to roundoff by construction).
    """

    uv: FourierField
    g_mean: FourierField
    min_divisor: float
    residual_u: float
    residual_v: float


def _k_omega(freq: Frequency, d: int, N: int) -> np.ndarray:
    """<k, omega> over the (2N+1,)*d angle mode grid."""
    modes = np.arange(-N, N + 1)
    val = np.zeros(())
    for a in range(d):
        val = val[..., None] + freq.omega[a] * modes
    return val


def flow_divisors(freq: Frequency, d: int, N: int) -> np.ndarray:
    """D(k, l) = <k, omega> + l over the full mode grid."""
    return _k_omega(freq, d, N)[..., None] + np.arange(-N, N + 1)


def map_divisors(freq: Frequency, d: int, N: int) -> np.ndarray:
    """D(k) = exp(2 pi i <k, omega>) - 1 over the angle mode grid.

    The phase is reduced to the nearest integer before exponentiation so
    large |k| do not lose precision.
    """
    val = _k_omega(freq, d, N)
    return np.exp(2j * np.pi * (val - np.round(val))) - 1.0


def _check_mean(fg: FourierField, what: str):
    """StructureError unless the (k, l) = 0 block of g vanishes (relative to g)."""
    mean = float(np.max(np.abs(fg.zero_mode()[:, fg.d:])))
    scale = float(np.max(np.abs(fg.coeffs[..., fg.d:])))
    if mean > _MEAN_TOL * max(scale, 1e-300):
        raise StructureError(
            f"{what}: angular average of the action perturbation must vanish "
            f"(relative size {mean / max(scale, 1e-300):.3e})")


def _solve(fg: FourierField, freq: Frequency, L: np.ndarray,
           floor_const: float, tags: tuple | None) -> HomologicalSolution:
    """Divide by the divisor table L, shared by flows and maps.

    L spans the mode axes of the pair field fg.  Every divisor with k != 0
    on the support must clear the floor
    _FLOOR_SAFETY * floor_const * kappa / |k|_1^tau of the certificate.
    The solution uv is tagged ``tags``.
    """
    d, N, N_t = fg.d, fg.N, fg.N_t
    if N > freq.K_max:
        raise ParameterError(
            f"field cutoff N = {N} exceeds the certified window K_max = {freq.K_max}")
    zero = (N,) * d + (N_t,)
    mask = mode_mask(d, N, N_t)
    absL = np.abs(L)
    k_norm = np.broadcast_to(abs_order_grid(d, N)[..., None], L.shape)
    floor = _FLOOR_SAFETY * floor_const * freq.divisor_floor(k_norm)
    bad = mask & (k_norm > 0) & (absL < floor)
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(np.where(bad, absL, np.inf))), L.shape)
        raise SmallDivisorError((tuple(int(a) - N for a in idx[:d]), int(idx[d]) - N_t),
                                absL[idx], floor[idx])
    support = mask.copy()
    support[zero] = False
    min_div = float(np.min(absL[support])) if np.any(support) else np.inf

    f, g = fg.coeffs[..., :d], fg.coeffs[..., d:]
    g_mean = np.zeros_like(g)
    g_mean[zero] = g[zero]
    safe = L.copy()
    safe[zero] = 1.0
    safe = safe[..., None, None]
    v = -g / safe
    v[zero] = f[zero]
    v[~mask] = 0.0
    u = (v - f) / safe
    u[zero] = 0.0
    u[~mask] = 0.0

    def field(coeffs, parity=None):
        return FourierField(coeffs, fg.r, parity)

    Lc = L[..., None, None]
    return HomologicalSolution(
        uv=field(np.concatenate([u, v], axis=-1), tags), g_mean=field(g_mean),
        min_divisor=min_div,
        residual_u=field(Lc * u - (v - f)).majorant(),
        residual_v=field(Lc * v + g - g_mean).majorant())


def _check_pair(fg: FourierField, what: str):
    """ShapeError unless fg holds a pair, f then g, of d components each."""
    if fg.m != 2 * fg.d:
        raise ShapeError(f"{what}: a pair field has m = 2d = {2 * fg.d} components, "
                         f"got m = {fg.m}")


def solve_flow(fg: FourierField, freq: Frequency) -> HomologicalSolution:
    """Solve both flow equations for the pair fg; g's (k, l) = 0 block must vanish.

    For a reversible pair (f, g) even/odd the solution (u, v) is odd/even.
    """
    _check_pair(fg, "solve_flow")
    _check_mean(fg, "solve_flow")
    N, N_t = fg.N, fg.N_t
    L = 1j * flow_divisors(freq, fg.d, N)[..., N - N_t:N + N_t + 1]
    return _solve(fg, freq, L, 1.0, tuple(map(_FLIPPED.get, fg.parity)))


def solve_map(fg: FourierField, freq: Frequency) -> HomologicalSolution:
    """Solve the map difference equations for the pair fg against g - g_mean.

    The angular average g_mean (a function of y alone) is returned in the
    solution for the caller to carry.  Each input channel produces a
    reflection symmetry with its own center (the divisor contributes a
    half-shift e^{-ik Omega/2} per division): for f even and g = 0,
    u(Omega - x) = -u(x); for g odd and f = 0, v(Omega - x) = v(x) and
    u(2 Omega - x) = -u(x).  The combined solutions therefore carry no
    single pointwise parity, which is why their parity tags stay None.
    """
    _check_pair(fg, "solve_map")
    if fg.N_t > 0:
        raise StructureError(
            f"solve_map: map fields cannot carry time harmonics (N_t = {fg.N_t})")
    L = map_divisors(freq, fg.d, fg.N)[..., None]  # one time slot, l = 0
    return _solve(fg, freq, L, _MAP_FLOOR_CONST, None)
