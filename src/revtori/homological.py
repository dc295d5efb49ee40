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
off as ``g_mean``.  :func:`solve_flow` requires that block to vanish and
flips the parity tags (f even, g odd give u odd, v even); :func:`solve_map`
takes autonomous fields only and hands ``g_mean`` back for the iteration
to carry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .diophantine import Frequency
from .errors import ParameterError, ShapeError, SmallDivisorError, StructureError
from .fields import FourierField, _flip_parity, abs_order_grid, mode_mask

_MEAN_TOL = 1e-12
_FLOOR_SAFETY = 0.5
_MAP_FLOOR_CONST = 2.0 / np.pi


@dataclass(frozen=True)
class HomologicalSolution:
    """Solution pair of the linearized conjugation equations.

    ``g_mean`` is the (k, l) = 0 block of g, which the equations cannot
    remove.  ``residual_u`` and ``residual_v`` are grid sup norms of the
    defining equations' residuals (zero up to roundoff by construction).
    """

    u: FourierField
    v: FourierField
    g_mean: FourierField
    min_divisor: float
    residual_u: float
    residual_v: float


def _common_signature(f: FourierField, g: FourierField) -> Tuple[FourierField, FourierField]:
    if f.d != g.d or f.m != g.m:
        raise ShapeError("perturbation pair must share d and m")
    N = max(f.N, g.N)
    q_y = max(f.q_y, g.q_y)
    N_t = max(f.N_t, g.N_t)
    if f.N != N or f.q_y != q_y or f.N_t != N_t:
        f = replace(f, N=N, q_y=q_y, coeffs=f._padded_to(N, q_y, N_t))
    if g.N != N or g.q_y != q_y or g.N_t != N_t:
        g = replace(g, N=N, q_y=q_y, coeffs=g._padded_to(N, q_y, N_t))
    return f, g


def flow_divisors(freq: Frequency, d: int, N: int) -> np.ndarray:
    """D(k, l) = <k, omega> + l over the full mode grid."""
    modes = np.arange(-N, N + 1)
    D = np.zeros((2 * N + 1,) * (d + 1))
    for a in range(d):
        shape = [1] * (d + 1)
        shape[a] = 2 * N + 1
        D = D + freq.omega[a] * modes.reshape(shape)
    shape = [1] * (d + 1)
    shape[d] = 2 * N + 1
    return D + modes.reshape(shape)


def map_divisors(freq: Frequency, d: int, N: int) -> np.ndarray:
    """D(k) = exp(2 pi i <k, omega>) - 1 over the angle mode grid.

    The phase is reduced to the nearest integer before exponentiation so
    large |k| do not lose precision.
    """
    modes = np.arange(-N, N + 1)
    val = np.zeros((2 * N + 1,) * d)
    for a in range(d):
        shape = [1] * d
        shape[a] = 2 * N + 1
        val = val + freq.omega[a] * modes.reshape(shape)
    frac = val - np.round(val)
    return np.exp(2j * np.pi * frac) - 1.0


def _check_mean(g: FourierField, what: str):
    """StructureError unless the (k, l) = 0 block of g vanishes (relative to g)."""
    mean = float(np.max(np.abs(g.zero_mode())))
    scale = float(np.max(np.abs(g.coeffs)))
    if mean > _MEAN_TOL * max(scale, 1e-300):
        raise StructureError(
            f"{what}: angular average of the action perturbation must vanish "
            f"(relative size {mean / max(scale, 1e-300):.3e})")


def _solve(f: FourierField, g: FourierField, freq: Frequency, L: np.ndarray,
           floor_const: float, flip_parity: bool) -> HomologicalSolution:
    """Divide by the divisor table L, shared by flows and maps.

    f and g share one signature and L spans their mode axes.  Every divisor
    with k != 0 on the support must clear the floor
    _FLOOR_SAFETY * floor_const * kappa / |k|_1^tau of the certificate.
    The solution's parity tags are the flipped tags of (f, g) when
    ``flip_parity`` holds, None otherwise.
    """
    d, N, N_t = f.d, f.N, f.N_t
    if N > freq.K_max:
        raise ParameterError(
            f"field cutoff N = {N} exceeds the certified window K_max = {freq.K_max}")
    zero = (N,) * d + (N_t,)
    mask = mode_mask(d, N, N_t)
    absL = np.abs(L)
    k_norm = np.broadcast_to(abs_order_grid(d, N)[..., None], L.shape)
    floor = _FLOOR_SAFETY * floor_const * freq.kappa / np.maximum(k_norm, 1) ** freq.tau
    bad = mask & (k_norm > 0) & (absL < floor)
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(np.where(bad, absL, np.inf))), L.shape)
        raise SmallDivisorError((tuple(int(a) - N for a in idx[:d]), int(idx[d]) - N_t),
                                absL[idx], floor[idx])
    support = mask.copy()
    support[zero] = False
    min_div = float(np.min(absL[support])) if np.any(support) else np.inf

    g_mean = np.zeros_like(g.coeffs)
    g_mean[zero] = g.coeffs[zero]
    safe = L.copy()
    safe[zero] = 1.0
    safe = safe[..., None, None]
    v = -g.coeffs / safe
    v[zero] = f.coeffs[zero]
    v[~mask] = 0.0
    u = (v - f.coeffs) / safe
    u[zero] = 0.0
    u[~mask] = 0.0

    def field(like, coeffs, tags=None):
        tags = tuple(map(_flip_parity, tags)) if flip_parity and tags else None
        return FourierField(d, like.m, N, like.q_y, like.r, coeffs, tags)

    Lc = L[..., None, None]
    return HomologicalSolution(
        u=field(f, u, f.parity), v=field(g, v, g.parity), g_mean=field(g, g_mean),
        min_divisor=min_div,
        residual_u=field(f, Lc * u - (v - f.coeffs)).sup_norm(),
        residual_v=field(g, Lc * v + g.coeffs - g_mean).sup_norm())


def solve_flow(f: FourierField, g: FourierField, freq: Frequency) -> HomologicalSolution:
    """Solve both flow equations; g's (k, l) = 0 block must vanish.

    For a reversible pair (f, g) even/odd the solution (u, v) is odd/even.
    """
    f, g = _common_signature(f, g)
    _check_mean(g, "solve_flow")
    N, N_t = f.N, f.N_t
    L = 1j * flow_divisors(freq, f.d, N)[..., N - N_t:N + N_t + 1]
    return _solve(f, g, freq, L, 1.0, flip_parity=True)


def solve_map(f: FourierField, g: FourierField, freq: Frequency) -> HomologicalSolution:
    """Solve the map difference equations against g - g_mean.

    The angular average g_mean (a function of y alone) is returned in the
    solution for the caller to carry.  Each input channel produces a
    reflection symmetry with its own center (the divisor contributes a
    half-shift e^{-ik Omega/2} per division): for f even and g = 0,
    u(Omega - x) = -u(x); for g odd and f = 0, v(Omega - x) = v(x) and
    u(2 Omega - x) = -u(x).  The combined solutions therefore carry no
    single pointwise parity, which is why their parity tags stay None.
    """
    f, g = _common_signature(f, g)
    if f.N_t > 0:
        raise StructureError(
            f"solve_map: map fields cannot carry time harmonics (N_t = {f.N_t})")
    L = map_divisors(freq, f.d, f.N)[..., None]  # one time slot, l = 0
    return _solve(f, g, freq, L, _MAP_FLOOR_CONST, flip_parity=False)
