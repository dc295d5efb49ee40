"""Linearized conjugation (homological) equations for flows and maps.

Flow case.  Given a perturbed system  dx/dt = omega + y + f,  dy/dt = g,
the change of variables xi = x + u, eta = y + v removes the first-order
perturbation when

    D_omega u = v - f      (angle equation)
    D_omega v = -g         (action equation)

with D_omega = <omega, d/dx> + d/dt.  In Fourier modes, with divisor
D(k, l) = <k, omega> + l,

    v_hat = i g_hat / D,     u_hat = i (f_hat - v_hat) / D,

the free constant of v chosen as v_hat(0,0) := f_hat(0,0) so the angle
equation is solvable, and u_hat(0,0) := 0.  For a reversible system
(f even, g odd) the solutions satisfy u odd and v even.

Map case.  For a twist map  A(x, y) = (x + Omega + y + f, y + g)  with
translation Omega = 2 pi omega, the analogous equations are difference
equations along the shift T: x -> x + Omega,

    u o T - u = v - f,      v o T - v = -g_osc,

with divisor D(k) = exp(2 pi i <k, omega>) - 1, i.e.

    v_hat = -g_hat / D,     u_hat = (v_hat - f_hat) / D.

g_osc is g minus its angular average; the plain solver requires that
average to vanish (which parity gives), while :func:`solve_map_full`
returns the average separately so an iteration can carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .diophantine import Frequency
from .errors import ParameterError, ShapeError, SmallDivisorError, StructureError
from .fields import FourierField, abs_order_grid, mode_mask

_MEAN_TOL = 1e-12
_FLOOR_SAFETY = 0.5
_MAP_FLOOR_CONST = 2.0 / np.pi


@dataclass(frozen=True)
class HomologicalSolution:
    """Solution pair of the linearized conjugation equations.

    ``residual_u`` and ``residual_v`` are grid sup norms of the defining
    equations' residuals (zero up to roundoff by construction).
    """

    u: FourierField
    v: FourierField
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


def _check_window(N: int, freq: Frequency):
    if N > freq.K_max:
        raise ParameterError(
            f"field cutoff N = {N} exceeds the certified window K_max = {freq.K_max}")


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


def _flow_divisors(field: FourierField, freq: Frequency) -> np.ndarray:
    """Flow divisors over the field's mode axes (time axis cut to N_t)."""
    N, N_t = field.N, field.N_t
    return flow_divisors(freq, field.d, N)[..., N - N_t:N + N_t + 1]


def _zero_mode_index(field: FourierField) -> tuple:
    return (field.N,) * field.d + (field.N_t,)


def _check_divisor_floor(absD: np.ndarray, field: FourierField, freq: Frequency,
                         const: float):
    """SmallDivisorError when any divisor on the field's support undercuts the floor.

    ``absD`` spans the field's mode axes; the floor depends on |k|_1 only.
    """
    d, N, N_t = field.d, field.N, field.N_t
    k_norm = np.broadcast_to(abs_order_grid(d, N)[..., None], absD.shape)
    floor = _FLOOR_SAFETY * const * freq.kappa / np.maximum(k_norm, 1) ** freq.tau
    check = mode_mask(d, N, N_t) & (k_norm > 0)
    bad = check & (absD < floor)
    if np.any(bad):
        idx = np.unravel_index(int(np.argmin(np.where(bad, absD, np.inf))), absD.shape)
        k = tuple(int(a) - N for a in idx[:d])
        raise SmallDivisorError((k, int(idx[d]) - N_t), absD[idx], floor[idx])
    good = np.where(check, absD, np.inf)
    return float(np.min(good)) if np.any(check) else np.inf


def _angular_mean_check(g: FourierField, what: str):
    """The solvability condition: the (k, l) = 0 block of g must vanish.

    For an autonomous field (N_t = 0) this is its whole angular average.
    """
    block = np.abs(g.zero_mode())
    mean = float(np.max(block)) if block.size else 0.0
    scale = float(np.max(np.abs(g.coeffs))) if g.coeffs.size else 0.0
    if mean > _MEAN_TOL * max(scale, 1e-300):
        raise StructureError(
            f"{what}: angular average of the action perturbation must vanish "
            f"(relative size {mean / max(scale, 1e-300):.3e})")


def _flip(tag):
    return {"even": "odd", "odd": "even"}.get(tag)


def solve_v(g: FourierField, freq: Frequency) -> FourierField:
    """Solve the flow action equation D_omega v = -g; zero mode left at 0."""
    _check_window(g.N, freq)
    _angular_mean_check(g, what="solve_v")
    zero = _zero_mode_index(g)
    D = _flow_divisors(g, freq)
    _check_divisor_floor(np.abs(D), g, freq, 1.0)
    safe = D.copy()
    safe[zero] = 1.0
    coeffs = 1j * g.coeffs / safe[..., None, None]
    coeffs[zero] = 0.0
    coeffs[~mode_mask(g.d, g.N, g.N_t)] = 0.0
    parity = None if g.parity is None else tuple(_flip(p) for p in g.parity)
    return FourierField(g.d, g.m, g.N, g.q_y, g.r, coeffs, parity)


def solve_u(f: FourierField, v: FourierField, freq: Frequency) -> Tuple[FourierField, FourierField]:
    """Solve the flow angle equation D_omega u = v - f.

    Returns (u, v_completed): the zero mode of v is set to f's zero mode,
    which is exactly the choice making the equation solvable.
    """
    f, v = _common_signature(f, v)
    _check_window(f.N, freq)
    zero = _zero_mode_index(f)
    v_coeffs = v.coeffs.copy()
    v_coeffs[zero] = f.coeffs[zero]
    v = replace(v, coeffs=v_coeffs)
    D = _flow_divisors(f, freq)
    _check_divisor_floor(np.abs(D), f, freq, 1.0)
    safe = D.copy()
    safe[zero] = 1.0
    coeffs = 1j * (f.coeffs - v.coeffs) / safe[..., None, None]
    coeffs[zero] = 0.0
    coeffs[~mode_mask(f.d, f.N, f.N_t)] = 0.0
    parity = None if f.parity is None else tuple(_flip(p) for p in f.parity)
    u = FourierField(f.d, f.m, f.N, f.q_y, f.r, coeffs, parity)
    return u, v


def _directional_derivative(u: FourierField, freq: Frequency) -> FourierField:
    out = u.diff_t()
    for a in range(u.d):
        out = out + u.diff_x(a).scale(float(freq.omega[a]))
    return out


def solve_flow(f: FourierField, g: FourierField, freq: Frequency) -> HomologicalSolution:
    """Solve both flow equations and report divisors and residuals.

    For a reversible pair (f even, g odd) the solution has u odd, v even.
    """
    f, g = _common_signature(f, g)
    v = solve_v(g, freq)
    u, v = solve_u(f, v, freq)
    absD = np.where(mode_mask(f.d, f.N, f.N_t), np.abs(_flow_divisors(f, freq)), np.inf)
    absD[_zero_mode_index(f)] = np.inf
    min_div = float(np.min(absD))
    res_u = (_directional_derivative(u, freq) - (v - f)).sup_norm().value
    res_v = (_directional_derivative(v, freq) + g).sup_norm().value
    return HomologicalSolution(u=u, v=v, min_divisor=min_div,
                               residual_u=res_u, residual_v=res_v)


def solve_map_full(f: FourierField, g: FourierField, freq: Frequency):
    """Map equations with the angular average of g split off and returned.

    Returns (u, v, g_mean, min_divisor): u, v solve the difference
    equations against g - g_mean, and g_mean (a function of y alone)
    is handed back for the caller to carry.
    """
    f, g = _common_signature(f, g)
    if f.N_t > 0:
        raise StructureError(
            f"solve_map: map fields cannot carry time harmonics (N_t = {f.N_t})")
    _check_window(f.N, freq)
    d, N = f.d, f.N
    g_mean = g.angular_average()
    g_osc = g.oscillating_part()
    D = map_divisors(freq, d, N)[..., None]  # one time slot, l = 0
    min_div = _check_divisor_floor(np.abs(D), f, freq, _MAP_FLOOR_CONST)
    zero = _zero_mode_index(f)
    safe = D.copy()
    safe[zero] = 1.0
    denom = safe[..., None, None]
    mask = mode_mask(d, N, 0)
    v_coeffs = -g_osc.coeffs / denom
    v_coeffs[zero] = f.coeffs[zero]
    v_coeffs[~mask] = 0.0
    v = FourierField(d, g.m, N, g.q_y, g.r, v_coeffs, None)
    u_coeffs = (v.coeffs - f.coeffs) / denom
    u_coeffs[zero] = 0.0
    u_coeffs[~mask] = 0.0
    u = FourierField(d, f.m, N, f.q_y, f.r, u_coeffs, None)
    return u, v, g_mean, min_div


def solve_map(f: FourierField, g: FourierField, freq: Frequency) -> HomologicalSolution:
    """Solve the map difference equations (plain-parity contract).

    Requires the angular average of g to vanish, which holds when g is odd
    in the angles.  Each input channel produces a reflection symmetry with
    its own center (the divisor contributes a half-shift e^{-ik Omega/2}
    per division): for f even and g = 0, u(Omega - x) = -u(x); for g odd
    and f = 0, v(Omega - x) = v(x) and u(2 Omega - x) = -u(x).  The
    combined solutions therefore carry no single pointwise parity, which
    is why their parity tags stay None.
    """
    _angular_mean_check(g, what="solve_map")
    u, v, _, min_div = solve_map_full(f, g, freq)
    Omega = 2.0 * np.pi * freq.omega
    res_u = (u.shift_x(Omega) - u - (v - f)).sup_norm().value
    res_v = (v.shift_x(Omega) - v + g.oscillating_part()).sup_norm().value
    return HomologicalSolution(u=u, v=v, min_divisor=min_div,
                               residual_u=res_u, residual_v=res_v)
