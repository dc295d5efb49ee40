"""Smoothing operators acting as Fourier multipliers, and dyadic splittings.

The smoothing operator S_s multiplies the (k, l) coefficient by a radial
symbol evaluated at s * (|k|_1 + |l|).  The symbol equals 1 on a plateau
around the origin and falls to 0 at the kernel scale ``a`` through a C^2
quintic step, so S_s F is a trigonometric polynomial of degree at most
ceil(a / s) and S_s -> identity as s -> 0 on smooth fields.

Because the symbol depends on (k, l) only through |k|_1 + |l|, it commutes
exactly (coefficient by coefficient) with the reality and parity symmetries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .fields import FourierField, action_powers, mode_orders


@dataclass(frozen=True)
class SmoothingKernel:
    """Radial multiplier profile: 1 on [0, plateau*a], 0 beyond a.

    The descent from 1 to 0 uses the quintic smoothstep
    u -> 1 - (6 u^5 - 15 u^4 + 10 u^3), giving a C^2 symbol.
    """

    a: float = 1.0
    plateau: float = 0.5

    def __post_init__(self):
        if not (self.a > 0):
            raise ParameterError(f"kernel scale a must be positive, got {self.a}")
        if not (0 < self.plateau < 1):
            raise ParameterError(
                f"plateau fraction must lie in (0, 1), got {self.plateau}")

    def symbol(self, rho) -> np.ndarray:
        """Multiplier value at radius rho = s * (|k|_1 + |l|)."""
        rho = np.asarray(rho, dtype=float)
        lo = self.plateau * self.a
        u = np.clip((rho - lo) / (self.a - lo), 0.0, 1.0)
        step = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
        return 1.0 - step

    def cutoff(self, s: float) -> int:
        """Smallest integer N with S_s F supported on |k|+|l| <= N."""
        return int(math.ceil(self.a / float(s)))


def smooth(field: FourierField, s: float,
           kernel: Optional[SmoothingKernel] = None) -> FourierField:
    """Apply S_s to a field.  Requires 0 < s <= 1."""
    if not (0 < s <= 1):
        raise DomainError(f"smoothing scale must satisfy 0 < s <= 1, got {s}")
    kernel = kernel or SmoothingKernel()
    N_out = min(field.N, kernel.cutoff(s))
    out = field.truncate(N=N_out)
    sigma = kernel.symbol(s * mode_orders(field.d, N_out, out.N_t))
    coeffs = out.coeffs * sigma[..., None, None]
    return replace(out, coeffs=coeffs)


@dataclass(frozen=True)
class Decomposition:
    """Telescoping smoothing decomposition of a field.

    pieces[0] = S_{s_0} F and pieces[v] = (S_{s_v} - S_{s_{v-1}}) F, so that
    the partial sums equal S_{s_v} F exactly.
    """

    pieces: tuple
    s_values: tuple
    source_majorant: float

    def partial_sum(self, up_to: Optional[int] = None) -> FourierField:
        stop = len(self.pieces) if up_to is None else up_to + 1
        total = self.pieces[0]
        for piece in self.pieces[1:stop]:
            total = total + piece
        return total

    def piece_majorants(self) -> np.ndarray:
        return np.array([p.majorant() for p in self.pieces])


def decompose(field: FourierField, s_values: Sequence[float],
              kernel: Optional[SmoothingKernel] = None) -> Decomposition:
    """Split a field along a decreasing sequence of smoothing scales.

    ``s_values`` may also be any object carrying the scales in an ``s``
    attribute (a Newton schedule, say).
    """
    s_values = getattr(s_values, "s", s_values)
    s_values = [float(s) for s in s_values]
    if not s_values:
        raise ParameterError("need at least one smoothing scale")
    if any(s2 >= s1 for s1, s2 in zip(s_values, s_values[1:])):
        raise ParameterError("smoothing scales must decrease strictly")
    kernel = kernel or SmoothingKernel()
    pieces = [smooth(field, s_values[0], kernel)]
    prev = pieces[0]
    for s in s_values[1:]:
        cur = smooth(field, s, kernel)
        pieces.append(cur - prev)
        prev = cur
    return Decomposition(pieces=tuple(pieces), s_values=tuple(s_values),
                         source_majorant=field.majorant())


def approximation_error(field: FourierField, s: float,
                        kernel: Optional[SmoothingKernel] = None) -> float:
    """Coefficient-majorant bound for ||S_s F - F|| on the real domain."""
    kernel = kernel or SmoothingKernel()
    sigma = kernel.symbol(float(s) * mode_orders(field.d, field.N, field.N_t))
    weights = np.abs(1.0 - sigma).ravel()
    P = len(action_powers(field.d, field.q_y))
    A = np.abs(field.coeffs).reshape(-1, P, field.m)
    deg = action_powers(field.d, field.q_y).sum(axis=1)
    rpow = np.where(deg > 0, field.r ** deg, 1.0)
    per_comp = np.einsum("xpm,x,p->m", A, weights, rpow)
    return float(np.max(per_comp))


def synthetic_rough_field(ell_star: float, N: int = 512, seed: int = 0,
                          parity: str = "even") -> FourierField:
    """A field of prescribed finite smoothness ell_star (d = 1).

    Modes sit on the axes (+/-n, 0) and (0, +/-n) with magnitudes
    (|k| + |l|)^(-ell_star - 1) and seeded random signs, so the smoothing
    error majorant decays like s^{ell_star} (the tail of the coefficient
    series truncated at |k|+|l| ~ a/s).
    """
    if ell_star <= 0:
        raise ParameterError(f"smoothness must be positive, got {ell_star}")
    if parity not in ("even", "odd"):
        raise ParameterError(f"parity must be 'even' or 'odd', got {parity!r}")
    rng = np.random.default_rng(seed)
    field = FourierField.zeros(1, 1, N, 0, 0.0, (parity,))
    c = field.coeffs[..., 0, 0]
    for n in range(1, N + 1):
        mag = float(n) ** (-ell_star - 1.0)
        for (ik, il) in ((n, 0), (0, n)):
            sign = 1.0 if rng.random() < 0.5 else -1.0
            if parity == "even":
                # even and real: c(-k,-l) = c(k,l), both real
                c[N + ik, N + il] = sign * mag
                c[N - ik, N - il] = sign * mag
            else:
                # odd and real: c(-k,-l) = -c(k,l), both imaginary
                c[N + ik, N + il] = 1j * sign * mag
                c[N - ik, N - il] = -1j * sign * mag
    return field
