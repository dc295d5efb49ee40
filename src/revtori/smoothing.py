"""Smoothing operators acting as Fourier multipliers, and dyadic splittings.

The smoothing operator S_s multiplies the (k, l) coefficient by a radial
symbol evaluated at s * (|k|_1 + |l|).  The symbol equals 1 on a plateau
around the origin and falls to 0 at the kernel scale ``SCALE`` through a
C^2 quintic step, so S_s F is a trigonometric polynomial of degree at most
ceil(SCALE / s) and S_s -> identity as s -> 0 on smooth fields.

Because the symbol depends on (k, l) only through |k|_1 + |l|, it commutes
exactly (coefficient by coefficient) with the reality and parity symmetries.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .fields import FourierField, mode_orders


# The symbol is 1 on [0, PLATEAU * SCALE] and 0 from the kernel scale SCALE
# on; in between it descends by the quintic smoothstep
# u -> 1 - (6 u^5 - 15 u^4 + 10 u^3), so it is C^2.
SCALE = 1.0
PLATEAU = 0.5


def symbol(rho) -> np.ndarray:
    """Multiplier value at radius rho = s * (|k|_1 + |l|)."""
    rho = np.asarray(rho, dtype=float)
    lo = PLATEAU * SCALE
    u = np.clip((rho - lo) / (SCALE - lo), 0.0, 1.0)
    step = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    return 1.0 - step


def cutoff(s: float) -> int:
    """Smallest integer N with S_s F supported on |k|+|l| <= N."""
    return int(math.ceil(SCALE / float(s)))


def smooth(field: FourierField, s: float) -> FourierField:
    """Apply S_s to a field.  Requires 0 < s <= 1."""
    if not (0 < s <= 1):
        raise DomainError(f"smoothing scale must satisfy 0 < s <= 1, got {s}")
    out = field.truncate(cutoff(s))
    sigma = symbol(s * mode_orders(field.d, out.N, out.N_t))
    return replace(out, coeffs=out.coeffs * sigma[..., None, None])


def decompose(field: FourierField, s_values: Sequence[float]) -> tuple:
    """Split a field along a sequence of smoothing scales that never increase.

    Returns the tuple of telescoping pieces: pieces[0] = S_{s_0} F and
    pieces[v] = (S_{s_v} - S_{s_{v-1}}) F, so that the partial sums equal
    S_{s_v} F exactly.  A repeated scale gives an exactly zero piece, so a
    schedule may hold its last scale.
    """
    s_values = [float(s) for s in s_values]
    if not s_values:
        raise ParameterError("need at least one smoothing scale")
    if any(s2 > s1 for s1, s2 in zip(s_values, s_values[1:])):
        raise ParameterError("smoothing scales must not increase")
    pieces = [smooth(field, s_values[0])]
    prev = pieces[0]
    for s in s_values[1:]:
        cur = smooth(field, s)
        pieces.append(cur - prev)
        prev = cur
    return tuple(pieces)


def approximation_error(field: FourierField, s: float) -> float:
    """Bound for ||S_s F - F||: the majorant of F with its coefficients weighted by 1 - symbol."""
    sigma = symbol(float(s) * mode_orders(field.d, field.N, field.N_t))
    return replace(field, coeffs=field.coeffs * (1.0 - sigma)[..., None, None]).majorant()


def synthetic_rough_field(ell_star: float, N: int = 512, seed: int = 0,
                          parity: str = "even") -> FourierField:
    """A field of prescribed finite smoothness ell_star (d = 1).

    Modes sit on the axes (+/-n, 0) and (0, +/-n) with magnitudes
    (|k| + |l|)^(-ell_star - 1) and seeded random signs, so the smoothing
    error majorant decays like s^{ell_star} (the tail of the coefficient
    series truncated at |k|+|l| ~ SCALE / s).
    """
    if not (math.isfinite(ell_star) and ell_star > 0):
        raise ParameterError(f"smoothness must be positive and finite, got {ell_star}")
    if N < 1:
        raise ParameterError(f"need at least one mode, got N = {N}")
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
