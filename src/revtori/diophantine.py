"""Diophantine certification of frequency vectors.

A frequency omega in R^d is Diophantine with constants (kappa, tau) when

    |<k, omega> + j| >= kappa / |k|_1^tau     for all integer k != 0, j.

Over a finite window |k|_1 <= K_max the best constant is computed exactly:
for each k only j = -round(<k, omega>) can attain the minimum, so the scan
is linear in the number of lattice vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResonanceError

_RESONANCE_TOL = 1e-14


@dataclass(frozen=True)
class Frequency:
    """A frequency vector with a certified Diophantine constant.

    Attributes
    ----------
    omega : ndarray, shape (d,)
    kappa : float
        Largest constant valid on the certified window (clamped below 1).
    tau : float
        Diophantine exponent used for the certificate.
    K_max : int
        The certificate covers 0 < |k|_1 <= K_max.
    argmin_k : tuple of int
        Lattice vector achieving the minimum of |<k,omega>+j| |k|^tau.
    argmin_j : int
        The integer offset achieving it.
    """

    omega: np.ndarray
    kappa: float
    tau: float
    K_max: int
    argmin_k: tuple
    argmin_j: int

    @property
    def d(self) -> int:
        return int(self.omega.shape[0])

    def divisor_floor(self, k_norm) -> np.ndarray:
        """Certified lower bound kappa / |k|^tau for given |k|_1 values."""
        k_norm = np.asarray(k_norm, dtype=float)
        return self.kappa / np.maximum(k_norm, 1.0) ** self.tau

    def to_dict(self) -> dict:
        return {
            "omega": [float(w) for w in self.omega],
            "kappa": float(self.kappa),
            "tau": float(self.tau),
            "K_max": int(self.K_max),
            "argmin_k": [int(a) for a in self.argmin_k],
            "argmin_j": int(self.argmin_j),
        }


def _dist_to_integers(vals: np.ndarray):
    """Distance of each value to the nearest integer, and that integer."""
    nearest = np.round(vals)
    return np.abs(vals - nearest), (-nearest).astype(int)


def _half_lattice_rows(d: int, K_max: int):
    """Canonical half lattice (first nonzero entry positive), one row of
    leading coordinates at a time; the last coordinate stays vectorized."""
    if d == 1:
        yield (), np.arange(1, K_max + 1)
        return
    lead_shape = (2 * K_max + 1,) * (d - 1)
    if np.prod(lead_shape) > 2e6:
        raise ParameterError(
            f"certification window K_max={K_max} too large for d={d}")
    ranges = [range(-K_max, K_max + 1)] * (d - 1)
    for lead in itertools.product(*ranges):
        budget = K_max - sum(abs(a) for a in lead)
        if budget < 0:
            continue
        first_nonzero = next((a for a in lead if a != 0), 0)
        if first_nonzero > 0:
            last = np.arange(-budget, budget + 1)
        elif first_nonzero == 0:
            last = np.arange(1, budget + 1)
        else:
            continue
        if last.size:
            yield lead, last


def certify(omega, tau: float = None, K_max: int = 2000) -> Frequency:
    """Scan the window 0 < |k|_1 <= K_max and certify DC(kappa, tau).

    Raises
    ------
    ResonanceError
        If some |<k, omega> + j| falls below 1e-14.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if omega.ndim != 1 or omega.size < 1:
        raise ParameterError("omega must be a nonempty vector")
    d = omega.size
    if tau is None:
        tau = d + 1e-4
    tau = float(tau)
    if not (math.isfinite(tau) and tau > 0):
        raise ParameterError(f"tau must be positive and finite, got {tau}")
    if K_max < 1:
        raise ParameterError(f"K_max must be at least 1, got {K_max}")
    best = np.inf
    best_k = None
    best_j = None
    for lead, last in _half_lattice_rows(d, int(K_max)):
        vals = float(np.dot(lead, omega[:-1])) + last * omega[-1]
        dist, j = _dist_to_integers(vals)
        k_norm = sum(abs(a) for a in lead) + np.abs(last)
        i_res = int(np.argmin(dist))
        if dist[i_res] < _RESONANCE_TOL:
            raise ResonanceError(lead + (int(last[i_res]),), j[i_res], dist[i_res])
        quality = dist * k_norm.astype(float) ** tau
        i = int(np.argmin(quality))
        if quality[i] < best:
            best = float(quality[i])
            best_k = lead + (int(last[i]),)
            best_j = int(j[i])
    kappa = min(best, 1.0 - 1e-12)
    return Frequency(omega=omega.copy(), kappa=float(kappa), tau=tau,
                     K_max=int(K_max), argmin_k=best_k, argmin_j=best_j)


def russmann_sum(freq: Frequency, n: int) -> float:
    """Sum of |<k, omega> + j|^{-2} over 0 < |k|_1 <= n and |<k,omega>+j| <= 1.

    Both signs of k are counted.  Under DC(kappa, tau) this grows at most
    like n^{2 tau} (up to constants), which is what the growth diagnostic
    fits.  `freq` is a certified Frequency; n must stay inside its window.
    """
    if n > freq.K_max:
        raise ParameterError(
            f"russmann_sum window n={n} exceeds certified K_max={freq.K_max}")
    omega = freq.omega
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    total = 0.0
    for lead, last in _half_lattice_rows(omega.size, int(n)):
        vals = float(np.dot(lead, omega[:-1])) + last * omega[-1]
        j0 = -np.round(vals)
        for dj in (-1.0, 0.0, 1.0):
            res = np.abs(vals + j0 + dj)
            good = res <= 1.0
            if np.any(good):
                total += float(np.sum(res[good] ** -2.0))
    return 2.0 * total  # the other half of the lattice contributes equally


def make_frequency(d: int, kind: str = "golden") -> np.ndarray:
    """Standard badly-approximable frequency vectors (uncertified).

    kind = "golden" gives (sqrt(5)-1)/2 (d = 1 only); "sqrt_prime" gives
    omega_i = frac(sqrt(p_i)) over the first d primes.  Run the result
    through `certify` to get a Frequency with an actual constant attached;
    `certify` also takes any other vector directly.
    """
    if d < 1:
        raise ParameterError(f"need d >= 1, got {d}")
    if kind == "golden":
        if d != 1:
            raise ParameterError("the golden frequency is one dimensional")
        return np.array([(np.sqrt(5.0) - 1.0) / 2.0])
    if kind == "sqrt_prime":
        primes = _first_primes(d)
        om = np.sqrt(np.array(primes, dtype=float))
        return om - np.floor(om)
    raise ParameterError(f"unknown frequency kind {kind!r}")


def _first_primes(n: int) -> list:
    primes = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes
