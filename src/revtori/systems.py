"""Reference reversible systems for exercising the torus iteration.

Two families live here: a band-limited periodically forced flow whose
perturbation is a single harmonic, given as one callable fg(x, y, t) of f
then g, and a kicked circle-cylinder map built by conjugating an explicit
involution, so its reversibility is exact by construction rather than by
truncation.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, check_params, int_param


def single_mode_flow(eps: float, g_amp: float, k: int = 1, l: int = 1) -> Callable:
    """The standard one-harmonic test flow, as one callable fg(x, y, t).

    f = eps cos(k x + l t) (even) and g = eps * g_amp * sin(k x + l t)
    (odd) under (x, t) -> (-x, -t).  fg takes x, y of shape (S, 1) and t of
    shape (S,) and returns the (S, 2) array of f then g.  g_amp sets the
    ratio of the two perturbation sizes; the iteration schedules expect g
    roughly a strip-width smaller than f.
    """
    k = int(k)
    l = int(l)

    def fg(x, y, t):
        phase = k * x[:, 0] + l * t
        return np.stack([eps * np.cos(phase), eps * g_amp * np.sin(phase)], axis=-1)

    return fg


@dataclass(frozen=True)
class MapSystem:
    """A reversible twist map of the cylinder, exactly by construction.

    With T the kick (x, y) -> (x, y + eps cos x) and H0 the involution
    (x, y) -> (-x - Omega - y, y), the map is A = G o (T o H0 o T^{-1}),
    G(x, y) = (-x, y).  Written out,

        A(x, y) = (x1, y + eps (cos x1 - cos x)),
        x1 = x + Omega + y - eps cos x,

    which matches the normal form x' = x + Omega + y + f, y' = y + g with
    f = -eps cos x and g = eps (cos x1 - cos x).  Since H0 and G are exact
    involutions, G o A o G = A^{-1} holds to machine precision, not just to
    leading order in eps.  omega is a number or the rotation vector: on
    points of shape (S, d), angle a turns by 2 pi omega_a.
    """

    omega: float | np.ndarray
    eps: float

    @property
    def Omega(self) -> float:
        return 2.0 * np.pi * self.omega

    def A(self, x, y):
        """One application of the map; arrays broadcast elementwise."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x1 = x + self.Omega + y - self.eps * np.cos(x)
        return x1, y + self.eps * (np.cos(x1) - np.cos(x))

    def reversibility_residual(self) -> float:
        """sup |G A G A (z) - z| over 256 points of a curve (should be ~1e-16)."""
        x = 2.0 * np.pi * np.arange(256)[:, None] / 256 + np.zeros(np.shape(self.omega))
        y = 0.1 * np.cos(3.0 * x + 0.7)
        x1, y1 = self.A(x, y)
        x2, y2 = self.A(-x1, y1)
        dx = np.angle(np.exp(1j * (-x2 - x)))
        return float(max(np.max(np.abs(dx)), np.max(np.abs(y2 - y))))


def make_flow_perturbation(kind: str, **params) -> Callable:
    """Flow factory used by configuration files: the callable fg(x, y, t)."""
    if kind in ("single_mode", "standard"):
        check_params(kind, params, ("eps", "g_amp", "k", "l"))
        return single_mode_flow(
            eps=float(params.get("eps", 1e-4)),
            g_amp=float(params.get("g_amp", 0.05)),
            k=int_param(kind, params, "k", 1), l=int_param(kind, params, "l", 1))
    if kind == "none":
        check_params(kind, params, ())
        return lambda x, y, t: np.zeros((x.shape[0], 2 * x.shape[1]))
    raise ParameterError(f"unknown flow perturbation kind {kind!r}")


def make_map_perturbation(kind: str, omega, **params) -> MapSystem:
    """Map-family factory used by configuration files; omega is the rotation vector."""
    omega = np.array(omega, dtype=float)
    if kind in ("cosine_kick", "standard"):
        check_params(kind, params, ("eps",))
        return MapSystem(omega=omega, eps=float(params.get("eps", 1e-4)))
    if kind == "none":
        check_params(kind, params, ())
        return MapSystem(omega=omega, eps=0.0)
    raise ParameterError(f"unknown map perturbation kind {kind!r}")
