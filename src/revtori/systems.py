"""Reference reversible systems for exercising the torus iteration.

Two families live here: a band-limited periodically forced flow whose
perturbation is a single harmonic, and a kicked circle-cylinder map built
by conjugating an explicit involution, so its reversibility is exact by
construction rather than by truncation.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class FlowSystem:
    """A reversible plane system  dx/dt = omega + y + f,  dy/dt = g.

    f must be even and g odd under (x, t) -> (-x, -t); both callables take
    (x, y, t) with x, y of shape (S, d) and t of shape (S,).
    """

    f: Callable
    g: Callable
    d: int = 1


def single_mode_flow(eps: float, g_amp: float, k: int = 1, l: int = 1) -> FlowSystem:
    """The standard one-harmonic test flow.

    f = eps cos(k x + l t) (even) and g = eps * g_amp * sin(k x + l t)
    (odd).  g_amp sets the ratio of the two perturbation sizes; the
    iteration schedules expect g roughly a strip-width smaller than f.
    """
    k = int(k)
    l = int(l)

    def f(x, y, t):
        return eps * np.cos(k * x[:, 0] + l * t)

    def g(x, y, t):
        return eps * g_amp * np.sin(k * x[:, 0] + l * t)

    return FlowSystem(f=f, g=g, d=1)


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
    leading order in eps.
    """

    omega: float
    eps: float

    @property
    def Omega(self) -> float:
        return 2.0 * np.pi * self.omega

    def f(self, x, y, t=None):
        x = np.asarray(x, dtype=float)
        return -self.eps * np.cos(x)

    def g(self, x, y, t=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x1 = x + self.Omega + y - self.eps * np.cos(x)
        return self.eps * (np.cos(x1) - np.cos(x))

    def A(self, x, y):
        """One application of the map; arrays broadcast elementwise."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x1 = x + self.Omega + y - self.eps * np.cos(x)
        return x1, y + self.eps * (np.cos(x1) - np.cos(x))

    def reversibility_residual(self) -> float:
        """sup |G A G A (z) - z| over 256 points of a curve (should be ~1e-16)."""
        x = 2.0 * np.pi * np.arange(256) / 256
        y = 0.1 * np.cos(3.0 * x + 0.7)
        x1, y1 = self.A(x, y)
        x2, y2 = self.A(-x1, y1)
        dx = np.angle(np.exp(1j * (-x2 - x)))
        return float(max(np.max(np.abs(dx)), np.max(np.abs(y2 - y))))


def _check_params(kind: str, params: dict, allowed: tuple) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ParameterError(
            f"unknown parameters {unknown} for perturbation kind {kind!r}; "
            f"valid: {', '.join(allowed) or '(no parameters)'}")


def _int_param(kind: str, params: dict, key: str, default: int) -> int:
    """params[key] (or default) as an int.

    A value with a fractional part, a non-finite value or a boolean raises
    ParameterError instead of being truncated.
    """
    value = params.get(key, default)
    try:
        whole = not isinstance(value, bool) and float(value).is_integer()
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise ParameterError(
            f"parameter {key!r} of perturbation kind {kind!r} must be an integer, "
            f"got {value!r}")
    return int(value)


def make_flow_perturbation(kind: str, **params) -> FlowSystem:
    """Perturbation factory used by configuration files."""
    if kind in ("single_mode", "standard"):
        _check_params(kind, params, ("eps", "g_amp", "k", "l"))
        return single_mode_flow(
            eps=float(params.get("eps", 1e-4)),
            g_amp=float(params.get("g_amp", 0.05)),
            k=_int_param(kind, params, "k", 1), l=_int_param(kind, params, "l", 1))
    if kind in ("none", "zero"):
        _check_params(kind, params, ())
        return FlowSystem(f=lambda x, y, t: np.zeros(x.shape[0]),
                          g=lambda x, y, t: np.zeros(x.shape[0]), d=1)
    raise ParameterError(f"unknown flow perturbation kind {kind!r}")


def make_map_perturbation(kind: str, omega: float, **params) -> MapSystem:
    """Map-family factory used by configuration files."""
    if kind in ("cosine_kick", "standard"):
        _check_params(kind, params, ("eps",))
        return MapSystem(omega=float(omega), eps=float(params.get("eps", 1e-4)))
    if kind in ("none", "zero"):
        _check_params(kind, params, ())
        return MapSystem(omega=float(omega), eps=0.0)
    raise ParameterError(f"unknown map perturbation kind {kind!r}")
