"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`RevtoriError` so callers
(and the CLI) can distinguish expected failure modes from genuine bugs.
The parameter checks the perturbation factories share live here too, so
that the oscillator model needs no other module for them.
"""

from __future__ import annotations

import numbers


class RevtoriError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParameterError(RevtoriError):
    """A parameter is outside the range where the algorithms are defined."""


def check_params(kind: str, params: dict, allowed: tuple) -> None:
    """ParameterError unless every key of params is one of allowed."""
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ParameterError(
            f"unknown parameters {unknown} for perturbation kind {kind!r}; "
            f"valid: {', '.join(allowed) or '(no parameters)'}")


def int_param(kind: str, params: dict, key: str, default: int) -> int:
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


def positive_count(value, what: str) -> int:
    """int(value) for a positive numbers.Integral that is no bool; else ParameterError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ParameterError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


class DomainError(ParameterError):
    """Evaluation requested outside the validity domain of an object."""


class ShapeError(ParameterError):
    """Array arguments have incompatible or unexpected shapes."""


class ResonanceError(ParameterError):
    """A frequency vector is (numerically) resonant and cannot be certified.

    Attributes
    ----------
    k : tuple of int
        Integer vector achieving the near-resonance.
    j : int
        Integer offset achieving it.
    value : float
        The offending |<k, omega> + j|.
    """

    def __init__(self, k, j, value):
        self.k = tuple(int(a) for a in k)
        self.j = int(j)
        self.value = float(value)
        super().__init__(
            f"frequency is numerically resonant: |<k,omega>+j| = {value:.3e} "
            f"at k={self.k}, j={self.j}"
        )


class StructureError(RevtoriError):
    """An input violates a structural contract (parity, reality, mean)."""


class SmallDivisorError(RevtoriError):
    """A homological divisor fell below the certified floor.

    Attributes
    ----------
    mode : tuple
        The (k, l) mode whose divisor violated the floor.
    divisor : float
        Magnitude of the offending divisor.
    floor : float
        The floor that was violated.
    """

    def __init__(self, mode, divisor, floor):
        self.mode = mode
        self.divisor = float(divisor)
        self.floor = float(floor)
        super().__init__(
            f"divisor {divisor:.6e} at mode {mode} below floor {floor:.6e}"
        )


class StepFailureError(RevtoriError):
    """A Newton step failed to contract or left its validity domain."""


class PersistenceError(RevtoriError):
    """A file could not be parsed or failed validation on load."""
