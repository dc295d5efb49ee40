"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`RevtoriError` so callers
(and the CLI) can distinguish expected failure modes from genuine bugs.
"""

from __future__ import annotations


class RevtoriError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ParameterError(RevtoriError):
    """A parameter is outside the range where the algorithms are defined."""


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
