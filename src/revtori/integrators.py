"""Time-symmetric integrators.

All steppers here are self-adjoint (symmetric under h -> -h), which is what
makes discrete trajectories inherit the reversing symmetries of the flow:
if the vector field X satisfies X(Lz, -t) = -L X(z, t) for a linear
involution L, then a symmetric one-step map Phi_h built from X satisfies
L Phi_h L = Phi_h^{-1} exactly (up to the tolerance of any inner solve).

Higher orders come from Yoshida's palindromic compositions of a symmetric
order-2 step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ParameterError, StepFailureError

# order-4: the classical triple jump
_Y4_C1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y4_C0 = -(2.0 ** (1.0 / 3.0)) / (2.0 - 2.0 ** (1.0 / 3.0))

# order-6, Yoshida's solution A (7 stages, palindromic)
_Y6_W1 = -1.17767998417887
_Y6_W2 = 0.235573213359357
_Y6_W3 = 0.784513610477560
_Y6_W0 = 1.0 - 2.0 * (_Y6_W1 + _Y6_W2 + _Y6_W3)

# The implicit midpoint's inner fixed point: stop once an update falls
# below MIDPOINT_TOL times the state scale, give up after MIDPOINT_MAX_ITER.
MIDPOINT_TOL = 1e-14
MIDPOINT_MAX_ITER = 100


def yoshida_weights(order: int) -> np.ndarray:
    """Substep scalings turning a symmetric order-2 step into the given order."""
    if order == 2:
        return np.array([1.0])
    if order == 4:
        return np.array([_Y4_C1, _Y4_C0, _Y4_C1])
    if order == 6:
        return np.array([_Y6_W3, _Y6_W2, _Y6_W1, _Y6_W0, _Y6_W1, _Y6_W2, _Y6_W3])
    raise ParameterError(f"no composition of order {order} (choose 2, 4 or 6)")


def implicit_midpoint_step(rhs: Callable, z, t: float, h: float):
    """One implicit-midpoint step  z' = z + h f((z + z')/2, t + h/2).

    The inner fixed point iterates until the update is below
    ``MIDPOINT_TOL`` relative to the state scale, for at most
    ``MIDPOINT_MAX_ITER`` updates; ``z`` may be batched (any shape with the
    phase coordinates in the trailing axes).
    """
    z = np.asarray(z, dtype=float)
    t_mid = t + 0.5 * h
    w = z + h * np.asarray(rhs(z, t_mid), dtype=float)
    scale = 1.0 + float(np.max(np.abs(z)))
    for _ in range(MIDPOINT_MAX_ITER):
        w_next = z + h * np.asarray(rhs(0.5 * (z + w), t_mid), dtype=float)
        delta = float(np.max(np.abs(w_next - w)))
        w = w_next
        if delta <= MIDPOINT_TOL * scale:
            return w
    raise StepFailureError(
        f"implicit midpoint inner iteration stalled (last update {delta:.3e} "
        f"at t = {t:.6g}, h = {h:.3g})")
