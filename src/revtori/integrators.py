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

from typing import Callable, Optional

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


def yoshida_weights(order: int) -> np.ndarray:
    """Substep scalings turning a symmetric order-2 step into the given order."""
    if order == 2:
        return np.array([1.0])
    if order == 4:
        return np.array([_Y4_C1, _Y4_C0, _Y4_C1])
    if order == 6:
        return np.array([_Y6_W3, _Y6_W2, _Y6_W1, _Y6_W0, _Y6_W1, _Y6_W2, _Y6_W3])
    raise ParameterError(f"no composition of order {order} (choose 2, 4 or 6)")


def compose_step(step: Callable, state, t: float, h: float,
                 weights: np.ndarray):
    """Apply ``step(state, t, w*h)`` through a palindromic weight sequence."""
    t_cur = float(t)
    for w in weights:
        state = step(state, t_cur, w * h)
        t_cur += w * h
    return state


def leapfrog_step(force: Callable, x, v, t: float, h: float):
    """Kick-drift-kick step for  x'' = force(x, t);  symmetric, order 2."""
    v_half = v + 0.5 * h * force(x, t)
    x_new = x + h * v_half
    v_new = v_half + 0.5 * h * force(x_new, t + h)
    return x_new, v_new


def implicit_midpoint_step(rhs: Callable, z, t: float, h: float,
                           tol: float = 1e-14, max_iter: int = 100):
    """One implicit-midpoint step  z' = z + h f((z + z')/2, t + h/2).

    The inner fixed point iterates until the update is below ``tol``
    relative to the state scale; ``z`` may be batched (any shape with the
    phase coordinates in the trailing axes).  ``max_iter`` must be at
    least 1.
    """
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    z = np.asarray(z, dtype=float)
    t_mid = t + 0.5 * h
    w = z + h * np.asarray(rhs(z, t_mid), dtype=float)
    scale = 1.0 + float(np.max(np.abs(z)))
    for _ in range(max_iter):
        w_next = z + h * np.asarray(rhs(0.5 * (z + w), t_mid), dtype=float)
        delta = float(np.max(np.abs(w_next - w)))
        w = w_next
        if delta <= tol * scale:
            return w
    raise StepFailureError(
        f"implicit midpoint inner iteration stalled (last update {delta:.3e} "
        f"at t = {t:.6g}, h = {h:.3g})")


def integrate(step: Callable, state, t0: float, dt: float, n_steps: int,
              record_every: Optional[int] = None):
    """Drive a one-step map ``step(state, t, dt)``.

    Returns the final state, or (times, states) when ``record_every`` is
    set (states stacked along a new leading axis, including the start).
    """
    t = float(t0)
    if record_every is None:
        for _ in range(n_steps):
            state = step(state, t, dt)
            t += dt
        return state
    times = [t]
    states = [np.array(state, dtype=float, copy=True)]
    for i in range(1, n_steps + 1):
        state = step(state, t, dt)
        t = t0 + i * dt
        if i % record_every == 0 or i == n_steps:
            times.append(t)
            states.append(np.array(state, dtype=float, copy=True))
    return np.array(times), np.stack(states)
