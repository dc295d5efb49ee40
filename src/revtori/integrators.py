"""Composition weights for symmetric steps, and one adaptive integrator.

``yoshida_weights`` gives the substep scalings of Yoshida's palindromic
compositions, which raise a symmetric (self-adjoint) order-2 step to
order 4 or 6; the reference orbit and the stability experiment compose
their split steps with them.

``extrapolate`` is the explicit integrator with step-size control, for
every flow that needs an accurate end state: the check of a torus against
the true flow and the period map of the Lienard section.  It is
Gragg-Bulirsch-Stoer extrapolation of the modified midpoint rule.
"""

from __future__ import annotations

import math
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

# Extrapolation: row j of the tableau runs the modified midpoint rule with
# 2j substeps, for at most _GBS_ROWS rows (order 2 _GBS_ROWS).  A call
# gives up after _GBS_MAX_STEPS steps, accepted or rejected, or once a
# step would be shorter than _GBS_MIN_STEP times the whole span.
_GBS_ROWS = 8
_GBS_MAX_STEPS = 1000
_GBS_MIN_STEP = 1e-12


def yoshida_weights(order: int) -> np.ndarray:
    """Substep scalings turning a symmetric order-2 step into the given order."""
    if order == 2:
        return np.array([1.0])
    if order == 4:
        return np.array([_Y4_C1, _Y4_C0, _Y4_C1])
    if order == 6:
        return np.array([_Y6_W3, _Y6_W2, _Y6_W1, _Y6_W0, _Y6_W1, _Y6_W2, _Y6_W3])
    raise ParameterError(f"no composition of order {order} (choose 2, 4 or 6)")


def extrapolate(rhs: Callable, z, t0: float, t1: float, tol: float) -> np.ndarray:
    """Solve dz/dt = rhs(z, t) from t0 to t1 by Gragg-Bulirsch-Stoer extrapolation.

    Each step of length H runs the modified midpoint rule with n = 2, 4,
    6, ... substeps, one row each, and fills an Aitken-Neville tableau in
    (H/n)^2 (Hairer, Norsett and Wanner, Solving ODEs I, section II.9).
    The rule and the tableau carry the increment over the step rather than
    the state, which keeps their rounding at the size of the increment.
    The step is accepted at the first row j >= 2 whose last two entries
    T_jj and T_j,j-1 differ by at most atol + tol |z| in every component,
    with atol = tol * 1e-3 and |z| the larger of the old and new values,
    and returns T_jj.  The next H follows from that error, an estimate of
    order 2j - 1.  A step that no row accepts is retried shorter.  The
    first step tries the whole span.

    A non-finite right-hand side raises StepFailureError at once; so does
    a step shorter than _GBS_MIN_STEP of the span, or a call that takes
    more than _GBS_MAX_STEPS steps.
    """
    z = np.asarray(z, dtype=float)
    atol = tol * 1e-3
    span = t1 - t0
    t, H = t0, span
    for _ in range(_GBS_MAX_STEPS):
        last = abs(H) >= abs(t1 - t)
        if last:
            H = t1 - t
        if abs(H) < _GBS_MIN_STEP * abs(span):
            raise StepFailureError(f"step size {H:.3e} collapsed at t = {t!r}")
        f0 = _finite(rhs(z, t), t)
        rows = []
        for j in range(1, _GBS_ROWS + 1):
            n = 2 * j
            h = H / n
            dz_prev, dz = 0.0, h * f0
            for i in range(1, n):
                f = _finite(rhs(z + dz, t + i * h), t + i * h)
                dz_prev, dz = dz, dz_prev + (2.0 * h) * f
            row = [dz]
            for k, below in enumerate(rows[-1] if rows else (), start=1):
                row.append(row[-1] + (row[-1] - below) / ((n / (n - 2 * k)) ** 2 - 1.0))
            rows.append(row)
            if j >= 2:
                z_new = z + row[-1]
                scale = atol + tol * np.maximum(np.abs(z), np.abs(z_new))
                err = float(np.max(np.abs(row[-1] - row[-2]) / scale))
                if err <= 1.0:
                    break
        else:
            H *= min(0.5, _gbs_factor(err, _GBS_ROWS))
            continue
        if last:
            return z_new
        t, z = t + H, z_new
        H *= _gbs_factor(err, j)
    raise StepFailureError(f"more than {_GBS_MAX_STEPS} steps before t = {t1!r}")


def _gbs_factor(err: float, j: int) -> float:
    """Step-size factor after row j measured the error err, within [0.02, 4]."""
    if err == 0.0:
        return 4.0
    if math.isnan(err):
        return 0.02
    return min(4.0, max(0.02, 0.94 * (0.65 / err) ** (1.0 / (2 * j - 1))))


def _finite(value, t: float) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise StepFailureError(f"non-finite right-hand side at t = {t!r}")
    return value
