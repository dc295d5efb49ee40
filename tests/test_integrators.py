"""Yoshida compositions: their weights and the orders they reach; the
extrapolation integrator: accuracy against exact solutions and its failure
paths."""

import numpy as np
import pytest

from revtori import integrators
from revtori.errors import ParameterError, StepFailureError


def harmonic_rhs(z, t):
    return np.array([z[1], -z[0]])


def test_yoshida_weights_sum_to_one():
    for order in (2, 4, 6):
        w = integrators.yoshida_weights(order)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(w, w[::-1])  # palindromic
    with pytest.raises(ParameterError):
        integrators.yoshida_weights(3)


@pytest.mark.parametrize("order,expected", [(2, 2.0), (4, 4.0), (6, 6.0)])
def test_yoshida_composition_raises_order(order, expected):
    # the palindromic weights composed over a Stormer-Verlet step
    # (kick-drift-kick) of the harmonic oscillator q'' = -q
    weights = integrators.yoshida_weights(order)
    errs = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        q, p = 1.0, 0.0
        for _ in range(int(round(2.0 / h))):
            for w in weights:
                p -= 0.5 * w * h * q
                q += w * h * p
                p -= 0.5 * w * h * q
        errs.append(abs(q - np.cos(2.0)) + abs(p + np.sin(2.0)))
    rates = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert np.all(np.abs(rates - expected) < 0.1)


# --------------------------------------------------------------------------- #
# extrapolation
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("t1", [10.0, -10.0])
def test_extrapolation_meets_its_tolerance_on_the_harmonic_oscillator(tol, t1):
    # over 1.6 periods: several steps, each held to the local tolerance
    z = integrators.extrapolate(harmonic_rhs, [1.0, 0.0], 0.0, t1, tol)
    assert np.max(np.abs(z - [np.cos(t1), -np.sin(t1)])) <= 10.0 * tol


def test_extrapolation_of_a_finite_time_blow_up_fails():
    # dz/dt = 1 + z^2 from 0 is tan t, which leaves every bound at pi/2:
    # the step size collapses there instead of the loop running on
    rhs = lambda z, t: 1.0 + z * z  # noqa: E731
    with pytest.raises(StepFailureError, match="collapsed"):
        integrators.extrapolate(rhs, np.zeros(1), 0.0, 2.0, 1e-12)


def test_extrapolation_gives_up_after_its_step_cap(monkeypatch):
    monkeypatch.setattr(integrators, "_GBS_MAX_STEPS", 3)
    with pytest.raises(StepFailureError, match="more than 3 steps"):
        integrators.extrapolate(harmonic_rhs, [1.0, 0.0], 0.0, 100.0, 1e-12)


def test_extrapolation_stops_at_a_non_finite_right_hand_side():
    calls = []

    def rhs(z, t):
        calls.append(t)
        return np.full_like(z, np.nan) if t > 0.5 else -z

    with pytest.raises(StepFailureError, match="non-finite"):
        integrators.extrapolate(rhs, np.ones(2), 0.0, 1.0, 1e-12)
    # at once: the first non-finite value ends the call
    assert [t for t in calls if t > 0.5] == [calls[-1]]
