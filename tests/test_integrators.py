"""Symmetric steppers: convergence order, energy behaviour, reversibility."""

import numpy as np
import pytest

from revtori import integrators
from revtori.errors import ParameterError


def harmonic_rhs(z, t):
    return np.array([z[1], -z[0]])


def pendulum_rhs(z, t):
    # z = (q, p); separable Hamiltonian H = p^2/2 - cos q
    return np.array([z[1], -np.sin(z[0])])


def test_yoshida_weights_sum_to_one():
    for order in (2, 4, 6):
        w = integrators.yoshida_weights(order)
        assert np.sum(w) == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(w, w[::-1])  # palindromic
    with pytest.raises(ParameterError):
        integrators.yoshida_weights(3)


@pytest.mark.parametrize("order,expected", [(2, 2.0), (4, 4.0), (6, 6.0)])
def test_yoshida_composition_raises_order(order, expected):
    # the palindromic weights composed over the implicit midpoint step;
    # at order 6 and h = 0.05 the error (~1e-10) still sits far above the
    # inner-solve tolerance
    weights = integrators.yoshida_weights(order)
    errs = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        z = np.array([1.0, 0.0])
        t = 0.0
        for _ in range(int(round(2.0 / h))):
            for w in weights:
                z = integrators.implicit_midpoint_step(harmonic_rhs, z, t, w * h)
                t += w * h
        errs.append(abs(z[0] - np.cos(2.0)) + abs(z[1] + np.sin(2.0)))
    rates = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert np.all(np.abs(rates - expected) < 0.1)


def test_implicit_midpoint_time_reversibility():
    # run forward, flip the momentum, run forward again: a symmetric method
    # retraces its own trajectory to the inner-solve tolerance
    h = 0.05
    n = 200
    z0 = np.array([0.8, 0.3])
    z = z0.copy()
    for i in range(n):
        z = integrators.implicit_midpoint_step(pendulum_rhs, z, i * h, h)
    z[1] = -z[1]
    for i in range(n):
        z = integrators.implicit_midpoint_step(pendulum_rhs, z, i * h, h)
    z[1] = -z[1]
    assert np.max(np.abs(z - z0)) < 1e-11


def test_implicit_midpoint_second_order():
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        n = int(round(1.0 / h))
        z = np.array([1.0, 0.0])
        for i in range(n):
            z = integrators.implicit_midpoint_step(harmonic_rhs, z, i * h, h)
        errs.append(abs(z[0] - np.cos(1.0)))
    rates = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert np.all(np.abs(rates - 2.0) < 0.1)


def test_implicit_midpoint_batched_matches_scalar():
    rhs = lambda z, t: np.stack([z[..., 1], -np.sin(z[..., 0])], axis=-1)
    batch = np.array([[0.8, 0.3], [0.1, -0.2], [1.5, 0.0]])
    stepped = integrators.implicit_midpoint_step(rhs, batch, 0.0, 0.05)
    for row_in, row_out in zip(batch, stepped):
        single = integrators.implicit_midpoint_step(rhs, row_in, 0.0, 0.05)
        assert np.allclose(single, row_out, atol=1e-14)
