"""Symmetric steppers: convergence order, energy behaviour, reversibility."""

import numpy as np
import pytest

from revtori import integrators
from revtori.errors import ParameterError


def harmonic_force(x, t):
    return -x


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


def test_leapfrog_energy_error_is_bounded_long_time():
    # symmetric integrators oscillate around the energy shell instead of
    # drifting; one million steps of the harmonic oscillator stay at the
    # O(h^2) level
    h = 1e-2
    x, v = 1.0, 0.0

    def step(state, t, hh):
        return integrators.leapfrog_step(harmonic_force, state[0], state[1],
                                         t, hh)

    state = integrators.integrate(step, (x, v), 0.0, h, 1_000_000)
    energy = 0.5 * (state[0] ** 2 + state[1] ** 2)
    assert abs(energy - 0.5) < 1e-4  # ~h^2/8, no secular growth


def test_leapfrog_is_second_order():
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        n = int(round(1.0 / h))

        def step(state, t, hh):
            return integrators.leapfrog_step(harmonic_force, state[0],
                                             state[1], t, hh)

        state = integrators.integrate(step, (1.0, 0.0), 0.0, h, n)
        errs.append(abs(state[0] - np.cos(1.0)))
    rates = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert np.all(np.abs(rates - 2.0) < 0.1)


@pytest.mark.parametrize("order,expected", [(4, 4.0), (6, 6.0)])
def test_yoshida_composition_raises_order(order, expected):
    weights = integrators.yoshida_weights(order)
    errs = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        n = int(round(2.0 / h))

        def base(state, t, hh):
            return integrators.leapfrog_step(harmonic_force, state[0],
                                             state[1], t, hh)

        def step(state, t, hh):
            return integrators.compose_step(base, state, t, hh, weights)

        state = integrators.integrate(step, (1.0, 0.0), 0.0, h, n)
        errs.append(abs(state[0] - np.cos(2.0)) + abs(state[1] + np.sin(2.0)))
    rates = np.diff(np.log(errs)) / np.diff(np.log(hs))
    assert np.all(np.abs(rates - expected) < 0.4)


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
            z = integrators.implicit_midpoint_step(
                lambda zz, t: np.array([zz[1], -zz[0]]), z, i * h, h)
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


@pytest.mark.parametrize("max_iter", [0, -1])
def test_implicit_midpoint_needs_an_iteration(max_iter):
    with pytest.raises(ParameterError, match="max_iter"):
        integrators.implicit_midpoint_step(pendulum_rhs, np.array([0.8, 0.3]),
                                           0.0, 0.05, max_iter=max_iter)
    # one iteration is enough for a field that does not depend on z
    z = integrators.implicit_midpoint_step(lambda zz, t: np.ones(2),
                                           np.zeros(2), 0.0, 0.5, max_iter=1)
    np.testing.assert_array_equal(z, [0.5, 0.5])


def test_integrate_recording():
    def step(state, t, h):
        return state + h

    times, states = integrators.integrate(step, np.array([0.0]), 0.0, 0.25,
                                          8, record_every=2)
    assert times.shape == (5,)
    assert times[-1] == pytest.approx(2.0)
    assert np.allclose(states[:, 0], times)
