"""Homological (linearized conjugation) solvers for flows and maps.

Two independent oracles back these tests:

* a dense trigonometric collocation solve (numpy lstsq on a grid with
  more points than modes) reproducing the flow solutions coefficient by
  coefficient, and
* the telescoping identity sum_{j<J} g(x + j Omega) = v(x) - v(x + J Omega)
  for the map difference equation, summed over ten thousand shifts.
"""

import dataclasses
import time

import numpy as np
import pytest

from revtori import diophantine, homological
from revtori.errors import (ParameterError, ShapeError, SmallDivisorError,
                            StructureError)
from revtori.fields import field_from_function, harmonic_field

from conftest import GOLDEN, grid_parity_residual, random_parity_field, \
    random_reversible_pair


def _simplex_modes(N):
    """(k, l) pairs with |k| + |l| <= N, d = 1."""
    out = []
    for k in range(-N, N + 1):
        for l in range(-N, N + 1):
            if abs(k) + abs(l) <= N:
                out.append((k, l))
    return out


def collocation_solve_flow(f, g, omega, n=None):
    """Dense least-squares solve of both flow equations on a point grid.

    Returns coefficient tensors shaped like the library's, computed with
    nothing but numpy linear algebra: unknowns are the Fourier
    coefficients on the |k|+|l| <= N simplex (zero mode pinned to the
    solvability choice), equations are the PDEs evaluated at n^2 nodes.
    """
    N = f.N
    n = 2 * N + 3 if n is None else n
    modes = _simplex_modes(N)
    x = 2.0 * np.pi * np.arange(n) / n
    X, T = np.meshgrid(x, x, indexing="ij")
    basis = np.stack(
        [np.exp(1j * (k * X + l * T)).ravel() for (k, l) in modes], axis=1)
    divisors = np.array([k * omega + l for (k, l) in modes])
    free = [i for i, (k, l) in enumerate(modes) if (k, l) != (0, 0)]
    zero_col = modes.index((0, 0))
    A = basis[:, free] * (1j * divisors[free])

    P = f.coeffs.shape[-2]
    u_hat = np.zeros((2 * N + 1, 2 * N + 1, P), dtype=complex)
    v_hat = np.zeros_like(u_hat)
    for p in range(P):
        f_plane = f.coeffs[..., p, 0]
        g_plane = g.coeffs[..., p, 0]
        f_modes = np.array([f_plane[k + N, l + N] for (k, l) in modes])
        g_modes = np.array([g_plane[k + N, l + N] for (k, l) in modes])
        f_vals = basis @ f_modes
        g_vals = basis @ g_modes

        sol_v, *_ = np.linalg.lstsq(A, -g_vals, rcond=None)
        v_modes = np.zeros(len(modes), dtype=complex)
        v_modes[free] = sol_v
        v_modes[zero_col] = f_modes[zero_col]  # the solvability choice
        v_vals = basis @ v_modes

        sol_u, *_ = np.linalg.lstsq(A, v_vals - f_vals, rcond=None)
        for i, idx in enumerate(free):
            k, l = modes[idx]
            u_hat[k + N, l + N, p] = sol_u[i]
        for i, (k, l) in enumerate(modes):
            v_hat[k + N, l + N, p] = v_modes[i]
    return u_hat, v_hat


class TestFlowSolver:
    def test_matches_dense_collocation(self, rng, golden):
        t0 = time.perf_counter()
        f, g = random_reversible_pair(rng, d=1, N=8, q_y=2)
        sol = homological.solve_flow(f, g, golden)
        u_hat, v_hat = collocation_solve_flow(f, g, float(golden.omega[0]))
        scale_u = np.max(np.abs(u_hat))
        scale_v = np.max(np.abs(v_hat))
        assert np.max(np.abs(sol.u.coeffs[..., 0] - u_hat)) < 1e-10 * scale_u
        assert np.max(np.abs(sol.v.coeffs[..., 0] - v_hat)) < 1e-10 * scale_v
        assert time.perf_counter() - t0 < 1.0

    def test_coefficient_residuals(self, rng, golden):
        f, g = random_reversible_pair(rng, d=1, N=8, q_y=2)
        sol = homological.solve_flow(f, g, golden)
        N = f.N
        modes = np.arange(-N, N + 1, dtype=float)
        D = modes[:, None] * GOLDEN + modes[None, :]
        lhs_v = 1j * D[..., None, None] * sol.v.coeffs
        res_v = lhs_v + g.coeffs
        res_v[N, N] = 0.0  # zero mode carries the free constant
        assert float(np.max(np.abs(res_v))) < 1e-13
        lhs_u = 1j * D[..., None, None] * sol.u.coeffs
        res_u = lhs_u - (sol.v.coeffs - f.coeffs)
        res_u[N, N] = 0.0
        assert float(np.max(np.abs(res_u))) < 1e-13
        assert sol.residual_u < 1e-12 and sol.residual_v < 1e-12

    def test_solution_parities_flip(self, rng, golden):
        f, g = random_reversible_pair(rng, d=1, N=6, q_y=1)
        sol = homological.solve_flow(f, g, golden)
        assert sol.u.parity == ("odd",)
        assert sol.v.parity == ("even",)
        assert grid_parity_residual(sol.u) < 1e-10
        assert grid_parity_residual(sol.v) < 1e-10

    def test_min_divisor_respects_certificate(self, rng, golden):
        f, g = random_reversible_pair(rng, d=1, N=8)
        sol = homological.solve_flow(f, g, golden)
        floor = golden.kappa / 8.0 ** golden.tau
        assert sol.min_divisor >= 0.5 * floor

    def test_inflated_certificate_trips_floor_check(self, rng, golden):
        f, g = random_reversible_pair(rng, d=1, N=8)
        bogus = dataclasses.replace(golden, kappa=50.0 * golden.kappa)
        with pytest.raises(SmallDivisorError):
            homological.solve_flow(f, g, bogus)

    def test_window_violation_rejected(self, rng):
        freq = diophantine.certify([GOLDEN], K_max=6)
        f, g = random_reversible_pair(rng, d=1, N=8)
        with pytest.raises(ParameterError):
            homological.solve_flow(f, g, freq)

    def test_nonzero_action_mean_rejected(self, golden):
        f = harmonic_field(d=1, N=4, k=[1], l=1, amplitude=0.1)
        g = harmonic_field(d=1, N=4, k=[0], l=0, amplitude=0.3)  # pure mean
        with pytest.raises(StructureError):
            homological.solve_flow(f, g, golden)

    def test_mismatched_pair_rejected(self, rng, golden):
        f = random_parity_field(rng, "even", d=1, N=4)
        g = random_parity_field(rng, "odd", d=2, N=4)
        with pytest.raises(ShapeError):
            homological.solve_flow(f, g, golden)


class TestMapSolver:
    def _pair(self, rng, N=8, q_y=2):
        # difference equations are posed for autonomous fields (N_t = 0)
        f = random_parity_field(rng, "even", d=1, N=N, q_y=q_y, r=0.1, N_t=0)
        g = random_parity_field(rng, "odd", d=1, N=N, q_y=q_y, r=0.1, N_t=0)
        return f, g

    def test_telescoping_sum_oracle(self, rng, golden):
        f, g = self._pair(rng)
        sol = homological.solve_map(f, g, golden)
        Omega = 2.0 * np.pi * GOLDEN
        J = 10_000
        xs = np.array([[0.0], [1.1], [2.7], [4.2]])
        ys = np.full((4, 1), 0.05)
        total = np.zeros((4, 1))
        for j in range(J):
            total += g.evaluate(xs + j * Omega, ys, np.zeros(4))
        expected = sol.v.evaluate(xs, ys, np.zeros(4)) \
            - sol.v.evaluate(xs + J * Omega, ys, np.zeros(4))
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(total - expected)) < 1e-8 * scale

    def test_difference_equation_residuals(self, rng, golden):
        f, g = self._pair(rng)
        sol = homological.solve_map(f, g, golden)
        assert sol.residual_u < 1e-11
        assert sol.residual_v < 1e-11

    def test_reflection_symmetry_of_each_channel(self, rng, golden):
        # the divisor adds a half-shift per division, so each channel has
        # its own reflection center: f alone -> u odd about Omega/2;
        # g alone -> v even about Omega/2 and u odd about Omega.
        Omega = 2.0 * np.pi * GOLDEN
        xs = np.linspace(0.0, 2.0 * np.pi, 33)[:, None]
        t = np.zeros(33)
        f, g = self._pair(rng, q_y=0)
        zero = dataclasses.replace(f, coeffs=np.zeros_like(f.coeffs),
                                   parity=None)

        sol_f = homological.solve_map(f, zero, golden)
        su = float(np.max(np.abs(sol_f.u.evaluate(xs, None, t))))
        ref = sol_f.u.evaluate(Omega - xs, None, t)
        assert np.max(np.abs(ref + sol_f.u.evaluate(xs, None, t))) < 1e-12 * su

        sol_g = homological.solve_map(zero, g, golden)
        sv = float(np.max(np.abs(sol_g.v.evaluate(xs, None, t))))
        ref_v = sol_g.v.evaluate(Omega - xs, None, t)
        assert np.max(np.abs(ref_v - sol_g.v.evaluate(xs, None, t))) < 1e-12 * sv
        su = float(np.max(np.abs(sol_g.u.evaluate(xs, None, t))))
        ref_u = sol_g.u.evaluate(2.0 * Omega - xs, None, t)
        assert np.max(np.abs(ref_u + sol_g.u.evaluate(xs, None, t))) < 1e-12 * su

    def test_time_harmonics_rejected(self, rng, golden):
        f = random_parity_field(rng, "even", d=1, N=6)  # carries l != 0 modes
        g = random_parity_field(rng, "odd", d=1, N=6)
        with pytest.raises(StructureError):
            homological.solve_map(f, g, golden)

    def test_nonzero_mean_is_carried(self, rng, golden):
        f, g_osc = self._pair(rng)
        # non-odd g: a pure function of y has a nonzero angular average
        g_mean = field_from_function(lambda x, y, t: 0.2 * y[:, 0], d=1, m=1, N=8,
                                     q_y=2, r=0.1, time_independent=True)
        sol = homological.solve_map(f, g_mean, golden)
        assert float(np.max(np.abs(sol.g_mean.coeffs - g_mean.coeffs))) < 1e-15
        assert sol.min_divisor > 0.0
        # with an oscillating part added, v solves against g - g_mean only
        both = homological.solve_map(f, g_osc + g_mean, golden)
        plain = homological.solve_map(f, g_osc, golden)
        assert float(np.max(np.abs(both.g_mean.coeffs - g_mean.coeffs))) < 1e-15
        assert float(np.max(np.abs(both.v.coeffs - plain.v.coeffs))) < 1e-15
        assert both.residual_u < 1e-11 and both.residual_v < 1e-11
        assert not np.any(plain.g_mean.coeffs)


def test_divisor_grids_match_direct_formulas(golden):
    N = 6
    D = homological.flow_divisors(golden, 1, N)
    ks = np.arange(-N, N + 1)
    expected = ks[:, None] * GOLDEN + ks[None, :]
    assert np.allclose(D, expected, atol=1e-15)
    Dm = homological.map_divisors(golden, 1, N)
    expected_m = np.exp(2j * np.pi * ((ks * GOLDEN) - np.round(ks * GOLDEN))) - 1.0
    assert np.allclose(Dm, expected_m, atol=1e-15)
