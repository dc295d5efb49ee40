"""Smoothing multiplier, telescoping decomposition, approximation rates."""

import math

import numpy as np
import pytest

from revtori import smoothing
from revtori.errors import DomainError, ParameterError
from revtori.fields import harmonic_field

from conftest import grid_parity_residual, random_parity_field


class TestKernel:
    def test_symbol_invariants(self):
        rho = np.linspace(0.0, 2.0, 2001)
        sig = smoothing.symbol(rho)
        assert sig[0] == 1.0
        assert np.all(sig[rho <= smoothing.PLATEAU * smoothing.SCALE] == 1.0)
        assert np.all(sig[rho >= smoothing.SCALE] == 0.0)
        assert np.all(np.diff(sig) <= 1e-15)  # monotone descent
        assert np.all((0.0 <= sig) & (sig <= 1.0))

    def test_symbol_midpoint_symmetry(self):
        # the quintic step is symmetric about the midpoint of the descent
        lo, hi = smoothing.PLATEAU * smoothing.SCALE, smoothing.SCALE
        u = np.linspace(0.0, 1.0, 101)
        sig = smoothing.symbol(lo + u * (hi - lo))
        assert np.allclose(sig + sig[::-1], 1.0, atol=1e-13)

    def test_cutoff_ceil(self):
        assert smoothing.cutoff(0.5) == 2
        assert smoothing.cutoff(0.3) == 4
        assert smoothing.cutoff(1.0) == 1


class TestSmooth:
    def test_identity_on_plateau_modes(self):
        # |k| + |l| = 2 and s = 0.2 puts rho = 0.4 below the plateau edge 0.5
        fld = harmonic_field(d=1, N=4, k=[1], l=1, amplitude=0.9)
        out = smoothing.smooth(fld, 0.2)
        assert np.allclose(out.coeffs, fld.truncate(out.N).coeffs, atol=0.0)

    def test_kills_modes_past_cutoff(self, rng):
        fld = random_parity_field(rng, "even", N=12, q_y=0)
        out = smoothing.smooth(fld, 0.5)
        assert out.N == 2  # ceil(SCALE / s) with SCALE = 1

    def test_scale_domain(self, rng):
        fld = random_parity_field(rng, "even", N=4)
        with pytest.raises(DomainError):
            smoothing.smooth(fld, 0.0)
        with pytest.raises(DomainError):
            smoothing.smooth(fld, 1.5)

    def test_parity_preserved(self, rng):
        for parity in ("even", "odd"):
            fld = random_parity_field(rng, parity, N=10, q_y=1)
            out = smoothing.smooth(fld, 0.17)
            assert out.parity == (parity,)
            assert grid_parity_residual(out) < 1e-13


class TestDecompose:
    def test_partial_sums_telescope_exactly(self, rng):
        fld = random_parity_field(rng, "odd", N=16, q_y=2, r=0.05)
        scales = [0.5, 0.25, 0.125, 0.0625]
        pieces = smoothing.decompose(fld, scales)
        assert len(pieces) == 4
        for v, s in enumerate(scales):
            direct = smoothing.smooth(fld, s)
            partial = sum(pieces[1:v + 1], pieces[0])
            assert partial.N >= direct.N
            diff = partial - direct
            assert float(np.max(np.abs(diff.coeffs))) < 1e-15

    def test_scales_must_decrease(self, rng):
        fld = random_parity_field(rng, "even", N=8)
        with pytest.raises(ParameterError):
            smoothing.decompose(fld, [0.25, 0.25])
        with pytest.raises(ParameterError):
            smoothing.decompose(fld, [])

    def test_accepts_schedule_like_object(self, rng):
        from revtori import newton
        fld = random_parity_field(rng, "even", N=8)
        sched = newton.make_schedule(1, 0.1, 1e-4, 2)
        pieces = smoothing.decompose(fld, sched)
        assert len(pieces) == len(sched.s)

    def test_piece_majorants_sum_bounds_total(self, rng):
        fld = random_parity_field(rng, "even", N=16)
        pieces = smoothing.decompose(fld, [0.5, 0.125])
        total = sum(pieces[1:], pieces[0])
        assert total.majorant() <= sum(p.majorant() for p in pieces) + 1e-12


class TestApproximationRate:
    def test_error_majorant_dominates_grid_error(self, rng):
        fld = random_parity_field(rng, "even", N=24, q_y=0, decay=0.25)
        for s in (0.5, 0.2, 0.1):
            bound = smoothing.approximation_error(fld, s)
            actual = (fld - smoothing.smooth(fld, s)).sup_norm()
            assert actual <= bound + 1e-14

    @pytest.mark.parametrize("ell_star", [2.5, 3.1, 4.0])
    def test_synthetic_field_rate(self, ell_star):
        field = smoothing.synthetic_rough_field(ell_star, N=512, seed=3)
        scales = np.geomspace(0.5, 0.05, 6)
        errs = [(field - smoothing.smooth(field, float(s))).sup_norm()
                for s in scales]
        slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
        assert abs(slope - ell_star) / ell_star < 0.25

    def test_synthetic_field_rejects_bad_smoothness(self):
        for ell_star in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                smoothing.synthetic_rough_field(ell_star)

    def test_synthetic_field_needs_a_mode(self):
        for N in (0, -3):
            with pytest.raises(ParameterError):
                smoothing.synthetic_rough_field(2.5, N=N)

    def test_synthetic_field_seeded(self):
        a = smoothing.synthetic_rough_field(2.5, N=64, seed=7)
        b = smoothing.synthetic_rough_field(2.5, N=64, seed=7)
        c = smoothing.synthetic_rough_field(2.5, N=64, seed=8)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert not np.array_equal(a.coeffs, c.coeffs)
