"""Reference systems: parities, exact reversibility, factory validation."""

import numpy as np
import pytest

from revtori import systems
from revtori.errors import ParameterError

from conftest import GOLDEN


class TestSingleModeFlow:
    def test_parities_under_the_reversor(self, rng):
        fg = systems.single_mode_flow(eps=1e-3, g_amp=0.05, k=2, l=3)
        x = rng.uniform(0, 2 * np.pi, size=(64, 1))
        y = rng.uniform(-0.1, 0.1, size=(64, 1))
        t = rng.uniform(0, 2 * np.pi, size=64)
        there, here = fg(-x, y, -t), fg(x, y, t)
        np.testing.assert_allclose(there[:, 0], here[:, 0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(there[:, 1], -here[:, 1], rtol=0, atol=1e-15)

    def test_matches_explicit_harmonic(self, rng):
        eps, g_amp = 2e-4, 0.3
        fg = systems.single_mode_flow(eps=eps, g_amp=g_amp, k=1, l=1)
        x = rng.uniform(0, 2 * np.pi, size=(32, 1))
        y = np.zeros((32, 1))
        t = rng.uniform(0, 2 * np.pi, size=32)
        vals = fg(x, y, t)
        assert vals.shape == (32, 2)
        np.testing.assert_allclose(vals[:, 0], eps * np.cos(x[:, 0] + t), atol=1e-15)
        np.testing.assert_allclose(vals[:, 1], eps * g_amp * np.sin(x[:, 0] + t),
                                   atol=1e-15)

    def test_zero_kind_is_zero(self):
        fg = systems.make_flow_perturbation("none")
        x = np.linspace(0, 6, 10).reshape(-1, 1)
        vals = fg(x, x, x[:, 0])
        assert vals.shape == (10, 2) and np.all(vals == 0.0)

    def test_unknown_kind_rejected(self):
        for kind in ("sawtooth", "zero"):
            with pytest.raises(ParameterError, match="unknown flow perturbation kind"):
                systems.make_flow_perturbation(kind)


class TestMapSystem:
    def test_normal_form_consistency(self, rng):
        mp = systems.MapSystem(omega=GOLDEN, eps=1e-3)
        x = rng.uniform(0, 2 * np.pi, size=128)
        y = rng.uniform(-0.05, 0.05, size=128)
        x1, y1 = mp.A(x, y)
        # f = -eps cos x and g = eps (cos x1 - cos x), as the docstring says
        np.testing.assert_allclose(x1, x + mp.Omega + y - mp.eps * np.cos(x),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(y1, y + mp.eps * (np.cos(x1) - np.cos(x)),
                                   rtol=0, atol=1e-14)

    def test_matches_conjugated_involution(self, rng):
        # rebuild A from its advertised factorisation G o T o H0 o T^{-1}
        # with T the kick and H0 the affine involution, and compare
        eps = 7e-4
        mp = systems.MapSystem(omega=GOLDEN, eps=eps)
        Om = mp.Omega

        def kick(x, y):
            return x, y + eps * np.cos(x)

        def unkick(x, y):
            return x, y - eps * np.cos(x)

        def h0(x, y):
            return -x - Om - y, y

        x = rng.uniform(0, 2 * np.pi, size=128)
        y = rng.uniform(-0.05, 0.05, size=128)
        ax, ay = unkick(x, y)
        ax, ay = h0(ax, ay)
        ax, ay = kick(ax, ay)
        ax = -ax
        x1, y1 = mp.A(x, y)
        np.testing.assert_allclose(ax, x1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(ay, y1, rtol=0, atol=1e-12)

    def test_reversibility_is_exact(self):
        mp = systems.MapSystem(omega=GOLDEN, eps=5e-3)
        assert mp.reversibility_residual() < 1e-13
        # a rotation vector turns each angle by its own component
        assert systems.MapSystem(omega=np.array([GOLDEN, np.sqrt(2.0) - 1.0]),
                                 eps=5e-3).reversibility_residual() < 1e-13
        # independent pointwise check of G A G A = id
        x = 2 * np.pi * np.arange(17) / 17
        y = 0.08 * np.sin(2 * x + 0.3)
        x1, y1 = mp.A(x, y)
        x2, y2 = mp.A(-x1, y1)
        np.testing.assert_allclose(np.angle(np.exp(1j * (-x2 - x))), 0.0,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(y2, y, rtol=0, atol=1e-13)

    def test_zero_kick_is_rigid_twist(self):
        mp = systems.make_map_perturbation("none", omega=GOLDEN)
        x = np.linspace(0, 5, 9)
        y = np.linspace(-0.1, 0.1, 9)
        x1, y1 = mp.A(x, y)
        np.testing.assert_allclose(x1, x + mp.Omega + y, atol=1e-15)
        np.testing.assert_allclose(y1, y, atol=1e-15)

    def test_factory_kinds(self):
        mp = systems.make_map_perturbation("cosine_kick", omega=GOLDEN,
                                           eps=3e-4)
        assert mp.eps == 3e-4 and mp.omega == GOLDEN
        for kind in ("poisson", "zero"):
            with pytest.raises(ParameterError, match="unknown map perturbation kind"):
                systems.make_map_perturbation(kind, omega=GOLDEN)
