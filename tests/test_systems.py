"""Reference systems: parities, exact reversibility, factory validation."""

import numpy as np
import pytest

from revtori import systems
from revtori.errors import ParameterError

from conftest import GOLDEN


class TestSingleModeFlow:
    def test_parities_under_the_reversor(self, rng):
        sys_ = systems.single_mode_flow(eps=1e-3, g_amp=0.05, k=2, l=3)
        x = rng.uniform(0, 2 * np.pi, size=(64, 1))
        y = rng.uniform(-0.1, 0.1, size=(64, 1))
        t = rng.uniform(0, 2 * np.pi, size=64)
        np.testing.assert_allclose(sys_.f(-x, y, -t), sys_.f(x, y, t),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(sys_.g(-x, y, -t), -sys_.g(x, y, t),
                                   rtol=0, atol=1e-15)

    def test_matches_explicit_harmonic(self, rng):
        eps, g_amp = 2e-4, 0.3
        sys_ = systems.single_mode_flow(eps=eps, g_amp=g_amp, k=1, l=1)
        x = rng.uniform(0, 2 * np.pi, size=(32, 1))
        y = np.zeros((32, 1))
        t = rng.uniform(0, 2 * np.pi, size=32)
        np.testing.assert_allclose(sys_.f(x, y, t),
                                   eps * np.cos(x[:, 0] + t), atol=1e-15)
        np.testing.assert_allclose(sys_.g(x, y, t),
                                   eps * g_amp * np.sin(x[:, 0] + t),
                                   atol=1e-15)

    def test_zero_kind_is_zero(self):
        sys_ = systems.make_flow_perturbation("none")
        x = np.linspace(0, 6, 10).reshape(-1, 1)
        assert np.all(sys_.f(x, x, x[:, 0]) == 0.0)
        assert np.all(sys_.g(x, x, x[:, 0]) == 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            systems.make_flow_perturbation("sawtooth")


class TestMapSystem:
    def test_normal_form_consistency(self, rng):
        mp = systems.MapSystem(omega=GOLDEN, eps=1e-3)
        x = rng.uniform(0, 2 * np.pi, size=128)
        y = rng.uniform(-0.05, 0.05, size=128)
        x1, y1 = mp.A(x, y)
        np.testing.assert_allclose(x1, x + mp.Omega + y + mp.f(x, y),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(y1, y + mp.g(x, y), rtol=0, atol=1e-14)

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
        with pytest.raises(ParameterError):
            systems.make_map_perturbation("poisson", omega=GOLDEN)
