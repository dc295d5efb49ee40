"""Frequency certification and small-divisor bookkeeping.

The certification oracle is a brute-force scan: enumerate every lattice
vector with |k|_1 <= K and every nearby integer offset with plain numpy,
and compare the resulting constant against `certify` on the same window.
"""

import numpy as np
import pytest

from revtori import diophantine
from revtori.errors import ParameterError, ResonanceError

from conftest import GOLDEN


def brute_force_kappa(omega, tau, K):
    """min over 0 < |k|_1 <= K of |<k, omega> + j| * |k|_1^tau (full lattice)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    d = omega.size
    grids = np.meshgrid(*([np.arange(-K, K + 1)] * d), indexing="ij")
    ks = np.stack([g.ravel() for g in grids], axis=-1)
    norms = np.abs(ks).sum(axis=1)
    keep = (norms > 0) & (norms <= K)
    ks, norms = ks[keep], norms[keep]
    vals = ks @ omega
    dist = np.abs(vals - np.round(vals))
    return float(np.min(dist * norms.astype(float) ** tau))


def test_golden_kappa_matches_brute_force():
    for K in (10, 50, 200):
        freq = diophantine.certify([GOLDEN], tau=1.01, K_max=K)
        oracle = brute_force_kappa([GOLDEN], 1.01, K)
        assert freq.kappa == pytest.approx(oracle, rel=1e-12)


def test_golden_kappa_known_value(golden):
    # the worst continued-fraction approximants give kappa -> (3 - sqrt(5))/2
    # as tau -> 1; with tau = 1 + 1e-4 the certified value sits just below.
    target = (3.0 - np.sqrt(5.0)) / 2.0
    assert golden.tau == pytest.approx(1.0001)
    assert 0.99 * target < golden.kappa <= target * 1.0001
    assert golden.K_max == 2000


def test_two_dimensional_certificate_matches_brute_force():
    omega = diophantine.make_frequency(2, "sqrt_prime")
    freq = diophantine.certify(omega, K_max=40)
    oracle = brute_force_kappa(omega, freq.tau, 40)
    assert freq.kappa == pytest.approx(oracle, rel=1e-12)
    assert freq.tau == pytest.approx(2.0001)


def test_resonant_frequency_rejected():
    with pytest.raises(ResonanceError):
        diophantine.certify([0.5])
    with pytest.raises(ResonanceError):
        diophantine.certify([1.0 / 3.0])


def test_resonance_is_a_parameter_error():
    # the CLI maps ParameterError to exit code 2; resonances must follow
    assert issubclass(ResonanceError, ParameterError)


def test_divisor_floor_is_a_lower_bound(golden):
    ks = np.arange(1, golden.K_max + 1)
    floors = golden.divisor_floor(ks)
    vals = ks * GOLDEN
    dist = np.abs(vals - np.round(vals))
    assert np.all(dist >= floors * (1.0 - 1e-12))


def test_certify_argmin_is_consistent(golden):
    k = np.asarray(golden.argmin_k, dtype=float)
    val = abs(float(k @ golden.omega) + golden.argmin_j)
    norm = float(np.abs(k).sum())
    assert val * norm ** golden.tau == pytest.approx(golden.kappa, rel=1e-12)


class TestRussmannSum:
    def test_window_violation_rejected(self):
        freq = diophantine.certify([GOLDEN], K_max=64)
        with pytest.raises(ParameterError):
            diophantine.russmann_sum(freq, 128)

    def test_small_case_by_hand(self):
        # n = 1: k = +-1, register |omega + j| <= 1 for j in {-1, 0}
        total = diophantine.russmann_sum(diophantine.certify([GOLDEN]), 1)
        expected = 2.0 * (GOLDEN ** -2 + (1.0 - GOLDEN) ** -2)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_window(self, golden):
        values = [diophantine.russmann_sum(golden, n) for n in (8, 16, 32, 64)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_growth_exponent_within_certified_range(self, golden):
        ns = 2 ** np.arange(4, 11)  # 16 .. 1024
        sums = np.array([diophantine.russmann_sum(golden, int(n)) for n in ns])
        slope = np.polyfit(np.log(ns), np.log(sums), 1)[0]
        assert 0.0 <= slope <= 2.0 * golden.tau + 0.2


def test_make_frequency_families():
    with pytest.raises(ParameterError):
        diophantine.make_frequency(2, "golden")
    with pytest.raises(ParameterError):
        diophantine.make_frequency(1, "no_such_family")
    om = diophantine.make_frequency(3, "sqrt_prime")
    assert om.shape == (3,)
    assert np.all((om > 0) & (om < 1))
    # a given vector goes straight to certify; there is no "custom" family
    with pytest.raises(ParameterError, match="unknown frequency kind 'custom'"):
        diophantine.make_frequency(2, "custom")


def test_to_dict_round_trip_values(golden):
    data = golden.to_dict()
    assert data["omega"] == [GOLDEN]
    assert data["kappa"] == golden.kappa
    assert data["K_max"] == 2000
