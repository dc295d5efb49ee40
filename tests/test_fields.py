"""Fourier-field core: evaluation, calculus, algebra, serialization.

Oracles are direct trigonometric evaluations with numpy: a harmonic field
must reproduce amplitude * y^alpha * cos(<k,x> + l t) pointwise, sums must
match pointwise sums, derivatives must match the analytically
differentiated harmonic.
"""

import math

import numpy as np
import pytest

from revtori import fields
from revtori.errors import (DomainError, ParameterError, PersistenceError,
                            ShapeError, StructureError)
from revtori.fields import FourierField, harmonic_field
from revtori.smoothing import smooth

from conftest import grid_parity_residual, random_parity_field


def _sample_points(rng, S=40, d=1):
    x = rng.uniform(0.0, 2.0 * np.pi, size=(S, d))
    y = rng.uniform(-0.05, 0.05, size=(S, d))
    t = rng.uniform(0.0, 2.0 * np.pi, size=S)
    return x, y, t


class TestEvaluation:
    def test_single_cos_harmonic(self, rng):
        fld = harmonic_field(d=1, N=5, k=[2], l=-1, amplitude=0.7, kind="cos")
        x, y, t = _sample_points(rng)
        expected = 0.7 * np.cos(2.0 * x[:, 0] - t)
        got = fld.evaluate(x, y, t)[:, 0]
        assert np.allclose(got, expected, rtol=0.0, atol=1e-14)

    def test_single_sin_harmonic_with_action_power(self, rng):
        fld = harmonic_field(d=1, N=4, k=[1], l=2, amplitude=-1.3,
                             kind="sin", q_y=2, r=0.1, power=2)
        x, y, t = _sample_points(rng)
        expected = -1.3 * y[:, 0] ** 2 * np.sin(x[:, 0] + 2.0 * t)
        got = fld.evaluate(x, y, t)[:, 0]
        assert np.allclose(got, expected, rtol=0.0, atol=1e-14)

    def test_values_on_grid_matches_pointwise(self, rng):
        fld = random_parity_field(rng, "even", N=6, q_y=0)
        n = 16
        vals = fld.values_on_grid(n)
        assert vals.shape == (n, n, 1, 1)
        assert np.max(np.abs(vals.imag)) < 1e-13
        nodes = 2.0 * np.pi * np.arange(n) / n
        for j in (0, 3, 11):
            xs = np.full((n, 1), nodes[j])
            direct = fld.evaluate(xs, None, nodes)
            assert np.allclose(vals[j, :, 0, 0].real, direct[:, 0], atol=1e-13)

    def test_grid_too_small_raises(self, rng):
        fld = random_parity_field(rng, "even", N=6)
        with pytest.raises(ShapeError):
            fld.values_on_grid(12)

    def test_domain_check(self):
        fld = harmonic_field(d=1, N=2, k=[1], l=0, amplitude=1.0, q_y=1,
                             r=0.05, power=1)
        x = np.zeros((1, 1))
        y_bad = np.full((1, 1), 0.2)
        with pytest.raises(DomainError):
            fld.evaluate(x, y_bad, np.zeros(1))
        # and the escape hatch
        fld.evaluate(x, y_bad, np.zeros(1), check_domain=False)


def _random_complex_field(rng, d, N, m=2, q_y=2, r=0.1):
    P = len(fields.action_powers(d, q_y))
    shape = (2 * N + 1,) * (d + 1) + (P, m)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[~fields.mode_mask(d, N, N)] = 0.0
    return FourierField(d, m, N, q_y, r, coeffs)


def _direct_sum(fld, x, y, t):
    """sum of c[k, l, alpha] y^alpha e^{i(<k, x> + l t)}, one mode at a time."""
    out = np.zeros((len(x), fld.m), dtype=complex)
    for idx in np.argwhere(fields.mode_mask(fld.d, fld.N, fld.N_t)):
        k, l = idx[:fld.d] - fld.N, idx[fld.d] - fld.N_t
        phase = np.exp(1j * (x @ k + l * t))
        for p, alpha in enumerate(fld.powers):
            weight = np.prod(y ** alpha, axis=1)
            out += (phase * weight)[:, None] * fld.coeffs[tuple(idx) + (p,)]
    return out


class TestEvaluationKernel:
    """evaluate_complex against the per-mode sum, across point blocks."""

    @staticmethod
    def _tol(fld):
        # |y| < 1 and |e^{i..}| = 1, so sum |c| bounds every value
        return 100 * np.finfo(float).eps * float(np.sum(np.abs(fld.coeffs)))

    @pytest.mark.parametrize("d, N", [(1, 6), (2, 4)])
    def test_matches_direct_sum(self, rng, d, N):
        fld = _random_complex_field(rng, d, N)
        x, y, t = _sample_points(rng, S=60, d=d)
        got = fld.evaluate_complex(x, y, t)
        assert got.shape == (60, 2)
        np.testing.assert_allclose(got, _direct_sum(fld, x, y, t), rtol=0.0,
                                   atol=self._tol(fld))

    @pytest.mark.parametrize("d", [1, 2])
    def test_scalar_and_empty_samples(self, rng, d):
        fld = _random_complex_field(rng, d, N=3)
        x, y, t = _sample_points(rng, S=1, d=d)
        xs, ys = (x[0, 0], y[0, 0]) if d == 1 else (x[0], y[0])
        got = fld.evaluate_complex(xs, ys, t[0])
        assert got.shape == (2,)
        np.testing.assert_allclose(got, _direct_sum(fld, x, y, t)[0], rtol=0.0,
                                   atol=self._tol(fld))
        empty = fld.evaluate_complex(np.zeros((0, d)), np.zeros((0, d)),
                                     np.zeros(0))
        assert empty.shape == (0, 2)

    def test_blocks_agree_with_parts(self, rng):
        fld = _random_complex_field(rng, d=2, N=6)
        width = fld.coeffs.size // (2 * fld.N + 1)
        block = fields._EVAL_BLOCK_ENTRIES // width
        S = 3 * block + 5
        x, y, t = _sample_points(rng, S=S, d=2)
        whole = fld.evaluate_complex(x, y, t)
        cuts = [0, block // 2, 2 * block + 1, S]
        parts = np.concatenate([fld.evaluate_complex(x[a:b], y[a:b], t[a:b])
                                for a, b in zip(cuts[:-1], cuts[1:])])
        tol = self._tol(fld)
        np.testing.assert_allclose(whole, parts, rtol=0.0, atol=tol)
        np.testing.assert_allclose(whole, _direct_sum(fld, x, y, t), rtol=0.0,
                                   atol=tol)


def _jet_field(rng, d, N, N_t, m=2, q_y=2, r=0.1):
    """Random complex field on the |k|_1 + |l| <= N support, time cutoff N_t."""
    P = len(fields.action_powers(d, q_y))
    shape = (2 * N + 1,) * d + (2 * N_t + 1, P, m)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[~fields.mode_mask(d, N, N_t)] = 0.0
    return FourierField(d, m, N, q_y, r, coeffs)


def _grid_nodes(d, n, n_t, sheets):
    """Nodes of the (n,)*d + (n_t,) grid in row-major order, repeated."""
    grid = 2.0 * np.pi * np.arange(n) / n
    axes = np.meshgrid(*([grid] * d), grid[:n_t] if n_t > 1 else [0.0],
                       indexing="ij")
    x = np.stack([a.ravel() for a in axes[:d]], axis=-1)
    return np.tile(x, (sheets, 1)), np.tile(axes[d].ravel(), sheets)


class TestGridJet:
    """GridJet against evaluate_complex at grid nodes plus offsets."""

    @pytest.mark.parametrize("d, N, N_t, n", [
        (1, 6, 0, 16), (1, 6, 6, 16),
        (1, 12, 12, 16),  # N > n/2: modes fold mod n
        (2, 4, 0, 9), (2, 4, 4, 9),
        (2, 6, 6, 7),  # folded at d = 2
    ])
    @pytest.mark.parametrize("offset", [0.0, 1e-4, 1.0])
    def test_matches_scattered_evaluation(self, rng, d, N, N_t, n, offset):
        fld = _jet_field(rng, d, N, N_t)
        n_t = n if N_t else 1
        x, t = _grid_nodes(d, n, n_t, sheets=2)
        delta = rng.uniform(-offset / N, offset / N, size=x.shape)
        y = rng.uniform(-1.0, 1.0, size=x.shape)
        y *= fld.r / np.sqrt(np.sum(y * y, axis=1, keepdims=True))  # on |y| = r
        y *= rng.uniform(0.0, 1.0, size=(len(y), 1))
        jet = fields.GridJet(fld, n, n_t)
        got = jet.evaluate(delta, y)
        want = fld.evaluate_complex(x + delta, y, t).real
        assert got.shape == want.shape == (len(x), 2)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * fld.majorant())
        assert jet.max_order == fields.taylor_order(N * float(np.max(np.abs(delta))))

    @pytest.mark.parametrize("d, N_t", [(1, 0), (1, 5), (2, 0), (2, 5)])
    def test_zero_offset_is_values_on_grid(self, rng, d, N_t):
        fld = _jet_field(rng, d, 5, N_t)
        n = 11
        n_t = n if N_t else 1
        jet = fields.GridJet(fld, n, n_t)
        got = jet.evaluate(np.zeros((n ** d * n_t, d)), None)
        want = fld.values_on_grid(n)[..., 0, :].real.reshape(-1, 2)
        np.testing.assert_array_equal(got, want)
        assert jet.max_order == 0

    def test_time_cutoff_folds_to_one_time_node(self, rng):
        # a time-dependent field on the single time node t = 0
        fld = _jet_field(rng, 1, 5, 5)
        x, t = _grid_nodes(1, 12, 1, sheets=1)
        delta = rng.uniform(-0.05, 0.05, size=x.shape)
        got = fields.GridJet(fld, 12, 1).evaluate(delta, None)
        np.testing.assert_allclose(got, fld.evaluate_complex(x + delta, None, t).real,
                                   rtol=0.0, atol=1e-14 * fld.majorant())

    def test_offsets_past_half_a_cell_re_anchor(self, rng):
        fld = _jet_field(rng, 2, 4, 4)
        n = 9
        x, t = _grid_nodes(2, n, n, sheets=1)
        delta = rng.uniform(-3.0, 3.0, size=x.shape) * 2.0 * np.pi / n
        jet = fields.GridJet(fld, n, n)
        got = jet.evaluate(delta, None)
        np.testing.assert_allclose(got, fld.evaluate_complex(x + delta, None, t).real,
                                   rtol=0.0, atol=1e-14 * fld.majorant())
        # the order follows the offset from the nearest node, |delta| <= pi / n
        assert jet.max_order <= fields.taylor_order(fld.N * np.pi / n)

    def test_non_finite_offsets_stay_local(self, rng):
        fld = _jet_field(rng, 1, 5, 0)
        x, t = _grid_nodes(1, 12, 1, sheets=1)
        delta = rng.uniform(-0.01, 0.01, size=x.shape)
        delta[3], delta[7] = math.nan, math.inf
        got = fields.GridJet(fld, 12, 1).evaluate(delta, None)
        bad = np.zeros(12, dtype=bool)
        bad[[3, 7]] = True
        assert not np.any(np.isfinite(got[bad]))
        np.testing.assert_allclose(got[~bad], fld.evaluate_complex(
            x[~bad] + delta[~bad], None, t[~bad]).real, rtol=0.0,
            atol=1e-14 * fld.majorant())

    def test_table_memory_stays_under_the_cap(self, rng, monkeypatch):
        fld = _jet_field(rng, 2, 4, 4)
        n = 9
        x, t = _grid_nodes(2, n, n, sheets=1)
        delta = rng.uniform(-0.1, 0.1, size=x.shape)
        want = fields.GridJet(fld, n, n).evaluate(delta, None)
        per = n ** 3 * fld.coeffs.shape[-2] * fld.m
        monkeypatch.setattr(fields, "_JET_TABLE_ENTRIES", 5 * per)
        jet = fields.GridJet(fld, n, n)
        for _ in range(2):  # the second call reuses the held tables
            np.testing.assert_allclose(jet.evaluate(delta, None), want, rtol=0.0,
                                       atol=1e-14 * fld.majorant())
        held = sum(table.size for table in jet._held.values())
        assert 0 < held <= 5 * per
        assert len(fields.action_powers(2, jet.max_order)) > 5

    def test_taylor_order_is_the_smallest_that_meets_the_bound(self):
        assert fields.taylor_order(0.0) == 0
        for h in (1e-6, 2.4e-3, 0.1, 1.0, 1.65):
            K = fields.taylor_order(h)
            bound = [h ** (k + 1) * np.exp(h) / math.factorial(k + 1) for k in (K - 1, K)]
            assert bound[1] <= 2.0 ** -53 < bound[0]
        with pytest.raises(DomainError):
            fields.taylor_order(math.inf)

    def test_bad_grids_and_samples_rejected(self, rng):
        fld = _jet_field(rng, 1, 3, 3)
        with pytest.raises(ShapeError):
            fields.GridJet(fld, 8, 3)
        with pytest.raises(ShapeError):
            fields.GridJet(fld, 8, 8).evaluate(np.zeros((65, 1)), None)


def _fold_oracle(a, axis, n):
    """Sum the centred modes along ``axis`` into their residues mod n."""
    a = np.moveaxis(a, axis, 0)
    k = np.arange(a.shape[0]) - a.shape[0] // 2
    out = np.zeros((n,) + a.shape[1:], dtype=a.dtype)
    np.add.at(out, k % n, a)
    return np.moveaxis(out, 0, axis)


def _oracle_tables(fld, n, n_t, alphas):
    """Re d^alpha F / alpha! at the grid nodes, shape (len, nodes, P*m).

    One complex inverse FFT over all angle and time axes per order, of the
    full spectrum, keeping its real part.
    """
    ik = 1j * np.arange(-fld.N, fld.N + 1)
    out = []
    for alpha in alphas:
        weight = np.ones(())
        for e in alpha:
            weight = weight[..., None] * (ik ** e / math.factorial(e))
        spec = fld.coeffs * weight[..., None, None, None]
        for axis, size in enumerate((n,) * fld.d + (n_t,)):
            spec = _fold_oracle(spec, axis, size)
        vals = np.fft.ifftn(spec, axes=tuple(range(fld.d + 1))) * (n ** fld.d * n_t)
        out.append(vals.real.reshape(-1, fld.coeffs.shape[-2] * fld.m))
    return out


def _table_majorant(fld, alpha):
    """Per component sum of |c| |k^alpha| / alpha!, a bound on every table entry."""
    k = np.abs(np.arange(-fld.N, fld.N + 1)).astype(float)
    weight = np.ones(())
    for e in alpha:
        weight = weight[..., None] * (k ** e / math.factorial(e))
    sums = (np.abs(fld.coeffs) * weight[..., None, None, None]).reshape(-1, fld.m)
    return float(np.max(sums.sum(axis=0)))


class TestGridJetTablesOracle:
    """Jet tables from one real transform against one complex ifftn per order."""

    @pytest.mark.parametrize("d, N, N_t, n, n_t", [
        (1, 6, 0, 16, 1), (1, 6, 6, 16, 16),
        (1, 6, 6, 16, 1),    # N_t > 0 folded onto one time node
        (1, 12, 12, 16, 16), (1, 12, 12, 15, 1),  # N > n/2, n even and odd
        (2, 4, 0, 9, 1), (2, 4, 4, 9, 9), (2, 4, 4, 9, 1),
        (2, 6, 6, 7, 7), (2, 6, 6, 8, 8),  # folded at d = 2
    ])
    @pytest.mark.parametrize("kind", ["complex", "even", "odd"])
    def test_every_table_matches_the_oracle(self, rng, d, N, N_t, n, n_t, kind):
        if kind == "complex":
            fld = _jet_field(rng, d, N, N_t)
        else:
            fld = random_parity_field(rng, kind, d=d, N=N, N_t=N_t, decay=0.0)
        alphas = fields._multi_indices(d, 4)
        got = fields.GridJet(fld, n, n_t)._tables(alphas)
        for alpha, table, want in zip(alphas, got, _oracle_tables(fld, n, n_t, alphas)):
            assert table.dtype == np.float64 and table.shape == want.shape
            np.testing.assert_allclose(table, want, rtol=0.0,
                                       atol=1e-14 * _table_majorant(fld, alpha))

    @pytest.mark.parametrize("d, N, N_t, n", [(1, 6, 6, 16), (1, 12, 0, 25),
                                              (2, 4, 4, 9), (2, 3, 0, 8)])
    def test_values_on_grid_is_the_real_order_zero_table(self, rng, d, N, N_t, n):
        fld = _jet_field(rng, d, N, N_t)
        n_t = n if N_t else 1
        vals = fld.values_on_grid(n)
        assert vals.dtype == np.float64
        assert vals.shape == (n,) * d + (n_t, fld.coeffs.shape[-2], fld.m)
        (want,) = _oracle_tables(fld, n, n_t, [(0,) * d])
        np.testing.assert_allclose(vals.reshape(want.shape), want, rtol=0.0,
                                   atol=1e-14 * _table_majorant(fld, (0,) * d))

    @pytest.mark.parametrize("d, N, N_t, n", [(1, 6, 6, 16), (1, 12, 12, 16),
                                              (2, 4, 4, 9), (2, 6, 0, 7)])
    def test_tables_in_one_batch_equal_tables_added_on_demand(self, rng, d, N, N_t, n):
        fld = _jet_field(rng, d, N, N_t)
        n_t = n if N_t else 1
        x, _ = _grid_nodes(d, n, n_t, sheets=1)

        def offsets(K):  # the largest offset sets the Taylor order K
            h = next(h for h in np.geomspace(1e-8, 1.0, 400)
                     if fields.taylor_order(h) == K)
            delta = rng.uniform(-h / N, h / N, size=x.shape)
            delta[0, 0] = h / N
            return delta

        at_once = fields.GridJet(fld, n, n_t)
        at_once.evaluate(offsets(4), None)
        on_demand = fields.GridJet(fld, n, n_t)
        on_demand.evaluate(offsets(2), None)
        assert on_demand.max_order == 2 and len(on_demand._held) == len(
            fields._multi_indices(d, 2))
        on_demand.evaluate(offsets(4), None)
        assert at_once.max_order == on_demand.max_order == 4
        assert at_once._held.keys() == on_demand._held.keys()
        for alpha, table in at_once._held.items():
            np.testing.assert_array_equal(table, on_demand._held[alpha])

    @pytest.mark.parametrize("offset", [0.5, 3.0])  # within a cell; re-anchored
    def test_point_blocks_agree_with_one_block(self, rng, monkeypatch, offset):
        fld = _jet_field(rng, 2, 4, 4)
        n = 9
        x, t = _grid_nodes(2, n, n, sheets=5)
        delta = rng.uniform(-offset, offset, size=x.shape) * 2.0 * np.pi / n
        y = rng.uniform(-0.05, 0.05, size=x.shape)
        whole = fields.GridJet(fld, n, n).evaluate(delta, y)
        per_sheet = n ** 3 * fld.coeffs.shape[-2] * fld.m
        monkeypatch.setattr(fields, "_EVAL_BLOCK_ENTRIES", 2 * per_sheet)
        blocks = fields.GridJet(fld, n, n).evaluate(delta, y)  # sheets 2 + 2 + 1
        tol = 1e-14 * fld.majorant()
        np.testing.assert_allclose(blocks, whole, rtol=0.0, atol=tol)
        np.testing.assert_allclose(blocks, fld.evaluate_complex(x + delta, y, t).real,
                                   rtol=0.0, atol=tol)


class TestCalculus:
    def test_diff_x_on_harmonic(self, rng):
        fld = harmonic_field(d=1, N=5, k=[3], l=1, amplitude=0.4, kind="cos")
        x, y, t = _sample_points(rng)
        expected = -1.2 * np.sin(3.0 * x[:, 0] + t)
        got = fld.diff_x(0).evaluate(x, y, t)[:, 0]
        assert np.allclose(got, expected, atol=1e-14)

    def test_diff_y_drops_power(self, rng):
        fld = harmonic_field(d=1, N=3, k=[1], l=0, amplitude=2.0, q_y=2,
                             r=0.1, power=2)
        x, y, t = _sample_points(rng)
        expected = 4.0 * y[:, 0] * np.cos(x[:, 0])
        got = fld.diff_y(0).evaluate(x, y, t)[:, 0]
        assert np.allclose(got, expected, atol=1e-14)

    def test_derivative_parity_flips(self, rng):
        fld = random_parity_field(rng, "even", N=6, q_y=1)
        assert fld.diff_x(0).parity == ("odd",)
        assert fld.diff_y(0).parity == ("even",)
        assert grid_parity_residual(fld.diff_x(0)) < 1e-12


class TestAlgebra:
    def test_add_pads_to_common_signature(self, rng):
        a = random_parity_field(rng, "even", N=3, q_y=0)
        b = random_parity_field(rng, "even", N=6, q_y=2)
        total = a + b
        assert total.N == 6 and total.q_y == 2
        x, y, t = _sample_points(rng)
        expected = a.evaluate(x, y, t) + b.evaluate(x, y, t)
        assert np.allclose(total.evaluate(x, y, t), expected, atol=1e-13)

    def test_sub_is_add_scale(self, rng):
        a = random_parity_field(rng, "even", N=4)
        b = random_parity_field(rng, "even", N=4)
        diff = a - b
        x, y, t = _sample_points(rng)
        assert np.allclose(diff.evaluate(x, y, t),
                           a.evaluate(x, y, t) - b.evaluate(x, y, t),
                           atol=1e-13)

    def test_majorant_dominates_grid_sup(self, rng):
        fld = random_parity_field(rng, "odd", N=8, q_y=2, r=0.07)
        assert fld.majorant() >= fld.sup_norm() > 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_majorant_is_the_weighted_coefficient_sum(self, rng, d):
        # reference: per component, an exactly rounded sum of |c| r^|alpha|;
        # the positive terms bound the rounding of any order by n eps
        fld = random_parity_field(rng, "even", d=d, N=6, q_y=2, r=0.07)
        deg = fld.powers.sum(axis=1)
        for r in (0.0, 0.03, fld.r):
            terms = np.abs(fld.coeffs) * (r ** deg)[:, None]
            want = max(math.fsum(terms[..., j].ravel()) for j in range(fld.m))
            assert fld.majorant(r) == pytest.approx(
                want, rel=terms.size * np.finfo(float).eps)
        assert fld.majorant() == fld.majorant(fld.r)

    def test_shift_x_translates(self, rng):
        fld = random_parity_field(rng, "even", N=5, q_y=0)
        delta = 0.37
        shifted = fld.shift_x(np.array([delta]))
        x, y, t = _sample_points(rng)
        assert np.allclose(shifted.evaluate(x, y, t),
                           fld.evaluate(x + delta, y, t), atol=1e-12)


class TestStructure:
    def test_projection_rejects_broken_reality(self):
        coeffs = np.zeros((5, 5, 1, 1), dtype=complex)
        coeffs[3, 2, 0, 0] = 1.0  # no conjugate partner
        fld = FourierField(1, 1, 2, 0, 0.0, coeffs, None)
        with pytest.raises(StructureError):
            fields.project_structure(fld)

    def test_projection_rejects_broken_parity(self):
        coeffs = np.zeros((5, 5, 1, 1), dtype=complex)
        coeffs[3, 2, 0, 0] = 1.0
        coeffs[1, 2, 0, 0] = 1.0  # real symmetric: even, not odd
        fld = FourierField(1, 1, 2, 0, 0.0, coeffs, ("odd",))
        with pytest.raises(StructureError):
            fields.project_structure(fld)

    def test_projection_cleans_small_roundoff(self, rng):
        fld = random_parity_field(rng, "even", N=4)
        dirty = fld.coeffs.copy()
        dirty += 1e-9 * (rng.standard_normal(dirty.shape)
                         + 1j * rng.standard_normal(dirty.shape))
        noisy = FourierField(1, 1, 4, 2, 0.1, dirty, ("even",))
        cleaned = fields.project_structure(noisy)
        assert grid_parity_residual(cleaned) < 1e-14
        assert np.max(np.abs(cleaned.coeffs - dirty)) < 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            FourierField(1, 1, 2, 0, 0.0, np.zeros((5, 5, 1, 2), dtype=complex))

    def test_harmonic_outside_cutoff_rejected(self):
        with pytest.raises(ParameterError):
            harmonic_field(d=1, N=2, k=[2], l=1, amplitude=1.0)

    def test_fit_recovers_high_action_powers_at_a_small_radius(self, rng):
        # y^0 .. y^6 at r = 2.5e-3 span 16 decades: the fit must neither
        # lose the top powers to the rank check nor measure the reality
        # check against the largest coefficient, c_6 ~ r^-6
        d, N, q_y, r = 1, 2, 6, 2.5e-3
        n = 2 * N + 2
        grid = 2.0 * np.pi * np.arange(n) / n
        y_nodes = fields.default_action_nodes(d, q_y, r)
        powers = np.arange(q_y + 1)
        c = (powers + 1.0) / r ** powers          # every term O(1) at |y| = r

        def fn(x, y, t):
            return (1.0 + np.cos(x - t)) * np.polynomial.polynomial.polyval(y, c)

        X, T, Y = np.meshgrid(grid, grid, y_nodes[:, 0], indexing="ij")
        fld = fields.field_from_grid_samples(fn(X, Y, T)[..., None], d, N, q_y, r,
                                             y_nodes, parity=("even",))
        np.testing.assert_allclose(fld.coeffs[N, N, :, 0].real * r ** powers,
                                   powers + 1.0, rtol=1e-10)
        x = rng.uniform(0.0, 2.0 * np.pi, 50)
        y = rng.uniform(-r, r, 50)
        t = rng.uniform(0.0, 1.0, 50)
        np.testing.assert_allclose(fld.evaluate(x, y, t)[:, 0], fn(x, y, t),
                                   rtol=1e-10, atol=1e-10)


class TestSerialization:
    def test_round_trip_bitwise(self, rng):
        fld = random_parity_field(rng, "odd", N=6, q_y=2, r=0.03)
        clone = FourierField.from_dict(fld.to_dict())
        assert clone.d == fld.d and clone.N == fld.N and clone.q_y == fld.q_y
        assert clone.r == fld.r and clone.parity == fld.parity
        assert np.array_equal(clone.coeffs, fld.coeffs)

    def test_dict_is_deterministic(self, rng):
        fld = random_parity_field(rng, "even", N=5, q_y=1)
        assert fld.to_dict() == fld.to_dict()

    def test_malformed_payload_rejected(self, rng):
        fld = random_parity_field(rng, "even", N=3)
        data = fld.to_dict()
        data["coeffs"] = [{"k": [99], "l": 0, "power": 0,
                           "re": [1.0], "im": [0.0]}]
        with pytest.raises(PersistenceError):
            FourierField.from_dict(data)
        del data["coeffs"]
        with pytest.raises(PersistenceError):
            FourierField.from_dict(data)

    def test_reality_tamper_rejected(self, rng):
        fld = random_parity_field(rng, "odd", N=3)
        data = fld.to_dict()
        victim = max(data["coeffs"], key=lambda e: abs(e["im"][0]))
        victim["im"][0] *= -1.0  # breaks c(-k,-l) = conj(c(k,l))
        with pytest.raises(PersistenceError):
            FourierField.from_dict(data)


def _to_dict_loop(fld):
    """Reference for FourierField.to_dict: one entry per nonzero block."""
    entries = []
    powers = fld.powers
    nz = np.argwhere(np.abs(fld.coeffs).sum(axis=-1) > 0.0)
    for idx in nz:
        mode_idx = tuple(int(a) for a in idx[: fld.d + 1])
        p = int(idx[fld.d + 1])
        block = fld.coeffs[mode_idx + (p,)]
        alpha = powers[p]
        power = int(alpha[0]) if fld.d == 1 else [int(a) for a in alpha]
        entries.append({
            "k": [int(a) - fld.N for a in mode_idx[: fld.d]],
            "l": int(mode_idx[fld.d]) - fld.N_t,
            "power": power,
            "re": [float(v) for v in block.real],
            "im": [float(v) for v in block.imag],
        })
    entries.sort(key=lambda e: (
        e["power"] if isinstance(e["power"], list) else [e["power"]],
        e["l"], e["k"]))
    return {"d": fld.d, "m": fld.m, "N": fld.N, "N_t": fld.N_t, "q_y": fld.q_y,
            "r": float(fld.r),
            "parity": None if fld.parity is None else list(fld.parity),
            "coeffs": entries}


class TestToDictOracle:
    """to_dict against the per-entry loop: equal values, order and types."""

    @staticmethod
    def _same(fld):
        data, ref = fld.to_dict(), _to_dict_loop(fld)
        assert data == ref
        # repr tells 1 from 1.0 and -0.0 from 0.0, which == does not
        assert repr(data) == repr(ref)
        return data

    @pytest.mark.parametrize("d, m", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("q_y", [0, 2])
    @pytest.mark.parametrize("full_time", [False, True])
    def test_complex_coefficients_with_zero_blocks(self, rng, d, m, q_y, full_time):
        N = 4 if d == 1 else 3
        N_t = N if full_time else 0
        P = len(fields.action_powers(d, q_y))
        shape = (2 * N + 1,) * d + (2 * N_t + 1, P, m)
        support = fields.mode_mask(d, N, N_t)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[~support] = 0.0
        coeffs[rng.random(shape[:-1]) < 0.3] = 0.0  # whole (k, l, power) blocks
        coeffs[rng.random(shape) < 0.2] = 0.0  # single components
        coeffs.real[rng.random(shape) < 0.1] = -0.0
        fld = FourierField(d, m, N, q_y, 0.1, coeffs)
        data = self._same(fld)
        assert 0 < len(data["coeffs"]) < np.count_nonzero(support) * P

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("q_y", [0, 2])
    @pytest.mark.parametrize("N_t", [0, None])
    def test_real_fields_round_trip(self, rng, d, q_y, N_t):
        for parity, m in (("even", 1), ("odd", 2)):
            fld = random_parity_field(rng, parity, d=d, N=3, q_y=q_y, r=0.05,
                                      m=m, N_t=N_t)
            clone = FourierField.from_dict(self._same(fld))
            assert clone.N_t == fld.N_t and clone.parity == fld.parity
            assert np.array_equal(clone.coeffs, fld.coeffs)

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_field(self, d):
        fld = FourierField.zeros(d, 2, 3, q_y=2, r=0.1, parity=("even", "odd"))
        assert self._same(fld)["coeffs"] == []
        assert np.array_equal(FourierField.from_dict(fld.to_dict()).coeffs, fld.coeffs)


def _at_l0(fld):
    """The same coefficients placed at l = 0 of an N_t = N time axis."""
    coeffs = np.zeros((2 * fld.N + 1,) * (fld.d + 1) + fld.coeffs.shape[-2:],
                      dtype=complex)
    coeffs[(slice(None),) * fld.d + (fld.N,)] = fld.coeffs[(slice(None),) * fld.d + (0,)]
    return FourierField(fld.d, fld.m, fld.N, fld.q_y, fld.r, coeffs, fld.parity)


class TestTimeCutoff:
    """An autonomous field (N_t = 0) against its copy on a full time axis."""

    @staticmethod
    def _same(short, full, tol=1e-13):
        assert short.N_t == 0 and full.N_t == full.N
        assert short.N == full.N and short.q_y == full.q_y
        assert short.parity == full.parity
        np.testing.assert_allclose(_at_l0(short).coeffs, full.coeffs,
                                   rtol=0.0, atol=tol)

    @pytest.mark.parametrize("d, N", [(1, 6), (2, 4)])
    def test_operations_agree(self, rng, d, N):
        a = random_parity_field(rng, "even", d=d, N=N, q_y=2, r=0.1, N_t=0)
        b = random_parity_field(rng, "odd", d=d, N=N - 1, q_y=2, r=0.1, N_t=0)
        assert a.coeffs.shape == (2 * N + 1,) * d + (1, 6 if d == 2 else 3, d)
        a_full, b_full = _at_l0(a), _at_l0(b)
        assert a_full.N_t == N
        x, y, t = _sample_points(rng, S=30, d=d)
        np.testing.assert_allclose(a.evaluate(x, y, t), a_full.evaluate(x, y, t),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(a.evaluate_complex(x, y, t), _direct_sum(a, x, y, t),
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(a.evaluate(x, y, t), a.evaluate(x, y, 0.0 * t),
                                   rtol=0.0, atol=0.0)
        self._same(a + b, a_full + b_full)
        for j in range(d):
            self._same(a.diff_x(j), a_full.diff_x(j))
            self._same(a.diff_y(j), a_full.diff_y(j))
        assert a.sup_norm() == pytest.approx(a_full.sup_norm(), rel=1e-13)
        assert a.majorant(0.05) == pytest.approx(a_full.majorant(0.05), rel=1e-13)
        assert a.majorant() == pytest.approx(a_full.majorant(), rel=1e-13)
        self._same(smooth(a, 0.4), smooth(a_full, 0.4))

    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip_keeps_time_cutoff(self, rng, d):
        a = random_parity_field(rng, "odd", d=d, N=4, q_y=2, r=0.1, N_t=0)
        data = a.to_dict()
        assert data["N_t"] == 0 and all(e["l"] == 0 for e in data["coeffs"])
        clone = FourierField.from_dict(data)
        assert clone.N_t == 0 and clone.parity == a.parity
        assert np.array_equal(clone.coeffs, a.coeffs)

    def test_record_without_time_cutoff_loads_with_full_axis(self, rng):
        fld = random_parity_field(rng, "even", N=5, q_y=1)
        data = fld.to_dict()
        assert data.pop("N_t") == 5
        clone = FourierField.from_dict(data)
        assert clone.N_t == 5
        assert np.array_equal(clone.coeffs, fld.coeffs)

    def test_time_harmonic_outside_cutoff_rejected(self, rng):
        fld = random_parity_field(rng, "even", N=3, q_y=0, N_t=0)
        with pytest.raises(ShapeError):
            fld.mode([0], 1)
        data = fld.to_dict()
        data["coeffs"].append({"k": [0], "l": 1, "power": 0,
                               "re": [1.0], "im": [0.0]})
        with pytest.raises(PersistenceError):
            FourierField.from_dict(data)

    @pytest.mark.parametrize("n_t", [2, 7])
    def test_bad_time_axis_rejected(self, n_t):
        with pytest.raises(ShapeError):
            FourierField(1, 1, 2, 0, 0.0, np.zeros((5, n_t, 1, 1), dtype=complex))

    def test_time_independent_fit_has_one_time_slot(self):
        fld = fields.field_from_function(
            lambda x, y, t: np.cos(x[:, 0]) + 0.5 * y[:, 0] * np.sin(2 * x[:, 0]),
            d=1, m=1, N=4, q_y=1, r=0.1, time_independent=True)
        assert fld.N_t == 0 and fld.coeffs.shape == (9, 1, 2, 1)
        assert fld.values_on_grid(10).shape == (10, 1, 2, 1)
        x = np.array([[0.3], [2.0]])
        y = np.array([[0.05], [-0.02]])
        expected = np.cos(x[:, 0]) + 0.5 * y[:, 0] * np.sin(2 * x[:, 0])
        np.testing.assert_allclose(fld.evaluate(x, y, np.array([1.0, 4.0]))[:, 0],
                                   expected, rtol=0.0, atol=1e-14)

