"""Newton iteration plumbing: schedule arithmetic, single steps, embeddings.

Schedule values are checked against the defining formulas evaluated
longhand; the expensive full runs live in the acceptance suite and only a
short two-step flow run is exercised here.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from revtori import (diophantine, fields, homological, lienard, newton, persistence,
                     smoothing, systems)
from revtori.cli import main
from revtori.errors import (ParameterError, PersistenceError, ShapeError,
                            StepFailureError, StructureError)
from revtori.fields import FourierField, field_from_function, stack_components

from conftest import (GOLDEN, grid_parity_residual, halves, random_parity_field,
                      random_reversible_pair)

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestSchedule:
    def test_exponent_arithmetic_d1(self):
        sched = newton.make_schedule(1, 0.1, 1e-4, 5)
        ell, tau, _ = newton._exponents(1, 0.1)
        assert ell == pytest.approx(2.0 + 1.0 + 0.1)
        assert tau == pytest.approx(1.0 + 0.1 / 100.0)
        mu_tilde = 0.1 / (100.0 * (2.0 * 1.001 + 1.0 + 0.1))
        assert sched.mu_tilde == pytest.approx(mu_tilde, rel=1e-14)
        assert sched.mu_tilde == pytest.approx(3.223727e-4, rel=1e-6)

    def test_sequences_tie_together(self):
        sched = newton.make_schedule(1, 0.1, 1e-4, 6)
        assert sched.eps[0] == 1e-4
        for m in range(6):
            assert sched.eps[m + 1] == pytest.approx(
                sched.eps[m] ** (1.0 + sched.mu_tilde), rel=1e-13)
        # s^ell = eps and r = s^(d + 1 + mu/10), elementwise
        assert np.allclose(sched.s ** newton._exponents(1, 0.1)[0], sched.eps, rtol=1e-14)
        assert np.allclose(sched.r, sched.s ** (1.0 + 1.0 + 0.1 / 10.0),
                           rtol=1e-14)

    def test_cutoffs_grow_monotonically(self):
        sched = newton.make_schedule(1, 0.1, 1e-4, 20)
        assert all(b >= a for a, b in zip(sched.N, sched.N[1:]))
        assert all(b < a for a, b in zip(sched.eps, sched.eps[1:]))
        assert all(b < a for a, b in zip(sched.s, sched.s[1:]))

    def test_known_leading_values(self):
        sched = newton.make_schedule(1, 0.1, 1e-4, 5)
        assert sched.s[0] == pytest.approx(1e-4 ** (1.0 / 3.1), rel=1e-13)
        assert sched.s[0] == pytest.approx(0.051248, abs=1e-6)
        assert sched.r[0] == pytest.approx(sched.s[0] ** 2.01, rel=1e-13)
        assert sched.N[0] == math.ceil(1.0 / sched.s[0])

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            newton.make_schedule(0, 0.1, 1e-4, 5)
        with pytest.raises(ParameterError):
            newton.make_schedule(1, 0.7, 1e-4, 5)
        with pytest.raises(ParameterError):
            newton.make_schedule(1, 0.1, 2.0, 5)
        with pytest.raises(ParameterError):
            newton.make_schedule(1, 0.1, 1e-4, 0)
        with pytest.raises(ParameterError):
            # eps0 so large the first strip exceeds 1/2
            newton.make_schedule(1, 0.1, 0.5, 5)
        # booleans are not counts, as everywhere else
        with pytest.raises(ParameterError, match="dimension"):
            newton.make_schedule(True, 0.1, 1e-4, 5)
        with pytest.raises(ParameterError, match="step count"):
            newton.make_schedule(1, 0.1, 1e-4, True)

    @pytest.mark.parametrize("args, N", [((1, 0.1, 1e-4, 5), (20,) * 6),
                                         ((2, 0.2, 1e-3, 3), (4,) * 4)])
    def test_derived_values(self, args, N):
        d, mu, eps0, M = args
        sched = newton.make_schedule(*args)
        tau = d + mu / 100.0
        assert (sched.M, sched.N, sched.eps[0]) == (M, N, eps0)
        assert newton._exponents(d, mu)[:2] == (2.0 * d + 1.0 + mu, tau)
        assert sched.mu_tilde == mu / (100.0 * (2.0 * tau + 1.0 + mu))
        again = newton.Schedule(sched.d, sched.mu, sched.eps, sched.s, sched.r)
        assert (again.M, again.N, again.mu_tilde) == (M, N, sched.mu_tilde)

    @pytest.mark.parametrize("lengths", [(3, 2, 3), (3, 3, 4), (1, 1, 1)])
    def test_sequences_need_one_length_of_at_least_two(self, lengths):
        eps, s, r = (np.geomspace(1e-4, 1e-5, n) for n in lengths)
        with pytest.raises(ShapeError, match="one length"):
            newton.Schedule(1, 0.1, eps, s, r)

    @pytest.mark.parametrize("s", [(0.05, 0.06), (0.05, 0.0), (1.5, 0.5), (0.05, math.nan)])
    def test_strip_widths_lie_in_the_unit_interval_and_never_increase(self, s):
        eps, r = np.full(2, 1e-4), np.full(2, 1e-3)
        with pytest.raises(ParameterError, match="strip widths"):
            newton.Schedule(1, 0.1, eps, np.array(s), r)
        # a held scale and the widest strip are both allowed
        assert newton.Schedule(1, 0.1, eps, np.array([1.0, 1.0]), r).N == (1, 1)


class TestNewtonStep:
    def test_zero_input_is_a_fixed_point(self, golden):
        sched = newton.make_schedule(1, 0.1, 1e-4, 2)
        N = sched.N[0]
        fg = FourierField.zeros(1, 2, N, 2, sched.r[0], ("even", "odd"))
        UV, fg_next, diag = newton.newton_step(fg, golden, sched, 0)
        assert float(np.max(np.abs(homological.solve_flow(fg, golden).uv.coeffs))) == 0.0
        assert float(np.max(np.abs(UV.coeffs))) == 0.0
        assert float(np.max(np.abs(fg_next.coeffs))) < 1e-15

    @pytest.mark.parametrize("mode", ["flow", "map"])
    def test_a_rest_past_the_cutoff_is_carried_unchanged(self, golden, rng, mode):
        # every mode lies past cutoff(s[0]), so the head is zero, the step
        # changes no coordinates and hands its whole input on
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        N, N_t = sched.N[0] + 2, (None if mode == "flow" else 0)
        fg = stack_components(*(random_parity_field(rng, tag, N=N, q_y=2, r=sched.r[0],
                                                    amp=1e-5, N_t=N_t)
                                for tag in ("even", "odd")))
        past = fields.mode_orders(1, N, fg.N_t) > sched.N[0]
        fg = dataclasses.replace(fg, coeffs=fg.coeffs * past[..., None, None])
        UV, fg_next, _ = newton.newton_step(fg, golden, sched, 0, mode=mode)
        assert float(np.max(np.abs(UV.coeffs))) == 0.0
        assert fg_next.N == N
        assert (fg_next - fg).majorant() <= 1e-13 * fg.majorant()

    def test_step_torus_block_contracts_quadratically(self, golden, rng):
        # the y-power-0 block of the remainder is the invariance error of
        # the embedded torus itself; halving the input must quarter it.
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=4, q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        outputs = []
        for scale in (1.0, 0.5):
            _, fg_next, _ = newton.newton_step(fg.scale(scale), golden, sched, 0)
            mass = max(float(np.abs(h.coeffs[..., 0, :]).sum()) for h in halves(fg_next))
            outputs.append(mass)
        ratio = outputs[0] / outputs[1]
        assert 3.4 < ratio < 4.6  # 4 exactly for a pure quadratic remainder

    def test_step_jet_coupling_is_linear_but_contracting(self, golden, rng):
        # the higher y-powers of the remainder carry the jet coupling
        # y * D_x u, which is linear in the input (the solve treats each
        # y power on its own), so the full majorant only halves when the
        # input halves.  The coupling comes with a factor ~ r, so the
        # step still contracts hard in absolute terms; the schedule's
        # shrinking radii are what turn that into convergence.
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=4, q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        outputs = []
        for scale in (1.0, 0.5):
            _, fg_next, _ = newton.newton_step(fg.scale(scale), golden, sched, 0)
            # a majorant is the largest over the components: those of f and g
            outputs.append(fg_next.majorant(sched.r[1]))
        ratio = outputs[0] / outputs[1]
        assert 1.8 < ratio < 2.5
        maj_in = fg.majorant(sched.r[0])
        assert outputs[0] < 0.05 * maj_in

    def test_step_keeps_parity(self, golden, rng):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        UV, fg_next, diag = newton.newton_step(fg, golden, sched, 0)
        uv = homological.solve_flow(fg, golden).uv  # the generator the step inverts
        assert fg_next.parity == ("even", "odd")
        assert uv.parity == UV.parity == ("odd", "even")
        for h in halves(fg_next) + halves(uv) + halves(UV):
            assert grid_parity_residual(h) < 1e-10
        assert diag["composition_residual"] < 1e-10

    def test_map_step_contracts_on_autonomous_fields(self, golden):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = _map_pair(sched)
        assert fg.N_t == 0
        UV, fg_next, diag = newton.newton_step(fg, golden, sched, 0, mode="map")
        for fld in (UV, fg_next):
            assert fld.N_t == 0 and fld.coeffs.shape[fld.d] == 1
        assert fg_next.N == sched.N[1]
        # the oscillating parts are what the map iteration drives to zero
        for before, after in zip(halves(fg), halves(fg_next)):
            osc_in = before.oscillating_part().majorant(sched.r[0])
            osc_out = after.oscillating_part().majorant(sched.r[1])
            assert osc_out < 0.05 * osc_in
        assert diag["composition_residual"] < 1e-10


class TestFlowRemainder:
    """T_w = (D_x w)(y + f) + (D_y w) g against a central difference of
    scattered sums: d/ds w(x + s (y + f), y + s g, t) at s = 0."""

    @pytest.mark.parametrize("d, n", [(1, 12), (2, 9)])  # n >= 2N+1 for N = 4
    def test_matches_directional_difference(self, rng, d, n):
        r = 0.1
        f, g = random_reversible_pair(rng, d=d, N=3, q_y=2, r=r, amp=0.1)
        u = random_parity_field(rng, "odd", d=d, N=4, q_y=2, r=r, amp=0.1)
        v = random_parity_field(rng, "even", d=d, N=4, q_y=2, r=r, amp=0.1)
        grid = 2.0 * np.pi * np.arange(n) / n
        axes = np.meshgrid(*([grid] * (d + 1)), indexing="ij")
        nodes, t = np.stack([a.ravel() for a in axes[:d]], axis=-1), axes[d].ravel()
        dx = rng.uniform(-0.2, 0.2, size=nodes.shape)
        ys = rng.uniform(-0.5 * r, 0.5 * r, size=nodes.shape)
        def jet(h):
            return fields.GridJet(h, n, n)

        got = newton._flow_remainder(jet, jet(stack_components(u, v)),
                                     stack_components(f, g), None, None, dx, ys)

        x = nodes + dx
        W, G = ys + f.evaluate(x, ys, t), g.evaluate(x, ys, t)
        step = 1e-4
        for w, T in zip((u, v), (got[:, :d], got[:, d:])):
            fd = (w.evaluate(x + step * W, ys + step * G, t)
                  - w.evaluate(x - step * W, ys - step * G, t)) / (2.0 * step)
            scale = float(np.max(np.abs(fd)))
            assert T.shape == fd.shape
            # the difference errs by O(step^2) times third derivatives
            assert float(np.max(np.abs(T - fd))) <= 10.0 * step ** 2 * scale


class _ScatteredJet:
    """Test-only stand-in for fields.GridJet: the full Fourier sum per point.

    GridJet checks no domain (newton_step bounds the excursion itself), so
    the stand-in sums a copy of the field whose radius holds every point.
    Its nodes are those of the first ``rows`` rows of the leading angle.
    """

    def __init__(self, field, n, n_t, rows=None):
        self.field, self.n, self.n_t = dataclasses.replace(field, r=1.0), n, n_t
        self.rows = n if rows is None else rows
        self.max_order = 0

    def evaluate(self, delta, y=None, field=None):
        field = self.field if field is None else field
        d = field.d
        grid = 2.0 * np.pi * np.arange(self.n) / self.n
        axes = np.meshgrid(grid[:self.rows], *([grid] * (d - 1)),
                           grid if self.n_t > 1 else [0.0], indexing="ij")
        x = np.stack([a.ravel() for a in axes[:d]], axis=-1)
        sheets = len(delta) // len(x)
        x, t = np.tile(x, (sheets, 1)), np.tile(axes[d].ravel(), sheets)
        return field.evaluate(x + delta, y, t)

    def evaluate_with_gradient(self, delta, y=None):
        d = self.field.d
        return (self.evaluate(delta, y),
                np.stack([self.evaluate(delta, y, self.field.diff_x(j)) for j in range(d)]),
                np.stack([self.evaluate(delta, y, self.field.diff_y(j)) for j in range(d)]))


def _map_pair(sched, eps=1e-5):
    """The pair field (f, g) of the cosine kick, sampled from its map at cutoff N[0]."""
    mapping = systems.MapSystem(omega=GOLDEN, eps=eps)
    return newton._MAP.sample(mapping.A, np.array([GOLDEN]), 1, sched.N[0], 2,
                              sched.r[0])


class TestGridJetOracle:
    """newton_step and fit_embedding on grid jets against scattered sums."""

    # flows on an even and an odd grid (n_fit = fg.N + 2 N[0] + 16), and a map
    @pytest.mark.parametrize("mode, extra_N", [("flow", 0), ("flow", 1), ("map", 0)],
                             ids=["flow", "flow-odd-grid", "map"])
    def test_step_and_embedding_match_scattered_evaluation(self, golden, rng,
                                                           monkeypatch, mode, extra_N):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        if mode == "flow":
            fg = stack_components(*random_reversible_pair(
                rng, d=1, N=sched.N[0] + extra_N, q_y=2, r=sched.r[0], amp=1e-5))
        else:
            fg = _map_pair(sched)
        runs = []
        for jet in (fields.GridJet, _ScatteredJet):
            monkeypatch.setattr(newton, "GridJet", jet)
            UV, fg_next, diag = newton.newton_step(fg, golden, sched, 0, mode=mode)
            emb = newton.fit_embedding([UV, UV], golden, sched.r[0], mode)
            runs.append((UV, fg_next, diag, emb))
        (UV, fg_next, diag, emb), ref = runs
        pairs = [*zip(halves(UV), halves(ref[0])), *zip(halves(fg_next), halves(ref[1])),
                 *zip(halves(emb.xy), halves(ref[3].xy))]
        # Differences are majorants (action powers weighted by r^|alpha|,
        # which undoes the 1/r^|alpha| of the fit on the action nodes), on
        # the scale of the evaluated generators, those of the step's own
        # solve: the map remainder is a difference of u and v values, so it
        # is rounded on their scale.
        uv = newton._dynamics(mode).solve(fg, golden).uv.majorant(sched.r[0])
        for got, want in pairs:
            scale = max(want.majorant(), uv)
            assert (got - want).majorant() <= 1e-13 * scale
        assert abs(diag["composition_residual"]
                   - ref[2]["composition_residual"]) <= 1e-13 * uv
        assert diag["inversion_iters"] == ref[2]["inversion_iters"]
        assert diag["taylor_order"] >= 1
        assert diag["n_fit"] == 46 + extra_N  # fg.N + 2 N[0] + 16 with N[0] = 10

    def test_two_dimensional_flow_step_matches_scattered_evaluation(self, rng, monkeypatch):
        freq = diophantine.certify(diophantine.make_frequency(2, "sqrt_prime"))
        sched = newton.make_schedule(2, 0.1, 1e-4, 2)
        fg = stack_components(*random_reversible_pair(rng, d=2, N=1, q_y=1, r=sched.r[0],
                                                      amp=1e-5))
        runs = []
        for jet in (fields.GridJet, _ScatteredJet):
            monkeypatch.setattr(newton, "GridJet", jet)
            runs.append(newton.newton_step(fg, freq, sched, 0))
        (UV, fg_next, diag), ref = runs
        uv = homological.solve_flow(fg, freq).uv.majorant(sched.r[0])
        for got, want in [*zip(halves(UV), halves(ref[0])),
                          *zip(halves(fg_next), halves(ref[1]))]:
            assert (got - want).majorant() <= 1e-13 * max(want.majorant(), uv)
        assert abs(diag["composition_residual"]
                   - ref[2]["composition_residual"]) <= 1e-13 * uv
        assert diag["inversion_iters"] == ref[2]["inversion_iters"]

    def test_newton_step_and_fit_embedding_make_no_scattered_call(
            self, golden, rng, monkeypatch):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                                      r=sched.r[0], amp=1e-5))

        def refuse(*args, **kwargs):
            raise AssertionError("scattered evaluation in a grid-anchored path")

        monkeypatch.setattr(FourierField, "evaluate_complex", refuse)
        UV, _, _ = newton.newton_step(fg, golden, sched, 0)
        newton.fit_embedding([UV], golden, sched.r[0], "flow")


class TestMirroredHalf:
    """A flow step's pairs are all tagged, so its jets run on the rows
    j = 0..n//2 of the leading angle and the fits read mirrored samples;
    the checks of parity stay live on the input and the self-mirrored rows."""

    def test_flow_jets_run_on_half_the_rows_and_map_jets_on_all(
            self, golden, rng, monkeypatch):
        grids = []

        class RecordedJet(fields.GridJet):
            def __init__(self, field, n, n_t, rows=None):
                super().__init__(field, n, n_t, rows)
                grids.append((self.n, self.rows))

        monkeypatch.setattr(newton, "GridJet", RecordedJet)
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        UV, _, diag = newton.newton_step(fg, golden, sched, 0)
        n = diag["n_fit"]
        assert grids == [(n, n // 2 + 1)] * 4
        grids.clear()
        newton.fit_embedding([UV], golden, sched.r[0], "flow")
        assert grids == [(2 * UV.N + 2, UV.N + 2)]
        grids.clear()
        _, _, diag = newton.newton_step(_map_pair(sched), golden, sched, 0, mode="map")
        assert grids == [(diag["n_fit"], diag["n_fit"])] * 4

    # d = 1 on an even and an odd grid (n_fit = fg.N + 2 N[0] + 16), and d = 2
    @pytest.mark.parametrize("d, extra_N", [(1, 0), (1, 1), (2, 0)],
                             ids=["d1", "d1-odd-grid", "d2"])
    def test_half_grid_step_and_embedding_match_the_whole_grid(self, rng, monkeypatch,
                                                               d, extra_N):
        freq = diophantine.certify(diophantine.make_frequency(d, "golden" if d == 1
                                                              else "sqrt_prime"))
        sched = newton.make_schedule(d, 0.1, 1e-3 if d == 1 else 1e-4, 2)
        N = sched.N[0] + extra_N if d == 1 else 1
        fg = stack_components(*random_reversible_pair(rng, d=d, N=N, q_y=2 if d == 1 else 1,
                                                      r=sched.r[0], amp=1e-5))
        whole_rows = []

        def all_rows(n, parity):  # the step as it runs without the tags' help
            whole_rows.append(n)
            return n

        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(newton, "fundamental_rows", all_rows)
            UV, fg_next, diag = newton.newton_step(fg, freq, sched, 0)
            emb = newton.fit_embedding([UV, UV], freq, sched.r[0], "flow")
            runs.append((UV, fg_next, diag, emb))
        (UV, fg_next, diag, emb), ref = runs
        assert whole_rows == [diag["n_fit"], 2 * UV.N + 2]
        if d == 1:
            assert diag["n_fit"] == 46 + extra_N  # fg.N + 2 N[0] + 16 with N[0] = 10
        uv = homological.solve_flow(fg, freq).uv.majorant(sched.r[0])
        for got, want in [*zip(halves(UV), halves(ref[0])),
                          *zip(halves(fg_next), halves(ref[1])),
                          *zip(halves(emb.xy), halves(ref[3].xy))]:
            assert (got - want).majorant() <= 1e-13 * max(want.majorant(), uv)
        assert abs(diag["composition_residual"]
                   - ref[2]["composition_residual"]) <= 1e-13 * uv
        assert diag["inversion_iters"] == ref[2]["inversion_iters"]

    def test_a_remainder_odd_in_x_and_t_fails_the_self_mirrored_check(
            self, golden, rng, monkeypatch):
        remainder = newton._flow_remainder

        def broken(jet, uv, fg, g_mean, freq, dx, ys):
            T = remainder(jet, uv, fg, g_mean, freq, dx, ys)
            # dx = -u at the nodes is odd in (x, t); f is tagged even
            T[:, :1] += dx * (np.max(np.abs(T[:, :1])) / np.max(np.abs(dx)))
            return T

        monkeypatch.setattr(newton, "_FLOW", dataclasses.replace(newton._FLOW,
                                                                   remainder=broken))
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        with pytest.raises(StructureError, match="component 0 is not even on the "
                                                 "self-mirrored rows"):
            newton.newton_step(fg, golden, sched, 0)

    def test_run_kam_refuses_a_flow_input_whose_parity_is_broken(self, golden):
        flow = systems.make_flow_perturbation("single_mode", eps=1e-4, g_amp=0.05)

        def broken(x, y, t):
            # sin x is odd and vanishes on the self-mirrored rows x = 0 and x = pi:
            # only a check of the whole sampling grid sees it
            out = np.array(flow(x, y, t))
            out[:, 0] += 1e-4 * np.sin(x[:, 0])
            return out

        sched = newton.make_schedule(1, 0.1, 1e-4, 2)
        with pytest.raises(StructureError, match="component 0 not even"):
            newton.run_kam("flow", broken, golden, sched)


@pytest.fixture
def jets_made(monkeypatch):
    """The fields of the grid jets newton builds while the test runs."""
    made = []

    class CountedJet(fields.GridJet):
        def __init__(self, field, n, n_t, rows=None):
            made.append(field)
            super().__init__(field, n, n_t, rows)

    monkeypatch.setattr(newton, "GridJet", CountedJet)
    return made


class TestOneJetPerFieldPair:
    """A step evaluates its fields through one grid jet per field pair."""

    def test_flow_and_map_steps_build_four_jets(self, golden, rng, monkeypatch,
                                                 jets_made):
        def refuse(*args, **kwargs):
            raise AssertionError("derivative field formed in a Newton step")

        monkeypatch.setattr(FourierField, "diff_x", refuse)
        monkeypatch.setattr(FourierField, "diff_y", refuse)
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        newton.newton_step(fg, golden, sched, 0)
        # (u, v), the rest of (f, g) past its head, (f, g), (U, V)
        assert [jet.m for jet in jets_made] == [2, 2, 2, 2]
        jets_made.clear()
        newton.newton_step(_map_pair(sched), golden, sched, 0, mode="map")
        # (u, v), the rest, (f, g, g_mean, u and v shifted by Omega), (U, V)
        assert [jet.m for jet in jets_made] == [2, 2, 5, 2]

    def test_fit_embedding_builds_one_jet_per_transform(self, golden, rng, jets_made):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = stack_components(*random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        UV, _, _ = newton.newton_step(fg, golden, sched, 0)
        jets_made.clear()
        newton.fit_embedding([UV, UV, UV], golden, sched.r[0], "flow")
        assert len(jets_made) == 3

    def test_flow_demo_run_builds_eleven_jets(self, tmp_path, jets_made):
        # two steps of four jets, then chains of one and two transforms
        code = main(["kam", "run", "--config", str(_CONFIGS / "kam_flow.json"),
                     "--out", str(tmp_path), "--set", "M=2"])
        assert code == 0
        assert len(jets_made) == 11


@pytest.fixture
def calls_counted(monkeypatch):
    """Calls of the grid fit and of stack_components, from fields and newton alike."""
    calls = dict.fromkeys(("field_from_grid_samples", "stack_components"), 0)
    for name in calls:
        def counted(*args, _name=name, _call=getattr(fields, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        for module in (fields, newton):
            monkeypatch.setattr(module, name, counted)
    return calls


class TestOneFieldPerPair:
    """A pair travels as one field: a step makes one fit per pair, and a
    flow run stacks none, since it samples f and g as one field."""

    def test_flow_and_map_steps_fit_two_fields(self, golden, rng, calls_counted):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        flow = stack_components(*random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                                        r=sched.r[0], amp=1e-5))
        mapping = _map_pair(sched)
        calls_counted.update(dict.fromkeys(calls_counted, 0))
        newton.newton_step(flow, golden, sched, 0)
        # (U, V) and the remainder pair
        assert calls_counted == {"field_from_grid_samples": 2, "stack_components": 0}
        calls_counted.update(dict.fromkeys(calls_counted, 0))
        newton.newton_step(mapping, golden, sched, 0, mode="map")
        # the map remainder's jet stacks (f, g), g_mean and the shifted (u, v)
        assert calls_counted == {"field_from_grid_samples": 2, "stack_components": 1}

    def test_flow_demo_run_fits_seven_fields(self, tmp_path, calls_counted):
        # (f, g) sampled, two per step, then one per embedding of the
        # chains of one and two transforms
        code = main(["kam", "run", "--config", str(_CONFIGS / "kam_flow.json"),
                     "--out", str(tmp_path), "--set", "M=2"])
        assert code == 0
        assert calls_counted == {"field_from_grid_samples": 7, "stack_components": 0}

    def test_step_rejects_a_field_that_is_not_a_pair(self, golden, rng):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        f, _ = random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2, r=sched.r[0])
        with pytest.raises(ShapeError, match="m = 2d"):
            newton.newton_step(f, golden, sched, 0)


class TestTwoDimensionalStep:
    """d = 2 Newton steps (N = 3): the oscillating parts of the heads
    contract, S_{s[1]} of the output against the S_{s[0]} the step solved.
    With eps0 = 1e-4 every input mode lies where the symbol of S_{s[0]} is
    1, so the step solves its whole input."""

    @staticmethod
    def _contracts(fg, fg_next, sched):
        heads = smoothing.smooth(fg, sched.s[0]), smoothing.smooth(fg_next, sched.s[1])
        for before, after in zip(*map(halves, heads)):
            osc_in = before.oscillating_part().majorant(sched.r[0])
            osc_out = after.oscillating_part().majorant(sched.r[1])
            assert osc_out < 0.5 * osc_in

    @pytest.mark.slow
    def test_flow_step(self):
        freq = diophantine.certify(diophantine.make_frequency(2, "sqrt_prime"))
        sched = newton.make_schedule(2, 0.1, 1e-4, 2)
        eps, s0 = 1e-4, sched.s[0]

        # low harmonics with large divisors: a random field's small
        # divisors can make the linear jet coupling y D_x u outgrow f
        def harmonics(trig):
            def h(x, y, t):
                return np.stack([trig(x[:, 0] + t) + 0.5 * trig(x[:, 0] - x[:, 1]),
                                 trig(x[:, 1] + t)], axis=-1)
            return h

        f = field_from_function(lambda x, y, t: eps * harmonics(np.cos)(x, y, t),
                                2, 2, 3, q_y=2, r=sched.r[0], parity=("even", "even"))
        g = field_from_function(lambda x, y, t: eps * s0 * harmonics(np.sin)(x, y, t),
                                2, 2, 3, q_y=2, r=sched.r[0], parity=("odd", "odd"))
        fg = stack_components(f, g)
        _, fg_next, diag = newton.newton_step(fg, freq, sched, 0)
        self._contracts(fg, fg_next, sched)
        assert fg_next.parity == ("even", "even", "odd", "odd")
        assert diag["composition_residual"] < 1e-10

    def test_map_step(self, rng):
        freq = diophantine.certify(diophantine.make_frequency(2, "sqrt_prime"))
        sched = newton.make_schedule(2, 0.1, 1e-4, 2)
        f = random_parity_field(rng, "even", d=2, N=3, q_y=2, r=sched.r[0],
                                amp=1e-5, N_t=0)
        g = random_parity_field(rng, "odd", d=2, N=3, q_y=2, r=sched.r[0],
                                amp=1e-5, N_t=0)
        fg = stack_components(f, g)
        UV, fg_next, diag = newton.newton_step(fg, freq, sched, 0, mode="map")
        self._contracts(fg, fg_next, sched)
        for fld in (UV, fg_next):
            assert fld.N_t == 0
        assert diag["composition_residual"] < 1e-10


@pytest.fixture(scope="module")
def short_run(golden):
    sched = newton.make_schedule(1, 0.1, 1e-4, 2)
    flow = systems.make_flow_perturbation("single_mode", eps=1e-4,
                                          g_amp=sched.s[0])
    report = newton.run_kam("flow", flow, golden, sched)
    return flow, report


class TestFlowRun:
    def test_two_steps_contract(self, short_run):
        _, report = short_run
        assert not report.failed
        assert report.steps_completed == 2
        maj = report.majorant_sequence()
        assert maj.shape == (3,)
        assert all(b < 1e-2 * a for a, b in zip(maj, maj[1:]))

    def test_schedule_may_hold_its_last_scale(self, golden):
        # the M = 2 paper schedule with its last entry held: s = (s_0, s_1, s_1)
        paper = newton.make_schedule(1, 0.1, 1e-4, 2)
        held = newton.Schedule(d=1, mu=paper.mu, **{
            name: np.append(getattr(paper, name)[:-1], getattr(paper, name)[-2])
            for name in ("eps", "s", "r")})
        flow = systems.make_flow_perturbation("single_mode", eps=1e-4, g_amp=0.05)
        report = newton.run_kam("flow", flow, golden, held)
        assert not report.failed and report.steps_completed == 2
        assert report.invariance_residual < 1e-13

    def test_invariance_certificate(self, short_run, golden):
        flow, report = short_run
        assert newton.verify_invariance(report.embedding, flow,
                                        samples=32, dt=1.0, tol=1e-12) < 1e-8

    def test_verification_settings_are_checked(self, short_run):
        system, report = short_run
        for bad in ({"samples": 0}, {"samples": -2}, {"samples": 2.5},
                    {"samples": True}, {"tol": 0.0}, {"tol": -1.0},
                    {"tol": math.nan}, {"dt": 0.0}, {"dt": math.nan},
                    {"dt": math.inf}):
            with pytest.raises(ParameterError, match="verification"):
                newton.verify_invariance(report.embedding, system, **bad)
        # a negative time integrates backwards along the same torus
        assert newton.verify_invariance(report.embedding, system, samples=32,
                                        dt=-1.0) < 1e-8

    def test_non_finite_forcing_raises(self, short_run):
        flow, report = short_run
        nan_f = lambda x, y, t: flow(x, y, t) * [np.nan, 1.0]  # noqa: E731
        with pytest.raises(StepFailureError, match="non-finite"):
            newton.verify_invariance(report.embedding, nan_f, samples=8)

    def test_blow_up_fails_the_verification(self, short_run):
        # dy/dt = 1 + y^2 leaves every bound before t = pi/2 < dt
        flow, report = short_run
        blow_up = lambda x, y, t: np.stack(  # noqa: E731
            [flow(x, y, t)[:, 0], 1.0 + y[:, 0] ** 2], axis=-1)
        with pytest.raises(StepFailureError,
                           match="verification integration failed: step size"):
            newton.verify_invariance(report.embedding, blow_up, samples=8, dt=2.0)

    def test_corrupted_embedding_is_detected(self, short_run, golden):
        flow, report = short_run
        emb = report.embedding
        bad_coeffs = emb.xy.coeffs.copy()
        N = emb.xy.N
        bad_coeffs[N + 1, N, 0, 1] += 5e-4  # break one mode pair of y
        bad_coeffs[N - 1, N, 0, 1] += 5e-4
        bad = dataclasses.replace(emb, xy=dataclasses.replace(
            emb.xy, coeffs=bad_coeffs))
        assert newton.verify_invariance(bad, flow, samples=32,
                                        dt=1.0, tol=1e-12) > 1e-4

    def test_embedding_reversibility(self, short_run):
        # a reversible torus satisfies x_offset odd, y even in (theta, t)
        _, report = short_run
        x_offset, y = halves(report.embedding.xy)
        assert grid_parity_residual(x_offset, parity="odd") < 1e-10
        assert grid_parity_residual(y, parity="even") < 1e-10

    def test_convergence_rows_schema(self, short_run):
        _, report = short_run
        assert report.rows[0]["m"] == 0
        for col in newton.CONVERGENCE_COLUMNS:
            assert col in report.rows[0]

    def test_fitted_order_exceeds_schedule_promise(self, short_run):
        _, report = short_run
        sched = report.schedule
        order = report.fitted_order()
        assert order >= 1.0 + sched.mu_tilde / 2.0


def _lienard_flow(system, omega):
    """The oscillator's angle/action system as a forced flow in s = 2 pi t.

    y = twist(rho) / 2 pi - omega, so rho(y) = (2 pi (y + omega) / c0)^(1/(2 beta - 1))
    and the twist becomes the identity; f = F2 / 2 pi and g = twist'(rho)
    F1 / 4 pi^2.  Returns fg(x, y, s), rho(y) and twist'(rho).
    """
    exponent = 2.0 * system.beta - 1.0

    def rho(y):
        return (2.0 * np.pi * (y + omega) / system.c0) ** (1.0 / exponent)

    def twist_prime(r):
        return system.c0 * exponent * r ** (exponent - 1.0)

    def fg(x, y, s):
        r = rho(y)
        theta_dot, rho_dot = system.rhs(x, r, np.reshape(s, (-1, 1)) / (2.0 * np.pi),
                                        check_domain=False)
        return np.concatenate([(theta_dot - system.twist(r)) / (2.0 * np.pi),
                               twist_prime(r) * rho_dot / (4.0 * np.pi ** 2)], axis=-1)

    return fg, rho, twist_prime


@pytest.fixture(scope="module")
def rational_cubic():
    """The n = 1 oscillator with rational cubic forcing at 5e-3, in angle/action form."""
    return lienard.action_angle(
        lienard.make_problem(1, "rational_cubic", f_amp=5e-3, g_amp=5e-3))


class TestLienardTorus:
    """run_kam on the Lienard oscillator through a test-local adapter to
    the solver's normal form."""

    def test_adapter_gives_back_the_angle_action_system(self, rational_cubic, rng):
        system = rational_cubic
        fg, rho, twist_prime = _lienard_flow(system, GOLDEN)
        x = rng.uniform(-np.pi, np.pi, (64, 1))
        y = rng.uniform(-0.01, 0.01, (64, 1))
        s = rng.uniform(-np.pi, np.pi, 64)
        vals = fg(x, y, s)
        r = rho(y)
        # the chain rule back to (d theta/dt, d rho/dt)
        theta_dot, rho_dot = system.rhs(x, r, s[:, None] / (2.0 * np.pi))
        back = (2.0 * np.pi * (GOLDEN + y + vals[:, :1]),
                4.0 * np.pi ** 2 * vals[:, 1:] / twist_prime(r))
        for got, want in zip(back, (theta_dot, rho_dot)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.max(np.abs(system.twist(r) / (2.0 * np.pi) - GOLDEN - y)) <= 1e-14
        # f even and g odd under (x, s) -> (-x, -s), the tags of run_kam's flow
        mirrored = fg(-x, y, -s)
        assert np.max(np.abs(mirrored[:, 0] - vals[:, 0])) <= 1e-15
        assert np.max(np.abs(mirrored[:, 1] + vals[:, 1])) <= 1e-15

    def test_shrinking_schedule_reaches_the_smoothing_floor(self, rational_cubic, golden):
        # s shrinks geometrically from the paper's s0 to 0.012 over five
        # steps and holds its last scale for a sixth
        s0 = 1e-4 ** (1.0 / 3.1)
        s = s0 * (0.012 / s0) ** (np.minimum(np.arange(7), 5) / 5.0)
        sched = newton.Schedule(d=1, mu=0.1, eps=s ** 3.1, s=s, r=s ** 2.01)
        fg, _, _ = _lienard_flow(rational_cubic, GOLDEN)
        report = newton.run_kam("flow", fg, golden, sched, q_y=2, verify_dt=2.0 * np.pi)
        assert not report.failed and report.steps_completed == 6
        for before, after in zip(report.rows, report.rows[1:]):
            for col in ("osc_f", "osc_g"):
                assert after[col] < 0.9 * before[col]
        assert report.invariance_residual <= 2e-10


def _dop853_advance(system, omega, x0, y0, dt, rtol, atol):
    """The flow of fg over [0, dt] by scipy's DOP853, as an oracle."""
    S, d = x0.shape

    def rhs(t, z):
        x, y, tt = z[: S * d].reshape(S, d), z[S * d:].reshape(S, d), np.full(S, t)
        vals = system(x, y, tt).reshape(S, 2 * d)
        return np.concatenate([(omega + y + vals[:, :d]).ravel(), vals[:, d:].ravel()])

    sol = solve_ivp(rhs, (0.0, dt), np.concatenate([x0.ravel(), y0.ravel()]),
                    method="DOP853", rtol=rtol, atol=atol)
    assert sol.success
    return np.stack([sol.y[: S * d, -1].reshape(S, d), sol.y[S * d:, -1].reshape(S, d)])


def _demo_flow_points():
    """The flow of configs/kam_flow.json and 64 points near its torus."""
    cfg = json.loads((_CONFIGS / "kam_flow.json").read_text())
    pert = dict(cfg["perturbation"])
    flow = systems.make_flow_perturbation(pert.pop("kind"), **pert)
    theta = 2.0 * np.pi * np.arange(64)[:, None] / 64
    return flow, theta + 1e-3 * np.sin(theta), 1e-3 * np.cos(theta)


def _short_run_points(short_run):
    flow, report = short_run
    theta = 2.0 * np.pi * np.arange(64)[:, None] / 64
    return (flow, *report.embedding.evaluate(theta, np.zeros(64)))


class TestFlowVerificationOracle:
    """The extrapolation behind flow verification, held to scipy's DOP853."""

    @pytest.mark.parametrize("dt", [1.0, -1.0])
    @pytest.mark.parametrize("case", ["kam_flow", "short_run"])
    def test_matches_dop853(self, short_run, case, dt):
        system, x0, y0 = (_demo_flow_points() if case == "kam_flow"
                          else _short_run_points(short_run))
        omega = np.array([GOLDEN])
        step, _, _ = newton._flow_advance(system, omega, dt, 1e-12)
        ours = np.stack(step(x0, y0))
        theirs = _dop853_advance(system, omega, x0, y0, dt, 1e-12, 1e-15)
        # both sit at roundoff: a few units in the last place of x ~ 2 pi
        assert np.max(np.abs(ours - theirs)) < 1e-13

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("dt", [1.0, -1.0])
    def test_endpoint_error_within_ten_tolerances(self, tol, dt):
        system, x0, y0 = _demo_flow_points()
        omega = np.array([GOLDEN])
        step, _, _ = newton._flow_advance(system, omega, dt, tol)
        reference = _dop853_advance(system, omega, x0, y0, dt, 1e-13, 1e-16)
        assert np.max(np.abs(np.stack(step(x0, y0)) - reference)) <= 10.0 * tol


@pytest.fixture(scope="module")
def map_run(golden):
    sched = newton.make_schedule(1, 0.1, 1e-3, 2)
    mapping = systems.MapSystem(omega=GOLDEN, eps=1e-4)
    return mapping, newton.run_kam("map", mapping.A, golden, sched)


class TestNonFiniteMismatch:
    """A NaN in either coordinate's mismatch is the residual."""

    @pytest.mark.parametrize("coordinate", ["x", "y"])
    def test_nan_mismatch_is_the_residual(self, golden, coordinate):
        identity = newton.fit_embedding([], golden, 0.1, "map")
        mapping = systems.MapSystem(omega=GOLDEN, eps=0.0)

        def broken(x, y):
            x1, y1 = mapping.A(x, y)
            return (x1 * np.nan, y1) if coordinate == "x" else (x1, y1 * np.nan)

        assert newton.verify_invariance(identity, mapping.A) < 1e-14
        assert math.isnan(newton.verify_invariance(identity, broken))


class TestMapSampling:
    """A map enters as one callable A, called once per action node to sample
    f = wrap(x1 - x - Omega - y) and g = y1 - y, and once per check."""

    def test_one_call_per_action_node_and_per_check(self, golden):
        mapping = systems.MapSystem(omega=GOLDEN, eps=1e-4)
        calls = []

        def counted(x, y):
            calls.append(x.shape)
            return mapping.A(x, y)

        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        report = newton.run_kam("map", counted, golden, sched, q_y=2)
        assert not report.failed and report.steps_completed == 2
        n = 2 * sched.N[2] + 2
        assert calls == [(n, 1)] * 3 + [(64, 1)] * 2
        # the run's residual is that of the map it was given
        inv = newton.verify_invariance(report.embedding, mapping.A)
        assert inv == report.invariance_residual < 1e-8

    @pytest.mark.parametrize("eps", [1e-4, 1e-3])
    def test_samples_are_the_closed_forms(self, eps):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        f, g = halves(_map_pair(sched, eps))
        Omega = 2.0 * np.pi * GOLDEN
        n = 2 * sched.N[0] + 2
        x = 2.0 * np.pi * np.arange(n)[:, None] / n
        for node in fields.default_action_nodes(1, 2, sched.r[0]):
            y = np.full_like(x, node[0])
            x1 = x + Omega + y - eps * np.cos(x)
            # f is read off x1 ~ 10, so it carries the rounding of x1
            assert np.max(np.abs(f.evaluate(x, y) + eps * np.cos(x))) \
                <= 2.0 * np.spacing(np.max(x1))
            assert np.max(np.abs(g.evaluate(x, y)
                                 - eps * (np.cos(x1) - np.cos(x)))) <= 1e-15

    def test_two_dimensional_kick_splits_into_components(self):
        eps = np.array([1e-4, 3e-4])
        omega = np.array([GOLDEN, math.sqrt(2.0) - 1.0])
        Omega = 2.0 * np.pi * omega

        def kick(x, y):  # two uncoupled cosine kicks
            x1 = x + Omega + y - eps * np.cos(x)
            return x1, y + eps * (np.cos(x1) - np.cos(x))

        fg = newton._MAP.sample(kick, omega, 2, 4, 0, 0.0)
        assert (fg.d, fg.m) == (2, 4)
        f, g = halves(fg)
        grid = 2.0 * np.pi * np.arange(10) / 10
        x = np.stack([a.ravel() for a in np.meshgrid(grid, grid, indexing="ij")], axis=-1)
        x1 = x + Omega - eps * np.cos(x)
        assert np.max(np.abs(f.evaluate(x) + eps * np.cos(x))) <= 2.0 * np.spacing(np.max(x1))
        assert np.max(np.abs(g.evaluate(x) - eps * (np.cos(x1) - np.cos(x)))) <= 1e-15

    def test_wrapped_angles_give_the_same_run(self, map_run, golden):
        mapping, report = map_run

        def wrapped(x, y):  # a section map may return its angle mod 2 pi
            x1, y1 = mapping.A(x, y)
            return np.mod(x1, 2.0 * np.pi), y1

        other = newton.run_kam("map", wrapped, golden, report.schedule)
        assert not other.failed and other.steps_completed == report.steps_completed
        assert len(other.rows) == len(report.rows)
        assert np.max(np.abs(other.embedding.xy.coeffs - report.embedding.xy.coeffs)) <= 1e-14

    def test_each_mode_names_what_it_takes(self, map_run, short_run, golden):
        mapping, report = map_run
        sched = report.schedule
        flow = systems.make_flow_perturbation("single_mode", eps=1e-4)
        pair = (lambda x, y, t: flow(x, y, t)[:, :1], lambda x, y, t: flow(x, y, t)[:, 1:])
        takes_flow = r"flow mode takes one callable fg\(x, y, t\) -> \(S, 2d\)"
        takes_map = r"map mode takes one callable A\(x, y\) -> \(x1, y1\)"
        for mode, system, message in (("map", flow, takes_map),
                                       ("map", pair, takes_map),
                                       ("flow", pair, takes_flow),
                                       ("flow", mapping.A, takes_flow),
                                       ("flow", halves(_map_pair(sched)), takes_flow),
                                       ("map", halves(_map_pair(sched)), takes_map)):
            with pytest.raises(ParameterError, match=message):
                newton.run_kam(mode, system, golden, sched)
        with pytest.raises(ParameterError, match=takes_map):
            newton.verify_invariance(report.embedding, 3)
        with pytest.raises(ParameterError, match=takes_flow):
            newton.verify_invariance(short_run[1].embedding, pair)


class TestMapRun:
    def test_unknown_mode_and_system_are_rejected(self, map_run, short_run,
                                                  golden):
        mapping, report = map_run
        sched = report.schedule
        with pytest.raises(ParameterError, match="banana"):
            newton.newton_step(_map_pair(sched), golden, sched, 0, mode="banana")
        with pytest.raises(ParameterError, match="banana"):
            newton.fit_embedding(report.chain, golden, sched.r[0], "banana")
        with pytest.raises(ParameterError, match="map mode takes one callable"):
            newton.verify_invariance(report.embedding, 3)
        with pytest.raises(ParameterError, match="flow mode takes one callable"):
            newton.verify_invariance(short_run[1].embedding, mapping.A)
        record = dict(report.embedding.to_dict(), mode="banana")
        with pytest.raises(PersistenceError, match="banana"):
            newton.TorusEmbedding.from_dict(record)


class TestOneCheckPerChain:
    """run_kam fits and verifies each chain once: max(1, steps) calls of each."""

    @staticmethod
    def _map_run(monkeypatch, golden, M, eps=1e-4):
        calls = {"fit_embedding": 0, "verify_invariance": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(newton, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(newton, name, counted)
        sched = newton.make_schedule(1, 0.1, 1e-3, M)
        mapping = systems.MapSystem(omega=GOLDEN, eps=eps)
        report = newton.run_kam("map", mapping.A, golden, sched)
        assert report.invariance_residual == report.rows[-1]["invariance_residual"]
        return report, calls

    def test_completed_run(self, monkeypatch, golden):
        report, calls = self._map_run(monkeypatch, golden, M=3)
        assert not report.failed and report.steps_completed == 3
        assert calls == {"fit_embedding": 3, "verify_invariance": 3}
        # the closing row repeats the last step's residual
        assert report.rows[-1]["invariance_residual"] \
            == report.rows[-2]["invariance_residual"]

    def test_failure_at_step_0_checks_the_identity(self, monkeypatch, golden):
        report, calls = self._map_run(monkeypatch, golden, M=2, eps=0.5)
        assert report.failed and report.steps_completed == 0
        assert report.failure.startswith("step 0:")
        assert calls == {"fit_embedding": 1, "verify_invariance": 1}
        assert report.embedding.xy.majorant() == 0.0

    def test_failure_at_step_1_keeps_the_last_check(self, monkeypatch, golden):
        step = newton.newton_step

        def fail_at_1(fg, freq, schedule, m, **kwargs):
            if m == 1:
                raise StepFailureError("step 1: injected failure")
            return step(fg, freq, schedule, m, **kwargs)

        monkeypatch.setattr(newton, "newton_step", fail_at_1)
        report, calls = self._map_run(monkeypatch, golden, M=3)
        assert report.failed and report.steps_completed == 1
        assert calls == {"fit_embedding": 1, "verify_invariance": 1}
        assert report.invariance_residual == report.rows[0]["invariance_residual"]


class TestStepRow:
    """A step returns exactly the step columns of its convergence row."""

    def test_diagnostics_are_the_step_columns(self, golden):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        _, _, diag = newton.newton_step(_map_pair(sched), golden, sched, 0, mode="map")
        assert list(diag) == list(newton._NO_STEP)

    def test_excursion_warnings_follow_the_rows(self, golden):
        # a strong forcing: both steps invert past the nominal radius
        sched = newton.make_schedule(1, 0.45, 1e-3, 2)
        flow = systems.make_flow_perturbation("single_mode", eps=0.06, g_amp=0.05)
        report = newton.run_kam("flow", flow, golden, sched)
        assert not report.failed
        warned = [w.split(":")[0] for w in report.warnings if "action excursion" in w]
        assert warned == [f"step {row['m']}" for row in report.rows
                          if row["y_excursion"] > sched.r[row["m"]]]
        assert warned == ["step 0", "step 1"]


class TestChainAndEmbedding:
    def test_rotation_number_of_unperturbed_twist(self, golden):
        mp = systems.MapSystem(omega=GOLDEN, eps=0.0)
        rot = newton.rotation_number(mp.A, (np.zeros((1, 1)),
                                            np.zeros((1, 1))), n_iter=2048)
        assert np.atleast_1d(rot)[0] == pytest.approx(GOLDEN, abs=1e-10)

    @pytest.mark.parametrize("n_iter", [0, -3, 2.0, True])
    def test_rotation_number_needs_a_positive_count(self, n_iter):
        mp = systems.MapSystem(omega=GOLDEN, eps=0.0)
        with pytest.raises(ParameterError, match="n_iter"):
            newton.rotation_number(mp.A, (np.zeros((1, 1)), np.zeros((1, 1))),
                                   n_iter=n_iter)


class TestEmbeddingCutoff:
    """fit_embedding fits at the largest (U, V) cutoff of its chain."""

    @pytest.mark.parametrize("mode", ["flow", "map"])
    def test_cutoff_is_the_chains_largest(self, golden, rng, mode):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        fg = _map_pair(sched) if mode == "map" else stack_components(
            *random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2, r=sched.r[0], amp=1e-5))
        UV, _, _ = newton.newton_step(fg, golden, sched, 0, mode=mode)
        coarse = UV.truncate(UV.N - 5)
        for chain, N in (([coarse, UV], UV.N), ([UV, coarse], UV.N),
                         ([coarse], UV.N - 5)):
            emb = newton.fit_embedding(chain, golden, sched.r[0], mode)
            assert emb.xy.N == N
            assert emb.xy.N_t == (0 if mode == "map" else N)

    @pytest.mark.parametrize("mode", ["flow", "map"])
    def test_empty_chain_is_the_zero_field_at_N_0(self, golden, mode):
        emb = newton.fit_embedding([], golden, 0.1, mode)
        assert (emb.xy.N, emb.xy.m, emb.mode) == (0, 2, mode)
        assert not np.any(emb.xy.coeffs)


class TestEmbeddingFloor:
    """fit_embedding keeps each component's coefficients above eps max|c|."""

    def test_kept_coefficients_exceed_the_floor(self, short_run):
        xy = short_run[1].embedding.xy
        for c in np.abs(xy.coeffs).reshape(-1, xy.m).T:
            assert np.all(c[c > 0] > np.finfo(float).eps * c.max())

    def test_floor_moves_values_by_rounding_only(self, short_run, golden, rng,
                                                monkeypatch):
        _, report = short_run
        emb = newton.fit_embedding(report.chain, golden, report.schedule.r[0], "flow")
        np.testing.assert_array_equal(emb.xy.coeffs, report.embedding.xy.coeffs)
        # the fit of the same grid samples without the floor
        monkeypatch.setattr(newton, "_above_rounding", lambda h: h)
        raw = newton.fit_embedding(report.chain, golden, report.schedule.r[0], "flow")
        for kept, full in zip(halves(emb.xy), halves(raw.xy)):
            assert np.count_nonzero(kept.coeffs) < np.count_nonzero(full.coeffs)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(256, 1))
        t = rng.uniform(0.0, 2.0 * np.pi, size=256)
        for got, want in zip(emb.evaluate(theta, t), raw.evaluate(theta, t)):
            assert float(np.max(np.abs(got - want))) <= 1e-18

    @pytest.mark.parametrize("mode", ["flow", "map"])
    def test_reloaded_embedding_passes_the_reality_check(self, mode, request, tmp_path):
        emb = request.getfixturevalue({"flow": "short_run", "map": "map_run"}[mode])[1].embedding
        path = tmp_path / "embedding.json"
        persistence.save_json(path, emb.to_dict())
        # the check on read projects onto the tags, and moves no bit of a run's own output
        back = newton.load_embedding(path)
        assert back.xy.parity == emb.xy.parity
        assert back.xy.coeffs.tobytes() == emb.xy.coeffs.tobytes()

    def test_non_finite_component_is_kept_whole(self):
        h = fields.harmonic_field(1, 4, [1], 0, 1.0, q_y=0)
        h.coeffs[tuple(4 + np.array([2, 0])) + (0, 0)] = 1e-20
        h.coeffs[tuple(4 + np.array([3, 0])) + (0, 0)] = math.nan
        kept = newton._above_rounding(h)
        assert np.count_nonzero(kept.coeffs) == np.count_nonzero(h.coeffs) == 4
        with pytest.raises(PersistenceError, match="non-finite"):
            FourierField.from_dict(kept.to_dict())
