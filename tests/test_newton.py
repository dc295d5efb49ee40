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

from revtori import diophantine, fields, newton, systems
from revtori.errors import (ParameterError, PersistenceError, StepFailureError,
                            StructureError)
from revtori.fields import FourierField, field_from_function

from conftest import (GOLDEN, grid_parity_residual, random_parity_field,
                      random_reversible_pair)


class TestSchedule:
    def test_exponent_arithmetic_d1(self):
        sched = newton.make_schedule(1, 0.1, 1e-4, 5)
        assert sched.ell == pytest.approx(2.0 + 1.0 + 0.1)
        assert sched.tau == pytest.approx(1.0 + 0.1 / 100.0)
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
        assert np.allclose(sched.s ** sched.ell, sched.eps, rtol=1e-14)
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

    def test_to_dict_round_trips_values(self):
        sched = newton.make_schedule(2, 0.2, 1e-3, 3)
        data = sched.to_dict()
        assert data["d"] == 2 and data["M"] == 3
        assert data["eps"][0] == 1e-3


class TestNewtonStep:
    def test_zero_input_is_a_fixed_point(self, golden):
        sched = newton.make_schedule(1, 0.1, 1e-4, 2)
        N = sched.N[0]
        f = FourierField.zeros(1, 1, N, 2, sched.r[0], ("even",))
        g = FourierField.zeros(1, 1, N, 2, sched.r[0], ("odd",))
        transform, f_next, g_next, diag = newton.newton_step(
            f, g, golden, sched, 0)
        assert float(np.max(np.abs(transform.u.coeffs))) == 0.0
        assert float(np.max(np.abs(transform.v.coeffs))) == 0.0
        assert float(np.max(np.abs(f_next.coeffs))) < 1e-15
        assert float(np.max(np.abs(g_next.coeffs))) < 1e-15

    def test_step_torus_block_contracts_quadratically(self, golden, rng):
        # the y-power-0 block of the remainder is the invariance error of
        # the embedded torus itself; halving the input must quarter it.
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        f, g = random_reversible_pair(rng, d=1, N=4, q_y=2, r=sched.r[0],
                                      amp=1e-5)
        outputs = []
        for scale in (1.0, 0.5):
            _, f_next, g_next, _ = newton.newton_step(
                f.scale(scale), g.scale(scale), golden, sched, 0)
            mass = max(float(np.abs(f_next.coeffs[..., 0, :]).sum()),
                       float(np.abs(g_next.coeffs[..., 0, :]).sum()))
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
        f, g = random_reversible_pair(rng, d=1, N=4, q_y=2, r=sched.r[0],
                                      amp=1e-5)
        outputs = []
        for scale in (1.0, 0.5):
            _, f_next, g_next, _ = newton.newton_step(
                f.scale(scale), g.scale(scale), golden, sched, 0)
            outputs.append(max(f_next.majorant(sched.r[1]),
                               g_next.majorant(sched.r[1])))
        ratio = outputs[0] / outputs[1]
        assert 1.8 < ratio < 2.5
        maj_in = max(f.majorant(sched.r[0]), g.majorant(sched.r[0]))
        assert outputs[0] < 0.05 * maj_in

    def test_step_keeps_parity(self, golden, rng):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        f, g = random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                      r=sched.r[0], amp=1e-5)
        transform, f_next, g_next, diag = newton.newton_step(
            f, g, golden, sched, 0)
        assert f_next.parity == ("even",) and g_next.parity == ("odd",)
        assert grid_parity_residual(f_next) < 1e-10
        assert grid_parity_residual(g_next) < 1e-10
        assert grid_parity_residual(transform.u) < 1e-10
        assert grid_parity_residual(transform.v) < 1e-10
        assert diag["composition_residual"] < 1e-10

    def test_map_step_contracts_on_autonomous_fields(self, golden):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        mapping = systems.MapSystem(omega=GOLDEN, eps=1e-5)
        f, g = (field_from_function(h, d=1, m=1, N=sched.N[0], q_y=2,
                                    r=sched.r[0], time_independent=True)
                for h in (mapping.f, mapping.g))
        assert f.N_t == g.N_t == 0
        transform, f_next, g_next, diag = newton.newton_step(
            f, g, golden, sched, 0, mode="map")
        for fld in (transform.U, transform.V, f_next, g_next):
            assert fld.N_t == 0 and fld.coeffs.shape[fld.d] == 1
        assert f_next.N == g_next.N == sched.N[1]
        # the oscillating parts are what the map iteration drives to zero
        for before, after in ((f, f_next), (g, g_next)):
            osc_in = before.oscillating_part().majorant(sched.r[0])
            osc_out = after.oscillating_part().majorant(sched.r[1])
            assert osc_out < 0.05 * osc_in
        assert diag["composition_residual"] < 1e-10


class TestFlowRemainder:
    """T_w = (D_x w)(y + f) + (D_y w) g against a central difference of
    scattered sums: d/ds w(x + s (y + f), y + s g, t) at s = 0."""

    @pytest.mark.parametrize("d, n", [(1, 12), (2, 6)])
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
        got = newton._flow_remainder(lambda h: fields.GridJet(h, n, n),
                                     f, g, u, v, None, None, dx, ys)

        x = nodes + dx
        W, G = ys + f.evaluate(x, ys, t), g.evaluate(x, ys, t)
        step = 1e-4
        for w, T in zip((u, v), got):
            fd = (w.evaluate(x + step * W, ys + step * G, t)
                  - w.evaluate(x - step * W, ys - step * G, t)) / (2.0 * step)
            scale = float(np.max(np.abs(fd)))
            assert T.shape == fd.shape
            # the difference errs by O(step^2) times third derivatives
            assert float(np.max(np.abs(T - fd))) <= 10.0 * step ** 2 * scale


class _ScatteredJet:
    """Test-only stand-in for fields.GridJet: the full Fourier sum per point."""

    def __init__(self, field, n, n_t):
        self.field, self.n, self.n_t = field, n, n_t
        self.max_order = 0

    def evaluate(self, delta, y=None):
        d = self.field.d
        grid = 2.0 * np.pi * np.arange(self.n) / self.n
        axes = np.meshgrid(*([grid] * d), grid if self.n_t > 1 else [0.0],
                           indexing="ij")
        x = np.stack([a.ravel() for a in axes[:d]], axis=-1)
        sheets = len(delta) // len(x)
        x, t = np.tile(x, (sheets, 1)), np.tile(axes[d].ravel(), sheets)
        return self.field.evaluate_complex(x + delta, y, t, check_domain=False).real


def _map_pair(sched, eps=1e-5):
    mapping = systems.MapSystem(omega=GOLDEN, eps=eps)
    return tuple(field_from_function(h, d=1, m=1, N=sched.N[0], q_y=2,
                                     r=sched.r[0], time_independent=True)
                 for h in (mapping.f, mapping.g))


class TestGridJetOracle:
    """newton_step and fit_embedding on grid jets against scattered sums."""

    @pytest.mark.parametrize("mode", ["flow", "map"])
    def test_step_and_embedding_match_scattered_evaluation(self, golden, rng,
                                                           monkeypatch, mode):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        if mode == "flow":
            f, g = random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                          r=sched.r[0], amp=1e-5)
        else:
            f, g = _map_pair(sched)
        runs = []
        for jet in (fields.GridJet, _ScatteredJet):
            monkeypatch.setattr(newton, "GridJet", jet)
            tr, f_next, g_next, diag = newton.newton_step(f, g, golden, sched, 0,
                                                          mode=mode)
            emb = newton.fit_embedding([tr, tr], golden, sched.r[0], mode,
                                       tr.U.N + 8)
            runs.append((tr, f_next, g_next, diag, emb))
        (tr, f_next, g_next, diag, emb), ref = runs
        pairs = [(tr.U, ref[0].U), (tr.V, ref[0].V), (f_next, ref[1]),
                 (g_next, ref[2]), (emb.x_offset, ref[4].x_offset),
                 (emb.y, ref[4].y)]
        # Differences are majorants (action powers weighted by r^|alpha|,
        # which undoes the 1/r^|alpha| of the fit on the action nodes), on
        # the scale of the evaluated generators: the map remainder is a
        # difference of u and v values, so it is rounded on their scale.
        uv = max(tr.u.majorant(sched.r[0]), tr.v.majorant(sched.r[0]))
        for got, want in pairs:
            scale = max(want.majorant(), uv)
            assert (got - want).majorant() <= 1e-13 * scale
        assert abs(diag["composition_residual"]
                   - ref[3]["composition_residual"]) <= 1e-13 * uv
        assert diag["inversion_iters"] == ref[3]["inversion_iters"]
        assert diag["taylor_order"] >= 1

    def test_newton_step_and_fit_embedding_make_no_scattered_call(
            self, golden, rng, monkeypatch):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        f, g = random_reversible_pair(rng, d=1, N=sched.N[0], q_y=2,
                                      r=sched.r[0], amp=1e-5)

        def refuse(*args, **kwargs):
            raise AssertionError("scattered evaluation in a grid-anchored path")

        monkeypatch.setattr(FourierField, "evaluate_complex", refuse)
        tr, _, _, _ = newton.newton_step(f, g, golden, sched, 0)
        newton.fit_embedding([tr], golden, sched.r[0], "flow", tr.U.N + 8)


class TestTwoDimensionalStep:
    """d = 2 Newton steps (eps0 = 1e-2, N = 3): the oscillating parts contract."""

    @staticmethod
    def _contracts(f, g, f_next, g_next, sched):
        for before, after in ((f, f_next), (g, g_next)):
            osc_in = before.oscillating_part().majorant(sched.r[0])
            osc_out = after.oscillating_part().majorant(sched.r[1])
            assert osc_out < 0.5 * osc_in

    def test_flow_step(self):
        freq = diophantine.certify(diophantine.make_frequency(2, "sqrt_prime"))
        sched = newton.make_schedule(2, 0.1, 1e-2, 2)
        eps, s0 = 1e-4, sched.s[0]

        # low harmonics with large divisors: at r ~ 0.07 a random field's
        # small divisors make the linear jet coupling y D_x u outgrow f
        def harmonics(trig):
            def h(x, y, t):
                return np.stack([trig(x[:, 0] + t) + 0.5 * trig(x[:, 0] - x[:, 1]),
                                 trig(x[:, 1] + t)], axis=-1)
            return h

        f = field_from_function(lambda x, y, t: eps * harmonics(np.cos)(x, y, t),
                                2, 2, 3, q_y=2, r=sched.r[0], parity="even")
        g = field_from_function(lambda x, y, t: eps * s0 * harmonics(np.sin)(x, y, t),
                                2, 2, 3, q_y=2, r=sched.r[0], parity="odd")
        tr, f_next, g_next, diag = newton.newton_step(f, g, freq, sched, 0)
        self._contracts(f, g, f_next, g_next, sched)
        assert f_next.parity == ("even", "even") and g_next.parity == ("odd", "odd")
        assert diag["composition_residual"] < 1e-10

    def test_map_step(self, rng):
        freq = diophantine.certify(diophantine.make_frequency(2, "sqrt_prime"))
        sched = newton.make_schedule(2, 0.1, 1e-2, 2)
        f = random_parity_field(rng, "even", d=2, N=3, q_y=2, r=sched.r[0],
                                amp=1e-5, N_t=0)
        g = random_parity_field(rng, "odd", d=2, N=3, q_y=2, r=sched.r[0],
                                amp=1e-5, N_t=0)
        tr, f_next, g_next, diag = newton.newton_step(f, g, freq, sched, 0,
                                                      mode="map")
        self._contracts(f, g, f_next, g_next, sched)
        for fld in (tr.U, tr.V, f_next, g_next):
            assert fld.N_t == 0
        assert diag["composition_residual"] < 1e-10


@pytest.fixture(scope="module")
def short_run(golden):
    sched = newton.make_schedule(1, 0.1, 1e-4, 2)
    flow = systems.make_flow_perturbation("single_mode", eps=1e-4,
                                          g_amp=sched.s[0])
    report = newton.run_kam("flow", flow.f, flow.g, golden, sched)
    return flow, report


class TestFlowRun:
    def test_two_steps_contract(self, short_run):
        _, report = short_run
        assert not report.failed
        assert report.steps_completed == 2
        maj = report.majorant_sequence()
        assert maj.shape == (3,)
        assert all(b < 1e-2 * a for a, b in zip(maj, maj[1:]))

    def test_invariance_certificate(self, short_run, golden):
        flow, report = short_run
        inv = newton.verify_invariance(report.embedding, (flow.f, flow.g),
                                       samples=32, dt=1.0, tol=1e-12)
        assert inv.residual < 1e-8

    def test_verification_settings_are_checked(self, short_run):
        flow, report = short_run
        system = (flow.f, flow.g)
        for bad in ({"samples": 0}, {"samples": -2}, {"samples": 2.5},
                    {"samples": True}, {"tol": 0.0}, {"tol": -1.0},
                    {"tol": math.nan}, {"dt": 0.0}, {"dt": math.nan},
                    {"dt": math.inf}):
            with pytest.raises(ParameterError, match="verification"):
                newton.verify_invariance(report.embedding, system, **bad)
        # a negative time integrates backwards along the same torus
        back = newton.verify_invariance(report.embedding, system, samples=32,
                                        dt=-1.0)
        assert back.residual < 1e-8

    def test_non_finite_forcing_raises(self, short_run):
        flow, report = short_run
        nan_f = lambda x, y, t: np.full(x.shape[0], np.nan)  # noqa: E731
        with pytest.raises(StepFailureError, match="non-finite"):
            newton.verify_invariance(report.embedding, (nan_f, flow.g), samples=8)

    def test_blow_up_fails_the_verification(self, short_run):
        # dy/dt = 1 + y^2 leaves every bound before t = pi/2 < dt
        flow, report = short_run
        blow_up = lambda x, y, t: 1.0 + y[:, 0] ** 2  # noqa: E731
        with pytest.raises(StepFailureError,
                           match="verification integration failed: step size"):
            newton.verify_invariance(report.embedding, (flow.f, blow_up),
                                     samples=8, dt=2.0)

    def test_corrupted_embedding_is_detected(self, short_run, golden):
        flow, report = short_run
        emb = report.embedding
        bad_coeffs = emb.y.coeffs.copy()
        N = emb.y.N
        bad_coeffs[N + 1, N, 0, 0] += 5e-4  # break one mode pair
        bad_coeffs[N - 1, N, 0, 0] += 5e-4
        bad = dataclasses.replace(emb, y=dataclasses.replace(
            emb.y, coeffs=bad_coeffs))
        inv = newton.verify_invariance(bad, (flow.f, flow.g), samples=32,
                                       dt=1.0, tol=1e-12)
        assert inv.residual > 1e-4

    def test_embedding_reversibility(self, short_run):
        # a reversible torus satisfies x_offset odd, y even in (theta, t)
        _, report = short_run
        emb = report.embedding
        assert grid_parity_residual(emb.x_offset, parity="odd") < 1e-10
        assert grid_parity_residual(emb.y, parity="even") < 1e-10

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


def _dop853_advance(system, omega, x0, y0, dt, rtol, atol):
    """The flow of (f, g) over [0, dt] by scipy's DOP853, as an oracle."""
    f_fn, g_fn = system
    S, d = x0.shape

    def rhs(t, z):
        x, y, tt = z[: S * d].reshape(S, d), z[S * d:].reshape(S, d), np.full(S, t)
        return np.concatenate([(omega + y + f_fn(x, y, tt).reshape(S, d)).ravel(),
                               g_fn(x, y, tt).ravel()])

    sol = solve_ivp(rhs, (0.0, dt), np.concatenate([x0.ravel(), y0.ravel()]),
                    method="DOP853", rtol=rtol, atol=atol)
    assert sol.success
    return np.stack([sol.y[: S * d, -1].reshape(S, d), sol.y[S * d:, -1].reshape(S, d)])


def _demo_flow_points():
    """The pair of configs/kam_flow.json and 64 points near its torus."""
    cfg = json.loads((Path(__file__).resolve().parents[1] / "configs"
                      / "kam_flow.json").read_text())
    pert = dict(cfg["perturbation"])
    flow = systems.make_flow_perturbation(pert.pop("kind"), **pert)
    theta = 2.0 * np.pi * np.arange(64)[:, None] / 64
    return (flow.f, flow.g), theta + 1e-3 * np.sin(theta), 1e-3 * np.cos(theta)


def _short_run_points(short_run):
    flow, report = short_run
    theta = 2.0 * np.pi * np.arange(64)[:, None] / 64
    return ((flow.f, flow.g), *report.embedding.evaluate(theta, np.zeros(64)))


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
    return mapping, newton.run_kam("map", mapping.f, mapping.g, golden, sched)


class TestMapRun:
    def test_pair_and_callable_map_give_one_residual(self, map_run):
        # the pair (f, g) becomes the normal form x + Omega + y + f, y + g,
        # which computes MapSystem.A operation for operation
        mapping, report = map_run
        assert not report.failed
        pair = newton.verify_invariance(report.embedding, (mapping.f, mapping.g))
        direct = newton.verify_invariance(report.embedding, mapping.A)
        assert (pair.x_residual, pair.y_residual) == (direct.x_residual,
                                                      direct.y_residual)
        assert pair.residual == direct.residual == report.invariance_residual
        assert pair.residual < 1e-8

    def test_unknown_mode_and_system_are_rejected(self, map_run, short_run,
                                                  golden):
        mapping, report = map_run
        sched = report.schedule
        f, g = _map_pair(sched)
        with pytest.raises(ParameterError, match="banana"):
            newton.newton_step(f, g, golden, sched, 0, mode="banana")
        with pytest.raises(ParameterError, match="banana"):
            newton.fit_embedding(report.chain, golden, sched.r[0], "banana",
                                 report.chain[0].U.N + 8)
        with pytest.raises(ParameterError, match="callable map"):
            newton.verify_invariance(report.embedding, 3)
        with pytest.raises(ParameterError, match="pair"):
            newton.verify_invariance(short_run[1].embedding, mapping.A)
        record = dict(report.embedding.to_dict(), mode="banana")
        with pytest.raises(PersistenceError, match="banana"):
            newton.TorusEmbedding.from_dict(record)


class TestOneCheckPerChain:
    """run_kam fits and verifies each chain once: max(1, steps) calls of each."""

    @staticmethod
    def _map_run(monkeypatch, golden, M, eps=1e-4, tol=0.0):
        calls = {"fit_embedding": 0, "verify_invariance": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(newton, name), **kwargs):
                calls[_name] += 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(newton, name, counted)
        sched = newton.make_schedule(1, 0.1, 1e-3, M)
        mapping = systems.MapSystem(omega=GOLDEN, eps=eps)
        report = newton.run_kam("map", mapping.f, mapping.g, golden, sched, tol=tol)
        assert report.invariance_residual == report.rows[-1]["invariance_residual"]
        return report, calls

    def test_completed_run(self, monkeypatch, golden):
        report, calls = self._map_run(monkeypatch, golden, M=3)
        assert not report.failed and report.steps_completed == 3
        assert calls == {"fit_embedding": 3, "verify_invariance": 3}
        # the closing row repeats the last step's residual
        assert report.rows[-1]["invariance_residual"] \
            == report.rows[-2]["invariance_residual"]

    def test_stop_at_tol(self, monkeypatch, golden):
        full, _ = self._map_run(monkeypatch, golden, M=3)
        sup = [max(row["sup_f"], row["sup_g"]) for row in full.rows]
        report, calls = self._map_run(monkeypatch, golden, M=3,
                                      tol=math.sqrt(sup[1] * sup[2]))
        assert not report.failed and report.steps_completed == 2
        assert len(report.rows) == 3
        assert calls == {"fit_embedding": 2, "verify_invariance": 2}
        assert report.invariance_residual == full.rows[1]["invariance_residual"]

    def test_failure_at_step_0_checks_the_identity(self, monkeypatch, golden):
        report, calls = self._map_run(monkeypatch, golden, M=2, eps=0.5)
        assert report.failed and report.steps_completed == 0
        assert report.failure.startswith("step 0:")
        assert calls == {"fit_embedding": 1, "verify_invariance": 1}
        assert report.embedding.x_offset.majorant() == 0.0
        assert report.embedding.y.majorant() == 0.0

    def test_failure_at_step_1_keeps_the_last_check(self, monkeypatch, golden):
        step = newton.newton_step

        def fail_at_1(f, g, freq, schedule, m, **kwargs):
            if m == 1:
                raise StepFailureError("step 1: injected failure")
            return step(f, g, freq, schedule, m, **kwargs)

        monkeypatch.setattr(newton, "newton_step", fail_at_1)
        report, calls = self._map_run(monkeypatch, golden, M=3)
        assert report.failed and report.steps_completed == 1
        assert calls == {"fit_embedding": 1, "verify_invariance": 1}
        assert report.invariance_residual == report.rows[0]["invariance_residual"]


class TestStepRow:
    """A step returns exactly the step columns of its convergence row."""

    def test_diagnostics_are_the_step_columns(self, golden):
        sched = newton.make_schedule(1, 0.1, 1e-3, 2)
        f, g = _map_pair(sched)
        _, _, _, diag = newton.newton_step(f, g, golden, sched, 0, mode="map")
        assert list(diag) == list(newton._NO_STEP)

    def test_excursion_warnings_follow_the_rows(self, golden):
        # a strong forcing: both steps invert past the nominal radius
        sched = newton.make_schedule(1, 0.45, 1e-3, 2)
        flow = systems.make_flow_perturbation("single_mode", eps=0.06, g_amp=0.05)
        report = newton.run_kam("flow", flow.f, flow.g, golden, sched)
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
