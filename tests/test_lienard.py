"""Forced oscillator: forcing, reference orbit, coordinates, section, stability."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from revtori import lienard
from revtori.errors import DomainError, ParameterError
from revtori.integrators import yoshida_weights


def closed_form_period(n: int) -> float:
    """Period of x'' + x^(2n+1) = 0 from (0, 1), via the beta function.

    With m = 2n + 2 the energy level fixes the turning point
    x_max = (m/2)^(1/m), and the quarter-period integral
    int_0^1 (1 - u^m)^(-1/2) du evaluates to B(1/m, 1/2) / m.
    """
    m = 2 * n + 2
    x_max = (m / 2.0) ** (1.0 / m)
    return 4.0 * x_max * beta_fn(1.0 / m, 0.5) / m


@pytest.fixture(scope="module")
def orbits():
    return {n: lienard.compute_reference_orbit(n) for n in (1, 2, 3)}


@pytest.fixture(scope="module")
def rational_system(orbits):
    prob = lienard.make_problem(1, "rational_cubic", f_amp=0.05, g_amp=0.05)
    return lienard.action_angle(prob, orbit=orbits[1])


class TestPerturbationFactory:
    def test_none_is_zero(self):
        pert = lienard.make_perturbation("none")
        x = np.linspace(-3, 3, 7)
        fv, gv = pert.forcing(x, 0.2)
        assert np.all(fv == 0.0) and np.all(gv == 0.0)
        assert pert.p is None and pert.q is None

    def test_power_records_exponents(self):
        pert = lienard.make_perturbation("power", f_amp=0.1, g_amp=0.2,
                                         p=1, q=3)
        assert (pert.p, pert.q) == (1, 3)
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(pert.forcing(x, 0.0)[0], 0.1 * x, atol=1e-15)
        np.testing.assert_allclose(pert.forcing(x, 0.0)[1], 0.2 * x ** 3,
                                   rtol=1e-15)
        np.testing.assert_allclose(pert.forcing(x, 0.25)[1], 0.0, atol=1e-16)

    def test_rational_cubic_formulas(self):
        pert = lienard.make_perturbation("rational_cubic", f_amp=0.3,
                                         g_amp=0.7)
        x = np.array([-1.5, 0.4, 2.0])
        t = 0.15
        fv, gv = pert.forcing(x, t)
        np.testing.assert_allclose(
            fv, 0.3 * x * np.cos(2 * np.pi * t) / (1 + x * x), atol=1e-15)
        np.testing.assert_allclose(
            gv, 0.7 * x ** 3 * np.cos(2 * np.pi * t) / (1 + x * x), atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            lienard.make_perturbation("vanderpol")

    @pytest.mark.parametrize("kind,params", [
        ("rational_cubic", {"f_amp": 0.3, "g_amp": 0.7}),
        ("rational_cubic_skew", {"phase": 0.4}),
        ("power", {"f_amp": 0.1, "g_amp": 0.2, "p": 1, "q": 3}),
        ("power", {"f_amp": 0.1, "g_amp": 0.2, "p": 2, "q": 5}),
        ("none", {}),
    ])
    def test_forcing_scalar_t_matches_array_t(self, kind, params):
        # the section map passes a scalar t, the plane checks an array t
        pert = lienard.make_perturbation(kind, **params)
        x = np.concatenate([np.linspace(-4.0, 4.0, 33), [-1e5, -37.5, 0.0, 61.0, 1e5]])
        for t in (0.0, 0.13, 0.25, 0.5, 0.91, 7.3, -0.37):
            for got, want in zip(pert.forcing(x, t),
                                 pert.forcing(x, np.full_like(x, t))):
                assert got.shape == x.shape
                np.testing.assert_array_equal(got, want)

    def test_zero_forcing_is_not_called_per_step(self, orbits):
        # the unforced control takes the plain kick-drift-kick branch
        calls = []
        zero = lienard.make_perturbation("none").forcing

        def counted(x, t):
            calls.append(t)
            return zero(x, t)

        prob = lienard.LienardProblem(
            n=1, perturbation=lienard.Perturbation(kind="none", forcing=counted))
        counts = []
        for t_max in (1.0, 2.0):
            calls.clear()
            lienard.lagrange_stability_experiment(prob, t_max=t_max,
                                                  orbit=orbits[1])
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("order,stages", [(2, 1), (4, 3), (6, 7)])
    def test_forcing_called_once_per_stage(self, orbits, order, stages):
        # the closing forcing of one step is the opening forcing of the
        # next; two horizons cancel the set-up calls
        base = lienard.make_perturbation("rational_cubic")
        calls = []

        def counted(x, t):
            calls.append(t)
            return base.forcing(x, t)

        prob = lienard.LienardProblem(n=1, perturbation=lienard.Perturbation(
            base.kind, counted, base.params, base.p, base.q))
        counts = []
        for steps in (10, 30):
            calls.clear()
            lienard.lagrange_stability_experiment(
                prob, t_max=steps / 64, orbit=orbits[1], order=order)
            counts.append(len(calls))
        assert counts[1] - counts[0] == 20 * stages

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError, match="f_ampz"):
            lienard.make_perturbation("rational_cubic", f_ampz=0.1)
        with pytest.raises(ParameterError):
            lienard.make_perturbation("none", f_amp=0.1)
        # the phase shift is a parameter of the skewed kind only
        with pytest.raises(ParameterError, match="phase"):
            lienard.make_perturbation("rational_cubic", phase=0.3)
        assert lienard.make_perturbation(
            "rational_cubic_skew", phase=0.3).params["phase"] == 0.3


class TestProblem:
    def test_n_must_be_positive_integer(self):
        with pytest.raises(ParameterError):
            lienard.make_problem(0)
        for bad in (1.5, 2.0, True, "1"):
            with pytest.raises(ParameterError):
                lienard.make_problem(bad)
        with pytest.raises(ParameterError):
            lienard.LienardProblem(n=1.5,
                                   perturbation=lienard.make_perturbation("none"))

    @pytest.mark.parametrize("p", range(1, 8))
    def test_int_power_matches_pow(self, p, rng):
        # one rounding per multiplication: within p - 1 units in the last
        # place of x ** p (exact for p <= 2)
        x = np.concatenate([rng.uniform(-3.0, 3.0, 4000),
                            1e3 * rng.standard_normal(4000),
                            -np.geomspace(1e-3, 1e4, 2000)])
        ref = x ** p
        err = np.abs(lienard._int_power(x, p) - ref) / np.spacing(np.abs(ref))
        assert err.max() <= max(p - 1, 0)

    def test_restoring_and_energy_formulas(self, rng):
        x, y = rng.uniform(-3.0, 3.0, 50), rng.uniform(-3.0, 3.0, 50)
        for n in (1, 2, 3):
            prob = lienard.make_problem(n)
            np.testing.assert_allclose(prob.restoring(x), x ** (2 * n + 1),
                                       rtol=1e-14, atol=0)
            np.testing.assert_allclose(prob.energy(x, y),
                                       (n + 1) * y * y + x ** (2 * n + 2),
                                       rtol=1e-14, atol=0)

    def test_plane_rhs_formula(self):
        prob = lienard.make_problem(2, "power", f_amp=0.1, g_amp=0.2, p=1, q=1)
        x, y, t = np.array([0.7]), np.array([-0.3]), 0.0
        dx, dy = prob.plane_rhs(x, y, t)
        assert dx[0] == y[0]
        expected = -x[0] ** 5 - 0.1 * x[0] * y[0] - 0.2 * x[0]
        np.testing.assert_allclose(dy[0], expected, rtol=1e-14)

    def test_validate_accepts_the_reversible_pairs(self):
        assert lienard.make_problem(1, "none").validate() == []
        assert lienard.make_problem(1, "rational_cubic").validate() == []

    def test_validate_flags_broken_time_parity(self):
        warnings = lienard.make_problem(1, "rational_cubic_skew").validate()
        assert len(warnings) == 2
        assert all("not even in t" in w for w in warnings)
        assert not any("not odd in x" in w for w in warnings)

    def test_validate_flags_even_x_power(self):
        warnings = lienard.make_problem(1, "power", p=2, q=1,
                                        g_amp=0.0).validate()
        assert any("not odd in x" in w for w in warnings)

    def test_validate_flags_inadmissible_exponent(self):
        warnings = lienard.make_problem(2, "power", p=1, q=5).validate()
        assert any("above the admissible 3" in w for w in warnings)

    def test_validate_flags_underdeclared_growth(self):
        # declare linear growth but actually grow cubically
        base = lienard.make_perturbation("power", f_amp=0.05, g_amp=0.05,
                                         p=1, q=3)
        lying = lienard.Perturbation(kind="power", forcing=base.forcing,
                                     params=base.params, p=1, q=1)
        warnings = lienard.LienardProblem(n=2, perturbation=lying).validate()
        assert any("grows like x^3.00" in w for w in warnings)


class TestReferenceOrbit:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_period_matches_beta_integral(self, orbits, n):
        assert abs(orbits[n].period - closed_form_period(n)) < 1e-11

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_amplitude_matches_turning_point(self, orbits, n):
        m = 2 * n + 2
        assert abs(orbits[n].amplitude() - (m / 2.0) ** (1.0 / m)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residuals_are_tiny(self, orbits, n):
        orb = orbits[n]
        assert orb.energy_residual() < 1e-10
        assert orb.closure_error < 1e-10
        assert orb.symmetry_defect < 1e-10

    def test_interpolant_solves_the_equation(self, orbits):
        # on the reference orbit x' = y and y' = -x^(2n+1)
        orb = orbits[2]
        theta = 2.0 * np.pi * (np.arange(257) + 0.123) / 257
        x0, y0, dx0, dy0 = orb.angle_data(theta, derivatives=True)
        np.testing.assert_allclose(dx0, y0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dy0, -x0 ** 5, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_values_do_not_depend_on_rows_requested(self, orbits, n):
        orb = orbits[n]
        phi = (2.0 * np.pi / orb.period) * (orb.period * np.arange(512) / 512)
        plain = orb.angle_data(phi)
        full = orb.angle_data(phi, derivatives=True)
        assert np.array_equal(plain[0], full[0])
        assert np.array_equal(plain[1], full[1])

    def test_parities(self, orbits):
        orb = orbits[1]
        theta = 2.0 * np.pi * (np.arange(64) + 0.4) / 64
        x0, y0 = orb.angle_data(theta)
        x0m, y0m = orb.angle_data(-theta)
        np.testing.assert_allclose(x0m, -x0, atol=1e-13)
        np.testing.assert_allclose(y0m, y0, atol=1e-13)

    def test_bad_n(self):
        for n in (0, 1.0, True):
            with pytest.raises(ParameterError, match="n must"):
                lienard.compute_reference_orbit(n)

    @pytest.mark.parametrize("n_samples", [0, -5, 8, 35, 64.0, True])
    def test_bad_sample_count(self, n_samples):
        with pytest.raises(ParameterError, match="n_samples"):
            lienard.compute_reference_orbit(1, n_samples=n_samples)

    def test_smallest_sample_count_keeps_its_band(self):
        # 36 samples: 9 > 8 modes of room, the kept band stays below it
        orb = lienard.compute_reference_orbit(1, n_samples=36)
        assert (len(orb.coeffs_x) - 1) // 2 < 36 // 4


class TestActionAngle:
    def test_psi_lands_on_the_energy_level(self, rational_system, rng):
        # energy of psi(theta, rho) is (n+1) (c rho)^(2 beta) exactly
        sys_ = rational_system
        theta = rng.uniform(0, 2 * np.pi, 128)
        rho = rng.uniform(0.3, 4.0, 128)
        x, y = sys_.psi(theta, rho)
        E = sys_.problem.energy(x, y)
        expected = (sys_.n + 1) * (sys_.c * rho) ** (2 * sys_.beta)
        np.testing.assert_allclose(E, expected, rtol=1e-11)

    def test_jacobian_against_finite_differences(self, rational_system):
        sys_ = rational_system
        theta = np.array([0.7, 2.1, 4.4])
        rho = np.array([0.9, 1.4, 2.2])
        J = sys_.psi_jacobian(theta, rho)
        h = 1e-6
        for col, (dth, drh) in enumerate([(h, 0.0), (0.0, h)]):
            xp, yp = sys_.psi(theta + dth, rho + drh)
            xm, ym = sys_.psi(theta - dth, rho - drh)
            np.testing.assert_allclose(J[:, 0, col], (xp - xm) / (2 * h),
                                       rtol=0, atol=1e-7)
            np.testing.assert_allclose(J[:, 1, col], (yp - ym) / (2 * h),
                                       rtol=0, atol=1e-7)

    def test_chain_rule_closes(self, rational_system, orbits):
        assert lienard.chain_rule_residual(rational_system) < 1e-10
        control = lienard.action_angle(lienard.make_problem(1, "none"),
                                       orbit=orbits[1])
        assert lienard.chain_rule_residual(control) < 1e-10

    def test_twist_formula(self, rational_system):
        sys_ = rational_system
        rho = np.array([0.5, 1.0, 3.0])
        np.testing.assert_allclose(sys_.twist(rho),
                                   sys_.c0 * rho ** (2 * sys_.beta - 1),
                                   rtol=1e-14)

    def test_perturbation_parities_in_angle_time(self, rational_system):
        # F1 jointly odd, F2 jointly even under (theta, t) -> (-theta, -t)
        sys_ = rational_system
        theta = 2 * np.pi * (np.arange(32) + 0.37) / 32
        rho = np.full_like(theta, 1.3)
        t = (np.arange(32) + 0.11) / 32
        speed, F1 = sys_.rhs(theta, rho, t)
        speed_m, F1_m = sys_.rhs(-theta, rho, -t)
        np.testing.assert_allclose(F1_m, -F1, atol=1e-12)
        np.testing.assert_allclose(speed_m - sys_.twist(rho),
                                   speed - sys_.twist(rho), atol=1e-12)

    def test_domain_floor(self, rational_system):
        sys_ = rational_system
        with pytest.raises(DomainError):
            sys_.rhs(0.3, 0.5 * sys_.rho_star, 0.0)
        val = sys_.rhs(0.3, 0.5 * sys_.rho_star, 0.0, check_domain=False)
        assert np.all(np.isfinite(val))
        with pytest.raises(DomainError):
            sys_.psi(0.3, -1.0)

    def test_mismatched_orbit_rejected(self, orbits):
        with pytest.raises(ParameterError):
            lienard.action_angle(lienard.make_problem(2), orbit=orbits[1])
        with pytest.raises(ParameterError):
            lienard.action_angle(lienard.make_problem(1), orbit=orbits[1],
                                 rho_star=0.0)


class TestPoincare:
    def test_unperturbed_section_is_a_pure_twist(self, orbits):
        control = lienard.action_angle(lienard.make_problem(1, "none"),
                                       orbit=orbits[1])
        theta = 2 * np.pi * np.arange(8) / 8
        rho = np.full(8, 1.7)
        res = lienard.poincare_map(control, theta, rho)
        assert not res.escaped.any()
        np.testing.assert_allclose(res.rho, rho, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.theta - theta, control.twist(rho),
                                   rtol=0, atol=1e-10)

    def test_reversibility_residual(self, rational_system):
        assert lienard.poincare_reversibility_residual(
            rational_system) < 1e-12

    def test_below_floor_is_flagged_not_raised(self, rational_system):
        res = lienard.poincare_map(rational_system, np.array([0.3]),
                                   np.array([0.1]))
        assert res.escaped.tolist() == [True]
        assert res.rho[0] == pytest.approx(0.1)

    def test_shape_mismatch(self, rational_system):
        with pytest.raises(ParameterError):
            lienard.poincare_map(rational_system, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
    def test_bad_step_count(self, rational_system, n_steps):
        with pytest.raises(ParameterError, match="n_steps"):
            lienard.poincare_map(rational_system, [0.3], [1.0], n_steps=n_steps)
        with pytest.raises(ParameterError, match="n_steps"):
            lienard.poincare_reversibility_residual(rational_system,
                                                    n_steps=n_steps)

    @pytest.mark.parametrize("theta,rho", [
        ([], []), ([0.3], [math.nan]), ([math.inf], [1.0])])
    def test_bad_samples(self, rational_system, theta, rho):
        with pytest.raises(ParameterError):
            lienard.poincare_map(rational_system, theta, rho)

    @pytest.mark.parametrize("thetas,rhos", [
        ([], [1.0]), ([0.3], []), ([0.3], [math.nan])])
    def test_bad_residual_grid(self, rational_system, thetas, rhos):
        with pytest.raises(ParameterError):
            lienard.poincare_reversibility_residual(rational_system, thetas,
                                                    rhos, n_steps=4)


class TestStability:
    def test_control_stays_on_its_level_sets(self, orbits):
        prob = lienard.make_problem(1, "none")
        rep = lienard.lagrange_stability_experiment(prob, t_max=50.0,
                                                    order=6, orbit=orbits[1])
        assert rep.stable
        # ratio exceeds 1 only by phase-sampling error, never by growth
        assert rep.max_ratio <= 1.0 + 1e-3
        assert max(r["energy_drift"] for r in rep.rows) < 1e-6
        assert not any(r["failed"] for r in rep.rows)

    def test_perturbed_orbits_stay_confined(self, orbits):
        prob = lienard.make_problem(1, "rational_cubic", f_amp=0.05,
                                    g_amp=0.05)
        rep = lienard.lagrange_stability_experiment(prob, t_max=50.0,
                                                    order=4, orbit=orbits[1])
        assert rep.stable
        assert rep.max_ratio < 1.5
        assert rep.warnings == []

    def test_threshold_and_warnings_propagate(self, orbits):
        prob = lienard.make_problem(1, "rational_cubic_skew")
        rep = lienard.lagrange_stability_experiment(prob, t_max=2.0,
                                                    threshold=0.99,
                                                    orbit=orbits[1])
        assert not rep.stable  # ratios are always >= 1
        assert len(rep.warnings) == 2

    def test_report_tables(self, orbits):
        prob = lienard.make_problem(1, "none")
        rep = lienard.lagrange_stability_experiment(
            prob, t_max=1.0, levels=(1.0, 2.0), phases=(0.0, np.pi),
            orbit=orbits[1])
        assert rep.csv_header() == lienard.STABILITY_COLUMNS
        rows = rep.csv_rows()
        assert len(rows) == 4
        assert all(len(r) == len(lienard.STABILITY_COLUMNS) for r in rows)
        summary = rep.summary()
        assert summary["n_orbits"] == 4 and summary["n_failed"] == 0

    def test_bad_horizon(self, orbits):
        prob = lienard.make_problem(1)
        for t_max, dt, t_ref in ((-1.0, 1 / 64, None), (math.nan, 1 / 64, None),
                                 (math.inf, 1 / 64, None), (1.0, math.nan, None),
                                 (1.0, 0.0, None), (1.0, 10.0, None),
                                 (1.0, 1 / 64, math.nan), (1.0, 1 / 64, -1.0)):
            with pytest.raises(ParameterError):
                lienard.lagrange_stability_experiment(
                    prob, t_max=t_max, dt=dt, t_ref=t_ref, orbit=orbits[1])

    def test_bad_threshold(self, orbits):
        prob = lienard.make_problem(1)
        for threshold in (math.nan, math.inf, 0.0, -3.0):
            with pytest.raises(ParameterError, match="threshold"):
                lienard.lagrange_stability_experiment(
                    prob, t_max=1.0, threshold=threshold, orbit=orbits[1])

    def test_empty_bundle_rejected(self, orbits):
        prob = lienard.make_problem(1)
        for levels, phases in (([], (0.0,)), ((1.0,), [])):
            with pytest.raises(ParameterError, match="at least one"):
                lienard.lagrange_stability_experiment(
                    prob, t_max=1.0, levels=levels, phases=phases,
                    orbit=orbits[1])

    def test_t_fail_is_a_column(self, orbits):
        prob = lienard.make_problem(1)
        rep = lienard.lagrange_stability_experiment(
            prob, t_max=1.0, levels=(1.0, 1e7), phases=(0.0,), orbit=orbits[1])
        assert lienard.STABILITY_COLUMNS[-1] == "t_fail"
        survived, failed = rep.csv_rows()
        assert math.isnan(survived[-1])
        assert failed[-1] == pytest.approx(1.0 / 64)


def _reference_stability(problem, t_max, dt, levels, phases, t_ref, orbit,
                         order):
    """Per-step reference for lagrange_stability_experiment.

    The forcing is called at both half-kicks of every substep, powers use
    ``**``, and the checks, the freeze and the maxima run after every step.
    Returns the per-orbit columns as arrays.
    """
    n = problem.n
    forcing = problem.perturbation.forcing
    plain = problem.perturbation.kind == "none"
    lam = np.repeat(np.asarray(levels, dtype=float), len(phases))
    phs = np.tile(np.asarray(phases, dtype=float), len(levels))
    x0, y0 = orbit.angle_data(phs)
    x = lam * x0
    y = lam ** (n + 1) * y0
    B = len(x)

    E0 = problem.energy(x, y)
    running = np.abs(x) + np.abs(y)
    initial = running.copy()
    drift = np.zeros(B)
    alive = np.ones(B, dtype=bool)
    t_fail = np.full(B, math.nan)
    x_save, y_save = x.copy(), y.copy()

    weights = yoshida_weights(order)
    n_steps = int(round(t_max / dt))
    k_ref = int(math.ceil(t_ref / dt))
    cap = 1e6
    p21 = 2 * n + 1

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n_steps):
            t_sub = k * dt
            for w in weights:
                h = w * dt
                half = 0.5 * h
                if plain:
                    y = y - half * x ** p21
                    x = x + h * y
                    y = y - half * x ** p21
                    t_sub += h
                else:
                    fv, gv = forcing(x, t_sub)
                    y = (y - half * (x ** p21 + gv)) / (1.0 + half * fv)
                    x = x + h * y
                    t_sub += h
                    fv, gv = forcing(x, t_sub)
                    y = y - half * (x ** p21 + fv * y + gv)
            norm = np.abs(x) + np.abs(y)
            bad = alive & (~np.isfinite(norm) | (norm > cap))
            if bad.any():
                t_fail[bad] = (k + 1) * dt
                alive &= ~bad
                x[bad] = x_save[bad]
                y[bad] = y_save[bad]
                norm = np.abs(x) + np.abs(y)
            np.copyto(x_save, x, where=alive)
            np.copyto(y_save, y, where=alive)
            live_norm = np.where(alive, norm, -np.inf)
            running = np.maximum(running, live_norm)
            if k < k_ref:
                initial = np.maximum(initial, live_norm)
            E = problem.energy(x, y)
            dE = np.abs(E - E0) / np.maximum(E0, 1e-300)
            drift = np.where(alive, np.maximum(drift, dE), drift)

    ratio = np.where(alive, running / initial, np.inf)
    return {"ratio": ratio, "max_norm": running, "initial_max": initial,
            "energy_drift": drift, "failed": ~alive, "t_fail": t_fail}


class TestStabilityOracle:
    """The block-checked integrator against the per-step reference loop.

    Powers by multiplication and the once-per-point force evaluation move
    results by rounding only, hence the relative tolerances; which orbits
    fail, and when, must agree exactly.  Each case runs with the shipped
    block cap and with a cap that makes blocks of a few steps, so failures
    land in row 0 of the first block, mid-block and at later blocks.
    """

    CASES = {
        # (a) the shipped forcing, 20 orbits
        "rational_cubic": dict(n=1, kind="rational_cubic",
                               params={"f_amp": 0.05, "g_amp": 0.05},
                               t_max=50.0, t_ref=10.0, order=4,
                               levels=(1.0, 1.5, 2.0, 2.5, 3.0),
                               phases=(0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)),
        # (b) the plain kick-drift-kick control
        "none": dict(n=1, kind="none", params={}, t_max=50.0, t_ref=10.0,
                     order=6, levels=(1.0, 2.0, 3.0), phases=(0.0, 1.0, 2.5)),
        # (c) anti-damping f = -8 (built below): level 1e7 fails at step
        # 1, levels 0.01 to 10 escape between steps 44 and 169, and level
        # 1e-4 stays.  The escape is fast on purpose: an orbit that spends
        # hundreds of steps under-resolved on its way out amplifies
        # rounding (1e-9 relative at f = -2), whatever the bookkeeping.
        "failures": dict(n=1, kind="anti_damping", params={},
                         t_max=3.0, t_ref=1.0, order=4,
                         levels=(1e-4, 0.01, 0.1, 10.0, 1e7),
                         phases=(0.0, 2.0, 4.0)),
        # (d) 190 steps, k_ref = 77: neither a multiple of the small
        # cap's 5-step blocks; n = 2 and a skewed phase on the way
        "ragged": dict(n=2, kind="rational_cubic_skew", params={"phase": 0.4},
                       t_max=190 / 64, t_ref=1.2, order=2,
                       levels=(1.0, 2.0, 1e7),
                       phases=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
        # (e) order 6 under a forcing, with n = 2 and the power kind
        "order6": dict(n=2, kind="power",
                       params={"f_amp": 0.04, "g_amp": 0.03, "p": 1, "q": 3},
                       t_max=50.0, t_ref=10.0, order=6,
                       levels=(1.0, 2.0, 3.0), phases=(0.0, 1.0, 2.5)),
    }

    @pytest.mark.parametrize("cap", [None, 100])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_loop_matches_reference(self, orbits, monkeypatch, case, cap):
        c = self.CASES[case]
        if cap is not None:
            monkeypatch.setattr(lienard, "_STABILITY_BLOCK_ENTRIES", cap)
        if c["kind"] == "anti_damping":
            def forcing(x, t):
                x = np.asarray(x, dtype=float)
                return np.full_like(x, -8.0), np.zeros_like(x)

            prob = lienard.LienardProblem(
                n=c["n"], perturbation=lienard.Perturbation(
                    kind="anti_damping", forcing=forcing))
        else:
            prob = lienard.make_problem(c["n"], c["kind"], **c["params"])
        args = dict(t_max=c["t_max"], dt=1.0 / 64, levels=c["levels"],
                    phases=c["phases"], t_ref=c["t_ref"], orbit=orbits[c["n"]],
                    order=c["order"])
        rep = lienard.lagrange_stability_experiment(prob, **args)
        ref = _reference_stability(prob, **args)
        got = {col: np.array([row[col] for row in rep.rows])
               for col in ref}
        np.testing.assert_array_equal(got["failed"], ref["failed"])
        np.testing.assert_array_equal(got["t_fail"], ref["t_fail"])
        for col in ("ratio", "max_norm", "initial_max"):
            np.testing.assert_allclose(got[col], ref[col], rtol=1e-10, atol=0,
                                       err_msg=col)
        # drifts are relative energy errors; the control's sit near 1e-12,
        # where rounding alone moves them by ~1e-14
        np.testing.assert_allclose(got["energy_drift"], ref["energy_drift"],
                                   rtol=1e-8, atol=1e-13)
        if case == "failures":
            steps = ref["t_fail"][ref["failed"]] * 64
            assert steps.min() == 1 and steps.max() > 100
            assert not ref["failed"].all()


# --------------------------------------------------------------------------- #
# the section map's old evaluation path, kept as an oracle
# --------------------------------------------------------------------------- #

def _old_eval(orbit, coeffs, s):
    """Complex-exponential table over modes -K..K, real part of the sum."""
    s = np.asarray(s, dtype=float)
    K = (len(coeffs) - 1) // 2
    modes = np.arange(-K, K + 1)
    phases = (2.0 * np.pi / orbit.period) * s.ravel()
    vals = (np.exp(1j * np.outer(phases, modes)) @ coeffs).real
    return vals.reshape(s.shape)


def _old_orbit_values(orbit, s):
    """x0, y0, dx0, dy0, each from its own table."""
    K = (len(orbit.coeffs_x) - 1) // 2
    dmul = 1j * np.arange(-K, K + 1) * (2.0 * np.pi / orbit.period)
    return (_old_eval(orbit, orbit.coeffs_x, s), _old_eval(orbit, orbit.coeffs_y, s),
            _old_eval(orbit, orbit.coeffs_x * dmul, s),
            _old_eval(orbit, orbit.coeffs_y * dmul, s))


def _old_angle_data(sys_, theta):
    s = np.asarray(theta, dtype=float) * sys_.orbit.period / (2.0 * np.pi)
    return _old_eval(sys_.orbit, sys_.orbit.coeffs_x, s), \
        _old_eval(sys_.orbit, sys_.orbit.coeffs_y, s)


def _old_F1(sys_, theta, rho, t):
    x0, y0 = _old_angle_data(sys_, theta)
    T0 = sys_.orbit.period
    X = sys_.c ** sys_.alpha * rho ** sys_.alpha * x0
    fv, gv = sys_.problem.perturbation.forcing(X, t)
    return -(T0 / (2.0 * np.pi)) * y0 * (
        sys_.c * rho * y0 * fv + sys_.c ** sys_.alpha * rho ** sys_.alpha * gv)


def _old_F2(sys_, theta, rho, t):
    x0, y0 = _old_angle_data(sys_, theta)
    X = sys_.c ** sys_.alpha * rho ** sys_.alpha * x0
    fv, gv = sys_.problem.perturbation.forcing(X, t)
    return (sys_.alpha * sys_.c * x0 * y0 * fv
            + sys_.alpha * sys_.c ** sys_.alpha * rho ** (sys_.alpha - 1.0) * x0 * gv)


def _old_rhs(sys_, theta, rho, t, check_domain=True):
    rho = np.asarray(rho, dtype=float)
    return (sys_.c0 * rho ** (2.0 * sys_.beta - 1.0) + _old_F2(sys_, theta, rho, t),
            _old_F1(sys_, theta, rho, t))


def _old_reference_orbit(n, n_samples=8192):
    """The generating loop on numpy scalars: each stage a kick-drift-kick
    that evaluates both of its forces afresh."""
    T0 = 4.0 * lienard._quarter_period(n)
    h = T0 / n_samples
    weights = yoshida_weights(6)
    p = 2 * n + 1

    xs = np.empty(n_samples)
    ys = np.empty(n_samples)
    x, y = 0.0, 1.0
    for j in range(n_samples):
        xs[j], ys[j] = x, y
        for w in weights:
            hh = w * h
            y = y + 0.5 * hh * -x ** p
            x = x + hh * y
            y = y + 0.5 * hh * -x ** p
    closure = max(abs(x - 0.0), abs(y - 1.0))

    cx = np.fft.fft(xs) / n_samples
    cy = np.fft.fft(ys) / n_samples
    K_max = n_samples // 4
    mags = np.maximum(np.abs(cx), np.abs(cy))
    tail = np.arange(1, K_max)
    keep = tail[np.maximum(mags[tail], mags[-tail]) > 1e-14 * mags.max()]
    K = max(int(keep.max()) if keep.size else 1, 8)
    idx = np.arange(-K, K + 1) % n_samples
    cx, cy = cx[idx], cy[idx]
    defect = max(float(np.max(np.abs(cx.real))), float(np.max(np.abs(cy.imag))))
    return {"period": T0, "coeffs_x": 1j * cx.imag, "coeffs_y": cy.real + 0j,
            "closure_error": closure, "symmetry_defect": defect}


def _oracle_systems(orbits):
    kinds = {
        "none": {},
        "power": {"f_amp": 0.04, "g_amp": 0.03, "p": 1, "q": 3},
        "rational_cubic": {"f_amp": 0.05, "g_amp": 0.05},
        "rational_cubic_skew": {"f_amp": 0.05, "g_amp": 0.07, "phase": 0.4},
    }
    return {kind: lienard.action_angle(
        lienard.make_problem(2 if kind == "power" else 1, kind, **params),
        orbit=orbits[2 if kind == "power" else 1])
        for kind, params in kinds.items()}


class TestSectionMapOracle:
    """One real table and one forcing call against the old composition.

    The old path built a complex-exponential table for each of x0 and y0
    and evaluated F1 and F2 separately; the new one shares a sin/cos table
    and a forcing evaluation, so values move by rounding only.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbit_values_match_complex_table(self, orbits, n):
        orb = orbits[n]
        # several periods either side of zero, not on the sample grid
        s = orb.period * np.linspace(-3.3, 4.7, 301)
        want = _old_orbit_values(orb, s)
        # the old path's own phase, so both see the same rounded angle
        theta = (2.0 * np.pi / orb.period) * s
        got = orb.angle_data(theta, derivatives=True)
        for name, g, w in zip(("x0", "y0", "dx0", "dy0"), got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-14, err_msg=name)
        # scalar in, 0-d out, as before
        assert orb.angle_data(0.3)[0].shape == ()
        assert orb.angle_data(0.3)[1].shape == ()

    @pytest.mark.parametrize("t_kind", ["scalar", "array"])
    @pytest.mark.parametrize("kind", ["none", "power", "rational_cubic",
                                      "rational_cubic_skew"])
    def test_drifts_match_old_composition(self, orbits, kind, t_kind):
        sys_ = _oracle_systems(orbits)[kind]
        theta = 2.0 * np.pi * (np.arange(40) + 0.37) / 40 - 3.0
        rho = np.linspace(0.3, 5.0, 40)
        t = 0.3125 if t_kind == "scalar" else (np.arange(40) + 0.11) / 40
        new_rhs = sys_.rhs(theta, rho, t)
        old_rhs = _old_rhs(sys_, theta, rho, t)
        pairs = [("rhs theta", new_rhs[0], old_rhs[0]),
                 ("rhs rho", new_rhs[1], old_rhs[1])]
        for name, got, want in pairs:
            scale = max(float(np.max(np.abs(want))), 1e-300)
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, name
        if kind == "none":
            assert not np.any(new_rhs[1])
            np.testing.assert_array_equal(new_rhs[0], sys_.twist(rho))

    def test_one_forcing_call_per_rhs(self, orbits):
        # a scalar t and an array t each make one forcing call
        sys_ = _oracle_systems(orbits)["rational_cubic"]
        pert = sys_.problem.perturbation
        calls = []

        def counted(x, t):
            calls.append(np.shape(t))
            return pert.forcing(x, t)

        counting = dataclasses.replace(pert, forcing=counted)
        sys_ = lienard.action_angle(
            lienard.LienardProblem(n=1, perturbation=counting), orbit=orbits[1])
        sys_.rhs(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 0.25)
        sys_.rhs(np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.array([0.1, 0.3]))
        assert calls == [(), (2,)]

    def test_section_map_matches_old_path(self, orbits, monkeypatch):
        # the shipped configs/lienard_poincare.json grid
        sys_ = _oracle_systems(orbits)["rational_cubic"]
        thetas = 2.0 * np.pi * np.arange(8) / 8
        TH, RH = np.meshgrid(thetas, [0.8, 1.2, 1.8, 2.5], indexing="ij")
        got = lienard.poincare_map(sys_, TH.ravel(), RH.ravel())
        monkeypatch.setattr(lienard.TransformedSystem, "rhs", _old_rhs)
        want = lienard.poincare_map(sys_, TH.ravel(), RH.ravel())
        np.testing.assert_allclose(got.theta, want.theta, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got.rho, want.rho, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(got.escaped, want.escaped)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbit_coefficients_bit_identical(self, orbits, n):
        want = _old_reference_orbit(n)
        orb = orbits[n]
        for name in ("period", "closure_error", "symmetry_defect"):
            assert getattr(orb, name) == want[name], name
        for name in ("coeffs_x", "coeffs_y"):
            np.testing.assert_array_equal(getattr(orb, name), want[name],
                                          err_msg=name)

    def test_domain_errors_still_raise(self, orbits):
        sys_ = _oracle_systems(orbits)["rational_cubic"]
        low = 0.5 * sys_.rho_star
        with pytest.raises(DomainError):
            sys_.rhs(0.3, low, 0.0)
        with pytest.raises(DomainError):
            sys_.rhs(0.3, -1.0, 0.0, check_domain=False)
        assert np.all(np.isfinite(sys_.rhs(0.3, low, 0.0, check_domain=False)))
        with pytest.raises(DomainError):
            sys_.twist(-1.0)
        with pytest.raises(DomainError):
            sys_.psi(0.3, -1.0)
        with pytest.raises(DomainError):
            sys_.psi_jacobian(0.3, -1.0)
