"""Forced oscillator: reference orbit, coordinates, growth classes, stability."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from revtori import lienard
from revtori.errors import DomainError, ParameterError


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
        assert np.all(pert.f(x, 0.2) == 0.0)
        assert np.all(pert.g(x, 0.2) == 0.0)
        assert pert.p is None and pert.q is None

    def test_power_records_exponents(self):
        pert = lienard.make_perturbation("power", f_amp=0.1, g_amp=0.2,
                                         p=1, q=3)
        assert (pert.p, pert.q) == (1, 3)
        x = np.array([0.5, 2.0])
        np.testing.assert_allclose(pert.f(x, 0.0), 0.1 * x, atol=1e-15)
        np.testing.assert_allclose(pert.g(x, 0.25), 0.0, atol=1e-16)

    def test_rational_cubic_formulas(self):
        pert = lienard.make_perturbation("rational_cubic", f_amp=0.3,
                                         g_amp=0.7)
        x = np.array([-1.5, 0.4, 2.0])
        t = 0.15
        np.testing.assert_allclose(
            pert.f(x, t), 0.3 * x * np.cos(2 * np.pi * t) / (1 + x * x),
            atol=1e-15)
        np.testing.assert_allclose(
            pert.g(x, t), 0.7 * x ** 3 * np.cos(2 * np.pi * t) / (1 + x * x),
            atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            lienard.make_perturbation("vanderpol")

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
        with pytest.raises(ParameterError):
            lienard.LienardProblem(n=1.5,
                                   perturbation=lienard.make_perturbation("none"))

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
        lying = lienard.Perturbation(kind="power", f=base.f, g=base.g,
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
        assert orb.symmetry_residual() < 1e-10
        assert orb.periodicity_residual() < 1e-10
        assert orb.symmetry_defect < 1e-10

    def test_interpolant_solves_the_equation(self, orbits):
        # on the reference orbit x' = y and y' = -x^(2n+1)
        orb = orbits[2]
        s = orb.period * (np.arange(257) + 0.123) / 257
        np.testing.assert_allclose(orb.dx0(s), orb.y0(s), rtol=0, atol=1e-10)
        np.testing.assert_allclose(orb.dy0(s), -orb.x0(s) ** 5, rtol=0,
                                   atol=1e-9)

    def test_parities(self, orbits):
        orb = orbits[1]
        s = orb.period * (np.arange(64) + 0.4) / 64
        np.testing.assert_allclose(orb.x0(-s), -orb.x0(s), atol=1e-13)
        np.testing.assert_allclose(orb.y0(-s), orb.y0(s), atol=1e-13)

    def test_bad_n(self):
        with pytest.raises(ParameterError):
            lienard.compute_reference_orbit(0)


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
        np.testing.assert_allclose(sys_.F1(-theta, rho, -t),
                                   -sys_.F1(theta, rho, t), atol=1e-12)
        np.testing.assert_allclose(sys_.F2(-theta, rho, -t),
                                   sys_.F2(theta, rho, t), atol=1e-12)

    def test_domain_floor(self, rational_system):
        sys_ = rational_system
        with pytest.raises(DomainError):
            sys_.F1(0.3, 0.5 * sys_.rho_star, 0.0)
        val = sys_.F1(0.3, 0.5 * sys_.rho_star, 0.0, check_domain=False)
        assert np.isfinite(val)
        with pytest.raises(DomainError):
            sys_.psi(0.3, -1.0)

    def test_mismatched_orbit_rejected(self, orbits):
        with pytest.raises(ParameterError):
            lienard.action_angle(lienard.make_problem(2), orbit=orbits[1])
        with pytest.raises(ParameterError):
            lienard.action_angle(lienard.make_problem(1), orbit=orbits[1],
                                 rho_star=0.0)


class TestGrowthClasses:
    # the "power" forcing with p = q = 1 is exactly homogeneous after the
    # coordinate change, so the growth exponents are closed-form:
    # with alpha = 1/(n+2), the f channel of F1 scales like rho^(1+alpha),
    # the g channel like rho^(2 alpha), and the f channel of F2 like
    # rho^alpha.
    @pytest.mark.parametrize("n,f_amp,g_amp,which,gamma", [
        (1, 0.05, 0.0, "F1", 4.0 / 3.0),
        (1, 0.0, 0.05, "F1", 2.0 / 3.0),
        (1, 0.05, 0.0, "F2", 1.0 / 3.0),
        (2, 0.05, 0.0, "F1", 5.0 / 4.0),
    ])
    def test_homogeneous_forcing_slopes(self, orbits, n, f_amp, g_amp,
                                        which, gamma):
        prob = lienard.make_problem(n, "power", f_amp=f_amp, g_amp=g_amp,
                                    p=1, q=1)
        sys_ = lienard.action_angle(prob, orbit=orbits[n])
        ev = getattr(sys_, which)

        def evaluator(th, rh, t):
            return ev(th, rh, t, check_domain=False)

        rep = lienard.p_class_estimate(evaluator, q=2, p_t=1, gamma=gamma)
        assert abs(rep.max_slope) < 0.05
        assert rep.member(tol=0.1)
        off = lienard.p_class_estimate(evaluator, q=2, p_t=1,
                                       gamma=gamma - 1.0 / 3.0)
        assert abs(off.max_slope - 1.0 / 3.0) < 0.05
        assert not off.member(tol=0.1)

    def test_report_structure(self, rational_system):
        rep = lienard.p_class_estimate(
            lambda th, rh, t: rational_system.F1(th, rh, t,
                                                 check_domain=False),
            q=1, p_t=1, gamma=2.0 / 3.0)
        assert {(t["k"], t["l"], t["p"]) for t in rep.terms} == {
            (0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1)}
        assert all(len(t["sups"]) == len(rep.rho_samples) for t in rep.terms)

    def test_zero_evaluator_and_bad_orders(self):
        rep = lienard.p_class_estimate(lambda th, rh, t: 0.0 * th, q=1,
                                       p_t=0, gamma=1.0)
        assert rep.max_slope == -math.inf
        with pytest.raises(ParameterError):
            lienard.p_class_estimate(lambda th, rh, t: th, q=-1, p_t=0,
                                     gamma=1.0)


class TestRhoStar:
    def test_onset_of_a_known_bump(self):
        # w(rho) = 1 + 10 exp(-rho) crosses 2x its plateau at rho = ln 10
        def evaluator(th, rho, t):
            return rho * (1.0 + 10.0 * np.exp(-rho))

        rs = lienard.estimate_rho_star(evaluator, gamma=1.0)
        assert 2.0 < rs < 2.7

    def test_homogeneous_bound_holds_everywhere(self, rational_system):
        rs = lienard.estimate_rho_star(
            lambda th, rh, t: rational_system.F1(th, rh, t,
                                                 check_domain=False),
            gamma=2.0 / 3.0)
        assert rs == pytest.approx(0.05)

    def test_divergent_weight_returns_inf(self):
        rs = lienard.estimate_rho_star(lambda th, rh, t: rh ** 2, gamma=0.0)
        assert rs == math.inf


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
        with pytest.raises(ParameterError):
            lienard.lagrange_stability_experiment(
                lienard.make_problem(1), t_max=-1.0, orbit=orbits[1])
