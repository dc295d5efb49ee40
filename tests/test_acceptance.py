"""The ten acceptance properties, one test per criterion.

Each test prints exactly one line of the form

    ACCEPTANCE  5 PASS  flow iteration: 5 steps, order 1.0014, ...

with output capture suspended, so the lines are visible in any pytest
run, and then asserts the same conditions, so a regression shows up both
as a FAIL line and as a failing test.
"""

import time

import numpy as np
import pytest

from revtori import (diophantine, homological, lienard, newton, persistence,
                     smoothing, systems)
from revtori.cli import main as cli_main

from revtori.fields import stack_components

from conftest import (GOLDEN, grid_parity_residual, halves, random_parity_field,
                      random_reversible_pair)
from test_homological import collocation_solve_flow


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:2d} {status}  {detail}", flush=True)


@pytest.fixture(scope="module")
def flow_m5(golden):
    sched = newton.make_schedule(1, 0.1, 1e-4, 5)
    flow = systems.make_flow_perturbation("single_mode", eps=1e-4,
                                          g_amp=sched.s[0])
    t0 = time.perf_counter()
    report = newton.run_kam("flow", flow, golden, sched)
    return report, sched, time.perf_counter() - t0


@pytest.fixture(scope="module")
def map_m5(golden):
    sched = newton.make_schedule(1, 0.1, 1e-4, 5)
    mapping = systems.make_map_perturbation("cosine_kick", omega=GOLDEN,
                                            eps=1e-4)
    t0 = time.perf_counter()
    report = newton.run_kam("map", mapping.A, golden, sched)
    return report, mapping, time.perf_counter() - t0


def test_criterion_01_homological_exactness(capsys, rng, golden):
    t0 = time.perf_counter()
    f, g = random_reversible_pair(rng, d=1, N=8, q_y=2)
    u, v = halves(homological.solve_flow(stack_components(f, g), golden).uv)

    u_hat, v_hat = collocation_solve_flow(f, g, float(golden.omega[0]))
    gap_u = float(np.max(np.abs(u.coeffs[..., 0] - u_hat))
                  / np.max(np.abs(u_hat)))
    gap_v = float(np.max(np.abs(v.coeffs[..., 0] - v_hat))
                  / np.max(np.abs(v_hat)))

    N = f.N
    modes = np.arange(-N, N + 1, dtype=float)
    D = modes[:, None] * float(golden.omega[0]) + modes[None, :]
    res_v = 1j * D[..., None, None] * v.coeffs + g.coeffs
    res_u = 1j * D[..., None, None] * u.coeffs - (v.coeffs - f.coeffs)
    res_v[N, N] = res_u[N, N] = 0.0  # zero modes carry the free constants
    coeff_res = max(float(np.max(np.abs(res_v))), float(np.max(np.abs(res_u))))

    elapsed = time.perf_counter() - t0
    ok = gap_u < 1e-10 and gap_v < 1e-10 and coeff_res < 1e-13 and elapsed < 1.0
    _report(capsys, 1, ok, f"homological solve vs dense collocation: rel gap "
                   f"{max(gap_u, gap_v):.2e} <= 1e-10, coefficient residual "
                   f"{coeff_res:.2e} <= 1e-13  ({elapsed:.2f}s < 1s)")
    assert gap_u < 1e-10 and gap_v < 1e-10
    assert coeff_res < 1e-13
    assert elapsed < 1.0


def test_criterion_02_parity_suite(capsys, rng, golden):
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0

    # smoothing and decomposition keep declared parities
    for i in range(45):
        parity = "even" if i % 2 == 0 else "odd"
        N = int(rng.integers(5, 11))
        field = random_parity_field(rng, parity, N=N,
                                    q_y=int(rng.integers(0, 3)))
        s = float(rng.uniform(0.1, 0.9))
        worst = max(worst, grid_parity_residual(smoothing.smooth(field, s)))
        for piece in smoothing.decompose(field, (0.6, 0.3, 0.15)):
            worst = max(worst, grid_parity_residual(piece, parity=parity))
        cases += 1

    # homological solutions flip to (u odd, v even)
    for _ in range(45):
        N = int(rng.integers(4, 9))
        fg = stack_components(*random_reversible_pair(rng, d=1, N=N,
                                                      q_y=int(rng.integers(0, 3))))
        u, v = halves(homological.solve_flow(fg, golden).uv)
        worst = max(worst, grid_parity_residual(u, parity="odd"),
                    grid_parity_residual(v, parity="even"))
        cases += 1

    # carried perturbations of a Newton step stay (f even, g odd)
    sched = newton.make_schedule(1, 0.1, 1e-3, 2)
    for _ in range(10):
        fg = stack_components(*random_reversible_pair(rng, d=1, N=4, q_y=2,
                                                      r=sched.r[0], amp=1e-5))
        _, fg_next, _ = newton.newton_step(fg, golden, sched, 0)
        # (u, v) from the same solve the step makes
        u, v = halves(homological.solve_flow(fg, golden).uv)
        f_next, g_next = halves(fg_next)
        worst = max(worst, grid_parity_residual(f_next, parity="even"),
                    grid_parity_residual(g_next, parity="odd"),
                    grid_parity_residual(u, parity="odd"),
                    grid_parity_residual(v, parity="even"))
        cases += 1

    elapsed = time.perf_counter() - t0
    ok = cases == 100 and worst < 1e-10 and elapsed < 30.0
    _report(capsys, 2, ok, f"parity suite: {cases} randomized cases, worst grid "
                   f"residual {worst:.2e} <= 1e-10  ({elapsed:.1f}s < 30s)")
    assert cases == 100
    assert worst < 1e-10
    assert elapsed < 30.0


def test_criterion_03_russmann_scaling(capsys):
    t0 = time.perf_counter()
    freq = diophantine.certify([GOLDEN], tau=1.01, K_max=2000)
    n_values = 2 ** np.arange(4, 11)  # 16 .. 1024
    sums = np.array([diophantine.russmann_sum(freq, int(n))
                     for n in n_values])
    exponent = float(np.polyfit(np.log(n_values), np.log(sums), 1)[0])
    elapsed = time.perf_counter() - t0
    bound = 2 * 1.01 + 0.2
    ok = 0.0 <= exponent <= bound and elapsed < 10.0
    _report(capsys, 3, ok, f"divisor-sum growth exponent {exponent:.3f} in "
                   f"[0, {bound:.2f}]  ({elapsed:.1f}s < 10s)")
    assert 0.0 <= exponent <= bound
    assert elapsed < 10.0


def test_criterion_04_smoothing_rates(capsys):
    t0 = time.perf_counter()
    scales = np.geomspace(0.5, 0.05, 6)
    gaps = {}
    for ell_star in (2.5, 3.1, 4.0):
        field = smoothing.synthetic_rough_field(ell_star, N=512, seed=3)
        errs = [(field - smoothing.smooth(field, float(s))).sup_norm()
                for s in scales]
        rate = float(np.polyfit(np.log(scales), np.log(errs), 1)[0])
        gaps[ell_star] = abs(rate - ell_star) / ell_star
    elapsed = time.perf_counter() - t0
    worst = max(gaps.values())
    ok = worst <= 0.25 and elapsed < 30.0
    detail = ", ".join(f"l*={l}: gap {g:.0%}" for l, g in gaps.items())
    _report(capsys, 4, ok, f"smoothing error rates within 25% ({detail})  "
                   f"({elapsed:.1f}s < 30s)")
    assert worst <= 0.25
    assert elapsed < 30.0


def test_criterion_05_flow_iteration(capsys, flow_m5):
    report, sched, elapsed = flow_m5
    maj = report.majorant_sequence()
    monotone = bool(np.all(np.diff(maj) < 0))
    order = report.fitted_order()
    order_floor = 1.0 + sched.mu_tilde / 2.0
    inv = report.invariance_residual
    ok = (not report.failed and report.steps_completed >= 5 and monotone
          and order >= order_floor and inv <= 1e-8 and elapsed < 300.0)
    _report(capsys, 5, ok, f"flow iteration: {report.steps_completed} steps, "
                   f"majorants monotone={monotone}, order {order:.4f} >= "
                   f"{order_floor:.6f}, invariance {inv:.2e} <= 1e-8  "
                   f"({elapsed:.0f}s < 300s)")
    assert not report.failed
    assert report.steps_completed >= 5
    assert monotone
    assert order >= order_floor
    assert inv <= 1e-8
    assert elapsed < 300.0


def test_criterion_06_map_iteration(capsys, map_m5):
    report, mapping, elapsed = map_m5
    inv = report.invariance_residual
    t0 = time.perf_counter()
    z0 = report.embedding.evaluate(0.0)
    rot = newton.rotation_number(mapping.A, z0)
    rot_err = abs(rot - GOLDEN)
    elapsed += time.perf_counter() - t0
    ok = (not report.failed and inv <= 1e-8 and rot_err <= 1e-8
          and elapsed < 300.0)
    _report(capsys, 6, ok, f"map iteration: invariance {inv:.2e} <= 1e-8, rotation "
                   f"number error {rot_err:.2e} <= 1e-8  "
                   f"({elapsed:.0f}s < 300s)")
    assert not report.failed
    assert inv <= 1e-8
    assert rot_err <= 1e-8
    assert elapsed < 300.0


def test_criterion_07_reference_orbits(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        orbit = lienard.compute_reference_orbit(n)
        worst = max(worst, orbit.energy_residual(),
                    orbit.symmetry_defect, orbit.closure_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(capsys, 7, ok, f"reference orbits n=1,2,3: worst residual {worst:.2e} "
                   f"<= 1e-10  ({elapsed:.1f}s < 10s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_08_chain_rule(capsys):
    t0 = time.perf_counter()
    problem = lienard.make_problem(1, "rational_cubic", f_amp=0.05,
                                   g_amp=0.05)
    system = lienard.action_angle(problem)
    residual = lienard.chain_rule_residual(system, samples=1000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = residual <= 1e-8 and elapsed < 30.0
    _report(capsys, 8, ok, f"coordinate-change consistency on 1000 points: relative "
                   f"residual {residual:.2e} <= 1e-8  ({elapsed:.1f}s < 30s)")
    assert residual <= 1e-8
    assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_09_poincare_and_stability(capsys):
    t0 = time.perf_counter()
    problem = lienard.make_problem(1, "rational_cubic", f_amp=0.05,
                                   g_amp=0.05)
    system = lienard.action_angle(problem)
    rev = lienard.poincare_reversibility_residual(system)

    orbit = lienard.compute_reference_orbit(1)
    perturbed = lienard.lagrange_stability_experiment(
        problem, t_max=1e4, orbit=orbit, order=4)
    control = lienard.lagrange_stability_experiment(
        lienard.make_problem(1, "none"), t_max=1e4, orbit=orbit, order=6)
    drift = max(r["energy_drift"] for r in control.rows)
    elapsed = time.perf_counter() - t0

    n_orbits = len(perturbed.rows)
    ok = (rev <= 1e-9 and n_orbits == 20 and perturbed.stable
          and perturbed.max_ratio <= 1.5 and drift <= 1e-6
          and elapsed < 600.0)
    _report(capsys, 9, ok, f"section reversibility {rev:.2e} <= 1e-9; stability over "
                   f"t=1e4: {n_orbits} orbits, max ratio "
                   f"{perturbed.max_ratio:.3f} <= 1.5, control energy drift "
                   f"{drift:.2e} <= 1e-6  ({elapsed:.0f}s < 600s)")
    assert rev <= 1e-9
    assert n_orbits == 20
    assert perturbed.stable and perturbed.max_ratio <= 1.5
    assert drift <= 1e-6
    assert elapsed < 600.0


def test_criterion_10_determinism(capsys, tmp_path):
    argv = ["kam", "run", "--set", "M=2", "--set", "eps0=1e-3"]
    for sub in ("first", "second"):
        assert cli_main(argv + ["--out", str(tmp_path / sub)]) == 0
    identical = True
    for name in ("manifest.json", "embedding.json", "convergence.csv"):
        a = (tmp_path / "first" / "kam-flow" / name).read_bytes()
        b = (tmp_path / "second" / "kam-flow" / name).read_bytes()
        identical = identical and a == b
    _report(capsys, 10, identical, "repeated runs from one configuration produce "
                           "byte-identical manifest, embedding and table")
    assert identical
