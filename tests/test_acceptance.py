"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np
from harmonicdisk.geometry import EvaluationGrid, PolarRectangle
from harmonicdisk.heatlab import (
    BoundaryCondition,
    HeatProblem,
    conjecture_run,
    radial_dirichlet_exact,
    solve_steady_state,
)
from harmonicdisk.kernels import q_kernel
from harmonicdisk.quadrature import QuadratureSpec, integrate_polar
from harmonicdisk.sources import (
    AbsPhi,
    AngularCos,
    AngularOne,
    AngularSin,
    CharacteristicDisk,
    CharacteristicRect,
    GaussianBump,
    OnArc,
    RhoPower,
    SeparableOnRect,
    SourceSum,
    catalog_q_sources,
    figure_case,
)
from harmonicdisk.transforms import (
    CallableSource,
    analytic_rep,
    bergman_project,
    harmonic_rep,
    poisson_integral,
    poisson_point,
    q_point,
    q_transform,
)
from harmonicdisk.verify import NormSpec, laplacian_residual, norm_report

PI = math.pi
DISK = PolarRectangle.full_disk()


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_q_normalization():
    """(1/pi) iint Q(r rho, theta - phi) rho = 1 within 1e-6 at 25 points,
    each integral within 5 s."""
    spec = QuadratureSpec()
    worst = 0.0
    slowest = 0.0
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        for theta in (-2.5, -1.2, 0.0, 1.2, 2.5):
            t0 = time.time()
            res = integrate_polar(
                lambda rho, phi, r=r, theta=theta: q_kernel(r * rho, theta - phi) / PI,
                DISK,
                spec,
            )
            slowest = max(slowest, time.time() - t0)
            worst = max(worst, abs(res.value - 1.0))
    ok = worst <= 1e-6 and slowest <= 5.0
    report(1, ok, f"max |identity - 1| = {worst:.2e} (<= 1e-6), "
                  f"slowest integral {slowest:.2f}s (<= 5s)")


def test_criterion_02_reproducing_suite():
    """Self-reproduction of r^n cos/sin(n theta) for n <= 8 to 1e-6 on
    r <= 0.8, in under 5 minutes."""
    t0 = time.time()
    grid = EvaluationGrid.regular(n_r=5, n_theta=12, r_max=0.8)
    spec = QuadratureSpec()
    worst = 0.0
    for n in range(1, 9):
        for trig in (np.cos, np.sin):
            fld = harmonic_rep(
                lambda rho, phi, n=n, trig=trig: rho**n * trig(n * phi), 0.0, grid, spec
            )
            expected = grid.radii[:, None] ** n * trig(n * grid.angles[None, :])
            worst = max(worst, float(np.max(np.abs(fld.values - expected))))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 300.0
    report(2, ok, f"max grid error {worst:.2e} (<= 1e-6) over n <= 8, "
                  f"total {elapsed:.0f}s (<= 300s)")


def test_criterion_03_plateau_of_disk_indicator():
    """Transform of the r <= 1/4 disk indicator: constant field pi/16
    (0.19635) within 1e-3.  The derived value governs."""
    grid = EvaluationGrid.regular(n_r=20, n_theta=64, r_max=0.9)
    fld = q_transform(CharacteristicDisk(0.25), grid, 1.0, QuadratureSpec())
    spread = float(np.max(fld.values) - np.min(fld.values))
    offset = float(np.max(np.abs(fld.values - PI / 16.0)))
    ok = spread <= 1e-3 and offset <= 1e-3
    report(3, ok, f"spread {spread:.2e} (<= 1e-3), |field - pi/16| {offset:.2e} "
                  f"(<= 1e-3); pi/16 = {PI/16:.5f}")


def test_criterion_04_two_rectangle_peaks():
    """Grid maxima of the single-rectangle transform and the two-rectangle
    sum within +-20% of 0.17 and 0.5."""
    grid = EvaluationGrid.regular()  # default 40 x 128, r_max 0.9
    spec = QuadratureSpec()
    rect_only = q_transform(
        CharacteristicRect(PolarRectangle(0.25, 0.5, 0.0, PI / 4)), grid, 1.0, spec
    )
    case5 = figure_case(5)
    summed = q_transform(case5.source, grid, case5.prefactor, spec)
    m1 = float(np.max(rect_only.values))
    m2 = float(np.max(summed.values))
    ok = 0.8 * 0.17 <= m1 <= 1.2 * 0.17 and 0.8 * 0.5 <= m2 <= 1.2 * 0.5
    report(4, ok, f"single-rectangle max {m1:.4f} (0.17 +-20%), "
                  f"sum max {m2:.4f} (0.5 +-20%)")


def test_criterion_05_boundary_integral_identities():
    """cos data reproduces r cos(theta) to 1e-9; the arc indicator gives
    1/6 at the origin to 1e-9 and exceeds 0.9 at (0.99, 0)."""
    spec = QuadratureSpec(adaptive_tol=1e-12)
    grid = EvaluationGrid.regular(n_r=5, n_theta=16, r_max=0.9)
    fld = poisson_integral(OnArc(AngularCos(1)), grid, spec)
    expected = grid.radii[:, None] * np.cos(grid.angles[None, :])
    cos_err = float(np.max(np.abs(fld.values - expected)))

    arc = OnArc(AngularOne(), -PI / 6, PI / 6)
    at_origin, _, _ = poisson_point(arc, 0.0, 0.4, spec)
    origin_err = abs(at_origin - 1.0 / 6.0)
    near_boundary, _, _ = poisson_point(arc, 0.99, 0.0, spec, allow_near_boundary=True)

    ok = cos_err <= 1e-9 and origin_err <= 1e-9 and near_boundary > 0.9
    report(5, ok, f"cos identity err {cos_err:.2e} (<= 1e-9), origin err "
                  f"{origin_err:.2e} (<= 1e-9), value at (0.99, 0) = "
                  f"{near_boundary:.4f} (> 0.9)")


def _circular_distance_to_arc(theta, arc):
    lo, hi = arc
    if lo <= theta <= hi:
        return 0.0
    d_lo = abs(theta - lo)
    d_hi = abs(theta - hi)
    return min(d_lo, 2 * PI - d_lo, d_hi, 2 * PI - d_hi)


# angular regions carrying the source mass, used to pick far-field points
_COMPARISON_ARCS = {
    11: [(5 * PI / 6, PI), (-PI, -5 * PI / 6)],
    12: [(-PI / 6, PI / 6)],
    13: [(0.0, PI)],
}


def test_criterion_06_half_ratio_pattern():
    """Away from the source arc (angular distance > pi/3, r in [0.2, 0.7])
    the transform-to-boundary-integral ratio lies in [0.35, 0.65] at >= 80%
    of sampled points.  Reproduces a qualitative claim; report with
    threshold."""
    spec = QuadratureSpec()
    radii = (0.2, 0.37, 0.53, 0.7)
    angles = np.linspace(-PI, PI, 24, endpoint=False)
    total_in, total_pts = 0, 0
    details = []
    for fig_id, arcs in _COMPARISON_ARCS.items():
        case = figure_case(fig_id)
        in_window, n_pts = 0, 0
        for r in radii:
            for theta in angles:
                if min(_circular_distance_to_arc(float(theta), a) for a in arcs) <= PI / 3:
                    continue
                q_val, _, _ = q_point(case.source, r, float(theta), case.prefactor, spec)
                p_val, _, _ = poisson_point(case.boundary, r, float(theta), spec)
                n_pts += 1
                if abs(p_val) > 1e-12 and 0.35 <= q_val / p_val <= 0.65:
                    in_window += 1
        details.append(f"fig{fig_id}: {in_window}/{n_pts}")
        total_in += in_window
        total_pts += n_pts
    fraction = total_in / total_pts
    ok = fraction >= 0.8
    report(6, ok, f"ratio in [0.35, 0.65] at {100*fraction:.0f}% of far-field "
                  f"points (>= 80%); {', '.join(details)}")


def test_criterion_07_harmonicity_of_all_transforms():
    """Normalized discrete-Laplacian residual <= 1e-3 on the annulus
    [0.1, 0.8] for every catalog source, including the singular ones."""
    spec = QuadratureSpec(adaptive_tol=1e-11)
    h = 7e-4
    worst_by_fig = {}
    for fig_id, case in sorted(catalog_q_sources().items()):
        def u(rr, tt, case=case):
            rr2, tt2 = np.broadcast_arrays(np.asarray(rr, float), np.asarray(tt, float))
            out = np.empty(rr2.shape)
            for idx in np.ndindex(rr2.shape):
                out[idx] = q_point(case.source, float(rr2[idx]), float(tt2[idx]),
                                   case.prefactor, spec)[0]
            return out

        rep = laplacian_residual(u, (0.1, 0.8), (h, h), n_r=4, n_theta=8)
        worst_by_fig[fig_id] = rep.normalized_max_residual
    worst = max(worst_by_fig.values())
    worst_fig = max(worst_by_fig, key=worst_by_fig.get)
    ok = worst <= 1e-3
    report(7, ok, f"worst normalized residual {worst:.2e} (<= 1e-3, fig "
                  f"{worst_fig}); all figures: "
                  + ", ".join(f"{k}:{v:.1e}" for k, v in sorted(worst_by_fig.items())))


def _random_catalog_shaped_source(rng):
    def rand_rect():
        r_lo = rng.uniform(0.0, 0.7)
        r_hi = rng.uniform(r_lo + 0.1, min(r_lo + 0.6, 0.95))
        t_lo = rng.uniform(-PI, PI - 0.3)
        t_hi = rng.uniform(t_lo + 0.2, PI)
        return PolarRectangle(r_lo, r_hi, t_lo, t_hi)

    def atom():
        if rng.integers(0, 2) == 0:
            return CharacteristicRect(rand_rect())
        radial = (
            RhoPower(int(rng.integers(0, 4)))
            if rng.integers(0, 2) == 0
            else GaussianBump(rng.uniform(0.5, 5.0), rng.uniform(0.2, 0.8),
                              rng.uniform(2.0, 20.0))
        )
        angular = (AngularCos(int(rng.integers(0, 4))), AngularSin(int(rng.integers(1, 4))),
                   AbsPhi(), AngularOne())[rng.integers(0, 4)]
        return SeparableOnRect(radial, angular, rand_rect())

    if rng.integers(0, 3) < 2:
        return atom()
    return SourceSum(((rng.uniform(-2, 2), atom()), (rng.uniform(-2, 2), atom())))


def _harmonic_continuation(ring_field):
    """The harmonic function with the samples of a one-ring field on that
    ring: its rFFT coefficients c_k continued as c_k (rho/r)^k e^{ik(phi - theta_0)}."""
    n = ring_field.grid.n_theta
    coeffs = np.fft.rfft(ring_field.values[0]) / n
    coeffs[1:(n + 1) // 2] *= 2.0  # rfft keeps one of each +-k pair; k = 0 and Nyquist are single
    k = np.arange(coeffs.size)
    r, theta0 = float(ring_field.grid.radii[0]), float(ring_field.grid.angles[0])
    return CallableSource(lambda rho, phi: (
        coeffs * (np.asarray(rho)[..., None] / r) ** k
        * np.exp(1j * k * (np.asarray(phi)[..., None] - theta0))).real.sum(axis=-1))


def test_criterion_08_projection_contraction_and_idempotence():
    """||P f|| <= ||f|| (1 + 1e-6) for 20 randomized sources; projection
    idempotence within 5e-3.  The raw transform's norm ratio is reported,
    not asserted."""
    rng = np.random.default_rng(20240601)
    spec = QuadratureSpec()
    grid = EvaluationGrid.regular(n_r=16, n_theta=48, r_max=0.95)
    worst_ratio = 0.0
    raw_ratios = []
    for i in range(20):
        src = _random_catalog_shaped_source(rng)
        f_norm = norm_report(src, NormSpec("harmonic_bergman_l2",
                                           truncation_radius=0.999)).value
        fld = bergman_project(src, grid, spec)
        p_norm = norm_report(fld, NormSpec("harmonic_bergman_l2",
                                           truncation_radius=0.95)).value
        worst_ratio = max(worst_ratio, p_norm / f_norm)
        if i < 2:  # report-only: norm ratio of the raw (prefactor 1) transform
            raw = q_transform(src, grid, 1.0, spec)
            raw_ratios.append(
                norm_report(raw, NormSpec("harmonic_bergman_l2",
                                          truncation_radius=0.95)).value / f_norm
            )
    contraction_ok = worst_ratio <= 1.0 + 1e-6

    # P(P f) = P f: Pf is harmonic, so the harmonic continuation of one
    # ring of it is Pf on the whole disk, and projecting that again must
    # give Pf back
    worst_idem = 0.0
    ring = EvaluationGrid.regular(n_r=1, n_theta=96, r_min=0.95, r_max=0.95)
    probe = EvaluationGrid.regular(n_r=3, n_theta=6, r_min=0.2, r_max=0.8)
    loose = QuadratureSpec(adaptive_tol=1e-4, max_depth=9)
    for fig_id in (4, 5, 15):
        source = figure_case(fig_id).source
        pf = _harmonic_continuation(bergman_project(source, ring, spec))
        twice = bergman_project(pf, probe, loose).values
        once = bergman_project(source, probe, spec).values
        worst_idem = max(worst_idem, float(np.max(np.abs(twice - once))))
    idem_ok = worst_idem <= 5e-3

    ok = contraction_ok and idem_ok
    report(8, ok, f"worst ||Pf||/||f|| = {worst_ratio:.4f} (<= 1 + 1e-6), "
                  f"idempotence err {worst_idem:.2e} (<= 5e-3); raw transform "
                  f"norm ratios (reported only): "
                  + ", ".join(f"{v:.3f}" for v in raw_ratios))


def test_criterion_09_analytic_representation():
    """Monomials z^n, n <= 5, reproduced at 10 interior points for
    alpha in {0, 1, 2.5} within 1e-7."""
    spec = QuadratureSpec()
    points = [
        0.1 + 0.0j, -0.3 + 0.1j, 0.2 - 0.4j, 0.5 + 0.3j, -0.6 - 0.2j,
        0.7 + 0.0j, 0.0 + 0.8j, -0.45 + 0.45j, 0.25 + 0.6j, -0.1 - 0.75j,
    ]
    worst = 0.0
    for alpha in (0.0, 1.0, 2.5):
        for n in range(6):
            coeffs = [0.0] * n + [1.0]
            for z in points:
                value = analytic_rep(coeffs, alpha, z, spec)
                worst = max(worst, abs(value - z**n))
    ok = worst <= 1e-7
    report(9, ok, f"max |representation - z^n| = {worst:.2e} (<= 1e-7) over "
                  f"n <= 5, alpha in {{0, 1, 2.5}}, 10 points")


def test_criterion_10_heat_solver_and_conjecture_reports():
    """Unit-source equilibrium matches (1-r^2)/4 within 1e-3 at 128x256
    with observed second-order convergence; the comparison harness yields
    complete reports for the figure-4 and figure-15 sources under both
    boundary conditions.  The physical claim itself is not judged."""
    unit = CharacteristicDisk(1.0)
    dirichlet = BoundaryCondition("dirichlet_zero")
    errs = {}
    for n in (64, 128):
        fld = solve_steady_state(HeatProblem(unit, 1.0, dirichlet, n, 2 * n))
        exact = radial_dirichlet_exact(fld.grid.radii)[:, None]
        errs[n] = float(np.max(np.abs(fld.values - exact)))
    order_ratio = errs[64] / errs[128]
    solver_ok = errs[128] <= 1e-3 and order_ratio >= 3.5

    lines = []
    reports_ok = True
    for fig_id in (4, 15):
        source = figure_case(fig_id).source
        for boundary in (dirichlet, BoundaryCondition("robin", 1.0)):
            rep = conjecture_run(source, boundary, mesh=(64, 128),
                                 comparison_grid=(8, 16))[0]
            complete = (
                math.isfinite(rep.scale_factor)
                and math.isfinite(rep.residual_rms)
                and (math.isfinite(rep.correlation) or rep.degenerate
                     or math.isnan(rep.correlation))
                and rep.n_points > 0
            )
            reports_ok = reports_ok and complete
            lines.append(
                f"fig{fig_id}/{rep.boundary_condition}: corr={rep.correlation:.3f} "
                f"scale={rep.scale_factor:.3f} rms={rep.residual_rms:.2e}"
            )
    ok = solver_ok and reports_ok
    report(10, ok, f"solver err {errs[128]:.2e} (<= 1e-3), order ratio "
                   f"{order_ratio:.2f} (>= 3.5); harness reports (evidence, "
                   f"not judgment): " + "; ".join(lines))
