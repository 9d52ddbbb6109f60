import json
import math

import numpy as np
import pytest

from harmonicdisk.errors import DomainError, IncompatibleKindError, StencilOutOfRangeError
from harmonicdisk.geometry import EvaluationGrid, PolarRectangle
from harmonicdisk.kernels import q_kernel
from harmonicdisk.quadrature import QuadratureSpec
from harmonicdisk.sources import (
    AbsLogAbsPhi,
    AbsPhi,
    AngularOne,
    BoundarySum,
    OnArc,
    SourceSum,
    _indicator,
    figure_case,
)
from harmonicdisk.transforms import Field, poisson_integral, poisson_point, q_point
from harmonicdisk import verify
from harmonicdisk.verify import (
    NormSpec,
    SuiteConfig,
    circle_integral_of_square,
    laplacian_residual,
    norm,
    norm_report,
    run_invariant_suite,
)

PI = math.pi
UNIT = _indicator(PolarRectangle.full_disk())  # the constant one on the disk


class TestLaplacianResidual:
    def test_exact_harmonic_is_small(self):
        # theta truncation of this harmonic is exactly (4/3) h^2 cos(2t),
        # so the max residual at h = 1e-3 sits at 1.34e-6
        u = lambda r, t: r**2 * np.cos(2 * t)
        report = laplacian_residual(u, (0.1, 0.8), (1e-3, 1e-3))
        assert report.max_abs_residual < 2e-6
        finer = laplacian_residual(u, (0.1, 0.8), (5e-4, 5e-4))
        assert finer.max_abs_residual < 5e-7

    def test_non_harmonic_r_squared(self):
        # polar Laplacian of r^2 is 4; the second-order stencil is exact
        # on quadratics, so the raw residual sits at 4 for any h
        u = lambda r, t: r**2 * np.ones(np.broadcast_shapes(np.shape(r), np.shape(t)))
        report = laplacian_residual(u, (0.1, 0.8), (1e-3, 1e-3))
        assert np.max(np.abs(report.residual_grid - 4.0)) < 1e-6

    def test_second_order_convergence(self):
        u = lambda r, t: r**5 * np.cos(5 * t)
        coarse = laplacian_residual(u, (0.2, 0.8), (0.02, 0.02)).max_abs_residual
        fine = laplacian_residual(u, (0.2, 0.8), (0.01, 0.01)).max_abs_residual
        assert 3.5 <= coarse / fine <= 4.5

    def test_stencil_range_guard(self):
        u = lambda r, t: r * np.cos(t)
        with pytest.raises(StencilOutOfRangeError):
            laplacian_residual(u, (0.01, 0.8), (0.02, 0.02))

    def test_field_mode(self):
        grid = EvaluationGrid.regular(n_r=81, n_theta=256, r_max=0.9)
        values = grid.radii[:, None] ** 3 * np.cos(3 * grid.angles[None, :])
        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=np.zeros_like(values))
        report = laplacian_residual(fld, (0.1, 0.8))
        assert report.normalized_max_residual < 1e-2
        with pytest.raises(DomainError):
            laplacian_residual(fld, (0.1, 0.8), spacings=(0.01, 0.01))

    @pytest.mark.parametrize("radii, n_theta", [([0.5], 16), ([0.2, 0.4, 0.6], 1)])
    def test_field_too_small_for_the_stencil(self, radii, n_theta):
        # one radius has no radial neighbours, one angle no angular one
        grid = EvaluationGrid(radii, n_theta)
        values = np.zeros(grid.shape)
        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=values)
        with pytest.raises(StencilOutOfRangeError):
            laplacian_residual(fld, (0.1, 0.8))

    def test_transform_output_is_harmonic(self):
        # figure-5 source: the transform output must be harmonic inside
        case = figure_case(5)
        spec = QuadratureSpec(adaptive_tol=1e-11)

        def u(rr, tt):
            rr2, tt2 = np.broadcast_arrays(np.asarray(rr, float), np.asarray(tt, float))
            out = np.empty(rr2.shape)
            for idx in np.ndindex(rr2.shape):
                out[idx] = q_point(case.source, float(rr2[idx]), float(tt2[idx]),
                                   case.prefactor, spec)[0]
            return out

        report = laplacian_residual(u, (0.1, 0.8), (4e-3, 4e-3), n_r=3, n_theta=6)
        assert report.normalized_max_residual < 1e-3


class TestNorms:
    def test_constant_harmonic_l2(self):
        value = norm(UNIT,
                     NormSpec("harmonic_bergman_l2", truncation_radius=0.999))
        assert value == pytest.approx(math.sqrt(PI), abs=2e-3)

    def test_weighted_constant(self):
        value = norm(UNIT, NormSpec("bergman_weighted", p=2.0, alpha=1.0))
        assert value == pytest.approx(math.sqrt(PI / 3.0), abs=2e-3)

    def test_circle_l2_arc(self):
        value = norm(OnArc(AngularOne(), -PI / 6, PI / 6), NormSpec("circle_l2"))
        assert value == pytest.approx(math.sqrt(PI / 3.0), abs=1e-10)

    def test_circle_l2_log_arc(self):
        # ln^2 phi over [0, pi] is pi (ln^2 pi - 2 ln pi + 2); the log end is graded
        log_pi = math.log(PI)
        value = norm(OnArc(AbsLogAbsPhi(), 0.0, PI), NormSpec("circle_l2"))
        assert value == pytest.approx(math.sqrt(PI * (log_pi**2 - 2.0 * log_pi + 2.0)),
                                      abs=1e-14)

    def test_circle_l2_of_a_sum_squares_overlapping_arcs_together(self):
        arc = OnArc(AngularOne(), -1.0, 1.0)
        assert norm(BoundarySum(((1.0, arc), (-1.0, arc))), NormSpec("circle_l2")) == 0.0
        value = norm(BoundarySum(((1.0, arc), (1.0, arc))), NormSpec("circle_l2"))
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)
        # partial overlap: (1 + |theta|)^2 on [-1, 1], theta^2 on the rest
        value = norm(BoundarySum(((1.0, arc), (1.0, OnArc(AbsPhi())))), NormSpec("circle_l2"))
        assert value == pytest.approx(math.sqrt((12.0 + 2.0 * PI**3) / 3.0), abs=1e-13)

    def test_circle_l2_of_a_sum_grades_the_shared_log_end(self):
        # (|ln theta| + 2)^2 on [0, 1/2], ln^2 theta on [1/2, pi]
        log_pi = math.log(PI)
        f = BoundarySum(((1.0, OnArc(AbsLogAbsPhi(), 0.0, PI)),
                         (2.0, OnArc(AngularOne(), 0.0, 0.5))))
        exact = (PI * (log_pi**2 - 2.0 * log_pi + 2.0)
                 + 4.0 * (0.5 + 0.5 * math.log(2.0)) + 2.0)
        assert norm(f, NormSpec("circle_l2")) == pytest.approx(math.sqrt(exact), abs=1e-13)

    def test_incompatible_kinds(self):
        with pytest.raises(IncompatibleKindError):
            norm(_indicator(PolarRectangle(0.0, 0.5, -PI, PI)), NormSpec("circle_l2"))
        with pytest.raises(IncompatibleKindError):
            norm(OnArc(AngularOne(), 0.0, 1.0), NormSpec("harmonic_bergman_l2"))
        with pytest.raises(IncompatibleKindError):
            NormSpec("no_such_kind")

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            NormSpec("bergman_weighted", p=0.5)
        for alpha in (-1.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                NormSpec("bergman_weighted", alpha=alpha)
        with pytest.raises(DomainError):
            NormSpec("bergman_weighted", truncation_radius=1.0)

    def test_alpha_monotonicity(self):
        source = figure_case(4).source
        values = [norm(source, NormSpec("bergman_weighted", 2.0, alpha))
                  for alpha in (0.0, 0.5, 1.0, 2.0)]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))

    def test_field_norm_matches_source_norm(self):
        # constant field vs constant source
        grid = EvaluationGrid.regular(n_r=40, n_theta=64, r_max=0.9)
        values = np.ones(grid.shape)
        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=np.zeros_like(values))
        val = norm(fld, NormSpec("harmonic_bergman_l2", truncation_radius=0.9))
        assert val == pytest.approx(math.sqrt(PI) * 0.9, rel=1e-3)

    def test_tail_bound_reported(self):
        report = norm_report(UNIT, NormSpec("harmonic_bergman_l2"))
        assert report.tail_bound > 0.0
        assert report.truncation_radius == 0.999

    def test_log_cell_is_graded_towards_its_log_end(self):
        # figure 14's source rho |ln phi| on [0.9, 1] x [0, pi], truncated at
        # 0.999: the integral of rho^3 ln^2 phi factors into closed forms
        log_pi = math.log(PI)
        exact = math.sqrt((0.999**4 - 0.9**4) / 4.0
                          * PI * (log_pi**2 - 2.0 * log_pi + 2.0))
        value = norm(figure_case(14).source, NormSpec("harmonic_bergman_l2"))
        assert value == pytest.approx(exact, rel=1e-12)

    def test_rect_outside_canonical_angle_window(self):
        # PolarRectangle allows angle windows beyond [-pi, pi]; the norm
        # partition must still cover them
        rect = _indicator(PolarRectangle(0.2, 0.6, 3.0, 3.5))
        value = norm(rect, NormSpec("harmonic_bergman_l2"))
        exact = math.sqrt(0.5 * (0.36 - 0.04) * 0.5)
        assert value == pytest.approx(exact, abs=1e-10)


class TestHardy:
    def test_poisson_extension_bounded_and_monotone(self):
        arc = OnArc(AngularOne(), -PI / 6, PI / 6)
        spec = QuadratureSpec(adaptive_tol=1e-10)
        radii = np.array([0.0, 0.25, 0.5, 0.75, 0.9, 0.95])
        extension = poisson_integral(arc, EvaluationGrid(radii, verify.HARDY_ANGLES), spec)
        integrals = verify._ring_integrals_of_square(extension)
        # the rectangle rule on the grid rings against the adaptive rule
        # over point values
        for i in (0, 2, 5):
            reference = circle_integral_of_square(
                lambda t, r=float(radii[i]): np.array(
                    [poisson_point(arc, r, float(ti), spec)[0] for ti in np.atleast_1d(t)]
                ),
                spec,
            )
            assert abs(integrals[i] - reference) <= 1e-12
        # non-decreasing towards the boundary, bounded by the boundary integral
        assert np.all(np.diff(integrals) >= -1e-8)
        boundary_sq = norm(arc, NormSpec("circle_l2")) ** 2
        assert max(integrals) <= boundary_sq + 1e-6

    def test_hardy_norm_of_field(self):
        grid = EvaluationGrid.regular(n_r=5, n_theta=64, r_max=0.8)
        values = np.broadcast_to(np.cos(grid.angles)[None, :], grid.shape).copy()
        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=np.zeros_like(values))
        assert norm(fld, NormSpec("hardy_sup")) == pytest.approx(PI, rel=1e-10)
        with pytest.raises(DomainError):
            norm_report(fld, NormSpec("hardy_sup"), radii=[0.5])


class TestIndicatorClosedForm:
    """The exact reference of the quadrature.oracle_agreement invariant: the
    closed-form area transform of polar-rectangle indicators."""

    def test_q_normalization(self):
        # four rectangles tile the disk, so (1/pi) iint Q = 1 at every point,
        # although each edge's term depends on the point
        quarters = SourceSum(tuple((1.0, _indicator(PolarRectangle(*rect))) for rect in (
            (0.0, 0.5, -PI, 0.0), (0.0, 0.5, 0.0, PI), (0.5, 1.0, -PI, 1.0), (0.5, 1.0, 1.0, PI))))
        for r, theta in ((0.0, 0.0), (0.2, 3.0), (0.7, 1.2), (0.99, -0.4), (0.999, 1.0)):
            assert verify._indicator_q(quarters, r, theta) == pytest.approx(PI, abs=1e-13)

    def test_agreement_with_adaptive_on_catalog_integrands(self):
        # r = 0.0225 takes the series branch for every edge
        spec = QuadratureSpec(adaptive_tol=1e-13)
        for fig_id in (4, 5, 9):
            case = figure_case(fig_id)
            for r in (0.0225, 0.1, 0.6, 0.9, 0.99, 0.999):
                for theta in (-2.5, 0.0, 0.3, 2.9):
                    value, err, converged = q_point(case.source, r, theta, case.prefactor, spec,
                                                    allow_near_boundary=True)
                    exact = case.prefactor * verify._indicator_q(case.source, r, theta)
                    assert converged
                    assert abs(value - exact) <= err + 1e-13 * max(1.0, abs(exact))

    def test_rejects_pieces_other_than_indicators(self):
        # a radial weight (fig 6) and a Gaussian times a cosine (fig 15)
        for fig_id in (6, 15):
            with pytest.raises(DomainError):
                verify._indicator_q(figure_case(fig_id).source, 0.5, 0.0)

    def test_invariant_resolves_a_gap_of_1e_10(self, monkeypatch):
        # the midpoint rule it replaced resolved nothing below 1e-6
        real = verify._indicator_q
        monkeypatch.setattr(verify, "_indicator_q", lambda *args: real(*args) + 1e-10)
        report = run_invariant_suite(SuiteConfig(include_heat=False))
        assert not {r.id: r for r in report.records}["quadrature.oracle_agreement"].passed


# (id, threshold, comparator, note) of every record of the default suite, in order
SUITE_SHAPE = [
    ("kernels.poisson.evenness", 1e-12, "<=", ""),
    ("kernels.q.evenness", 1e-12, "<=", ""),
    ("kernels.poisson.periodicity", 1e-10, "<=", "relative"),
    ("kernels.q.periodicity", 1e-10, "<=", "relative"),
    ("kernels.poisson.positivity", 0.0, ">=", "strictly positive on dense sample"),
    ("kernels.q.sign_change", -1e-12, "<=", "min over psi must be negative for every s >= 0.8"),
    ("kernels.poisson.series", 1e-10, "<=", ""),
    ("kernels.q.peak_value", 1e-12, "<=", "Q(s, 0) = (1-s)^-2"),
    ("kernels.q.peak_location", 1e-12, "<=", "|Q| peaks at psi = 0"),
    ("quadrature.exactness", 1e-12, "<=", "rho^m cos(k phi), m,k <= 10"),
    ("quadrature.additivity", 1e-12, "<=", ""),
    ("quadrature.substitution_beta_zero_limit", 1e-06, "<=", ""),
    ("quadrature.q_normalization", 1e-06, "<=",
     "(1/pi) iint Q(r rho, theta - phi) rho = 1 for all r, theta"),
    ("quadrature.oracle_agreement", 1.0, "<=",
     "adaptive vs the closed-form transform of the indicators of figs 4, 5 and 9 at 9 points "
     "up to r = 0.999: |gap| / (err + 1e-12 max(1, |exact|))"),
    ("sources.roundtrip", 0.0, "<=", ""),
    ("sources.catalog_complete", 0.0, "<=", ""),
    ("sources.square_integrable", 20.0, "<=",
     "largest truncated L2 norm across the catalog; must be finite"),
    ("transforms.center_identity", 1e-08, "<=",
     "transform value at the origin equals prefactor * source mass"),
    ("transforms.mean_value", 1e-08, "<=", ""),
    ("transforms.linearity", 1e-10, "<=", ""),
    ("transforms.rotation_equivariance", 1e-08, "<=", ""),
    ("transforms.reproducing", 1e-06, "<=", "harmonic polynomials up to degree 3"),
    ("transforms.engine_agreement", 1.0, "<=",
     "spectral grid vs adaptive points, fig 13 Q and Poisson on 3x8: "
     "|gap| / (err_adaptive + err_spectral + 1e-12 max(1, |value|))"),
    ("verify.stencil_convergence_low", 3.5, ">=", "halving h divides the residual by ~4"),
    ("verify.stencil_convergence_high", 4.5, "<=", "upper side of the second-order window"),
    ("verify.norm_alpha_monotonic", 1e-12, "<=",
     "weighted norm non-increasing in alpha for bounded sources"),
    ("verify.hardy_monotone", 1e-08, "<=",
     "circle integrals of the harmonic extension increase with r"),
    ("verify.hardy_bounded", 1e-06, "<=", "sup_r circle integral <= boundary integral"),
    ("heat.dirichlet_accuracy", 0.001, "<=", "unit source vs (1-r^2)/4 at 128x256"),
    ("heat.solver_order", 3.5, ">=", "doubling resolution divides the max error by >= 3.5"),
    ("heat.robin_accuracy", 0.001, "<=", ""),
    ("heat.max_principle", -1e-10, ">=", "non-negative source gives non-negative field"),
    ("heat.linearity", 1e-08, "<=", ""),
    ("heat.determinism", 0.0, "<=", "identical inputs give bitwise-identical fields"),
]


class TestInvariantSuite:
    def test_default_suite_passes(self):
        report = run_invariant_suite()
        failed = [r.id for r in report.records if not r.passed]
        assert report.all_passed, f"failed invariants: {failed}"
        # no refactor may drop, reorder or re-threshold an invariant
        shape = [(r.id, r.threshold, r.comparator, r.note) for r in report.records]
        assert shape == SUITE_SHAPE
        # both sides of these identities use the same graded rule on the
        # log-singular figure 14, so they hold to roundoff
        by_id = {r.id: r for r in report.records}
        assert by_id["transforms.center_identity"].measured <= 1e-15
        assert by_id["transforms.mean_value"].measured <= 1e-15

    def test_normalization_holds_at_extreme_radius(self):
        report = run_invariant_suite(SuiteConfig(r_max=0.99, include_heat=False))
        by_id = {r.id: r for r in report.records}
        rec = by_id["quadrature.q_normalization"]
        assert rec.passed
        assert rec.measured <= 1e-6

    def test_corrupted_kernel_detected(self):
        # negative control: a sign-flipped kernel must break normalization
        config = SuiteConfig(
            include_heat=False,
            q_kernel_fn=lambda s, psi: -q_kernel(s, psi),
        )
        report = run_invariant_suite(config)
        assert not report.all_passed
        by_id = {r.id: r for r in report.records}
        assert not by_id["quadrature.q_normalization"].passed

    def test_engine_agreement_holds(self):
        worst = verify._engine_disagreement(figure_case(13), 0.9, QuadratureSpec())
        assert 0.0 < worst <= 1.0

    @pytest.mark.parametrize("r_max", [0.9, 0.99])
    def test_engine_agreement_grid_takes_spectral_path(self, monkeypatch, r_max):
        # 3 x 8 at 0.9; near the cap the angles are multiplied until the
        # moments of about 5,000 modes pay, and a finite reading is spectral
        shapes = []
        real = verify.q_transform

        def recorded(source, grid, *args):
            shapes.append(grid.shape)
            return real(source, grid, *args)

        monkeypatch.setattr(verify, "q_transform", recorded)
        worst = verify._engine_disagreement(figure_case(13), r_max, QuadratureSpec())
        assert 0.0 < worst <= 1.0
        ((n_r, n_theta),) = shapes
        assert n_r == 3 and n_theta % 8 == 0 and (n_theta == 8) == (r_max == 0.9)

    @pytest.mark.parametrize("change", ["shift", "adaptive"])
    def test_engine_agreement_negative_controls(self, monkeypatch, change):
        # a spectral grid moved by 1e-8, or a grid that silently took the
        # adaptive path, must fail the invariant
        real = verify.q_transform

        def corrupted(*args):
            fld = real(*args)
            if change == "shift":
                fld.values = fld.values + 1e-8
            else:
                fld.meta["engine"] = "adaptive"
            return fld

        monkeypatch.setattr(verify, "q_transform", corrupted)
        worst = verify._engine_disagreement(figure_case(13), 0.9, QuadratureSpec())
        assert worst > 1.0

    def test_report_serializes(self):
        report = run_invariant_suite(SuiteConfig(include_heat=False))
        doc = json.loads(report.to_json())
        assert doc["all_passed"] is True
        assert len(doc["records"]) == len(report.records)
        assert {"id", "measured", "threshold", "comparator", "passed", "note"} <= set(
            doc["records"][0]
        )
