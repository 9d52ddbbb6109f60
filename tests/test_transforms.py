import math
import tracemalloc

import numpy as np
import pytest

from harmonicdisk.errors import DomainError
from harmonicdisk.geometry import EvaluationGrid, PolarRectangle
from harmonicdisk.quadrature import QuadratureSpec
from harmonicdisk.sources import (
    AbsLogAbsPhi,
    AbsPhi,
    AngularCos,
    AngularOne,
    AngularSin,
    BoundarySum,
    CharacteristicDisk,
    CharacteristicRect,
    OnArc,
    PowerOfOneMinusRho,
    RadialOne,
    RhoPower,
    SeparableOnRect,
    SourceSum,
    catalog_boundary_functions,
    catalog_q_sources,
    figure_case,
)
from harmonicdisk import verify
from harmonicdisk.transforms import (
    _POISSON_SERIES,
    _Q_SERIES,
    CallableSource,
    Field,
    _angular_panels,
    _fft_synthesis,
    _phases,
    _poisson_parts_point,
    _q_parts_point,
    _radial_moments,
    _radial_rule,
    _spectral_field,
    _spectral_modes,
    _trig_moments,
    analytic_rep,
    bergman_project,
    harmonic_rep,
    poisson_integral,
    poisson_point,
    q_point,
    q_transform,
    source_mass,
)

PI = math.pi
TIGHT = QuadratureSpec(adaptive_tol=1e-12)


def small_grid(r_max=0.8, n_r=4, n_theta=8):
    return EvaluationGrid.regular(n_r=n_r, n_theta=n_theta, r_max=r_max, r_min=0.0)


def harmonic_measure_oracle(r, theta, a, b):
    """Closed-form boundary integral of an arc indicator (antiderivative
    2*arctan(((1+r)/(1-r)) tan(psi/2)), valid while theta-a, theta-b
    stay inside (-pi, pi))."""
    c = (1.0 + r) / (1.0 - r)
    F = lambda psi: 2.0 * math.atan(c * math.tan(psi / 2.0))
    return (F(theta - a) - F(theta - b)) / (2.0 * PI)


class TestPoissonIntegral:
    def test_constant_boundary_gives_constant_one(self):
        fld = poisson_integral(OnArc(AngularOne()), small_grid(), TIGHT)
        assert np.max(np.abs(fld.values - 1.0)) < 1e-12
        assert fld.converged.all()

    def test_cosine_gives_r_cos_theta(self):
        grid = small_grid()
        fld = poisson_integral(OnArc(AngularCos(1)), grid, TIGHT)
        expected = grid.radii[:, None] * np.cos(grid.angles[None, :])
        assert np.max(np.abs(fld.values - expected)) < 1e-9

    def test_arc_mean_value(self):
        arc = OnArc(AngularOne(), -PI / 6, PI / 6)
        v, _, _ = poisson_point(arc, 0.0, 0.7, TIGHT)
        assert v == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert source_mass(arc, TIGHT) == pytest.approx(PI / 3.0, abs=1e-12)

    def test_abs_theta_mean_value(self):
        v, _, _ = poisson_point(OnArc(AbsPhi()), 0.0, -2.0, TIGHT)
        assert v == pytest.approx(PI / 2.0, abs=1e-9)
        assert source_mass(OnArc(AbsPhi()), TIGHT) == pytest.approx(PI**2, abs=1e-12)

    def test_harmonic_measure_closed_form(self):
        arc = OnArc(AngularOne(), -PI / 6, PI / 6)
        for r, theta in ((0.3, 0.2), (0.7, -1.0), (0.9, 2.0), (0.5, 0.0)):
            v, _, _ = poisson_point(arc, r, theta, TIGHT)
            assert v == pytest.approx(
                harmonic_measure_oracle(r, theta, -PI / 6, PI / 6), abs=1e-10
            )

    def test_near_boundary_value(self):
        v, _, _ = poisson_point(
            OnArc(AngularOne(), -PI / 6, PI / 6), 0.99, 0.0, TIGHT, allow_near_boundary=True
        )
        assert v == pytest.approx(
            harmonic_measure_oracle(0.99, 0.0, -PI / 6, PI / 6), abs=1e-9
        )
        assert v > 0.9

    def test_linearity(self):
        # the weights of a sum ride on its arcs, in both engines
        a, b = OnArc(AngularOne(), -PI / 6, PI / 6), OnArc(AbsPhi())
        combo = BoundarySum(((0.7, a), (-1.3, b)))
        grids = [poisson_integral(f, small_grid(), TIGHT) for f in (combo, a, b)]
        assert [fld.meta["engine"] for fld in grids] == ["spectral"] * 3
        gap = grids[0].values - (0.7 * grids[1].values - 1.3 * grids[2].values)
        assert np.max(np.abs(gap)) < 1e-12
        for r, theta in ((0.5, 0.3), (0.85, -2.2)):
            v_sum, v_a, v_b = (poisson_point(f, r, theta, TIGHT)[0] for f in (combo, a, b))
            assert v_sum == pytest.approx(0.7 * v_a - 1.3 * v_b, abs=1e-12)


class TestQTransform:
    def test_characteristic_disk_plateau(self):
        grid = small_grid(r_max=0.9)
        fld = q_transform(CharacteristicDisk(0.25), grid, 1.0, TIGHT)
        assert np.max(np.abs(fld.values - PI / 16.0)) < 1e-10

    def test_rho_cos_phi_identity(self):
        grid = small_grid()
        src = SeparableOnRect(RhoPower(1), AngularCos(1), PolarRectangle.full_disk())
        fld = q_transform(src, grid, 2.0 / PI, TIGHT)
        expected = grid.radii[:, None] * np.cos(grid.angles[None, :])
        assert np.max(np.abs(fld.values - expected)) < 1e-9

    def test_center_reduces_to_mass(self):
        rect = CharacteristicRect(PolarRectangle(0.25, 0.5, 0.0, PI / 4))
        v, _, _ = q_point(rect, 0.0, 1.234, 1.0, TIGHT)
        assert v == pytest.approx(3.0 * PI / 128.0, abs=1e-10)

    def test_center_matches_source_mass_for_catalog(self):
        for fig_id in (5, 9, 15):
            q_case = figure_case(fig_id)
            mass = source_mass(q_case.source, TIGHT)
            v, _, _ = q_point(q_case.source, 0.0, 0.0, q_case.prefactor, TIGHT)
            assert v == pytest.approx(q_case.prefactor * mass, abs=1e-10)

    def test_fig15_center_closed_form(self):
        # radial integral has an erf closed form; angular integral is 1
        src = figure_case(15).source
        expected = 5.0 * math.sqrt(PI / 10.0) * (
            math.erf(0.2 * math.sqrt(10.0))
        )
        assert source_mass(src, TIGHT) == pytest.approx(expected, abs=1e-10)

    def test_linearity(self):
        a = CharacteristicRect(PolarRectangle(0.3, 0.6, -0.4, 0.9))
        b = CharacteristicRect(PolarRectangle(0.1, 0.8, 1.2, 2.0))
        combo = SourceSum(((0.7, a), (-1.3, b)))
        for r, theta in ((0.5, 0.3), (0.85, -2.2)):
            v_sum, _, _ = q_point(combo, r, theta, 1.0, TIGHT)
            v_a, _, _ = q_point(a, r, theta, 1.0, TIGHT)
            v_b, _, _ = q_point(b, r, theta, 1.0, TIGHT)
            assert v_sum == pytest.approx(0.7 * v_a - 1.3 * v_b, abs=1e-10)

    def test_rotation_equivariance(self):
        delta = 0.4
        base = CharacteristicRect(PolarRectangle(0.3, 0.6, -0.4, 0.9))
        rotated = CharacteristicRect(PolarRectangle(0.3, 0.6, -0.4 + delta, 0.9 + delta))
        for r, theta in ((0.55, 0.1), (0.8, 2.0)):
            v_rot, _, _ = q_point(rotated, r, theta + delta, 1.0, TIGHT)
            v, _, _ = q_point(base, r, theta, 1.0, TIGHT)
            assert v_rot == pytest.approx(v, abs=1e-8)

    def test_radius_cap(self):
        with pytest.raises(DomainError):
            q_point(CharacteristicDisk(0.25), 0.995, 0.0)
        v, _, _ = q_point(CharacteristicDisk(0.25), 0.995, 0.0, allow_near_boundary=True)
        assert v == pytest.approx(PI / 16.0, abs=1e-8)

    def test_meta_records_reproduction_inputs(self):
        grid = small_grid()
        fld = q_transform(CharacteristicDisk(0.25), grid, 1.0)
        assert fld.meta["operator"] == "q_transform"
        assert fld.meta["prefactor"] == 1.0
        assert fld.meta["source"] == {"type": "char_disk", "radius": 0.25}
        assert fld.meta["quadrature"]["adaptive_tol"] == 1e-9

    def test_deterministic(self):
        grid = small_grid()
        f1 = q_transform(CharacteristicDisk(0.25), grid, 1.0)
        f2 = q_transform(CharacteristicDisk(0.25), grid, 1.0)
        assert np.array_equal(f1.values, f2.values)


class TestHarmonicRep:
    def test_constant(self):
        fld = harmonic_rep(lambda rho, phi: np.ones(np.broadcast_shapes(np.shape(rho), np.shape(phi))), 1.0, small_grid(), TIGHT)
        assert np.max(np.abs(fld.values - 1.0)) < 1e-10

    def test_degree_two_cosine(self):
        grid = small_grid()
        fld = harmonic_rep(lambda rho, phi: rho**2 * np.cos(2 * phi), 0.0, grid, TIGHT)
        expected = grid.radii[:, None] ** 2 * np.cos(2 * grid.angles[None, :])
        assert np.max(np.abs(fld.values - expected)) < 1e-6

    def test_degree_one_sine(self):
        grid = small_grid()
        fld = harmonic_rep(lambda rho, phi: rho * np.sin(phi), 0.0, grid, TIGHT)
        expected = grid.radii[:, None] * np.sin(grid.angles[None, :])
        assert np.max(np.abs(fld.values - expected)) < 1e-6


class TestBergmanProject:
    def test_reproduces_constant_with_offset(self):
        fld = bergman_project(CharacteristicDisk(1.0), small_grid(), TIGHT)
        assert np.max(np.abs(fld.values - 1.0)) < 1e-10

    def test_characteristic_disk_constant(self):
        # projection of a radial indicator is the constant mass/pi
        grid = small_grid(r_max=0.9)
        fld = bergman_project(CharacteristicDisk(0.25), grid, TIGHT)
        assert np.max(np.abs(fld.values - 1.0 / 16.0)) < 1e-3
        assert np.max(np.abs(fld.values - 1.0 / 16.0)) < 1e-9  # actual accuracy

    def test_reproduces_harmonic_with_nonzero_origin(self):
        # u = 1 + rho cos(phi): harmonic, u(0) = 1
        u = CallableSource(lambda rho, phi: 1.0 + rho * np.cos(phi))
        grid = small_grid()
        fld = bergman_project(u, grid, TIGHT)
        expected = 1.0 + grid.radii[:, None] * np.cos(grid.angles[None, :])
        assert np.max(np.abs(fld.values - expected)) < 1e-6

    def test_rho_cos_phi(self):
        src = SeparableOnRect(RhoPower(1), AngularCos(1), PolarRectangle.full_disk())
        grid = EvaluationGrid(np.array([0.6]), 8)
        fld = bergman_project(src, grid, TIGHT)
        assert fld.values[0] == pytest.approx(0.6 * np.cos(grid.angles), abs=1e-9)


class TestAnalyticRep:
    def test_constant_any_alpha(self):
        for alpha in (0.0, 1.0, 2.5):
            value = analytic_rep([1.0], alpha, 0.3 + 0.2j, TIGHT)
            assert value == pytest.approx(1.0 + 0.0j, abs=1e-8)

    def test_monomial_alpha_zero(self):
        value = analytic_rep([0.0, 1.0], 0.0, 0.5 + 0j, TIGHT)
        assert value == pytest.approx(0.5 + 0j, abs=1e-8)

    def test_cubic_alpha_one(self):
        value = analytic_rep([0, 0, 0, 1.0], 1.0, 0.4j, TIGHT)
        assert value == pytest.approx((0.4j) ** 3, abs=1e-7)

    def test_polynomial(self):
        coeffs = [1.0, -2.0, 0.5j]
        z = 0.35 - 0.25j
        expected = coeffs[0] + coeffs[1] * z + coeffs[2] * z * z
        assert analytic_rep(coeffs, 0.5, z, TIGHT) == pytest.approx(expected, abs=1e-8)

    def test_domain_errors(self):
        for alpha in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                analytic_rep([1.0], alpha, 0.1 + 0j)
        with pytest.raises(DomainError):
            analytic_rep([1.0], 0.0, 1.2 + 0j)
        with pytest.raises(DomainError):
            analytic_rep([], 0.0, 0.1 + 0j)


class TestGridAndField:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            EvaluationGrid(np.array([0.5, 0.2]), 1)
        with pytest.raises(DomainError):
            EvaluationGrid(np.array([0.0, 0.995]), 1)
        EvaluationGrid(np.array([0.0, 0.995]), 1, allow_near_boundary=True)
        with pytest.raises(DomainError):
            EvaluationGrid.regular(n_r=4, n_theta=8, r_max=1.0, r_min=0.0)
        for r_max in (math.nan, math.inf):
            with pytest.raises(DomainError):
                EvaluationGrid.regular(n_r=4, n_theta=8, r_max=r_max)
        for radii, n_theta in (([0.0, math.nan], 1), ([], 4), ([0.0, 0.5], 0),
                               ([0.0, 0.5], 4.0), ([0.0, 0.5], -3)):
            with pytest.raises(DomainError):
                EvaluationGrid(np.array(radii), n_theta)

    def test_angles_are_always_regular(self):
        grid = EvaluationGrid(np.array([0.1, 0.4]), 6)
        assert np.array_equal(grid.angles, EvaluationGrid.regular_angles(6))
        assert grid == EvaluationGrid.regular(n_r=2, n_theta=6, r_max=0.4, r_min=0.1)
        assert grid != EvaluationGrid(np.array([0.1, 0.4]), 7)

    def test_regular_grid_shape(self):
        grid = EvaluationGrid.regular(n_r=5, n_theta=12, r_max=0.8)
        assert grid.shape == (5, 12)
        assert grid.radii[0] == 0.0
        assert grid.radii[-1] == 0.8
        assert grid.angles[0] == -PI
        assert grid.angles[-1] < PI

    def test_field_interpolation_roundtrip(self):
        grid = EvaluationGrid.regular(n_r=30, n_theta=64, r_max=0.9)
        values = grid.radii[:, None] * np.cos(grid.angles[None, :])
        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=np.zeros_like(values))
        assert fld.interpolate(0.45, 0.3) == pytest.approx(0.45 * math.cos(0.3), abs=1e-3)
        # beyond r_max: nearest radial extension
        assert fld.interpolate(0.99, 0.0) == pytest.approx(0.9, abs=1e-3)


class TestGridMatchesPoint:
    """On the adaptive path, the grid operators the CLI writes and the point
    evaluators `verify` checks must give the same bits, value, error and
    flag, at every point."""

    GRID = EvaluationGrid.regular(n_r=3, n_theta=8, r_max=0.85)
    NEAR_RIM = EvaluationGrid.regular(n_r=2, n_theta=4, r_max=0.995, allow_near_boundary=True)

    def assert_same(self, fld, point):
        assert fld.meta["engine"] == "adaptive"
        grid = fld.grid
        expected = [[point(float(r), float(t)) for t in grid.angles] for r in grid.radii]
        for k, got in enumerate((fld.values, fld.errors, fld.converged)):
            assert np.array_equal(got, np.array([[p[k] for p in row] for row in expected]))

    def test_q_transform_singular_sum(self):
        # above the mode cap the singular pieces of fig 7 take the adaptive
        # grid, which must give the point evaluator's bits
        case = figure_case(7)
        fld = q_transform(case.source, self.NEAR_RIM, case.prefactor)
        self.assert_same(fld, lambda r, t: q_point(case.source, r, t, case.prefactor,
                                                   allow_near_boundary=True))

    def test_q_transform_graded_log_ends(self):
        # above the mode cap fig 14 takes the adaptive grid
        case = _q_case(14)
        fld = q_transform(case.source, self.NEAR_RIM, case.prefactor)
        self.assert_same(fld, lambda r, t: q_point(case.source, r, t, case.prefactor,
                                                   allow_near_boundary=True))

    def test_harmonic_rep(self):
        u = lambda rho, phi: 1.0 + rho * np.cos(phi)
        fld = harmonic_rep(u, 1.0, self.GRID)

        def point(r, t):
            value, err, converged = q_point(CallableSource(u), r, t, 2.0 / PI)
            return value - 1.0, err, converged

        self.assert_same(fld, point)

    @pytest.mark.parametrize("fig_id", [14])
    def test_poisson_integral(self, fig_id):
        boundary = _boundary(fig_id)
        fld = poisson_integral(boundary, self.NEAR_RIM)
        self.assert_same(fld, lambda r, t: poisson_point(boundary, r, t,
                                                         allow_near_boundary=True))


SPECTRAL_Q_FIGURES = (3, 4, 5, 6, 7, 9, 11, 12, 13, 14, 15)
SPECTRAL_POISSON_FIGURES = (3, 8, 10, 12, 13, 14)


def _q_case(fig_id):
    return catalog_q_sources()[fig_id]


def _boundary(fig_id):
    return catalog_boundary_functions()[fig_id].boundary


class TestSpectralDispatch:
    """Which grids take the spectral path, decided without running the
    adaptive one."""

    GRID = EvaluationGrid.regular(n_r=3, n_theta=8, r_max=0.9)

    @pytest.mark.parametrize("fig_id", SPECTRAL_Q_FIGURES)
    def test_q_figures_take_spectral_path(self, fig_id):
        case = _q_case(fig_id)
        fld = q_transform(case.source, self.GRID, case.prefactor)
        assert fld.meta["engine"] == "spectral"
        assert fld.meta["modes"] == max(_spectral_modes(_Q_SERIES, case.source.pieces(), 0.9))
        assert fld.meta["unconverged"] == 0 and fld.converged.all()

    @pytest.mark.parametrize("fig_id", SPECTRAL_POISSON_FIGURES)
    def test_poisson_figures_take_spectral_path(self, fig_id):
        fld = poisson_integral(_boundary(fig_id), self.GRID)
        assert fld.meta["engine"] == "spectral"
        assert fld.meta["modes"] > 0
        assert fld.meta["unconverged"] == 0 and fld.converged.all()

    def test_undeclared_sources_take_adaptive_path(self):
        # only a callable source declares no factors
        src = CallableSource(lambda rho, phi: rho * np.cos(phi))
        assert _spectral_modes(_Q_SERIES, src.pieces(), 0.9) is None
        assert q_transform(src, self.GRID).meta["engine"] == "adaptive"

    def test_mode_cap(self):
        grid = EvaluationGrid.regular(n_r=3, n_theta=8, r_max=0.995, allow_near_boundary=True)
        r_max = float(grid.radii[-1])
        full = SeparableOnRect(RhoPower(2), AngularCos(2), PolarRectangle.full_disk())
        assert _spectral_modes(_Q_SERIES, full.pieces(), r_max) is None
        assert _spectral_modes(_POISSON_SERIES, OnArc(AngularCos(2)).pieces(), r_max) is None
        # the cap is on r_max * r_hi, so a small disk stays spectral
        small = _spectral_modes(_Q_SERIES, CharacteristicDisk(0.25).pieces(), r_max)
        assert small is not None and small[0] < 50
        below = _spectral_modes(_Q_SERIES, full.pieces(), 0.99)
        assert below is not None and below[0] < 5000

    def test_small_grid_takes_adaptive_path(self):
        # K modes cost about K^2 / 1e4 adaptive points: at r_max 0.9
        # (K = 429) 8 points go point by point and 24 take the moments;
        # near the cap (K = 4,972) 24 points go point by point
        case = _q_case(14)
        for grid in (EvaluationGrid.regular(n_r=2, n_theta=4, r_max=0.9),
                     EvaluationGrid.regular(n_r=3, n_theta=8, r_max=0.99)):
            assert q_transform(case.source, grid, case.prefactor).meta["engine"] == "adaptive"
            assert poisson_integral(_boundary(14), grid).meta["engine"] == "adaptive"
        assert q_transform(case.source, self.GRID, case.prefactor).meta["engine"] == "spectral"

    def test_error_estimate_above_tol_falls_back(self):
        case = _q_case(4)
        pieces = case.source.pieces()
        modes = _spectral_modes(_Q_SERIES, pieces, 0.9)
        tight = QuadratureSpec(adaptive_tol=1e-20)
        assert _spectral_field(_Q_SERIES, pieces, modes, self.GRID, 1.0, 0.0, tight) is None
        values, errors, _ = _spectral_field(_Q_SERIES, pieces, modes, self.GRID, 1.0, 0.0,
                                            QuadratureSpec())
        assert np.all(errors <= 1e-9) and np.all(errors > 0)

    def test_kink_is_a_panel_edge(self):
        pieces = _q_case(11).source.pieces()
        assert [(p.rect.theta_lo, p.rect.theta_hi) for p in pieces] == [(-PI, 0.0), (0.0, PI)]
        assert all(p.factors is not None for p in pieces)
        for piece in pieces:
            lo, hi = piece.rect.theta_lo, piece.rect.theta_hi
            ((offsets, weights, mids),) = _angular_panels(lo, hi, 400, 64, None)
            nodes = mids[:, None] + offsets
            assert lo < nodes.min() and nodes.max() < hi
            assert mids.size * weights.sum() == pytest.approx(hi - lo, rel=1e-14)

    def test_adaptive_meta_counts_unconverged(self):
        # |ln|phi|| as a callable declares no log point, so the adaptive
        # panels bisect towards phi = 0 down to max_depth
        grid = EvaluationGrid.regular(n_r=2, n_theta=2, r_max=0.8)
        src = CallableSource(lambda rho, phi: np.abs(np.log(np.abs(phi))))
        fld = q_transform(src, grid)
        assert fld.meta["engine"] == "adaptive"
        assert "modes" not in fld.meta
        assert fld.meta["unconverged"] == int(np.count_nonzero(~fld.converged)) > 0
        assert fld.meta["panels"] > 4 * grid.shape[0] * grid.shape[1]


class TestGradedLogEnd:
    """Figure 14's declared log point is a graded piece or arc end: its grids
    are spectral, and each point evaluation converges in about one panel
    per part."""

    GRID = EvaluationGrid.regular(n_r=8, n_theta=16, r_max=0.9)

    def test_declared_log_end_takes_spectral_path(self):
        pieces = _q_case(14).source.pieces()
        arcs = _boundary(14).pieces()
        assert [p.log_end for p in pieces] == [0.0, None]
        assert [a.log_end for a in arcs] == [0.0, None]
        assert all(p.factors is not None for p in pieces)
        assert _spectral_modes(_Q_SERIES, pieces, 0.9) is not None
        assert _spectral_modes(_POISSON_SERIES, arcs, 0.9) is not None

    @staticmethod
    def point_evaluator(kind, spec):
        """(value, error, converged, panels) of fig 14's q or Poisson field at
        one point, from the point evaluators."""
        if kind == "q":
            case = _q_case(14)
            pieces = case.source.pieces()
            return lambda r, t: _q_parts_point(pieces, float(r), float(t), case.prefactor, spec)
        arcs = _boundary(14).pieces()
        return lambda r, t: _poisson_parts_point(arcs, float(r), float(t), spec)

    @pytest.mark.parametrize("kind", ["q", "poisson"])
    def test_fig14_converges_in_few_panels(self, kind):
        point = self.point_evaluator(kind, QuadratureSpec())
        got = [point(r, t) for r in self.GRID.radii for t in self.GRID.angles]
        assert all(converged for _, _, converged, _ in got)
        panels = sum(n for *_, n in got)
        parts_times_points = 2 * len(got)
        assert parts_times_points <= panels <= 1.1 * parts_times_points

    @pytest.mark.parametrize("kind", ["q", "poisson"])
    def test_spectral_grid_matches_tight_point_evaluators(self, kind):
        # each log-ended part against adaptive quadrature at tol 1e-13
        if kind == "q":
            case = _q_case(14)
            fld = q_transform(case.source, self.GRID, case.prefactor)
        else:
            fld = poisson_integral(_boundary(14), self.GRID)
        point = self.point_evaluator(kind, QuadratureSpec(adaptive_tol=1e-13))
        expected = np.array([[point(r, t)[0] for t in self.GRID.angles] for r in self.GRID.radii])
        assert fld.meta["engine"] == "spectral"
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(fld.values - expected)) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", ["q", "poisson"])
    @pytest.mark.parametrize("shape", [(8, 16), (20, 64), (40, 128)])
    def test_spectral_at_tight_tolerance(self, kind, shape):
        # the graded panel takes 2 n nodes in the main and the coarse rule,
        # so the error estimate of the log end is near roundoff
        grid = EvaluationGrid.regular(n_r=shape[0], n_theta=shape[1], r_max=0.9)
        spec = QuadratureSpec(adaptive_tol=1e-12)
        if kind == "q":
            case = _q_case(14)
            fld = q_transform(case.source, grid, case.prefactor, spec)
        else:
            fld = poisson_integral(_boundary(14), grid, spec)
        assert fld.meta["engine"] == "spectral"
        assert fld.errors.max() < 1e-13

    def test_graded_end_composes_with_singular_radial(self):
        # (1 - rho)^(-1/4) |ln phi| on [3/4, 1] x [0, pi]: the Gauss-Jacobi
        # weight and the angular grading compose
        source = SeparableOnRect(PowerOfOneMinusRho(0.25), AbsLogAbsPhi(),
                                 PolarRectangle(0.75, 1.0, 0.0, PI))
        u = 0.25  # 1 - r_lo; radial integral of rho (1 - rho)^(-1/4)
        radial = u**0.75 / 0.75 - u**1.75 / 1.75
        expected = radial * (2.0 + PI * (math.log(PI) - 1.0))
        # the weight is exact in the Gauss-Jacobi rule, so the default
        # tolerance suffices
        assert source_mass(source) == pytest.approx(expected, abs=1e-13)
        value, _, converged = q_point(source, 0.0, 0.3, 1.0)
        assert converged and value == pytest.approx(expected, abs=1e-13)


class TestSpectralMatchesPoint:
    """The spectral grid agrees with the adaptive point evaluators within
    their joint error estimate (no longer bit for bit)."""

    GRID = EvaluationGrid.regular(n_r=3, n_theta=8, r_max=0.85)

    def assert_agrees(self, fld, point):
        assert fld.meta["engine"] == "spectral"
        for i, r in enumerate(self.GRID.radii):
            for j, t in enumerate(self.GRID.angles):
                value, err, converged = point(float(r), float(t))
                assert converged
                bound = err + fld.errors[i, j] + 1e-12 * max(1.0, abs(value))
                assert abs(fld.values[i, j] - value) <= bound

    @pytest.mark.parametrize("fig_id", SPECTRAL_Q_FIGURES)
    def test_q_transform(self, fig_id):
        case = _q_case(fig_id)
        fld = q_transform(case.source, self.GRID, case.prefactor)
        self.assert_agrees(fld, lambda r, t: q_point(case.source, r, t, case.prefactor))

    @pytest.mark.parametrize("fig_id", SPECTRAL_POISSON_FIGURES)
    def test_poisson_integral(self, fig_id):
        boundary = _boundary(fig_id)
        fld = poisson_integral(boundary, self.GRID)
        self.assert_agrees(fld, lambda r, t: poisson_point(boundary, r, t))

    def test_bergman_project(self):
        src = _q_case(5).source
        fld = bergman_project(src, self.GRID)
        mean_term = source_mass(src) / PI

        def point(r, t):
            value, err, converged = q_point(src, r, t, 2.0 / PI)
            return value - mean_term, err, converged

        self.assert_agrees(fld, point)


def _trig_integrals(j, lo, hi):
    """(int cos(j phi), int sin(j phi)) over [lo, hi], elementwise in j."""
    safe = np.where(j == 0.0, 1.0, j)
    return (np.where(j == 0.0, hi - lo, (np.sin(j * hi) - np.sin(j * lo)) / safe),
            np.where(j == 0.0, 0.0, (np.cos(j * lo) - np.cos(j * hi)) / safe))


def _rim_cos_series(pieces, radii, angles, n_modes):
    """Q of a sum of cos(phi) (1 - rho)^(-beta) pieces on [a, 1] x [lo, hi],
    sum_k (k+1) r^k I_{k+1} (C_k cos k theta + S_k sin k theta), from closed
    forms: I_m = int_a^1 rho^m (1 - rho)^(-beta) drho by its stable forward
    recurrence, and C_k, S_k = int cos(phi) (cos, sin)(k phi) dphi."""
    k = np.arange(n_modes + 1)
    cos_moments = np.zeros(k.size)
    sin_moments = np.zeros(k.size)
    for piece in pieces:
        a, beta = piece.rect.r_lo, -piece.weight[1]
        lo, hi = piece.rect.theta_lo, piece.rect.theta_hi
        rim = (1.0 - a) ** (1.0 - beta)
        radial = [rim / (1.0 - beta)]
        for m in range(1, n_modes + 2):
            radial.append((m * radial[-1] + a**m * rim) / (m + 1.0 - beta))
        int_cos, int_sin = _trig_integrals(np.stack([k - 1.0, k + 1.0]), lo, hi)
        cos_moments += piece.coef * np.array(radial[1:]) * 0.5 * int_cos.sum(axis=0)
        sin_moments += piece.coef * np.array(radial[1:]) * 0.5 * int_sin.sum(axis=0)
    w = (k + 1.0) * np.asarray(radii, dtype=float)[:, None] ** k
    kt = np.outer(k, angles)
    return (w * cos_moments) @ np.cos(kt) + (w * sin_moments) @ np.sin(kt)


class TestRimSingularOracle:
    """Figs 6 and 7, cos(phi) (1 - rho)^(-beta) near the rim, against their
    Fourier series with closed-form moments, an oracle that shares no
    quadrature with the engines."""

    @pytest.mark.parametrize("fig_id", [6, 7])
    def test_spectral_grid(self, fig_id):
        case = _q_case(fig_id)
        grid = EvaluationGrid.regular(n_r=20, n_theta=64, r_max=0.9)
        fld = q_transform(case.source, grid, case.prefactor)
        # at r = 0.9 the dropped terms beyond k = 800 are below 1e-30
        exact = case.prefactor * _rim_cos_series(case.source.pieces(), grid.radii,
                                                 grid.angles, 800)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert fld.meta["engine"] == "spectral"
        assert np.max(np.abs(fld.values - exact)) <= 1e-13 * scale

    @pytest.mark.parametrize("fig_id", [6, 7])
    def test_point_near_rim(self, fig_id):
        case = _q_case(fig_id)
        pieces = case.source.pieces()
        for r in (0.95, 0.99, 0.999):
            for theta in (0.0, 0.3, 2.9):
                value, err, converged = q_point(case.source, r, theta, case.prefactor,
                                                allow_near_boundary=True)
                # (k+1) r^k I_{k+1} decays like k^beta r^k: 60000 modes reach
                # below 1e-20 at r = 0.999
                exact = case.prefactor * _rim_cos_series(pieces, [r], [theta], 60000)[0, 0]
                assert converged
                assert abs(value - exact) <= err + 1e-13 * max(1.0, abs(exact))


class TestIndicatorOracle:
    """Figs 4, 5 and 9, sums of polar-rectangle indicators, against their
    closed-form transform (``verify._indicator_q``), up to the 0.99 cap."""

    @pytest.mark.parametrize("r_max", [0.9, 0.99])
    @pytest.mark.parametrize("fig_id", [4, 5, 9])
    def test_spectral_grid(self, fig_id, r_max):
        case = _q_case(fig_id)
        grid = EvaluationGrid.regular(n_r=40, n_theta=128, r_max=r_max)
        fld = q_transform(case.source, grid, case.prefactor)
        exact = case.prefactor * verify._indicator_q(case.source, grid.radii[:, None],
                                                     grid.angles[None, :])
        assert fld.meta["engine"] == "spectral"
        assert np.max(np.abs(fld.values - exact)) <= 1e-13


class TestDeclaredRadialWeight:
    """A radial factor with a weighted end takes the spectral path: on a
    rectangle reaching that end as the Gauss-Jacobi weight, elsewhere as a
    smooth factor."""

    GRID = EvaluationGrid.regular(n_r=3, n_theta=8, r_max=0.85)

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.5])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_fractional_power_on_a_disk_matches_closed_form(self, k, m):
        # rho^k cos(m phi) on [0, r_hi] x [-pi, pi] has one trig moment,
        # int rho^(k+m+1) cos^2(m phi) = c_m r_hi^(k+m+2) / (k+m+2), so its
        # transform is (m+1) r^m cos(m theta) times that
        r_hi = 0.8
        source = SeparableOnRect(RhoPower(k), AngularCos(m), PolarRectangle(0.0, r_hi, -PI, PI))
        moment = (2.0 * PI if m == 0 else PI) * r_hi ** (k + m + 2) / (k + m + 2)
        exact = lambda r, t: (m + 1) * r**m * np.cos(m * t) * moment
        fld = q_transform(source, self.GRID)
        assert fld.meta["engine"] == "spectral"
        expected = exact(self.GRID.radii[:, None], self.GRID.angles[None, :])
        assert np.max(np.abs(fld.values - expected)) <= 1e-13 * max(1.0, abs(moment))
        for r, t in ((0.0, 0.0), (0.5, 0.7), (0.85, -2.0)):
            value, _, converged = q_point(source, r, t, spec=TIGHT)
            assert converged and value == pytest.approx(exact(r, t), abs=1e-12)

    @pytest.mark.parametrize("radial, rect", [
        (RhoPower(0.5), PolarRectangle.full_disk()),
        (RhoPower(0.5), PolarRectangle(0.3, 1.0, -PI, PI)),
        (PowerOfOneMinusRho(0.25), PolarRectangle(0.5, 0.9, -0.5, 0.5)),
    ], ids=["rho_half_disk", "rho_half_annulus", "one_minus_rho_inner"])
    def test_cos_sources_match_tight_adaptive(self, radial, rect):
        self.assert_spectral_matches_tight(SeparableOnRect(radial, AngularCos(1), rect))

    def test_weight_composes_with_log_end(self):
        # integer bounds: the log end is the int 0, and its panel still works in floats
        source = SeparableOnRect(RhoPower(1.5), AbsLogAbsPhi(), PolarRectangle(0, 1, 0, PI))
        assert [p.weight for p in source.pieces()] == [(0.0, 1.5)] * 2
        self.assert_spectral_matches_tight(source)

    def assert_spectral_matches_tight(self, source):
        fld = q_transform(source, self.GRID)
        assert fld.meta["engine"] == "spectral"
        expected = np.array([[q_point(source, float(r), float(t), spec=TIGHT)[0]
                              for t in self.GRID.angles] for r in self.GRID.radii])
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(fld.values - expected)) <= 1e-12 * scale


class TestSeparableMoments:
    """The trig moments of a piece are one radial moment times one angular
    moment per mode; both match closed forms, and the absolute mass is that
    of the source-value tensor."""

    K = 200
    k = np.arange(K + 1.0)

    def test_rho_power_cos_on_a_rectangle(self):
        m, n = 3, 2
        rect = PolarRectangle(0.2, 0.7, -0.5, 1.3)
        rho, w_rho = _radial_rule(rect, self.K, 2, None)
        panels = _angular_panels(rect.theta_lo, rect.theta_hi, self.K, 64, None)
        (cos_k, sin_k), mass = _trig_moments(RhoPower(m), AngularCos(n), rho, w_rho,
                                             panels, self.K)
        p = m + self.k + 2
        radial = (rect.r_hi**p - rect.r_lo**p) / p
        # cos(n phi) cos(k phi) = (cos((k-n) phi) + cos((k+n) phi)) / 2, and so on
        minus = _trig_integrals(self.k - n, rect.theta_lo, rect.theta_hi)
        plus = _trig_integrals(self.k + n, rect.theta_lo, rect.theta_hi)
        for got, exact in ((cos_k, radial * 0.5 * (minus[0] + plus[0])),
                           (sin_k, radial * 0.5 * (minus[1] + plus[1]))):
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))
        # the absolute mass is that of the tensor of source values
        ((offsets, weights, mids),) = panels
        phi = (mids[:, None] + offsets).ravel()
        w_phi = np.tile(weights, mids.size)
        tensor = (w_rho * rho**m)[:, None] * (w_phi * np.cos(n * phi))
        assert mass == pytest.approx(np.abs(tensor).sum(), rel=1e-14)

    def test_arc_angular_moments(self):
        lo, hi = 0.0, PI
        (arc,) = OnArc(AngularSin(1), lo, hi).pieces()
        panels = _angular_panels(lo, hi, self.K, 64, arc.log_end)
        (cos_k, sin_k), _ = _trig_moments(*arc.factors, *_radial_rule(arc.rect, self.K, 1, None),
                                          panels, self.K)
        # sin(phi) cos(k phi) = (sin((1+k) phi) + sin((1-k) phi)) / 2, and so on
        minus = _trig_integrals(1.0 - self.k, lo, hi)
        plus = _trig_integrals(1.0 + self.k, lo, hi)
        for got, exact in ((cos_k, 0.5 * (minus[1] + plus[1])),
                           (sin_k, 0.5 * (minus[0] - plus[0]))):
            assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))

    def test_non_finite_factor_takes_no_moments(self):
        rect = PolarRectangle(0.2, 0.7, -0.5, 1.3)
        rho, w_rho = _radial_rule(rect, self.K, 1, None)
        panels = _angular_panels(rect.theta_lo, rect.theta_hi, self.K, 32, None)
        nan_radial = lambda rho: np.where(rho > 0.5, np.nan, 1.0)
        nan_angular = lambda phi: np.where(phi > 1.0, np.inf, 1.0)
        assert _trig_moments(nan_radial, AngularOne(), rho, w_rho, panels, self.K) is None
        assert _trig_moments(RadialOne(), nan_angular, rho, w_rho, panels, self.K) is None


class TestShortTables:
    """Phases, radial powers and the grid synthesis, against the K-wide
    tables they replace."""

    ULP = 2.0**-52

    @pytest.mark.parametrize("n_theta", [1, 7, 13, 64])  # folded (n <= K+1) or padded
    def test_fft_synthesis_matches_products(self, n_theta):
        K = 12
        rng = np.random.default_rng(n_theta)
        coeffs = rng.standard_normal((3, K + 1)) + 1j * rng.standard_normal((3, K + 1))
        angles = EvaluationGrid.regular_angles(n_theta)
        got = _fft_synthesis(coeffs, n_theta)
        assert got.shape == (3, n_theta)
        # the FFT takes the exact angles -pi + 2 pi j / n, the exponential
        # sum their rounded values: k |delta theta| <= 12 * 4.4e-16 per mode
        scale = np.abs(coeffs).sum(axis=1, keepdims=True)
        direct = (coeffs @ np.exp(1j * np.outer(np.arange(K + 1), angles))).real
        assert np.all(np.abs(got - direct) <= 1e-14 * scale)

    # B = isqrt(K + 1) + 1 steps from 8 to 9 at K = 63 = 8^2 - 1; at K = 71
    # the 8 x 9 table of anchors by short exponents is full
    @pytest.mark.parametrize("K", [0, 1, 62, 63, 64, 71, 4972])
    def test_phases_match_exponentials(self, K):
        rng = np.random.default_rng(K)
        x = np.concatenate([[-PI, 0.0, PI, 1e-300], rng.uniform(-PI, PI, 60)])
        kx = np.outer(x, np.arange(K + 1))
        got = _phases(x, K)
        assert got.shape == kx.shape
        # both round the argument k x once: about one ulp of k |x| apart
        assert np.all(np.abs(got - np.exp(1j * kx)) <= 4.0 * self.ULP * (np.abs(kx) + 1.0))

    @pytest.mark.parametrize("K", [0, 1, 62, 63, 64, 71, 4972])
    def test_radial_moments_match_powers(self, K):
        # rho^k underflows past k = 102 for rho = 1e-3 and k = 153 for 0.01;
        # 1.0 never decays
        rho = np.array([1e-3, 0.01, 0.3, 0.9, 0.999, 1.0])
        r_vals = np.random.default_rng(K).standard_normal(rho.size)
        powers = rho[:, None] ** np.arange(K + 1)
        got = _radial_moments(r_vals, rho, K)
        assert got.shape == (K + 1,)
        bound = 4.0 * self.ULP * (np.abs(r_vals) @ powers) + 1e-300
        assert np.all(np.abs(got - r_vals @ powers) <= bound)


def test_spectral_memory_is_chunked():
    """Angular values and panel phases are held in blocks of panels, so a
    40 x 128 grid of the full-disk fig 3 source peaks well below the
    n_rho x n_phi tensor."""
    case = _q_case(3)
    grid = EvaluationGrid.regular(n_r=40, n_theta=128, r_max=0.9)
    q_transform(case.source, grid, case.prefactor)  # fills the node caches
    tracemalloc.start()
    try:
        fld = q_transform(case.source, grid, case.prefactor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fld.meta["engine"] == "spectral"
    assert peak <= 3e6
