import math

import numpy as np
import pytest

from harmonicdisk.errors import DomainError
from harmonicdisk.geometry import EvaluationGrid, PolarRectangle
from harmonicdisk.quadrature import QuadratureSpec
from harmonicdisk.sources import (
    AbsTheta,
    AngularCos,
    CharacteristicArc,
    CharacteristicDisk,
    CharacteristicRect,
    ConstantOne,
    Cosine,
    RhoPower,
    SeparableOnRect,
    SourceSum,
    figure_case,
)
from harmonicdisk.transforms import (
    CallableSource,
    GridResampledSource,
    analytic_rep,
    bergman_project,
    bergman_project_point,
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
        fld = poisson_integral(ConstantOne(), small_grid(), TIGHT)
        assert np.max(np.abs(fld.values - 1.0)) < 1e-12
        assert fld.converged.all()

    def test_cosine_gives_r_cos_theta(self):
        grid = small_grid()
        fld = poisson_integral(Cosine(1), grid, TIGHT)
        expected = grid.radii[:, None] * np.cos(grid.angles[None, :])
        assert np.max(np.abs(fld.values - expected)) < 1e-9

    def test_arc_mean_value(self):
        v, _, _ = poisson_point(CharacteristicArc(-PI / 6, PI / 6), 0.0, 0.7, TIGHT)
        assert v == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_abs_theta_mean_value(self):
        v, _, _ = poisson_point(AbsTheta(), 0.0, -2.0, TIGHT)
        assert v == pytest.approx(PI / 2.0, abs=1e-9)

    def test_harmonic_measure_closed_form(self):
        arc = CharacteristicArc(-PI / 6, PI / 6)
        for r, theta in ((0.3, 0.2), (0.7, -1.0), (0.9, 2.0), (0.5, 0.0)):
            v, _, _ = poisson_point(arc, r, theta, TIGHT)
            assert v == pytest.approx(
                harmonic_measure_oracle(r, theta, -PI / 6, PI / 6), abs=1e-10
            )

    def test_near_boundary_value(self):
        v, _, _ = poisson_point(
            CharacteristicArc(-PI / 6, PI / 6), 0.99, 0.0, TIGHT, allow_near_boundary=True
        )
        assert v == pytest.approx(
            harmonic_measure_oracle(0.99, 0.0, -PI / 6, PI / 6), abs=1e-9
        )
        assert v > 0.9


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
            case = figure_case(fig_id).payload
            q_case = case.q if hasattr(case, "q") else case
            mass = source_mass(q_case.source, TIGHT)
            v, _, _ = q_point(q_case.source, 0.0, 0.0, q_case.prefactor, TIGHT)
            assert v == pytest.approx(q_case.prefactor * mass, abs=1e-10)

    def test_fig15_center_closed_form(self):
        # radial integral has an erf closed form; angular integral is 1
        src = figure_case(15).payload.source
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
        v, _, _ = bergman_project_point(src, 0.6, 0.4, TIGHT)
        assert v == pytest.approx(0.6 * math.cos(0.4), abs=1e-9)


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
        with pytest.raises(DomainError):
            analytic_rep([1.0], -1.0, 0.1 + 0j)
        with pytest.raises(DomainError):
            analytic_rep([1.0], 0.0, 1.2 + 0j)
        with pytest.raises(DomainError):
            analytic_rep([], 0.0, 0.1 + 0j)


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            EvaluationGrid(np.array([0.5, 0.2]), np.array([0.0]))
        with pytest.raises(DomainError):
            EvaluationGrid(np.array([0.0, 0.995]), np.array([0.0]))
        EvaluationGrid(np.array([0.0, 0.995]), np.array([0.0]), allow_near_boundary=True)
        with pytest.raises(DomainError):
            EvaluationGrid.regular(n_r=4, n_theta=8, r_max=1.0, r_min=0.0)

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
        from harmonicdisk.transforms import Field

        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=np.zeros_like(values))
        assert fld.interpolate(0.45, 0.3) == pytest.approx(0.45 * math.cos(0.3), abs=1e-3)
        # beyond r_max: nearest radial extension
        assert fld.interpolate(0.99, 0.0) == pytest.approx(0.9, abs=1e-3)

    def test_resampled_source_matches_field(self):
        grid = EvaluationGrid.regular(n_r=20, n_theta=48, r_max=0.9)
        values = np.broadcast_to(grid.radii[:, None] ** 2, grid.shape).copy()
        from harmonicdisk.transforms import Field

        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=np.zeros_like(values))
        src = GridResampledSource(fld)
        assert src.values(0.5, 1.0) == pytest.approx(0.25, abs=1e-3)

    def test_resampled_source_harmonic_tail(self):
        # beyond the grid the resampler continues the outer ring
        # harmonically: exact for r^n cos(n theta) fields
        grid = EvaluationGrid.regular(n_r=20, n_theta=48, r_max=0.9)
        values = grid.radii[:, None] ** 3 * np.cos(3 * grid.angles[None, :])
        from harmonicdisk.transforms import Field

        fld = Field(grid=grid, values=values, converged=np.ones_like(values, bool),
                    errors=np.zeros_like(values))
        src = GridResampledSource(fld)
        assert src.values(0.98, 0.4) == pytest.approx(
            0.98**3 * math.cos(1.2), abs=1e-12
        )


class TestGridMatchesPoint:
    """The grid operators the CLI writes and the point evaluators `verify`
    checks must give the same bits, value, error and flag, at every point."""

    GRID = EvaluationGrid.regular(n_r=3, n_theta=8, r_max=0.85)

    def assert_same(self, fld, point):
        expected = [[point(float(r), float(t)) for t in self.GRID.angles]
                    for r in self.GRID.radii]
        for k, got in enumerate((fld.values, fld.errors, fld.converged)):
            assert np.array_equal(got, np.array([[p[k] for p in row] for row in expected]))

    def test_q_transform_singular_sum(self):
        case = figure_case(7).payload
        fld = q_transform(case.source, self.GRID, case.prefactor)
        self.assert_same(fld, lambda r, t: q_point(case.source, r, t, case.prefactor))

    def test_bergman_project(self):
        src = figure_case(7).payload.source
        fld = bergman_project(src, self.GRID)
        self.assert_same(fld, lambda r, t: bergman_project_point(src, r, t))

    def test_harmonic_rep(self):
        u = lambda rho, phi: 1.0 + rho * np.cos(phi)
        fld = harmonic_rep(u, 1.0, self.GRID)

        def point(r, t):
            value, err, converged = q_point(CallableSource(u), r, t, 2.0 / PI)
            return value - 1.0, err, converged

        self.assert_same(fld, point)

    @pytest.mark.parametrize("fig_id", [10, 14])
    def test_poisson_integral(self, fig_id):
        payload = figure_case(fig_id).payload
        boundary = getattr(payload, "poisson", payload).boundary
        fld = poisson_integral(boundary, self.GRID)
        self.assert_same(fld, lambda r, t: poisson_point(boundary, r, t))
