import math

import numpy as np
import pytest

from harmonicdisk.errors import DomainError, NonFiniteError
from harmonicdisk.geometry import EvaluationGrid, PolarRectangle
from harmonicdisk.heatlab import (
    BoundaryCondition,
    HeatProblem,
    conjecture_run,
    radial_dirichlet_exact,
    radial_robin_exact,
    solve_steady_state,
)
from harmonicdisk.sources import SourceSum, _indicator, figure_case

PI = math.pi
UNIT = _indicator(PolarRectangle.full_disk())
QUARTER = _indicator(PolarRectangle(0.0, 0.25, -PI, PI))  # the disk r <= 1/4
DIRICHLET = BoundaryCondition("dirichlet_zero")
ROBIN = BoundaryCondition("robin", 1.0)


def dense_reference(problem):
    """Ring values from a dense solve of the five-point finite-volume system,
    assembled row by row: the origin closure ties ring 1 to its own mean,
    the rim ring is a half cell under Robin and the Dirichlet zero sits one
    ring beyond the last unknown."""
    n, m, k = problem.n_r, problem.n_theta, problem.conductivity
    dr, dt = 1.0 / n, 2.0 * PI / m
    robin = problem.boundary.tag == "robin"
    n_rings = n if robin else n - 1
    matrix = np.zeros((n_rings * m, n_rings * m))
    rhs = np.zeros(n_rings * m)
    for i in range(1, n_rings + 1):
        r_i = i * dr
        half_cell = robin and i == n
        width = 0.5 * dr if half_cell else dr
        a_in = (r_i - 0.5 * dr) / dr * dt
        a_out = (r_i + 0.5 * dr) / dr * dt
        b = width / (r_i * dt)
        for j in range(m):
            row = (i - 1) * m + j
            matrix[row, row] += a_in + 2.0 * b
            matrix[row, (i - 1) * m + (j - 1) % m] -= b
            matrix[row, (i - 1) * m + (j + 1) % m] -= b
            if i == 1:
                matrix[row, 0:m] -= a_in / m
            else:
                matrix[row, row - m] -= a_in
            if half_cell:
                matrix[row, row] += problem.boundary.h / k * dt
            else:
                matrix[row, row] += a_out
                if i < n_rings:
                    matrix[row, row + m] -= a_out
            f = float(problem.source.values(r_i, -PI + j * dt))
            rhs[row] = f / k * r_i * width * dt
    return np.linalg.solve(matrix, rhs).reshape(n_rings, m)


def max_error_vs(field, exact_fn):
    return float(np.max(np.abs(field.values - exact_fn(field.grid.radii)[:, None])))


class TestSolver:
    @pytest.mark.parametrize("boundary", [DIRICHLET, ROBIN], ids=["dirichlet", "robin"])
    @pytest.mark.parametrize("n_theta", [16, 17])
    def test_matches_dense_reference(self, boundary, n_theta):
        problem = HeatProblem(figure_case(15).source, 1.5, boundary, 16, n_theta)
        fld = solve_steady_state(problem)
        ref = dense_reference(problem)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(fld.values[1:] - ref[:15])) <= 1e-12 * scale
        assert np.max(np.abs(fld.values[0] - ref[0].mean())) <= 1e-12 * scale
        if boundary is ROBIN:
            assert fld.meta["rim_values_mean"] == pytest.approx(ref[-1].mean(), abs=1e-12 * scale)

    def test_robin_residual_at_benchmark_mesh(self):
        src = figure_case(4).source
        fld = solve_steady_state(HeatProblem(src, 1.0, ROBIN, 192, 384))
        assert fld.meta["solver"]["method"] == "fft_tridiagonal"
        assert fld.meta["solver"]["residual"] <= 1e-10

    def test_dirichlet_residual_at_fine_mesh(self):
        # a backward error stays at roundoff as the mesh is refined;
        # ||rhs - A u|| / ||rhs|| alone reads 1.9e-10 on this solve
        src = figure_case(15).source
        fld = solve_steady_state(HeatProblem(src, 1.0, DIRICHLET, 1024, 2048))
        assert fld.meta["solver"]["residual"] <= 1e-10

    def test_unit_source_dirichlet(self):
        fld = solve_steady_state(HeatProblem(UNIT, 1.0, DIRICHLET, 128, 256))
        assert max_error_vs(fld, radial_dirichlet_exact) < 1e-3

    def test_zero_source(self):
        zero = SourceSum(((0.0, UNIT),))
        fld = solve_steady_state(HeatProblem(zero, 1.0, DIRICHLET, 32, 64))
        assert np.max(np.abs(fld.values)) < 1e-12

    def test_unit_source_robin(self):
        fld = solve_steady_state(HeatProblem(UNIT, 1.0, BoundaryCondition("robin", 1.0), 128, 256))
        assert max_error_vs(fld, lambda r: radial_robin_exact(r, 1.0)) < 1e-3

    def test_second_order_convergence(self):
        errs = {}
        for n in (64, 128):
            fld = solve_steady_state(HeatProblem(UNIT, 1.0, DIRICHLET, n, 2 * n))
            errs[n] = max_error_vs(fld, radial_dirichlet_exact)
        assert errs[64] / errs[128] >= 3.5

    def test_conductivity_scaling(self):
        base = solve_steady_state(HeatProblem(UNIT, 1.0, DIRICHLET, 32, 64))
        double = solve_steady_state(HeatProblem(UNIT, 2.0, DIRICHLET, 32, 64))
        assert np.max(np.abs(double.values - base.values / 2.0)) < 1e-10

    def test_maximum_principle(self):
        fld = solve_steady_state(HeatProblem(QUARTER, 1.0, DIRICHLET, 64, 128))
        assert np.min(fld.values) >= -1e-10

    def test_linearity(self):
        a = solve_steady_state(HeatProblem(QUARTER, 1.0, DIRICHLET, 32, 64))
        b = solve_steady_state(HeatProblem(UNIT, 1.0, DIRICHLET, 32, 64))
        ab = solve_steady_state(
            HeatProblem(SourceSum(((1.0, QUARTER), (2.0, UNIT))), 1.0, DIRICHLET, 32, 64)
        )
        assert np.max(np.abs(ab.values - a.values - 2.0 * b.values)) < 1e-8

    def test_deterministic(self):
        disk = _indicator(PolarRectangle(0.0, 0.4, -PI, PI))
        a = solve_steady_state(HeatProblem(disk, 1.0, DIRICHLET, 32, 64))
        b = solve_steady_state(HeatProblem(disk, 1.0, DIRICHLET, 32, 64))
        assert np.array_equal(a.values, b.values)

    def test_validation(self):
        with pytest.raises(DomainError):
            HeatProblem(UNIT, 0.0, DIRICHLET)
        with pytest.raises(DomainError):
            HeatProblem(UNIT, 1.0, DIRICHLET, 8, 64)
        with pytest.raises(DomainError):
            BoundaryCondition("robin")
        with pytest.raises(DomainError):
            BoundaryCondition("dirichlet_zero", h=1.0)
        with pytest.raises(DomainError):
            BoundaryCondition("mystery")

    def test_singular_source_robin_rejected(self):
        # Robin samples the source on the rim, where this one blows up
        src = figure_case(6).source
        with pytest.raises(NonFiniteError):
            solve_steady_state(HeatProblem(src, 1.0, BoundaryCondition("robin", 1.0), 32, 64))

    def test_field_structure(self):
        fld = solve_steady_state(HeatProblem(UNIT, 1.0, DIRICHLET, 32, 64))
        assert fld.grid.n_r == 32  # origin + 31 interior rings
        assert fld.grid.radii[0] == 0.0
        assert fld.grid.radii[-1] == pytest.approx(31.0 / 32.0)
        radii = np.arange(32) / 32.0
        assert fld.grid == EvaluationGrid(radii, 64, allow_near_boundary=True)
        assert np.ptp(fld.values[0]) == 0.0  # origin row is a single value
        assert fld.meta["boundary"] == "dirichlet_zero"


class TestConjectureHarness:
    def test_radial_plateau_source(self):
        # transform of the small disk indicator is constant; the solver
        # field is not, so this is a low-correlation case by construction
        report, u_fd, u_q = conjecture_run(
            QUARTER, DIRICHLET, mesh=(64, 128), comparison_grid=(8, 16)
        )
        assert report.n_points == 8 * 16
        assert not report.degenerate
        # the spectral q field is exactly constant, so it explains none of
        # the genuinely varying solver field: correlation 0
        assert u_q.meta["engine"] == "spectral" and np.ptp(u_q.values) == 0.0
        assert report.correlation == 0.0
        assert np.allclose(u_q.values, PI / 16.0, atol=1e-6)
        assert report.residual_rms < 1.0

    def test_interior_bump_both_boundaries(self):
        src = figure_case(15).source
        for boundary in (DIRICHLET, BoundaryCondition("robin", 1.0)):
            report = conjecture_run(
                src, boundary, mesh=(64, 128), comparison_grid=(6, 12)
            )[0]
            assert report.boundary_condition == boundary.describe()
            assert math.isfinite(report.scale_factor)
            assert math.isfinite(report.residual_rms)
            assert math.isfinite(report.correlation)

    def test_degenerate_zero_source(self):
        zero = SourceSum(((0.0, UNIT),))
        report = conjecture_run(zero, DIRICHLET, mesh=(32, 64), comparison_grid=(4, 8))[0]
        assert report.degenerate
        assert report.scale_factor == 0.0
        assert math.isnan(report.correlation)

    def test_report_determinism(self):
        a = conjecture_run(QUARTER, DIRICHLET, mesh=(32, 64), comparison_grid=(4, 8))[0]
        b = conjecture_run(QUARTER, DIRICHLET, mesh=(32, 64), comparison_grid=(4, 8))[0]
        assert a == b

    def test_report_serialization(self):
        import json

        report = conjecture_run(
            QUARTER, DIRICHLET, mesh=(32, 64), comparison_grid=(4, 8)
        )[0]
        doc = json.loads(report.to_json())
        assert set(doc) == {
            "correlation", "scale_factor", "residual_rms",
            "boundary_condition", "degenerate", "n_points",
        }
