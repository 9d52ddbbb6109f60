"""Steady-state heat solver on the disk and the transform-comparison harness.

The solver discretizes div(k grad u) = -f on a uniform polar mesh with a
finite-volume five-point stencil.  The origin is handled by averaging the
innermost ring (the origin value is the ring mean rather than a separate
balance equation).  The system is solved directly: a real FFT in theta
decouples it into one tridiagonal radial system per Fourier mode, the
fast Poisson solve of Swarztrauber & Sweet (SIAM J. Numer. Anal. 10, 1973).

The comparison harness puts the solver output next to the area-kernel
transform of the same source and reports correlation, the least-squares
scale factor, and the residual.  It deliberately makes no pass/fail
judgment: whether the transform reproduces the physical equilibrium is
an open question, and the report is the deliverable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonFiniteError
from .geometry import EvaluationGrid
from .quadrature import QuadratureSpec
from .sources import SourceFunction
from .transforms import Field, q_transform

TWO_PI = 2.0 * math.pi

BOUNDARY_TAGS = ("dirichlet_zero", "robin")


@dataclass(frozen=True)
class BoundaryCondition:
    """Outer-edge condition: u = 0, or Newton cooling -k du/dr = h u."""

    tag: str
    h: float | None = None

    def __post_init__(self):
        if self.tag not in BOUNDARY_TAGS:
            raise DomainError(f"unknown boundary tag {self.tag!r}, expected {BOUNDARY_TAGS}")
        if self.tag == "robin":
            if self.h is None or not (math.isfinite(self.h) and self.h > 0):
                raise DomainError("robin boundary needs a finite h > 0")
        elif self.h is not None:
            raise DomainError("dirichlet_zero takes no h")

    def describe(self) -> str:
        return self.tag if self.h is None else f"{self.tag}(h={self.h:g})"


@dataclass(frozen=True)
class HeatProblem:
    source: SourceFunction
    conductivity: float = 1.0
    boundary: BoundaryCondition = BoundaryCondition("dirichlet_zero")
    n_r: int = 128
    n_theta: int = 256

    def __post_init__(self):
        if self.conductivity <= 0:
            raise DomainError("conductivity must be positive")
        if self.n_r < 16 or self.n_theta < 16:
            raise DomainError("mesh resolutions must be >= 16")


@dataclass(frozen=True)
class ConjectureReport:
    correlation: float
    scale_factor: float
    residual_rms: float
    boundary_condition: str
    degenerate: bool
    n_points: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "correlation": self.correlation,
                "scale_factor": self.scale_factor,
                "residual_rms": self.residual_rms,
                "boundary_condition": self.boundary_condition,
                "degenerate": self.degenerate,
                "n_points": self.n_points,
            },
            indent=2,
        )


def _stencil(problem: HeatProblem):
    """Ring coefficients and right-hand side of the finite-volume balance.

    Unknowns sit on rings r_i = i*dr, i = 1 .. n_rings (the rim ring is
    included under Robin, as a half control volume).  Row (i, j) reads

        diag_i u[i,j] - b_i (u[i,j-1] + u[i,j+1])
            - a_in_i u[i-1,j] - a_out_i u[i+1,j] = rhs[i,j]

    with u[0,j] the ring-1 mean (origin closure), a_out_i = 0 on the last
    ring, and diag_i = 2 b_i + radial_i, radial_i = a_in_i + (outer flux
    or Robin loss).
    """
    n, m = problem.n_r, problem.n_theta
    k = problem.conductivity
    dr = 1.0 / n
    dt = TWO_PI / m
    robin = problem.boundary.tag == "robin"
    n_rings = n if robin else n - 1

    radii = dr * np.arange(1, n_rings + 1)
    theta = EvaluationGrid.regular_angles(m)
    f_vals = np.asarray(problem.source.values(radii[:, None], theta[None, :]), dtype=float)
    f_vals = np.broadcast_to(f_vals, (n_rings, m))
    if not np.all(np.isfinite(f_vals)):
        raise NonFiniteError("source is not finite at a mesh node")

    a_in = (radii - 0.5 * dr) / dr * dt
    a_out = (radii + 0.5 * dr) / dr * dt
    width = np.full(n_rings, dr)
    outer = a_out.copy()  # flux to the next ring, or to u = 0 beyond the last
    if robin:
        width[-1] = 0.5 * dr  # half control volume at the rim
        outer[-1] = problem.boundary.h / k * dt  # Newton loss through the rim
    a_out[-1] = 0.0
    b = width / (radii * dt)
    rhs = f_vals / k * (radii * width * dt)[:, None]
    return a_in, a_out, b, a_in + outer, rhs


def _apply_stencil(u, a_in, a_out, b, radial):
    """Matrix-free product of the finite-volume operator with ring values u."""
    inner = np.empty_like(u)
    inner[0] = u[0].mean()
    inner[1:] = u[:-1]
    outer = np.zeros_like(u)
    outer[:-1] = u[1:]
    around = np.roll(u, 1, axis=1) + np.roll(u, -1, axis=1)
    return ((radial + 2.0 * b)[:, None] * u - b[:, None] * around
            - a_in[:, None] * inner - a_out[:, None] * outer)


def solve_steady_state(problem: HeatProblem) -> Field:
    """Solve the steady-state balance on the mesh; returns the interior field.

    Every ring block of the operator is circulant in theta and the origin
    closure couples only the ring-1 mean, so the real FFT along theta
    splits the system into n_theta//2 + 1 independent tridiagonal radial
    systems, one per Fourier mode.  They are diagonally dominant and are
    solved together by one Thomas sweep over the rings; the inverse FFT
    returns the ring values.

    The recorded residual is the normwise backward error of the computed
    solution, ||r|| / (||A|| ||u|| + ||rhs||) in the max norm, with
    r = rhs - A u and A applied matrix-free; ||A|| is the largest row sum
    of |A|, max(radial + 4 b + a_in + a_out).  It measures the roundoff of
    the direct solve (~1e-16 when the solve is backward stable) and,
    unlike ||r|| / ||rhs||, does not grow with the mesh.

    The returned grid holds the origin plus rings at i/n_r for
    i = 1 .. n_r - 1 (the r = 1 boundary row is excluded: Dirichlet
    values are identically zero and Robin rim values are recorded in the
    metadata).
    """
    a_in, a_out, b, radial, rhs = _stencil(problem)
    n, m = problem.n_r, problem.n_theta
    # mode q of a circulant ring block: radial + 2 b (1 - cos(2 pi q / m))
    modes = np.arange(m // 2 + 1)
    d = radial[:, None] + 4.0 * b[:, None] * np.sin(math.pi * modes / m) ** 2
    d[0, 0] -= a_in[0]  # the origin closure returns a_in * mean to ring 1
    f = np.fft.rfft(rhs, axis=1)

    # Thomas sweep: sub-diagonal -a_in[i], super-diagonal -a_out[i]
    n_rings = rhs.shape[0]
    c = np.empty_like(d)
    g = np.empty_like(f)
    c[0] = -a_out[0] / d[0]
    g[0] = f[0] / d[0]
    for i in range(1, n_rings):
        pivot = d[i] + a_in[i] * c[i - 1]
        c[i] = -a_out[i] / pivot
        g[i] = (f[i] + a_in[i] * g[i - 1]) / pivot
    for i in range(n_rings - 2, -1, -1):
        g[i] -= c[i] * g[i + 1]
    rings = np.fft.irfft(g, n=m, axis=1)

    residual = float(np.max(np.abs(rhs - _apply_stencil(rings, a_in, a_out, b, radial))))
    a_norm = float(np.max(radial + 4.0 * b + a_in + a_out))
    scale = a_norm * float(np.max(np.abs(rings))) + float(np.max(np.abs(rhs)))
    dr = 1.0 / n
    origin = float(rings[0].mean())

    interior = n - 1  # rings strictly inside the disk
    values = np.empty((interior + 1, m))
    values[0, :] = origin
    values[1:, :] = rings[:interior]
    radii = dr * np.arange(0, interior + 1)
    grid = EvaluationGrid(radii, m, allow_near_boundary=True)
    meta = {
        "operator": "solve_steady_state",
        "source": problem.source.to_config(),
        "conductivity": problem.conductivity,
        "boundary": problem.boundary.describe(),
        "mesh": {"n_r": n, "n_theta": m},
        "solver": {"method": "fft_tridiagonal",
                   "residual": residual / scale if scale else residual},
    }
    if problem.boundary.tag == "robin":
        meta["rim_values_mean"] = float(rings[-1].mean())
    ok = np.ones_like(values, dtype=bool)
    return Field(grid=grid, values=values, converged=ok, errors=np.zeros_like(values), meta=meta)


def conjecture_run(
    source: SourceFunction,
    boundary: BoundaryCondition = BoundaryCondition("dirichlet_zero"),
    conductivity: float = 1.0,
    mesh: tuple = (128, 256),
    annulus: tuple = (0.1, 0.8),
    comparison_grid: tuple = (12, 32),
    spec: QuadratureSpec | None = None,
):
    """Run the comparison and return (report, solver field, transform field).

    The transform side uses the plain (prefactor 1) area transform, and
    the multiplicative constant of the comparison is estimated by least
    squares rather than assumed.
    """
    spec = spec or QuadratureSpec()
    problem = HeatProblem(
        source=source, conductivity=conductivity, boundary=boundary,
        n_r=mesh[0], n_theta=mesh[1],
    )
    u_fd = solve_steady_state(problem)
    grid = EvaluationGrid.regular(
        n_r=comparison_grid[0], n_theta=comparison_grid[1],
        r_max=annulus[1], r_min=annulus[0],
    )
    u_q = q_transform(source, grid, prefactor=1.0, spec=spec)

    mask = u_q.converged
    q_pts = u_q.values[mask]
    fd_pts = u_fd.interpolate(
        grid.radii[:, None] * np.ones_like(grid.angles)[None, :],
        np.ones_like(grid.radii)[:, None] * grid.angles[None, :],
    )[mask]

    q_norm_sq = float(np.dot(q_pts, q_pts))
    if q_norm_sq < 1e-300 or np.allclose(q_pts, 0.0, atol=1e-14):
        report = ConjectureReport(
            correlation=math.nan,
            scale_factor=0.0,
            residual_rms=float(np.sqrt(np.mean(fd_pts**2))),
            boundary_condition=boundary.describe(),
            degenerate=True,
            n_points=int(q_pts.size),
        )
        return report, u_fd, u_q
    scale = float(np.dot(fd_pts, q_pts) / q_norm_sq)
    residual_rms = float(np.sqrt(np.mean((fd_pts - scale * q_pts) ** 2)))
    if np.ptp(q_pts) == 0.0 or np.ptp(fd_pts) == 0.0:
        # the covariance is exactly zero: a constant field explains none of
        # the other's variation (the disk-indicator plateau is one)
        correlation = 0.0
    else:
        correlation = float(np.corrcoef(fd_pts, q_pts)[0, 1])
    report = ConjectureReport(
        correlation=correlation,
        scale_factor=scale,
        residual_rms=residual_rms,
        boundary_condition=boundary.describe(),
        degenerate=False,
        n_points=int(q_pts.size),
    )
    return report, u_fd, u_q


def radial_dirichlet_exact(r):
    """Equilibrium for unit source, unit conductivity, zero rim: (1-r^2)/4."""
    return (1.0 - np.asarray(r) ** 2) / 4.0


def radial_robin_exact(r, h: float):
    """Equilibrium for unit source under Newton cooling: (1-r^2)/4 + 1/(2h)."""
    return (1.0 - np.asarray(r) ** 2) / 4.0 + 1.0 / (2.0 * h)
