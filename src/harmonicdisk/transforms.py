"""The integral operators: boundary Poisson integral, area (Q) transform,
the self-reproducing harmonic representation, the derived orthogonal
projection onto square-integrable harmonic functions, and the weighted
analytic representation.

Fields are computed point by point with no interpolation or smoothing.
The three area-kernel grid operators (``q_transform``, ``harmonic_rep``,
``bergman_project``) are one evaluator, ``_q_field``, which differ only in
the prefactor and the constant subtracted from every point; the Poisson
integral runs the same plain double loop over its arcs.  Each source
piece is integrated by ``_integrate_piece``, which picks the singular or
the regular rule from the piece's declared ``beta``.  Grid and point
evaluators take the same path per point, so a CLI run and an in-process
call produce bitwise-identical values.

Point evaluators refuse radii above the 0.99 cap unless explicitly
overridden (kernel peak width ~ (1 - r*rho) drives quadrature cost);
grid evaluators rely on ``EvaluationGrid``, which applies the same cap
when the grid is built.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from .errors import DomainError
from .geometry import DEFAULT_RADIUS_CAP, EvaluationGrid, PolarRectangle
from .kernels import poisson_kernel, q_kernel
from .quadrature import (
    QuadratureSpec,
    integrate_angular,
    integrate_polar,
    integrate_singular_radial,
)
from .sources import BoundaryFunction, SourceFunction, SourcePiece

TWO_PI = 2.0 * math.pi


@dataclass
class Field:
    """Values of a computed function on an evaluation grid.

    ``meta`` carries everything needed to reproduce the run: operator
    name, source description, prefactor, quadrature spec.  ``converged``
    flags quadrature convergence per point; values are finite wherever
    the flag is set.
    """

    grid: EvaluationGrid
    values: np.ndarray
    converged: np.ndarray
    errors: np.ndarray
    meta: dict = dataclass_field(default_factory=dict)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def interpolate(self, r, theta):
        """Bilinear interpolation, periodic in theta, nearest beyond r_max."""
        return _bilinear_periodic(self.grid.radii, self.grid.angles, self.values, r, theta)


def _bilinear_periodic(radii, angles, values, r, theta):
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(r.shape, theta.shape)
    r = np.broadcast_to(r, shape).ravel()
    theta = np.broadcast_to(theta, shape).ravel()

    # periodic closure in theta
    ang = np.concatenate([angles, [angles[0] + TWO_PI]])
    vals = np.concatenate([values, values[:, :1]], axis=1)
    t = np.mod(theta - ang[0], TWO_PI) + ang[0]

    i = np.clip(np.searchsorted(radii, r) - 1, 0, radii.size - 2)
    j = np.clip(np.searchsorted(ang, t) - 1, 0, ang.size - 2)
    dr = radii[i + 1] - radii[i]
    wr = np.clip((r - radii[i]) / dr, 0.0, 1.0)
    wt = (t - ang[j]) / (ang[j + 1] - ang[j])
    out = (
        vals[i, j] * (1 - wr) * (1 - wt)
        + vals[i + 1, j] * wr * (1 - wt)
        + vals[i, j + 1] * (1 - wr) * wt
        + vals[i + 1, j + 1] * wr * wt
    )
    return out.reshape(shape) if shape else float(out[0])


def _check_radius(r, allow_near_boundary):
    if not 0.0 <= r < 1.0:
        raise DomainError(f"evaluation radius must lie in [0, 1), got {r}")
    if not allow_near_boundary and r > DEFAULT_RADIUS_CAP:
        raise DomainError(
            f"evaluation radius {r} > {DEFAULT_RADIUS_CAP} refused by default; "
            "pass allow_near_boundary=True to override"
        )


# ---------------------------------------------------------------------------
# Point evaluators
# ---------------------------------------------------------------------------


def _poisson_arcs_point(arcs, r, theta, spec):
    total, err, converged = 0.0, 0.0, True
    for arc in arcs:
        res = integrate_angular(
            lambda phi, fn=arc.fn: fn(phi) * poisson_kernel(r, theta - phi),
            arc.lo,
            arc.hi,
            spec,
        )
        total += res.value
        err += res.error_estimate
        converged &= res.converged
    return total / TWO_PI, err / TWO_PI, converged


def poisson_point(
    f: BoundaryFunction,
    r: float,
    theta: float,
    spec: QuadratureSpec | None = None,
    allow_near_boundary: bool = False,
):
    """(1/2pi) integral of f(phi) * P_r(theta - phi) over the circle."""
    _check_radius(r, allow_near_boundary)
    return _poisson_arcs_point(f.arcs(), r, theta, spec or QuadratureSpec())


def _integrate_piece(piece: SourcePiece, integrand, spec):
    """Integrate ``integrand`` times the piece's declared radial singularity
    (if any) over the piece's rectangle, under the measure rho drho dphi."""
    if piece.beta is None:
        return integrate_polar(integrand, piece.rect, spec)
    return integrate_singular_radial(integrand, piece.beta, piece.rect, spec)


def _q_pieces_point(pieces, r, theta, prefactor, spec):
    total, err, converged = 0.0, 0.0, True
    for piece in pieces:
        res = _integrate_piece(
            piece,
            lambda rho, phi, fn=piece.fn: fn(rho, phi) * q_kernel(r * rho, theta - phi),
            spec,
        )
        total += piece.coef * res.value
        err += abs(piece.coef) * res.error_estimate
        converged &= res.converged
    return prefactor * total, abs(prefactor) * err, converged


def q_point(
    f: SourceFunction,
    r: float,
    theta: float,
    prefactor: float = 1.0,
    spec: QuadratureSpec | None = None,
    allow_near_boundary: bool = False,
):
    """prefactor * integral of f(rho, phi) Q(r rho, theta - phi) rho drho dphi."""
    _check_radius(r, allow_near_boundary)
    return _q_pieces_point(f.pieces(), r, theta, prefactor, spec or QuadratureSpec())


def source_mass(f: SourceFunction, spec: QuadratureSpec | None = None) -> float:
    """integral of f over the disk under the measure rho drho dphi."""
    spec = spec or QuadratureSpec()
    total = 0.0
    for piece in f.pieces():
        total += piece.coef * _integrate_piece(piece, piece.fn, spec).value
    return total


def bergman_project_point(
    f: SourceFunction,
    r: float,
    theta: float,
    spec: QuadratureSpec | None = None,
    allow_near_boundary: bool = False,
    _mass: float | None = None,
):
    """Orthogonal projection onto square-integrable harmonic functions.

    P f = (2/pi) * (area transform of f) - (1/pi) * (disk integral of f);
    the subtraction makes P reproduce harmonic inputs exactly, including
    those with a nonzero value at the origin.
    """
    spec = spec or QuadratureSpec()
    mass = source_mass(f, spec) if _mass is None else _mass
    value, err, converged = q_point(
        f, r, theta, 2.0 / math.pi, spec, allow_near_boundary
    )
    return value - mass / math.pi, err, converged


# ---------------------------------------------------------------------------
# Grid transforms
# ---------------------------------------------------------------------------


def _grid_eval(point, grid: EvaluationGrid, meta: dict) -> Field:
    values = np.empty(grid.shape)
    errors = np.empty(grid.shape)
    converged = np.empty(grid.shape, dtype=bool)
    for i, r in enumerate(grid.radii):
        for j, theta in enumerate(grid.angles):
            values[i, j], errors[i, j], converged[i, j] = point(float(r), float(theta))
    return Field(grid=grid, values=values, converged=converged, errors=errors, meta=meta)


def _q_field(source: SourceFunction, grid: EvaluationGrid, prefactor: float,
             offset: float, spec: QuadratureSpec, meta: dict) -> Field:
    """prefactor * (area transform of source) - offset at every grid point."""
    pieces = source.pieces()

    def point(r, theta):
        value, err, converged = _q_pieces_point(pieces, r, theta, prefactor, spec)
        return value - offset, err, converged

    meta = {**meta, "source": source.to_config(), "prefactor": prefactor,
            "quadrature": asdict(spec)}
    return _grid_eval(point, grid, meta)


def poisson_integral(
    f: BoundaryFunction, grid: EvaluationGrid, spec: QuadratureSpec | None = None
) -> Field:
    """Solve the boundary-value problem: harmonic extension of f."""
    spec = spec or QuadratureSpec()
    arcs = f.arcs()
    meta = {
        "operator": "poisson_integral",
        "source": f.to_config(),
        "prefactor": 1.0 / TWO_PI,
        "quadrature": asdict(spec),
    }
    return _grid_eval(lambda r, t: _poisson_arcs_point(arcs, r, t, spec), grid, meta)


def q_transform(
    f: SourceFunction,
    grid: EvaluationGrid,
    prefactor: float = 1.0,
    spec: QuadratureSpec | None = None,
) -> Field:
    """Area-kernel transform of a square-integrable source.

    The prefactor is explicit because different identities carry
    different constants (1 for the plain transform, 2/pi for the
    reproducing representation); pass whichever the use case demands.
    """
    return _q_field(f, grid, prefactor, 0.0, spec or QuadratureSpec(),
                    {"operator": "q_transform"})


class CallableSource(SourceFunction):
    """Adapter exposing a plain callable u(rho, phi) as a full-disk source."""

    def __init__(self, fn, description="callable"):
        self._fn = fn
        self._description = description

    def values(self, rho, phi):
        return np.broadcast_to(
            np.asarray(self._fn(rho, phi), dtype=float),
            np.broadcast_shapes(np.shape(rho), np.shape(phi)),
        )

    def pieces(self):
        return [SourcePiece(1.0, PolarRectangle.full_disk(), self.values)]

    def to_config(self):
        return {"type": "callable", "description": self._description}


class GridResampledSource(SourceFunction):
    """A Field re-read as a full-disk source.

    Bilinear interpolation inside the field's radial range, periodic in
    theta.  Radii beyond r_max are filled by harmonic continuation of
    the outermost ring (Fourier coefficients of the ring propagated as
    c_k (rho/r_max)^|k|), which is exact for harmonic fields up to ring
    sampling error and degrades gracefully otherwise.
    """

    def __init__(self, source_field: Field):
        self._field = source_field
        grid = source_field.grid
        self._r_max = float(grid.radii[-1])
        ring = source_field.values[-1]
        self._ring_coeffs = np.fft.rfft(ring) / grid.n_theta
        self._theta0 = float(grid.angles[0])
        self._ks = np.arange(self._ring_coeffs.size)

    def _continue_outward(self, rho, phi):
        growth = (rho[..., None] / self._r_max) ** self._ks
        phases = np.exp(1j * self._ks * (phi[..., None] - self._theta0))
        terms = (self._ring_coeffs * growth * phases).real
        # rfft: interior modes appear once, so double all but k = 0 (and
        # the Nyquist mode for even ring sizes)
        weights = np.full(self._ks.size, 2.0)
        weights[0] = 1.0
        if self._field.grid.n_theta % 2 == 0:
            weights[-1] = 1.0
        return terms @ weights

    def values(self, rho, phi):
        rho_b, phi_b = np.broadcast_arrays(
            np.asarray(rho, dtype=float), np.asarray(phi, dtype=float)
        )
        inner = self._field.interpolate(rho_b, phi_b)
        outside = rho_b > self._r_max
        if np.any(outside):
            inner = np.where(
                outside, self._continue_outward(rho_b, phi_b), inner
            )
        return inner

    def pieces(self):
        return [SourcePiece(1.0, PolarRectangle.full_disk(), self.values)]

    def to_config(self):
        return {
            "type": "resampled_field",
            "operator": self._field.meta.get("operator", "unknown"),
        }


def harmonic_rep(
    u_sampled,
    u_at_origin: float,
    grid: EvaluationGrid,
    spec: QuadratureSpec | None = None,
) -> Field:
    """Reproduce a square-integrable harmonic function from interior data.

    u(r, theta) = -u(0) + (2/pi) * area transform of u.  For harmonic
    input the output matches the input on the grid.
    """
    source = u_sampled if isinstance(u_sampled, SourceFunction) else CallableSource(u_sampled)
    return _q_field(source, grid, 2.0 / math.pi, u_at_origin, spec or QuadratureSpec(),
                    {"operator": "harmonic_rep", "u_at_origin": u_at_origin})


def bergman_project(
    f: SourceFunction, grid: EvaluationGrid, spec: QuadratureSpec | None = None
) -> Field:
    """Orthogonal projection of f onto harmonic square-integrable functions."""
    spec = spec or QuadratureSpec()
    mean_term = source_mass(f, spec) / math.pi
    return _q_field(f, grid, 2.0 / math.pi, mean_term, spec,
                    {"operator": "bergman_project", "mean_term": mean_term})


def analytic_rep(
    taylor_coeffs,
    alpha: float,
    z: complex,
    spec: QuadratureSpec | None = None,
    allow_near_boundary: bool = False,
) -> complex:
    """Weighted integral representation of an analytic polynomial at z.

    ((1+alpha)/pi) * iint (1-rho^2)^alpha f(rho e^{i phi})
                          (1 - z rho e^{-i phi})^(-(2+alpha)) rho drho dphi

    with f given by its Taylor coefficients (f = sum c_n z^n).  For any
    alpha > -1 this reproduces f(z) at interior points.
    """
    spec = spec or QuadratureSpec()
    if alpha <= -1.0:
        raise DomainError("alpha must exceed -1")
    z = complex(getattr(z, "to_complex", lambda: z)())
    _check_radius(abs(z), allow_near_boundary)
    coeffs = np.asarray(taylor_coeffs, dtype=complex)
    if coeffs.ndim != 1 or coeffs.size == 0:
        raise DomainError("taylor_coeffs must be a non-empty 1-D sequence")
    powers = np.arange(coeffs.size)
    disk = PolarRectangle.full_disk()
    scale = (1.0 + alpha) / math.pi

    def complex_integrand(rho, phi):
        w = rho * np.exp(1j * phi)
        f_vals = (coeffs * w[..., None] ** powers).sum(axis=-1)
        base = 1.0 - z * rho * np.exp(-1j * phi)
        return scale * (1.0 - rho**2) ** alpha * f_vals * base ** (-(2.0 + alpha))

    re = integrate_polar(lambda r, p: complex_integrand(r, p).real, disk, spec)
    im = integrate_polar(lambda r, p: complex_integrand(r, p).imag, disk, spec)
    return complex(re.value, im.value)
