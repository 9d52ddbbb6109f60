"""Norms, harmonicity checking, and the runnable invariant suite.

``laplacian_residual`` measures how far a sampled function is from
harmonic using the polar form of the Laplacian,

    u_rr + u_r / r + u_tt / r^2,

discretized with second-order central differences.  Checks run on an
annulus only: the origin has a coordinate singularity and the outermost
radii carry the most quadrature noise.

Disk norms truncate at a configurable radius and report a crude tail
bound (sampled sup on the tail times tail area) instead of attempting
improper integrals of grid-sampled fields.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import (
    DomainError,
    IncompatibleKindError,
    StencilOutOfRangeError,
)
from .geometry import EvaluationGrid, PolarRectangle
from . import heatlab
from .heatlab import (
    BoundaryCondition,
    HeatProblem,
    radial_dirichlet_exact,
    radial_robin_exact,
)
from . import kernels as _kernels
from .quadrature import QuadratureSpec, integrate_angular, integrate_polar
from .sources import (
    _INDICATOR,
    BoundaryFunction,
    CharacteristicDisk,
    CharacteristicRect,
    SourceFunction,
    SourceSum,
    catalog_boundary_functions,
    catalog_q_sources,
    figure_case,
    parse_source_config,
    serialize_config,
)
from .transforms import (
    _MODES_SQ_PER_POINT,
    _POISSON_SERIES,
    _Q_SERIES,
    CallableSource,
    Field,
    _spectral_modes,
    poisson_integral,
    poisson_point,
    q_point,
    q_transform,
    source_mass,
)

TWO_PI = 2.0 * math.pi

NORM_KINDS = ("bergman_weighted", "harmonic_bergman_l2", "hardy_sup", "circle_l2")

# transforms.reproducing checks r^n cos(n theta) and r^n sin(n theta), n <= this
REPRODUCING_DEGREE = 3

# angles per ring of the verify.hardy_* invariants: the rectangle rule on
# fig 8's extension is ~1e-14 off the adaptive rule here, ~5e-8 at 256
HARDY_ANGLES = 512


@dataclass(frozen=True)
class NormSpec:
    """Which norm to compute and where to truncate disk integrals."""

    kind: str
    p: float = 2.0
    alpha: float = 0.0
    truncation_radius: float = 0.999

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise IncompatibleKindError(f"unknown norm kind {self.kind!r}")
        if self.p < 1.0:
            raise DomainError(f"p must be >= 1, got {self.p}")
        _kernels.check_alpha(self.alpha)
        if not 0.0 < self.truncation_radius <= 0.999:
            raise DomainError("truncation radius must lie in (0, 0.999]")


@dataclass(frozen=True)
class NormReport:
    value: float
    tail_bound: float
    truncation_radius: float


@dataclass
class HarmonicityReport:
    max_abs_residual: float
    normalized_max_residual: float
    residual_grid: np.ndarray
    annulus: tuple
    stencil_spacing: tuple


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def _cells(parts, edges):
    """(lo, hi, holders, graded_end) of each interval between consecutive
    angular ``edges`` that some of the parts hold (lo < its middle < hi):
    ``holders`` are those parts, and ``graded_end`` the declared
    ``log_end`` of a holder when it is lo or hi, else None."""
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        holders = [p for p in parts if p.lo < mid < p.hi]
        if holders:
            ends = [p.log_end for p in holders if p.log_end in (lo, hi)]
            yield lo, hi, holders, ends[0] if ends else None


def _partition_cells(source: SourceFunction, r_cap: float):
    """(cell, graded_end) of the cells on which the source is smooth,
    clipped to rho <= r_cap: the disk cut at every edge of a piece, each
    ring between two radial edges cut like the circle (see ``_cells``).

    Edges come from the pieces themselves, so rectangles with angle
    windows outside [-pi, pi] are covered too; cells intersecting no
    piece are dropped.
    """
    pieces = [p for p in source.pieces() if p.rect.r_lo < r_cap]
    r_edges = sorted({r for p in pieces for r in (p.rect.r_lo, min(p.rect.r_hi, r_cap))})
    t_edges = sorted({t for p in pieces for t in (p.lo, p.hi)})
    cells = []
    for r_lo, r_hi in zip(r_edges[:-1], r_edges[1:]):
        ring = [p for p in pieces if p.rect.r_lo < 0.5 * (r_lo + r_hi) < p.rect.r_hi]
        cells += [(PolarRectangle(r_lo, r_hi, lo, hi), end)
                  for lo, hi, _, end in _cells(ring, t_edges)]
    return cells


def _source_norm_report(source, spec: NormSpec, quad: QuadratureSpec) -> NormReport:
    r_cap = spec.truncation_radius
    total = 0.0
    for cell, graded_end in _partition_cells(source, r_cap):
        res = integrate_polar(
            lambda rho, phi: np.abs(source.values(rho, phi)) ** spec.p
            * (1.0 - rho) ** spec.alpha,
            cell,
            quad,
            graded_end=graded_end,
        )
        total += res.value
    # crude tail bound: sampled sup on the tail annulus times tail area
    tail = 0.0
    t_lo = min(p.lo for p in source.pieces())
    t_hi = max(p.hi for p in source.pieces())
    rho_s = np.linspace(r_cap, 1.0, 33)[:-1][:, None]
    phi_s = np.linspace(t_lo, t_hi, 65)[None, :]
    with np.errstate(divide="ignore", over="ignore"):
        tail_vals = np.abs(source.values(rho_s, phi_s)) ** spec.p * (1.0 - rho_s) ** spec.alpha
    sup = float(np.max(tail_vals))
    if math.isfinite(sup):
        tail = sup * 0.5 * (1.0 - r_cap**2) * TWO_PI
    else:
        tail = math.inf
    return NormReport(total ** (1.0 / spec.p), tail, r_cap)


def _field_norm_report(fld: Field, spec: NormSpec) -> NormReport:
    radii = fld.grid.radii
    mask = radii <= spec.truncation_radius
    radii = radii[mask]
    vals = np.abs(fld.values[mask]) ** spec.p * (1.0 - radii[:, None]) ** spec.alpha
    d_theta = TWO_PI / fld.grid.n_theta
    ring = vals.sum(axis=1) * d_theta  # periodic rectangle rule in theta
    total = float(np.trapezoid(ring * radii, radii))
    sup_outer = float(np.max(np.abs(fld.values[mask][-1]))) ** spec.p
    tail = sup_outer * 0.5 * (1.0 - radii[-1] ** 2) * TWO_PI
    return NormReport(total ** (1.0 / spec.p), tail, float(radii[-1]))


def _circle_l2_report(f: BoundaryFunction, quad: QuadratureSpec) -> NormReport:
    """The circle is cut at every arc end, as ``_partition_cells`` cuts each
    ring of the disk, so arcs that overlap are summed before they are
    squared."""
    arcs = f.pieces()
    total = 0.0
    for lo, hi, holders, end in _cells(arcs, sorted({x for a in arcs for x in (a.lo, a.hi)})):

        def square(phi, holders=holders):
            return sum(arc.coef * arc.factors[1](phi) for arc in holders) ** 2

        total += integrate_angular(square, lo, hi, quad, graded_end=end).value
    return NormReport(math.sqrt(total), 0.0, 1.0)


def circle_integral_of_square(u_of_theta, quad: QuadratureSpec | None = None) -> float:
    """integral over [-pi, pi) of u(theta)^2 d theta."""
    quad = quad or QuadratureSpec()
    res = integrate_angular(lambda t: np.asarray(u_of_theta(t)) ** 2, -math.pi, math.pi, quad)
    return res.value


def _ring_integrals_of_square(fld: Field) -> np.ndarray:
    """integral over each grid ring of u(r, theta)^2 d theta, by the periodic
    rectangle rule on the field's regular angles (geometrically convergent
    for smooth periodic u)."""
    return np.sum(fld.values**2, axis=1) * (TWO_PI / fld.grid.n_theta)


def _hardy_report(u, spec: NormSpec, quad: QuadratureSpec, radii=None) -> NormReport:
    if isinstance(u, Field):
        if radii is not None:
            raise DomainError("radii are taken from the field grid; pass None")
        sup = float(np.max(_ring_integrals_of_square(u)))
        return NormReport(sup, 0.0, float(u.grid.radii[-1]))
    if radii is None:
        radii = np.linspace(0.0, spec.truncation_radius, 17)
    sup = 0.0
    for r in radii:
        val = circle_integral_of_square(lambda t: u(float(r), t), quad)
        sup = max(sup, val)
    return NormReport(sup, 0.0, float(np.max(radii)))


def norm_report(f, spec: NormSpec, quad: QuadratureSpec | None = None, radii=None) -> NormReport:
    """Norm plus truncation-tail report; see ``norm`` for the dispatch rules."""
    quad = quad or QuadratureSpec()
    if spec.kind == "circle_l2":
        if not isinstance(f, BoundaryFunction):
            raise IncompatibleKindError("circle_l2 applies to boundary functions")
        return _circle_l2_report(f, quad)
    if spec.kind == "hardy_sup":
        if isinstance(f, (SourceFunction, BoundaryFunction)):
            raise IncompatibleKindError("hardy_sup applies to fields or callables u(r, theta)")
        return _hardy_report(f, spec, quad, radii)
    # disk norms
    eff = spec if spec.kind == "bergman_weighted" else NormSpec(
        "bergman_weighted", 2.0, 0.0, spec.truncation_radius
    )
    if isinstance(f, SourceFunction):
        return _source_norm_report(f, eff, quad)
    if isinstance(f, Field):
        return _field_norm_report(f, eff)
    raise IncompatibleKindError(
        f"{spec.kind} applies to sources or fields, got {type(f).__name__}"
    )


def norm(f, spec: NormSpec, quad: QuadratureSpec | None = None) -> float:
    """Norm of a source/field/boundary function under the given spec.

    bergman_weighted: p-th root of the (1-|z|)^alpha weighted disk
    integral, truncated; harmonic_bergman_l2: the same with p=2, alpha=0;
    hardy_sup: the sup over sampled radii of the circle integral of u^2
    (the integral itself, not its square root); circle_l2: boundary L2
    norm without the 1/2pi normalization.
    """
    return norm_report(f, spec, quad).value


# ---------------------------------------------------------------------------
# Harmonicity via the discrete polar Laplacian
# ---------------------------------------------------------------------------


def laplacian_residual(
    field_or_callable,
    annulus: tuple = (0.1, 0.8),
    spacings: tuple | None = None,
    n_r: int = 8,
    n_theta: int = 16,
) -> HarmonicityReport:
    """Central-difference residual of the polar Laplacian on an annulus.

    For a callable u(r, theta), samples an n_r x n_theta grid of stencil
    centers inside the annulus using the given spacings (h_r, h_theta).
    For a Field, uses the field's own grid spacings and its sample values
    (spacings must then be None).  Second-order accurate: the residual of
    a smooth harmonic function scales like h^2.
    """
    r_min, r_max = annulus
    if not 0.0 < r_min < r_max < 1.0:
        raise DomainError(f"annulus must satisfy 0 < r_min < r_max < 1, got {annulus}")

    if isinstance(field_or_callable, Field):
        if spacings is not None:
            raise DomainError("spacings are taken from the field grid; pass None")
        return _field_laplacian(field_or_callable, annulus)

    u = field_or_callable
    if spacings is None:
        raise DomainError("callable input requires explicit spacings (h_r, h_theta)")
    h_r, h_t = spacings
    if r_min < 2.0 * h_r:
        raise StencilOutOfRangeError(
            f"stencil would cross the origin: need r_min >= 2*h_r, got {r_min} < {2*h_r}"
        )
    rr = np.linspace(r_min, r_max, n_r)[:, None]
    tt = EvaluationGrid.regular_angles(n_theta)[None, :]
    points = ((rr, tt), (rr + h_r, tt), (rr - h_r, tt), (rr, tt + h_t), (rr, tt - h_t))
    values = [np.asarray(u(r, t), dtype=float) for r, t in points]
    return _stencil_report(*values, rr, h_r, h_t, annulus)


def _field_laplacian(fld: Field, annulus) -> HarmonicityReport:
    radii = fld.grid.radii
    if radii.size < 3 or fld.grid.n_theta < 2:
        raise StencilOutOfRangeError(f"the stencil needs 3 radii and 2 angles, got {fld.grid}")
    dr = np.diff(radii)
    if np.ptp(dr) > 1e-12 * dr[0]:
        raise DomainError("field-based residuals require uniform radii")
    # the grid's angles are regular; the step is taken as rounded there
    h_t = float(fld.grid.angles[1] - fld.grid.angles[0])
    # stencil centers: the interior grid radii inside the annulus
    rows = 1 + np.flatnonzero((radii[1:-1] >= annulus[0]) & (radii[1:-1] <= annulus[1]))
    if not rows.size:
        raise StencilOutOfRangeError("no interior grid radii inside the annulus")
    v = fld.values
    center = v[rows]
    return _stencil_report(center, v[rows + 1], v[rows - 1], np.roll(center, -1, axis=1),
                           np.roll(center, 1, axis=1), radii[rows][:, None],
                           float(dr[0]), h_t, annulus)


def _stencil_report(center, r_plus, r_minus, t_plus, t_minus, rr, h_r, h_t,
                    annulus) -> HarmonicityReport:
    """Five-point polar Laplacian at stencil centers of radii ``rr``, from
    the values there and one step h_r out and in, h_t forward and back."""
    residual = (
        (r_plus - 2.0 * center + r_minus) / h_r**2
        + (r_plus - r_minus) / (2.0 * h_r * rr)
        + (t_plus - 2.0 * center + t_minus) / (h_t**2 * rr**2)
    )
    scale = float(np.max(np.abs(center)))
    max_res = float(np.max(np.abs(residual)))
    return HarmonicityReport(
        max_abs_residual=max_res,
        normalized_max_residual=max_res / scale if scale > 0 else max_res,
        residual_grid=residual,
        annulus=annulus,
        stencil_spacing=(h_r, h_t),
    )


# ---------------------------------------------------------------------------
# Invariant suite
# ---------------------------------------------------------------------------


@dataclass
class InvariantRecord:
    id: str
    measured: float
    threshold: float
    comparator: str  # "<=" or ">="
    passed: bool
    note: str = ""
    seconds: float = dataclass_field(default=0.0, compare=False)  # wall time; not in the JSON


@dataclass
class SuiteReport:
    records: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> str:
        return json.dumps(
            {
                "all_passed": self.all_passed,
                "records": [
                    {
                        "id": r.id,
                        "measured": r.measured,
                        "threshold": r.threshold,
                        "comparator": r.comparator,
                        "passed": r.passed,
                        "note": r.note,
                    }
                    for r in self.records
                ],
            },
            indent=2,
        )


@dataclass
class SuiteConfig:
    """Knobs for the invariant suite; with the defaults the whole suite
    takes about a quarter of a second in a fresh process.  ``q_kernel_fn`` exists so tests can
    inject a corrupted kernel and watch the normalization check fail."""

    r_max: float = 0.9
    quad: QuadratureSpec = dataclass_field(default_factory=QuadratureSpec)
    q_kernel_fn: object = None
    include_heat: bool = True


class _Records(list):
    """Invariant records, each timed from the one before it (the first from
    the list's creation)."""

    def __init__(self):
        super().__init__()
        self.mark = time.perf_counter()


def _record(records, rec_id, measured, threshold, comparator="<=", note=""):
    if comparator == "<=":
        passed = measured <= threshold
    elif comparator == ">=":
        passed = measured >= threshold
    else:
        raise ValueError(comparator)
    now = time.perf_counter()
    records.append(InvariantRecord(rec_id, float(measured), float(threshold), comparator,
                                   bool(passed), note, now - records.mark))
    records.mark = now


def run_invariant_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Run the cross-module invariant checks and report machine-readably.

    Failures are data, not exceptions; the CLI maps them to a nonzero
    exit code.
    """
    cfg = config or SuiteConfig()
    q_fn = cfg.q_kernel_fn or _kernels.q_kernel
    quad = cfg.quad
    records = _Records()

    # --- kernels ---------------------------------------------------------
    rs = np.linspace(0.0, 0.99, 34)[:, None]
    thetas = np.linspace(-math.pi, math.pi, 41)[None, :]
    p_plus = _kernels.poisson_kernel(rs, thetas)
    p_minus = _kernels.poisson_kernel(rs, -thetas)
    _record(records, "kernels.poisson.evenness", np.max(np.abs(p_plus - p_minus)), 1e-12)
    q_plus = q_fn(rs, thetas)
    q_minus = q_fn(rs, -thetas)
    _record(records, "kernels.q.evenness", np.max(np.abs(q_plus - q_minus)), 1e-12)

    rel = np.max(np.abs(_kernels.poisson_kernel(rs, thetas + TWO_PI) - p_plus) / np.abs(p_plus))
    _record(records, "kernels.poisson.periodicity", rel, 1e-10, note="relative")
    rel = np.max(np.abs(q_fn(rs, thetas + TWO_PI) - q_plus) / np.maximum(np.abs(q_plus), 1e-3))
    _record(records, "kernels.q.periodicity", rel, 1e-10, note="relative")

    _record(records, "kernels.poisson.positivity", np.min(p_plus), 0.0, comparator=">=",
            note="strictly positive on dense sample")

    worst_min = -math.inf
    for s in (0.8, 0.85, 0.9, 0.95, 0.99):
        psi = np.linspace(0.0, math.pi, 2001)
        worst_min = max(worst_min, float(np.min(q_fn(s, psi))))
    _record(records, "kernels.q.sign_change", worst_min, -1e-12,
            note="min over psi must be negative for every s >= 0.8")

    rs9 = np.linspace(0.0, 0.9, 19)[:, None]
    series = _kernels.poisson_kernel_series(rs9, thetas, n_terms=400)
    _record(records, "kernels.poisson.series",
            np.max(np.abs(series - _kernels.poisson_kernel(rs9, thetas))), 1e-10)

    ss = np.linspace(0.0, 0.99, 34)
    peak_vals = q_fn(ss, 0.0)
    _record(records, "kernels.q.peak_value",
            np.max(np.abs(peak_vals * (1.0 - ss) ** 2 - 1.0)), 1e-12,
            note="Q(s, 0) = (1-s)^-2")
    psi_grid = np.linspace(-math.pi, math.pi, 801)
    peak_offsets = [abs(psi_grid[np.argmax(np.abs(q_fn(s, psi_grid)))]) for s in (0.3, 0.6, 0.9)]
    _record(records, "kernels.q.peak_location", max(peak_offsets), 1e-12,
            note="|Q| peaks at psi = 0")

    # --- quadrature ------------------------------------------------------
    rect = PolarRectangle(0.2, 0.7, -0.5, 1.3)
    worst = 0.0
    for m in (0, 3, 10):
        for k in (0, 4, 10):
            exact_r = (rect.r_hi ** (m + 2) - rect.r_lo ** (m + 2)) / (m + 2)
            if k == 0:
                exact_t = rect.theta_hi - rect.theta_lo
            else:
                exact_t = (math.sin(k * rect.theta_hi) - math.sin(k * rect.theta_lo)) / k
            res = integrate_polar(
                lambda rho, phi, m=m, k=k: rho**m * np.cos(k * phi), rect, quad
            )
            worst = max(worst, abs(res.value - exact_r * exact_t))
    _record(records, "quadrature.exactness", worst, 1e-12,
            note="rho^m cos(k phi), m,k <= 10")

    whole = integrate_polar(lambda r, p: np.exp(r) * np.cos(p), rect, quad).value
    left = integrate_polar(
        lambda r, p: np.exp(r) * np.cos(p), PolarRectangle(0.2, 0.45, -0.5, 1.3), quad
    ).value
    right = integrate_polar(
        lambda r, p: np.exp(r) * np.cos(p), PolarRectangle(0.45, 0.7, -0.5, 1.3), quad
    ).value
    _record(records, "quadrature.additivity", abs(whole - (left + right)), 1e-12)

    region = PolarRectangle(0.5, 1.0, 0.0, 1.0)
    smooth = lambda r, p: np.cos(p) * np.broadcast_to(r, np.broadcast_shapes(np.shape(r), np.shape(p))) ** 2
    sub = integrate_polar(smooth, region, quad, weight=(1.0, -1e-6)).value
    plain = integrate_polar(smooth, region, quad).value
    _record(records, "quadrature.substitution_beta_zero_limit", abs(sub - plain), 1e-6)

    disk = PolarRectangle.full_disk()
    worst = 0.0
    for r in np.linspace(0.0, cfg.r_max, 5):
        for theta in (-2.0, 0.4):
            res = integrate_polar(
                lambda rho, phi, r=r, theta=theta: q_fn(r * rho, theta - phi) / math.pi,
                disk,
                quad,
            )
            worst = max(worst, abs(res.value - 1.0))
    _record(records, "quadrature.q_normalization", worst, 1e-6,
            note="(1/pi) iint Q(r rho, theta - phi) rho = 1 for all r, theta")

    worst = 0.0
    q_cases = catalog_q_sources()
    points = ((0.6, 0.5), (0.85, -0.2), (0.0, 0.0), (0.3, 2.8), (0.95, 0.5),
              (0.95, 2.8), (0.99, 0.0), (0.999, 0.3), (0.999, 2.9))
    for fig_id in (4, 5, 9):
        q_case = q_cases[fig_id]
        exacts = q_case.prefactor * _indicator_q(q_case.source, *np.transpose(points))
        for (r, theta), exact in zip(points, exacts.tolist()):
            value, err, _ = q_point(q_case.source, r, theta, q_case.prefactor, quad,
                                    allow_near_boundary=True)
            worst = max(worst, abs(value - exact) / (err + 1e-12 * max(1.0, abs(exact))))
    _record(records, "quadrature.oracle_agreement", worst, 1.0,
            note="adaptive vs the closed-form transform of the indicators of figs 4, 5 "
                 "and 9 at 9 points up to r = 0.999: |gap| / (err + 1e-12 max(1, |exact|))")

    # --- sources ---------------------------------------------------------
    mismatches = 0
    for fig_id in range(1, 16):
        case = figure_case(fig_id)
        for obj in (case.boundary, case.source):
            if obj is not None and parse_source_config(serialize_config(obj)) != obj:
                mismatches += 1
    _record(records, "sources.roundtrip", mismatches, 0.0)

    missing = sum(1 for fig_id in range(1, 16) if figure_case(fig_id).id != fig_id)
    _record(records, "sources.catalog_complete", missing, 0.0)

    worst_norm = 0.0
    for q_case in q_cases.values():
        value = norm(q_case.source, NormSpec("harmonic_bergman_l2", truncation_radius=0.999), quad)
        if not math.isfinite(value):
            worst_norm = math.inf
            break
        worst_norm = max(worst_norm, value)
    _record(records, "sources.square_integrable", worst_norm, 20.0,
            note="largest truncated L2 norm across the catalog; must be finite")

    # --- transforms ------------------------------------------------------
    worst = 0.0
    for q_case in q_cases.values():
        mass = source_mass(q_case.source, quad)
        for theta in (0.0, 2.0):
            v, _, _ = q_point(q_case.source, 0.0, theta, q_case.prefactor, quad)
            worst = max(worst, abs(v - q_case.prefactor * mass))
    _record(records, "transforms.center_identity", worst, 1e-8,
            note="transform value at the origin equals prefactor * source mass")

    worst = 0.0
    for p_case in catalog_boundary_functions().values():
        v, _, _ = poisson_point(p_case.boundary, 0.0, 0.0, quad)
        average = source_mass(p_case.boundary, quad) / TWO_PI
        worst = max(worst, abs(v - average))
    _record(records, "transforms.mean_value", worst, 1e-8)

    rect_a = CharacteristicRect(PolarRectangle(0.3, 0.6, -0.4, 0.9))
    rect_b = CharacteristicRect(PolarRectangle(0.1, 0.8, 1.2, 2.0))
    combo = SourceSum(((0.7, rect_a), (-1.3, rect_b)))
    worst = 0.0
    for r, theta in ((0.5, 0.3), (0.8, -2.2)):
        v_sum, _, _ = q_point(combo, r, theta, 1.0, quad)
        v_a, _, _ = q_point(rect_a, r, theta, 1.0, quad)
        v_b, _, _ = q_point(rect_b, r, theta, 1.0, quad)
        worst = max(worst, abs(v_sum - (0.7 * v_a - 1.3 * v_b)))
    _record(records, "transforms.linearity", worst, 1e-10)

    delta = 0.35
    rect_r = CharacteristicRect(PolarRectangle(0.3, 0.6, -0.4 + delta, 0.9 + delta))
    worst = 0.0
    for r, theta in ((0.5, 0.3), (0.75, 1.0)):
        v_rot, _, _ = q_point(rect_r, r, theta + delta, 1.0, quad)
        v_orig, _, _ = q_point(rect_a, r, theta, 1.0, quad)
        worst = max(worst, abs(v_rot - v_orig))
    _record(records, "transforms.rotation_equivariance", worst, 1e-8)

    worst = 0.0
    for n in range(1, REPRODUCING_DEGREE + 1):
        for trig, name in ((np.cos, "cos"), (np.sin, "sin")):
            u = CallableSource(lambda rho, phi, n=n, trig=trig: rho**n * trig(n * phi))
            for r, theta in ((0.4, 0.7), (0.8, -1.9)):
                v, _, _ = q_point(u, r, theta, 2.0 / math.pi, quad)
                worst = max(worst, abs(v - r**n * trig(n * theta)))
    _record(records, "transforms.reproducing", worst, 1e-6,
            note=f"harmonic polynomials up to degree {REPRODUCING_DEGREE}")

    _record(records, "transforms.engine_agreement",
            _engine_disagreement(figure_case(13), cfg.r_max, quad), 1.0,
            note="spectral grid vs adaptive points, fig 13 Q and Poisson on 3x8: "
                 "|gap| / (err_adaptive + err_spectral + 1e-12 max(1, |value|))")

    # --- verify ----------------------------------------------------------
    exact = lambda rr, tt: rr**5 * np.cos(5 * tt)
    res_coarse = laplacian_residual(exact, (0.2, 0.8), (0.02, 0.02)).max_abs_residual
    res_fine = laplacian_residual(exact, (0.2, 0.8), (0.01, 0.01)).max_abs_residual
    ratio = res_coarse / res_fine
    _record(records, "verify.stencil_convergence_low", ratio, 3.5, comparator=">=",
            note="halving h divides the residual by ~4")
    _record(records, "verify.stencil_convergence_high", ratio, 4.5,
            note="upper side of the second-order window")

    worst = 0.0
    fig4_source = figure_case(4).source
    prev = None
    for alpha in (0.0, 0.5, 1.0):
        val = norm(fig4_source, NormSpec("bergman_weighted", 2.0, alpha, 0.999), quad)
        if prev is not None:
            worst = max(worst, val - prev)
        prev = val
    _record(records, "verify.norm_alpha_monotonic", worst, 1e-12,
            note="weighted norm non-increasing in alpha for bounded sources")

    boundary = figure_case(8).boundary
    rings = EvaluationGrid.regular(n_r=9, n_theta=HARDY_ANGLES, r_max=0.95)
    integrals = _ring_integrals_of_square(poisson_integral(boundary, rings, quad)).tolist()
    mono_violation = max(
        (integrals[i] - integrals[i + 1] for i in range(len(integrals) - 1)), default=0.0
    )
    _record(records, "verify.hardy_monotone", mono_violation, 1e-8,
            note="circle integrals of the harmonic extension increase with r")
    boundary_l2_sq = norm(boundary, NormSpec("circle_l2"), quad) ** 2
    _record(records, "verify.hardy_bounded", max(integrals) - boundary_l2_sq, 1e-6,
            note="sup_r circle integral <= boundary integral")

    # --- heat ------------------------------------------------------------
    if cfg.include_heat:
        _heat_suite_records(records)

    return SuiteReport(list(records))


# The solver is looked up on its module at call time, so a wrapper installed
# on heatlab.solve_steady_state (perfbench tracing) also sees these solves.
def _heat_max_error(problem, exact_fn) -> float:
    fld = heatlab.solve_steady_state(problem)
    return float(np.max(np.abs(fld.values - exact_fn(fld.grid.radii)[:, None])))


def _heat_suite_records(records):
    """Steady-state solver invariants against the radial closed forms."""
    unit = CharacteristicDisk(1.0)
    dirichlet = BoundaryCondition("dirichlet_zero")

    errs = {n: _heat_max_error(HeatProblem(unit, 1.0, dirichlet, n, 2 * n),
                               radial_dirichlet_exact)
            for n in (64, 128)}
    _record(records, "heat.dirichlet_accuracy", errs[128], 1e-3,
            note="unit source vs (1-r^2)/4 at 128x256")
    _record(records, "heat.solver_order", errs[64] / errs[128], 3.5, comparator=">=",
            note="doubling resolution divides the max error by >= 3.5")

    robin = BoundaryCondition("robin", h=1.0)
    _record(records, "heat.robin_accuracy",
            _heat_max_error(HeatProblem(unit, 1.0, robin, 128, 256),
                            lambda r: radial_robin_exact(r, 1.0)), 1e-3)

    bump = CharacteristicDisk(0.25)
    fld = heatlab.solve_steady_state(HeatProblem(bump, 1.0, dirichlet, 64, 128))
    _record(records, "heat.max_principle", float(np.min(fld.values)), -1e-10,
            comparator=">=", note="non-negative source gives non-negative field")

    fld_a = heatlab.solve_steady_state(HeatProblem(bump, 1.0, dirichlet, 32, 64))
    fld_b = heatlab.solve_steady_state(HeatProblem(unit, 1.0, dirichlet, 32, 64))
    fld_ab = heatlab.solve_steady_state(
        HeatProblem(SourceSum(((1.0, bump), (2.0, unit))), 1.0, dirichlet, 32, 64)
    )
    lin_err = float(np.max(np.abs(fld_ab.values - fld_a.values - 2.0 * fld_b.values)))
    _record(records, "heat.linearity", lin_err, 1e-8)

    fld_c = heatlab.solve_steady_state(HeatProblem(bump, 1.0, dirichlet, 32, 64))
    _record(records, "heat.determinism",
            float(np.max(np.abs(fld_c.values - fld_a.values))), 0.0,
            note="identical inputs give bitwise-identical fields")


def _engine_disagreement(case, r_max: float, quad: QuadratureSpec) -> float:
    """Largest gap between the spectral grid fields of a paired figure and
    the adaptive point evaluators on 3 x 8 points, in units of their joint
    error bound; inf when a grid does not take the spectral path.  The
    grids have 8 m angles, m the least that pays for their moments, and
    every m-th is compared."""
    source, prefactor, boundary = case.source, case.prefactor, case.boundary
    modes = [_spectral_modes(series, parts, r_max) or [0] for series, parts in
             ((_Q_SERIES, source.pieces()), (_POISSON_SERIES, boundary.pieces()))]
    step = max(1, math.ceil(max(map(max, modes)) ** 2 / _MODES_SQ_PER_POINT / 24))
    grid = EvaluationGrid.regular(n_r=3, n_theta=8 * step, r_max=r_max)
    pairs = (
        (q_transform(source, grid, prefactor, quad),
         lambda r, t: q_point(source, r, t, prefactor, quad)),
        (poisson_integral(boundary, grid, quad),
         lambda r, t: poisson_point(boundary, r, t, quad)),
    )
    worst = 0.0
    for fld, point in pairs:
        if fld.meta["engine"] != "spectral":
            return math.inf
        for i, r in enumerate(grid.radii.tolist()):
            for j in range(0, grid.n_theta, step):
                value, err, _ = point(r, float(grid.angles[j]))
                bound = err + fld.errors[i, j] + 1e-12 * max(1.0, abs(value))
                worst = max(worst, abs(fld.values[i, j] - value) / bound)
    return worst


# |c| below which _indicator_h sums its power series: the closed form's
# 1/c^2 terms cancel there (1.8e-13 off at |c| = 0.0225)
_SERIES_BELOW = 0.3


def _indicator_h(c, r0: float, r1: float):
    """H(c) = int rho [1/(1 - c rho) - ln(1 - c rho)] drho over [r0, r1],
    elementwise in the complex array c, |c| < 1.  The power series
    sum_k (1 + [k >= 1]/k) c^k (r1^(k+2) - r0^(k+2))/(k+2) is summed below
    _SERIES_BELOW (32 terms, each under 0.3^k), the antiderivative
    -rho/c - L/c^2 - (rho^2/2 - 1/(2c^2)) L + rho^2/4 + rho/(2c),
    L = ln(1 - c rho) on the principal branch, elsewhere."""
    k = np.arange(32)
    weights = np.append(1.0, 1.0 + 1.0 / k[1:])
    series = np.polynomial.polynomial.polyval(
        c, weights * (r1 ** (k + 2) - r0 ** (k + 2)) / (k + 2))
    small = np.abs(c) < _SERIES_BELOW
    c = np.where(small, 0.5, c)  # any |c| that keeps the unused closed form finite

    def antiderivative(rho):
        log = np.log(1.0 - c * rho)
        return (-rho / c - log / c**2 - (0.5 * rho**2 - 0.5 / c**2) * log
                + 0.25 * rho**2 + 0.5 * rho / c)

    return np.where(small, series, antiderivative(r1) - antiderivative(r0))


def _indicator_q(source: SourceFunction, r, theta):
    """The exact area transform (prefactor 1) of a sum of polar-rectangle
    indicators at (r, theta), elementwise for broadcasting arrays, r < 1.

    Q(s, psi) = Re (1 - s e^(i psi))^(-2) has the angular antiderivative
    i [ln t - ln(1 - t) + 1/(1 - t)] in t = r rho e^(i(theta - phi)), so
    with c_j = r e^(i(theta - phi_j)) the indicator of [r0, r1] x [phi0, phi1]
    transforms to (phi1 - phi0)(r1^2 - r0^2)/2 - Im[H(c1) - H(c0)]."""
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    total = 0.0
    for piece in source.pieces():
        if piece.factors != _INDICATOR or piece.weight is not None:
            raise DomainError("the closed form covers indicator pieces only")
        rect = piece.rect
        h = [_indicator_h(r * np.exp(1j * (theta - phi)), rect.r_lo, rect.r_hi)
             for phi in (rect.theta_lo, rect.theta_hi)]
        total = total + piece.coef * (
            0.5 * (rect.theta_hi - rect.theta_lo) * (rect.r_hi**2 - rect.r_lo**2)
            - np.imag(h[1] - h[0]))
    return total
