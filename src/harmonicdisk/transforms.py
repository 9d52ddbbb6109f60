"""The integral operators: boundary Poisson integral, area (Q) transform,
the self-reproducing harmonic representation, the derived orthogonal
projection onto square-integrable harmonic functions, and the weighted
analytic representation.

Two engines compute them, with no interpolation or smoothing in either.

* The point evaluators (``q_point``, ``poisson_point``, ...) run adaptive
  Gauss quadrature of the kernel times the source at one point.  Each
  source piece is integrated by ``_integrate_piece``, which weights the
  radius by the piece's declared ``weight`` |rho - end|^exponent and
  grades the angle towards its declared ``log_end``; each boundary arc by
  ``_integrate_arc``, which grades towards the arc's ``log_end``.
* The grid operators (``q_transform``, ``harmonic_rep`` and
  ``bergman_project``, one evaluator ``_q_field`` differing only in the
  prefactor and the constant subtracted; and ``poisson_integral``) take
  the spectral path when every piece of the source declares its
  ``factors`` (arcs always do: their ``fn`` is the angular factor).
  Both kernels have closed Fourier series, so the whole grid is a sum
  over modes k of w_k(r) [C_k cos k theta + S_k sin k theta], with the
  trig moments C_k, S_k of each piece taken once on fixed Gauss rules:
  a piece R(rho) A(phi) has C_k = (sum_i w_i R(rho_i) rho_i^k) *
  (sum_j w_j A(phi_j) cos k phi_j), and S_k likewise, on the radial rule
  of the piece's ``weight`` and the angular panels, the
  one that ends at a ``log_end`` graded towards it, as above.  The
  phases e^{i k phi} and the powers rho^k come from a table of about
  sqrt(K) anchors times a short table of about sqrt(K) entries, and on
  the angles of ``EvaluationGrid.regular`` the grid is synthesised by
  one inverse FFT per ring (no BLAS product, so no summation order that
  moves with the BLAS thread count).
  The series is cut where its tail bound drops below 1e-16 of the
  source's absolute mass.  Each point's error estimate is that tail plus
  the difference between the moments of the main rule and a rule of half
  the nodes; if any estimate exceeds ``spec.adaptive_tol``, or the source
  declares no factors (a callable), would need more modes than
  r_max * r_hi <= 0.99 allows, or has fewer grid points than K^2 / 1e4
  for K modes, the grid is computed point by point with the point
  evaluators instead, bit for bit as they would.

Field metadata records which engine ran (``engine``), the mode count of
the spectral path (``modes``), the accepted adaptive panels summed over
all points of the adaptive path (``panels``) and the number of
unconverged points (``unconverged``).

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
from .kernels import check_alpha, poisson_kernel, q_kernel
from .quadrature import (
    QuadratureSpec,
    _gauss_rule,
    _graded_rule,
    _map_nodes,
    integrate_angular,
    integrate_polar,
)
from .sources import BoundaryArc, BoundaryFunction, RadialOne, SourceFunction, SourcePiece

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


def _integrate_arc(arc: BoundaryArc, integrand, spec):
    """Integrate ``integrand`` over the arc, graded towards its declared
    logarithmic end (if any)."""
    return integrate_angular(integrand, arc.lo, arc.hi, spec, graded_end=arc.log_end)


def _sum_parts(parts, integrate):
    """(total, error, converged, panels) of the sum over the parts (pieces
    or arcs) of coef times ``integrate(part)``, a QuadratureResult."""
    total, err, converged, panels = 0.0, 0.0, True, 0
    for part in parts:
        res = integrate(part)
        total += part.coef * res.value
        err += abs(part.coef) * res.error_estimate
        converged &= res.converged
        panels += res.panels_used
    return total, err, converged, panels


def _poisson_arcs_point(arcs, r, theta, spec):
    """(value, error, converged, panels) of the Poisson integral at one point."""
    total, err, converged, panels = _sum_parts(arcs, lambda arc: _integrate_arc(
        arc, lambda phi: arc.fn(phi) * poisson_kernel(r, theta - phi), spec))
    return total / TWO_PI, err / TWO_PI, converged, panels


def poisson_point(
    f: BoundaryFunction,
    r: float,
    theta: float,
    spec: QuadratureSpec | None = None,
    allow_near_boundary: bool = False,
):
    """(1/2pi) integral of f(phi) * P_r(theta - phi) over the circle."""
    _check_radius(r, allow_near_boundary)
    return _poisson_arcs_point(f.arcs(), r, theta, spec or QuadratureSpec())[:3]


def _integrate_piece(piece: SourcePiece, integrand, spec):
    """Integrate ``integrand`` times the piece's declared radial weight
    (if any) over the piece's rectangle, under the measure rho drho dphi,
    graded towards its declared logarithmic angular end (if any)."""
    return integrate_polar(integrand, piece.rect, spec, graded_end=piece.log_end,
                           weight=piece.weight)


def _q_pieces_point(pieces, r, theta, prefactor, spec):
    """(value, error, converged, panels) of the area transform at one point."""
    total, err, converged, panels = _sum_parts(pieces, lambda piece: _integrate_piece(
        piece, lambda rho, phi: piece.fn(rho, phi) * q_kernel(r * rho, theta - phi), spec))
    return prefactor * total, abs(prefactor) * err, converged, panels


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
    return _q_pieces_point(f.pieces(), r, theta, prefactor, spec or QuadratureSpec())[:3]


def source_mass(f: SourceFunction, spec: QuadratureSpec | None = None) -> float:
    """integral of f over the disk under the measure rho drho dphi."""
    spec = spec or QuadratureSpec()
    return _sum_parts(f.pieces(), lambda piece: _integrate_piece(piece, piece.fn, spec))[0]


# ---------------------------------------------------------------------------
# Spectral grid engine
# ---------------------------------------------------------------------------
#
# Both kernels have closed Fourier series,
#   Q(s, psi) = sum_k (k+1) s^k cos(k psi),
#   P_r(psi)  = 1 + 2 sum_{k>=1} r^k cos(k psi),
# so a grid of either transform is sum_k w_k(r) [C_k cos k theta + S_k sin k theta]
# with the trig moments C_k, S_k = iint f rho^(k+1) (cos, sin)(k phi) drho dphi
# of an area source (rho = 1 and a single integral for boundary data).


@dataclass(frozen=True)
class _Series:
    """Mode weights w_k(r) of one kernel and the bound on its dropped tail."""

    weights: object  # (r, k) -> w_k(r), broadcasting
    tail: object  # (q, K) -> bound on sum_{k > K} w_k(r) r_hi^k, with q = r * r_hi


_Q_SERIES = _Series(
    weights=lambda r, k: (k + 1.0) * r**k,
    tail=lambda q, K: q ** (K + 1) * ((K + 2) - (K + 1) * q) / (1.0 - q) ** 2,
)
_POISSON_SERIES = _Series(
    weights=lambda r, k: np.where(k == 0, 1.0, 2.0) * r**k / TWO_PI,
    tail=lambda q, K: q ** (K + 1) / (math.pi * (1.0 - q)),
)

_TAIL_TOL = 1e-16  # truncation tail per unit absolute mass of the source
_MAX_RATIO = 0.99  # r_max * r_hi above this needs over ~5k modes: adaptive path
_MODES_SQ_PER_POINT = 1e4  # moments of K modes cost ~K^2 / 1e4 adaptive points
_ANGULAR_NODES = 32  # coarse Gauss-Legendre rule per angular panel (main: 64)
_CHUNK = 2 * _ANGULAR_NODES  # grid angles per block of phase tables off the regular angles
_BLOCK = 2**15  # panels x modes per block of panel phases and angular moments
_RADIAL_NODES = 8  # coarse radial nodes beyond those rho^K needs
_PANEL_PHASE = 24.0  # K * (panel half-width): the phase cos(k phi) turns through


def _mode_count(series: _Series, q: float):
    """Smallest K whose dropped tail is below _TAIL_TOL, or None above the cap."""
    if q > _MAX_RATIO:
        return None
    if q == 0.0:
        return 0
    K = max(0, int(math.log(_TAIL_TOL * (1.0 - q) ** 2) / math.log(q)) - 1)
    while series.tail(q, K) > _TAIL_TOL:
        K += 1
    return K


def _spectral_modes(series: _Series, parts, r_max: float):
    """Mode count per part (a SourcePiece or a BoundaryArc), or None when any
    part must take the adaptive path: a piece that declares no ``factors``
    (an arc always has its angular factor), or too many modes."""
    modes = []
    for part in parts:
        piece = isinstance(part, SourcePiece)
        if piece and part.factors is None:
            return None
        modes.append(_mode_count(series, r_max * (part.rect.r_hi if piece else 1.0)))
    return None if None in modes else modes


def _angular_panels(lo, hi, n_modes, n, log_end):
    """(offsets, weights, mids) groups of the n-point angular rules on the
    panels of [lo, hi], the nodes of a panel at mid + offsets.  The panels
    are narrow enough that cos(K phi) turns through at most
    2 * _PANEL_PHASE radians in each; the one that ends at ``log_end``
    takes the rule graded towards it, the others Gauss-Legendre."""
    m = max(1, math.ceil(n_modes * (hi - lo) / (2.0 * _PANEL_PHASE)))
    half = 0.5 * (hi - lo) / m
    mids = lo + half * (2.0 * np.arange(m) + 1.0)
    t, w = _gauss_rule(n)
    if log_end is None:
        return [(half * t, half * w, mids)]
    first = log_end == lo
    offsets, w_end = _graded_rule(2.0 * half if first else -2.0 * half, n)
    rest = mids[1:] if first else mids[:-1]
    return [(half * t, half * w, rest), (offsets, w_end, np.array([log_end], dtype=float))]


def _radial_rule(rect, n_modes, scale, weight):
    """``scale`` times the coarse rule on [r_lo, r_hi] of the radial
    ``weight`` (see ``_map_nodes``), with the Jacobian rho.  rho^K on an interval of
    half-width h and midpoint c needs about 3 sqrt(K h / c) nodes;
    _RADIAL_NODES more are left for the source's own radial shape."""
    spread = (rect.r_hi - rect.r_lo) / (rect.r_hi + rect.r_lo)
    n = _RADIAL_NODES + math.ceil(3.0 * math.sqrt(n_modes * spread))
    rho, w = _map_nodes(rect.r_lo, rect.r_hi, scale * n, weight)
    return rho, w * rho


def _split_modes(n_modes):
    """(b, anchors): the short exponents b < B and the anchors B q for
    B = isqrt(n_modes + 1) + 1, so that every mode k <= n_modes is
    B q + b, the entry (q, b) of an anchors x b table in row-major order,
    and about 2 sqrt(K) terms stand for the K + 1 modes."""
    B = math.isqrt(n_modes + 1) + 1
    return np.arange(B), B * np.arange(-(-(n_modes + 1) // B))


def _phases(x, n_modes):
    """e^{i k x} for k <= n_modes, one row per x: the anchors e^{i B q x}
    times the short table e^{i b x} (see ``_split_modes``), about 2 sqrt(K)
    exponentials per x instead of K."""
    b, anchors = _split_modes(n_modes)
    short = np.exp(1j * np.outer(x, b))
    table = np.exp(1j * np.outer(x, anchors))[:, :, None] * short[:, None, :]
    return table.reshape(short.shape[0], -1)[:, :n_modes + 1]


def _radial_moments(r_vals, rho, n_modes):
    """sum_i r_vals_i rho_i^k for k <= n_modes: the values times
    rho^anchor, summed against rho^b (see ``_split_modes``).  The sum is
    an einsum, not a BLAS product: OpenBLAS splits the product of the
    ~440 radial nodes near the cap by thread, and the summation order
    with it."""
    b, anchors = _split_modes(n_modes)
    anchored = r_vals[:, None] * rho[:, None] ** anchors
    return np.einsum("iq,ib->qb", anchored, rho[:, None] ** b).ravel()[:n_modes + 1]


def _trig_moments(radial, angular, rho, w_rho, panels, n_modes):
    """(C_k, S_k) for k <= n_modes, and the absolute mass, of the piece
    radial(rho) * angular(phi): the radial moment
    sum_i w_rho_i radial(rho_i) rho_i^k times the angular moments
    sum_j w_j angular(phi_j) (cos, sin)(k phi_j) over the angular rules of
    ``panels`` (see ``_angular_panels``), or None when a factor is not
    finite at a node.  The absolute mass is the product of the two sums of
    |w f| over the nodes.

    The nodes of a panel are mid + offsets, so C_k + i S_k is the sum over
    panels of e^{i k mid} times the panel's moment about its mid, one
    product of the angular values with the phases e^{i k offset} per
    group of panels, over blocks of panels of at most _BLOCK phases.
    The phases and the radial powers come from anchor and short tables
    (see ``_split_modes``), with no K-wide table of either."""
    r_vals = w_rho * radial(rho)
    if not np.all(np.isfinite(r_vals)):
        return None
    angular_moments = np.zeros(n_modes + 1, dtype=complex)
    angular_mass = 0.0
    step = max(1, _BLOCK // (n_modes + 1))
    for offsets, weights, mids in panels:
        # real and imaginary parts interleaved: the real angular values
        # take both in one real product, half the work of a complex one
        e_t = _phases(offsets, n_modes).view(float)
        for start in range(0, mids.size, step):
            mid = mids[start:start + step]
            a_vals = np.broadcast_to(np.asarray(angular(mid[:, None] + offsets), dtype=float),
                                     (mid.size, offsets.size))
            if not np.all(np.isfinite(a_vals)):
                return None
            a_vals = a_vals * weights
            angular_mass += float(np.abs(a_vals).sum())
            about_mids = (a_vals @ e_t).view(complex)  # panels x (K+1)
            angular_moments += np.einsum("pk,pk->k", _phases(mid, n_modes), about_mids)
    moments = _radial_moments(r_vals, rho, n_modes) * angular_moments
    return np.stack([moments.real, moments.imag]), float(np.abs(r_vals).sum()) * angular_mass


def _fft_synthesis(coeffs, n_theta):
    """Re sum_k coeffs[:, k] e^{i k theta_j} at the n_theta angles
    theta_j = -pi + 2 pi j / n_theta of ``EvaluationGrid.regular``: there
    e^{i k theta_j} = (-1)^k e^{2 pi i k j / n_theta}, so the modes, signed,
    are folded modulo n_theta in a fixed order (zero-pad, reshape, sum) and
    synthesised by one unscaled inverse FFT per ring."""
    n_r, n_k = coeffs.shape
    folded = np.zeros((n_r, -(-n_k // n_theta) * n_theta), dtype=complex)
    folded[:, :n_k] = coeffs
    folded[:, 1:n_k:2] *= -1.0
    folded = folded.reshape(n_r, -1, n_theta).sum(axis=1)
    return np.fft.ifft(folded, axis=1, norm="forward").real


def _product_synthesis(coeffs, angles):
    """Re sum_k coeffs[:, k] e^{i k theta} at any angles, in blocks of
    _CHUNK angles of phase tables."""
    n_modes = coeffs.shape[1] - 1
    return np.concatenate([(coeffs @ _phases(angles[start:start + _CHUNK], n_modes).T).real
                           for start in range(0, angles.size, _CHUNK)], axis=1)


def _spectral_field(series: _Series, parts, modes, grid: EvaluationGrid,
                    prefactor: float, offset: float, spec: QuadratureSpec):
    """Values and error estimates of prefactor * transform - offset on the
    grid from the trig moments of every part, or None when an error
    estimate exceeds ``spec.adaptive_tol`` (or the source is not finite at
    a node), so the caller falls back to the adaptive path.

    Each part's moments are taken with a main rule and a coarser one of
    half the nodes per direction; a point's error estimate is the series
    of their differences, summed in absolute value over the modes, plus
    the truncation tail bound.  The field is Re sum_k w_k(r) (C_k - i S_k)
    e^{i k theta}: one inverse FFT when the grid's angles equal those of
    ``EvaluationGrid.regular`` bit for bit, else a product with phase
    tables."""
    n_modes = max(modes)
    total = np.zeros((2, n_modes + 1))
    diff = np.zeros((2, n_modes + 1))
    radii = grid.radii
    tail = np.zeros(radii.size)
    for part, K in zip(parts, modes):
        scales = (2, 1)  # main rule, then the coarse one
        if isinstance(part, SourcePiece):
            (radial, angular), rect = part.factors, part.rect
            lo, hi, r_hi = rect.theta_lo, rect.theta_hi, rect.r_hi
            rules = [_radial_rule(rect, K, scale, part.weight) for scale in scales]
        else:  # a boundary arc: one radial node rho = 1 of weight 1
            radial, angular, r_hi = RadialOne(), part.fn, 1.0
            lo, hi = part.lo, part.hi
            rules = [(np.ones(1), np.ones(1))] * len(scales)
        got = [_trig_moments(radial, angular, rho, w_rho,
                             _angular_panels(lo, hi, K, scale * _ANGULAR_NODES, part.log_end), K)
               for (rho, w_rho), scale in zip(rules, scales)]
        if None in got:
            return None
        (main, mass), (coarse, _) = got
        total[:, :K + 1] += part.coef * main
        diff[:, :K + 1] += part.coef * (main - coarse)
        tail += abs(part.coef) * mass * series.tail(radii * r_hi, K)

    k = np.arange(n_modes + 1)
    w = series.weights(radii[:, None], k)
    errors = abs(prefactor) * (w @ np.abs(diff).sum(axis=0) + tail)
    if not np.all(errors <= spec.adaptive_tol):
        return None
    errors = np.repeat(errors[:, None], grid.n_theta, axis=1)
    coeffs = prefactor * w * (total[0] - 1j * total[1])  # n_r x (K+1)
    n_theta = grid.n_theta
    if np.array_equal(grid.angles, EvaluationGrid.regular_angles(n_theta)):
        values = _fft_synthesis(coeffs, n_theta)
    else:
        values = _product_synthesis(coeffs, grid.angles)
    values -= offset
    return values, errors, n_modes


# ---------------------------------------------------------------------------
# Grid transforms
# ---------------------------------------------------------------------------


def _grid_eval(point, series, parts, grid: EvaluationGrid, prefactor, offset,
               spec, meta: dict) -> Field:
    """The field of prefactor * transform - offset: spectral when every part
    declares its factors, the grid pays for the moments and the error
    estimates hold, else ``point`` at every grid point."""
    modes = _spectral_modes(series, parts, float(grid.radii[-1]))
    if modes and grid.n_r * grid.n_theta * _MODES_SQ_PER_POINT < max(modes) ** 2:
        modes = None  # too few points to pay for the moments
    spectral = modes and _spectral_field(series, parts, modes, grid, prefactor, offset, spec)
    if spectral:
        values, errors, n_modes = spectral
        converged = np.ones(grid.shape, dtype=bool)
        meta = {**meta, "engine": "spectral", "modes": n_modes}
    else:
        values = np.empty(grid.shape)
        errors = np.empty(grid.shape)
        converged = np.empty(grid.shape, dtype=bool)
        panels = 0
        for i, r in enumerate(grid.radii):
            for j, theta in enumerate(grid.angles):
                values[i, j], errors[i, j], converged[i, j], n = point(float(r), float(theta))
                panels += n
        meta = {**meta, "engine": "adaptive", "panels": panels}
    meta["unconverged"] = int(np.count_nonzero(~converged))
    return Field(grid=grid, values=values, converged=converged, errors=errors, meta=meta)


def _q_field(source: SourceFunction, grid: EvaluationGrid, prefactor: float,
             offset: float, spec: QuadratureSpec, meta: dict) -> Field:
    """prefactor * (area transform of source) - offset at every grid point."""
    pieces = source.pieces()

    def point(r, theta):
        value, err, converged, panels = _q_pieces_point(pieces, r, theta, prefactor, spec)
        return value - offset, err, converged, panels

    meta = {**meta, "source": source.to_config(), "prefactor": prefactor,
            "quadrature": asdict(spec)}
    return _grid_eval(point, _Q_SERIES, pieces, grid, prefactor, offset, spec, meta)


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
    return _grid_eval(lambda r, t: _poisson_arcs_point(arcs, r, t, spec),
                      _POISSON_SERIES, arcs, grid, 1.0, 0.0, spec, meta)


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
        return [SourcePiece(1.0, PolarRectangle.full_disk(), None, fn=self.values)]

    def to_config(self):
        return {"type": "callable", "description": self._description}


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
    """Orthogonal projection of f onto harmonic square-integrable functions.

    P f = (2/pi) * (area transform of f) - (1/pi) * (disk integral of f);
    the subtraction makes P reproduce harmonic inputs exactly, including
    those with a nonzero value at the origin.
    """
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
    finite alpha > -1 this reproduces f(z) at interior points.
    """
    spec = spec or QuadratureSpec()
    check_alpha(alpha)
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
