"""Adaptive Gauss quadrature over polar rectangles and arcs.

One engine serves every entry point: a panel is a tuple of one interval
(an arc, for circle integrals) or two intervals (a polar rectangle,
radius first), and the same adaptive loop refines both.

* The Jacobian rho of the measure rho drho dphi is applied by the
  quadrature layer -- integrands are plain functions g(rho, phi) or
  g(phi).
* Integrands must accept numpy arrays and broadcast: 2-D integrands are
  called with a column of radii and a row of angles and must return the
  (n_r, n_phi) tensor of values.
* Per-panel error = |G_n - G_2n| (same rule at doubled node counts).  A
  panel is accepted when that difference drops below the absolute
  per-panel tolerance or at ``max_depth``; otherwise it is bisected.  A
  two-interval panel probes each direction at doubled nodes and splits
  where the estimate moved most (ties go to the angular direction, where
  the integral kernels of this package peak).
* The final value is an fsum over accepted panels in a fixed depth-first
  order, so results are deterministic no matter how panels would be
  scheduled.

Integrable endpoint singularities are declared by the source, never
found by bisection.  Both engines give a panel ending at one its own rule:

* radially, a factor |rho - end|^exponent (``SourcePiece.weight``) is the
  weight of ``_map_nodes``: Gauss-Jacobi on a panel ending at ``end``,
  exact for the weight times any polynomial of degree 2n - 1;
* angularly, a logarithmic singularity at one end e of the angular
  interval (``SourcePiece.log_end``, ``BoundaryArc.log_end``, every entry
  point's ``graded_end``) is graded by ``_angular_rule`` on a panel
  ending at e: phi = e + (o - e) t^q on t in [0, 1], o the other end,
  with Jacobian |o - e| q t^(q - 1).  With q = GRADING_POWER = 4 the
  transformed integrand of ln|phi - e| is t^3 ln t up to smooth factors,
  which one Gauss-Legendre panel resolves to roundoff.  A bisected panel
  that still ends at e stays graded, the other half plain.  Weight and
  grading act on different axes and compose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidExponentError, InvalidRegionError, NonFiniteError
from .geometry import PolarRectangle

GRADING_POWER = 4  # q of the angular grading phi = e + (o - e) t^q


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts and refinement controls governing one integral.

    ``adaptive_tol`` is an absolute per-panel tolerance; the error
    estimate of a converged result is bounded by adaptive_tol times the
    number of panels used.
    """

    nodes_radial: int = 32
    nodes_angular: int = 64
    adaptive_tol: float = 1e-9
    max_depth: int = 12

    def __post_init__(self):
        if self.nodes_radial < 1 or self.nodes_angular < 1:
            raise InvalidRegionError("node counts must be positive")
        if not 0.0 < self.adaptive_tol < math.inf:
            raise InvalidRegionError("adaptive_tol must be positive and finite")
        if not 1 <= self.max_depth <= 30:
            raise InvalidRegionError("max_depth must lie in [1, 30]")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    panels_used: int
    converged: bool


@lru_cache(maxsize=64)
def _gauss_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


@lru_cache(maxsize=64)
def _jacobi_rule(n: int, a: float, b: float):
    """The n-point Gauss rule of the weight (1 - x)^a (1 + x)^b on [-1, 1]:
    the eigenvalues and first eigenvector components of its Jacobi matrix
    (Golub & Welsch, Math. Comp. 23, 1969)."""
    k = np.arange(1, n)
    s = 2.0 * k + a + b
    diagonal = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    # off-diagonal^2 = 4 p q / (s^2 (s + 1) d); q = d = 1 + a + b at k = 1
    # cancel, and vanish for a + b = -1, so both are p there
    p, q, d = (k + a) * (k + b), k * (k + a + b), s - 1.0
    q[:1] = d[:1] = p[:1]
    off = 2.0 * np.sqrt(p * q) / (s * np.sqrt((s + 1.0) * d))
    nodes, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    # the weights sum to the mass 2^(a+b+1) B(a+1, b+1), exactly 2^(a+1) / (a+1) at b = 0
    mass = 2.0 ** (a + b + 1.0) / (a + 1.0) * (math.gamma(a + 2.0) * math.gamma(b + 1.0)
                                               / math.gamma(a + b + 2.0))
    return nodes, mass * vectors[0] ** 2


def _map_nodes(lo: float, hi: float, n: int, weight: tuple | None = None):
    """n nodes and weights on [lo, hi] of the weight (end, exponent),
    |rho - end|^exponent, if given: Gauss-Jacobi on a panel ending at
    ``end``, and Gauss-Legendre times the weight on any other."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if weight is not None and weight[0] in (lo, hi):
        end, exponent = weight
        nodes, weights = _jacobi_rule(n, *((exponent, 0.0) if end == hi else (0.0, exponent)))
        return mid + half * nodes, half ** (1.0 + exponent) * weights
    nodes, weights = _gauss_rule(n)
    rho = mid + half * nodes
    return rho, half * weights * (1.0 if weight is None else np.abs(rho - weight[0]) ** weight[1])


def _graded_rule(span: float, n: int):
    """n offsets from a log point e, and their weights, on the panel from e
    to e + span (span of either sign): span t^q on the Gauss-Legendre
    nodes t of [0, 1], with the Jacobian |span| q t^(q - 1)."""
    nodes, weights = _gauss_rule(n)
    t = 0.5 + 0.5 * nodes
    slope = t ** (GRADING_POWER - 1)
    return span * (slope * t), 0.5 * abs(span) * GRADING_POWER * slope * weights


def _angular_rule(lo: float, hi: float, n: int, end: float | None):
    """n angles and weights on [lo, hi]: graded towards ``end`` on a panel
    that ends there, Gauss-Legendre on any other."""
    if end not in (lo, hi):
        return _map_nodes(lo, hi, n)
    offsets, weights = _graded_rule((hi if end == lo else lo) - end, n)
    return end + offsets, weights


def _finite_values(raw, shape, panel):
    values = np.broadcast_to(np.asarray(raw, dtype=float), shape)
    if not np.all(np.isfinite(values)):
        bounds = "x".join(f"[{lo},{hi}]" for lo, hi in panel)
        raise NonFiniteError(f"integrand returned NaN/inf on panel {bounds}")
    return values


def _panel_rule(integrand, panel, counts, weight, end):
    """One Gauss rule over a panel of one interval (an angle) or two (a polar
    rectangle, with the Jacobian rho and the radial ``weight``),
    the angle graded towards ``end`` on a panel that ends there."""
    phi, w_p = _angular_rule(*panel[-1], counts[-1], end)
    if len(panel) == 1:
        return float(w_p @ _finite_values(integrand(phi), phi.shape, panel))
    x, w = _map_nodes(*panel[0], counts[0], weight)
    values = _finite_values(integrand(x[:, None], phi[None, :]), (x.size, phi.size), panel)
    return float(w @ (values * x[:, None]) @ w_p)


def _adaptive(integrand, panel, spec, weight=None, end=None):
    """The adaptive bisection loop behind every public entry point.

    ``panel`` is ((phi_lo, phi_hi),) for a 1-D angular integral or
    ((r_lo, r_hi), (phi_lo, phi_hi)) for a polar rectangle.  ``end``, when
    given, must be phi_lo or phi_hi; every panel that ends there is graded.
    """
    lo, hi = panel[-1]
    if end is not None and end not in (lo, hi):
        raise InvalidRegionError(f"graded end {end} is not an end of [{lo}, {hi}]")
    counts = (spec.nodes_radial, spec.nodes_angular)[-len(panel):]
    fine_counts = tuple(2 * n for n in counts)
    stack = [(panel, 0)]
    values = []
    errors = []
    all_converged = True
    while stack:
        panel, depth = stack.pop()
        coarse = _panel_rule(integrand, panel, counts, weight, end)
        fine = _panel_rule(integrand, panel, fine_counts, weight, end)
        err = abs(fine - coarse)
        if err <= spec.adaptive_tol or depth >= spec.max_depth:
            values.append(fine)
            errors.append(err)
            if err > spec.adaptive_tol:
                all_converged = False
            continue
        # Split the angular (last) interval, unless a probe of each
        # direction at doubled nodes shows the radial one moved the
        # estimate more.  Angular wins ties -- the kernels peak in angle
        # as r*rho -> 1.
        axis = len(panel) - 1
        if axis == 1:
            n_r, n_p = counts
            move_r = abs(_panel_rule(integrand, panel, (2 * n_r, n_p), weight, end) - coarse)
            move_p = abs(_panel_rule(integrand, panel, (n_r, 2 * n_p), weight, end) - coarse)
            if move_p < move_r:
                axis = 0
        lo, hi = panel[axis]
        mid = 0.5 * (lo + hi)
        stack.append((panel[:axis] + ((mid, hi),) + panel[axis + 1:], depth + 1))
        stack.append((panel[:axis] + ((lo, mid),) + panel[axis + 1:], depth + 1))
    return QuadratureResult(
        value=math.fsum(values),
        error_estimate=math.fsum(errors),
        panels_used=len(values),
        converged=all_converged,
    )


def integrate_polar(
    integrand,
    region: PolarRectangle,
    spec: QuadratureSpec | None = None,
    graded_end: float | None = None,
    weight: tuple | None = None,
):
    """Integrate g(rho, phi) * rho over a polar rectangle adaptively,
    times |rho - end|^exponent when ``weight`` = (end, exponent) is given
    (end r_lo or r_hi, exponent > -1), grading the angle towards
    ``graded_end`` (theta_lo or theta_hi) when given.

    Near exponent a = -1 the Gauss-Jacobi rule puts a weight of order
    1/(1 + a) on the node next to ``end``, so a result loses about
    log10(1/(1 + a)) digits to the rounding of that node's distance from
    ``end``; at a = -1 + 2.2e-16 a moment of 2 comes out as 1.92.  The
    rule's tests cover a in [-0.999, 0.999].  Sources keep beta < 1/2 in
    (1 - rho)^(-beta), so their exponents, -beta and -2 beta for |f|^2,
    stay well above -1."""
    spec = spec or QuadratureSpec()
    if weight is not None and not weight[1] > -1.0:
        raise InvalidExponentError(f"weight exponent must exceed -1, got {weight[1]}")
    if weight is not None and weight[0] not in (region.r_lo, region.r_hi):
        raise InvalidRegionError(f"weight end {weight[0]} is not r_lo or r_hi of {region}")
    return _adaptive(integrand, ((region.r_lo, region.r_hi), (region.theta_lo, region.theta_hi)),
                     spec, weight, graded_end)


def integrate_angular(
    integrand,
    lo: float,
    hi: float,
    spec: QuadratureSpec | None = None,
    graded_end: float | None = None,
):
    """1-D adaptive Gauss-Legendre over an angular interval (no Jacobian),
    used for circle integrals; ``spec.nodes_angular`` sets the node count.
    ``graded_end`` (lo or hi) grades the angle towards that end."""
    spec = spec or QuadratureSpec()
    if not lo < hi:
        raise InvalidRegionError(f"need lo < hi, got [{lo}, {hi}]")
    return _adaptive(integrand, ((lo, hi),), spec, end=graded_end)
