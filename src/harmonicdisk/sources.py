"""Declarative sources on the disk, boundary functions on the circle, and
the catalog of the fifteen standard figure cases.

A :class:`SourceFunction` describes an integrand over the unit disk as a
weighted sum of pieces, each supported on one polar rectangle and the
product of a radial and an angular factor there.  Transforms consume
sources through :meth:`pieces`.

A :class:`BoundaryFunction` is an angular factor on an arc of the unit
circle (the full circle unless narrowed), zero elsewhere, or a weighted
sum of such: the boundary data |theta|, theta^2, sin theta, cos n theta,
|ln|theta|| and 1 are the very factors that multiply area sources.  It
is consumed through :meth:`arcs`, which cuts its arc at the factor's
breaks so the panels of both engines see clean endpoints.

Singular radii, kinks and singular angles are declared once, by the
factors themselves.  A radial factor declares its ``weight``: None, or
(end, exponent) for its factor |rho - end|^exponent: (1, -beta) for
(1 - rho)^(-beta), (0, k) for a fractional rho^k.  A piece reaching that
end takes the weight, the Gauss-Jacobi weight of both engines' radial
rule, and RadialOne as its factor; elsewhere the factor is smooth and
stays.  An angular factor lists its ``breaks`` (angles where it is not
smooth) and, among them, the ``log_points`` where it has an integrable
logarithmic singularity.  Pieces and arcs are cut at every break of
their angular factor; a log point becomes a piece or arc end, recorded
in ``log_end``, towards which the quadrature grades the angle.  A
piece's ``fn`` is the product of its ``factors`` (radial, angular), an
arc's its angular factor.  The grid transforms take one radial times one
angular moment per mode, so only a callable source, whose piece has no
factors, is left to adaptive quadrature alone.

Pieces and arcs are weighted alike: each carries the ``coef`` of its
term in a sum, and its ``fn`` stays the unscaled factor.

Everything is immutable after construction and serializes to a small
JSON document (see :func:`parse_source_config`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    SourceParseError,
    SourceValidationError,
    UnknownFigureError,
)
from .geometry import PolarRectangle
from .kernels import KernelId

_PI = math.pi


def _check_arc(a, b):
    if not (-_PI <= a < b <= _PI + 1e-15):
        raise SourceValidationError(f"arc must satisfy -pi <= a < b <= pi, got [{a}, {b}]")


# ---------------------------------------------------------------------------
# Radial and angular factors of separable sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerOfOneMinusRho:
    """(1 - rho)^(-beta); beta < 1/2 keeps the square integrable."""

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 0.5:
            raise SourceValidationError(
                f"singular exponent beta must lie in (0, 1/2), got {self.beta}"
            )

    @property
    def weight(self):
        return (1.0, -self.beta)

    def __call__(self, rho):
        return (1.0 - np.asarray(rho, dtype=float)) ** (-self.beta)

    def to_config(self):
        return {"pow_one_minus_rho": self.beta}


@dataclass(frozen=True)
class RhoPower:
    k: float

    def __post_init__(self):
        if self.k < 0:
            raise SourceValidationError(f"rho power must be >= 0, got {self.k}")

    @property
    def weight(self):
        """A fractional power is not smooth at rho = 0: the weight there."""
        return None if float(self.k).is_integer() else (0.0, self.k)

    def __call__(self, rho):
        return np.asarray(rho, dtype=float) ** self.k

    def to_config(self):
        return {"rho_power": self.k}


@dataclass(frozen=True)
class GaussianBump:
    """amp * exp(-width * (rho - center)^2)."""

    amp: float
    center: float
    width: float
    weight = None

    def __post_init__(self):
        if self.width <= 0:
            raise SourceValidationError(f"bump width must be positive, got {self.width}")

    def __call__(self, rho):
        d = np.asarray(rho, dtype=float) - self.center
        return self.amp * np.exp(-self.width * d * d)

    def to_config(self):
        return {"gaussian_bump": {"amp": self.amp, "center": self.center, "width": self.width}}


@dataclass(frozen=True)
class RadialOne:
    weight = None

    def __call__(self, rho):
        return np.ones(np.shape(rho))

    def to_config(self):
        return "one"


@dataclass(frozen=True)
class AngularCos:
    n: int
    breaks = ()
    log_points = ()

    def __post_init__(self):
        if self.n < 0:
            raise SourceValidationError(f"cosine order must be >= 0, got {self.n}")

    def __call__(self, phi):
        return np.cos(self.n * np.asarray(phi, dtype=float))

    def to_config(self):
        return {"cos": self.n}


@dataclass(frozen=True)
class AngularSin:
    n: int
    breaks = ()
    log_points = ()

    def __post_init__(self):
        if self.n < 1:
            raise SourceValidationError(f"sine order must be >= 1, got {self.n}")

    def __call__(self, phi):
        return np.sin(self.n * np.asarray(phi, dtype=float))

    def to_config(self):
        return {"sin": self.n}


@dataclass(frozen=True)
class AbsPhi:
    breaks = (0.0,)
    log_points = ()

    def __call__(self, phi):
        return np.abs(np.asarray(phi, dtype=float))

    def to_config(self):
        return "abs_phi"


@dataclass(frozen=True)
class PhiSquared:
    breaks = ()
    log_points = ()

    def __call__(self, phi):
        return np.asarray(phi, dtype=float) ** 2

    def to_config(self):
        return "phi_squared"


@dataclass(frozen=True)
class AbsLogAbsPhi:
    """|ln|phi||; integrable singularity at phi = 0, corners at phi = -1, 1."""

    breaks = (-1.0, 0.0, 1.0)
    log_points = (0.0,)

    def __call__(self, phi):
        a = np.abs(np.asarray(phi, dtype=float))
        with np.errstate(divide="ignore"):
            return np.abs(np.log(a))

    def to_config(self):
        return "abs_log_abs_phi"


@dataclass(frozen=True)
class AngularOne:
    breaks = ()
    log_points = ()

    def __call__(self, phi):
        return np.ones(np.shape(phi))

    def to_config(self):
        return "one"


_INDICATOR = (RadialOne(), AngularOne())  # the factors of a disk or rectangle indicator


# ---------------------------------------------------------------------------
# Boundary functions on the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryArc:
    """One piece of a boundary function: coef * fn on [lo, hi], 0 elsewhere.

    fn is an angular factor, smooth on [lo, hi] except at ``log_end``: the
    end (lo or hi) where it has a logarithmic singularity, or None.
    """

    coef: float
    lo: float
    hi: float
    fn: object  # callable(phi) -> array
    log_end: float | None = None


class BoundaryFunction:
    """Data on the unit circle: an angular factor on an arc, zero elsewhere,
    or a weighted sum of such.  Subclasses provide arcs(), the arc cut at
    the factor's breaks, and to_config()."""

    def arcs(self) -> list[BoundaryArc]:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


class _AngularOnArc(BoundaryFunction):
    """The angular factor ``angular`` on ``arc`` (the full circle unless a
    subclass narrows it), zero elsewhere.  The arc is checked once, and
    arcs() cuts it at the factor's breaks, so every kink and log point of
    the factor is an arc end."""

    arc = (-_PI, _PI)

    def __post_init__(self):
        _check_arc(*self.arc)

    def arcs(self):
        angular = self.angular
        return [BoundaryArc(1.0, lo, hi, angular, end)
                for lo, hi, end in _split_at_breaks(angular, *self.arc)]


class _AngularOnGivenArc(_AngularOnArc):
    """An angular factor on the arc [a, b] given by the fields a and b."""

    @property
    def arc(self):
        return self.a, self.b

    def to_config(self):
        return {"type": self._kind, "arc": [self.a, self.b]}


@dataclass(frozen=True)
class CharacteristicArc(_AngularOnGivenArc):
    a: float
    b: float
    angular = AngularOne()
    _kind = "char_arc"


@dataclass(frozen=True)
class AbsTheta(_AngularOnArc):
    angular = AbsPhi()

    def to_config(self):
        return {"type": "abs_theta"}


@dataclass(frozen=True)
class ThetaSquaredOnArc(_AngularOnGivenArc):
    a: float
    b: float
    angular = PhiSquared()
    _kind = "theta_squared_on_arc"


@dataclass(frozen=True)
class SinOnArc(_AngularOnGivenArc):
    a: float
    b: float
    angular = AngularSin(1)
    _kind = "sin_on_arc"


@dataclass(frozen=True)
class AbsLogAbsOnArc(_AngularOnGivenArc):
    """|ln|theta|| on [a, b]; singular at 0, corner at |theta| = 1."""

    a: float
    b: float
    angular = AbsLogAbsPhi()
    _kind = "abs_log_abs_on_arc"


@dataclass(frozen=True)
class Cosine(_AngularOnArc):
    """cos(n * theta) on the full circle."""

    n: int

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "angular", AngularCos(self.n))  # validates n

    def to_config(self):
        return {"type": "cos", "n": self.n}


@dataclass(frozen=True)
class ConstantOne(_AngularOnArc):
    angular = AngularOne()

    def to_config(self):
        return {"type": "one"}


@dataclass(frozen=True)
class BoundarySum(BoundaryFunction):
    terms: tuple  # of (coef, BoundaryFunction)

    def __post_init__(self):
        if not self.terms:
            raise SourceValidationError("weighted sum needs at least one term")

    def arcs(self):
        return [replace(arc, coef=coef * arc.coef)
                for coef, f in self.terms for arc in f.arcs()]

    def to_config(self):
        return {
            "type": "weighted_sum",
            "terms": [{"coef": c, "term": f.to_config()} for c, f in self.terms],
        }


def _split_at_breaks(angular, lo, hi):
    """(lo, hi, log_end) of the intervals of [lo, hi] cut at the angular
    factor's breaks; log_end is the end that is one of its log points."""
    edges = [lo, *(b for b in angular.breaks if lo < b < hi), hi]
    return [(a, b, a if a in angular.log_points else b if b in angular.log_points else None)
            for a, b in zip(edges[:-1], edges[1:])]


# ---------------------------------------------------------------------------
# Source functions on the disk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourcePiece:
    """One rectangle of a source: value = coef * fn(rho, phi) * |rho - end|^exponent.

    ``factors`` is the (radial, angular) pair of callables of one variable
    whose product fn is, smooth on the rectangle but for a logarithmic
    singularity of the angular one at ``log_end`` (theta_lo, theta_hi or
    None); ``weight`` is (end, exponent), end r_lo or r_hi, or None.  Only
    a piece without factors (a callable source's) gives its own ``fn``.
    """

    coef: float
    rect: PolarRectangle
    factors: tuple | None  # (radial(rho), angular(phi)), or None: adaptive only
    log_end: float | None = None
    weight: tuple | None = None
    fn: object = None  # callable(rho, phi) -> array (broadcasting)

    def __post_init__(self):
        if self.fn is None:
            radial, angular = self.factors
            object.__setattr__(self, "fn", lambda rho, phi: (np.asarray(radial(rho))
                                                             * np.asarray(angular(phi))))


class SourceFunction:
    """Base class; subclasses provide values(), pieces() and to_config()."""

    def values(self, rho, phi):
        """Vectorized pointwise values (may return inf on singular sets)."""
        raise NotImplementedError

    def pieces(self) -> list[SourcePiece]:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class CharacteristicDisk(SourceFunction):
    radius: float

    def __post_init__(self):
        if not 0.0 < self.radius <= 1.0:
            raise SourceValidationError(f"disk radius must lie in (0, 1], got {self.radius}")

    def values(self, rho, phi):
        r = np.asarray(rho, dtype=float)
        inside = (r <= self.radius).astype(float)
        return np.broadcast_to(inside, np.broadcast_shapes(np.shape(rho), np.shape(phi))).copy()

    def pieces(self):
        rect = PolarRectangle(0.0, self.radius, -_PI, _PI)
        return [SourcePiece(1.0, rect, _INDICATOR)]

    def to_config(self):
        return {"type": "char_disk", "radius": self.radius}


@dataclass(frozen=True)
class CharacteristicRect(SourceFunction):
    rect: PolarRectangle

    def values(self, rho, phi):
        return self.rect.contains(rho, phi).astype(float)

    def pieces(self):
        return [SourcePiece(1.0, self.rect, _INDICATOR)]

    def to_config(self):
        return {
            "type": "char_rect",
            "r": [self.rect.r_lo, self.rect.r_hi],
            "theta": [self.rect.theta_lo, self.rect.theta_hi],
        }


@dataclass(frozen=True)
class SeparableOnRect(SourceFunction):
    radial: object
    angular: object
    rect: PolarRectangle

    def values(self, rho, phi):
        inside = self.rect.contains(rho, phi)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = self.radial(rho) * self.angular(phi)
        return np.where(inside, np.broadcast_to(vals, inside.shape), 0.0)

    def pieces(self):
        radial, angular, rect = self.radial, self.angular, self.rect
        weight = radial.weight
        if weight is not None and weight[0] in (rect.r_lo, rect.r_hi):
            radial = RadialOne()  # the factor is the weight of the radial rule
        else:
            weight = None
        return [SourcePiece(1.0, PolarRectangle(rect.r_lo, rect.r_hi, a, b), (radial, angular),
                            end, weight)
                for a, b, end in _split_at_breaks(angular, rect.theta_lo, rect.theta_hi)]

    def to_config(self):
        return {
            "type": "separable",
            "radial": self.radial.to_config(),
            "angular": self.angular.to_config(),
            "rect": {
                "r": [self.rect.r_lo, self.rect.r_hi],
                "theta": [self.rect.theta_lo, self.rect.theta_hi],
            },
        }


@dataclass(frozen=True)
class SourceSum(SourceFunction):
    terms: tuple  # of (coef, SourceFunction)

    def __post_init__(self):
        if not self.terms:
            raise SourceValidationError("weighted sum needs at least one term")

    def values(self, rho, phi):
        return sum(c * s.values(rho, phi) for c, s in self.terms)

    def pieces(self):
        return [replace(p, coef=coef * p.coef) for coef, s in self.terms for p in s.pieces()]

    def to_config(self):
        return {
            "type": "weighted_sum",
            "terms": [{"coef": c, "term": s.to_config()} for c, s in self.terms],
        }


# ---------------------------------------------------------------------------
# Config parsing / serialization
# ---------------------------------------------------------------------------

_ARC_TYPES = {cls._kind: cls for cls in
              (CharacteristicArc, ThetaSquaredOnArc, SinOnArc, AbsLogAbsOnArc)}
_ANGULAR_NAMES = {"abs_phi": AbsPhi, "phi_squared": PhiSquared,
                  "abs_log_abs_phi": AbsLogAbsPhi, "one": AngularOne}


def _require_keys(doc, keys, context):
    extra = set(doc) - set(keys)
    missing = {k for k in keys if k not in doc}
    if extra:
        raise SourceParseError(f"{context}: unknown field(s) {sorted(extra)}")
    if missing:
        raise SourceParseError(f"{context}: missing field(s) {sorted(missing)}")


def _parse_pair(value, context):
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise SourceParseError(f"{context}: expected a pair [lo, hi], got {value!r}")
    try:
        return float(value[0]), float(value[1])
    except (TypeError, ValueError) as exc:
        raise SourceParseError(f"{context}: non-numeric bounds {value!r}") from exc


def _parse_rect(doc, context):
    if not isinstance(doc, dict):
        raise SourceParseError(f"{context}: rect must be an object with 'r' and 'theta'")
    _require_keys(doc, ("r", "theta"), context)
    r_lo, r_hi = _parse_pair(doc["r"], f"{context}.r")
    t_lo, t_hi = _parse_pair(doc["theta"], f"{context}.theta")
    try:
        return PolarRectangle(r_lo, r_hi, t_lo, t_hi)
    except Exception as exc:
        raise SourceValidationError(f"{context}: {exc}") from exc


def _parse_radial(doc, context):
    if doc == "one":
        return RadialOne()
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SourceParseError(f"{context}: radial factor must be 'one' or a single-key object")
    key, val = next(iter(doc.items()))
    if key == "pow_one_minus_rho":
        return PowerOfOneMinusRho(float(val))
    if key == "rho_power":
        return RhoPower(float(val))
    if key == "gaussian_bump":
        _require_keys(val, ("amp", "center", "width"), f"{context}.gaussian_bump")
        return GaussianBump(float(val["amp"]), float(val["center"]), float(val["width"]))
    raise SourceParseError(f"{context}: unknown radial factor {key!r}")


def _parse_angular(doc, context):
    if isinstance(doc, str):
        if doc in _ANGULAR_NAMES:
            return _ANGULAR_NAMES[doc]()
        raise SourceParseError(f"{context}: unknown angular factor {doc!r}")
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SourceParseError(f"{context}: angular factor must be a name or single-key object")
    key, val = next(iter(doc.items()))
    if key == "cos":
        return AngularCos(int(val))
    if key == "sin":
        return AngularSin(int(val))
    raise SourceParseError(f"{context}: unknown angular factor {key!r}")


def _parse_doc(doc, context="source"):
    if not isinstance(doc, dict):
        raise SourceParseError(f"{context}: expected an object, got {type(doc).__name__}")
    if "type" not in doc:
        raise SourceParseError(f"{context}: missing 'type' field")
    kind = doc["type"]

    if kind == "char_disk":
        _require_keys(doc, ("type", "radius"), context)
        return CharacteristicDisk(float(doc["radius"]))
    if kind == "char_rect":
        _require_keys(doc, ("type", "r", "theta"), context)
        return CharacteristicRect(
            _parse_rect({"r": doc["r"], "theta": doc["theta"]}, context)
        )
    if kind == "separable":
        _require_keys(doc, ("type", "radial", "angular", "rect"), context)
        return SeparableOnRect(
            _parse_radial(doc["radial"], f"{context}.radial"),
            _parse_angular(doc["angular"], f"{context}.angular"),
            _parse_rect(doc["rect"], f"{context}.rect"),
        )
    if kind in _ARC_TYPES:
        _require_keys(doc, ("type", "arc"), context)
        return _ARC_TYPES[kind](*_parse_pair(doc["arc"], f"{context}.arc"))
    if kind == "abs_theta":
        _require_keys(doc, ("type",), context)
        return AbsTheta()
    if kind == "cos":
        _require_keys(doc, ("type", "n"), context)
        return Cosine(int(doc["n"]))
    if kind == "one":
        _require_keys(doc, ("type",), context)
        return ConstantOne()
    if kind == "weighted_sum":
        _require_keys(doc, ("type", "terms"), context)
        if not isinstance(doc["terms"], list) or not doc["terms"]:
            raise SourceParseError(f"{context}.terms: expected a non-empty list")
        parsed = []
        for i, item in enumerate(doc["terms"]):
            if not isinstance(item, dict):
                raise SourceParseError(f"{context}.terms[{i}]: expected an object")
            _require_keys(item, ("coef", "term"), f"{context}.terms[{i}]")
            parsed.append(
                (float(item["coef"]), _parse_doc(item["term"], f"{context}.terms[{i}].term"))
            )
        kinds = {isinstance(t, SourceFunction) for _, t in parsed}
        if len(kinds) != 1:
            raise SourceValidationError(
                f"{context}: cannot mix disk sources and boundary functions in one sum"
            )
        if isinstance(parsed[0][1], SourceFunction):
            return SourceSum(tuple(parsed))
        return BoundarySum(tuple(parsed))
    raise SourceParseError(f"{context}: unknown type {kind!r}")


def parse_source_config(text):
    """Parse a JSON config document into a SourceFunction or BoundaryFunction.

    Accepts a JSON string or an already-decoded dict.  Raises
    SourceParseError for malformed documents and SourceValidationError
    for documents that violate invariants (inverted bounds, beta >= 1/2,
    bad arcs).
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SourceParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    else:
        doc = text
    return _parse_doc(doc)


def serialize_config(obj) -> str:
    """Canonical JSON text for a source or boundary function."""
    return json.dumps(obj.to_config(), sort_keys=True)


# ---------------------------------------------------------------------------
# Figure catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureCase:
    """One catalog figure and the data it is computed from.

    A figure with a ``boundary`` writes its Poisson integral (``poisson``),
    one with a ``source`` writes ``prefactor`` times its area transform
    (``q``), and one with both writes their pointwise ratio (``ratio``)
    too.  A kernel figure has neither; it plots the profiles of
    ``kernel`` at the ``radii``.
    """

    id: int
    description: str
    boundary: BoundaryFunction | None = None
    source: SourceFunction | None = None
    prefactor: float = 1.0
    kernel: KernelId | None = None
    radii: tuple = ()


TWO_OVER_PI = 2.0 / _PI

_ANNULUS = (0.9, 1.0)


def _annulus_rect(theta_lo, theta_hi):
    return PolarRectangle(_ANNULUS[0], _ANNULUS[1], theta_lo, theta_hi)


def _build_catalog():
    fig6_source = SeparableOnRect(
        PowerOfOneMinusRho(0.25), AngularCos(1), PolarRectangle(0.75, 1.0, -_PI / 6, _PI / 6)
    )
    fig7_second = SeparableOnRect(
        PowerOfOneMinusRho(0.375), AngularCos(1), PolarRectangle(0.875, 1.0, 5 * _PI / 6, _PI)
    )
    rect_a = CharacteristicRect(PolarRectangle(0.25, 0.5, 0.0, _PI / 4))
    rect_b = CharacteristicRect(PolarRectangle(0.6, 0.8, 5 * _PI / 6, _PI))
    # figures 9 and 11 compare their boundary-layer sources with the boundary
    # data of figures 8 and 10
    fig8_boundary = CharacteristicArc(-_PI / 6, _PI / 6)
    fig10_boundary = AbsTheta()

    cases = [
        FigureCase(1, "boundary kernel profiles at r = 0.5, 0.75, 0.85",
                   kernel=KernelId("poisson"),
                   radii=(0.5, 0.75, 0.85)),
        FigureCase(2, "area kernel profiles at r = 0.5, 0.75",
                   kernel=KernelId("q"),
                   radii=(0.5, 0.75)),
        FigureCase(3, "matched reconstructions of r^2 cos(2 theta) from boundary and area data",
                   boundary=Cosine(2),
                   source=SeparableOnRect(RhoPower(2), AngularCos(2), PolarRectangle.full_disk()),
                   prefactor=TWO_OVER_PI),
        FigureCase(4, "area transform of the characteristic function of the disk r <= 1/4",
                   source=CharacteristicDisk(0.25)),
        FigureCase(5, "area transform of the sum of two polar-rectangle indicators",
                   source=SourceSum(((1.0, rect_a), (1.0, rect_b)))),
        FigureCase(6, "area transform of cos(phi)/(1-rho)^(1/4) on [3/4,1]x[-pi/6,pi/6]",
                   source=fig6_source),
        FigureCase(7, "area transform combining the previous source with an opposite-side "
                   "cos(phi)/(1-rho)^(3/8) term on [7/8,1]x[5pi/6,pi]",
                   source=SourceSum(((1.0, fig6_source), (1.0, fig7_second)))),
        FigureCase(8, "harmonic measure of the arc [-pi/6, pi/6]",
                   boundary=fig8_boundary),
        FigureCase(9, "area transform of the indicator of the boundary layer "
                   "[0.9,1]x[-pi/6,pi/6], scaled by 2/pi",
                   boundary=fig8_boundary,
                   source=CharacteristicRect(_annulus_rect(-_PI / 6, _PI / 6)),
                   prefactor=TWO_OVER_PI),
        FigureCase(10, "boundary integral of |theta|",
                   boundary=fig10_boundary),
        FigureCase(11, "area transform of |phi| rho on the boundary layer [0.9,1]x[-pi,pi]",
                   boundary=fig10_boundary,
                   source=SeparableOnRect(RhoPower(1), AbsPhi(), _annulus_rect(-_PI, _PI)),
                   prefactor=TWO_OVER_PI),
        FigureCase(12, "theta^2 boundary data on [-pi/6,pi/6] vs the matching boundary-layer "
                   "area transform",
                   boundary=ThetaSquaredOnArc(-_PI / 6, _PI / 6),
                   source=SeparableOnRect(RhoPower(1), PhiSquared(),
                                          _annulus_rect(-_PI / 6, _PI / 6)),
                   prefactor=TWO_OVER_PI),
        FigureCase(13, "sin(theta) boundary data on [0,pi] vs the matching boundary-layer "
                   "area transform",
                   boundary=SinOnArc(0.0, _PI),
                   source=SeparableOnRect(RhoPower(1), AngularSin(1), _annulus_rect(0.0, _PI)),
                   prefactor=TWO_OVER_PI),
        FigureCase(14, "|ln|theta|| boundary data on [0,pi] vs the matching boundary-layer "
                   "area transform",
                   boundary=AbsLogAbsOnArc(0.0, _PI),
                   source=SeparableOnRect(RhoPower(1), AbsLogAbsPhi(), _annulus_rect(0.0, _PI)),
                   prefactor=TWO_OVER_PI),
        FigureCase(15, "area transform of the interior bump 10 exp(-10 (rho-1/2)^2) cos(phi) "
                   "on [0.3,0.7]x[-pi/6,pi/6]",
                   source=SeparableOnRect(GaussianBump(10.0, 0.5, 10.0), AngularCos(1),
                                          PolarRectangle(0.3, 0.7, -_PI / 6, _PI / 6))),
    ]
    return {case.id: case for case in cases}


_CATALOG = _build_catalog()


def figure_case(fig_id: int) -> FigureCase:
    """Catalog entry for figure ids 1..15."""
    if fig_id not in _CATALOG:
        raise UnknownFigureError(f"figure id must lie in 1..15, got {fig_id}")
    return _CATALOG[fig_id]


def catalog_q_sources() -> dict[int, FigureCase]:
    """The catalog figures with a disk source, keyed by figure id."""
    return {i: case for i, case in _CATALOG.items() if case.source is not None}


def catalog_boundary_functions() -> dict[int, FigureCase]:
    """The catalog figures with boundary data, keyed by figure id."""
    return {i: case for i, case in _CATALOG.items() if case.boundary is not None}
