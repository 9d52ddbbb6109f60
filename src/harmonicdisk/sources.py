"""Declarative sources on the disk, boundary functions on the circle, and
the catalog of the fifteen standard figure cases.

A :class:`SourceFunction` describes an integrand over the unit disk, a
:class:`BoundaryFunction` (``OnArc`` or a sum of such) data on the unit
circle.  Both are weighted sums of parts, which the transforms consume
through :meth:`pieces`: each a :class:`SourcePiece`, the product of a
radial and an angular factor on the angles [lo, hi].  A piece of a
source has the radii [r_lo, r_hi] and so a polar rectangle; a piece of
boundary data has no radial extent and no rectangle: it lies at the
single radius rho = 1 with weight 1, the limit of a layer of unit radial
mass shrinking onto the rim.  So the boundary data |theta|, theta^2,
sin theta, cos n theta, |ln|theta|| and 1 are the very angular factors
of area sources, on an arc.

Singular radii, kinks and singular angles are declared once, by the
factors themselves.  A radial factor declares its ``weight``: None, or
(end, exponent) for its factor |rho - end|^exponent: (1, -beta) for
(1 - rho)^(-beta), (0, k) for a fractional rho^k.  A piece reaching that
end takes the weight, the Gauss-Jacobi weight of both engines' radial
rule, and RadialOne as its factor; elsewhere the factor is smooth and
stays.  An angular factor lists its ``breaks`` (angles where it is not
smooth) and, among them, the ``log_points`` where it has an integrable
logarithmic singularity.  Pieces are cut at every break of their
angular factor; a log point becomes a piece end, recorded in
``log_end``, towards which the quadrature grades the angle.  A piece's
``fn`` is the product of its ``factors`` (radial, angular), unscaled by
the ``coef`` of its term in a sum; on an arc it is the angular factor.
The grid transforms take one radial times one angular moment per mode,
so only a callable source, whose piece has no factors, is left to
adaptive quadrature alone.

A disk source is a :class:`SeparableOnRect`, radial(rho) * angular(phi) on
a polar rectangle, or a weighted sum of such (SourceSum); the indicator of
a disk or a rectangle is the one with the factors ``_INDICATOR`` (one,
one).  Everything is immutable after construction and serializes to a
small JSON document (see :func:`parse_source_config`).  The JSON types
``char_disk``, ``char_rect`` and ``separable`` all parse to SeparableOnRect,
which writes ``char_disk`` for the indicator of [0, r] x [-pi, pi],
``char_rect`` for any other indicator and ``separable`` otherwise.  The
JSON names of the factors are one table per family, ``_RADIAL_FACTORS``
and ``_ANGULAR_FACTORS``, and a factor's document follows from its fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import (
    InvalidRegionError,
    SourceParseError,
    SourceValidationError,
    UnknownFigureError,
)
from .geometry import PolarRectangle

_PI = math.pi


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


@dataclass(frozen=True)
class RhoPower:
    k: float

    def __post_init__(self):
        if not 0.0 <= self.k < math.inf:
            raise SourceValidationError(f"rho power must be finite and >= 0, got {self.k}")

    @property
    def weight(self):
        """A fractional power is not smooth at rho = 0: the weight there."""
        return None if float(self.k).is_integer() else (0.0, self.k)

    def __call__(self, rho):
        return np.asarray(rho, dtype=float) ** self.k


@dataclass(frozen=True)
class GaussianBump:
    """amp * exp(-width * (rho - center)^2)."""

    amp: float
    center: float
    width: float
    weight = None

    def __post_init__(self):
        if not (0.0 < self.width < math.inf and math.isfinite(self.amp)
                and math.isfinite(self.center)):
            raise SourceValidationError(
                f"bump needs a finite amp and center and a finite width > 0, got {self}")

    def __call__(self, rho):
        d = np.asarray(rho, dtype=float) - self.center
        return self.amp * np.exp(-self.width * d * d)


@dataclass(frozen=True)
class RadialOne:
    weight = None

    def __call__(self, rho):
        return np.ones(np.shape(rho))


@dataclass(frozen=True)
class AngularCos:
    n: int
    breaks = ()
    log_points = ()

    def __post_init__(self):
        if not self.n >= 0:
            raise SourceValidationError(f"cosine order must be >= 0, got {self.n}")

    def __call__(self, phi):
        return np.cos(self.n * np.asarray(phi, dtype=float))


@dataclass(frozen=True)
class AngularSin:
    n: int
    breaks = ()
    log_points = ()

    def __post_init__(self):
        if not self.n >= 1:
            raise SourceValidationError(f"sine order must be >= 1, got {self.n}")

    def __call__(self, phi):
        return np.sin(self.n * np.asarray(phi, dtype=float))


@dataclass(frozen=True)
class AbsPhi:
    breaks = (0.0,)
    log_points = ()

    def __call__(self, phi):
        return np.abs(np.asarray(phi, dtype=float))


@dataclass(frozen=True)
class PhiSquared:
    breaks = ()
    log_points = ()

    def __call__(self, phi):
        return np.asarray(phi, dtype=float) ** 2


@dataclass(frozen=True)
class AbsLogAbsPhi:
    """|ln|phi||; integrable singularity at phi = 0, corners at phi = -1, 1."""

    breaks = (-1.0, 0.0, 1.0)
    log_points = (0.0,)

    def __call__(self, phi):
        a = np.abs(np.asarray(phi, dtype=float))
        with np.errstate(divide="ignore"):
            return np.abs(np.log(a))


@dataclass(frozen=True)
class AngularOne:
    breaks = ()
    log_points = ()

    def __call__(self, phi):
        return np.ones(np.shape(phi))


_INDICATOR = (RadialOne(), AngularOne())  # the factors of a disk or rectangle indicator


# ---------------------------------------------------------------------------
# Pieces and weighted sums of them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourcePiece:
    """One part of a source or a boundary function: value = coef *
    fn(rho, phi) * |rho - end|^exponent on the angles [lo, hi], either at
    the radii ``radii`` = (r_lo, r_hi), whose polar rectangle ``rect`` is
    built (and so validated) from them, or, with ``radii`` and ``rect``
    None, at the single radius rho = 1 of weight 1: an arc.

    ``factors`` is the (radial, angular) pair of callables of one variable
    whose product fn is, smooth on the piece but for a logarithmic
    singularity of the angular one at ``log_end`` (lo, hi or None);
    ``weight`` is (end, exponent), end r_lo or r_hi, or None.  Only a piece
    without factors (a callable source's) gives its own ``fn``.
    """

    coef: float
    lo: float
    hi: float
    factors: tuple | None  # (radial(rho), angular(phi)), or None: adaptive only
    radii: tuple | None = None  # (r_lo, r_hi), or None: an arc
    log_end: float | None = None
    weight: tuple | None = None
    fn: object = None  # callable(rho, phi) -> array (broadcasting)
    rect: PolarRectangle | None = field(init=False, default=None)

    def __post_init__(self):
        if self.radii is not None:
            object.__setattr__(self, "rect", PolarRectangle(*self.radii, self.lo, self.hi))
        if self.fn is None:
            radial, angular = self.factors
            object.__setattr__(self, "fn", lambda rho, phi: (np.asarray(radial(rho))
                                                             * np.asarray(angular(phi))))


def _split_at_breaks(angular, lo, hi):
    """(lo, hi, log_end) of the intervals of [lo, hi] cut at the angular
    factor's breaks; log_end is the end that is one of its log points."""
    edges = [lo, *(b for b in angular.breaks if lo < b < hi), hi]
    return [(a, b, a if a in angular.log_points else b if b in angular.log_points else None)
            for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class _WeightedSum:
    """The sum of coef * term over ``terms``: the pieces of every term, each
    piece's coef times its term's.  Its two types, BoundarySum and
    SourceSum, keep boundary data and disk sources apart."""

    terms: tuple  # of (coef, term)

    def __post_init__(self):
        if not self.terms:
            raise SourceValidationError("weighted sum needs at least one term")
        if not all(math.isfinite(coef) for coef, _ in self.terms):
            raise SourceValidationError(f"weighted sum coefficients must be finite, got "
                                        f"{[coef for coef, _ in self.terms]}")

    def pieces(self):
        return [replace(p, coef=coef * p.coef) for coef, term in self.terms for p in term.pieces()]

    def to_config(self):
        return {
            "type": "weighted_sum",
            "terms": [{"coef": c, "term": t.to_config()} for c, t in self.terms],
        }


# ---------------------------------------------------------------------------
# Boundary functions on the circle
# ---------------------------------------------------------------------------


class BoundaryFunction:
    """Data on the unit circle: an angular factor on an arc, zero elsewhere
    (OnArc), or a weighted sum of such (BoundarySum).  Subclasses provide
    pieces(), the arcs cut at the factor's breaks, and to_config()."""

    def pieces(self) -> list[SourcePiece]:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class OnArc(BoundaryFunction):
    """The angular factor ``angular`` on the arc [a, b], the full circle by
    default, zero elsewhere.  Only a (factor, arc) pair that has a JSON
    type (see ``_BOUNDARY_TYPES``) is accepted."""

    angular: object
    a: float = -_PI
    b: float = _PI

    def __post_init__(self):
        if not -_PI <= self.a < self.b <= _PI + 1e-15:
            raise SourceValidationError(
                f"arc must satisfy -pi <= a < b <= pi, got [{self.a}, {self.b}]")
        if self.to_config() is None:
            raise SourceValidationError(
                f"no boundary type takes {self.angular} on [{self.a}, {self.b}]")

    def pieces(self):
        factors = (RadialOne(), self.angular)
        return [SourcePiece(1.0, lo, hi, factors, log_end=end)
                for lo, hi, end in _split_at_breaks(self.angular, self.a, self.b)]

    def to_config(self):
        """The document of the first type that names the factor on this arc,
        or None: a full-circle type wins over an arc type."""
        full = (self.a, self.b) == (-_PI, _PI)
        for kind, (factor, on_arc) in _BOUNDARY_TYPES.items():
            if (on_arc or full) and (factor == self.angular or factor is type(self.angular)):
                doc = {"type": kind}
                if on_arc:
                    doc["arc"] = [self.a, self.b]
                if factor is AngularCos:
                    doc["n"] = self.angular.n
                return doc
        return None


class BoundarySum(_WeightedSum, BoundaryFunction):
    """A weighted sum of boundary functions."""


# ---------------------------------------------------------------------------
# Source functions on the disk
# ---------------------------------------------------------------------------


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
class SeparableOnRect(SourceFunction):
    """radial(rho) * angular(phi) on the polar rectangle ``rect``, zero
    elsewhere; with the factors ``_INDICATOR`` the indicator of ``rect``."""

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
        return [SourcePiece(1.0, a, b, (radial, angular), (rect.r_lo, rect.r_hi), end, weight)
                for a, b, end in _split_at_breaks(angular, rect.theta_lo, rect.theta_hi)]

    def to_config(self):
        """``char_disk`` for the indicator of [0, r] x [-pi, pi], ``char_rect``
        for any other indicator, ``separable`` otherwise."""
        r, theta = [self.rect.r_lo, self.rect.r_hi], [self.rect.theta_lo, self.rect.theta_hi]
        if (self.radial, self.angular) != _INDICATOR:
            return {"type": "separable", "radial": _factor_doc(self.radial, _RADIAL_FACTORS),
                    "angular": _factor_doc(self.angular, _ANGULAR_FACTORS),
                    "rect": {"r": r, "theta": theta}}
        if r[0] == 0.0 and theta == [-_PI, _PI]:
            return {"type": "char_disk", "radius": r[1]}
        return {"type": "char_rect", "r": r, "theta": theta}


def _indicator(rect):
    """The indicator of the polar rectangle ``rect``."""
    return SeparableOnRect(*_INDICATOR, rect)


class SourceSum(_WeightedSum, SourceFunction):
    """A weighted sum of disk sources."""

    def values(self, rho, phi):
        return sum(c * s.values(rho, phi) for c, s in self.terms)


# ---------------------------------------------------------------------------
# Config parsing / serialization
# ---------------------------------------------------------------------------

# The JSON types of boundary functions, each an OnArc: type -> (its angular
# factor, True when the type carries an "arc" and False for the full
# circle).  "cos" takes any order n, from its "n" field.  Both the parser
# and OnArc.to_config read this table, in this order.
_BOUNDARY_TYPES = {
    "one": (AngularOne(), False),
    "abs_theta": (AbsPhi(), False),
    "cos": (AngularCos, False),
    "char_arc": (AngularOne(), True),
    "theta_squared_on_arc": (PhiSquared(), True),
    "sin_on_arc": (AngularSin(1), True),
    "abs_log_abs_on_arc": (AbsLogAbsPhi(), True),
}
# The JSON names of the factors of separable sources, one table per family:
# name -> class.  A factor's document follows from its dataclass fields: its
# bare name without fields, {name: value} with one, {name: {field: value}}
# with more.  Both _parse_factor and _factor_doc read these tables.
_RADIAL_FACTORS = {"one": RadialOne, "rho_power": RhoPower,
                   "pow_one_minus_rho": PowerOfOneMinusRho, "gaussian_bump": GaussianBump}
_ANGULAR_FACTORS = {"one": AngularOne, "cos": AngularCos, "sin": AngularSin,
                    "abs_phi": AbsPhi, "phi_squared": PhiSquared,
                    "abs_log_abs_phi": AbsLogAbsPhi}


def _factor_doc(factor, table):
    name = next(key for key, cls in table.items() if type(factor) is cls)
    values = asdict(factor)
    if not values:
        return name
    return {name: values if len(values) > 1 else next(iter(values.values()))}


def _require_keys(doc, keys, context):
    if not isinstance(doc, dict):
        raise SourceParseError(f"{context}: expected an object with the fields {list(keys)}")
    extra = set(doc) - set(keys)
    missing = {k for k in keys if k not in doc}
    if extra:
        raise SourceParseError(f"{context}: unknown field(s) {sorted(extra)}")
    if missing:
        raise SourceParseError(f"{context}: missing field(s) {sorted(missing)}")


def _number(value, context, integer=False):
    """A numeric field as a float, or as an int where ``integer``; anything
    else, and an order that is not an integer, is a SourceParseError."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SourceParseError(f"{context}: expected a number, got {value!r}") from exc
    if integer and not x.is_integer():
        raise SourceParseError(f"{context}: expected an integer, got {value!r}")
    return int(x) if integer else x


def _parse_pair(value, context):
    if (not isinstance(value, (list, tuple))) or len(value) != 2:
        raise SourceParseError(f"{context}: expected a pair [lo, hi], got {value!r}")
    return _number(value[0], context), _number(value[1], context)


def _parse_rect(doc, context):
    _require_keys(doc, ("r", "theta"), context)
    r_lo, r_hi = _parse_pair(doc["r"], f"{context}.r")
    t_lo, t_hi = _parse_pair(doc["theta"], f"{context}.theta")
    try:
        return PolarRectangle(r_lo, r_hi, t_lo, t_hi)
    except InvalidRegionError as exc:
        raise SourceValidationError(f"{context}: {exc}") from exc


def _parse_factor(doc, table, context):
    """The factor of ``table`` that a document names (see _factor_doc)."""
    if isinstance(doc, dict) and len(doc) == 1:
        [(name, value)] = doc.items()
    elif isinstance(doc, str):
        name, value = doc, None
    else:
        raise SourceParseError(f"{context}: expected a factor name or a single-key object")
    if name not in table:
        raise SourceParseError(f"{context}: unknown factor {name!r}")
    fs = fields(table[name])
    if isinstance(doc, str) != (not fs):
        raise SourceParseError(
            f"{context}: factor {name!r} takes the fields {[f.name for f in fs]}")
    if len(fs) > 1:
        _require_keys(value, [f.name for f in fs], f"{context}.{name}")
        value = [value[f.name] for f in fs]
    else:
        value = [value]  # the one field's value; zip drops it for a factor without fields
    # the annotations are strings (postponed evaluation): an "int" field is an order
    return table[name](*(_number(v, f"{context}.{name}", f.type == "int")
                         for f, v in zip(fs, value)))


def _parse_doc(doc, context="source"):
    if not isinstance(doc, dict):
        raise SourceParseError(f"{context}: expected an object, got {type(doc).__name__}")
    kind = doc.get("type")
    if not isinstance(kind, str):
        raise SourceParseError(f"{context}: expected a 'type' name, got {kind!r}")

    if kind == "char_disk":
        _require_keys(doc, ("type", "radius"), context)
        radius = _number(doc["radius"], f"{context}.radius")
        return _indicator(_parse_rect({"r": [0.0, radius], "theta": [-_PI, _PI]}, context))
    if kind == "char_rect":
        _require_keys(doc, ("type", "r", "theta"), context)
        return _indicator(_parse_rect({"r": doc["r"], "theta": doc["theta"]}, context))
    if kind == "separable":
        _require_keys(doc, ("type", "radial", "angular", "rect"), context)
        return SeparableOnRect(
            _parse_factor(doc["radial"], _RADIAL_FACTORS, f"{context}.radial"),
            _parse_factor(doc["angular"], _ANGULAR_FACTORS, f"{context}.angular"),
            _parse_rect(doc["rect"], f"{context}.rect"),
        )
    if kind in _BOUNDARY_TYPES:
        factor, on_arc = _BOUNDARY_TYPES[kind]
        if on_arc:
            _require_keys(doc, ("type", "arc"), context)
            return OnArc(factor, *_parse_pair(doc["arc"], f"{context}.arc"))
        if factor is AngularCos:
            _require_keys(doc, ("type", "n"), context)
            return OnArc(AngularCos(_number(doc["n"], f"{context}.n", integer=True)))
        _require_keys(doc, ("type",), context)
        return OnArc(factor)
    if kind == "weighted_sum":
        _require_keys(doc, ("type", "terms"), context)
        if not isinstance(doc["terms"], list) or not doc["terms"]:
            raise SourceParseError(f"{context}.terms: expected a non-empty list")
        parsed = []
        for i, item in enumerate(doc["terms"]):
            _require_keys(item, ("coef", "term"), f"{context}.terms[{i}]")
            parsed.append((_number(item["coef"], f"{context}.terms[{i}].coef"),
                           _parse_doc(item["term"], f"{context}.terms[{i}].term")))
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
    SourceParseError for malformed documents (a field that is not a
    number, an order that is not an integer) and SourceValidationError for
    documents that violate invariants (inverted bounds, beta >= 1/2, bad
    arcs, non-finite coefficients).
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
    kernel: str | None = None  # the tag of the kernel command: "poisson" or "q"
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
    rect_a = _indicator(PolarRectangle(0.25, 0.5, 0.0, _PI / 4))
    rect_b = _indicator(PolarRectangle(0.6, 0.8, 5 * _PI / 6, _PI))
    # figures 9 and 11 compare their boundary-layer sources with the boundary
    # data of figures 8 and 10
    fig8_boundary = OnArc(AngularOne(), -_PI / 6, _PI / 6)
    fig10_boundary = OnArc(AbsPhi())

    cases = [
        FigureCase(1, "boundary kernel profiles at r = 0.5, 0.75, 0.85",
                   kernel="poisson", radii=(0.5, 0.75, 0.85)),
        FigureCase(2, "area kernel profiles at r = 0.5, 0.75",
                   kernel="q", radii=(0.5, 0.75)),
        FigureCase(3, "matched reconstructions of r^2 cos(2 theta) from boundary and area data",
                   boundary=OnArc(AngularCos(2)),
                   source=SeparableOnRect(RhoPower(2), AngularCos(2), PolarRectangle.full_disk()),
                   prefactor=TWO_OVER_PI),
        FigureCase(4, "area transform of the characteristic function of the disk r <= 1/4",
                   source=_indicator(PolarRectangle(0.0, 0.25, -_PI, _PI))),
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
                   source=_indicator(_annulus_rect(-_PI / 6, _PI / 6)),
                   prefactor=TWO_OVER_PI),
        FigureCase(10, "boundary integral of |theta|",
                   boundary=fig10_boundary),
        FigureCase(11, "area transform of |phi| rho on the boundary layer [0.9,1]x[-pi,pi]",
                   boundary=fig10_boundary,
                   source=SeparableOnRect(RhoPower(1), AbsPhi(), _annulus_rect(-_PI, _PI)),
                   prefactor=TWO_OVER_PI),
        FigureCase(12, "theta^2 boundary data on [-pi/6,pi/6] vs the matching boundary-layer "
                   "area transform",
                   boundary=OnArc(PhiSquared(), -_PI / 6, _PI / 6),
                   source=SeparableOnRect(RhoPower(1), PhiSquared(),
                                          _annulus_rect(-_PI / 6, _PI / 6)),
                   prefactor=TWO_OVER_PI),
        FigureCase(13, "sin(theta) boundary data on [0,pi] vs the matching boundary-layer "
                   "area transform",
                   boundary=OnArc(AngularSin(1), 0.0, _PI),
                   source=SeparableOnRect(RhoPower(1), AngularSin(1), _annulus_rect(0.0, _PI)),
                   prefactor=TWO_OVER_PI),
        FigureCase(14, "|ln|theta|| boundary data on [0,pi] vs the matching boundary-layer "
                   "area transform",
                   boundary=OnArc(AbsLogAbsPhi(), 0.0, _PI),
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
