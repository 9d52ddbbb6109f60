"""Property tests of the spectral grid path on random catalog-shaped
regular sources and boundary data: the area transform and the Poisson
integral are linear in their data and equivariant under rotation by a grid
step.  Also of the closed-form transform of a rectangle indicator, the
exact reference of ``verify``."""

import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from harmonicdisk.geometry import EvaluationGrid, PolarRectangle
from harmonicdisk.sources import (
    AbsLogAbsPhi,
    AbsPhi,
    AngularCos,
    AngularOne,
    AngularSin,
    BoundarySum,
    GaussianBump,
    OnArc,
    PhiSquared,
    RadialOne,
    RhoPower,
    SeparableOnRect,
    SourceSum,
    _indicator,
    parse_source_config,
    serialize_config,
)
from harmonicdisk import verify
from harmonicdisk.quadrature import QuadratureSpec
from harmonicdisk.transforms import poisson_integral, q_point, q_transform

PI = math.pi
GRID = EvaluationGrid.regular(n_r=4, n_theta=16, r_max=0.9)
STEP = GRID.angles[1] - GRID.angles[0]
PROPERTY = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def rects(draw):
    r_lo = draw(st.floats(0.0, 0.7))
    r_hi = draw(st.floats(r_lo + 0.1, min(r_lo + 0.6, 0.95)))
    t_lo = draw(st.floats(-PI, PI - 0.3))
    t_hi = draw(st.floats(t_lo + 0.2, PI))
    return PolarRectangle(r_lo, r_hi, t_lo, t_hi)


radials = st.one_of(
    st.builds(RhoPower, st.integers(0, 3)),
    st.builds(GaussianBump, st.floats(0.5, 5.0), st.floats(0.2, 0.8), st.floats(2.0, 20.0)),
    st.just(RadialOne()),
)
angulars = st.one_of(
    st.builds(AngularCos, st.integers(0, 3)),
    st.builds(AngularSin, st.integers(1, 3)),
    st.sampled_from([AbsPhi(), PhiSquared(), AngularOne()]),
)
atoms = st.one_of(
    st.builds(_indicator, rects()),
    st.builds(SeparableOnRect, radials, angulars, rects()),
)

# arc ends on multiples of pi/96, so that an end of |ln|phi|| is its log
# point 0 or at least pi/96 from it: nearer, the singularity just beyond the
# end is no declared log end, and the grid rightly takes the adaptive engine
ends = st.integers(-96, 96).map(lambda j: PI * j / 96)
arcs = st.tuples(ends, ends).filter(lambda ab: ab[0] < ab[1])


def on_arcs(arc_factors):
    """Every (angular factor, arc) pair that a boundary type names, with
    the factor on a partial arc one of ``arc_factors``."""
    return st.one_of(
        st.builds(OnArc, st.sampled_from([AngularOne(), AbsPhi()])),
        st.builds(OnArc, st.builds(AngularCos, st.integers(0, 3))),
        st.builds(lambda angular, ab: OnArc(angular, *ab), st.sampled_from(arc_factors), arcs),
    )


boundary_atoms = on_arcs([AngularOne(), PhiSquared(), AngularSin(1), AbsLogAbsPhi()])
# Rotated evaluates a factor at phi - delta, which rounds the graded nodes
# next to a log point onto it (|ln 0| = inf), so no log factor is turned
turnable_boundary_atoms = on_arcs([AngularOne(), PhiSquared(), AngularSin(1)])
coefs = st.floats(-2.0, 2.0)


def _rotated_factors(factors, d):
    radial, angular = factors
    return radial, lambda phi: angular(phi - d)


@dataclass(frozen=True)
class Rotated:
    """f(rho, phi - delta) of a source or boundary function f: every piece,
    its angles, its log end and its angular factor turned by delta."""

    f: object
    delta: float

    def pieces(self):
        d = self.delta
        return [replace(p, lo=p.lo + d, hi=p.hi + d, factors=_rotated_factors(p.factors, d),
                        log_end=None if p.log_end is None else p.log_end + d, fn=None)
                for p in self.f.pieces()]

    def to_config(self):
        return {"type": "rotated", "delta": self.delta, "term": self.f.to_config()}


def spectral(f, transform=q_transform):
    fld = transform(f, GRID)
    assert fld.meta["engine"] == "spectral"
    return fld.values


def assert_linear(f, g, a, b, weighted_sum, transform):
    combined = spectral(weighted_sum(((a, f), (b, g))), transform)
    separate = a * spectral(f, transform) + b * spectral(g, transform)
    scale = max(1.0, float(np.max(np.abs(combined))), float(np.max(np.abs(separate))))
    assert np.max(np.abs(combined - separate)) <= 1e-12 * scale


def assert_equivariant(f, transform):
    base = spectral(f, transform)
    turned = spectral(Rotated(f, STEP), transform)
    scale = max(1.0, float(np.max(np.abs(base))))
    assert np.max(np.abs(turned - np.roll(base, 1, axis=1))) <= 1e-12 * scale


@PROPERTY
@given(atoms, atoms, coefs, coefs)
def test_linear_in_the_source(f, g, a, b):
    assert_linear(f, g, a, b, SourceSum, q_transform)


@PROPERTY
@given(atoms)
def test_equivariant_under_rotation_by_a_grid_step(f):
    assert_equivariant(f, q_transform)


@PROPERTY
@given(boundary_atoms, boundary_atoms, coefs, coefs)
def test_poisson_integral_linear_in_the_data(f, g, a, b):
    assert_linear(f, g, a, b, BoundarySum, poisson_integral)


@PROPERTY
@given(st.one_of(turnable_boundary_atoms,
                 st.builds(lambda f, g, a, b: BoundarySum(((a, f), (b, g))),
                           turnable_boundary_atoms, turnable_boundary_atoms, coefs, coefs)))
def test_poisson_integral_equivariant_under_rotation_by_a_grid_step(f):
    assert_equivariant(f, poisson_integral)


def sums(terms, weighted_sum):
    return st.builds(weighted_sum, st.lists(st.tuples(coefs, terms), min_size=1, max_size=3)
                     .map(tuple))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(atoms, sums(atoms, SourceSum), boundary_atoms,
                 sums(boundary_atoms, BoundarySum)))
@example(_indicator(PolarRectangle(0.0, 0.5, -PI, PI)))  # rects() rarely draw a disk
def test_documents_round_trip(f):
    # an indicator on [0, r] x [-pi, pi] is written as char_disk, and any
    # separable source of ones as an indicator: each parses back to f
    assert parse_source_config(serialize_config(f)) == f


radii = st.floats(0.0, 0.95)
angles = st.floats(-PI, PI)


@PROPERTY
@given(rects(), radii, angles)
def test_closed_form_matches_adaptive_quadrature(rect, r, theta):
    source = _indicator(rect)
    value, err, converged = q_point(source, r, theta, 1.0, QuadratureSpec(adaptive_tol=1e-12))
    exact = verify._indicator_q(source, r, theta)
    assert converged
    assert abs(value - exact) <= err + 1e-12 * max(1.0, abs(exact))


@PROPERTY
@given(rects(), st.floats(0.1, 0.9), radii, angles)
def test_closed_form_is_additive_across_a_split(rect, t, r, theta):
    whole = verify._indicator_q(_indicator(rect), r, theta)
    rho = rect.r_lo + t * (rect.r_hi - rect.r_lo)
    phi = rect.theta_lo + t * (rect.theta_hi - rect.theta_lo)
    for halves in (((rect.r_lo, rho, rect.theta_lo, rect.theta_hi),
                    (rho, rect.r_hi, rect.theta_lo, rect.theta_hi)),
                   ((rect.r_lo, rect.r_hi, rect.theta_lo, phi),
                    (rect.r_lo, rect.r_hi, phi, rect.theta_hi))):
        parts = SourceSum(tuple((1.0, _indicator(PolarRectangle(*h))) for h in halves))
        assert abs(verify._indicator_q(parts, r, theta) - whole) <= 1e-14 * max(1.0, abs(whole))


@PROPERTY
@given(rects(), st.floats(0.25, 0.35), angles)
def test_closed_form_branches_agree_at_the_switch(rect, modulus, arg):
    # each branch on both sides of |c| = _SERIES_BELOW = 0.3
    c = np.array(modulus * np.exp(1j * arg))
    values = []
    for switch in (0.0, 1.0):  # the closed form everywhere, the series everywhere
        with mock.patch.object(verify, "_SERIES_BELOW", switch):
            values.append(verify._indicator_h(c, rect.r_lo, rect.r_hi))
    assert abs(values[0] - values[1]) <= 1e-14


@PROPERTY
@given(rects(), angles)
def test_closed_form_at_the_centre_is_the_area(rect, theta):
    assert abs(verify._indicator_q(_indicator(rect), 0.0, theta) - rect.area) \
        <= 1e-15 * rect.area
