"""Property tests of the spectral grid path on random catalog-shaped
regular sources: the area transform is linear in the source and
equivariant under rotation by a grid step.  Also of the closed-form
transform of a rectangle indicator, the exact reference of ``verify``."""

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from harmonicdisk.geometry import EvaluationGrid, PolarRectangle
from harmonicdisk.sources import (
    AbsPhi,
    AngularCos,
    AngularOne,
    AngularSin,
    CharacteristicRect,
    GaussianBump,
    PhiSquared,
    RadialOne,
    RhoPower,
    SeparableOnRect,
    SourceFunction,
    SourcePiece,
    SourceSum,
)
from harmonicdisk import verify
from harmonicdisk.quadrature import QuadratureSpec
from harmonicdisk.transforms import q_point, q_transform

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
    st.builds(CharacteristicRect, rects()),
    st.builds(SeparableOnRect, radials, angulars, rects()),
)
coefs = st.floats(-2.0, 2.0)


def _rotated_factors(factors, d):
    radial, angular = factors
    return radial, lambda phi: angular(phi - d)


@dataclass(frozen=True)
class Rotated(SourceFunction):
    """source(rho, phi - delta): every piece, its rectangle and its angular
    factor turned by delta."""

    source: SourceFunction
    delta: float

    def pieces(self):
        d = self.delta
        return [
            SourcePiece(
                p.coef,
                PolarRectangle(p.rect.r_lo, p.rect.r_hi, p.rect.theta_lo + d, p.rect.theta_hi + d),
                _rotated_factors(p.factors, d),
                weight=p.weight,
            )
            for p in self.source.pieces()
        ]

    def to_config(self):
        return {"type": "rotated", "delta": self.delta, "term": self.source.to_config()}


def spectral(source):
    fld = q_transform(source, GRID)
    assert fld.meta["engine"] == "spectral"
    return fld.values


@PROPERTY
@given(atoms, atoms, coefs, coefs)
def test_linear_in_the_source(f, g, a, b):
    combined = spectral(SourceSum(((a, f), (b, g))))
    separate = a * spectral(f) + b * spectral(g)
    scale = max(1.0, float(np.max(np.abs(combined))), float(np.max(np.abs(separate))))
    assert np.max(np.abs(combined - separate)) <= 1e-12 * scale


@PROPERTY
@given(atoms)
def test_equivariant_under_rotation_by_a_grid_step(f):
    base = spectral(f)
    turned = spectral(Rotated(f, STEP))
    scale = max(1.0, float(np.max(np.abs(base))))
    assert np.max(np.abs(turned - np.roll(base, 1, axis=1))) <= 1e-12 * scale


radii = st.floats(0.0, 0.95)
angles = st.floats(-PI, PI)


@PROPERTY
@given(rects(), radii, angles)
def test_closed_form_matches_adaptive_quadrature(rect, r, theta):
    source = CharacteristicRect(rect)
    value, err, converged = q_point(source, r, theta, 1.0, QuadratureSpec(adaptive_tol=1e-12))
    exact = verify._indicator_q(source, r, theta)
    assert converged
    assert abs(value - exact) <= err + 1e-12 * max(1.0, abs(exact))


@PROPERTY
@given(rects(), st.floats(0.1, 0.9), radii, angles)
def test_closed_form_is_additive_across_a_split(rect, t, r, theta):
    whole = verify._indicator_q(CharacteristicRect(rect), r, theta)
    rho = rect.r_lo + t * (rect.r_hi - rect.r_lo)
    phi = rect.theta_lo + t * (rect.theta_hi - rect.theta_lo)
    for halves in (((rect.r_lo, rho, rect.theta_lo, rect.theta_hi),
                    (rho, rect.r_hi, rect.theta_lo, rect.theta_hi)),
                   ((rect.r_lo, rect.r_hi, rect.theta_lo, phi),
                    (rect.r_lo, rect.r_hi, phi, rect.theta_hi))):
        parts = SourceSum(tuple((1.0, CharacteristicRect(PolarRectangle(*h))) for h in halves))
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
    assert abs(verify._indicator_q(CharacteristicRect(rect), 0.0, theta) - rect.area) \
        <= 1e-15 * rect.area
