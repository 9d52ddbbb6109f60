"""Property tests of the spectral grid path on random catalog-shaped
regular sources: the area transform is linear in the source and
equivariant under rotation by a grid step."""

import math
from dataclasses import dataclass

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
from harmonicdisk.transforms import q_transform

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
                lambda rho, phi, fn=p.fn: fn(rho, phi - d),
                p.beta,
                _rotated_factors(p.factors, d),
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
