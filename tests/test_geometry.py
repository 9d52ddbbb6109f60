import math

import numpy as np
import pytest

from harmonicdisk.errors import DomainError, InvalidRegionError
from harmonicdisk.geometry import (
    ComplexPoint,
    PolarPoint,
    PolarRectangle,
)
from harmonicdisk.kernels import poisson_kernel, q_kernel

PI = math.pi


class TestPolarPoint:
    def test_interior_constructor(self):
        p = PolarPoint.interior(0.5, 1.0)
        assert p.r == 0.5
        with pytest.raises(DomainError):
            PolarPoint.interior(1.0, 0.0)
        with pytest.raises(DomainError):
            PolarPoint.interior(1.5, 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            PolarPoint(-0.1, 0.0)

    def test_theta_stored_as_given_but_kernels_periodic(self):
        # angles are not normalized at construction; every kernel
        # evaluation is invariant under theta -> theta + 2 pi
        p = PolarPoint(0.5, 7.0)
        assert p.theta == 7.0
        assert poisson_kernel(p.r, p.theta) == pytest.approx(
            poisson_kernel(p.r, p.theta + 2 * PI), rel=1e-12
        )
        assert q_kernel(p.r, p.theta) == pytest.approx(
            q_kernel(p.r, p.theta + 2 * PI), rel=1e-12
        )

    def test_to_complex(self):
        z = PolarPoint(0.5, PI / 2).to_complex()
        assert z == pytest.approx(0.5j, abs=1e-16)


class TestComplexPoint:
    def test_interior(self):
        p = ComplexPoint.interior(0.3, 0.4)
        assert p.abs == pytest.approx(0.5)
        with pytest.raises(DomainError):
            ComplexPoint.interior(0.8, 0.6)

    def test_roundtrip(self):
        z = 0.25 - 0.35j
        assert ComplexPoint.from_complex(z).to_complex() == z


class TestPolarRectangle:
    def test_area(self):
        assert PolarRectangle.full_disk().area == pytest.approx(PI)
        rect = PolarRectangle(0.25, 0.5, 0.0, PI / 4)
        assert rect.area == pytest.approx(0.5 * (0.25 - 0.0625) * PI / 4)

    def test_contains(self):
        rect = PolarRectangle(0.25, 0.5, 0.0, PI / 4)
        assert rect.contains(0.3, 0.1)
        assert not rect.contains(0.6, 0.1)
        mask = rect.contains(np.array([0.3, 0.6]), np.array([0.1, 0.1]))
        assert mask.tolist() == [True, False]

    def test_validation(self):
        with pytest.raises(InvalidRegionError):
            PolarRectangle(0.5, 0.5, 0.0, 1.0)
        with pytest.raises(InvalidRegionError):
            PolarRectangle(0.0, 1.1, 0.0, 1.0)
        with pytest.raises(InvalidRegionError):
            PolarRectangle(0.0, 1.0, 2.0, 1.0)

