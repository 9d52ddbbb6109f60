import math

import numpy as np
import pytest

from harmonicdisk.errors import InvalidRegionError
from harmonicdisk.geometry import PolarRectangle

PI = math.pi


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

