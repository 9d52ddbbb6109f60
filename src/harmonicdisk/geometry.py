"""Points, rectangles and evaluation grids in polar coordinates.

All angles are radians.  Radii are dimensionless; the unit disk is the
ambient domain everywhere in this package.  The canonical angle window is
[-pi, pi); catalog entries defined on [0, 2*pi] ranges are converted at
construction time so only one convention circulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidRegionError

TWO_PI = 2.0 * math.pi

# Evaluation radii above this are refused unless explicitly overridden:
# kernel peaks sharpen like (1 - r*rho)^-2 and quadrature cost explodes.
DEFAULT_RADIUS_CAP = 0.99


@dataclass(frozen=True)
class PolarPoint:
    """A point (r, theta) in polar coordinates, r >= 0."""

    r: float
    theta: float

    def __post_init__(self):
        if self.r < 0.0:
            raise DomainError(f"radius must be non-negative, got {self.r}")

    @staticmethod
    def interior(r: float, theta: float) -> "PolarPoint":
        """Construct a point strictly inside the unit disk."""
        if not 0.0 <= r < 1.0:
            raise DomainError(f"interior point needs 0 <= r < 1, got r={r}")
        return PolarPoint(r, theta)

    def to_complex(self) -> complex:
        return complex(self.r * math.cos(self.theta), self.r * math.sin(self.theta))


@dataclass(frozen=True)
class ComplexPoint:
    """A point of the complex plane, stored as real/imaginary parts."""

    re: float
    im: float

    @property
    def abs(self) -> float:
        return math.hypot(self.re, self.im)

    @staticmethod
    def interior(re: float, im: float) -> "ComplexPoint":
        """Construct a point strictly inside the unit disk."""
        p = ComplexPoint(re, im)
        if p.abs >= 1.0:
            raise DomainError(f"interior point needs |z| < 1, got |z|={p.abs}")
        return p

    @staticmethod
    def from_complex(z: complex) -> "ComplexPoint":
        return ComplexPoint(z.real, z.imag)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class PolarRectangle:
    """The set {(rho, phi): r_lo <= rho <= r_hi, theta_lo <= phi <= theta_hi}.

    The full disk is PolarRectangle(0, 1, -pi, pi).
    """

    r_lo: float
    r_hi: float
    theta_lo: float
    theta_hi: float

    def __post_init__(self):
        if not 0.0 <= self.r_lo < self.r_hi <= 1.0:
            raise InvalidRegionError(
                f"need 0 <= r_lo < r_hi <= 1, got [{self.r_lo}, {self.r_hi}]"
            )
        if not self.theta_lo < self.theta_hi <= self.theta_lo + TWO_PI + 1e-15:
            raise InvalidRegionError(
                "need theta_lo < theta_hi <= theta_lo + 2*pi, got "
                f"[{self.theta_lo}, {self.theta_hi}]"
            )

    @staticmethod
    def full_disk() -> "PolarRectangle":
        return PolarRectangle(0.0, 1.0, -math.pi, math.pi)

    @property
    def area(self) -> float:
        """Area under the measure rho drho dphi."""
        return 0.5 * (self.r_hi**2 - self.r_lo**2) * (self.theta_hi - self.theta_lo)

    def contains(self, rho, phi):
        """Vectorized membership test (closed rectangle)."""
        rho = np.asarray(rho)
        phi = np.asarray(phi)
        return (
            (rho >= self.r_lo)
            & (rho <= self.r_hi)
            & (phi >= self.theta_lo)
            & (phi <= self.theta_hi)
        )


class EvaluationGrid:
    """Tensor grid of evaluation points (radii x angles).

    Radii live in [0, r_max] with r_max < 1; angles cover [-pi, pi).
    Radii above DEFAULT_RADIUS_CAP are refused unless
    ``allow_near_boundary`` is set, since transform cost blows up there.
    """

    def __init__(self, radii, angles, allow_near_boundary: bool = False):
        radii = np.asarray(radii, dtype=float)
        angles = np.asarray(angles, dtype=float)
        if radii.ndim != 1 or angles.ndim != 1 or radii.size == 0 or angles.size == 0:
            raise DomainError("radii and angles must be non-empty 1-D arrays")
        if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(angles))):
            raise DomainError("radii and angles must be finite")
        if np.any(np.diff(radii) <= 0) or np.any(np.diff(angles) <= 0):
            raise DomainError("radii and angles must be strictly increasing")
        if radii[0] < 0.0 or radii[-1] >= 1.0:
            raise DomainError(f"radii must lie in [0, 1), got max {radii[-1]}")
        if not allow_near_boundary and radii[-1] > DEFAULT_RADIUS_CAP:
            raise DomainError(
                f"evaluation radius {radii[-1]} > {DEFAULT_RADIUS_CAP} refused by "
                "default; pass allow_near_boundary=True to override"
            )
        if angles[0] < -math.pi - 1e-12 or angles[-1] >= math.pi:
            raise DomainError("angles must lie in [-pi, pi)")
        self.radii = radii
        self.angles = angles

    @staticmethod
    def regular(
        n_r: int = 40,
        n_theta: int = 128,
        r_max: float = 0.9,
        r_min: float = 0.0,
        allow_near_boundary: bool = False,
    ) -> "EvaluationGrid":
        """Uniform grid: n_r radii on [r_min, r_max], n_theta angles on [-pi, pi)."""
        if n_r < 1 or n_theta < 1:
            raise DomainError("grid needs at least one radius and one angle")
        if not (math.isfinite(r_min) and math.isfinite(r_max)):
            raise DomainError("r_min and r_max must be finite")
        radii = np.linspace(r_min, r_max, n_r)
        angles = np.linspace(-math.pi, math.pi, n_theta, endpoint=False)
        return EvaluationGrid(radii, angles, allow_near_boundary=allow_near_boundary)

    @property
    def n_r(self) -> int:
        return self.radii.size

    @property
    def n_theta(self) -> int:
        return self.angles.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_r, self.n_theta)

    def __eq__(self, other):
        return (
            isinstance(other, EvaluationGrid)
            and np.array_equal(self.radii, other.radii)
            and np.array_equal(self.angles, other.angles)
        )

    def __repr__(self):
        return (
            f"EvaluationGrid(n_r={self.n_r}, n_theta={self.n_theta}, "
            f"r_max={self.radii[-1]:g})"
        )
