"""Exception types shared across the package."""


class HarmonicDiskError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HarmonicDiskError):
    """An argument lies outside the mathematical domain of an operation."""


class NonFiniteError(HarmonicDiskError):
    """An integrand's rule sum or a field value came back NaN or infinite."""


class InvalidRegionError(HarmonicDiskError):
    """A polar rectangle is degenerate or inconsistent."""


class InvalidExponentError(HarmonicDiskError):
    """A singularity exponent is outside the supported open interval."""


class UnknownFigureError(HarmonicDiskError):
    """Requested figure id is not in the 1..15 catalog."""


class SourceParseError(HarmonicDiskError):
    """A source/boundary config document could not be parsed."""


class SourceValidationError(HarmonicDiskError):
    """A parsed source/boundary config violates an invariant."""


class IncompatibleKindError(HarmonicDiskError):
    """A norm kind does not apply to the given input object."""


class StencilOutOfRangeError(HarmonicDiskError):
    """A finite-difference stencil would leave the sampled region."""


class NonConvergenceError(HarmonicDiskError):
    """A written field has points whose quadrature did not converge."""
