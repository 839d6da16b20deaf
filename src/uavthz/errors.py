"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition (non-finite, wrong shape, bad range)."""


class GeometryDegenerateError(InvalidInputError):
    """Geometry is degenerate for the requested quantity (e.g. UAV at or below ground level)."""


class NumericFailureError(ArithmeticError):
    """A numerical routine failed hard (non-finite gradients, non-convergent quadrature)."""


class ConfigError(ValueError):
    """A run configuration is unreadable, has unknown keys, or fails validation."""
