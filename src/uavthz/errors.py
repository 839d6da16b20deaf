"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition (non-finite, wrong shape, bad range).

    fields names the dataclass fields whose values failed a dataclass's own
    check, so a config front end can name the keys they came from.
    """

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def require(ok: bool, message: str, *fields: str) -> None:
    """Raise InvalidInputError(message) naming the checked fields unless ok."""
    if not ok:
        raise InvalidInputError(message, *fields)


class GeometryDegenerateError(InvalidInputError):
    """Geometry is degenerate for the requested quantity (e.g. UAV at or below ground level)."""


class NumericFailureError(ArithmeticError):
    """A numerical routine failed hard (a non-finite gradient in an Adam step)."""


class ConfigError(ValueError):
    """A run configuration is unreadable, has unknown keys, or fails validation."""
