"""Exception types shared across the package."""


class DgzslError(Exception):
    """Base class for all validation, format, and configuration errors."""


class ShapeError(DgzslError):
    """Operands have incompatible shapes. Messages name both shapes."""


class NonFiniteError(ShapeError):
    """An array holds NaN or ±inf where it must be finite. ``what`` names the
    array (say "posterior mean") and ``values`` is the array itself, so a
    caller that knows where its rows came from can name the row its way; a
    copy made from the message alone carries neither."""

    def __init__(self, message: str, what: str | None = None, values=None):
        super().__init__(message)
        self.what, self.values = what, values


class DataFormatError(DgzslError):
    """A data file violates its declared on-disk format."""


class ConfigError(DgzslError):
    """A training configuration is malformed or inconsistent."""
