"""Exception types shared across the package."""


class MagicTrapError(Exception):
    """Base class for all package errors."""


class ValidationError(MagicTrapError, ValueError):
    """Invalid input: bad value, broken invariant, malformed record."""


class CatalogError(ValidationError):
    """Species file failed to parse or violated a catalog invariant."""


class PoleError(MagicTrapError, ValueError):
    """Requested wavelength sits inside the guard band of a catalog line."""


class NumericalError(MagicTrapError, RuntimeError):
    """A numerical procedure failed (singular system, no convergence)."""
