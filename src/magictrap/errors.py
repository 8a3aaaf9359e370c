"""Exception types shared across the package, and ``checked``, which gives a
record type a constructor that raises them."""


class MagicTrapError(Exception):
    """Base class for all package errors."""


class ValidationError(MagicTrapError, ValueError):
    """Invalid input: bad value, broken invariant, malformed record."""


class CatalogError(ValidationError):
    """Species file failed to parse or violated a catalog invariant."""


class NoPhotonsError(ValidationError):
    """g2(0) asked of a steady state that holds no photons."""


class PoleError(MagicTrapError, ValueError):
    """Requested wavelength sits inside the guard band of a catalog line."""


class NumericalError(MagicTrapError, RuntimeError):
    """A numerical procedure failed (singular system, no convergence)."""


def checked(record):
    """The NamedTuple class ``record``, subclassed under its own name so that
    each new instance is passed to ``record._check``, which raises
    ValidationError for a bad field. The instances stay frozen tuples, with
    the NamedTuple's repr."""
    def __new__(cls, *args, **kwargs):
        self = record.__new__(cls, *args, **kwargs)
        self._check()
        return self
    return type(record.__name__, (record,), {
        "__slots__": (), "__new__": __new__, "__doc__": record.__doc__,
        "__module__": record.__module__})
