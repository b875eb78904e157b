"""Exception taxonomy shared across the package."""


class SpectralAttnError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(SpectralAttnError, ValueError):
    """Operands have incompatible or invalid shapes."""


class ConfigError(SpectralAttnError, ValueError):
    """A configuration value violates its contract."""


class DataError(SpectralAttnError, ValueError):
    """A dataset or split cannot support the requested operation."""


class ParseError(SpectralAttnError, ValueError):
    """A cell or field could not be parsed."""


class FormatError(SpectralAttnError, ValueError):
    """A file's structure is malformed."""


class FiniteInputError(SpectralAttnError, ValueError):
    """An operation received NaN or Inf, or its result overflowed float64."""


class EmptyTapeError(SpectralAttnError, RuntimeError):
    """backward() was called on a tape with no recorded operations."""
