"""Exception and warning types shared across the package."""


class NvUnmixError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NvUnmixError, ValueError):
    """Input violates a documented precondition or type invariant: among them wavelengths or
    field values outside the available grid, and operands on different wavelength grids or of
    different map shapes."""


class IdentifiabilityError(NvUnmixError, ArithmeticError):
    """The data cannot pin down the requested quantity, a vanished denominator among them."""


class ParseError(NvUnmixError, ValueError):
    """A data file does not conform to its declared format."""


class NvUnmixWarning(UserWarning):
    """Base class for diagnostic warnings."""


class ModelViolationWarning(NvUnmixWarning):
    """Data departs from the two-component model assumptions."""


class NonPhysicalWarning(NvUnmixWarning):
    """A derived quantity took a value outside its physical range."""


class ConditioningWarning(NvUnmixWarning):
    """Inputs leave a downstream inversion poorly conditioned."""
