"""Exception types shared across the package."""


class HypdimError(Exception):
    """Base class for all package errors."""


class ConfigError(HypdimError, ValueError):
    """A command line or model file that cannot be read as a run."""


class NoBranchError(HypdimError):
    """A point left the working region (no branch domain contains it)."""


class ParameterOutOfRangeError(HypdimError, ValueError):
    """A model constructor was called outside its valid parameter range."""


class IncompatibleLabelError(HypdimError, ValueError):
    """Requested potential label does not apply to this model kind."""


class NotMixingError(HypdimError):
    """Transition matrix is not primitive; spectral pressure undefined here."""


class IncompatibleStochasticsError(HypdimError, ValueError):
    """Probability data is not stochastic or violates the transition matrix."""


class CapExceededError(HypdimError):
    """Word enumeration would exceed the desk-scale cap."""


class DeltaTooLargeError(HypdimError, ValueError):
    """Separation scale delta exceeds what the branch geometry guarantees."""


class GridTooCoarseError(HypdimError, ValueError):
    """Grid cells are too large for the requested neighborhood scale."""


class DegenerateCurveError(HypdimError, ValueError):
    """A growth curve has too few usable points for a fit."""


class DegenerateScalesError(HypdimError, ValueError):
    """Box-counting scales do not span enough range for a dimension fit."""


class NonPositiveRateError(HypdimError, ValueError):
    """Expansion rate must be positive for the dimension bound."""
