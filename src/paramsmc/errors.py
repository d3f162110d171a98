"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all paramsmc failures."""


class ConfigError(EngineError):
    """Invalid, inconsistent, or unknown configuration input."""


class DimensionMismatchError(EngineError):
    """Array shape disagrees with the model's declared dimensions."""


class DegenerateUpdateError(EngineError):
    """A projection update saw vanishing total likelihood mass."""


class TotalDegeneracyError(EngineError):
    """Every particle weight is zero; the run cannot continue."""


class UnsupportedParameterKindError(ConfigError):
    """The algorithm cannot handle the model's parameter kind."""


class SingularCovarianceError(EngineError):
    """Covariance is not positive definite even after jitter."""


class PointBudgetError(EngineError):
    """A deterministic quadrature grid or exact enumeration exceeds its point budget."""
