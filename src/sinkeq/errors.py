"""Exception hierarchy shared across the package."""


class GameAnalysisError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GameAnalysisError):
    """Malformed game data or operation arguments."""


class SchemaError(ValidationError):
    """A game description read from JSON violates the input schema."""


class InvalidActionError(ValidationError):
    """An action index is outside a player's action set."""


class InvalidParametersError(ValidationError):
    """Operation parameters violate a documented precondition."""


class DegenerateWelfareError(GameAnalysisError):
    """The optimal welfare is zero, so welfare ratios are undefined."""


class NumericalFailureError(GameAnalysisError):
    """A linear solve or iteration failed to reach the required tolerance."""


class CertificateNotFoundError(GameAnalysisError):
    """No finite smoothness parameters exist for the game."""


class WitnessNotFoundError(GameAnalysisError):
    """A better-response sink has no support action meeting its welfare floor."""
