"""Exception types shared across the package."""


class FlavorMismatchError(ValueError):
    """An operation mixed states or kets that live in different spaces."""


class ImpossiblePostselectionError(ValueError):
    """Conditioning was requested on an outcome of (numerically) zero probability.

    ``probability`` holds the Born probability that was refused.
    """

    def __init__(self, outcome: str, probability: float):
        super().__init__(f"{outcome} has probability {probability:.3e}")
        self.probability = probability


class TruncationOverflowError(RuntimeError):
    """Probability leaked into the guard rows of a truncated Fock window."""


class DegenerateBranchError(ValueError):
    """The requested conditional branch has identically zero amplitude."""


class ConfigError(ValueError):
    """Invalid sweep configuration; the message names the offending field."""
