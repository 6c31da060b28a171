"""Exception taxonomy shared by all cvcat modules."""


class CvcatError(Exception):
    """Base class for all cvcat errors."""


class DomainError(CvcatError):
    """Input outside the mathematical domain of an operation."""


class ZeroProbabilityOutcomeError(CvcatError):
    """The conditional state is undefined: the outcome has ~zero probability."""


class DegenerateSuperpositionError(CvcatError):
    """The cat-state normalization denominator vanishes."""
