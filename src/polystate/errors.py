"""Exception types shared across the package."""


class PolystateError(Exception):
    """Base class for all package errors."""


class ConfigurationError(PolystateError, ValueError):
    """An environment setting the package reads is malformed."""


class DimensionMismatchError(PolystateError):
    """Operator or state dimensions are incompatible."""


class StateValidationError(PolystateError):
    """A matrix fails the density-operator invariants beyond tolerance."""


class ImpossibleOutcomeError(PolystateError):
    """Conditioning on a recorded outcome whose branch weight is zero."""


class ParseError(PolystateError):
    """Scenario document is not syntactically valid."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioValidationError(PolystateError):
    """Scenario violates a structural invariant; carries the diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(f"{d.field}: {d.invariant}" for d in self.diagnostics)
        super().__init__(f"invalid scenario: {summary}")


class BranchExplosionError(PolystateError):
    """Exact branch enumeration would exceed the configured cap."""


class EmptyEnsembleError(PolystateError):
    """No Monte Carlo run survives the retention filter."""
