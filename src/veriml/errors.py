"""Exception hierarchy shared across the package."""


class VerimlError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(VerimlError, ValueError):
    """An argument violates a documented precondition."""


class ShapeError(VerimlError, ValueError):
    """Vector or matrix dimensions are inconsistent."""


class TrainingFailureError(VerimlError):
    """Training finished without meeting its required quality thresholds.

    Carries the final measured metrics so callers can report why.
    """

    def __init__(self, message: str, metrics: dict | None = None):
        super().__init__(message)
        self.metrics = dict(metrics or {})


class GenerationFailureError(VerimlError):
    """A steganographic container failed its dual acceptance property."""


class ProbeSetupError(VerimlError):
    """A probe campaign could not be constructed (e.g. container generation
    failed hard after all retries)."""


class ProtocolError(VerimlError):
    """An opaque scoring interface returned malformed output."""


class ConfigValidationError(VerimlError):
    """A scenario config failed validation; ``errors`` lists the offending
    fields, one message per field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class FixtureError(VerimlError):
    """Building a scenario fixture failed (training, cache, or artifacts)."""


class FundingError(VerimlError):
    """A ledger client lacks the balance for the requested fee."""


class AccessDeniedError(VerimlError):
    """Identity is not admitted by the ledger gatekeeper."""


class StateError(VerimlError):
    """A ledger request is not in the state the operation requires."""


class SpecIntegrityError(VerimlError):
    """A model spec's stored digest does not match its contents."""
