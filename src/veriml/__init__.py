"""veriml: verification harness for outsourced ML inference.

Detects providers that answer classification queries with something other
than the model they were paid to run: steganographic probe campaigns,
bit-exact and statistical benchmarking against published training seeds,
HMAC-certified responses, adversarial robustness scoring against published
claims, and a hash-chained multi-oracle audit ledger.
"""

from ._version import __version__
from .errors import (AccessDeniedError, ConfigValidationError, FixtureError,
                     FundingError, GenerationFailureError, ParameterError,
                     ProbeSetupError, ProtocolError, ShapeError,
                     SpecIntegrityError, StateError, TrainingFailureError,
                     VerimlError)

__all__ = [
    "__version__",
    "VerimlError", "ParameterError", "ShapeError", "TrainingFailureError",
    "GenerationFailureError", "ProbeSetupError", "ProtocolError",
    "ConfigValidationError", "FixtureError", "FundingError",
    "AccessDeniedError", "StateError", "SpecIntegrityError",
]
