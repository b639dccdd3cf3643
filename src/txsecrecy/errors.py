"""Exception types shared across the package."""


class TxSecrecyError(Exception):
    """Base class for all package-specific errors."""


class RateSeparationError(TxSecrecyError):
    """Eavesdropper rates are duplicated or too close to each other.

    The closed forms divide by pairwise rate differences, so nearly
    coincident rates make them meaningless.  Use
    :func:`txsecrecy.scenario.jitter_rates` to force evaluation.
    """


class DomainError(TxSecrecyError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedClosedFormError(TxSecrecyError):
    """No closed form exists for the requested scheme; use quadrature."""


class InvalidRegimeError(TxSecrecyError):
    """The operation is only defined in a specific parameter regime."""


class QuadratureError(TxSecrecyError):
    """Adaptive quadrature failed to converge."""
