"""Exception hierarchy shared by all mlcp modules.

The CLI maps these onto its exit-code contract: domain/range/config
problems exit with 2, accuracy failures (and Python's ArithmeticError)
with 3, identity failures with 4.
"""


class MlcpError(Exception):
    """Base class for all mlcp errors."""


class DomainError(MlcpError):
    """An argument lies outside the mathematical domain of an operation.

    ``constraint`` names the offending parameter (e.g. ``"r"``) so that
    callers can produce machine-readable error records.
    """

    def __init__(self, message, constraint=None):
        super().__init__(message)
        self.constraint = constraint


class RangeError(MlcpError):
    """Index bookkeeping produced an empty or inconsistent range."""


class UnsupportedOrderError(MlcpError):
    """A series/coefficient order beyond the implemented table was requested."""


class SingularPointError(MlcpError):
    """Evaluation requested exactly at a non-removable singular point."""


class AccuracyError(MlcpError):
    """A numerical routine could not certify the requested tolerance, or an
    exact j-term's inner sum lost its sign to cancellation.

    ``component`` is the index of the component that a quadrature of an
    integrand with a component axis could not certify, else None.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component
