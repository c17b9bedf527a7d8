"""Exception hierarchy shared across the package.

Every error a caller is expected to handle derives from SubgeneralError.
ArgumentError covers malformed inputs (bad primes, duplicate places, empty
form lists); DomainError covers mathematically ill-posed requests on
well-formed inputs.
"""

from __future__ import annotations


class SubgeneralError(Exception):
    pass


class ArgumentError(SubgeneralError, ValueError):
    """Malformed or out-of-contract input."""


class DomainError(SubgeneralError):
    """Input is well-formed but the requested value does not exist."""


class SupportError(DomainError):
    """A point lies on the support of the divisor being evaluated.

    Carries enough context to name the offending component.
    """

    def __init__(self, message, point=None, subject=None, component=None):
        super().__init__(message)
        self.point = point
        self.subject = subject
        self.component = component


class PositionError(DomainError):
    """A position precondition failed; carries the failing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedSubschemeError(DomainError):
    """Requested closed-form value is only defined for recognized classes."""


class ConfigRejectedError(SubgeneralError):
    """Experiment configuration failed validation; carries details."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
