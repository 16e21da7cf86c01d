"""Exception hierarchy for the bchwaves package.

Every class carries the CLI's exit code for it: 2 for a domain rejection
(outside the admissible parameter region), 3 for a numerical failure
(quadrature, derivative error bounds, eigensolves, time stepping) and 1 for
any other package error.  The CLI reads the code from the exception, and a
sweep records any of them as the failing row's status.
"""

from __future__ import annotations


class BchWavesError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class NotInExistenceSet(BchWavesError):
    """Parameters do not support a smooth periodic wave with phi < c."""

    exit_code = 2

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class NumericalFailure(BchWavesError):
    """A computation did not converge or failed its own consistency check."""

    exit_code = 3


class QuadratureFailure(NumericalFailure):
    """Desingularized period integrand is not finite/positive, or the
    nested Lobatto (Clenshaw-Curtis) rule did not converge by its last
    level."""


class ConvergenceFailure(NumericalFailure):
    """Inversion of the half-period map, the root scan of the well (also
    where its root function leaves the double range), or another iteration
    failed."""


class RouteMismatch(NumericalFailure):
    """Two independent evaluation routes disagree beyond tolerance."""


class FDUnreliable(NumericalFailure):
    """Derivative error bound too large to trust a sign/classification."""


class CoefficientInconsistency(NumericalFailure):
    """Assembled Sturm-Liouville coefficients violate self-adjointness, or,
    in theta, miss the translation kernel or give a mass matrix that is not
    positive definite."""


class DiscretizationNotConverged(NumericalFailure):
    """Low eigenvalues still move when the mode count is doubled."""


class PositivityLost(NumericalFailure):
    """Momentum density lost positivity during time evolution."""


class BlowUp(NumericalFailure):
    """Sup-norm of the evolved state exceeded the blow-up guard."""
