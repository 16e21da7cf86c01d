"""Exception hierarchy for the bchwaves package.

Domain rejections (outside the admissible parameter region) and numerical
failures (quadrature, derivative error bounds, eigensolves, time stepping) are
kept distinct so the CLI can map them to different exit codes.
"""

from __future__ import annotations


class BchWavesError(Exception):
    """Base class for all package errors."""


class NotInExistenceSet(BchWavesError):
    """Parameters do not support a smooth periodic wave with phi < c."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class QuadratureFailure(BchWavesError):
    """Desingularized period integrand is not finite/positive, or the
    nested Lobatto (Clenshaw-Curtis) rule did not converge by its last
    level."""


class ConvergenceFailure(BchWavesError):
    """Inversion of the half-period map (or another iteration) failed."""


class RouteMismatch(BchWavesError):
    """Two independent evaluation routes disagree beyond tolerance."""


class FDUnreliable(BchWavesError):
    """Derivative error bound too large to trust a sign/classification."""


class CoefficientInconsistency(BchWavesError):
    """Assembled Sturm-Liouville coefficients violate self-adjointness."""


class DiscretizationNotConverged(BchWavesError):
    """Low eigenvalues still move when the mode count is doubled."""


class PositivityLost(BchWavesError):
    """Momentum density lost positivity during time evolution."""


class BlowUp(BchWavesError):
    """Sup-norm of the evolved state exceeded the blow-up guard."""
