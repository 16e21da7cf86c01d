"""Smooth periodic traveling waves of the b-family Camassa-Holm equation:
construction, orbital-stability criteria, periodic spectra of the second
variation, and time evolution of the momentum density."""

__version__ = "0.8.0"

from .errors import (BchWavesError, BlowUp, CoefficientInconsistency,
                     ConvergenceFailure, DiscretizationNotConverged,
                     FDUnreliable, NotInExistenceSet, NumericalFailure,
                     PositivityLost, QuadratureFailure, RouteMismatch)
from .evolution import (EvolutionState, RunDiagnostics, cfl_dt,
                        make_perturbation, orbital_distance,
                        reconstruct_velocity, run_experiment, step)
from .invariants import (InvariantSet, JacobianReport, Multipliers,
                         family_derivatives, multipliers, parameter_jacobians,
                         restricted_invariants)
from .potential import (PotentialScan, WaveParameters, a_max, critical_points,
                        eval_g, eval_potential, existence_check)
from .profile import (ProfileResiduals, WaveProfile, period, profile_residuals,
                      synthesize_profile, wave_integral, write_profile_csv)
from .spectral import (SECOND_VARIATION_SCALE, KernelInertia,
                       OperatorCoefficients, ProofIdentityReport,
                       SpectralReport, apply_operator, assemble_operator,
                       kernel_inertia, proof_identities, theta_spectrum)

__all__ = [name for name in dir() if not name.startswith("_")]
