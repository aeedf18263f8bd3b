"""Shape-invariant and self-similar quantum potentials.

Numerical realization of the factorization/shape-invariance machinery:
spectra from remainder sums, ladder-built eigenfunctions checked against a
finite-difference diagonalization oracle, the self-similar superpotential
from its power-series recursion with pantograph continuation, the
associated operator algebra verified as concrete identities on a parameter
lattice and on truncated ladder matrices, coherent states, and forced
time evolution.
"""

__version__ = "0.1.0"

from .grid import (Grid, apply_ladder, dilate, inner, norm, normalized,
                   InvalidRangeError, TooFewPointsError, GridMismatchError,
                   BoundaryDecayWarning)
from .series import (SeriesCoefficients, SelfSimilarW, series_coefficients,
                     HorizonExceededError)
from .families import (ParameterRule, PotentialFamily, Harmonic, Morse,
                       SelfSimilar, FAMILIES, eval_W, ground_state,
                       shape_invariance_residual, family_from_config,
                       suggested_grid, NonNormalizableError, OutOfDomainError)
from .spectra import (SpectrumTable, energy_levels, eigenstate_with_prenorm,
                      fd_diagonalize, eigen_residual, LevelNotBoundError,
                      DegenerateLevelsError)
from .lattice import (LatticeContext, packet_state, commutator_residual,
                      dilation_identity_residual, adjoint_pair_residual,
                      applicable_relations, RELATIONS, UnknownRelationError,
                      WindowTooSmallError)
from .ladder_matrices import LadderMatrices, matrix_identities, SingularSpectrumError
from .coherent import coherent_recursive, coherent_closed_scaling, coherent_property_residuals
from .dynamics import (DriveProfile, ForcedEvolution, evolve_forced,
                       TruncationOverflowError, StepInstabilityError)
