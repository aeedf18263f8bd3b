"""Truncated ladder matrices on the energy eigenbasis and their identities.

With levels E_0 = 0 < E_1 < ... the raising matrix acts as
B+ |n> = sqrt(E_{n+1}) |n+1>, B- is its conjugate transpose, and
H = B+ B- is diagonal with entries E_n. H has no inverse (E_0 = 0) but the
pseudo-inverse suffices for the combinations that exist: H^{-1} B+ is a
right inverse of B-, and Q = B- H^{-1/2}, Q_dag = H^{-1/2} B+ satisfy
Q Q_dag = 1 while Q_dag Q = 1 - |0><0|.

Every operator is diagonal or has one off-diagonal, so each entry of every
product has one nonzero term, and the identities are vector arithmetic on
the weights sqrt(E_k) and 1/E_k: no dense matrix is built, and memory is
O(N). The N x N blocks read levels 0 .. N only.
"""

import numpy as np

from .families import worst_residual
from .spectra import SpectrumTable


class SingularSpectrumError(ValueError):
    """A level above the ground state has zero energy."""


class LadderMatrices:
    """The weights of the truncated ladder operators on levels 0 .. N:
    B+ |k-1> = w_k |k> with w_k = sqrt(E_k), and H^{-1} |k> = |k> / E_k, k = 1 .. N.

    A thin holder of validated weights; perfbench's tracer wraps its
    __init__ as the ladder_matrices.build span.
    """

    def __init__(self, levels: SpectrumTable, dimension: int):
        if dimension < 3:
            raise ValueError(f"need dimension >= 3, got {dimension}")
        E = levels.upto(dimension)[1:]
        if np.any(E <= 0):
            raise SingularSpectrumError("levels above the ground state must be positive")
        self.weights = levels.raising_weights(dimension)
        with np.errstate(over="ignore"):  # refused by matrix_identities as a deviation
            self.inverse_levels = 1.0 / E


def matrix_identities(levels: SpectrumTable, N: int) -> dict:
    """Deviations of the inverse and isometry identities on the truncated matrices.

    Returns {identity: deviation}, each the worst absolute deviation taken
    on the blocks where the identity is exact: Q Q_dag and Q_dag Q on the
    full N x N block, the right-inverse identity B- (H^{-1} B+) = 1 on
    components 0 .. N-2, unit norms of (Q_dag)^n |0>, and H = B+ B- and
    B- |0> = 0 on the N x N blocks of the operators themselves. A deviation
    that is not finite is refused; the caller holds the tolerance.

    Q and Q_dag carry p_k = w_k sqrt(1/E_k) on their off-diagonal, so
    Q Q_dag is diag(p_1^2 .. p_N^2) and Q_dag Q is diag(0, p_1^2 .. p_{N-1}^2);
    (Q_dag)^n |0> is (p_1 ... p_n) |n>; B- (H^{-1} B+) is diag(w_k (w_k / E_k)).
    """
    lm = LadderMatrices(levels, N)
    w, inv = lm.weights, lm.inverse_levels
    p = w * np.sqrt(inv)
    squares = p * p
    deviations = {
        "qqdag-identity": squares - 1.0,
        "qdagq-ground-projector": squares[:N - 1] - 1.0,
        "right-inverse": w[:N - 1] * (inv[:N - 1] * w[:N - 1]) - 1.0,
        "qdag-power-norms": np.cumprod(p[:min(N - 1, 6)]) - 1.0,
        "factorized-hamiltonian": levels.levels[1:N] - w[:N - 1] * w[:N - 1],
        # B- has no entry in column 0, so its truncation annihilates |0> exactly
        "lowering-annihilates-ground": 0.0,
    }
    return {key: worst_residual(key, np.abs(dev)) for key, dev in deviations.items()}
