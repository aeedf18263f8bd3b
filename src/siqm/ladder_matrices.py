"""Truncated ladder matrices on the energy eigenbasis and their identities.

With levels E_0 = 0 < E_1 < ... the raising matrix acts as
B+ |n> = sqrt(E_{n+1}) |n+1>, B- is its conjugate transpose, and
H = B+ B- is diagonal with entries E_n. H has no inverse (E_0 = 0) but the
pseudo-inverse suffices for the combinations that exist: H^{-1} B+ is a
right inverse of B-, and Q = B- H^{-1/2}, Q_dag = H^{-1/2} B+ satisfy
Q Q_dag = 1 while Q_dag Q = 1 - |0><0|.

Products are evaluated with two levels of internal padding so that the
reported N x N blocks are free of truncation-edge artifacts; the table must
therefore reach level N + 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .families import worst_residual
from .spectra import SpectrumTable


class SingularSpectrumError(ValueError):
    """A level above the ground state has zero energy."""


_PAD = 2
# The largest dimension: the dense (N + 2)^2 workspaces peak near 340 MB at N = 2000.
MAX_DIMENSION = 2000


@dataclass
class LadderMatrices:
    """Dense ladder operators on the (N + 2) x (N + 2) workspace padded by
    two levels: B+, B-, H and the pseudo-inverses H^{-1} and H^{-1/2}."""

    levels: SpectrumTable
    dimension: int
    b_plus: np.ndarray = field(init=False, repr=False)
    b_minus: np.ndarray = field(init=False, repr=False)
    h: np.ndarray = field(init=False, repr=False)
    h_inv: np.ndarray = field(init=False, repr=False)
    h_inv_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        N = self.dimension
        if not 3 <= N <= MAX_DIMENSION:
            raise ValueError(f"need 3 <= dimension <= {MAX_DIMENSION}, got {N}")
        top = N + _PAD - 1
        E = self.levels.upto(top)
        if np.any(E[1:] <= 0):
            raise SingularSpectrumError("levels above the ground state must be positive")
        self.b_plus = np.diag(self.levels.raising_weights(top), -1)
        self.b_minus = self.b_plus.conj().T
        self.h = np.diag(E)
        self.h_inv = np.diag(np.concatenate([[0.0], 1.0 / E[1:]]))
        self.h_inv_sqrt = np.sqrt(self.h_inv)


def matrix_identities(levels: SpectrumTable, N: int) -> dict:
    """Deviations of the inverse and isometry identities on the truncated matrices.

    Returns {identity: deviation}, each the worst absolute deviation taken
    on the blocks where the identity is exact: Q Q_dag and Q_dag Q on the
    full N x N block, the right-inverse identity B- (H^{-1} B+) = 1 on
    components 0 .. N-2, unit norms of (Q_dag)^n |0>, and H = B+ B- and
    B- |0> = 0 on the N x N blocks of the operators themselves. A deviation
    that is not finite is refused; the caller holds the tolerance.
    """
    lm = LadderMatrices(levels, N)
    bp, bm, hs = lm.b_plus, lm.b_minus, lm.h_inv_sqrt
    eye = np.eye(N + _PAD)
    q = bm @ hs
    qd = hs @ bp
    vec, norms = eye[0], []
    for _ in range(min(N - 1, 6)):
        vec = qd @ vec
        norms.append(np.linalg.norm(vec[:N]) - 1.0)
    # a block is built only when it is reduced, so one dense block is alive at a time
    differences = {
        "qqdag-identity": lambda: (q @ qd)[:N, :N] - np.eye(N),
        "qdagq-ground-projector": lambda: (qd @ q)[:N, :N] - np.eye(N) + np.diag(eye[0, :N]),
        "right-inverse": lambda: (bm @ (lm.h_inv @ bp) - eye)[:N - 1, :N - 1],
        "qdag-power-norms": lambda: norms,
        "factorized-hamiltonian": lambda: lm.h[:N, :N] - bp[:N, :N] @ bm[:N, :N],
        "lowering-annihilates-ground": lambda: np.linalg.norm(bm[:N, 0]),
    }
    return {key: worst_residual(key, np.abs(diff())) for key, diff in differences.items()}
