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

from .spectra import SpectrumTable


class SingularSpectrumError(ValueError):
    """A level above the ground state has zero energy."""


_PAD = 2
# Tolerance of every identity in matrix_identities.
MATRIX_TOL = 1e-12


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
        if N < 3:
            raise ValueError("need dimension >= 3")
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
    """Verify the inverse and isometry identities on the truncated matrices.

    Returns {identity: {deviation, tolerance, pass}} with deviations taken
    on the blocks where the identity is exact: Q Q_dag and Q_dag Q on the
    full N x N block, the right-inverse identity B- (H^{-1} B+) = 1 on
    components 0 .. N-2, unit norms of (Q_dag)^n |0>, and H = B+ B- and
    B- |0> = 0 on the N x N blocks of the operators themselves.
    """
    lm = LadderMatrices(levels, N)
    bp, bm, hs = lm.b_plus, lm.b_minus, lm.h_inv_sqrt
    eye = np.eye(N + _PAD)
    report = {}

    def entry(dev):
        dev = float(dev)
        return {"deviation": dev, "tolerance": MATRIX_TOL, "pass": dev <= MATRIX_TOL}

    q = bm @ hs
    qd = hs @ bp
    report["qqdag-identity"] = entry(np.max(np.abs((q @ qd)[:N, :N] - np.eye(N))))

    proj0 = np.diag(eye[0, :N])
    report["qdagq-ground-projector"] = entry(
        np.max(np.abs((qd @ q)[:N, :N] - np.eye(N) + proj0)))

    binv = lm.h_inv @ bp
    report["right-inverse"] = entry(np.max(np.abs((bm @ binv - eye)[:N - 1, :N - 1])))

    vec = eye[0]
    dev = 0.0
    for _ in range(min(N - 1, 6)):
        vec = qd @ vec
        dev = max(dev, float(abs(np.linalg.norm(vec[:N]) - 1.0)))
    report["qdag-power-norms"] = entry(dev)

    report["factorized-hamiltonian"] = entry(
        np.max(np.abs(lm.h[:N, :N] - bp[:N, :N] @ bm[:N, :N])))

    report["lowering-annihilates-ground"] = entry(np.linalg.norm(bm[:N, 0]))
    return report
