"""Truncated ladder matrices: inverses, isometries, factorization."""

import numpy as np
import pytest

from siqm import (Harmonic, LadderMatrices, Morse, SingularSpectrumError, energy_levels,
                  matrix_identities, SelfSimilar)
from siqm.ladder_matrices import MAX_DIMENSION

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)


def test_matrix_identities_n20_all_pass():
    report = matrix_identities(energy_levels(Q5, 21), 20)
    for key, dev in report.items():
        assert dev <= 1e-12, f"{key}: {dev:.2e}"


def reference_matrix_identities(levels, N):
    """The deviations as matrix_identities computed them with its own max loop."""
    lm = LadderMatrices(levels, N)
    bp, bm, hs = lm.b_plus, lm.b_minus, lm.h_inv_sqrt
    eye = np.eye(N + 2)
    report = {}
    q = bm @ hs
    qd = hs @ bp
    report["qqdag-identity"] = float(np.max(np.abs((q @ qd)[:N, :N] - np.eye(N))))
    proj0 = np.diag(eye[0, :N])
    report["qdagq-ground-projector"] = float(
        np.max(np.abs((qd @ q)[:N, :N] - np.eye(N) + proj0)))
    binv = lm.h_inv @ bp
    report["right-inverse"] = float(np.max(np.abs((bm @ binv - eye)[:N - 1, :N - 1])))
    vec = eye[0]
    dev = 0.0
    for _ in range(min(N - 1, 6)):
        vec = qd @ vec
        dev = max(dev, float(abs(np.linalg.norm(vec[:N]) - 1.0)))
    report["qdag-power-norms"] = dev
    report["factorized-hamiltonian"] = float(
        np.max(np.abs(lm.h[:N, :N] - bp[:N, :N] @ bm[:N, :N])))
    report["lowering-annihilates-ground"] = float(np.linalg.norm(bm[:N, 0]))
    return report


@pytest.mark.parametrize("family", [Q5, Harmonic(a1=0.7), Morse(a1=45.5)],
                         ids=["selfsimilar", "harmonic", "morse"])
@pytest.mark.parametrize("N", [3, 5, 20, 40])
def test_deviations_equal_the_max_loop_bitwise(family, N):
    table = energy_levels(family, N + 1)
    got = matrix_identities(table, N)
    ref = reference_matrix_identities(table, N)
    assert list(got) == list(ref)
    for key in ref:
        assert type(got[key]) is float
        assert got[key] == ref[key], key


def test_deviation_that_is_not_finite_is_refused_naming_the_identity():
    # 1/E of subnormal levels is inf, and inf * 0 in the products is NaN
    table = energy_levels(Harmonic(a1=1e-310), 6)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="qqdag-identity: residual nan is not finite"):
        matrix_identities(table, 5)


def test_dimension_above_the_bound_is_refused_before_allocating():
    with pytest.raises(ValueError, match=f"dimension <= {MAX_DIMENSION}, "
                                         f"got {MAX_DIMENSION + 1}"):
        LadderMatrices(energy_levels(Q5, 8), MAX_DIMENSION + 1)


def test_qqdag_is_identity_n4():
    report = matrix_identities(energy_levels(Q5, 6), 4)
    assert report["qqdag-identity"] <= 1e-12


def test_qdagq_has_single_ground_defect():
    # deviation of Q_dag Q from 1 - |0><0|: the ground defect is -1 and nothing else
    report = matrix_identities(energy_levels(Q5, 8), 6)
    assert report["qdagq-ground-projector"] <= 1e-14


def test_qdag_powers_have_unit_norm():
    report = matrix_identities(energy_levels(Q5, 10), 8)
    assert report["qdag-power-norms"] <= 1e-12


def test_ladder_matrix_structure():
    tab = energy_levels(Q5, 8)
    lm = LadderMatrices(tab, 6)
    b_plus, b_minus, h = lm.b_plus[:6, :6], lm.b_minus[:6, :6], lm.h[:6, :6]
    assert np.array_equal(b_minus, b_plus.conj().T)
    assert np.max(np.abs(b_plus @ b_minus - h)) <= 1e-15
    assert np.max(np.abs(np.diag(h) - tab.levels[:6])) == 0.0


def test_chain_lowering_weights():
    # N_n / N_{n-1} = sqrt(q^(n-1) E_n) for the scaling spectrum
    tab = energy_levels(Q5, 10)
    norms = tab.norms(8)
    weights = norms[1:] / norms[:-1]
    for n in range(1, 8):
        expected = np.sqrt(0.5 ** (n - 1) * tab.levels[n])
        assert weights[n - 1] == pytest.approx(expected, rel=1e-14)


def test_singular_spectrum_rejected():
    tab = energy_levels(Q5, 8)
    bad = type(tab)(levels=np.concatenate([[0.0, 0.0], tab.levels[2:]]))
    with pytest.raises(SingularSpectrumError):
        LadderMatrices(bad, 6)


def test_short_table_refused_not_rebuilt():
    # the padded workspace of dimension 6 reaches level 7
    LadderMatrices(energy_levels(Q5, 7), 6)
    with pytest.raises(ValueError, match="n_max >= 7, got n_max = 6"):
        LadderMatrices(energy_levels(Q5, 6), 6)
