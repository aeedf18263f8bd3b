"""Truncated ladder matrices: inverses, isometries, factorization."""

import numpy as np
import pytest

from siqm import (LadderMatrices, SingularSpectrumError, energy_levels,
                  matrix_identities, SelfSimilar)

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)


def test_matrix_identities_n20_all_pass():
    report = matrix_identities(energy_levels(Q5, 21), 20)
    for key, entry in report.items():
        assert entry["pass"], f"{key}: {entry['deviation']:.2e}"
        assert entry["deviation"] <= 1e-12


def test_qqdag_is_identity_n4():
    report = matrix_identities(energy_levels(Q5, 6), 4)
    assert report["qqdag-identity"]["deviation"] <= 1e-12


def test_qdagq_has_single_ground_defect():
    # deviation of Q_dag Q from 1 - |0><0|: the ground defect is -1 and nothing else
    report = matrix_identities(energy_levels(Q5, 8), 6)
    assert report["qdagq-ground-projector"]["deviation"] <= 1e-14


def test_qdag_powers_have_unit_norm():
    report = matrix_identities(energy_levels(Q5, 10), 8)
    assert report["qdag-power-norms"]["deviation"] <= 1e-12


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
