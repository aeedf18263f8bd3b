"""Truncated ladder matrices: inverses, isometries, factorization."""

import numpy as np
import pytest

from siqm import (Harmonic, LadderMatrices, Morse, SingularSpectrumError, energy_levels,
                  matrix_identities, SelfSimilar)

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)


def test_matrix_identities_n20_all_pass():
    report = matrix_identities(energy_levels(Q5, 21), 20)
    for key, dev in report.items():
        assert dev <= 1e-12, f"{key}: {dev:.2e}"


def reference_matrix_identities(levels, N):
    """The deviations from dense B+, B-, H, H^{-1} and H^{-1/2} on the
    (N + 2) x (N + 2) workspace padded by two levels, with a max loop."""
    E = levels.upto(N + 1)
    bp = np.diag(levels.raising_weights(N + 1), -1)
    bm = bp.conj().T
    h = np.diag(E)
    h_inv = np.diag(np.concatenate([[0.0], 1.0 / E[1:]]))
    hs = np.sqrt(h_inv)
    eye = np.eye(N + 2)
    report = {}
    q = bm @ hs
    qd = hs @ bp
    report["qqdag-identity"] = float(np.max(np.abs((q @ qd)[:N, :N] - np.eye(N))))
    proj0 = np.diag(eye[0, :N])
    report["qdagq-ground-projector"] = float(
        np.max(np.abs((qd @ q)[:N, :N] - np.eye(N) + proj0)))
    binv = h_inv @ bp
    report["right-inverse"] = float(np.max(np.abs((bm @ binv - eye)[:N - 1, :N - 1])))
    vec = eye[0]
    dev = 0.0
    for _ in range(min(N - 1, 6)):
        vec = qd @ vec
        dev = max(dev, float(abs(np.linalg.norm(vec[:N]) - 1.0)))
    report["qdag-power-norms"] = dev
    report["factorized-hamiltonian"] = float(
        np.max(np.abs(h[:N, :N] - bp[:N, :N] @ bm[:N, :N])))
    report["lowering-annihilates-ground"] = float(np.linalg.norm(bm[:N, 0]))
    return report


# the unsuffixed labels keep the ids this test had on its first three families
FAMILIES = {
    "selfsimilar": Q5,
    "selfsimilar-q0.77": SelfSimilar(q=0.77, c=1.3, a1=0.8),
    "selfsimilar-q1": SelfSimilar(q=1.0, c=1.0, a1=1.0),
    "selfsimilar-q0.93": SelfSimilar(q=0.93, c=0.9, a1=1.2),
    "harmonic": Harmonic(a1=0.7),
    "harmonic-a1": Harmonic(a1=1.0),
    "harmonic-a2.7": Harmonic(a1=2.7),
    "morse-a8": Morse(a1=8.0),
    "morse": Morse(a1=45.5),
}
# Morse binds the levels n < a1, and the dense oracle reads level N + 1
GRID = [(label, N) for label, fam in FAMILIES.items() for N in (3, 4, 5, 10, 20, 33, 40)
        if not isinstance(fam, Morse) or N + 1 < fam.a1]
GRID += [(label, N) for label in ("selfsimilar", "harmonic") for N in (200, 1000)]


@pytest.mark.parametrize("label, N", GRID, ids=[f"{N}-{label}" for label, N in GRID])
def test_deviations_equal_the_max_loop_bitwise(label, N):
    table = energy_levels(FAMILIES[label], N + 1)
    got = matrix_identities(table, N)
    ref = reference_matrix_identities(table, N)
    assert list(got) == list(ref)
    for key in ref:
        assert type(got[key]) is float
        assert got[key] == ref[key], key


def test_deviation_that_is_not_finite_is_refused_naming_the_identity():
    # 1/E of subnormal levels is inf, so Q Q_dag carries inf on its diagonal
    table = energy_levels(Harmonic(a1=1e-310), 5)
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="qqdag-identity: residual inf is not finite"):
        matrix_identities(table, 5)


def test_large_dimension_needs_vectors_only():
    # no dimension bound: 5000 levels are 5000-vectors, not dense matrices
    report = matrix_identities(energy_levels(Harmonic(a1=0.5), 5000), 5000)
    assert list(report) == ["qqdag-identity", "qdagq-ground-projector", "right-inverse",
                            "qdag-power-norms", "factorized-hamiltonian",
                            "lowering-annihilates-ground"]
    assert all(dev <= 1e-12 for dev in report.values())


def test_factorized_hamiltonian_deviation_is_an_ulp_of_the_level():
    # E_k - sqrt(E_k)^2 is an ulp of E_k, so above E = 8192 it exceeds the
    # CLI's absolute 1e-12 gate: harmonic a1 = 1 at 5000 levels fails there
    report = matrix_identities(energy_levels(Harmonic(a1=1.0), 5000), 5000)
    assert report["factorized-hamiltonian"] == np.spacing(8192.0) > 1e-12


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
    # the weights of B+ and H^{-1} on levels 1 .. N, read from the table itself
    tab = energy_levels(Q5, 8)
    lm = LadderMatrices(tab, 6)
    assert np.array_equal(lm.weights, np.sqrt(tab.levels[1:7]))
    assert np.array_equal(lm.inverse_levels, 1.0 / tab.levels[1:7])
    assert np.max(np.abs(lm.weights * lm.weights - tab.levels[1:7])) <= 1e-15


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
    # a level above N is not read, so it cannot make the spectrum singular
    top_zero = type(tab)(levels=np.concatenate([tab.levels[:7], [0.0]]))
    assert LadderMatrices(top_zero, 6).weights[-1] == np.sqrt(tab.levels[6])


def test_short_table_refused_not_rebuilt():
    # dimension 6 reads levels 0 .. 6: a table reaching exactly level 6 suffices
    table = energy_levels(Q5, 6)
    assert LadderMatrices(table, 6).weights.shape == (6,)
    assert matrix_identities(table, 6) == matrix_identities(energy_levels(Q5, 8), 6)
    with pytest.raises(ValueError, match="n_max >= 6, got n_max = 5"):
        LadderMatrices(energy_levels(Q5, 5), 6)
    with pytest.raises(ValueError, match="n_max >= 6, got n_max = 5"):
        matrix_identities(energy_levels(Q5, 5), 6)


def test_dimension_below_three_refused():
    with pytest.raises(ValueError, match="dimension >= 3, got 2"):
        LadderMatrices(energy_levels(Q5, 8), 2)
