"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 compares the ladder levels with the diagonalization oracle on a
box that holds the states. The self-similar potential approaches its
threshold like -C/x^2 (C ~ 20), so the classical turning points of levels 5
and 6 (x ~ 16.5 and 24) lie outside the pinned [-15, 15] box, where the
oracle's own wall check fires. The test therefore doubles the half-width
from 15 until that check is silent for all seven states and compares there;
on the pinned box it checks what the oracle does promise: the wall warning
is raised and the Dirichlet walls only raise the levels. The box-size study
is in demos/spectrum_vs_diagonalization.py.
"""

import warnings

import numpy as np

from siqm import (BoundaryDecayWarning, DriveProfile,
                  coherent_closed_scaling, coherent_property_residuals,
                  coherent_recursive, commutator_residual,
                  dilation_identity_residual,
                  energy_levels, eval_W, evolve_forced, fd_diagonalize,
                  Grid, matrix_identities, SelfSimilar,
                  series_coefficients)
from siqm.cli import run_command

Q5 = SelfSimilar(q=0.5, c=1.0, a1=1.0)

RESULTS = []


def report(number: int, description: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    RESULTS.append((number, tag, description, detail))
    print(f"ACCEPTANCE {number}: {tag} - {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description} {detail}"


PINNED_HALF = 15.0
MAX_HALF = 16 * PINNED_HALF
# Discretization allowance for "walls only raise levels": h^4 at h = 0.01.
# The oracle's levels on a clean box differ from the closed form by <= 2.6e-10.
FD_ALLOWANCE = 1e-8


def _oracle_q5(half: float):
    """Lowest 7 oracle levels of Q5 on [-half, half] at h = 0.01, plus the
    BoundaryDecayWarnings raised; other warnings are passed on."""
    grid = Grid(-half, half, int(round(200 * half)) + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        e_fd, _ = fd_diagonalize(Q5, grid, 7)
    walls = []
    for w in caught:
        if issubclass(w.category, BoundaryDecayWarning):
            walls.append(w)
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return e_fd, walls


def test_criterion_1_scaling_spectrum_oracle_equivalence():
    """q=0.5, c=1, a1=1, h=0.01: |E_ladder - E_fd| <= 1e-3 for n <= 6.

    The comparison box is found by rule: double the half-width from the
    pinned 15 until the oracle raises no BoundaryDecayWarning for any of the
    7 states (capped at MAX_HALF). On the pinned [-15, 15] box the walls
    must be reported, and every level must lie at or above its ladder level
    less FD_ALLOWANCE: up to the one-sided W' rows at each wall that matrix
    is a principal submatrix of the wide-box one, so by Cauchy interlacing
    the walls can only raise its eigenvalues.
    """
    table = energy_levels(Q5, 6)
    closed = (1 - 0.5 ** np.arange(7)) / (1 - 0.5)
    assert np.array_equal(table.levels, closed)
    assert table.levels[3] == 1.75

    e_pinned, walls_pinned = _oracle_q5(PINNED_HALF)
    half, e_fd, walls = PINNED_HALF, e_pinned, walls_pinned
    while walls and half < MAX_HALF:
        half *= 2
        e_fd, walls = _oracle_q5(half)
    errs = np.abs(table.levels - e_fd)
    shifts = e_pinned - table.levels
    equivalent = not walls and bool(np.all(errs <= 1e-3))
    walls_only_raise = (bool(walls_pinned)
                        and bool(np.all(shifts >= -FD_ALLOWANCE)))
    box = (f"no box up to [-{half:g},{half:g}] silences the wall check "
           f"({len(walls)} states warn)" if walls
           else f"box [-{half:g},{half:g}] wall check silent")
    detail = ("{}; max err {:.2e}; pinned [-15,15]: {} wall warnings, "
              "shifts n=4..6 = {:+.1e}/{:+.1e}/{:+.1e}, min shift {:+.1e}").format(
        box, float(np.max(errs)), len(walls_pinned), shifts[4], shifts[5],
        shifts[6], float(np.min(shifts)))
    report(1, "scaling-spectrum oracle equivalence on a box that holds the "
              "states; the pinned [-15,15] walls only raise levels",
           equivalent and walls_only_raise, detail)


def test_criterion_2_soliton_limit_series():
    sc = series_coefficients(0.0, 1.0, 8)
    tanh_ref = np.array([1, -1 / 3, 2 / 15, -17 / 315, 62 / 2835,
                         -1382 / 155925, 21844 / 6081075, -929569 / 638512875,
                         6404582 / 10854718875])
    dev = float(np.max(np.abs(sc.coeffs - tanh_ref)))
    report(2, "q=0 series equals the tanh Taylor coefficients",
           dev <= 1e-12, f"max dev {dev:.2e}")


def test_criterion_3_harmonic_limit():
    fam = SelfSimilar(q=1.0, c=1.0, a1=1.0)  # c0 = 1/2, W = x/2
    grid = Grid(-10.0, 10.0, 2001)
    c0 = 0.5
    W = eval_W(fam, 1.0, grid)
    assert np.max(np.abs(W - c0 * grid.x)) < 1e-14
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e_fd, _ = fd_diagonalize(fam, grid, 5)
    spacings = np.diff(e_fd)
    dev = float(np.max(np.abs(spacings - 2 * c0)))
    report(3, "q=1 reduces to the linear superpotential with spacing 2*c0",
           dev <= 1e-4, f"max spacing dev {dev:.2e}")


def test_criterion_4_morse_fixture():
    from siqm import Morse
    fam = Morse(a1=2.5)
    grid = Grid(-5.0, 32.0, 3701)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e_fd, _ = fd_diagonalize(fam, grid, 3)
    table = energy_levels(fam, 2)
    ok = (abs(e_fd[1] - 4.0) <= 1e-3 and abs(e_fd[2] - 6.0) <= 1e-3
          and np.array_equal(table.levels, [0.0, 4.0, 6.0]))
    report(4, "Morse A=2.5 gives E1-E0=4 and E2-E0=6, matching ladder sums",
           ok, f"fd gaps {e_fd[1]:.6f}, {e_fd[2]:.6f}")


ALGEBRA_RELATIONS = ("ladder-commutator", "remainder-bracket",
                     "remainder-bracket-2", "remainder-bracket-3",
                     "scaled-commutator", "scaled-remainder-bracket",
                     "scaled-tower-1", "scaled-tower-2", "scaled-tower-3",
                     "q-oscillator", "j3-ladder-up", "j3-ladder-down",
                     "so21-commutator")


def test_criterion_5_algebra_suite():
    grid = Grid(-15.0, 15.0, 3001)
    worst_rel, worst = "", 0.0
    for rel in ALGEBRA_RELATIONS:
        res = commutator_residual(rel, Q5, grid=grid, window=12)
        if res > worst:
            worst_rel, worst = rel, res
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d3 = dilation_identity_residual(Q5, grid, "yy3")
        d6 = dilation_identity_residual(Q5, grid, "yy6")
    ok = worst <= 1e-6 and d3 <= 1e-5 and d6 <= 1e-5
    report(5, "lattice algebra residuals <= 1e-6 and dilation residuals <= 1e-5",
           ok, f"worst lattice {worst_rel} {worst:.2e}; dilation {max(d3, d6):.2e}")


def test_criterion_6_matrix_identities():
    rep = matrix_identities(energy_levels(Q5, 21), 20)
    worst = max(rep.values())
    ok = all(dev <= 1e-12 for dev in rep.values())
    report(6, "QQ+ = 1, Q+Q = 1 - |0><0|, right inverse at N=20, all to 1e-12",
           ok, f"worst deviation {worst:.2e}")


def test_criterion_7_coherent_states():
    table = energy_levels(Q5, 21)
    rec = coherent_recursive(table.norms(21), 1.0)
    clo = coherent_closed_scaling(0.5, 1.0, 1.0, 21)
    agree = float(np.max(np.abs(rec - clo) / np.abs(rec)))
    norms = table.norms(20)
    eig, der = coherent_property_residuals(norms, 0.3, coherent_recursive(norms, 0.3))
    ok = agree <= 1e-12 and eig <= 1e-10 and der <= 1e-6
    report(7, "closed form equals recursion to 1e-12; eigen and derivative "
              "conditions hold", ok,
           f"agree {agree:.2e}, eigen {eig:.2e}, derivative {der:.2e}")


def test_criterion_8_forced_dynamics():
    drive = DriveProfile("const", 0.1)
    tab1 = energy_levels(SelfSimilar(q=1.0, c=1.0, a1=1.0), 23)
    ev1 = evolve_forced(tab1, drive, t_max=5.0, dt=0.002,
                        sign_convention="conjugate")
    tab5 = energy_levels(Q5, 23)
    ev5 = evolve_forced(tab5, drive, t_max=5.0, dt=0.002,
                        sign_convention="conjugate")
    _, coh_overlap = ev5.best_fit_coherent()
    drift = max(ev1.norm_drift, ev5.norm_drift)
    ok = (ev1.final_overlap >= 1 - 1e-6 and coh_overlap < 0.999
          and drift <= 1e-8)
    report(8, "q=1 closed form matches direct integration; q=0.5 endpoint is "
              "not an eigenstate of sqrt(E_n) B-", ok,
           f"q=1 overlap {ev1.final_overlap:.9f}; q=0.5 overlap with the best-fit "
           f"eigenstate {coh_overlap:.5f}; drift {drift:.1e}")


def test_criterion_9_bitwise_reproducibility(tmp_path):
    specs = [
        ["spectrum", "--family", "selfsimilar", "--q", "0.5", "--c", "1",
         "--a1", "1", "--levels", "4"],
        ["coeffs", "--q", "0", "--c0", "1", "--order", "8"],
        ["coherent", "--family", "selfsimilar", "--q", "0.5", "--c", "1",
         "--a1", "1", "--z-re", "1", "--levels", "12"],
    ]
    identical = True
    for i, argv in enumerate(specs):
        a = tmp_path / f"run{i}a.csv"
        b = tmp_path / f"run{i}b.csv"
        assert run_command(argv + ["--out", str(a)]) == 0
        assert run_command(argv + ["--out", str(b)]) == 0
        identical &= a.read_bytes() == b.read_bytes()
    report(9, "reruns produce bitwise-identical CSV output", identical)
