"""Grid construction, ladder application, dilation, and the FD Hamiltonian."""

import numpy as np
import pytest

from siqm import (BoundaryDecayWarning, Grid, GridMismatchError, InvalidRangeError,
                  TooFewPointsError, apply_ladder, dilate, inner, norm, normalized)
from siqm.grid import (MAX_POINTS, _lagrange, cumulative_integral, first_derivative,
                       hamiltonian_bands)
from scipy.linalg import eig_banded


def gaussian(grid, x0=0.0, sigma=1.0):
    x = grid.x
    return np.exp(-((x - x0) ** 2) / (2 * sigma ** 2)).astype(complex)


def test_grid_spacing():
    assert Grid(-15, 15, 3001).spacing == pytest.approx(0.01)
    assert Grid(-1, 1, 21).spacing == pytest.approx(0.1)


def test_grid_errors():
    with pytest.raises(InvalidRangeError):
        Grid(1, -1, 100)
    with pytest.raises(TooFewPointsError):
        Grid(-1, 1, 3)
    # the point budget is checked before any array is made, and holds its bound
    assert Grid(-1, 1, MAX_POINTS).n_points == MAX_POINTS
    with pytest.raises(ValueError, match=f"a grid of {MAX_POINTS + 1} points is more than "
                       f"MAX_POINTS = {MAX_POINTS}"):
        Grid(-1, 1, MAX_POINTS + 1)


def test_ladder_annihilates_gaussian_ground_state():
    g = Grid(-10, 10, 2001)
    psi = gaussian(g)
    out = apply_ladder(g.x, psi, g, "lower")
    sl = g.interior_slice()
    rel = np.linalg.norm(out[sl]) / np.linalg.norm(psi[sl])
    assert rel <= 1e-6


def test_ladder_raise_matches_symbolic_derivative():
    # (x - d/dx) exp(-x^2/2) = 2 x exp(-x^2/2)
    g = Grid(-10, 10, 2001)
    psi = gaussian(g)
    out = apply_ladder(g.x, psi, g, "raise")
    expected = 2 * g.x * psi
    sl = g.interior_slice()
    assert np.max(np.abs(out[sl] - expected[sl])) < 1e-8


def test_ladder_grid_mismatch():
    g = Grid(-10, 10, 2001)
    other = Grid(-10, 10, 1001)
    with pytest.raises(GridMismatchError):
        apply_ladder(g.x, gaussian(other), g, "lower")


def test_ladder_adjointness():
    g = Grid(-10, 10, 2001)
    phi = gaussian(g, x0=-0.5, sigma=1.2)
    psi = gaussian(g, x0=0.4) * np.exp(0.3j * g.x)
    W = np.tanh(g.x)
    lhs = inner(phi, apply_ladder(W, psi, g, "lower"), g)
    rhs = inner(apply_ladder(W, phi, g, "raise"), psi, g)
    assert abs(lhs - rhs) < 1e-8


def test_dilate_identity():
    g = Grid(-10, 10, 2001)
    psi = gaussian(g)
    out = dilate(psi, g, 1.0)
    assert np.array_equal(out, psi)


def test_dilate_gaussian_closed_form():
    # sqrt(2) exp(-2 x^2) with norm preserved (exact Gaussian integrals)
    g = Grid(-12, 12, 2401)
    psi = gaussian(g)
    out = dilate(psi, g, 2.0)
    expected = np.sqrt(2.0) * np.exp(-2.0 * g.x ** 2)
    assert np.max(np.abs(out - expected)) < 1e-8
    assert abs(norm(out, g) - norm(psi, g)) <= 1e-8
    # complex, off-centre packets at the contractions and stretches of the
    # dilation identities (s = sqrt(q) and 1/sqrt(q))
    for s in (np.sqrt(0.3), np.sqrt(0.5), 1 / np.sqrt(0.5), 1 / np.sqrt(0.9)):
        for x0, sigma, k in ((0.7, 1.1, 1.5), (-1.3, 0.8, -2.0)):
            def packet(x):
                return np.exp(-((x - x0) ** 2) / (2 * sigma ** 2) + 1j * k * x)
            out = dilate(packet(g.x), g, s)
            assert np.max(np.abs(out - np.sqrt(s) * packet(s * g.x))) < 1e-11


@pytest.mark.parametrize("s", [0.5, 0.8, 1.3, 2.0])
def test_dilate_unitarity(s):
    g = Grid(-14, 14, 2801)
    psi = gaussian(g)
    assert abs(norm(dilate(psi, g, s), g) - norm(psi, g)) <= 1e-8


def test_dilate_inverse_pair():
    g = Grid(-12, 12, 2401)
    psi = gaussian(g)
    back = dilate(dilate(psi, g, 1.6), g, 1 / 1.6)
    assert np.max(np.abs(back - psi)) < 1e-7


def test_dilate_warns_without_decay():
    g = Grid(-5, 5, 501)
    psi = np.cosh(g.x).astype(complex)
    with pytest.warns(BoundaryDecayWarning):
        dilate(psi, g, 1.5)


def _lagrange_all_at_once(pos, tables):
    """The 6-point kernel as one (P, 6, 5) quotient array, a (P, 6) weight
    product and a (rows, P, 6) gathered product, summed left to right from 0.0."""
    stencil = np.arange(-2, 4)
    others = np.array([[m for m in stencil if m != j] for j in stencil])
    i = np.maximum(np.minimum(pos.astype(np.intp), tables.shape[-1] - 4), 2)
    t = pos - i
    f = (t[:, None, None] - others) / (stencil[:, None] - others).astype(float)
    weights = f[..., 0] * f[..., 1] * f[..., 2] * f[..., 3] * f[..., 4]
    terms = weights * tables[..., i[:, None] + stencil]
    acc = 0.0
    for j in range(len(stencil)):
        acc = acc + terms[..., j]
    return acc


def _bytes(a):
    """The bytes of a float or complex array, each NaN made the one quiet NaN.

    IEEE 754 leaves open which NaN a sum of two NaNs returns, and numpy's
    SIMD blocks and scalar tails pick different operands, so a NaN's sign
    depends on the array layout; every other bit is compared.
    """
    a = np.array(a, order="C")
    parts = a.view(np.float64)
    parts[np.isnan(parts)] = np.nan
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("rows", ["1-D", "2-row", "complex"])
def test_lagrange_is_bitwise_the_all_at_once_kernel(rows):
    # the per-offset kernel does the same operations in the same order
    rng = np.random.default_rng({"1-D": 31, "2-row": 32, "complex": 33}[rows])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for case in range(100):
        n = int(rng.integers(6, 80))
        shape = (n,) if rows == "1-D" else (2, n)
        tables = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9)
        if rows == "complex":
            tables = tables + 1j * rng.standard_normal(shape)
        parts = tables.view(np.float64).reshape(-1)
        # signed zeros in every case, non-finite entries in every fourth
        pool = specials if case % 4 == 0 else specials[:2]
        picks = rng.integers(0, parts.size, 6)
        parts[picks] = rng.choice(pool, picks.size)
        # positions past both ends clamp the stencil; grid points zero five weights
        pos = np.concatenate((rng.uniform(-3, n + 3, 64), np.arange(n, dtype=float),
                              [-0.0, 0.0, n - 1.0]))
        with np.errstate(invalid="ignore", over="ignore"):
            got, ref = _lagrange(pos, tables), _lagrange_all_at_once(pos, tables)
        assert _bytes(got) == _bytes(ref), case


def lowest_eigenvalues(bands, k):
    """The k lowest eigenvalues of the symmetric matrix in lower band storage."""
    return eig_banded(bands, lower=True, eigvals_only=True,
                      select="i", select_range=(0, k - 1))


def test_hamiltonian_symmetry_exact():
    # the dense matrix that the lower band storage represents
    g = Grid(-5, 5, 201)
    bands = hamiltonian_bands(g.x, g)
    n = g.n_points
    M = np.diag(bands[0])
    for j in range(1, bands.shape[0]):
        off = np.diag(bands[j, :n - j], -j)
        M += off + off.T
    assert np.max(np.abs(M - M.T)) == 0.0


def test_hamiltonian_harmonic_ground_energy():
    g = Grid(-10, 10, 1001)
    vals = lowest_eigenvalues(hamiltonian_bands(g.x, g), 4)
    assert abs(vals[0]) < 1e-6
    assert np.all(vals >= -1e-6)


def test_hamiltonian_tanh_single_bound_state():
    # V = tanh^2 - sech^2 = 1 - 2 sech^2: one bound state at 0, continuum at 1
    g = Grid(-12, 12, 1201)
    vals = lowest_eigenvalues(hamiltonian_bands(np.tanh(g.x), g), 3)
    assert abs(vals[0]) < 1e-6
    assert vals[1] > 0.9


def test_cumulative_integral_fourth_order():
    # exact antiderivative oracle: int_0^x cos = sin(x)
    for n in (501, 1001):
        h = 10.0 / (n - 1)
        x = np.linspace(0, 10, n)
        I = cumulative_integral(np.cos(x), h)
        errs = np.max(np.abs(I - np.sin(x)))
        assert errs < 30 * h ** 4


def test_first_derivative_fourth_order():
    g = Grid(-5, 5, 1001)
    f = np.sin(1.3 * g.x)
    d = first_derivative(f, g.spacing)
    assert np.max(np.abs(d - 1.3 * np.cos(1.3 * g.x))[5:-5]) < 1e-8


@pytest.mark.parametrize("call, exc, message", [
    (lambda g: normalized(np.zeros(g.n_points), g), ValueError,
     "cannot normalize the zero function"),
    (lambda g: apply_ladder(np.zeros(5), np.ones(g.n_points), g, "lower"), GridMismatchError,
     "W sampled on a different grid than psi"),
    (lambda g: apply_ladder(np.zeros(g.n_points), np.ones(g.n_points), g, "up"), ValueError,
     "mode must be 'lower' or 'raise', got 'up'"),
    (lambda g: dilate(np.ones(g.n_points), g, 0.0), ValueError,
     "scale factor must be positive, got 0.0"),
    (lambda g: hamiltonian_bands(np.zeros(5), g), GridMismatchError,
     "W sampled on a different grid"),
    (lambda g: cumulative_integral(np.ones(3), g.spacing), ValueError,
     "need at least 4 samples"),
], ids=["zero-state", "short-W", "ladder-mode", "zero-scale", "bands-short-W", "three-samples"])
def test_grid_operation_refuses_what_it_cannot_compute(call, exc, message):
    with pytest.raises(exc, match=message):
        call(Grid(-5, 5, 101))
