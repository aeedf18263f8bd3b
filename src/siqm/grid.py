"""Uniform 1D grids, finite-difference ladder operators, and factorized Hamiltonians.

Everything works in units hbar = 1, 2m = 1, so the first-order ladder
operators are simply A = W(x) + d/dx and its formal adjoint
A_dag = W(x) - d/dx, and the factorized Hamiltonian (measured from the
ground-state energy) is H = A_dag A = -d2/dx2 + W^2 - W'.

Derivatives use 4th-order centered stencils, with 4th-order one-sided
stencils on the two boundary rows at each end. Off-grid values come from
one 6-point Lagrange interpolator, shared with the W table of the
self-similar engine.

A state is a complex (n_points,) array on a Grid; every function that
takes one refuses any other length with GridMismatchError. Every operation
returns a new array and leaves its inputs as they were.
"""

import warnings
from dataclasses import dataclass

import numpy as np


class InvalidRangeError(ValueError):
    """Grid endpoints are not ordered x_min < x_max."""


class TooFewPointsError(ValueError):
    """Grid has fewer than the minimum 16 points."""


class GridMismatchError(ValueError):
    """Two objects that must share a grid do not."""


class BoundaryDecayWarning(UserWarning):
    """A wavefunction is not negligible at the grid boundary."""


MIN_POINTS = 16
# Most points a grid may hold: verify --suite lattice-algebra peaks at 1.8 GB there.
MAX_POINTS = 10**6


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on [x_min, x_max] with n_points points."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise InvalidRangeError(
                f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < MIN_POINTS:
            raise TooFewPointsError(
                f"need at least {MIN_POINTS} points, got {self.n_points}")
        if self.n_points > MAX_POINTS:
            raise ValueError(f"a grid of {self.n_points} points is more than "
                             f"MAX_POINTS = {MAX_POINTS}")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def interior_slice(self) -> slice:
        """Index slice covering the central 90% of the domain."""
        margin = int(round(self.n_points * (1.0 - 0.9) / 2))
        return slice(margin, self.n_points - margin)


def _samples(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """psi as a complex array; a length other than the grid's is refused."""
    amps = np.asarray(psi, dtype=complex)
    if amps.shape != (grid.n_points,):
        raise GridMismatchError(
            f"{amps.shape[0] if amps.ndim == 1 else amps.shape} amplitudes "
            f"on a {grid.n_points}-point grid")
    return amps


def trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n_points, grid.spacing)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def norm(psi: np.ndarray, grid: Grid) -> float:
    """Trapezoidal L2 norm of a state."""
    return float(np.sqrt(trapezoid_weights(grid) @ np.abs(_samples(psi, grid)) ** 2))


def normalized(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """The state divided by its norm."""
    n = norm(psi, grid)
    if n == 0.0:
        raise ValueError("cannot normalize the zero function")
    return _samples(psi, grid) / n


def inner(phi: np.ndarray, psi: np.ndarray, grid: Grid) -> complex:
    """Trapezoidal inner product <phi|psi> = int conj(phi) psi dx."""
    w = trapezoid_weights(grid)
    return complex(np.sum(w * np.conj(_samples(phi, grid)) * _samples(psi, grid)))


# 4th-order centered stencils: the antisymmetric half of d/dx, and the
# diagonal and off-diagonals of d2/dx2.
_D1_HALF = np.array([2 / 3, -1 / 12])
_D2_DIAG, _D2_OFFS = -5 / 2, np.array([4 / 3, -1 / 12])


def _one_sided_weights(offsets: np.ndarray) -> np.ndarray:
    """Read-only d/dx weights on integer offsets, by moment matching."""
    n = len(offsets)
    v = np.vander(offsets.astype(float), n, increasing=True).T
    rhs = np.zeros(n)
    rhs[1] = 1.0
    w = np.linalg.solve(v, rhs)
    w.flags.writeable = False
    return w


# One-sided 5-point weights (left, right) for the boundary rows 0 and 1.
_D1_POINTS = 5
_D1_BOUNDARY = tuple((_one_sided_weights(np.arange(_D1_POINTS) - i),
                      _one_sided_weights(np.arange(-_D1_POINTS + 1, 1) + i))
                     for i in range(len(_D1_HALF)))


def first_derivative(values: np.ndarray, spacing: float) -> np.ndarray:
    """d/dx by the centered stencil; boundary rows use one-sided stencils of the same order."""
    f = np.asarray(values)
    out = np.zeros_like(f)
    hw = len(_D1_HALF)
    for j, c in enumerate(_D1_HALF, start=1):
        out[hw:-hw] += c * (f[hw + j:len(f) - hw + j] - f[hw - j:-hw - j])
    for i, (left, right) in enumerate(_D1_BOUNDARY):
        out[i] = left @ f[:_D1_POINTS]
        out[len(f) - 1 - i] = right @ f[-_D1_POINTS:]
    return out / spacing


def apply_ladder(W_values: np.ndarray, psi: np.ndarray, grid: Grid, mode: str) -> np.ndarray:
    """Apply A = W + d/dx (mode 'lower') or A_dag = W - d/dx (mode 'raise')."""
    psi = _samples(psi, grid)
    W = np.asarray(W_values, dtype=float)
    if W.shape != (grid.n_points,):
        raise GridMismatchError("W sampled on a different grid than psi")
    dpsi = first_derivative(psi, grid.spacing)
    if mode == "lower":
        return W * psi + dpsi
    if mode == "raise":
        return W * psi - dpsi
    raise ValueError(f"mode must be 'lower' or 'raise', got {mode!r}")


def _partner(W_values: np.ndarray, psi: np.ndarray, grid: Grid, first: str) -> np.ndarray:
    """The partner product A A_dag psi (first 'raise') or A_dag A psi (first 'lower')."""
    then = "lower" if first == "raise" else "raise"
    return apply_ladder(W_values, apply_ladder(W_values, psi, grid, first), grid, then)


def _packet(grid: Grid, x0: float, w: float, k: float) -> np.ndarray:
    """The unnormalized probe packet exp(-(x - x0)^2 / w) e^{ikx}; w = 2 sigma^2."""
    x = grid.x
    return np.exp(-((x - x0) ** 2) / w) * np.exp(1j * k * x)


# 6-point Lagrange stencil: offsets j of the stencil, and for each j the
# denominators j - m over the other offsets m in ascending order
_STENCIL = np.arange(-2, 4)
_STENCIL_DEN = np.array([[j - m for m in _STENCIL if m != j] for j in _STENCIL], dtype=float)


def _lagrange(pos: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """6-point Lagrange interpolation of each table row, read whole.

    pos holds fractional indices into the rows. The high order keeps the
    pointwise interpolation noise near machine level, which matters because
    downstream ladder recursions amplify any grid-scale noise. A stencil
    that would reach past the last point is clamped to the last six points,
    and one before point 0 to the first six.

    The kernel works one stencil offset j at a time on vectors of the
    points' length: the six differences t - m are formed once, the weight
    of j is the product, left to right, of the quotients (t - m) / (j - m)
    over the other five offsets, and the weight times the rows' values at
    i + j is added to a running sum that starts at 0.0. That order of
    operations is fixed, like the scalar form's, so tables stay bitwise
    stable.
    """
    i = np.maximum(np.minimum(pos.astype(np.intp), tables.shape[-1] - 4), 2)
    t = pos - i
    diffs = [t - m for m in _STENCIL]
    acc = 0.0
    for k, (j, den) in enumerate(zip(_STENCIL, _STENCIL_DEN)):
        others = diffs[:k] + diffs[k + 1:]
        weight = others[0] / den[0]
        for d, dm in zip(others[1:], den[1:]):
            weight *= d / dm
        term = tables[..., i + j]
        acc += np.multiply(weight, term, out=term)
    return acc


def dilate(psi: np.ndarray, grid: Grid, s: float, unitary: bool = True) -> np.ndarray:
    """Rescale the argument: (D_s psi)(x) = sqrt(s) * psi(s*x).

    With unitary=True the sqrt(s) amplitude factor preserves the L2 norm.
    unitary=False drops the factor, giving the plain substitution
    psi(x) -> psi(s*x). Resampling uses 6-point Lagrange interpolation of
    the grid values (the interpolator of the self-similar W table); points
    s*x outside the grid are filled with zeros, which is only sound when
    psi has decayed there, so a warning is issued if the boundary amplitude
    is not negligible.
    """
    psi = _samples(psi, grid)
    if s <= 0:
        raise ValueError(f"scale factor must be positive, got {s}")
    if s == 1.0:
        return psi.copy()
    amax = float(np.max(np.abs(psi)))
    edge = max(abs(psi[0]), abs(psi[-1]))
    if amax > 0 and edge > 1e-8 * amax:
        warnings.warn("wavefunction is not negligible at the grid boundary; "
                      "dilation will zero-fill out-of-domain samples",
                      BoundaryDecayWarning, stacklevel=2)
    target = s * grid.x
    inside = (target >= grid.x_min) & (target <= grid.x_max)
    amps = np.zeros(grid.n_points, dtype=complex)
    amps[inside] = _lagrange((target[inside] - grid.x_min) / grid.spacing, psi)
    if unitary:
        amps *= np.sqrt(s)
    return amps


def hamiltonian_bands(W_values: np.ndarray, grid: Grid) -> np.ndarray:
    """Banded symmetric matrix of H = -d2/dx2 + W^2 - W' (W' by the FD stencil).

    Lower storage: row 0 is the diagonal, row j the j-th subdiagonal.
    Truncating the symmetric stencil at the Dirichlet walls keeps the matrix
    exactly symmetric; all targeted states decay before the boundary so the
    lost accuracy there is immaterial. A W^2 that overflows leaves inf on the
    diagonal, without a warning; the caller refuses it.
    """
    W = np.asarray(W_values, dtype=float)
    if W.shape != (grid.n_points,):
        raise GridMismatchError("W sampled on a different grid")
    Wp = first_derivative(W, grid.spacing)
    h2 = grid.spacing ** 2
    bands = np.zeros((len(_D2_OFFS) + 1, grid.n_points))
    bands[0] = -_D2_DIAG / h2
    for j, c in enumerate(_D2_OFFS, start=1):
        bands[j, :grid.n_points - j] = -c / h2
    with np.errstate(over="ignore", invalid="ignore"):
        bands[0] += W * W - Wp
    return bands


def cumulative_integral(values: np.ndarray, spacing: float) -> np.ndarray:
    """Cumulative integral from the left endpoint, 4th-order accurate.

    Each interior segment [x_j, x_{j+1}] is integrated with the 4-point
    rule h*(-f[j-1] + 13 f[j] + 13 f[j+1] - f[j+2])/24; the first and last
    segments use the matching one-sided 4-point rule. Plain cumulative
    trapezoid is only O(h^2), which is visible in the ground-state
    annihilation residual, hence the higher-order rule.
    """
    f = np.asarray(values, dtype=float)
    n = len(f)
    if n < 4:
        raise ValueError("need at least 4 samples")
    seg = np.empty(n - 1)
    seg[1:-1] = (-f[:-3] + 13 * f[1:-2] + 13 * f[2:-1] - f[3:]) / 24
    seg[0] = (9 * f[0] + 19 * f[1] - 5 * f[2] + f[3]) / 24
    seg[-1] = (9 * f[-1] + 19 * f[-2] - 5 * f[-3] + f[-4]) / 24
    out = np.zeros(n)
    np.cumsum(seg, out=out[1:])
    return out * spacing
