"""Energy levels, ladder-built eigenfunctions, and the diagonalization oracle.

Levels are partial sums of the remainder along the parameter chain,

    E_n = R(a_1) + R(a_2) + ... + R(a_n),  E_0 = 0,

which for the scaling chain a_n = q^(n-1) a_1 collapses to the closed form
E_n = (1 - q^n)/(1 - q) * c a_1. Excited states are built recursively in
x-space: psi_n(x; a_1) is A_dag(a_1) applied to psi_{n-1}(x; a_2), seeded
with the ground state at a_{n+1}. Run without intermediate
normalization this construction accumulates exactly the magnitude

    E_n (E_n - E_{n-1}) (E_n - E_{n-2}) ... (E_n - E_1), square-rooted,

which is cross-checked against the quadrature norm. An independent oracle
diagonalizes the banded finite-difference Hamiltonian.

Only the oracle needs scipy, and scipy.sparse is slow to import, so
`eigsh` is bound on first access to `siqm.spectra.eigsh` (the module's
`__getattr__`) rather than at import: the commands that never diagonalize
start without scipy. `fd_diagonalize` calls it through that module
attribute, so a wrapper set there, as perfbench's tracer sets one, is the
function that runs.
"""

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .families import PotentialFamily, eval_W, ground_state
from .grid import (BoundaryDecayWarning, Grid, _partner, apply_ladder, hamiltonian_bands,
                   norm, normalized)


def __getattr__(name):
    """Bind `eigsh` on first access; a binding already there is kept."""
    if name == "eigsh":
        from scipy.sparse.linalg import eigsh
        return globals().setdefault(name, eigsh)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Most levels above the ground state a table may hold: 10**6 harmonic levels take 0.3 s.
MAX_LEVELS = 10**6


class LevelNotBoundError(ValueError):
    """The requested level does not exist as a bound state."""


class EigensolverError(ValueError):
    """The banded symmetric eigensolver failed."""


class DegenerateLevelsError(ValueError):
    """Two levels coincide, so a normalization product vanishes."""


@dataclass(frozen=True)
class SpectrumTable:
    """Energies E_0 ... E_{n_max} measured from E_0 = 0: the one source of
    levels, raising weights and normalization products N_n."""

    levels: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.levels) - 1

    def upto(self, n: int) -> np.ndarray:
        """E_0 .. E_n; a shorter table is refused, never extended."""
        if self.n_max < n:
            raise ValueError(f"need a spectrum table with n_max >= {n}, "
                             f"got n_max = {self.n_max}")
        return self.levels[:n + 1]

    def raising_weights(self, n: int) -> np.ndarray:
        """sqrt(E_1) .. sqrt(E_n): B+ |k-1> = sqrt(E_k) |k>, and B- the reverse."""
        return np.sqrt(self.upto(n)[1:])

    def norms(self, N: int) -> np.ndarray:
        """N_0 .. N_{N-1}, N_n = sqrt(E_n (E_n - E_{n-1}) ... (E_n - E_1)), N_0 = 1.
        Levels 0 .. N-1 that do not rise strictly are refused first (DegenerateLevelsError),
        then the first product that is inf, 0 or NaN in floats, naming its level, as soon
        as it is formed: each product costs O(n), so none past it is made."""
        if N < 1:
            raise ValueError("need N >= 1")
        E = self.upto(N - 1)
        flat = np.flatnonzero(np.diff(E) <= 0)
        if flat.size:
            raise DegenerateLevelsError(f"level {flat[0] + 1} is not above all lower levels")
        out = np.empty(N)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # refused below
            for n in range(N):
                out[n] = np.sqrt(np.prod(E[n] - E[:n]))
                if not (np.isfinite(out[n]) and out[n] > 0):
                    raise ValueError(f"normalization product N_{n} = {out[n]} of level {n} "
                                     "is not a finite nonzero float")
        return out


def energy_levels(family: PotentialFamily, n_max: int) -> SpectrumTable:
    """Partial remainder sums along the chain; E_0 = 0.

    Level n is bound when R(a_k) > 0 for every k <= n and a_{n+1} lies in
    the family's domain; a request above the top bound level (Morse has
    only the levels n < a_1) is rejected. A scaling chain value a1 q^k, or its
    remainder c a1 q^k (c > 0), that rounds to 0 is named float underflow
    instead. The sums are checked against the family's closed form to 1e-12
    (relative to the top level, at least 1); a larger deviation is refused,
    naming its level. An n_max above MAX_LEVELS is refused before any level is made.
    """
    if n_max < 0:
        raise ValueError(f"need n_max >= 0, got {n_max}")
    if n_max > MAX_LEVELS:
        raise ValueError(f"need n_max <= MAX_LEVELS = {MAX_LEVELS}, got {n_max}")
    incs = [family.R(family.chain_value(k)) for k in range(1, n_max + 1)]
    for k, r in enumerate(incs, start=1):
        if r <= 0:
            _refuse_level(family, k, k, f"remainder R(a_{k}) = {r:g}", "is not positive", r)
    a_next = family.chain_value(n_max + 1)
    if not family.in_domain(a_next):
        _refuse_level(family, n_max + 1, n_max, f"a_{n_max + 1} = {a_next:g}",
                      "is outside the family's domain")
    levels = np.concatenate([[0.0], np.cumsum(incs)])
    closed = family.closed_levels(n_max)
    atol = 1e-12 * max(1.0, closed[-1])
    if not np.allclose(levels, closed, rtol=0, atol=atol):
        off = np.abs(levels - closed)
        n = int(np.argmax(off))
        raise ValueError(f"partial sums disagree with the closed form by {off[n]:.3g} "
                         f"at level {n}, above {atol:.3g}")
    return SpectrumTable(levels)


def _refuse_level(family: PotentialFamily, k: int, level: int, value: str, verdict: str,
                  r: float | None = None):
    """Refuse `level` for `value`, computed from the chain value a_k and its
    remainder r: as float underflow where a scaling family's a_k = a1 q^(k-1), or
    its r = c a_k with c > 0, is 0 (never so in exact arithmetic), else as not bound."""
    a = family.chain_value(k)
    if family.q is not None and (a == 0 or (r == 0 and family.c > 0)):
        cause = f"R(a_{k} = {a:g}) rounds to 0" if a else f"the chain value a_{k} rounds to 0"
        raise ValueError(f"{value} underflows the floats at level {level}: {cause}")
    raise LevelNotBoundError(f"{value} {verdict}: level {level} is not bound")


def _lowpass(grid: Grid, k_cut: float):
    """Smooth spectral filter exp(-(k/k_cut)^16) with a boundary taper, as a
    function of psi; the taper ramp and the damping are built once per grid.

    Repeated application of W -+ d/dx amplifies grid-frequency noise by
    roughly 1.4/h per step, so states built by many raisings drown in noise
    the factorized Hamiltonian then magnifies by another 1/h^2. The
    physical bound states are analytic with wavenumber content far below
    k_cut, so the filter removes only the unstable band (passband
    attenuation is below 1e-8 for k < 0.3 k_cut). The outer 2.5% of the
    domain is cosine-tapered to zero first: the transform assumes
    periodicity, and an untapered residual boundary amplitude would turn
    into edge ringing that later raisings amplify.
    """
    n = grid.n_points
    m = max(4, int(0.025 * n))
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    k = 2 * np.pi * np.fft.fftfreq(n, d=grid.spacing)
    damp = np.exp(-((np.abs(k) / k_cut) ** 16))

    def apply(psi: np.ndarray) -> np.ndarray:
        amps = psi.copy()
        amps[:m] *= ramp
        amps[n - m:] *= ramp[::-1]
        return np.fft.ifft(np.fft.fft(amps) * damp)

    return apply


def eigenstate_with_prenorm(family: PotentialFamily, levels: SpectrumTable, n: int,
                            grid: Grid) -> tuple[np.ndarray, float]:
    """The raising recursion, returning (normalized state, pre-normalization norm).

    The recursion runs on an internally padded copy of the grid and the
    result is restricted afterwards: the inter-raise filter tapers the
    domain edges, and the sharp spectral cutoff spreads that edge
    information over a kernel-tail length, so both artifacts are kept
    inside the discarded pad. The low-pass wavenumber is a safe multiple of the
    bandwidth set by E_n of `levels`, which must reach level n. A prenorm far
    from N_n (SpectrumTable.norms) means the grid does not resolve the state.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    e_top = levels.upto(n)[-1]
    seed_param = family.chain_value(n + 1)
    filter_cutoff = max(12.0, 6.0 * np.sqrt(e_top + abs(family.R(family.a1))))
    h = grid.spacing
    n_pad = int(np.ceil(max(12.0, 0.15 * (grid.x_max - grid.x_min)) / h)) if n > 0 else 0
    work = Grid(grid.x_min - n_pad * h, grid.x_max + n_pad * h,
                grid.n_points + 2 * n_pad) if n_pad else grid
    psi = ground_state(family, seed_param, work)
    lowpass = _lowpass(work, filter_cutoff)
    for k in range(n, 0, -1):
        W = eval_W(family, family.chain_value(k), work)
        psi = lowpass(apply_ladder(W, psi, work, "raise"))
    prenorm = norm(psi, work)
    if n_pad:
        psi = psi[n_pad:n_pad + grid.n_points]
        edge = max(abs(psi[0]), abs(psi[-1]))
        if edge > 1e-2 * np.max(np.abs(psi)):
            warnings.warn(f"level {n} state has weight {edge:.2e} at the "
                          "requested domain edge; it is accurate on the padded "
                          "domain but truncated here", BoundaryDecayWarning,
                          stacklevel=2)
    return normalized(psi, grid) if n > 0 else psi, prenorm


def fd_diagonalize(family: PotentialFamily, grid: Grid,
                   k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Lowest k eigenpairs of the banded FD Hamiltonian, energies relative to E_0.

    Independent of the ladder machinery: the potential W^2 - W' is formed
    from W samples and the symmetric band matrix is diagonalized by
    shift-inverted Lanczos iteration through a sparse LU factorization (splu)
    of the CSC matrix. The shift sits below the spectrum (the factorized
    Hamiltonian is positive semi-definite), and a fixed start vector keeps
    runs bitwise reproducible. Warns when an eigenvector has visible weight at the walls.
    Bands that are not finite (W^2 overflows) are refused, naming the family,
    and so is a k that is not below the number of grid points.
    """
    if not 1 <= k < grid.n_points:
        raise ValueError(f"need 1 <= k < n_points: {k} levels asked of a "
                         f"{grid.n_points}-point grid")
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackError
    eigsh = sys.modules[__name__].eigsh
    W = eval_W(family, family.a1, grid)
    bands = hamiltonian_bands(W, grid)
    if not np.all(np.isfinite(bands)):
        raise ValueError(f"the banded Hamiltonian of {family.to_config()} is not "
                         "finite on the grid")
    n = grid.n_points
    diags, offsets = [bands[0]], [0]
    for j in range(1, bands.shape[0]):
        diags += [bands[j, :n - j], bands[j, :n - j]]
        offsets += [-j, j]
    matrix = sp.diags(diags, offsets, format="csc")
    sigma = min(0.0, float(np.min(bands[0]))) - 1.0
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        vals, vecs = eigsh(matrix, k=k, sigma=sigma, which="LM", v0=v0)
    except (ArpackError, RuntimeError) as exc:
        raise EigensolverError(str(exc)) from exc
    order_idx = np.argsort(vals)
    vals = vals[order_idx]
    vecs = vecs[:, order_idx]
    energies = vals - vals[0]
    states = []
    h = grid.spacing
    for j in range(k):
        v = vecs[:, j] / np.sqrt(h)  # l2-normalized column -> unit quadrature norm
        edge = max(abs(v[0]), abs(v[-1]))
        if edge > 1e-6 * np.max(np.abs(v)):
            warnings.warn(f"eigenstate {j} has weight {edge:.2e} at the wall; "
                          "energies may be contaminated by the boundary",
                          BoundaryDecayWarning, stacklevel=2)
        states.append(v.astype(complex))
    return energies, states


def eigen_residual(family: PotentialFamily, psi: np.ndarray, grid: Grid,
                   energy: float) -> float:
    """Interior norm of (H - E) psi for a unit-norm candidate eigenstate."""
    W = eval_W(family, family.a1, grid)
    diff = _partner(W, psi, grid, "lower") - energy * psi
    return float(np.sqrt(grid.spacing * np.sum(np.abs(diff[grid.interior_slice()]) ** 2)))
