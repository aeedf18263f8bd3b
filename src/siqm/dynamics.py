"""Forced-oscillator time evolution on the truncated ladder matrices.

The time-dependent Hamiltonian couples the ladder operators to a drive
f(t) with oscillating phases at the base remainder frequency R1:

    h(t) = B+ B-  +  f(t) [ e^{i s R1 t} B+  +  B- e^{-i s R1 t} ],

where the sign s is an explicit convention ('paper' puts the positive
phase on the raising side, 'conjugate' flips both phases). When the
commutator [B-, B+] is a plain number (the oscillator limit q = 1 here)
the interaction picture removes the phases entirely and evolution from the
ground state has the closed form

    u(t) = exp(-i H t) exp(-i F(t) (B+ + B-)),   F(t) = int_0^t f.

Measured numerically, the cancellation happens under the 'conjugate'
convention; the 'paper' phases leave a residual e^{2 i R1 t} modulation.
For q < 1 the commutator is operator-valued, the closed form is only
approximate, and the final state is no longer a lowering-operator
eigenstate; the overlap with the best-fit coherent state quantifies that.

Direct integration uses a fixed-step classical Runge-Kutta scheme; norm
drift over the run certifies effective unitarity.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import erf

from .coherent import coherent_recursive
from .ladder_matrices import LadderMatrices
from .spectra import SpectrumTable


class TruncationOverflowError(RuntimeError):
    """Population reached the top of the truncated basis."""


class StepInstabilityError(ValueError):
    """Time step too large for the spectral radius of the Hamiltonian."""


# Largest top-level population a run may reach before the truncation is unsound.
TOP_BUDGET = 1e-6


@dataclass(frozen=True)
class DriveProfile:
    """Drive f(t): constant f0, or a Gaussian pulse f0 exp(-(t-t0)^2/(2 sigma^2))."""

    kind: str
    f0: float
    t0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("const", "pulse"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.kind == "pulse" and self.sigma <= 0:
            raise ValueError("pulse needs sigma > 0")

    def __call__(self, t: float) -> float:
        if self.kind == "const":
            return self.f0
        return self.f0 * np.exp(-((t - self.t0) ** 2) / (2 * self.sigma ** 2))

    def integral(self, t: float) -> float:
        """F(t) = int_0^t f dt', exactly."""
        if self.kind == "const":
            return self.f0 * t
        s = self.sigma * np.sqrt(np.pi / 2)
        return float(self.f0 * s * (erf((t - self.t0) / (np.sqrt(2) * self.sigma))
                                    + erf(self.t0 / (np.sqrt(2) * self.sigma))))

    @classmethod
    def parse(cls, text: str) -> "DriveProfile":
        """Parse 'const:<f0>' or 'pulse:<f0>,<t0>,<sigma>'."""
        kind, _, rest = text.partition(":")
        if kind == "const":
            return cls("const", f0=float(rest))
        if kind == "pulse":
            f0, t0, sigma = (float(v) for v in rest.split(","))
            return cls("pulse", f0=f0, t0=t0, sigma=sigma)
        raise ValueError(f"unknown drive spec {text!r}")


@dataclass
class ForcedEvolution:
    """Direct and closed-form trajectories from the ground state."""

    drive: DriveProfile
    R1: float
    sign_convention: str
    t_grid: np.ndarray
    dt: float
    trajectory: np.ndarray = field(repr=False)          # (n_times, N) direct
    closed_trajectory: np.ndarray = field(repr=False)   # (n_times, N)
    norms: np.ndarray = field(repr=False)
    overlaps: np.ndarray = field(repr=False)            # |<direct | closed>|

    @property
    def norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - 1.0)))

    @property
    def final_overlap(self) -> float:
        return float(self.overlaps[-1])

    def best_fit_coherent(self, levels: SpectrumTable,
                          ladder: LadderMatrices) -> tuple[complex, float]:
        """Moment-matched z and the final-state overlap with that |z>.

        z is the expectation of the plain lowering matrix in the final
        state; the comparison coherent state is truncated at the same N and
        normalized on that window.
        """
        psi = self.trajectory[-1]
        z = complex(np.vdot(psi, ladder.b_minus @ psi) / np.vdot(psi, psi))
        if z == 0:
            return z, float(abs(psi[0]) / np.linalg.norm(psi))
        coh = coherent_recursive(levels, z, len(psi)).normalized_copy()
        overlap = abs(np.vdot(psi, coh.coefficients)) / np.linalg.norm(psi)
        return z, float(overlap)


def evolve_forced(levels: SpectrumTable, drive: DriveProfile, t_max: float,
                  dt: float, sign_convention: str = "conjugate") -> ForcedEvolution:
    """Integrate the driven evolution and compare with the closed form.

    The truncation is taken from the spectrum table; the run aborts if the
    top-level population ever exceeds TOP_BUDGET. The stability budget
    dt * max(E_n) <= 0.1 is enforced up front.
    """
    if sign_convention not in ("paper", "conjugate"):
        raise ValueError("sign_convention must be 'paper' or 'conjugate'")
    sign = +1.0 if sign_convention == "paper" else -1.0
    lm = LadderMatrices(levels, levels.n_max + 1)
    N = lm.dimension
    E = np.diag(lm.h_matrix)
    emax = float(np.max(E)) + 2.0 * abs(drive.f0) * float(np.sqrt(np.max(E)))
    if dt * emax > 0.1:
        raise StepInstabilityError(
            f"dt = {dt} exceeds the stability budget 0.1 / max|h| ~ {0.1 / emax:.2e}")
    n_steps = int(round(t_max / dt))
    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)

    # H = diag(E), and B+ / B- shift by one level with weights sqrt(E_n)
    sqrt_e = np.diag(lm.b_plus, -1)
    R1 = float(levels.levels[1]) if levels.n_max >= 1 else 0.0

    def rhs(t, y):
        ph = np.exp(1j * sign * R1 * t)
        bp_y = np.zeros_like(y)
        bp_y[1:] = sqrt_e * y[:-1]
        bm_y = np.zeros_like(y)
        bm_y[:-1] = sqrt_e * y[1:]
        return -1j * (E * y + drive(t) * (ph * bp_y + np.conj(ph) * bm_y))

    psi = np.zeros(N, dtype=complex)
    psi[0] = 1.0
    traj = np.empty((n_steps + 1, N), dtype=complex)
    closed = np.empty_like(traj)
    norms = np.empty(n_steps + 1)
    traj[0] = psi
    norms[0] = 1.0
    e0 = psi.copy()
    coupling = lm.b_plus + lm.b_minus
    for i in range(n_steps):
        t = t_grid[i]
        k1 = rhs(t, psi)
        k2 = rhs(t + dt / 2, psi + dt * k1 / 2)
        k3 = rhs(t + dt / 2, psi + dt * k2 / 2)
        k4 = rhs(t + dt, psi + dt * k3)
        psi = psi + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        traj[i + 1] = psi
        norms[i + 1] = np.linalg.norm(psi)
        if abs(psi[-1]) ** 2 > TOP_BUDGET:
            raise TruncationOverflowError(
                f"top-level population {abs(psi[-1])**2:.2e} exceeds the budget "
                f"{TOP_BUDGET:.0e} at t = {t_grid[i + 1]:.3f}")
    for i, t in enumerate(t_grid):
        u_i = expm(-1j * drive.integral(t) * coupling)
        closed[i] = np.exp(-1j * E * t) * (u_i @ e0)
    overlaps = np.abs(np.einsum("ij,ij->i", traj.conj(), closed)) / \
        (np.linalg.norm(traj, axis=1) * np.linalg.norm(closed, axis=1))
    return ForcedEvolution(drive=drive, R1=R1, sign_convention=sign_convention,
                           t_grid=t_grid, dt=dt, trajectory=traj,
                           closed_trajectory=closed, norms=norms,
                           overlaps=overlaps)
