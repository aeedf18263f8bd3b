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
approximate, and the final state is no longer an eigenstate of sqrt(E_n) B-;
the overlap with that matrix's best-fit eigenstate quantifies how far.

The closed form is evaluated in real arithmetic. C = B+ + B- is tridiagonal
with a zero diagonal, and the gauge G = diag((-i)^n) turns it into a real
rotation generator:

    -i C = G K G^{-1},   K = B+ - B-   (real, antisymmetric),

so exp(-i F C) e_0 = G exp(F K) e_0, since G e_0 = e_0. Each time point
takes one real matrix exponential instead of a complex one.

Direct integration uses a fixed-step classical Runge-Kutta scheme; norm
drift over the run certifies effective unitarity.

scipy is imported where it is used, not with the module, so that the
commands that never evolve start without it: `expm` is bound on first
access to `siqm.dynamics.expm` (the module's `__getattr__`), and `erf` is
imported by the pulse drive's integral. `evolve_forced` calls `expm`
through that module attribute, so a wrapper set there, as perfbench's
tracer sets one, is the function that runs.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .families import worst_residual
from .spectra import SpectrumTable


def __getattr__(name):
    """Bind `expm` on first access; a binding already there is kept."""
    if name == "expm":
        from scipy.linalg import expm
        return globals().setdefault(name, expm)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class TruncationOverflowError(ValueError):
    """Population reached the top of the truncated basis."""


class StepInstabilityError(ValueError):
    """Time step too large for the spectral radius of the Hamiltonian."""


# Largest top-level population a run may reach before the truncation is unsound.
TOP_BUDGET = 1e-6
# Most RK4 steps a run may take: 400 default runs, ~1.3 GB of arrays at 24 levels.
MAX_STEPS = 10**6
# Most amplitudes a trajectory may hold, (steps + 1) x levels: MAX_STEPS at 24 levels.
MAX_AMPLITUDES = 24 * (MAX_STEPS + 1)


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
        for name in ("f0", "t0", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"drive {name} = {getattr(self, name)} is not finite")
        # f(t) divides by 2 sigma^2; sigma ** 2 raises OverflowError from 1.34e154
        if self.kind == "pulse" and not (0 < self.sigma < 1e154
                                         and 0 < 2 * self.sigma ** 2 < math.inf):
            raise ValueError(f"pulse needs sigma > 0 whose 2 sigma^2 is a positive finite "
                             f"float, got sigma = {self.sigma}")

    def __call__(self, t):
        """f at a time or, elementwise, at an array of times."""
        if self.kind == "const":
            return np.full(np.shape(t), self.f0)[()]
        # float_power rounds like the scalar ** 2; numpy's array ** can differ in the last
        # bit. An exponent past the floats is -inf, whose exp is the 0 it rounds to.
        with np.errstate(over="ignore"):
            return self.f0 * np.exp(-np.float_power(t - self.t0, 2.0) / (2 * self.sigma ** 2))

    def integral(self, t):
        """F(t) = int_0^t f dt', exactly, at a time or, elementwise, at an array of times."""
        if self.kind == "const":
            return self.f0 * t
        from scipy.special import erf
        s = self.sigma * np.sqrt(np.pi / 2)
        return self.f0 * s * (erf((t - self.t0) / (np.sqrt(2) * self.sigma))
                              + erf(self.t0 / (np.sqrt(2) * self.sigma)))

    @classmethod
    def parse(cls, text: str) -> "DriveProfile":
        """Parse 'const:<f0>' or 'pulse:<f0>,<t0>,<sigma>'."""
        kind, _, rest = text.partition(":")
        try:
            values = [float(v) for v in rest.split(",")]
        except ValueError:
            values = []
        if len(values) != {"const": 1, "pulse": 3}.get(kind):
            raise ValueError(f"drive spec {text!r} is not const:<f0> "
                             "or pulse:<f0>,<t0>,<sigma>")
        return cls(kind, *values)


@dataclass
class ForcedEvolution:
    """Direct and closed-form trajectories from the ground state."""

    drive: DriveProfile
    sign_convention: str
    t_grid: np.ndarray
    trajectory: np.ndarray = field(repr=False)          # (n_times, N) direct
    closed_trajectory: np.ndarray = field(repr=False)   # (n_times, N)
    norms: np.ndarray = field(repr=False)
    overlaps: np.ndarray = field(repr=False)            # |<direct | closed>|
    weights: np.ndarray = field(repr=False)             # sqrt(E_1) .. sqrt(E_{N-1})

    @property
    def norm_drift(self) -> float:
        return worst_residual("norm_drift", np.abs(self.norms - 1.0))

    @property
    def final_overlap(self) -> float:
        return float(self.overlaps[-1])

    def best_fit_coherent(self) -> tuple[complex, float]:
        """Moment-matched z and the final-state overlap with that |z>.

        z is the expectation in the final state of sqrt(E_n) B-, weighted as the run
        evolved; |z> is that matrix's truncated eigenstate c_n = c_{n-1} z / sqrt(E_n),
        c_0 = 1, normalized on the N levels. Coefficients outside the floats are refused.
        """
        psi, weights = self.trajectory[-1], self.weights
        # B- psi: the sqrt(E) shift down by one level, as in the RK4 rhs
        z = complex(np.vdot(psi, np.append(weights * psi[1:], 0)) / np.vdot(psi, psi))
        coh = np.cumprod(np.append(1, z / weights))
        if not np.isfinite(size := np.linalg.norm(coh)):
            raise ValueError(f"coherent coefficients overflow for z = {z} at {len(psi)} levels")
        return z, float(abs(np.vdot(psi, coh / size)) / np.linalg.norm(psi))


def evolve_forced(levels: SpectrumTable, drive: DriveProfile, t_max: float,
                  dt: float, sign_convention: str = "conjugate") -> ForcedEvolution:
    """Integrate the driven evolution and compare with the closed form.

    The truncation is the whole spectrum table, at least three levels; the
    run aborts if the top-level population ever exceeds TOP_BUDGET. dt must
    be finite and positive, t_max finite and non-negative, round(t_max / dt)
    at most MAX_STEPS, the trajectory's (steps + 1) x levels amplitudes at most
    MAX_AMPLITUDES, and the stability budget dt * (E_max + 2 |f0| sqrt(E_max))
    <= 0.1, a bound on dt * max|h(t)|, is enforced up front.
    """
    if sign_convention not in ("paper", "conjugate"):
        raise ValueError("sign_convention must be 'paper' or 'conjugate'")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt = {dt} must be finite and positive")
    if not (math.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max = {t_max} must be finite and non-negative")
    sign = +1.0 if sign_convention == "paper" else -1.0
    N = levels.n_max + 1
    if N < 3:
        raise ValueError("need dimension >= 3")
    E = levels.levels
    weights = levels.raising_weights(N - 1)
    emax = float(np.max(E)) + 2.0 * abs(drive.f0) * float(np.sqrt(np.max(E)))
    if dt * emax > 0.1:
        raise StepInstabilityError(
            f"dt = {dt} exceeds the stability budget 0.1 / max|h| ~ {0.1 / emax:.2e}")
    steps = t_max / dt  # inf for a dt far below t_max
    if steps > MAX_STEPS + 0.5:  # round(steps) > MAX_STEPS
        raise ValueError(f"t_max = {t_max} at dt = {dt} takes {steps:.7g} steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")
    n_steps = int(round(steps))
    if (n_steps + 1) * N > MAX_AMPLITUDES:
        raise ValueError(f"a trajectory of {n_steps + 1} time points at {N} levels holds "
                         f"{(n_steps + 1) * N} amplitudes, more than MAX_AMPLITUDES = "
                         f"{MAX_AMPLITUDES}")
    t_grid = np.linspace(0.0, n_steps * dt, n_steps + 1)
    R1 = float(E[1])

    # Everything that depends on time alone, evaluated once per run at the
    # stage times t, t + dt/2 and t + dt of every step: the phase
    # e^{i s R1 t}, its conjugate and f(t)
    t_step = t_grid[:-1, None]
    t_stage = np.hstack((t_step, t_step + dt / 2, t_step + dt))
    phase = np.exp(1j * sign * R1 * t_stage)
    phase_conj = np.conj(phase)
    f_stage = drive(t_stage)

    # H = diag(E), and B+ / B- shift by one level with weights sqrt(E_n),
    # written into zero-bordered buffers. Real and constant operands are held
    # as the complex arrays numpy casts them to, so the products are the same
    # but no stage pays the cast.
    E_c = E.astype(complex)
    sqrt_e = weights.astype(complex)
    minus_i, dt_c, two, six = (np.array(v, dtype=complex) for v in (-1j, dt, 2, 6))
    bp_y = np.zeros(N, dtype=complex)
    bm_y = np.zeros(N, dtype=complex)
    bp_in, bm_in = bp_y[1:], bm_y[:-1]

    def rhs(y, ph, ph_conj, f):
        np.multiply(sqrt_e, y[:-1], out=bp_in)
        np.multiply(sqrt_e, y[1:], out=bm_in)
        return minus_i * (E_c * y + f * (ph * bp_y + ph_conj * bm_y))

    psi = np.zeros(N, dtype=complex)
    psi[0] = 1.0
    traj = np.empty((n_steps + 1, N), dtype=complex)
    closed = np.empty_like(traj)
    norms = np.empty(n_steps + 1)
    traj[0] = psi
    norms[0] = 1.0
    for i in range(n_steps):
        ph, ph_conj, f = phase[i], phase_conj[i], f_stage[i]
        k1 = rhs(psi, ph[0], ph_conj[0], f[0])
        k2 = rhs(psi + dt_c * k1 / two, ph[1], ph_conj[1], f[1])
        k3 = rhs(psi + dt_c * k2 / two, ph[1], ph_conj[1], f[1])
        k4 = rhs(psi + dt_c * k3, ph[2], ph_conj[2], f[2])
        psi = psi + dt_c * (k1 + two * k2 + two * k3 + k4) / six
        traj[i + 1] = psi
        norms[i + 1] = np.linalg.norm(psi)
        if abs(psi[-1]) ** 2 > TOP_BUDGET:
            raise TruncationOverflowError(
                f"more levels or a weaker drive needed: top-level population "
                f"{abs(psi[-1])**2:.2e} exceeds the budget {TOP_BUDGET:.0e} "
                f"at t = {t_grid[i + 1]:.3f}")
    # closed form: exp(-i E t) G for all t at once, then column 0 of one real
    # expm(F(t) K) per time point; G = diag((-i)^n) is exact, not a complex power
    expm = sys.modules[__name__].expm
    gauge = np.array([1, -1j, -1, 1j])[np.arange(N) % 4]
    rotation = np.diag(weights, -1) - np.diag(weights, 1)
    np.multiply(-1j * E, t_grid[:, None], out=closed)
    np.exp(closed, out=closed)
    closed *= gauge
    for i, F in enumerate(drive.integral(t_grid)):
        closed[i] *= expm(F * rotation)[:, 0]
    overlaps = np.abs(np.einsum("ij,ij->i", traj.conj(), closed)) / \
        (np.linalg.norm(traj, axis=1) * np.linalg.norm(closed, axis=1))
    return ForcedEvolution(drive=drive, sign_convention=sign_convention, t_grid=t_grid,
                           trajectory=traj, closed_trajectory=closed, norms=norms,
                           overlaps=overlaps, weights=weights)
