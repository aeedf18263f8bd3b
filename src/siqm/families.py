"""Superpotential families, parameter maps, remainders, and ground states.

A family bundles a superpotential W(x; a), a parameter map a -> a' (either
a scaling a' = q a or a translation a' = a + delta), and the remainder R(a)
appearing in the factorization identity

    A(a1) A_dag(a1) = A_dag(a2) A(a2) + R(a1).

Every family-specific decision lives in one subclass of PotentialFamily:
W(x; a), R(a), the parameter rule, the parameter domain, the closed-form
levels, the box hint and the config keys. Three families are registered.
The scaling-class family is the subject of the package; harmonic and Morse
are translation-class fixtures with known closed-form spectra that anchor
the ladder machinery against independent analytics:

    harmonic     W(x; lam) = lam * x,    a2 = a1,      R = 2 lam
    morse        W(x; A) = A - exp(-x),  a2 = a1 - 1,  R(a) = a^2 - (a-1)^2
    selfsimilar  W from the power series solver, a2 = q a1, R(a) = c a

A new family is one more subclass; listing it in FAMILIES exposes it to
family_from_config and the CLI.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .grid import Grid, _packet, _partner, cumulative_integral, normalized
from .series import SelfSimilarW, series_coefficients


class NonNormalizableError(ValueError):
    """The candidate ground state does not decay at both boundaries."""


class OutOfDomainError(ValueError):
    """A parameter value outside the family's valid domain."""


@dataclass(frozen=True)
class ParameterRule:
    """Parameter map: scaling a -> q*a with 0 < q <= 1, or translation a -> a + delta."""

    kind: str
    factor_q: float | None = None
    shift_delta: float | None = None

    def __post_init__(self):
        if self.kind == "scaling":
            if self.factor_q is None or self.shift_delta is not None:
                raise ValueError("scaling rule takes factor_q only")
            if not 0.0 < self.factor_q <= 1.0:
                raise ValueError(f"scaling requires 0 < q <= 1, got {self.factor_q}")
        elif self.kind == "translation":
            if self.shift_delta is None or self.factor_q is not None:
                raise ValueError("translation rule takes shift_delta only")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")

    def value(self, a1: float, index: int) -> float:
        """Chain value a_index (1-based; index 0 gives the pre-chain parameter a_0)."""
        if self.kind == "scaling":
            return a1 * self.factor_q ** (index - 1)
        return a1 + (index - 1) * self.shift_delta


@dataclass(frozen=True)
class PotentialFamily(ABC):
    """A superpotential family: W(x; a), its parameter rule and remainder R(a).

    A subclass sets `name`, `rule` and `box` and defines W, R and
    closed_levels; it may narrow the parameter domain (in_domain) and extend
    the config keys. A family is frozen: new fields need @dataclass(frozen=True).
    """

    name: ClassVar[str]
    rule: ClassVar[ParameterRule]
    box: ClassVar[tuple[float, float]]    # suggested_grid's domain [lo, hi]
    # config key -> (constructor field, type); family_from_config rejects others
    config_keys: ClassVar[dict] = {"a1": ("a1", float)}
    # Parameters of the scaling family, where they are fields. Every family
    # has them, so callers read them without asking which family they hold.
    q = None                              # scaling factor; None for a translation
    c = 0.0                               # remainder constant R(a) = c a
    series_order = 60                     # series truncation of W

    a1: float
    # eval_W's read-only samples, keyed on (a, grid)
    _samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @abstractmethod
    def W(self, x: np.ndarray, a: float) -> np.ndarray:
        """W(x; a) at the points x."""

    @abstractmethod
    def R(self, a: float) -> float:
        """Remainder R(a) of the factorization identity."""

    @abstractmethod
    def closed_levels(self, n_max: int) -> np.ndarray:
        """Closed-form E_0 ... E_{n_max}, the reference for the remainder sums."""

    def in_domain(self, a: float) -> bool:
        """Whether a is a parameter with a bound ground state (a > 0 by default)."""
        return a > 0

    def chain_value(self, index: int) -> float:
        return self.rule.value(self.a1, index)

    def to_config(self) -> dict:
        return {"family": self.name,
                **{key: getattr(self, attr) for key, (attr, _) in self.config_keys.items()}}

    @classmethod
    def from_config(cls, cfg: dict) -> "PotentialFamily":
        unknown = sorted(set(cfg) - set(cls.config_keys) - {"family"})
        if unknown:
            raise ValueError(f"family {cls.name!r} takes no {', '.join(unknown)} "
                             f"(its keys: {', '.join(cls.config_keys)})")
        return cls(**{attr: kind(cfg[key]) for key, (attr, kind)
                      in cls.config_keys.items() if key in cfg})


@dataclass(frozen=True)
class Harmonic(PotentialFamily):
    """W = lam*x with the identity parameter map and constant remainder 2*lam."""

    name = "harmonic"
    rule = ParameterRule("translation", shift_delta=0.0)
    box = (-10.0, 10.0)

    a1: float = 1.0

    def W(self, x, a):
        return a * x

    def R(self, a):
        return 2.0 * a

    def closed_levels(self, n_max):
        return 2.0 * self.a1 * np.arange(n_max + 1)


@dataclass(frozen=True)
class Morse(PotentialFamily):
    """W = A - exp(-x) in the alpha = B = 1 convention; a -> a - 1 per step.

    The box is asymmetric because the exponential wall on the left would
    otherwise dominate the matrix norm and erode eigenvalue accuracy.
    """

    name = "morse"
    rule = ParameterRule("translation", shift_delta=-1.0)
    box = (-5.0, 32.0)

    a1: float = 2.5

    def __post_init__(self):
        if not np.isfinite(self.a1 * self.a1):  # R and closed_levels square chain values
            raise OutOfDomainError(f"morse needs a1 whose square is a finite float, "
                                   f"got a1 = {self.a1}")

    def W(self, x, a):
        return a - np.exp(-x)

    def R(self, a):
        return a * a - (a - 1.0) ** 2

    def closed_levels(self, n_max):
        return self.a1 ** 2 - (self.a1 - np.arange(n_max + 1)) ** 2


@dataclass(frozen=True)
class SelfSimilar(PotentialFamily):
    """W from the power-series solver, a -> q a, R(a) = c a.

    The potential has a 1/x^2 confinement tail, so its near-threshold levels
    need a wide box.
    """

    name = "selfsimilar"
    box = (-40.0, 40.0)
    config_keys = {"a1": ("a1", float), "q": ("q", float), "c": ("c", float),
                   "order": ("series_order", int)}

    q: float = 0.5
    c: float = 1.0
    a1: float = 1.0
    series_order: int = 60

    def __post_init__(self):
        object.__setattr__(self, "rule", ParameterRule("scaling", factor_q=self.q))
        if not self.in_domain(self.a1):
            raise OutOfDomainError("scaling family needs a1 > 0")
        if self.series_order < 1:
            raise ValueError(f"scaling family needs series order >= 1, got {self.series_order}")

    @cached_property
    def engine(self) -> SelfSimilarW:
        """Series/continuation evaluator of W(x; a1), built from the fields on first use."""
        c0 = self.c * self.a1 / (1.0 + self.q)
        return SelfSimilarW(series_coefficients(self.q, c0, self.series_order))

    def W(self, x, a):
        # scaling law: W(x; a) = s * W(s x; a1) with s = sqrt(a / a1)
        if not self.in_domain(a):
            raise OutOfDomainError(f"scaling family needs a > 0, got {a}")
        s = np.sqrt(a / self.a1)
        return s * self.engine.w(s * x)

    def R(self, a):
        return self.c * a

    def closed_levels(self, n_max):
        n = np.arange(n_max + 1)
        if self.q == 1.0:
            return self.c * self.a1 * n.astype(float)
        # -expm1(n log q) = 1 - q^n without cancellation as q -> 1
        return self.c * self.a1 * (-np.expm1(n * np.log(self.q))) / (1 - self.q)


FAMILIES = {cls.name: cls for cls in (Harmonic, Morse, SelfSimilar)}
DEFAULT_FAMILY = SelfSimilar.name


def family_from_config(cfg: dict) -> PotentialFamily:
    """The registered family cfg["family"], built from its declared keys only."""
    name = cfg.get("family")
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return FAMILIES[name].from_config(cfg)


def eval_W(family: PotentialFamily, a: float, grid: Grid) -> np.ndarray:
    """Sample W(x; a) on the grid, once per (a, grid) for the family's lifetime.

    The family keeps the sample and every call returns that same read-only
    array, so callers share it and none can alter it.
    """
    key = (float(a), grid)
    W = family._samples.get(key)
    if W is None:
        W = family.W(grid.x, a)
        W.flags.writeable = False
        family._samples[key] = W
    return W


def suggested_grid(family: PotentialFamily) -> Grid:
    """The family's box hint sampled at spacing 0.01.

    The box is a fixed default and is not sized for the requested levels:
    at q = 0.5, c = a1 = 1 the scaling box [-40, 40] holds levels up to
    n = 5, while level 6 keeps weight 4.7e-4 at its edge and the raising
    recursion warns (BoundaryDecayWarning). ROADMAP open item 3 sizes the
    box from the physics instead.
    """
    lo, hi = family.box
    n = int(round((hi - lo) / 0.01)) + 1
    return Grid(lo, hi, n)


def ground_state(family: PotentialFamily, a: float, grid: Grid) -> np.ndarray:
    """Unit-norm ground state psi_0(x) proportional to exp(-int_0^x W).

    The accumulated integral uses a 4th-order cumulative rule; the additive
    constant from starting the integral at the left edge instead of x = 0
    only rescales psi_0 and is removed by normalization.
    """
    W = eval_W(family, a, grid)
    I = cumulative_integral(W, grid.spacing)
    expo = -I
    expo -= np.max(expo)
    amps = np.exp(expo)
    peak = float(np.max(amps))
    # a growing exponential shows up as boundary amplitude of order the peak;
    # slowly decaying but bound states sit orders of magnitude below this
    if amps[0] > 1e-2 * peak or amps[-1] > 1e-2 * peak:
        raise NonNormalizableError(
            "candidate ground state does not decay at both boundaries")
    return normalized(amps, grid)


def shape_invariance_residual(family: PotentialFamily, grid: Grid) -> float:
    """Worst relative residual of A(a1)A_dag(a1) - A_dag(a2)A(a2) - R(a1).

    Measured on the interior 90% of the grid over four Gaussian packets, one
    moving. This is the admission gate for a family: spectra and algebra checks
    are only meaningful below the 1e-6 level. A residual that is not finite is refused.
    """
    a1 = family.a1
    W1 = eval_W(family, a1, grid)
    W2 = eval_W(family, family.chain_value(2), grid)
    R = family.R(a1)
    span = min(abs(grid.x_min), abs(grid.x_max))
    probes = [normalized(_packet(grid, x0, w, k), grid) for x0, w, k in (
        (0.0, 2 * 1.0 ** 2, 0.0), (-0.15 * span, 2 * 1.4 ** 2, 0.0),
        (0.1 * span, 2 * 0.8 ** 2, 0.0), (0.0, 2.5, 0.7))]
    return _worst_interior_residual("shape-invariance", lambda f: (
        _partner(W1, f, grid, "raise") - _partner(W2, f, grid, "lower") - R * f), probes, grid)


def worst_residual(check: str, residuals) -> float:
    """The largest residual (floats or an array), at least 0; a NaN or inf is refused."""
    r = np.asarray(residuals, dtype=float)
    bad = r[~np.isfinite(r)]
    if bad.size:
        raise ValueError(f"{check}: residual {bad[0]} is not finite")
    return float(np.max(r, initial=0.0))


def _worst_interior_residual(check: str, residual, probes: list, grid: Grid) -> float:
    """The worst ||residual(f)|| / ||f|| over the probes f, on the interior: the grid's
    interior slice and, for a lattice state, levels 1 .. K-2. numpy's warnings are off
    while a residual is evaluated; one that is not finite anywhere is refused as NaN."""
    interior = (slice(1, -1),) * (probes[0].ndim - 1) + (grid.interior_slice(),)
    ratios = []
    for f in probes:
        with np.errstate(all="ignore"):
            r = residual(f)
            ratios.append(np.linalg.norm(r[interior]) / np.linalg.norm(f[interior])
                          if np.all(np.isfinite(r)) else np.nan)
    return worst_residual(check, ratios)
