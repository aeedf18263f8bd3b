"""Power-series solution and continuation of the self-similar superpotential.

The superpotential of a scaling-class potential reproduces itself under the
rescaling W(x) -> sqrt(q) W(sqrt(q) x) of the parameter map, which combined
with the factorization condition and the constant remainder R gives the
functional-differential equation

    W(x)^2 + W'(x) - q W(sqrt(q) x)^2 + q W'(sqrt(q) x) = R.

Substituting an odd power series W(x) = sum_j c_j x^(2j+1) and matching
powers of x yields the closed recursion

    c_{k+1} = -[(1 - q^(k+2)) / ((2k+3)(1 + q^(k+2)))] * sum_{i+j=k} c_i c_j

together with the constant-term identity R = (1 + q) c_0. At q = 1 every
higher coefficient vanishes (linear W, harmonic limit); at q = 0 the
recursion generates the Taylor series of c0-scaled tanh (the one-soliton
limit). For 0 < q < 1 the series has a finite radius of convergence, so W
is continued outward by integrating the equation as a delayed-argument
(pantograph-type) ODE

    W'(x) = -W(x)^2 + q W(sqrt(q) x)^2 - q W'(sqrt(q) x) + R :

the contracted argument sqrt(q) x always lands in already-computed inner
territory, so an explicit outward march is well posed. The far field
saturates at W_inf = sqrt(R / (1 - q)) with a slow power-law tail ~ 1/x^2.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import _STENCIL, _lagrange

# nonzero coefficients the ratio test needs before it estimates a radius
_RADIUS_TAIL = 6


class HorizonExceededError(ValueError):
    """Outward continuation left the built table or diverged."""


@dataclass(frozen=True)
class SeriesCoefficients:
    """Odd-series coefficients c_j of W (c_j multiplies x^(2j+1))."""

    q: float
    c0: float
    coeffs: np.ndarray = field(repr=False)
    # ratio-test radius of the coefficients; +inf when fewer than 6 are nonzero,
    # for a polynomial (q = 1) and for a series too short to estimate
    radius_estimate: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "radius_estimate", _ratio_radius(ratio_sequence(self)))

    @property
    def remainder(self) -> float:
        """The constant R = (1+q) c_0 the series solves for."""
        return (1.0 + self.q) * self.c0


def series_coefficients(q: float, c0: float, K: int) -> SeriesCoefficients:
    """Solve the power-matching recursion for c_0 ... c_K.

    q = 0 is admitted (one-soliton limit, tanh series) even though the
    scaling parameter map itself requires q > 0. A recursion that leaves
    the finite floats (c0 too large for its squares) is refused.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    c = np.zeros(K + 1)
    c[0] = c0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # refused below
        for k in range(K):
            conv = float(np.dot(c[:k + 1], c[k::-1]))
            c[k + 1] = -(1.0 - q ** (k + 2)) / ((2 * k + 3) * (1.0 + q ** (k + 2))) * conv
    bad = np.flatnonzero(~np.isfinite(c))
    if bad.size:
        raise ValueError(f"the series recursion at q = {q}, c0 = {c0} overflows "
                         f"at c_{bad[0]} of order {K}")
    return SeriesCoefficients(q=q, c0=c0, coeffs=c)


def ratio_sequence(coeffs: SeriesCoefficients) -> np.ndarray:
    """The sequence sqrt(|c_k / c_{k+1}|) over nonzero coefficients."""
    c = coeffs.coeffs
    nz = np.flatnonzero(np.abs(c) > 0)
    return np.sqrt(np.abs(c[nz[:-1]] / c[nz[1:]]))


def _ratio_radius(ratios: np.ndarray) -> float:
    """Ratio-test radius in x: the median of the last _RADIUS_TAIL ratios.

    +inf when fewer than _RADIUS_TAIL coefficients are nonzero. That is a
    polynomial series (q = 1), but also a series truncated too early to
    estimate, such as the q = 0 tanh series at K = 4, whose radius is pi/2.
    """
    if len(ratios) < _RADIUS_TAIL - 1:
        return np.inf
    return float(np.median(ratios[-_RADIUS_TAIL:]))


class SelfSimilarW:
    """Evaluator for W: direct series inside 0.8*radius, pantograph ODE outside.

    The table holds rows (x, W, W') for x >= 0 (W is odd), exactly the
    points built so far: the series region up to x_break, tabulated on the
    first ensure(), then a classical RK4 march outward, extended on demand.
    One evaluator reads W and W' at any u >= 0, the series up to x_break and
    6-point Lagrange interpolation of the table beyond, for w(), wp() and
    the march's delayed terms at the contracted arguments sqrt(q) x and
    sqrt(q) (x + h/2).

    The march runs in blocks of one plan, one loop and one commit. The plan
    takes, from the current table length L, each following step while x_max
    is not reached, sqrt(q)(x + h) stays below x and the step's stencils lie
    inside those L points, and evaluates the delayed terms q W(u)^2 and
    q W'(u) of all its stages at once. The loop runs only the Riccati update
    W' = -W^2 + ... The commit appends the steps before the first W that
    diverged to the table in one piece and refuses that one. A step whose
    stencil would reach past the table is a block of its own and reads the
    table clamped at its end, as it stands at that point of the step.
    """

    def __init__(self, coeffs: SeriesCoefficients, step: float = 0.005):
        c = coeffs.coeffs
        if coeffs.q < 1.0 and coeffs.radius_estimate == np.inf:
            raise ValueError(
                f"a q < 1 series needs at least {_RADIUS_TAIL} nonzero coefficients to "
                f"place its break point; order {len(c) - 1} has {np.count_nonzero(c)}")
        self.coeffs = coeffs
        self.q = coeffs.q
        self.R = coeffs.remainder
        self.step = float(step)
        self.x_break = 0.8 * coeffs.radius_estimate
        self._sqrtq = np.sqrt(self.q)
        # term j of each table row's series: W sums c_j u^(2j+1), W' sums
        # (2j+1) c_j u^(2j); row 0 (x) is never summed
        self._terms = np.stack((0 * c, c, np.arange(1, 2 * len(c), 2) * c))
        # rows x, W, W' of the points built so far
        self._table = np.empty((3, 0))

    @property
    def w_infinity(self) -> float:
        """Saturation value sqrt(R / (1-q)) of the far field (q < 1)."""
        if self.q >= 1.0:
            return np.inf
        return float(np.sqrt(self.R / (1.0 - self.q)))

    def _series(self, u: np.ndarray, row):
        """The partial sums at u of W (row 1), W' (row 2) or both (rows 1:3)."""
        xp = np.array((u, u, np.ones_like(u))[row])  # the power of u in term 0
        terms = self._terms[row].T
        if xp.ndim > u.ndim:
            terms = terms[..., None]  # one coefficient per row; a scalar for one row
        x2 = u * u
        out = np.zeros_like(xp)
        for t in terms:
            out += t * xp
            xp = xp * x2
        return out

    def _at(self, u: np.ndarray, row):
        """W (row 1), W' (row 2) or both (rows 1:3) at u >= 0, from the table as it stands."""
        ser = u <= self.x_break
        if ser.all():
            return self._series(u, row)
        if self._table.shape[1] < len(_STENCIL):
            raise HorizonExceededError(
                f"interpolation needs a W table of {len(_STENCIL)} points; "
                f"at step {self.step} it holds {self._table.shape[1]}")
        rows = self._table[row]
        if not ser.any():
            return _lagrange(u / self.step, rows)
        out = np.empty(rows.shape[:-1] + u.shape)
        lead = (slice(None),) * (out.ndim - u.ndim)  # the row axis when both rows
        out[lead + (ser,)] = self._series(u[ser], row)
        out[lead + (~ser,)] = _lagrange(u[~ser] / self.step, rows)
        return out

    def ensure(self, x_max: float):
        """Extend the table so that |x| <= x_max is evaluable."""
        if self.q == 1.0:
            return  # W = c0 x globally, no table needed
        h = self.step
        if not self._table.size:
            # the series region, tabulated once
            xs = np.arange(int(self.x_break / h) + 1) * h
            self._table = np.vstack((xs, self._series(xs, slice(1, 3))))
        sq, R = self._sqrtq, self.R
        # divergence guard: W should stay below its saturation value
        cap = 10.0 * max(1.0, np.sqrt(abs(R) / (1.0 - self.q)))
        x, w = self._table[:2, -1].tolist()
        while x < x_max:
            n = self._table.shape[1]
            # the contracted argument must stay inside the built table
            if sq * (x + h) > x and x > 0:
                raise HorizonExceededError(
                    "step too large for the contracted argument near the series edge")
            # the plan: x + h + h + ... as one ordered sum (bitwise the repeated x + h),
            # cut where `go` first fails; `far` only sizes the sum, and a sum that falls
            # short just ends the block early, the next block resuming from its last x
            reach = max(self.x_break, (n - 3) * h)
            far = x_max if sq * x_max <= reach else reach / sq
            xb = np.cumsum(np.append(x, np.full(max(int((far - x) / h), 0) + 3, h)))
            u = sq * xb
            past = (u > self.x_break) & (u / h >= n - 3)  # the stencil at u ends past point n - 1
            go = (xb[1:-1] < x_max) & (u[2:] <= xb[1:-1]) & ~past[2:]
            clamped = past[1]
            steps = 1 if clamped else 1 + int(np.logical_and.accumulate(go).sum())
            xb = xb[:steps + 1]
            inner = self._at(np.concatenate((sq * xb, sq * (xb[:-1] + h / 2))), slice(1, 3))
            # float_power rounds like Python's scalar ** 2; numpy's ** can differ in the last bit
            a = self.q * np.float_power(inner[0], 2.0)
            b = self.q * inner[1]
            a0, ah = a[:steps + 1].tolist(), a[steps + 1:].tolist()
            b0, bh = b[:steps + 1].tolist(), b[steps + 1:].tolist()
            ws = []
            for ak, bk, am, bm, al, bl in zip(a0, b0, ah, bh, a0[1:], b0[1:]):
                k1 = -w * w + ak - bk + R
                v = w + h * k1 / 2
                k2 = -v * v + am - bm + R
                v = w + h * k2 / 2
                k3 = -v * v + am - bm + R
                v = w + h * k3
                k4 = -v * v + al - bl + R
                w = w + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
                ws.append(w)
            # the commit appends the steps before the first W that is not finite or above
            # the cap (NaN and inf fail |W| <= cap), and W' at their points
            m = int(np.logical_and.accumulate(np.abs(ws) <= cap).sum())
            wb = np.array(ws[:m])
            built = xb[1:m + 1], wb, -wb * wb + a[1:m + 1] - b[1:m + 1] + R
            self._table = np.concatenate((self._table, built), axis=1)
            if m < steps:
                raise HorizonExceededError(f"continuation diverged near x = {xb[m + 1]:.3f}")
            if clamped:
                # W' at the new point sees W with that point already appended
                a1 = self.q * np.float_power(self._at(sq * xb[1:], 1)[0], 2.0)
                self._table[2, -1] = -w * w + a1 - b0[1] + R
            x = float(xb[-1])

    def _read(self, x, row) -> np.ndarray:
        """W (row 1) or W' (row 2) at |x|, the table extended to reach it."""
        a = np.abs(x)
        self.ensure(float(np.max(a)) + 2 * self.step)
        return self._at(a, row)

    def w(self, x) -> np.ndarray:
        """W(x), vectorized; odd extension for negative arguments."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.q == 1.0:
            return self.coeffs.c0 * x
        return np.sign(x) * self._read(x, 1)

    def wp(self, x) -> np.ndarray:
        """W'(x), vectorized; even in x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.q == 1.0:
            return np.full_like(x, self.coeffs.c0)
        return self._read(x, 2)

    def defining_residual(self, x) -> np.ndarray:
        """|W^2 + W' - q W(sqrt(q)x)^2 + q W'(sqrt(q)x) - R| pointwise.

        W' here is recomputed by finite differences of the W table, so the
        residual is an independent check rather than a restatement of the
        stored ODE right-hand sides.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        eps = 1e-4
        wp_fd = (self.w(x - 2 * eps) - 8 * self.w(x - eps)
                 + 8 * self.w(x + eps) - self.w(x + 2 * eps)) / (12 * eps)
        u = self._sqrtq * x
        wpu_fd = (self.w(u - 2 * eps) - 8 * self.w(u - eps)
                  + 8 * self.w(u + eps) - self.w(u + 2 * eps)) / (12 * eps)
        res = (self.w(x) ** 2 + wp_fd
               - self.q * self.w(u) ** 2 + self.q * wpu_fd - self.R)
        return np.abs(res)

