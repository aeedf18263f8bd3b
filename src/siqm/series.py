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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import _lagrange


class HorizonExceededError(RuntimeError):
    """Outward continuation left the built table or diverged."""


@dataclass(frozen=True)
class SeriesCoefficients:
    """Odd-series coefficients c_j of W (c_j multiplies x^(2j+1))."""

    q: float
    c0: float
    coeffs: np.ndarray = field(repr=False)
    # ratio-test radius; +inf when fewer than 6 coefficients are nonzero,
    # for a polynomial (q = 1) and for a series too short to estimate
    radius_estimate: float = 0.0

    @property
    def remainder(self) -> float:
        """The constant R = (1+q) c_0 the series solves for."""
        return (1.0 + self.q) * self.c0


def series_coefficients(q: float, c0: float, K: int) -> SeriesCoefficients:
    """Solve the power-matching recursion for c_0 ... c_K.

    q = 0 is admitted (one-soliton limit, tanh series) even though the
    scaling parameter map itself requires q > 0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    c = np.zeros(K + 1)
    c[0] = c0
    for k in range(K):
        conv = float(np.dot(c[:k + 1], c[k::-1]))
        c[k + 1] = -(1.0 - q ** (k + 2)) / ((2 * k + 3) * (1.0 + q ** (k + 2))) * conv
    sc = SeriesCoefficients(q=q, c0=c0, coeffs=c)
    return replace(sc, radius_estimate=_ratio_radius(ratio_sequence(sc)))


def ratio_sequence(coeffs: SeriesCoefficients) -> np.ndarray:
    """The sequence sqrt(|c_k / c_{k+1}|) over nonzero coefficients."""
    c = coeffs.coeffs
    nz = np.flatnonzero(np.abs(c) > 0)
    return np.sqrt(np.abs(c[nz[:-1]] / c[nz[1:]]))


def _ratio_radius(ratios: np.ndarray, tail: int = 6) -> float:
    """Ratio-test radius in x: the median of the last `tail` ratios.

    +inf when fewer than tail coefficients are nonzero. That is a
    polynomial series (q = 1), but also a series truncated too early to
    estimate, such as the q = 0 tanh series at K = 4, whose radius is pi/2.
    """
    if len(ratios) < tail - 1:
        return np.inf
    return float(np.median(ratios[-tail:]))


class SelfSimilarW:
    """Evaluator for W: direct series inside 0.8*radius, pantograph ODE outside.

    Builds a uniform table of (x, W, W') on demand, marching outward with a
    classical 4th-order Runge-Kutta step. Inner values needed at the
    contracted arguments sqrt(q) x and sqrt(q) (x + h/2) come from the
    series where it converges and from 6-point Lagrange interpolation of
    the table beyond. W is odd, so only x >= 0 is tabulated.

    The march runs in blocks. A block starts at the current table length L
    and takes every following step whose interpolation stencils lie inside
    those L points, so the delayed terms q W(u)^2 and q W'(u) of all its
    stages are evaluated at once; only the Riccati update W' = -W^2 + ...
    runs step by step. A step whose stencil would reach past the table is
    a block of its own and reads the table clamped at its end, as it stands
    at that point of the step.
    """

    def __init__(self, coeffs: SeriesCoefficients, step: float = 0.005):
        self.coeffs = coeffs
        self.q = coeffs.q
        self.R = coeffs.remainder
        self.step = float(step)
        self.x_break = 0.8 * coeffs.radius_estimate
        self._sqrtq = np.sqrt(self.q)
        # divergence guard: W should stay below its saturation value
        if self.q < 1.0:
            self._w_cap = 10.0 * max(1.0, np.sqrt(abs(self.R) / (1.0 - self.q)))
        else:
            self._w_cap = np.inf
        # rows x, W, W' of a preallocated table; the first _n columns are built
        self._table = np.empty((3, 0))
        self._xs, self._W, self._Wp = self._table
        self._n = 0

    @property
    def w_infinity(self) -> float:
        """Saturation value sqrt(R / (1-q)) of the far field (q < 1)."""
        if self.q >= 1.0:
            return np.inf
        return float(np.sqrt(self.R / (1.0 - self.q)))

    def _series_w(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        xp = x.copy()
        x2 = x * x
        for cj in self.coeffs.coeffs:
            out += cj * xp
            xp = xp * x2
        return out

    def _series_wp(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        xp = np.ones_like(x)
        x2 = x * x
        for j, cj in enumerate(self.coeffs.coeffs):
            out += (2 * j + 1) * cj * xp
            xp = xp * x2
        return out

    def _delayed(self, u: np.ndarray, n: int):
        """q W(u)^2 and q W'(u) for the table as it stands at n points."""
        inner = np.empty((2, len(u)))
        ser = u <= self.x_break
        if ser.any():
            inner[0, ser] = self._series_w(u[ser])
            inner[1, ser] = self._series_wp(u[ser])
        if not ser.all():
            inner[:, ~ser] = _lagrange(u[~ser] / self.step, n, self._table[1:])
        # float_power rounds like Python's scalar ** 2; numpy's ** can differ in the last bit
        return self.q * np.float_power(inner[0], 2.0), self.q * inner[1]

    def _reserve(self, size: int):
        if size > self._table.shape[1]:
            table = np.empty((3, max(size, 2 * self._table.shape[1])))
            table[:, :self._n] = self._table[:, :self._n]
            self._table = table
            self._xs, self._W, self._Wp = table

    def ensure(self, x_max: float):
        """Extend the table so that |x| <= x_max is evaluable."""
        if self.q == 1.0:
            return  # W = c0 x globally, no table needed
        h = self.step
        series_end = min(self.x_break, x_max + 4 * h)
        n = self._n
        if n == 0 or (self._xs[n - 1] < self.x_break and self._xs[n - 1] < series_end - h):
            # table still entirely inside the series region: (re)fill it
            n = int(series_end / h) + 1
            xs = np.arange(n) * h
            self._n = 0
            self._reserve(n)
            self._table[:, :n] = xs, self._series_w(xs), self._series_wp(xs)
            self._n = n
        sq, R, cap = self._sqrtq, self.R, self._w_cap

        def past_table(u):
            # a stencil at u would reach past the n points built so far
            return u > self.x_break and int(u / h) > n - 4

        x = float(self._xs[n - 1])
        w = float(self._W[n - 1])
        while x < x_max:
            # the contracted argument must stay inside the built table
            if sq * (x + h) > x and x > 0:
                raise HorizonExceededError(
                    "step too large for the contracted argument near the series edge")
            # the block: steps whose stencils all end inside the first n points;
            # a first step that reads past them runs alone, on the clamped table
            xs = [x, x + h]
            clamped = past_table(sq * xs[1])
            while not clamped and xs[-1] < x_max:
                u = sq * (xs[-1] + h)
                if u > xs[-1] or past_table(u):
                    break
                xs.append(xs[-1] + h)
            steps = len(xs) - 1
            xb = np.array(xs)
            a, b = self._delayed(np.concatenate((sq * xb, sq * (xb[:-1] + h / 2))), n)
            a0, ah = a[:steps + 1].tolist(), a[steps + 1:].tolist()
            b0, bh = b[:steps + 1].tolist(), b[steps + 1:].tolist()
            self._reserve(n + steps)
            new_w, new_wp = [], []
            try:
                for s in range(steps):
                    k1 = -w * w + a0[s] - b0[s] + R
                    v = w + h * k1 / 2
                    k2 = -v * v + ah[s] - bh[s] + R
                    v = w + h * k2 / 2
                    k3 = -v * v + ah[s] - bh[s] + R
                    v = w + h * k3
                    k4 = -v * v + a0[s + 1] - b0[s + 1] + R
                    w = w + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
                    x = xs[s + 1]
                    if not math.isfinite(w) or abs(w) > cap:
                        raise HorizonExceededError(f"continuation diverged near x = {x:.3f}")
                    new_w.append(w)
                    new_wp.append(-w * w + a0[s + 1] - b0[s + 1] + R)
            finally:
                m = len(new_w)
                self._table[:, n:n + m] = xs[1:m + 1], new_w, new_wp
                self._n = n = n + m
            if clamped:
                # W' at the new point sees W with that point already appended
                u = sq * xb[1:]
                if u[0] > self.x_break:
                    a1 = self.q * np.float_power(_lagrange(u / h, n, self._W)[0], 2.0)
                    self._Wp[n - 1] = -w * w + a1 - b0[1] + R

    def w(self, x) -> np.ndarray:
        """W(x), vectorized; odd extension for negative arguments."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.q == 1.0:
            return self.coeffs.c0 * x
        a = np.abs(x)
        self.ensure(float(np.max(a)) + 2 * self.step)
        out = np.empty_like(a)
        ser = a <= self.x_break
        out[ser] = self._series_w(a[ser])
        out[~ser] = _lagrange(a[~ser] / self.step, self._n, self._W)
        return np.sign(x) * out

    def wp(self, x) -> np.ndarray:
        """W'(x), vectorized; even in x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.q == 1.0:
            return np.full_like(x, self.coeffs.c0)
        a = np.abs(x)
        self.ensure(float(np.max(a)) + 2 * self.step)
        out = np.empty_like(a)
        ser = a <= self.x_break
        out[ser] = self._series_wp(a[ser])
        out[~ser] = _lagrange(a[~ser] / self.step, self._n, self._Wp)
        return out

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

