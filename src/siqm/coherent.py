"""Coherent states of shape-invariant potentials.

The lowering-operator eigenstate |z> = sum_n h_n |n> is generated by
repeated application of the right inverse of the lowering operator to the
ground state. Carried out with the parameter-shifted construction this
gives

    h_n = z^n / sqrt( E_n (E_n - E_{n-1}) ... (E_n - E_1) ),

and for the scaling spectrum E_n = R1 (1 - q^n)/(1 - q) the product
telescopes into the closed form

    h_n = z^n (1-q)^{n/2} q^{-n(n-1)/4} / ( R1^{n/2} sqrt((q; q)_n) )

with the q-shifted factorial (q; q)_n = prod_{j=0}^{n-1} (1 - q q^j). The
module computes both; `siqm coherent` compares them, computing N_n once from
its level table, and holds the tolerance and the verdict. For q < 1 the factor
q^{-n(n-1)/4} grows super-geometrically, so |z> is treated as a formal
truncated object: properties are verified termwise on restricted components
and partial norms are reported rather than asserted.

The eigenvalue and derivative conditions are checked against the lowering
action whose matrix elements are the normalization-factor ratios
N_n / N_{n-1} (sqrt(q^(n-1) E_n) for scaling chains); this is the action of
the lowering operator on chain-built states, where the parameter map also
rescales the expansion coefficients. It is not the sqrt(E_n) B- of
ladder_matrices and evolve_forced; the two agree only at q = 1. The best fit
of an evolved state, ForcedEvolution.best_fit_coherent, uses sqrt(E_n) B- alone.
"""

import numpy as np

from .families import worst_residual


def coherent_recursive(norms: np.ndarray, z: complex) -> np.ndarray:
    """The complex coefficients h_n = z^n / N_n, n = 0 .. N-1, with h_0 = 1,
    from the N normalization products N_0 .. N_{N-1} (SpectrumTable.norms).

    Coefficients or a norm ||h|| outside the floats are refused, naming z and N.
    """
    try:
        coeff = np.array([z ** n / N_n for n, N_n in enumerate(norms.tolist())], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # refused right below
            finite = np.isfinite(np.linalg.norm(coeff))  # inf or NaN in any h_n too
    except OverflowError:  # complex z ** n
        finite = False
    if not finite:
        raise ValueError(f"norm of the coherent coefficients overflows for z = {z} "
                         f"at {len(norms)} levels")
    return coeff


def coherent_closed_scaling(q: float, R1: float, z: complex, N: int) -> np.ndarray:
    """Closed-form coefficients h_0 .. h_{N-1} for the scaling spectrum
    E_n = R1 (1 - q^n)/(1 - q); it computes the formula and checks nothing.
    A q-Pochhammer (q; q)_n that underflows to 0 is refused."""
    if N < 1:
        raise ValueError("need N >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError(f"closed form needs 0 < q < 1, got {q}")
    if R1 <= 0:
        raise ValueError(f"need R1 > 0, got {R1}")
    n = np.arange(N)
    poch = np.cumprod([1.0] + [1.0 - q * q ** j for j in range(N - 1)])  # (q; q)_n
    if not poch[-1] > 0:  # near q = 1 each factor is about j (1 - q)
        raise ValueError(f"the closed form's (q; q)_{int(np.argmin(poch))} at q = {q} "
                         f"underflows the floats")
    mag = (1 - q) ** (n / 2) * q ** (-n * (n - 1) / 4.0) / (R1 ** (n / 2) * np.sqrt(poch))
    return np.asarray(z, dtype=complex) ** n * mag


def _z_derivative(norms: np.ndarray, z: complex) -> np.ndarray:
    """h'_n = n z^(n-1) / N_n, the exact z-derivative of h_n = z^n / N_n (h'_0 = 0)."""
    n = np.arange(1, len(norms))
    return np.concatenate(([0j], n * z ** (n - 1) / norms[1:]))


def coherent_property_residuals(norms: np.ndarray, z: complex,
                                h: np.ndarray) -> tuple[float, float]:
    """(eigen_residual, derivative_residual) of the coefficients h of |z> on 0 .. N-2.

    eigen: ||(B_minus - z)|z>|| with the chain-weighted lowering, relative
    to the restricted norm of |z>. derivative: the same combination applied
    to the exact z-derivative h'_n = n z^(n-1) / N_n of |z>, minus |z>
    itself. Both restate h_n = z^n / N_n with `norms` = N_0 .. N_{N-1}, so
    they check h against z and the products, not the products themselves.
    A state needs N >= 2 coefficients: with one, the restricted window is
    empty and there is no property to check. A
    residual that is not finite is refused, and so is every residual when
    the restricted norm of the given h overflows.
    """
    N = len(h)
    if N < 2:
        raise ValueError(f"coherent-state residuals need at least 2 levels, got {N}")
    if len(norms) != N:
        raise ValueError(f"need {N} normalization products, got {len(norms)}")
    z = complex(z)
    beta = norms[1:] / norms[:-1]   # N_n / N_{n-1}, n = 1 .. N-1
    with np.errstate(all="ignore"):  # a residual that is not finite is refused
        scale = np.linalg.norm(h[:N - 1])
        scale = scale if np.isfinite(scale) else np.nan  # x / inf would read 0
        lowered = beta * h[1:]          # component n-1 of B_minus |z>
        eigen = worst_residual("coherent_eigen", np.linalg.norm(lowered - z * h[:N - 1]) / scale)

        hp = _z_derivative(norms, z)
        deriv_combo = beta * hp[1:] - z * hp[:N - 1] - h[:N - 1]
        derivative = worst_residual("coherent_derivative", np.linalg.norm(deriv_combo) / scale)
    return eigen, derivative
