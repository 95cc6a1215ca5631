"""Validated problem parameters and closed-form constants.

The weighted inequality lives in dimension N >= 3 with weight exponent
alpha in (4-N, 2).  Everything else is algebra on top of that pair, formed
once by validate_params, with N-4+alpha, 2-alpha and M-4, as Params fields:

    p* = 2(N-alpha)/(N-4+alpha)      critical exponent
    q  = 2/(2-alpha)                 radial substitution exponent, r = s^q
    M  = 2(N-alpha)/(2-alpha)        effective dimension after substitution

Gamma functions are evaluated as logarithms through ``math.lgamma`` (every
argument is a scalar) so the constants stay finite for the large effective
dimensions that occur when alpha is close to 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .errors import (
    AlphaOutOfRange,
    DimensionTooSmall,
    MOutOfRange,
    NegativeMode,
    NotEvenCase,
)

__all__ = [
    "Params",
    "EvenAlphaInfo",
    "validate_params",
    "sobolev_constant_C",
    "sobolev_constant_C_forms",
    "fourth_order_sobolev_constant",
    "best_constant_radial",
    "best_constant_radial_report",
    "normalization_constant",
    "source_constant",
    "even_alpha_info",
    "mode_lambda",
    "spherical_multiplicity",
    "sphere_area",
    "paneitz_product",
]

_K_GUARD = 20

# The tolerances and ranges the command line reads when it starts, kept here
# so that it loads neither spectrum nor reduction to read them.
# --nodes, the trial functions of a mode pencil: the smallest the assembly
# takes, and the largest the command line takes.  At 2048, perturb --N 5
# --alpha 1 takes 0.59 s and 204 MB, spectrum 0.42 s and 203 MB, on the one
# BLAS thread of cli._one_blas_thread (first call in a fresh process, 2-vCPU
# Intel Xeon VM); two threads took 0.47 and 0.36 s there for 1.4 times the
# CPU, and at 1024 no less wall time (0.13 and 0.08 s)
NODES_RANGE = (64, 2048)
# a mode holds the eigenvalue p*-1 when one of its KERNEL_EIGS smallest
# eigenvalues is within KERNEL_TOL of it, relative (spectrum.verify_kernel)
KERNEL_TOL = 1e-3
# observed contraction factor at which the fixed point is refused: the
# perturbation is too large for it (ContractionFailure, reduction)
REFUSE_FACTOR = 0.9


@dataclass(frozen=True)
class Params:
    """Validated (N, alpha) pair with the exponents and differences built on it.

    alpha_exact is alpha exactly as given, whatever its type; alpha is the
    float nearest it, and every later field is formed from that float.
    """

    N: int
    alpha: float
    alpha_exact: Fraction
    pstar: float
    q: float
    M: float
    decay_exp: float       # N - 4 + alpha, governing the extremal's decay
    gamma_exp: float       # 2 - alpha, the power of r in every profile
    M_minus_4: float       # M - 4, the effective dimension's distance from 4


@dataclass(frozen=True)
class EvenAlphaInfo:
    """Kernel bookkeeping at alpha = -2(k-1)."""

    is_even_case: bool
    k: int | None
    multiplicity: int | None
    kernel_dim: int


def _rational(x) -> Fraction | None:
    """x exactly, or None where it is no real number within the float range.

    A str is read as the decimal it spells; a numpy longdouble is rounded to a float.
    """
    try:
        try:
            r = Fraction(Decimal(x) if isinstance(x, str) else x)
        except TypeError:  # numpy floats other than float64, which Fraction does not take
            r = Fraction(float(x))
        float(r)
    except (ArithmeticError, TypeError, ValueError):
        return None
    # plain ints: a numpy integer would stay one inside the Fraction, and wrap
    return r if type(r.numerator) is int else Fraction(int(r.numerator), int(r.denominator))


def validate_params(N, alpha) -> Params:
    """Validate (N, alpha) and form alpha, the derived exponents and the differences.

    Raises DimensionTooSmall for an N that is below 3 or no integer within the
    float range, and AlphaOutOfRange for an alpha that is no number within
    the float range or lies outside the open interval (4-N, 2).
    """
    n = _rational(N)
    if n is None or n.denominator != 1:
        raise DimensionTooSmall(f"N must be an integer within the float range, got {N!r}")
    N = int(n)
    if N < 3:
        raise DimensionTooSmall(f"need N >= 3, got N={N}")
    alpha_exact = _rational(alpha)
    if alpha_exact is None:
        raise AlphaOutOfRange(f"need {4 - N} < alpha < 2, got alpha={alpha}")
    a = float(alpha_exact)
    if a <= 4 - N or a >= 2:
        raise AlphaOutOfRange(f"need {4 - N} < alpha < 2, got alpha={a}")
    decay_exp = N - 4.0 + a
    gamma_exp = 2.0 - a
    M = 2.0 * (N - a) / gamma_exp
    return Params(N=N, alpha=a, alpha_exact=alpha_exact, pstar=2.0 * (N - a) / decay_exp,
                  q=2.0 / gamma_exp, M=M, decay_exp=decay_exp, gamma_exp=gamma_exp,
                  M_minus_4=M - 4.0)


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N; MOutOfRange where subnormal (N >= 439)."""
    value = float(np.exp(math.log(2.0) + 0.5 * N * math.log(math.pi) - math.lgamma(0.5 * N)))
    if not value >= np.finfo(float).tiny:
        raise MOutOfRange(f"sphere area at N={N} is {value!r}, below the normal float range")
    return value


def paneitz_product(M, M_minus_4):
    """(M-4)(M-2)M(M+2), the Paneitz constant in dimension M, given M and M - 4."""
    return M_minus_4 * (M - 2.0) * M * (M + 2.0)


def sobolev_constant_C_forms(p: Params) -> tuple[float, float]:
    """Both printed forms of the sharp one-dimensional constant C(M) at p's M.

    They are algebraically identical; returning both supports the
    consistency check.
    """
    M = p.M
    if p.M_minus_4 <= 0:
        raise MOutOfRange(f"need M > 4, got M={M}")
    poly = paneitz_product(M, p.M_minus_4)
    main = float(poly * np.exp((4.0 / M) * (2.0 * math.lgamma(0.5 * M) - math.log(2.0)
                                            - math.lgamma(M))))
    # pi^2 * poly * (Gamma(M/2)/Gamma(M))^{4/M} * (2 pi^{M/2}/Gamma(M/2))^{-4/M}
    log_alt = (
        2.0 * math.log(math.pi)
        + math.log(poly)
        + (4.0 / M) * (math.lgamma(0.5 * M) - math.lgamma(M))
        - (4.0 / M) * (math.log(2.0) + 0.5 * M * math.log(math.pi) - math.lgamma(0.5 * M))
    )
    return main, float(np.exp(log_alt))


def sobolev_constant_C(p: Params) -> float:
    """Sharp constant C(M) = (M-4)(M-2)M(M+2) [Gamma(M/2)^2 / (2 Gamma(M))]^{4/M} at p's M."""
    return sobolev_constant_C_forms(p)[0]


def fourth_order_sobolev_constant(M: float) -> float:
    """Sharp constant of the unweighted fourth-order Sobolev inequality in R^M."""
    if M <= 4:
        raise MOutOfRange(f"need M > 4, got M={M}")
    poly = paneitz_product(M, M - 4.0)
    return float(math.pi ** 2 * poly * np.exp((4.0 / M) * (math.lgamma(0.5 * M) - math.lgamma(M))))


def best_constant_radial(p: Params) -> float:
    """Sharp radial constant S^rad(N, alpha).

    Evaluated as q^{-3-(M-4)/M} * omega_{N-1}^{1-2/p*} * C(M), the form the
    substitution argument produces.  ``best_constant_radial_report`` also
    evaluates a circulating near-miss variant whose prefactor exponent has
    denominator N-4 instead of N-alpha; that variant is reported for
    comparison, never used.
    """
    pref = p.q ** (-(3.0 + p.M_minus_4 / p.M))
    return pref * sphere_area(p.N) ** (1.0 - 2.0 / p.pstar) * sobolev_constant_C(p)


def best_constant_radial_report(p: Params) -> dict:
    """Best constant plus the erratum variant with the (N-4) denominator.

    The two agree only where the prefactor is 1 (alpha = 0).  The variant is
    reported, never used; it is undefined at N = 4.
    """
    value = best_constant_radial(p)
    if p.N == 4:
        printed = None
        deviation = None
    else:
        pref = (p.gamma_exp / 2.0) ** ((4.0 * p.N - 4.0 - 2.0 * p.alpha) / (p.N - 4.0))
        printed = pref * sphere_area(p.N) ** (2.0 * p.gamma_exp / (p.N - p.alpha)) * sobolev_constant_C(p)
        deviation = abs(printed - value) / value
    return {
        "value": value,
        "erratum_variant_value": printed,
        "erratum_rel_deviation": deviation,
    }


def source_constant(p: Params) -> float:
    """K = C^{p*-2} = (N-4+a)(N-2)(N-a)(N+2-2a): moderate where C is not."""
    return p.decay_exp * (p.N - 2.0) * (p.N - p.alpha) * (p.N + 2.0 - 2.0 * p.alpha)


def normalization_constant(p: Params) -> float:
    """Amplitude making the extremal profile an exact solution of the equation."""
    try:
        return source_constant(p) ** (p.decay_exp / (4.0 * p.gamma_exp))
    except OverflowError:
        raise MOutOfRange(
            f"normalization constant at N={p.N}, alpha={p.alpha} (M={p.M:.6g}) "
            f"overflows the float range") from None


def spherical_multiplicity(k: int, N: int) -> int:
    """Dimension of the degree-k spherical-harmonic eigenspace on S^{N-1}."""
    if k < 0:
        raise NegativeMode(f"need k >= 0, got {k}")
    if k > _K_GUARD:
        raise ValueError(f"degree k={k} exceeds {_K_GUARD}, the largest mode the program takes")
    if k == 0:
        return 1
    # (N+2k-2) (N+k-3)! / ((N-2)! k!), in O(k) work however large N is
    return (N + 2 * k - 2) * math.comb(N + k - 3, k - 1) // k


def mode_lambda(k: int, N: int) -> tuple[float, int]:
    """Eigenvalue k(N-2+k) of -Delta on S^{N-1} and its multiplicity."""
    if N < 3:
        raise DimensionTooSmall(f"need N >= 3, got N={N}")
    if k < 0:
        raise NegativeMode(f"need k >= 0, got {k}")
    return float(k * (N - 2 + k)), spherical_multiplicity(k, N)


def even_alpha_info(p: Params) -> EvenAlphaInfo:
    """Detect alpha = -2(k-1) and report the kernel dimension.

    The detection is exact, on p.alpha_exact: a float alpha near an even
    integer but not equal to it is not the even case.
    """
    a = p.alpha_exact
    if a.denominator != 1 or a > 0 or a.numerator % 2:
        return EvenAlphaInfo(is_even_case=False, k=None, multiplicity=None, kernel_dim=1)
    # alpha = -2(k-1)  <=>  k = 1 - alpha/2
    k = 1 - a.numerator // 2
    mult = spherical_multiplicity(k, p.N)
    return EvenAlphaInfo(is_even_case=True, k=k, multiplicity=mult, kernel_dim=1 + mult)


def require_even_case(p: Params, k: int) -> None:
    """Assert alpha = -2(k-1) for the requested k, else NotEvenCase."""
    if even_alpha_info(p).k != k:
        raise NotEvenCase(f"alpha={p.alpha} is not -2(k-1) for k={k}")
