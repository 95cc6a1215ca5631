import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ckn4.errors import AlphaOutOfRange, DimensionTooSmall, MOutOfRange, NegativeMode
from ckn4.params import (
    best_constant_radial,
    best_constant_radial_report,
    even_alpha_info,
    fourth_order_sobolev_constant,
    mode_lambda,
    normalization_constant,
    sobolev_constant_C,
    sobolev_constant_C_forms,
    sphere_area,
    validate_params,
)
from conftest import params_at_M, random_valid_params

mpmath.mp.dps = 40


def mp_C(M):
    """High-precision Gamma evaluation of the sharp constant (test oracle)."""
    M = mpmath.mpf(M)
    poly = (M - 4) * (M - 2) * M * (M + 2)
    return poly * mpmath.power(mpmath.gamma(M / 2) ** 2 / (2 * mpmath.gamma(M)), 4 / M)


def mp_srad(N, alpha):
    N = mpmath.mpf(N)
    alpha = mpmath.mpf(alpha)
    q = 2 / (2 - alpha)
    M = 2 * (N - alpha) / (2 - alpha)
    pstar = 2 * (N - alpha) / (N - 4 + alpha)
    omega = 2 * mpmath.pi ** (N / 2) / mpmath.gamma(N / 2)
    return mpmath.power(q, -3 - (M - 4) / M) * mpmath.power(omega, 1 - 2 / pstar) * mp_C(M)


def test_validate_examples():
    p = validate_params(5, 1)
    assert (p.pstar, p.q, p.M) == (4.0, 2.0, 8.0)
    p = validate_params(6, 0)
    assert (p.pstar, p.q, p.M) == (6.0, 1.0, 6.0)
    with pytest.raises(AlphaOutOfRange):
        validate_params(3, 0)
    with pytest.raises(AlphaOutOfRange):
        validate_params(5, 2.0)
    with pytest.raises(DimensionTooSmall):
        validate_params(2, 0.5)


def test_exponent_identities(rng):
    for p in random_valid_params(rng, 20):
        M_alt = (p.N - 1) * p.q - (p.q - 1) + 1
        assert abs(p.M - M_alt) <= 1e-12 * abs(p.M)
        assert abs((p.pstar - 2) * (p.N - 4 + p.alpha) - (8 - 4 * p.alpha)) <= 1e-12
        assert p.M > 4 and p.pstar > 2 and p.q > 0


@pytest.mark.parametrize("M", [4.5, 5.0, 6.0, 8.0, 10.7])
def test_sharp_constant_forms_and_oracle(M):
    p = params_at_M(M)
    thm, proof = sobolev_constant_C_forms(p)
    assert abs(thm - proof) <= 1e-12 * abs(thm)
    oracle = float(mp_C(p.M))
    assert abs(thm - oracle) <= 1e-13 * oracle


def test_sharp_constant_values():
    # frozen from the high-precision Gamma oracle
    p8, p5 = validate_params(5, 1), validate_params(5, 0)
    assert (p8.M, p5.M) == (8.0, 5.0)
    assert sobolev_constant_C(p8) == pytest.approx(1920.0 * math.sqrt(1.0 / 280.0), rel=1e-14)
    assert sobolev_constant_C(p8) == pytest.approx(114.74194649610179, rel=1e-13)
    assert sobolev_constant_C(p5) == pytest.approx(7.481940131235264, rel=1e-13)
    # at the float next above 4 - N, M rounds to 4 itself
    p = validate_params(12, -8 + 2.0 ** -50)
    assert (p.M, p.M_minus_4) == (4.0, 0.0)
    with pytest.raises(MOutOfRange):
        sobolev_constant_C(p)


def test_best_constant_reduces_to_unweighted():
    for N in range(5, 13):
        p = validate_params(N, 0)
        S = best_constant_radial(p)
        classical = fourth_order_sobolev_constant(float(N))
        assert abs(S - classical) <= 1e-12 * classical


def test_best_constant_values_and_report():
    p = validate_params(5, 1)
    S = best_constant_radial(p)
    assert S == pytest.approx(52.029717401406516, rel=1e-13)
    assert S == pytest.approx(float(mp_srad(5, 1)), rel=1e-13)
    assert best_constant_radial(validate_params(5, 0)) == pytest.approx(
        102.38327344058294, rel=1e-13)
    rep = best_constant_radial_report(p)
    assert rep["value"] == S
    assert rep["erratum_rel_deviation"] > 0.1    # the printed prefactor is far off here
    rep4 = best_constant_radial_report(validate_params(4, 1.0))
    assert rep4["erratum_variant_value"] is None


def test_best_constant_positive(rng):
    for p in random_valid_params(rng, 10):
        assert best_constant_radial(p) > 0


def test_normalization_constant():
    assert normalization_constant(validate_params(5, 0)) == pytest.approx(
        105.0 ** 0.125, rel=1e-14)
    # direct evaluation of the product (2)(3)(4)(5) at (5, 1)
    assert normalization_constant(validate_params(5, 1)) == pytest.approx(
        math.sqrt(120.0), rel=1e-14)


def test_normalization_base_positive(rng):
    for p in random_valid_params(rng, 20):
        K = (p.N - 4 + p.alpha) * (p.N - 2) * (p.N - p.alpha) * (p.N + 2 - 2 * p.alpha)
        assert K > 0


def test_even_alpha_info():
    assert even_alpha_info(validate_params(5, 1)).kernel_dim == 1
    info = even_alpha_info(validate_params(5, 0))
    assert (info.k, info.multiplicity, info.kernel_dim) == (1, 5, 6)
    info = even_alpha_info(validate_params(7, -2))
    mult = 9 * math.factorial(6) // (math.factorial(5) * math.factorial(2))
    assert (info.k, info.multiplicity, info.kernel_dim) == (2, mult, 1 + mult)
    assert mult == 27
    # exact-decimal path
    info = even_alpha_info(validate_params(7, "-2.0"))
    assert info.is_even_case and info.k == 2
    assert not even_alpha_info(validate_params(7, "-2.0000001")).is_even_case
    # every input is exact: a float next to an even integer is not it, and
    # numpy numbers are read as the values they hold
    assert not even_alpha_info(validate_params(7, -2.0 + 1e-13)).is_even_case
    for alpha in (np.int32(-2), np.float32(-2.0), Fraction(-4, 2), Decimal("-2.000")):
        assert even_alpha_info(validate_params(7, alpha)).k == 2


@pytest.mark.parametrize("alpha, want", [
    (1, Fraction(1)), (np.int64(1), Fraction(1)), (0.1, Fraction(0.1)),
    (np.float64(0.1), Fraction(0.1)), (np.float32(0.1), Fraction(float(np.float32(0.1)))),
    (Decimal("0.1"), Fraction(1, 10)), ("0.1", Fraction(1, 10)), ("1e-1", Fraction(1, 10)),
    (Fraction(1, 3), Fraction(1, 3))])
def test_alpha_is_one_exact_rational(alpha, want):
    # alpha_exact is the value given, with plain int parts whatever the input
    # type; alpha is the float nearest it, and the differences are formed
    # from that float once, as the exponents are
    p = validate_params(5, alpha)
    assert p.alpha_exact == want and p.alpha == float(want)
    assert type(p.alpha_exact.numerator) is int and type(p.alpha_exact.denominator) is int
    a = p.alpha
    assert (p.decay_exp, p.gamma_exp) == (5 - 4.0 + a, 2.0 - a)
    assert (p.pstar, p.q, p.M) == (2.0 * (5 - a) / (5 - 4.0 + a), 2.0 / (2.0 - a),
                                   2.0 * (5 - a) / (2.0 - a))
    assert p.M_minus_4 == p.M - 4.0


@pytest.mark.parametrize("N", [float("nan"), float("inf"), -float("inf"), "x", None, 5.5, "5.5",
                               10 ** 400])
def test_malformed_dimension_is_typed(N):
    # 10^400 once ended in an OverflowError traceback where N meets a float
    with pytest.raises(DimensionTooSmall, match=r"^N must be an integer within the float range, got "):
        validate_params(N, 1)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), "-inf", "x", None, 1j, "1e400"])
def test_malformed_alpha_is_typed(alpha):
    with pytest.raises(AlphaOutOfRange, match=r"^need -1 < alpha < 2, got alpha="):
        validate_params(5, alpha)


@pytest.mark.parametrize("N", [65, 200, 10 ** 6, 10 ** 9])
def test_spherical_multiplicity_at_large_n(N):
    # the degree-k harmonics on S^{N-1}: homogeneous polynomials of degree k
    # less those of degree k-2, C(N+k-1, k) - C(N+k-3, k-2), for every k the
    # mode flags take; exact integers, with no cap on N
    for k in range(21):
        want = math.comb(N + k - 1, k) - (math.comb(N + k - 3, k - 2) if k >= 2 else 0)
        assert mode_lambda(k, N) == (float(k * (N - 2 + k)), want)


def test_mode_lambda():
    assert mode_lambda(0, 5) == (0.0, 1)
    assert mode_lambda(1, 5) == (4.0, 5)
    lam, mult = mode_lambda(2, 7)
    assert lam == 14.0
    assert mult == (7 + 2) * math.factorial(6) // (math.factorial(5) * math.factorial(2))
    with pytest.raises(NegativeMode):
        mode_lambda(-1, 5)


def test_kernel_condition_equivalence():
    # q^2 lambda_k = M-1 has a solution k >= 1 exactly at alpha = -2(k-1)
    N = 8
    for alpha in np.arange(-3.75, 2.0, 0.25):
        p = validate_params(N, float(alpha))
        hits = [k for k in range(1, 7)
                if abs(p.q ** 2 * mode_lambda(k, N)[0] - (p.M - 1)) < 1e-9]
        target = round(alpha)
        is_even = abs(alpha - target) < 1e-12 and target <= 0 and target % 2 == 0
        if is_even:
            assert hits == [1 + (-target) // 2]
        else:
            assert hits == []


def test_sphere_area_gamma_accuracy():
    for N in range(3, 30):
        want = float(2 * mpmath.pi ** (mpmath.mpf(N) / 2) / mpmath.gamma(mpmath.mpf(N) / 2))
        assert abs(sphere_area(N) - want) <= 1e-14 * want


def test_sphere_area_refused_below_normal_range():
    # the last N whose omega_{N-1} is a normal float, and the first two that are not
    want = 2 * mpmath.pi ** 219 / mpmath.gamma(219)
    assert abs(sphere_area(438) / want - 1) <= 1e-12
    for N in (439, 456):
        with pytest.raises(MOutOfRange, match=f"^sphere area at N={N} is "):
            sphere_area(N)


def test_no_overflow_near_alpha_two():
    # effective dimension ~ 200; everything must stay finite via log-Gamma
    p = validate_params(12, 1.9)
    assert np.isfinite(best_constant_radial(p))
    assert np.isfinite(sobolev_constant_C(p))
