import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from ckn4.calculus import (
    RadialGrid,
    energy_J,
    gauss_legendre,
    inner_alpha,
    rayleigh_quotient,
    weighted_H,
    weighted_hessian_norm_sq,
    weighted_star_norm,
)
from ckn4.errors import NonIntegrable, ZeroFunction
from ckn4.forms import PowerForm
from ckn4.params import best_constant_radial, sphere_area, validate_params
from ckn4.profiles import (
    PolyGaussProfile,
    RadialProfile,
    ProfileKind,
    dilation_tangent,
    extremal_U,
    kernel_Z0,
    random_trial_profiles,
)
from conftest import PARAM_SETS


@pytest.mark.parametrize("N,a", PARAM_SETS)
def test_extremal_norm_identities(N, a):
    p = validate_params(N, a)
    S = best_constant_radial(p)
    target = S ** (p.pstar / (p.pstar - 2.0))
    U = extremal_U(p)
    n2 = weighted_hessian_norm_sq(p, U)
    star_p = weighted_star_norm(p, U) ** p.pstar
    assert n2 == pytest.approx(target, rel=1e-8)
    assert star_p == pytest.approx(target, rel=1e-8)
    # independent oracle: exact Beta-function integral of the term algebra
    lf = U.form.radial_laplacian(p.N)
    exact = sphere_area(p.N) * (lf * lf).integral(extra=p.alpha + p.N - 1.0)
    assert n2 == pytest.approx(exact, rel=1e-12)


def test_norm_homogeneity_and_dilation_invariance():
    p = validate_params(5, 0.5)
    U = extremal_U(p)
    n2 = weighted_hessian_norm_sq(p, U)
    u3 = extremal_U(p, 1.0, amplitude=3.0 * U.amplitude)
    assert weighted_hessian_norm_sq(p, u3) == pytest.approx(9.0 * n2, rel=1e-12)
    for lam in (0.25, 4.0):
        assert weighted_hessian_norm_sq(p, extremal_U(p, lam)) == pytest.approx(n2, rel=1e-10)
        assert weighted_star_norm(p, extremal_U(p, lam)) == pytest.approx(
            weighted_star_norm(p, U), rel=1e-10)
    assert weighted_star_norm(p, u3) == pytest.approx(
        3.0 * weighted_star_norm(p, U), rel=1e-12)


def test_rayleigh_quotient_properties():
    p = validate_params(5, 1)
    S = best_constant_radial(p)
    U = extremal_U(p)
    assert rayleigh_quotient(p, U) == pytest.approx(S, rel=1e-8)
    gauss = PolyGaussProfile([1.0], 1.0)
    assert rayleigh_quotient(p, gauss) > S
    assert rayleigh_quotient(p, extremal_U(p, 1.0, amplitude=2.5 * U.amplitude)) == pytest.approx(
        rayleigh_quotient(p, U), rel=1e-12)
    assert rayleigh_quotient(p, extremal_U(p, 3.0)) == pytest.approx(S, rel=1e-8)

    class Zero:
        def eval(self, r):
            return np.zeros_like(np.asarray(r))

        def deriv(self, r, order=1):
            return np.zeros_like(np.asarray(r))

    with pytest.raises(ZeroFunction):
        rayleigh_quotient(p, Zero())


def test_ckn_inequality_on_random_trials(rng):
    for N, a in [(5, 1.0), (7, -2.0)]:
        p = validate_params(N, a)
        S = best_constant_radial(p)
        for trial in random_trial_profiles(10, seed=N):
            assert rayleigh_quotient(p, trial) >= S - 1e-8


def test_inner_alpha():
    p = validate_params(5, 1)
    U = extremal_U(p)
    assert inner_alpha(p, U, U) == pytest.approx(weighted_hessian_norm_sq(p, U), rel=1e-13)
    for lam in (0.5, 1.0, 2.0):
        Ul = extremal_U(p, lam)
        dUl = dilation_tangent(p, lam)
        n2 = weighted_hessian_norm_sq(p, Ul)
        assert abs(inner_alpha(p, Ul, dUl)) < 1e-8 * n2


def test_inner_alpha_against_adaptive_quadrature():
    p = validate_params(5, 1)
    U = extremal_U(p)
    Z = kernel_Z0(p)
    lapU = U.form.radial_laplacian(p.N)
    lapZ = Z.form.radial_laplacian(p.N)

    def integrand(r):
        return r ** p.alpha * lapU.eval(r) * lapZ.eval(r) * r ** (p.N - 1)

    val, err = quad(integrand, 0.0, np.inf, limit=400)
    want = sphere_area(p.N) * val
    assert inner_alpha(p, U, Z) == pytest.approx(want, rel=1e-8)


def test_cauchy_schwarz(rng):
    p = validate_params(6, -1)
    trials = random_trial_profiles(6, seed=3)
    for u, v in zip(trials[:3], trials[3:]):
        lhs = inner_alpha(p, u, v) ** 2
        rhs = weighted_hessian_norm_sq(p, u) * weighted_hessian_norm_sq(p, v)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_quadrature_convergence():
    p = validate_params(7, -2)
    U = extremal_U(p)
    base = weighted_hessian_norm_sq(p, U, RadialGrid.log_gauss(n=512))
    fine = weighted_hessian_norm_sq(p, U, RadialGrid.log_gauss(n=1024))
    assert abs(base - fine) < 1e-10 * abs(fine)


def test_energy_functional():
    p = validate_params(5, 1)
    S = best_constant_radial(p)
    U = extremal_U(p)
    target = (0.5 - 1.0 / p.pstar) * S ** (p.pstar / (p.pstar - 2.0))
    assert energy_J(p, 0.0, None, U) == pytest.approx(target, rel=1e-10)

    def h(r):
        return np.exp(-np.asarray(r))

    # h == 0 gives the unperturbed energy regardless of eps
    assert energy_J(p, 0.7, lambda r: np.zeros_like(np.asarray(r)), U) == pytest.approx(
        energy_J(p, 0.0, None, U), rel=1e-14)
    assert energy_J(p, 0.3, h, U) == pytest.approx(
        energy_J(p, 0.0, None, U) - 0.3 * weighted_H(p, h, U), rel=1e-12)
    # positive part: nonpositive functions carry no potential energy
    neg = extremal_U(p, 1.0, amplitude=-U.amplitude)
    assert weighted_H(p, h, neg) == 0.0


def test_nonintegrable_detection():
    p = validate_params(5, 1)
    # grows like r^{1/2} at infinity: the weighted Hessian integral diverges
    slow = RadialProfile(params=p, kind=ProfileKind.CUSTOM, lam=1.0, amplitude=1.0,
                         form=PowerForm.single(p.gamma_exp, 1.0, 0.5))
    with pytest.raises(NonIntegrable):
        weighted_hessian_norm_sq(p, slow)


def _mp_gauss_legendre(n, x0):
    """Nodes and weights of the n-point rule at 40 digits, by Newton from x0.

    The classical recurrence in x at 40 digits: independent of the recurrence
    in 1 - x that gauss_legendre runs in floats.
    """
    out = []
    with mpmath.workdps(40):
        for start in x0:
            x = mpmath.mpf(float(start))
            for _ in range(3):
                p0, p1 = mpmath.mpf(1), x
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                dp = n * (p0 - x * p1) / (1 - x * x)
                x -= p1 / dp
            out.append((x, 2 / ((1 - x * x) * dp * dp)))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 31, 64, 65, 512])
def test_gauss_legendre_against_mpmath(n):
    x, w = gauss_legendre(n)
    # every node up to 65; at 512 the 16 next to the end, where a weight is
    # most sensitive to its node, and the 4 next to the middle
    idx = np.arange(n) if n <= 65 else np.r_[n - 16:n, n // 2 - 2:n // 2 + 2]
    ref = _mp_gauss_legendre(n, x[idx])
    node_err = max(abs(float(xr - mpmath.mpf(float(x[i])))) for i, (xr, _) in zip(idx, ref))
    weight_err = max(abs(float(mpmath.mpf(float(w[i])) / wr - 1)) for i, (_, wr) in zip(idx, ref))
    assert node_err <= 4.4e-16
    assert weight_err <= 2e-13


def test_gauss_legendre_nodes_and_weight_sum():
    for n in [*range(1, 70), 127, 128, 255, 256, 511, 512, 1000, 2048]:
        x, w = gauss_legendre(n)
        xs, _ = roots_legendre(n)
        assert np.abs(x - xs).max() <= 4.4e-16, n
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]), n
        assert abs(w.sum() - 2.0) <= 1e-15, n


def test_gauss_legendre_is_shared_and_read_only():
    x, w = gauss_legendre(64)
    again = gauss_legendre(64)
    assert again[0] is x and again[1] is w
    for a in (x, w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
