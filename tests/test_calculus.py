import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_legendre

from ckn4 import calculus
from ckn4.calculus import (
    JacobiRule,
    _log_mu0,
    hessian_integral,
    rayleigh_quotient,
    star_integral,
    weighted_hessian_norm_sq,
    weighted_star_norm,
)
from ckn4.emden import to_sobolev
from ckn4.errors import NoClosedForm, NonIntegrable, QuadratureFailure, ZeroFunction
from ckn4.forms import ExpForm, PowerForm
from ckn4.params import best_constant_radial, normalization_constant, sphere_area, validate_params
from ckn4.profiles import (
    FormProfile,
    PolyGaussProfile,
    RadialProfile,
    ProfileKind,
    dilation_tangent,
    extremal_U,
    kernel_Z0,
)
from conftest import (PARAM_SETS, RadialGrid, grid_hessian_integral, inner_alpha,
                      random_trial_profiles, trial_rayleigh_quotient, weighted_H)


def _quad_norms(p):
    """omega int r^a (lap U)^2 r^{N-1} dr and omega int r^-a U^p* r^{N-1} dr by mpmath.quad.

    U = C (1 + r^g)^-beta, g = 2 - a, with its Laplacian worked by hand:
    lap U = -C beta g r^(g-2) (1+t)^(-beta-2) ((g+N-2)(1+t) - (beta+1) g t),
    t = r^g; independent of the term algebra and of the Beta sums.
    """
    N, a = p.N, mpmath.mpf(p.alpha)
    g = 2 - a
    beta = (N - 4 + a) / g
    C = mpmath.mpf(normalization_constant(p))
    pstar = 2 * (N - a) / (N - 4 + a)

    def lap(r):
        t = r ** g
        return (-C * beta * g * r ** (g - 2) * (1 + t) ** (-beta - 2)
                * ((g + N - 2) * (1 + t) - (beta + 1) * g * t))

    def U(r):
        return C * (1 + r ** g) ** (-beta)

    omega = mpmath.mpf(sphere_area(N))
    hess = mpmath.quad(lambda r: r ** a * lap(r) ** 2 * r ** (N - 1), [0, 1, mpmath.inf])
    star = mpmath.quad(lambda r: r ** -a * U(r) ** pstar * r ** (N - 1), [0, 1, mpmath.inf])
    return omega * hess, omega * star


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
    # independent oracle: both integrals by 40-digit adaptive quadrature
    # (measured at most 1.8e-15 and 3.0e-15 relative)
    with mpmath.workdps(40):
        hess, star = _quad_norms(p)
        assert abs(n2 / hess - 1) <= 5e-14
        assert abs(star_p / star - 1) <= 5e-14


def _mp_beta_sum(form, extra, power=1):
    """Term-wise 40-digit (c/g) w^-x B(x, y) of int r^extra form, or of |form|^power."""
    g, w = mpmath.mpf(form.gamma), mpmath.mpf(form.w)
    out = mpmath.mpf(0)
    for (a, b, m), c in form.terms.items():
        x = (power * (a * g - b) + extra + 1) / g
        y = -power * (form.e0 - m) - x
        coef = mpmath.mpf(c) if power == 1 else abs(mpmath.mpf(c)) ** power
        out += coef / g * w ** -x * mpmath.beta(x, y)
    return out


# next to M = 4 (M - 4 about 2e-3, 5e-4 and 2e-3) and at M = 22, 82 and 207;
# each bound is three to five times the larger error measured at the point
# (2.0e-13, 4.0e-13, 1.1e-13, 1.1e-14, 7.1e-15 and 1.5e-13)
@pytest.mark.parametrize("N,a,bound", [
    (3, 1.001, 1e-12), (6, -1.999, 2e-12), (12, -7.99, 5e-13),
    (3, 1.9, 5e-14), (10, 1.8, 3e-14), (5, 1.97068, 5e-13),
])
def test_beta_integrals_against_mpmath_beta(N, a, bound):
    p = validate_params(N, a)
    # lam = 3 puts w = 3^g != 1 into every term
    U = extremal_U(p, 3.0)
    hess = hessian_integral(p, p.N, p.alpha, U)
    star = star_integral(p, p.N, -p.alpha, U)
    lf = U.form.radial_laplacian(p.N)
    with mpmath.workdps(40):
        alpha = mpmath.mpf(p.alpha)
        want_hess = _mp_beta_sum(lf * lf, alpha + p.N - 1)
        want_star = _mp_beta_sum(U.form, -alpha + p.N - 1, mpmath.mpf(p.pstar))
        assert abs(hess / want_hess - 1) <= bound
        assert abs(star / want_star - 1) <= bound


def _mp_poly_gauss_hessian(coeffs, b, N, a):
    """40-digit int r^a (lap u)^2 r^{N-1} dr of u = P(r) e^{-b r^2}, by mpmath.quad.

    lap u = (P'' + (N-1) P'/r - 2b (N P + 2 r P') + 4 b^2 r^2 P) e^{-b r^2},
    worked by hand: independent of the term algebra and of the Gamma sums.
    """
    P = [mpmath.mpf(c) for c in coeffs]
    b, a = mpmath.mpf(b), mpmath.mpf(a)

    def lap(r):
        val = sum(c * r ** k for k, c in enumerate(P))
        d1 = sum(k * c * r ** (k - 1) for k, c in enumerate(P) if k)
        d2 = sum(k * (k - 1) * c * r ** (k - 2) for k, c in enumerate(P) if k > 1)
        return (d2 + (N - 1) * d1 / r - 2 * b * (N * val + 2 * r * d1)
                + 4 * b * b * r * r * val) * mpmath.exp(-b * r * r)

    return mpmath.quad(lambda r: r ** a * lap(r) ** 2 * r ** (N - 1), [0, 1, 3, mpmath.inf])


# near M = 4 and near alpha = 2 (q = 2 000) as well as inside the range
@pytest.mark.parametrize("N,a", [(5, 1.0), (7, -2.0), (12, -7.99), (3, 1.999), (6, 0.5)])
def test_gamma_integrals_against_mpmath(N, a):
    # polynomial-Gaussian trials: the Hessian integral on the r side and, by
    # the identity, q^3 times the s side's, each from its own form (at most
    # 4.4e-14 off, for the quartic trial, whose terms cancel by about 100);
    # and the star integral of a one-term trial, Gamma(x)/(2 (b p*)^x)
    p = validate_params(N, a)
    trials = [PolyGaussProfile(c, b) for c, b in
              (([1.0], 1.0), ([0.3, 0.0, -1.2, 0.0, 0.5], 0.7), ([0.5, 0.2, 1.0], 1.3))]
    with mpmath.workdps(40):
        for u in trials:
            coeffs = [u.form.terms.get((k // 2, -(k % 2)), 0.0) for k in range(5)]
            want = _mp_poly_gauss_hessian(coeffs, u.form.beta, N, p.alpha)
            lhs = hessian_integral(p, p.N, p.alpha, u)
            rhs = hessian_integral(p, p.M, 0.0, to_sobolev(p, u)) / p.q ** 3
            assert abs(lhs / want - 1) <= 2e-13 and abs(rhs / want - 1) <= 2e-13
        u = PolyGaussProfile([0.0, 0.0, 1.5], 0.7)
        x = (p.N - mpmath.mpf(p.alpha) + 2 * mpmath.mpf(p.pstar)) / 2
        want = mpmath.mpf(1.5) ** p.pstar * mpmath.gamma(x) / (2 * (0.7 * mpmath.mpf(p.pstar)) ** x)
        if want < 1e-300:       # at p* = 3998 (12, -7.99) it is e^-2 700: typed
            with pytest.raises(QuadratureFailure, match="outside the float range"):
                star_integral(p, p.N, -p.alpha, u)
        else:
            assert abs(star_integral(p, p.N, -p.alpha, u) / want - 1) <= 1e-13


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

    # a form of no terms: its exact integrals are 0
    with pytest.raises(ZeroFunction):
        rayleigh_quotient(p, FormProfile(ExpForm(2.0, 1.0)))
    # a zero-amplitude extremal keeps its c = 0 term; its exact integrals are 0
    with pytest.raises(ZeroFunction):
        rayleigh_quotient(p, extremal_U(p, 1.0, amplitude=0.0))
    # positive part: nonpositive functions carry no potential energy
    neg = extremal_U(p, 1.0, amplitude=-U.amplitude)
    assert weighted_H(p, lambda r: np.exp(-np.asarray(r)), neg) == 0.0


def test_ckn_inequality_on_random_trials(rng):
    for N, a in [(5, 1.0), (7, -2.0)]:
        p = validate_params(N, a)
        S = best_constant_radial(p)
        for trial in random_trial_profiles(10, seed=N):
            assert trial_rayleigh_quotient(p, trial) >= S - 1e-8


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

    def quad_inner(u, v):
        lap_u = u.form.radial_laplacian(p.N)
        lap_v = v.form.radial_laplacian(p.N)
        val, _ = quad(lambda r: r ** p.alpha * lap_u.eval(r) * lap_v.eval(r) * r ** (p.N - 1),
                      0.0, np.inf, limit=400)
        return sphere_area(p.N) * val

    # U is orthogonal to Z0: both sides are rounding noise, within the
    # default absolute tolerance of 1e-12 (the Beta sum reads -7.5e-14)
    assert inner_alpha(p, U, Z) == pytest.approx(quad_inner(U, Z), rel=1e-8)
    # Z0 and the dilation tangent are parallel: a value well away from 0
    T = dilation_tangent(p, 1.0)
    assert inner_alpha(p, Z, T) == pytest.approx(quad_inner(Z, T), rel=1e-8)


def test_cauchy_schwarz(rng):
    p = validate_params(6, -1)
    trials = random_trial_profiles(6, seed=3)
    for u, v in zip(trials[:3], trials[3:]):
        lhs = inner_alpha(p, u, v) ** 2
        rhs = weighted_hessian_norm_sq(p, u) * weighted_hessian_norm_sq(p, v)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_quadrature_convergence():
    # the exact Gamma sum of a polynomial-Gaussian's Hessian integral against
    # the log-Gauss grid sums, which converge to it
    p = validate_params(7, -2)
    u = PolyGaussProfile([1.0, 0.0, -0.4], 0.8)
    exact = hessian_integral(p, p.N, p.alpha, u)
    for n in (512, 1024):
        grid = grid_hessian_integral(p, p.N, p.alpha, u, RadialGrid.log_gauss(n=n))
        assert abs(grid - exact) < 1e-12 * abs(exact)


def test_star_integral_of_several_terms_is_refused():
    # |u|^p* of a sum of terms is no term of the algebra
    p = validate_params(5, 1)
    with pytest.raises(NoClosedForm, match="2 terms"):
        star_integral(p, p.N, -p.alpha, PolyGaussProfile([1.0, 0.0, -0.4], 0.8))
    with pytest.raises(NoClosedForm):
        star_integral(p, p.N, -p.alpha, kernel_Z0(p))


def test_nonintegrable_detection():
    p = validate_params(5, 1)
    # grows like r^{1/2} at infinity: the weighted Hessian integral diverges
    slow = RadialProfile(params=p, kind=ProfileKind.CUSTOM, lam=1.0, amplitude=1.0,
                         form=PowerForm.single(p.gamma_exp, 1.0, 0.5))
    with pytest.raises(NonIntegrable):
        weighted_hessian_norm_sq(p, slow)


def _legendre_rule(n):
    """The n-node Gauss-Legendre rule, the delta = 2 JacobiRule: ascending nodes and weights."""
    rule = JacobiRule.build(n, 2.0)
    return rule.t, np.exp(rule.log_chr)


def _mp_gauss_legendre(n, x0):
    """Nodes and weights of the n-point rule at 40 digits, by Newton from x0.

    The classical recurrence in x at 40 digits: independent of the
    Gegenbauer recurrence in 1 - |x| that JacobiRule.build runs in floats.
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
    x, w = _legendre_rule(n)
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
        x, w = _legendre_rule(n)
        xs, _ = roots_legendre(n)
        assert np.abs(x - xs).max() <= 4.4e-16, n
        assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]), n
        assert abs(w.sum() - 2.0) <= 1e-15, n


@pytest.mark.parametrize("delta, n", [(2.0, 2048), (1.0035, 1032), (100.0, 2000), (2.7, 168)])
def test_jacobi_rule_integrates_its_mass(delta, n):
    # a Gauss rule integrates constants exactly: each rule is divided by its
    # certified weight sum, so the sum of its Christoffel numbers is the
    # weight's mass to rounding (the undivided sums read 1.0e-14, 8.9e-14
    # and 5.3e-15 off it at the first three)
    rule = JacobiRule.build(n, delta)
    assert abs(np.exp(rule.log_chr).sum() / np.exp(_log_mu0(delta - 2.0)) - 1.0) <= 1e-15


def _traced_peak(n, delta):
    """Peak bytes under tracemalloc of JacobiRule.build(n, delta)."""
    tracemalloc.start()
    try:
        JacobiRule.build(n, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_rule_build_memory_is_bounded():
    # the Newton step forms its coefficients a block of degrees at a time and
    # holds no table over all n degrees, and dsterf takes the seeds from the
    # two diagonals: at 4 000 nodes the build peaks at 8.3 MiB under
    # tracemalloc.  Tables of h/off and t/off over the degrees took it to
    # 153 MiB, and the dense seed matrix, which eigvalsh still takes where
    # numpy links no dsterf, to 39 MiB
    limit = 16 if calculus._dsterf() is not None else 50
    assert _traced_peak(4000, 300.0) <= limit * 2 ** 20


def test_largest_star_rule_memory_is_bounded():
    # reduction.STAR_NODES_MAX's rule, 10 770 nodes at delta = 538.5 (N = 3,
    # M = 1 079): 22 MiB under tracemalloc, where its dense seed matrix took
    # it to 243 MiB
    if calculus._dsterf() is None:
        pytest.skip("numpy links no dsterf: the seeds take the dense matrix")
    assert _traced_peak(10_770, 538.5) <= 48 * 2 ** 20


SEED_DELTAS = [1 + 1e-7, 1.3, 3.0, 19.5, 538.5, 6e5]


@pytest.mark.parametrize("delta", SEED_DELTAS)
@pytest.mark.parametrize("n", [64, 65, 168, 169, 408, 2056])
def test_seeds_of_both_paths_give_the_same_rule(monkeypatch, n, delta):
    # dsterf on the two diagonals and eigvalsh on the dense matrix, which
    # numpy's dsyevd reduces to the same diagonals and hands to dsterf: the
    # rules agree bit for bit
    if calculus._dsterf() is None:
        pytest.skip("numpy links no dsterf: eigvalsh is the only path")
    lapack = JacobiRule.build(n, delta)
    monkeypatch.setattr(calculus, "_dsterf", lambda: None)
    dense = JacobiRule.build(n, delta)
    assert np.array_equal(lapack.t, dense.t) and np.array_equal(lapack.log_chr, dense.log_chr)


def test_stacked_seeds_of_both_paths_agree(monkeypatch):
    # the same in one stacked _half_rules call of five rules
    if calculus._dsterf() is None:
        pytest.skip("numpy links no dsterf: eigvalsh is the only path")
    lapack = calculus._half_rules(408, SEED_DELTAS[1:])
    monkeypatch.setattr(calculus, "_dsterf", lambda: None)
    h, log_chr, failed = calculus._half_rules(408, SEED_DELTAS[1:])
    assert failed == lapack[2] == [None] * 5
    assert np.array_equal(h, lapack[0]) and np.array_equal(log_chr, lapack[1])


NO_SEEDS = "the seeds' tridiagonal eigenvalues did not converge"


def test_dsterf_failure_refuses_its_rule(monkeypatch):
    # a nonzero info from dsterf refuses that rule by name, and only that
    # rule of a stack: the others keep their seeds and are built
    dsterf = calculus._dsterf()
    if dsterf is None:
        pytest.skip("numpy links no dsterf")
    calls = []

    def second_fails(n, d, e, info):
        calls.append(1)
        dsterf(n, d, e, info)
        if len(calls) == 2:
            info._obj.value = 1

    monkeypatch.setattr(calculus, "_dsterf", lambda: second_fails)
    h, _, failed = calculus._half_rules(168, [1.3, 3.5, 19.5])
    assert [f is None for f in failed] == [True, False, True]
    assert str(failed[1]) == f"Gauss-Jacobi rule with 168 nodes at delta=3.5: {NO_SEEDS}"
    assert np.isnan(h[1]).all() and not np.isnan(h[[0, 2]]).any()


def test_eigvalsh_failure_is_a_typed_failure(monkeypatch):
    # where numpy links no dsterf, eigvalsh's LinAlgError is the same typed
    # refusal, not an escaping LinAlgError
    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(calculus, "_dsterf", lambda: None)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(QuadratureFailure, match=rf"^Gauss-Jacobi rule with 168 nodes at "
                                                rf"delta=3\.5: {NO_SEEDS}$"):
        JacobiRule.build(168, 3.5)


def test_seeds_come_from_dsterf_where_numpy_links_openblas():
    # a fresh interpreter: where numpy's LAPACK is an ILP64 OpenBLAS, the
    # rules' seeds come from its dsterf and no rule calls np.linalg, so a
    # numpy whose OpenBLAS renames the routine cannot quietly bring back the
    # dense O(n^3) seeds
    script = textwrap.dedent("""
        import json
        import numpy as np
        from ckn4 import calculus
        try:
            lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        except (KeyError, TypeError, ValueError):
            lapack = {}
        openblas = ("openblas" in lapack.get("name", "").lower()
                    and "USE64BITINT" in lapack.get("openblas configuration", ""))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)
        np.linalg.eigvalsh = counted
        calculus.JacobiRule.build(168, 3.5)
        print(json.dumps([openblas, calculus._dsterf() is not None, len(calls)]))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    openblas, found, eigvalsh_calls = json.loads(proc.stdout)
    if not openblas:
        pytest.skip("numpy's LAPACK is not an ILP64 OpenBLAS")
    assert found and eigvalsh_calls == 0
