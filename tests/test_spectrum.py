import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from scipy.special import eval_jacobi

import ckn4.calculus as calculus
import ckn4.spectrum as spectrum

from ckn4.calculus import JacobiRule
from ckn4.cli import MODE_RANGE
from ckn4.emden import sobolev_bubble
from ckn4.errors import (EigensolveFailure, GridTooCoarse, InconsistentKernel,
                         NegativeMode, QuadratureFailure)
from ckn4.forms import PowerForm
from ckn4.params import mode_lambda, normalization_constant, validate_params
from ckn4.profiles import extremal_U, kernel_Z0, kernel_Zk_radial
from ckn4.spectrum import (
    ModeBasis,
    assemble_mode_problem,
    exact_eigenvalues,
    mode_eigenvalues,
    verify_kernel,
)
from conftest import (PARAM_SETS, alignment, applied, composite_grid_pencil, families,
                      family_rows, gegenbauer_rule, jacobi_rows, kernel_residual, log_norms,
                      log_potential, random_valid_params, rule_in_s, s_frame, values_and_derivs,
                      wide_log_rule)


def test_constant_identity(rng):
    # q^4 (p*-1) C^{p*-2} = (M+4)(M-2)M(M+2)
    for p in random_valid_params(rng, 15):
        K = normalization_constant(p) ** (p.pstar - 2.0)
        lhs = p.q ** 4 * (p.pstar - 1.0) * K
        rhs = (p.M + 4) * (p.M - 2) * p.M * (p.M + 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_basis_boundary_behavior():
    p = validate_params(5, 1)
    b0 = ModeBasis(p.M, 0.0, 8)
    s_small = np.array([1e-8, 1e-7])
    psi, dpsi, _ = values_and_derivs(b0, s_small)
    # derivative vanishes linearly at the origin (flat), values stay O(1)
    assert np.all(np.abs(dpsi[:, 0]) < 1e-5 * np.max(np.abs(psi)))
    ratio = dpsi[1:, 1] / dpsi[1:, 0]
    assert np.allclose(ratio, 10.0, rtol=1e-4)
    nu1 = p.q ** 2 * (p.N - 1)
    b1 = ModeBasis(p.M, nu1, 8)
    assert b1.sigma0 > 0
    psi1, _, _ = values_and_derivs(b1, s_small)
    assert np.all(np.abs(psi1) < 1e-6)                            # vanishes at the origin


def test_operator_on_bubble_closed_form():
    # applying the composed second-order operator to the bubble returns
    # (M-4)(M-2)M(M+2)(1+s^2)^{-(M+4)/2}
    for N, a in PARAM_SETS:
        p = validate_params(N, a)
        M = p.M
        bubble = PowerForm.single(2.0, 1.0, -(M - 4.0) / 2.0)
        image = bubble.radial_laplacian(M).radial_laplacian(M)
        s = np.logspace(-2, 2, 60)
        want = (M - 4) * (M - 2) * M * (M + 2) * (1 + s ** 2) ** (-(M + 4) / 2.0)
        assert np.allclose(image.eval(s), want, rtol=1e-11)


def test_pencil_symmetry_and_weight_positivity():
    p = validate_params(5, 1)
    pr = assemble_mode_problem(p, 0, nodes=96)
    defect = np.max(np.abs(pr.A - pr.A.T)) / np.max(np.abs(pr.A))
    assert defect < 1e-8
    assert np.all(np.exp(spectrum._log_potential(p, pr.grid.one_minus_t)) > 0)
    with pytest.raises(GridTooCoarse):
        assemble_mode_problem(p, 0, nodes=32)


def test_mode0_eigenvalues_and_vectors(spectrum_51):
    p, res = spectrum_51
    mu = res.eigenvalues
    assert mu[0] == pytest.approx(1.0, abs=1e-10)
    assert mu[1] == pytest.approx(p.pstar - 1.0, rel=1e-10)
    assert mu[2] > mu[1] > mu[0]
    bub = sobolev_bubble(p)
    assert alignment(res, 0, bub.eval) > 0.999
    exact_tangent = lambda s: (1 - s ** 2) * (1 + s ** 2) ** (-(p.M - 2) / 2.0)
    assert alignment(res, 1, exact_tangent) > 0.999
    assert np.all(res.residual_norms[:3] < 1e-6)


def test_eigenvector_weighted_orthogonality(spectrum_51):
    p, res = spectrum_51
    pr = res.problem
    gram = res.coefficients.T @ pr.B @ res.coefficients
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-6


def test_lambda_independence(spectrum_51):
    # the pencil with the potential at weight scale 2 is not diagonal: its B_2,
    # assembled on the composite reference rule, is solved by a dense
    # generalized eigensolve, independent of the diagonal read.
    # Its reciprocal pencil (B_2, A) gives the smallest mu as its largest
    # eigenvalues, to rounding relative to them; eigh(A, B_2) carries an
    # absolute error of about eps * mu_max into them
    p, res = spectrum_51
    pr = res.problem
    _, B2 = composite_grid_pencil(pr, weight_lambda=2.0)
    mu2 = 1.0 / scipy.linalg.eigh(B2, pr.A, eigvals_only=True)[::-1][:5]
    assert np.max(np.abs(mu2 - res.eigenvalues)) < 1e-6


def test_refinement_convergence():
    p = validate_params(6, -1)
    mu_a = mode_eigenvalues(p, 0, n_eigs=3, nodes=96).eigenvalues
    mu_b = mode_eigenvalues(p, 0, n_eigs=3, nodes=192).eigenvalues
    assert np.max(np.abs(mu_a - mu_b)) < 1e-9


def test_even_case_mode1_at_alpha_zero():
    p = validate_params(5, 0)
    res = mode_eigenvalues(p, 1, n_eigs=5, nodes=128)
    target = p.pstar - 1.0          # p* = 10 here
    assert np.min(np.abs(res.eigenvalues - target)) / target < 1e-8
    i = int(np.argmin(np.abs(res.eigenvalues - target)))
    exact = lambda s: s * (1 + s ** 2) ** (-(p.N - 2) / 2.0)   # q = 1: s is the radius
    assert alignment(res, i, exact) > 0.999


def test_mode1_no_kernel_at_alpha_one():
    p = validate_params(5, 1)
    res = mode_eigenvalues(p, 1, n_eigs=6, nodes=128)
    target = p.pstar - 1.0
    assert np.min(np.abs(res.eigenvalues - target)) / target > 1e-3


@pytest.mark.parametrize("alpha,dim", [(-2.5, 1), (-2.0, 28), (-1.5, 1)])
def test_verify_kernel_n7(alpha, dim):
    p = validate_params(7, alpha)
    rep = verify_kernel(p, k_max=3, nodes=96)
    assert rep["kernel_dim"] == dim
    in_kernel = [m["k"] for m in rep["modes"] if m["in_kernel"]]
    assert in_kernel == ([0, 2] if alpha == -2.0 else [0])


def test_verify_kernel_alpha_zero():
    rep = verify_kernel(validate_params(5, 0), k_max=3, nodes=96)
    assert rep["kernel_dim"] == 6
    assert [m["k"] for m in rep["modes"] if m["in_kernel"]] == [0, 1]


def test_verify_kernel_non_even():
    rep = verify_kernel(validate_params(5, 1), k_max=3, nodes=96)
    assert rep["kernel_dim"] == 1
    assert [m["k"] for m in rep["modes"] if m["in_kernel"]] == [0]


def test_kernel_residuals_closed_forms():
    for N, a in PARAM_SETS:
        p = validate_params(N, a)
        assert kernel_residual(p, kernel_Z0(p), 0) < 1e-8
        assert kernel_residual(p, extremal_U(p), 0, mu=1.0) < 1e-8
    p = validate_params(7, -2)
    assert kernel_residual(p, kernel_Zk_radial(p, 2), 2) < 1e-8
    p = validate_params(5, 0)
    assert kernel_residual(p, kernel_Zk_radial(p, 1), 1) < 1e-8


def test_inconsistent_kernel_detected(monkeypatch):
    # an absurdly loose matching tolerance makes the numeric verdict disagree
    # with the algebraic condition, which must be flagged, not papered over
    from ckn4.errors import InconsistentKernel

    monkeypatch.setattr(spectrum, "KERNEL_TOL", 0.5)
    with pytest.raises(InconsistentKernel):
        verify_kernel(validate_params(7, -2.5), k_max=2, nodes=96)


def test_eigensolve_failure_on_overask():
    from ckn4.errors import EigensolveFailure

    p = validate_params(5, 1)
    with pytest.raises(EigensolveFailure):
        mode_eigenvalues(p, 0, n_eigs=500, nodes=96)


def test_high_mode_runs():
    p = validate_params(5, 0.5)
    res = mode_eigenvalues(p, 6, n_eigs=3, nodes=96)
    assert np.all(np.isfinite(res.eigenvalues))
    assert np.all(res.eigenvalues > 0)


@pytest.mark.parametrize("N,a", PARAM_SETS)
def test_radial_spectrum_product_pattern(N, a):
    # the computed radial eigenvalues follow the shifted-product pattern
    #   mu_j = (M+2j-4)(M+2j-2)(M+2j)(M+2j+2) / [(M-4)(M-2)M(M+2)]
    # (j = 0 is the extremal, j = 1 the dilation direction); kept as a
    # regression anchor for the whole discretization, including fractional M
    p = validate_params(N, a)
    M = p.M
    res = mode_eigenvalues(p, 0, n_eigs=5, nodes=160)
    P4 = (M - 4) * (M - 2) * M * (M + 2)
    pred = np.array([(M + 2 * j - 4) * (M + 2 * j - 2) * (M + 2 * j) * (M + 2 * j + 2) / P4
                     for j in range(5)])
    assert np.max(np.abs(res.eigenvalues / pred - 1.0)) < 1e-8


def test_extreme_effective_dimension():
    # alpha near 2 pushes the effective dimension past 200; the assembly and
    # solve must stay finite and still recover the two known eigenvalues
    p = validate_params(12, 1.9)
    res = mode_eigenvalues(p, 0, n_eigs=3, nodes=128)
    assert abs(res.eigenvalues[0] - 1.0) < 1e-6
    assert abs(res.eigenvalues[1] - (p.pstar - 1.0)) < 1e-6


def _extended_sums(delta, coeffs, t):
    """sum_j coeffs[j] p_j^{(i)}(t), i = 0, 1, by the forward recurrence in long double.

    The orthonormal Jacobi (d, d) recurrence and the derivative map
    d/dt p_n^{(a,a)} = sqrt(n(n+2a+1)) p_{n-1}^{(a+1,a+1)}, written out
    here and run in extended precision, with p_0 from the weight's mass
    2^{2a+1} B(a+1, a+1) by 40-digit mpmath: a near-exact reference for the
    double-precision sums.
    """
    LD = np.longdouble
    t, c, d = t.astype(LD), coeffs.astype(LD), LD(delta)
    out = []
    for i in range(2):
        if i:
            n = np.arange(1, c.size, dtype=LD)
            c = c[1:] * np.sqrt(n * (n + 2 * (d + i - 1) + 1))
        a = d + i
        k = np.arange(c.size + 1, dtype=LD)
        off = (2 / (2 * k + 2 * a) * (k + a) / np.sqrt(2 * k + 2 * a + 1)
               * np.sqrt(k * (k + 2 * a) / (2 * k + 2 * a - 1)))       # off[0] = 0
        with mpmath.workdps(40):
            a_mp = mpmath.mpf(delta) + i
            p0 = LD(float(mpmath.exp(-((2 * a_mp + 1) * mpmath.log(2)
                                       + mpmath.log(mpmath.beta(a_mp + 1, a_mp + 1))) / 2)))
        prev, cur = np.zeros(t.shape, LD), np.full(t.shape, p0)
        total = c[0] * cur
        for j in range(1, c.size):
            prev, cur = cur, (t * cur - off[j - 1] * prev) / off[j]
            total += c[j] * cur
        out.append(total.astype(float))
    return out


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("N, a", PARAM_SETS + [(5, -0.99), (12, 1.9)])
def test_series_block_matches_columns_and_legval(N, a, k):
    # column l of a coefficient block, summed at t(s[:, l]) by the basis's
    # (delta+i, delta+i) families for the i-th t derivative, i < 2, as even
    # and odd parts at |t| (_SymmetricJacobi.parts), against the same sums in extended precision
    # (_extended_sums); the nodes span the scales 1e-2..1e2, and (5, -0.99)
    # has M near 4 and (12, 1.9) has M above 200
    p = validate_params(N, a)
    lam_k, _ = mode_lambda(k, p.N)
    basis = ModeBasis(p.M, p.q ** 2 * lam_k, 96)
    nus = 10.0 ** (np.linspace(-2.0, 2.0, 5) / p.q)
    coeffs = np.random.default_rng(k).standard_normal((basis.m, nus.size))
    t = np.tanh(np.log(nus * wide_log_rule(basis.m, p.M, panel_pts=64)[1][::7, None]))
    for l in range(nus.size):
        c = coeffs[:, l]
        for order, want in enumerate(_extended_sums(basis.delta, c, t[:, l])):
            even, odd = families(basis)[order].parts(c, np.abs(t[:, l]))
            got = even + np.sign(t[:, l]) * odd
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            # d/dt p_n^{(a,a)} = sqrt(n(n+2a+1)) p_{n-1}^{(a+1,a+1)}
            n = np.arange(1, c.size)
            c = c[1:] * np.sqrt(n * (n + 2.0 * basis.delta + 1.0))


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("N, a", PARAM_SETS + [(3, "1.0001"), (3, "1.99"), (12, "-7.99")])
def test_rows_and_series_match_jacobi_reference(N, a, k):
    # the pencil's weighted rows on its own rule against conftest's
    # reference, whose polynomials are first checked against scipy's
    # eval_jacobi and the closed-form norms on the rule's nodes: rows of
    # T_k psi built from p and p' by the Gegenbauer equation against the
    # chain rule in s with p'' from eval_jacobi, from M near 4 to M = 202
    p = validate_params(N, a)
    pr = assemble_mode_problem(p, k, nodes=96)
    basis, rule = pr.basis, pr.grid
    t = rule.t
    j = np.arange(basis.m)[:, None]
    d = basis.delta
    for i in range(3):
        want = np.where(j >= i, eval_jacobi(np.maximum(j - i, 0), d + i, d + i, t)
                        * np.exp(log_norms(d, basis.m, i)), 0.0)
        got = jacobi_rows(basis, t, i)
        scale = np.max(np.abs(want[i:]), axis=1, keepdims=True)
        assert np.max(np.abs(got[i:] - want[i:]) / scale) <= 1e-12
    srule = rule_in_s(rule, d)
    log_w = srule.log_w + (p.M - 1.0) * srule.u
    log_pot = log_potential(p, srule.s)
    got = basis.weighted_rows(rule.one_minus_t, rule.one_plus_t,
                              s_frame(basis, srule.s)[1] + 0.5 * log_w, log_pot,
                              family_rows(basis, srule.s))
    psi, tpsi = applied(basis, srule.s)
    want = (psi * np.exp(0.5 * (log_w + log_pot)), tpsi * np.exp(0.5 * log_w))
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w) / np.max(np.abs(w), axis=1, keepdims=True)) <= 1e-12


def test_coupling_holds_one_temporary():
    # the certified diagonal read scales one |K| in place: under tracemalloc
    # it peaks at one m x m matrix (8.07 MiB at m = 1024, against 16.07 MiB
    # for |K| r_i r_j as two temporaries), and its value is that product's
    # bit for bit
    rng = np.random.default_rng(5)
    m = 1024
    d = 10.0 ** rng.uniform(-100.0, 100.0, m)
    K = 1e-12 * np.sqrt(np.outer(d, d)) * rng.standard_normal((m, m))
    np.fill_diagonal(K, d)
    r = 1.0 / np.sqrt(np.diag(K))
    C = np.abs(K) * r[:, None] * r[None, :]
    np.fill_diagonal(C, 0.0)
    want = float(C.max())
    del C
    tracemalloc.start()
    try:
        got = spectrum._coupling(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= 1.1 * K.nbytes


def test_off_diagonal_stiffness_is_typed(monkeypatch):
    # a stiffness matrix that is not diagonal must not be read as if it were
    gram = spectrum._gram_matrices

    def coupled(*args, **kwargs):
        A, B = gram(*args, **kwargs)
        A[3, 5] = A[5, 3] = 1e-6 * math.sqrt(A[3, 3] * A[5, 5])
        return A, B

    monkeypatch.setattr(spectrum, "_gram_matrices", coupled)
    with pytest.raises(EigensolveFailure, match=r"N=5, alpha=1\.0, mode 0, 104 nodes: "
                                                r"stiffness coupling 1\.000e-06 exceeds 1e-09"):
        mode_eigenvalues(validate_params(5, 1), 0, n_eigs=6, nodes=96)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_eigenvectors_are_scaled_unit_vectors(N, a, k):
    # eigenvector j is x_j e_j with x_j = B_jj^{-1/2} > 0, bit for bit: the
    # diagonal read fixes no other sign or scale
    res = mode_eigenvalues(validate_params(N, a), k, n_eigs=6, nodes=96)
    want = np.zeros_like(res.coefficients)
    for j in range(6):
        want[j, j] = 1.0 / np.sqrt(res.problem.B[j, j])
    assert np.array_equal(res.coefficients, want)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("N, a", PARAM_SETS + [(5, -0.99), (12, 1.9)])
def test_eigenvalues_match_closed_form(N, a, k):
    # (5, -0.99) has M near 4, where the s^{3-M} tail once escaped the
    # quadrature window and mu_1 came out 0.63 with no error raised
    p = validate_params(N, a)
    res = mode_eigenvalues(p, k, n_eigs=5, nodes=160)
    assert np.max(np.abs(res.eigenvalues / exact_eigenvalues(p, k, 5) - 1.0)) <= 1e-7


@pytest.mark.parametrize("delta, n", [(1.0035, 168), (1.0035, 408), (1 + 1e-9, 408), (2.7, 168),
                                      (100.0, 168), (1000.0, 408)])
def test_jacobi_rule_is_exact(delta, n):
    # the pencil's integrands, P(t) (1-t)^{delta-2} (1+t)^delta with deg P <=
    # 2n - 3, in s: for P = (1+t)^j the rule must integrate 2^{2d+j}
    # s^{2d+2j+1} (1+s^2)^{-2d-j} to 2^{2d+j-1} B(d+j+1, d-1), by 40-digit
    # mpmath.  delta = 1.0035 is mode 0 at M = 4.007, where scipy's
    # Gauss-Jacobi weights alone once missed these integrals by up to 5e-9
    # relative; at delta = 1000 scipy's roots_jacobi returns NaN nodes
    rule = rule_in_s(JacobiRule.build(n, delta), delta)
    for j in list(range(0, 2 * n - 2, 7)) + [2 * n - 3]:
        log_f = ((2 * delta + j) * math.log(2.0) + (2 * delta + 2 * j + 1) * rule.u
                 - (2 * delta + j) * np.logaddexp(0.0, 2.0 * rule.u))
        with mpmath.workdps(40):
            d = mpmath.mpf(delta)
            want = float((2 * d + j - 1) * mpmath.log(2)
                         + mpmath.log(mpmath.beta(d + j + 1, d - 1)))
        terms = rule.log_w + log_f
        top = float(terms.max())
        assert abs(top + math.log(float(np.exp(terms - top).sum())) - want) <= 1e-10


@pytest.mark.parametrize("delta", [1.0001, 1.0035, 1.5, 3.5, 40.0, 1000.0])
@pytest.mark.parametrize("n", [68, 69, 168, 408])
def test_jacobi_rule_matches_single_family_loop(n, delta):
    # the rule against the 40-digit Gauss-Gegenbauer rule of its family, run
    # alone on its plain recurrence in fixed point (conftest.gegenbauer_rule):
    # the nodes within 1e-13 relative in h = 1 - |t|, read off u = ln s as
    # 2/(1 + s^2), and the log-weights within 1e-13, or 1e-15 delta where
    # the terms delta ln h of a log-weight are hundreds (their rounding alone
    # reads 3.7e-13 at delta = 1000).  The nodes come in exact pairs +-t,
    # s and 1/s; delta = 1.5 is a = -1/2, where the recurrence's first
    # coefficients are taken in their cancelled forms, and n = 69 has its
    # middle node at t = 0
    h_ref, log_chr = gegenbauer_rule(n, delta)
    rule = JacobiRule.build(n, delta)
    srule = rule_in_s(rule, delta)
    neg = n // 2
    assert np.array_equal(rule.t[:neg], -rule.t[::-1][:neg])
    assert np.array_equal(srule.u[:neg], -srule.u[::-1][:neg])
    assert (n % 2 == 0) or (rule.t[neg] == 0.0 and srule.u[neg] == 0.0)
    with mpmath.workdps(40):
        d = mpmath.mpf(delta)
        h = [2 / (1 + mpmath.exp(2 * mpmath.mpf(float(u)))) for u in srule.u[neg:]]
        node_err = max(abs(x / y - 1) for x, y in zip(h, h_ref))
        # ds = s dt / (1-t^2) over the weight: ln W - (d - 1/2) ln h - (d - 3/2) ln(2 - h)
        # at t, and the same with h and 2 - h swapped at -t
        ln_h = [mpmath.log(x) for x in h_ref]
        ln_2h = [mpmath.log(2 - x) for x in h_ref]
        pos = [c - (d - 0.5) * x - (d - 1.5) * y for c, x, y in zip(log_chr, ln_h, ln_2h)]
        neg_side = [c - (d - 1.5) * x - (d - 0.5) * y for c, x, y in zip(log_chr, ln_h, ln_2h)]
        # in increasing |t|: the nodes -t < 0, then t >= 0
        got = np.concatenate((srule.log_w[:neg][::-1], srule.log_w[neg:]))
        want = neg_side[len(h_ref) - neg:] + pos
        weight_err = max(abs(mpmath.mpf(float(x)) - y) for x, y in zip(got, want))
    assert node_err <= 1e-13
    assert weight_err <= max(1e-13, 1e-15 * delta)


@pytest.mark.parametrize("a", [-1 + 1e-12, -0.9999, -0.5, 0.3, 3.7, 7.99, 8.0, 10.5, 40.1, 998.0,
                               1e4 + 0.3, 1e6])
def test_log_mu0_against_mpmath(a):
    # ln of the mass sqrt(pi) Gamma(a+1)/Gamma(a+3/2) of the weight (1-t^2)^a:
    # lgamma's difference below a = 8, the Stirling series of ln
    # Gamma(x+1/2)/Gamma(x) from there, against 40-digit mpmath
    with mpmath.workdps(40):
        x = mpmath.mpf(a)
        want = (mpmath.log(mpmath.pi) / 2 + mpmath.loggamma(x + 1)
                - mpmath.loggamma(x + mpmath.mpf(3) / 2))
    assert abs(calculus._log_mu0(a) - float(want)) <= 4e-15


BLOCK_DELTAS = [1 + 1e-9, 1.5, 100.0, 1000.0, 6e5]


def _by_block(monkeypatch, run):
    """run() with calculus.DEGREE_BLOCK at 1, 5 and its own length, in that order."""
    results = []
    for block in (1, 5, calculus.DEGREE_BLOCK):
        monkeypatch.setattr(calculus, "DEGREE_BLOCK", block)
        results.append(run())
    return results


@pytest.mark.parametrize("n", [65, 168, 169, 1031])
def test_rule_build_does_not_depend_on_degree_block(monkeypatch, n):
    # the Newton step forms its coefficients a block of degrees at a time; the
    # block's length changes no bit of the nodes or the log-Christoffel
    # values, of a rule alone or in the mixed stack, where the 6e5 rule's
    # terms are rescaled by 1e-100 on its own steps at 1031 nodes
    def run():
        return [calculus._half_rules(n, deltas)[:2]
                for deltas in [[d] for d in BLOCK_DELTAS] + [BLOCK_DELTAS]]

    first, *others = _by_block(monkeypatch, run)
    for other in others:
        for (h, log_chr), (h_b, log_chr_b) in zip(first, other):
            assert np.array_equal(h, h_b) and np.array_equal(log_chr, log_chr_b)


def test_basis_rows_do_not_depend_on_degree_block(monkeypatch):
    # the rows of a stacked (G, 2) pass, the (delta+i, delta+i) families at
    # their rules' nodes t >= 0 as _assemble_pass takes them, are those of
    # each family run alone, bit for bit, at every block length
    deltas = [1.0035, 3.5, 40.0, 1000.0]
    nodes, n = 160, 168
    rules, _ = calculus._jacobi_rules(deltas, n)
    t = np.reshape([rule.t[n // 2:] for rule in rules], (len(deltas), 1, n - n // 2))
    a = np.asarray(deltas)[:, None] + np.arange(2.0)
    off, _, log_mu0 = calculus._jacobi_recurrence(nodes, a)
    p0 = np.exp(-0.5 * log_mu0)

    def run():
        alone = np.array([[spectrum._jacobi_pass(t[g:g + 1], off[g:g + 1, f:f + 1],
                                                 p0[g:g + 1, f:f + 1], nodes)[0, 0]
                           for f in range(2)] for g in range(len(deltas))])
        return spectrum._jacobi_pass(t, off, p0, nodes), alone

    results = _by_block(monkeypatch, run)
    for stacked, alone in results:
        assert np.array_equal(stacked, alone, equal_nan=True)
        assert np.array_equal(stacked, results[0][0], equal_nan=True)


def test_jacobi_rule_certifies_its_weights(monkeypatch):
    # a rule whose Christoffel numbers do not sum to the weight's mass is
    # refused by name, and so is one whose Newton steps do not settle
    step = calculus._newton_step

    def heavy(*args):
        h, moved, log_chr = step(*args)
        return h, moved, log_chr + 1e-9

    monkeypatch.setattr(calculus, "_newton_step", heavy)
    with pytest.raises(QuadratureFailure, match=r"^Gauss-Jacobi rule with 168 nodes at delta=3\.5: "
                                                r"the weights sum to 1\.00000000(09|10)"):
        JacobiRule.build(168, 3.5)

    def restless(*args):
        h, moved, log_chr = step(*args)
        return h, h, log_chr

    monkeypatch.setattr(calculus, "_newton_step", restless)
    with pytest.raises(QuadratureFailure, match=r"delta=3\.5: Newton's steps from the seeds did "
                                                r"not settle in 8$"):
        JacobiRule.build(168, 3.5)


@pytest.mark.parametrize("N, a, k", [(5, 1.0, 0), (5, 1.0, 2), (7, -2.0, 3), (3, "1.99", 0),
                                     (3, "1.0001", 1)])
def test_row_scale_is_envelope_times_root_weight(N, a, k):
    # ln(E sqrt(w)) on a pencil's rule with its powers of 1-t and 1+t
    # cancelled (_log_row_scale), against its terms ln E + (ln W_s + (M-1)
    # u)/2 summed in long double, E = s^sigma0 ((1+s^2)/2)^{1-delta}, to the
    # rounding of the largest of them
    p = validate_params(N, a)
    basis = ModeBasis(p.M, p.q ** 2 * mode_lambda(k, N)[0], 160)
    rule = JacobiRule.build(168, basis.delta)
    srule = rule_in_s(rule, basis.delta)
    LD = np.longdouble
    u, d = srule.u.astype(LD), LD(basis.delta)
    terms = [LD(basis.sigma0) * u, (1 - d) * (np.log1p(np.exp(2 * u)) - np.log(LD(2))),
             srule.log_w.astype(LD) / 2, LD(p.M - 1) * u / 2]
    got = spectrum._log_row_scale(rule)
    assert np.max(np.abs(got - sum(terms))) <= 4e-16 * max(float(np.max(np.abs(x))) for x in terms)


def _recording(monkeypatch, name, module=spectrum):
    """Wrap module.<name> so that its calls' first arguments are recorded."""
    calls = []
    fn = getattr(module, name)

    def record(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return calls


@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_verify_kernel_matches_mode_eigenvalues(monkeypatch, N, a):
    # verify_kernel assembles all its modes in one pass: each mode's
    # eigenvalues and diagnostics are bit for bit those of its own assembly
    p = validate_params(N, a)
    problems = _recording(monkeypatch, "_read_spectrum")
    rep = verify_kernel(p, k_max=4, nodes=160)
    monkeypatch.undo()
    assert [pr.k for pr in problems] == list(range(5))
    for k, (pr, mode) in enumerate(zip(problems, rep["modes"])):
        alone = mode_eigenvalues(p, k, n_eigs=spectrum.KERNEL_EIGS, nodes=160)
        assert np.array_equal(spectrum._read_spectrum(pr, spectrum.KERNEL_EIGS).eigenvalues,
                              alone.eigenvalues)
        assert mode["diagnostics"] == alone.diagnostics
        assert np.array_equal(pr.A, alone.problem.A) and np.array_equal(pr.B, alone.problem.B)


def _fail_mode(monkeypatch, p, k, stage):
    """Make mode k's assembly raise QuadratureFailure: at its rule's nodes or at its rows."""
    delta = ModeBasis(p.M, p.q ** 2 * mode_lambda(k, p.N)[0], 160).delta
    if stage == "nodes":
        half_rules = calculus._half_rules

        def fail(n, deltas):
            h, log_chr, failed = half_rules(n, deltas)
            failed = [QuadratureFailure(f"mode {k}'s nodes") if d == delta else f
                      for d, f in zip(deltas, failed)]
            return h, log_chr, failed

        monkeypatch.setattr(calculus, "_half_rules", fail)
    else:
        rows = ModeBasis.weighted_rows

        def fail(basis, *args):
            if basis.delta == delta:
                raise QuadratureFailure(f"mode {k}'s rows")
            return rows(basis, *args)

        monkeypatch.setattr(ModeBasis, "weighted_rows", fail)


@pytest.mark.parametrize("stage", ["nodes", "rows"])
def test_kernel_first_error_in_mode_order(monkeypatch, stage):
    # at (8, -3.9999), next to the even weight -4, mode 3's discrete spectrum
    # holds p*-1 within the fixed matching tolerance (a known false verdict):
    # the first error, in mode order, as with one assembly per mode.  A
    # failing assembly of mode 5, in the same pass, must not pre-empt it
    p = validate_params(8, "-3.9999")
    _fail_mode(monkeypatch, p, 5, stage)
    solved = _recording(monkeypatch, "_read_spectrum")
    with pytest.raises(InconsistentKernel,
                       match=r"^mode 3: analytic=False numeric=True \(rel dist 3\.47e-05\)$"):
        verify_kernel(p, k_max=6, nodes=160)
    assert [pr.k for pr in solved] == [0, 1, 2, 3]


@pytest.mark.parametrize("stage", ["nodes", "rows"])
def test_kernel_assembly_failure_raised_in_its_turn(monkeypatch, stage):
    # a mode whose assembly fails raises after the earlier modes are solved
    p = validate_params(5, 1)
    _fail_mode(monkeypatch, p, 2, stage)
    solved = _recording(monkeypatch, "_read_spectrum")
    with pytest.raises(QuadratureFailure, match=f"^mode 2's {stage}$"):
        verify_kernel(p, k_max=4, nodes=160)
    assert [pr.k for pr in solved] == [0, 1]


def test_mode_error_before_any_assembly():
    # a mode that fails before its rule is built raises its own error, also
    # when its pass assembles no mode at all
    with pytest.raises(NegativeMode, match="got -1"):
        mode_eigenvalues(validate_params(5, 1), -1, n_eigs=6, nodes=160)


def test_pass_grouping_cap(monkeypatch):
    # one pass stacks no more rows than one mode's at the largest node count:
    # every mode of the default 160 nodes fits one pass, one mode at 2048
    lo, hi = spectrum.NODES_RANGE
    for m in range(lo, hi + 1):
        assert spectrum._modes_per_pass(m) * 2 * m * (m + 8) <= spectrum.PASS_ROWS
    assert spectrum._modes_per_pass(hi) == 1
    assert spectrum._modes_per_pass(160) >= MODE_RANGE[1] + 1
    # under a cap of two modes at 64 nodes, five modes take three passes, each
    # over two families per mode (p and p'), and give the pencils of one
    # assembly per mode
    p = validate_params(6, -1)
    monkeypatch.setattr(spectrum, "PASS_ROWS", 2 * 2 * 64 * 72)
    rules = _recording(monkeypatch, "_half_rules", calculus)
    passes, run_pass = [], spectrum._jacobi_pass

    def record(t, off, *args, **kwargs):
        passes.append((t.shape, off.shape[:2]))
        return run_pass(t, off, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_jacobi_pass", record)
    problems = list(spectrum.assemble_mode_problems(p, range(5), 64))
    assert rules == [72, 72, 72]
    assert passes == [((2, 1, 36), (2, 2)), ((2, 1, 36), (2, 2)), ((1, 1, 36), (1, 2))]
    monkeypatch.undo()
    for k, pr in enumerate(problems):
        alone = assemble_mode_problem(p, k, nodes=64)
        assert np.array_equal(pr.A, alone.A) and np.array_equal(pr.B, alone.B)


def test_jacobi_rule_refuses_node_at_end(monkeypatch):
    # a node that ends at t = 1, where s is infinite, is refused by name: a
    # typed failure, not a log1p(-1) warning.  Newton's steps are made to
    # leave the node nearest t = 1 there, as seeds that round to it no
    # longer are refused (test_jacobi_rule_builds_near_m4)
    step = calculus._newton_step

    def to_end(*args):
        h, moved, log_chr = step(*args)
        h[:, -1] = 0.0
        return h, moved, log_chr

    monkeypatch.setattr(calculus, "_newton_step", to_end)
    with pytest.raises(QuadratureFailure, match=r"68 nodes at delta=1: a node is not strictly "
                                                r"inside \(-1, 1\)"):
        JacobiRule.build(68, 1 + 2 ** -52)


@pytest.mark.parametrize("n", [72, 168, 1032, 2056])
@pytest.mark.parametrize("delta", [1 + 2e-15, 1 + 2 ** -52, 1 + 1e-15])
def test_jacobi_rule_builds_near_m4(delta, n):
    # delta within a few ulps of 1 (M within 1e-14 of 4): the seed of the
    # node nearest t = 1 rounds to h <= 0, and Newton starts from H_FLOOR
    # instead; the rule must still settle, stay inside and pass the mass
    # certificate, or build raises
    rule = JacobiRule.build(n, delta)
    assert rule.n == n
    assert (rule.one_minus_t > 0.0).all() and (rule.one_plus_t > 0.0).all()
    srule = rule_in_s(rule, delta)
    assert np.isfinite(srule.log_w).all() and np.isfinite(srule.s).all()
    assert 0.0 < rule.one_minus_t[-1] < 1e-18


@pytest.mark.parametrize("delta", [1.0035, 7.5, 120.0])
def test_series_sum_stops_at_last_nonzero(delta):
    # trailing zero coefficients change no bit of the even and odd parts:
    # e_j padded to m and a random head padded to m, against the same heads
    # cut to j + 1 terms; both still sum term j, at t and at -t, against the
    # basis rows
    fam = spectrum._SymmetricJacobi(96, delta)
    t = np.concatenate([np.linspace(0.0, 1.0, 101), [1e-300, 1 - 1e-12]])
    head = np.random.default_rng(0).standard_normal(96)
    for j in (0, 1, 2, 5, 40, 95):
        for c in (np.eye(96)[j] * 0.7, np.where(np.arange(96) <= j, head, 0.0)):
            got = fam.parts(c, t)
            for part, cut in zip(got, fam.parts(c[:j + 1], t)):
                assert np.array_equal(part, cut)
            rows = fam.rows(t, j + 1)
            for sign in (1.0, -1.0):
                want = c[:j + 1] @ (rows * sign ** np.arange(j + 1)[:, None])
                assert np.max(np.abs(got[0] + sign * got[1] - want)) <= 1e-12 * np.max(np.abs(want))
    for part in fam.parts(np.zeros(96), t):
        assert np.array_equal(part, np.zeros(t.size))


def _max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("m", [160, 400])
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_pencil_matches_composite_grid(N, a, k, m):
    pr = assemble_mode_problem(validate_params(N, a), k, nodes=m)
    assert pr.grid.n == m + 8
    A, B = composite_grid_pencil(pr)
    assert _max_rel(pr.A, A) <= 1e-9
    assert _max_rel(pr.B, B) <= 1e-9
