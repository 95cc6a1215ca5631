import math

import numpy as np
import pytest
from numpy.polynomial.legendre import legder, legval
from scipy.special import betaln, logsumexp

from ckn4.emden import sobolev_bubble
from ckn4.errors import GridTooCoarse
from ckn4.forms import PowerForm
from ckn4.params import mode_lambda, normalization_constant, validate_params
from ckn4.profiles import extremal_U, kernel_Z0, kernel_Zk_radial
from ckn4.spectrum import (
    JacobiRule,
    ModeBasis,
    SobolevModeFunction,
    assemble_mode_problem,
    exact_eigenvalues,
    kernel_residual,
    mode_eigenvalues,
    mu3_estimate,
    verify_kernel,
)
from conftest import PARAM_SETS, random_valid_params, values_and_derivs, wide_log_rule


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
    psi1 = b1.values(s_small)
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
    assert np.all(pr.potential(pr.grid.s) > 0)
    with pytest.raises(GridTooCoarse):
        assemble_mode_problem(p, 0, nodes=32)


def test_mode0_eigenvalues_and_vectors(spectrum_51):
    p, res = spectrum_51
    mu = res.eigenvalues
    assert mu[0] == pytest.approx(1.0, abs=1e-10)
    assert mu[1] == pytest.approx(p.pstar - 1.0, rel=1e-10)
    assert mu[2] > mu[1] > mu[0]
    bub = sobolev_bubble(p)
    assert res.alignment(0, bub.eval) > 0.999
    exact_tangent = lambda s: (1 - s ** 2) * (1 + s ** 2) ** (-(p.M - 2) / 2.0)
    assert res.alignment(1, exact_tangent) > 0.999
    assert np.all(res.residual_norms[:3] < 1e-6)


def test_eigenvector_weighted_orthogonality(spectrum_51):
    p, res = spectrum_51
    pr = res.problem
    gram = res.coefficients.T @ pr.B @ res.coefficients
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-6


def test_lambda_independence(spectrum_51):
    p, res = spectrum_51
    res2 = mode_eigenvalues(p, 0, n_eigs=5, weight_lambda=2.0, problem=res.problem)
    assert np.max(np.abs(res2.eigenvalues - res.eigenvalues)) < 1e-6


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
    assert res.alignment(i, exact) > 0.999


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


def test_mu3_estimate():
    p = validate_params(5, 1)
    rep = mu3_estimate(p, nodes=160)
    assert rep["mu3"] > p.pstar - 1.0 + 0.1
    assert rep["margin_over_mu2"] > 0.1
    assert rep["mu1"] < rep["mu2"] < rep["mu3"]
    assert rep["err_bar"] < 1e-6


def test_inconsistent_kernel_detected():
    # an absurdly loose matching tolerance makes the numeric verdict disagree
    # with the algebraic condition, which must be flagged, not papered over
    from ckn4.errors import InconsistentKernel

    with pytest.raises(InconsistentKernel):
        verify_kernel(validate_params(7, -2.5), k_max=2, tol=0.5, nodes=96)


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


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("N, a", PARAM_SETS + [(5, -0.99), (12, 1.9)])
def test_series_matches_basis_matrices(N, a, k):
    # Clenshaw-summed combination against coeffs @ (m, n) basis matrices, at
    # the scales nu s of lam = 1e-2, 1 and 1e2; (5, -0.99) has M near 4 and
    # (12, 1.9) has M above 200
    p = validate_params(N, a)
    lam_k, _ = mode_lambda(k, p.N)
    basis = ModeBasis(p.M, p.q ** 2 * lam_k, 96)
    coeffs = np.random.default_rng(k).standard_normal(basis.m)
    fn = SobolevModeFunction(basis, coeffs)
    s = wide_log_rule(basis.m, p.M, panel_pts=64)[1][::7]
    for nu in (10.0 ** (-2.0 / p.q), 1.0, 10.0 ** (2.0 / p.q)):
        x = nu * s
        want = [coeffs @ mat for mat in values_and_derivs(basis, x)]
        got = [fn.eval(x), fn.deriv(x, 1), fn.deriv(x, 2)]
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w))


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("N, a", PARAM_SETS + [(5, -0.99), (12, 1.9)])
def test_series_block_matches_columns_and_legval(N, a, k):
    # L series, column l of a coefficient block at the nodes s[:, l], one
    # call per column, against numpy's legval/legder on the same frame fields
    p = validate_params(N, a)
    lam_k, _ = mode_lambda(k, p.N)
    basis = ModeBasis(p.M, p.q ** 2 * lam_k, 96)
    nus = 10.0 ** (np.linspace(-2.0, 2.0, 5) / p.q)
    coeffs = np.random.default_rng(k).standard_normal((basis.m, nus.size))
    x = nus * wide_log_rule(basis.m, p.M, panel_pts=64)[1][::7, None]
    E = np.exp(basis._log_envelope(x))
    t, a_, ap, tp, tpp = basis._frame_coeffs(x)
    dc = legder(coeffs)
    P, dP, d2P = (legval(t, c, tensor=False) for c in (coeffs, dc, legder(dc)))
    want = [E * P, E * (a_ * P + tp * dP),
            E * ((a_ * a_ + ap) * P + (2.0 * a_ * tp + tpp) * dP + tp * tp * d2P)]
    for order in (0, 1, 2):
        cols = np.column_stack([basis.series(coeffs[:, l], x[:, l], order)
                                for l in range(nus.size)])
        scale = np.max(np.abs(want[order]), axis=0)
        assert np.max(np.abs(cols - want[order]) / scale) <= 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("N, a", PARAM_SETS + [(5, -0.99), (12, 1.9)])
def test_eigenvalues_match_closed_form(N, a, k):
    # (5, -0.99) has M near 4, where the s^{3-M} tail once escaped the
    # quadrature window and mu_1 came out 0.63 with no error raised
    p = validate_params(N, a)
    res = mode_eigenvalues(p, k, n_eigs=5, nodes=160)
    assert np.max(np.abs(res.eigenvalues / exact_eigenvalues(p, k, 5) - 1.0)) <= 1e-7


@pytest.mark.parametrize("delta, n", [(1.0035, 168), (1.0035, 408), (2.7, 168), (100.0, 168)])
def test_jacobi_rule_is_exact(delta, n):
    # (1+t)^j against the Jacobi weight, j < 2n, in s: the rule must integrate
    # 2^{2d+j} s^{2d+2j+1} (1+s^2)^{-2d-j} to 2^{2d+j-1} B(d+j+1, d-1) exactly.
    # delta = 1.0035 is mode 0 at M = 4.007, where scipy's Gauss-Jacobi
    # weights alone miss these integrals by up to 5e-9 relative
    rule = JacobiRule.build(n, delta)
    for j in range(0, 2 * n, 7):
        log_f = ((2 * delta + j) * math.log(2.0) + (2 * delta + 2 * j + 1) * rule.u
                 - (2 * delta + j) * np.logaddexp(0.0, 2.0 * rule.u))
        want = (2 * delta + j - 1) * math.log(2.0) + betaln(delta + j + 1, delta - 1)
        assert abs(logsumexp(rule.log_w + log_f) - want) <= 1e-10


def _composite_grid_pencil(pr, weight_lambda=1.0, chunk=4096):
    """(A, B) of pr's basis on the wide composite log rule, the reference assembly."""
    M = pr.params.M
    u, s, w = wide_log_rule(pr.basis.m, M)
    A = np.zeros((pr.basis.m, pr.basis.m))
    B = np.zeros_like(A)
    for lo in range(0, s.size, chunk):
        sl = slice(lo, lo + chunk)
        log_w = np.log(w[sl]) + (M - 1.0) * u[sl]
        rows_mass, rows_stiff = pr.basis.weighted_rows(
            s[sl], log_w, pr.log_potential(s[sl], weight_lambda))
        A += rows_stiff @ rows_stiff.T
        B += rows_mass @ rows_mass.T
    return A, B


def _max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("m", [160, 400])
@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_pencil_matches_composite_grid(N, a, k, m):
    pr = assemble_mode_problem(validate_params(N, a), k, nodes=m)
    assert pr.grid.n == m + 8
    A, B = _composite_grid_pencil(pr)
    assert _max_rel(pr.A, A) <= 1e-9
    assert _max_rel(pr.B, B) <= 1e-9


@pytest.mark.parametrize("nu", [None, 0.02, 50.0])
@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_scaled_mass_matches_composite_grid(N, a, nu):
    # the shifted potential is not polynomial in t: the oversampled rule;
    # None is weight_lambda = 2, the others put nu = weight_lambda^{1/q} far from 1
    p = validate_params(N, a)
    weight_lambda = 2.0 if nu is None else nu ** p.q
    pr = assemble_mode_problem(p, 0, nodes=400)
    _, B = _composite_grid_pencil(pr, weight_lambda=weight_lambda)
    assert _max_rel(pr.weighted_mass(weight_lambda), B) <= 1e-9


def test_scaled_mass_refuses_far_scale():
    p = validate_params(5, 1)
    pr = assemble_mode_problem(p, 0)
    with pytest.raises(GridTooCoarse):
        pr.weighted_mass(1e3 ** p.q)
