import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import betaln, eval_jacobi, gammaln, logsumexp

import ckn4.spectrum as spectrum

from ckn4.cli import MODE_RANGE
from ckn4.emden import sobolev_bubble
from ckn4.errors import (EigensolveFailure, GridTooCoarse, InconsistentKernel,
                         NegativeMode, QuadratureFailure)
from ckn4.forms import PowerForm
from ckn4.params import mode_lambda, normalization_constant, validate_params
from ckn4.profiles import extremal_U, kernel_Z0, kernel_Zk_radial
from ckn4.spectrum import (
    JacobiRule,
    ModeBasis,
    assemble_mode_problem,
    exact_eigenvalues,
    kernel_residual,
    mode_eigenvalues,
    verify_kernel,
)
from conftest import (PARAM_SETS, alignment, applied, christoffel_rule, composite_grid_pencil,
                      family_rows, jacobi_rows, log_potential, random_valid_params,
                      values_and_derivs, wide_log_rule)


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
    assert np.all(np.exp(spectrum._log_potential(p.M, pr.grid.s)) > 0)
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


def _extended_sums(delta, coeffs, t):
    """sum_j coeffs[j] p_j^{(i)}(t), i = 0, 1, 2, by the forward recurrence in long double.

    The orthonormal Jacobi (d, d) recurrence and the derivative map
    d/dt p_n^{(a,a)} = sqrt(n(n+2a+1)) p_{n-1}^{(a+1,a+1)}, written out
    here and run in extended precision: a near-exact reference for the
    double-precision sums.
    """
    LD = np.longdouble
    t, c, d = t.astype(LD), coeffs.astype(LD), LD(delta)
    out = []
    for i in range(3):
        if i:
            n = np.arange(1, c.size, dtype=LD)
            c = c[1:] * np.sqrt(n * (n + 2 * (d + i - 1) + 1))
        a = d + i
        k = np.arange(c.size + 1, dtype=LD)
        off = (2 / (2 * k + 2 * a) * (k + a) / np.sqrt(2 * k + 2 * a + 1)
               * np.sqrt(k * (k + 2 * a) / (2 * k + 2 * a - 1)))       # off[0] = 0
        log_mu0 = (2 * a + 1) * np.log(LD(2)) + LD(betaln(float(a) + 1, float(a) + 1))
        prev, cur = np.zeros(t.shape, LD), np.full(t.shape, np.exp(-log_mu0 / 2))
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
    # (delta+i, delta+i) families (_SymmetricJacobi.sum) for the i-th t
    # derivative, against the same sums in extended precision
    # (_extended_sums); the nodes span the scales 1e-2..1e2, and (5, -0.99)
    # has M near 4 and (12, 1.9) has M above 200
    p = validate_params(N, a)
    lam_k, _ = mode_lambda(k, p.N)
    basis = ModeBasis(p.M, p.q ** 2 * lam_k, 96)
    nus = 10.0 ** (np.linspace(-2.0, 2.0, 5) / p.q)
    coeffs = np.random.default_rng(k).standard_normal((basis.m, nus.size))
    t = basis._map(nus * wide_log_rule(basis.m, p.M, panel_pts=64)[1][::7, None])
    for l in range(nus.size):
        c = coeffs[:, l]
        for order, want in enumerate(_extended_sums(basis.delta, c, t[:, l])):
            got = basis.families[order].sum(c, t[:, l])
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            if order < 2:
                c = c[1:] * basis._dscale[order][1:c.size]


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_rows_and_series_match_jacobi_reference(N, a, k):
    # the pencil's weighted rows on its own rule against conftest's
    # reference, whose polynomials are first checked against scipy's
    # eval_jacobi and the closed-form norms on the rule's nodes
    p = validate_params(N, a)
    pr = assemble_mode_problem(p, k, nodes=96)
    basis, rule = pr.basis, pr.grid
    t = basis._map(rule.s)
    j = np.arange(basis.m)[:, None]
    d = basis.delta
    log_h = ((2 * d + 1) * math.log(2.0) + 2 * gammaln(j + d + 1) - np.log(2 * j + 2 * d + 1)
             - gammaln(j + 1) - gammaln(j + 2 * d + 1))
    for i in range(3):
        log_c = gammaln(j + 2 * d + 1 + i) - i * math.log(2.0) - gammaln(j + 2 * d + 1)
        want = np.where(j >= i, eval_jacobi(np.maximum(j - i, 0), d + i, d + i, t)
                        * np.exp(log_c - 0.5 * log_h), 0.0)
        got = jacobi_rows(basis, t, i)
        scale = np.max(np.abs(want[i:]), axis=1, keepdims=True)
        assert np.max(np.abs(got[i:] - want[i:]) / scale) <= 1e-12
    log_w = rule.log_w + (p.M - 1.0) * rule.u
    log_pot = log_potential(p, rule.s)
    got = basis.weighted_rows(rule.s, log_w, log_pot, family_rows(basis, rule.s))
    psi, tpsi = applied(basis, rule.s)
    want = (psi * np.exp(0.5 * (log_w + log_pot)), tpsi * np.exp(0.5 * log_w))
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w) / np.max(np.abs(w), axis=1, keepdims=True)) <= 1e-12


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
        mode_eigenvalues(validate_params(5, 1), 0, nodes=96)


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
    # (1+t)^j against the Jacobi weight, j < 2n, in s: the rule must integrate
    # 2^{2d+j} s^{2d+2j+1} (1+s^2)^{-2d-j} to 2^{2d+j-1} B(d+j+1, d-1) exactly.
    # delta = 1.0035 is mode 0 at M = 4.007, where scipy's Gauss-Jacobi
    # weights alone miss these integrals by up to 5e-9 relative; at
    # delta = 1000 scipy's roots_jacobi returns NaN nodes
    rule = JacobiRule.build(n, delta)
    for j in range(0, 2 * n, 7):
        log_f = ((2 * delta + j) * math.log(2.0) + (2 * delta + 2 * j + 1) * rule.u
                 - (2 * delta + j) * np.logaddexp(0.0, 2.0 * rule.u))
        want = (2 * delta + j - 1) * math.log(2.0) + betaln(delta + j + 1, delta - 1)
        assert abs(logsumexp(rule.log_w + log_f) - want) <= 1e-10


@pytest.mark.parametrize("delta", [1.0035, 3.5, 40.0, 1000.0])
@pytest.mark.parametrize("n", [68, 168, 408])
def test_jacobi_rule_matches_single_family_loop(n, delta):
    # the stacked pass gives the rule bit for bit as the Christoffel sum run
    # alone (conftest.christoffel_rule).  From 168 nodes every delta here
    # reaches the rescaling test; at 408 nodes and delta = 1000 the terms
    # pass 1e100 (up to 8e142) and are rescaled
    diag, off, _ = spectrum._jacobi_recurrence(n, [delta - 2.0], [delta])
    assert bool(spectrum._rescale_schedule(diag, off)) == (n >= 168 or delta == 1000.0)
    s, u, log_w, rescaled = christoffel_rule(n, delta)
    assert rescaled == (n == 408 and delta == 1000.0)
    rule = JacobiRule.build(n, delta)
    for got, want in zip((rule.s, rule.u, rule.log_w), (s, u, log_w)):
        assert np.array_equal(got, want)


def _recording(monkeypatch, name):
    """Wrap spectrum.<name> so that its calls' first arguments are recorded."""
    calls = []
    fn = getattr(spectrum, name)

    def record(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(spectrum, name, record)
    return calls


@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_verify_kernel_matches_mode_eigenvalues(monkeypatch, N, a):
    # verify_kernel assembles all its modes in one pass: each mode's
    # eigenvalues and diagnostics are bit for bit those of its own assembly
    p = validate_params(N, a)
    problems = _recording(monkeypatch, "_read_spectrum")
    rep = verify_kernel(p, k_max=4)
    monkeypatch.undo()
    assert [pr.k for pr in problems] == list(range(5))
    for k, (pr, mode) in enumerate(zip(problems, rep["modes"])):
        alone = mode_eigenvalues(p, k, n_eigs=8)
        assert np.array_equal(spectrum._read_spectrum(pr, 8).eigenvalues, alone.eigenvalues)
        assert mode["diagnostics"] == alone.diagnostics
        assert np.array_equal(pr.A, alone.problem.A) and np.array_equal(pr.B, alone.problem.B)


def _fail_mode(monkeypatch, p, k, stage):
    """Make mode k's assembly raise QuadratureFailure: at its rule's nodes or at its rows."""
    delta = ModeBasis(p.M, p.q ** 2 * mode_lambda(k, p.N)[0], 160).delta
    if stage == "nodes":
        nodes = spectrum._gauss_jacobi_nodes

        def fail(diag, off, d):
            if d == delta:
                raise QuadratureFailure(f"mode {k}'s nodes")
            return nodes(diag, off, d)

        monkeypatch.setattr(spectrum, "_gauss_jacobi_nodes", fail)
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
        verify_kernel(p, k_max=6)
    assert [pr.k for pr in solved] == [0, 1, 2, 3]


@pytest.mark.parametrize("stage", ["nodes", "rows"])
def test_kernel_assembly_failure_raised_in_its_turn(monkeypatch, stage):
    # a mode whose assembly fails raises after the earlier modes are solved
    p = validate_params(5, 1)
    _fail_mode(monkeypatch, p, 2, stage)
    solved = _recording(monkeypatch, "_read_spectrum")
    with pytest.raises(QuadratureFailure, match=f"^mode 2's {stage}$"):
        verify_kernel(p, k_max=4)
    assert [pr.k for pr in solved] == [0, 1]


def test_mode_error_before_any_assembly():
    # a mode that fails before its rule is built raises its own error, also
    # when its pass assembles no mode at all
    with pytest.raises(NegativeMode, match="got -1"):
        mode_eigenvalues(validate_params(5, 1), -1)


def test_pass_grouping_cap(monkeypatch):
    # one pass stacks no more rows than one mode's at the largest node count:
    # every mode of the default 160 nodes fits one pass, one mode at 2048
    lo, hi = spectrum.NODES_RANGE
    for m in range(lo, hi + 1):
        assert spectrum._modes_per_pass(m) * 3 * m * (m + 8) <= spectrum.PASS_ROWS
    assert spectrum._modes_per_pass(hi) == 1
    assert spectrum._modes_per_pass(160) >= MODE_RANGE[1] + 1
    # under a cap of two modes at 64 nodes, five modes take three passes and
    # give the pencils of one assembly per mode
    p = validate_params(6, -1)
    monkeypatch.setattr(spectrum, "PASS_ROWS", 2 * 3 * 64 * 72)
    passes = _recording(monkeypatch, "_jacobi_pass")
    problems = list(spectrum.assemble_mode_problems(p, range(5), 64))
    assert [t.shape for t in passes] == [(2, 4, 72), (2, 4, 72), (1, 4, 72)]
    monkeypatch.undo()
    for k, pr in enumerate(problems):
        alone = assemble_mode_problem(p, k, nodes=64)
        assert np.array_equal(pr.A, alone.A) and np.array_equal(pr.B, alone.B)


def test_jacobi_rule_refuses_node_at_end():
    # at delta = 1 + 2^-52 (M = 4 + 4e-16) the node nearest t = 1 rounds to
    # 1, where s is infinite: a typed failure, not a log1p(-1) warning
    with pytest.raises(QuadratureFailure, match=r"68 nodes at delta=1: a node is not strictly "
                                                r"inside \(-1, 1\)"):
        JacobiRule.build(68, 1 + 2 ** -52)


@pytest.mark.parametrize("delta", [1.0035, 7.5, 120.0])
def test_series_sum_stops_at_last_nonzero(delta):
    # trailing zero coefficients change no bit of the sum: e_j padded to m
    # and a random head padded to m, against the same heads cut to j + 1
    # terms; both still sum term j, against the basis rows
    fam = spectrum._SymmetricJacobi(96, delta)
    t = np.concatenate([np.linspace(-1.0, 1.0, 201), [-1 + 1e-12, -1e-300, 0.0, 1 - 1e-12]])
    head = np.random.default_rng(0).standard_normal(96)
    for j in (0, 1, 2, 5, 40, 95):
        for c in (np.eye(96)[j] * 0.7, np.where(np.arange(96) <= j, head, 0.0)):
            got = fam.sum(c, t)
            assert np.array_equal(got, fam.sum(c[:j + 1], t))
            want = c[:j + 1] @ fam.rows(t, j + 1)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(fam.sum(np.zeros(96), t), np.zeros(t.size))


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
