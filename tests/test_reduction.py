import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev
from scipy.optimize import brentq

import ckn4.reduction as reduction
from ckn4.calculus import JacobiRule, weighted_hessian_norm_sq
from ckn4.emden import sobolev_bubble
from ckn4.errors import ContractionFailure, EigensolveFailure, NoInteriorExtremum, QuadratureFailure
from ckn4.params import sphere_area, validate_params
from ckn4.profiles import PolyGaussProfile, dilation_tangent, extremal_U, kernel_Z0
from ckn4.reduction import (
    BUILTIN_H,
    PerturbationProblem,
    _bracketed_root,
    find_perturbed_solution,
    remainder_curve,
    solve_correction,
    solve_corrections,
)
from ckn4.spectrum import mode_eigenvalues
from conftest import (PARAM_SETS, ComposedRadial, ModeFunction, RadialGrid, _star_log_rule,
                      applied, brentq_lambda_star, bubble_c, composite_rule, default_grid,
                      full_grid_energy, h_weighted_star_norm, inner_alpha, omega_hat,
                      perturbation_on, remainder_ratio, rule_in_s, solution_radial,
                      star_overlaps, trial_coeffs, weighted_H, wide_log_rule)


@pytest.fixture(scope="module")
def p51():
    return validate_params(5, 1)


@pytest.fixture(scope="module")
def modes51(p51):
    return mode_eigenvalues(p51, 0, n_eigs=6, nodes=160)


@pytest.fixture(scope="module")
def pp51(p51):
    return PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=180)


def _bubble_ratio(p, c, lam):
    """c U_lam / U_1 as a function of z = ln s: c (cosh z / cosh(z + ln(lam)/q))^{(M-4)/2}."""
    y = math.log(lam) / p.q
    ln_2cosh = lambda v: np.logaddexp(v, -v)
    return lambda z: c * np.exp((p.M - 4.0) / 2.0 * (ln_2cosh(z) - ln_2cosh(z + y)))


# the oracle's scan of x = ln lam, step 0.01
SCAN = np.linspace(-4.0, 4.0, 801)


def _best_scale(p, ratio, xs=SCAN):
    """(x, g(x)/||U_1||^2) at the scan's maximum of g^2, g(x) = <u, U_{e^x}>."""
    g = star_overlaps(p, ratio, xs)
    i = int(np.argmax(g * g))
    return float(xs[i]), float(g[i])


def _excess(p, t):
    """max over the scan of g^2, relative to g(0)^2, minus 1, for u = U_1 + t ||U_1|| w."""
    g = star_overlaps(p, remainder_ratio(p, t)[0], SCAN)
    return float(np.max(g * g) / g[400] ** 2 - 1.0), float(SCAN[np.argmax(g * g)])


@functools.cache
def _remainder_rows(N, a, t_values=(1e-2, 1e-3)):
    p = validate_params(N, a)
    return remainder_curve(mode_eigenvalues(p, 0, n_eigs=4, nodes=160), t_values)


def test_dist_on_manifold(p51):
    # the oracle's scan recovers c and lam of a point c U_lam of the manifold
    x_lam = math.log(2.0)
    xs = np.sort(np.append(SCAN, x_lam))
    x, c = _best_scale(p51, _bubble_ratio(p51, 3.0, 2.0), xs)
    assert x == x_lam
    assert c == pytest.approx(3.0, rel=1e-12)
    assert abs(9.0 - c * c) < 1e-10           # dist^2 / ||U_1||^2


@pytest.mark.parametrize("lam", [0.01, 150.0])
def test_dist_near_range_ends(p51, lam):
    # the same with the bubble far off centre, on a scan of |x| <= 6
    x_lam = math.log(lam)
    xs = np.sort(np.append(np.linspace(-6.0, 6.0, 1201), x_lam))
    x, c = _best_scale(p51, _bubble_ratio(p51, 3.0, lam), xs)
    assert x == x_lam
    assert c == pytest.approx(3.0, rel=1e-12)


def test_dist_linear_in_offset(p51, modes51):
    # dist = t ||U_1||, with ||U_1|| the exact Beta value, and the oracle's
    # best scale is 1
    norm_U = math.sqrt(weighted_hessian_norm_sq(p51, extremal_U(p51)))
    rows = remainder_curve(modes51, [1e-2, 1e-3])
    for row in rows:
        assert row["dist"] == pytest.approx(row["t"] * norm_U, rel=1e-12)
        assert _best_scale(p51, remainder_ratio(p51, row["t"])[0])[0] == 0.0
    assert rows[0]["dist"] == pytest.approx(10.0 * rows[1]["dist"], rel=1e-15)


def test_dist_brute_force_oracle():
    # the program's distance against min over the scan of ||u - c*(x) U_{e^x}||,
    # every term in star form on log_rule: dist^2 = ||u||^2 - g(x)^2/||U_1||^2
    t = 0.05
    for N, a in [(5, 1.0), (12, 1.39948), (4, 0.0504)]:
        p = validate_params(N, a)
        dist = _remainder_rows(N, a, (t,))[0]["dist"]
        ratio, norm_sq = remainder_ratio(p, t)
        g = star_overlaps(p, ratio, SCAN)
        norm_U = math.sqrt(weighted_hessian_norm_sq(p, extremal_U(p)))
        best = math.sqrt(norm_sq - float(np.max(g * g))) * norm_U
        assert dist <= best * (1.0 + 1e-8)
        assert dist == pytest.approx(best, rel=1e-8)


def test_dist_z0(p51, modes51):
    # w is alpha-orthogonal to Z0, the dilation tangent, and to U_1, in the
    # stiffness form on a radial grid: why the fit at scale 1 is stationary
    grid = RadialGrid.log_gauss(1e-8, 1e8, 1024)
    mu3 = float(modes51.eigenvalues[2])
    psi2 = ComposedRadial(ModeFunction(modes51.problem.basis, modes51.coefficients[:, 2]),
                          1.0 / p51.q)
    norm_w = math.sqrt(modes51.problem.alpha_scale * mu3)
    Z0 = kernel_Z0(p51)
    for f in (Z0, extremal_U(p51)):
        cos = inner_alpha(p51, f, psi2, grid) / (norm_w * math.sqrt(inner_alpha(p51, f, f)))
        assert abs(cos) < 1e-9
    assert inner_alpha(p51, psi2, psi2, grid) == pytest.approx(norm_w ** 2, rel=1e-9)


def test_dist_two_bubbles_global_maximum(p51):
    # the oracle's scan finds the larger of two bubbles' peaks, the global one
    ratio_a, ratio_b = _bubble_ratio(p51, 1.0, 0.05), _bubble_ratio(p51, 0.5, 20.0)
    x, _ = _best_scale(p51, lambda z: ratio_a(z) + ratio_b(z))
    assert abs(x - math.log(0.05)) < 0.1


def test_dist_profile_evaluations(monkeypatch, p51, modes51):
    # the quotient runs on the pencil's own rule: it builds no rule
    def refuse(*args, **kwargs):
        raise AssertionError("remainder_curve built a rule")

    monkeypatch.setattr(JacobiRule, "build", refuse)
    rows = remainder_curve(modes51, [1e-2, 1e-3])
    assert [row["t"] for row in rows] == [1e-2, 1e-3]


# the points of the curvature's oracle: the PARAM_SETS, gamma = 9.68, M near
# 4 and M = 62
BLOCK_POINTS = PARAM_SETS + [(12, -7.68064), (4, 0.0504), (5, 1.9)]


@pytest.mark.parametrize("N, a", BLOCK_POINTS)
def test_block_scan_matches_direct_scales(N, a):
    # the curvature g''(0)/||U_1||^2 of the scan g(x) = <u, U_{e^x}>, read
    # off the pencil's diagonal, against a five-point difference of the
    # oracle's g built at each scale directly
    p = validate_params(N, a)
    d = 1e-2
    for row in _remainder_rows(N, a):
        g = star_overlaps(p, remainder_ratio(p, row["t"])[0], d * np.arange(-2.0, 3.0))
        ref = (-g[0] + 16.0 * g[1] - 30.0 * g[2] + 16.0 * g[3] - g[4]) / (12.0 * d * d)
        assert row["curvature"] == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("t", [1e-2, 1e-3])
@pytest.mark.parametrize("N, a", PARAM_SETS + [(12, -7.87232)])
def test_fit_polish_matches_brentq(N, a, t):
    # the fit's scale, 1, against brentq on the oracle's slope dg/dx across
    # two scan steps either side; the curvature says it is a maximum
    p = validate_params(N, a)
    row = _remainder_rows(N, a, (t,))[0]
    assert row["curvature"] < 0.0
    ratio = remainder_ratio(p, t)[0]
    x_ref = brentq(lambda x: float(star_overlaps(p, ratio, [x], slope=True)[0]),
                   -0.02, 0.02, xtol=1e-15)
    assert abs(x_ref) <= 1e-13


@pytest.mark.parametrize("N, a", [(5, 1.0), (8, -3.90261), (12, 1.39948), (3, 1.001),
                                  (6, -1.999)])
def test_scale_one_is_best_where_curvature_is_negative(N, a):
    # the local fit is the global one: no scale of the oracle's scan over
    # |ln lam| <= 4 beats lam = 1
    p = validate_params(N, a)
    for row in _remainder_rows(N, a):
        assert row["curvature"] < 0.0
        excess, _ = _excess(p, row["t"])
        assert excess <= 1e-12


def test_scale_one_is_not_best_where_curvature_is_positive():
    # at M - 4 = 2e-4 and t = 1e-2 the curvature at scale 1 is positive, and
    # the oracle's best scale is lam = e^{-1.23}: dist = t ||U_1|| would be wrong
    p = validate_params(3, 1.0001)
    row = _remainder_rows(3, 1.0001, (1e-2,))[0]
    assert row["curvature"] > 0.0
    excess, x = _excess(p, 1e-2)
    assert excess > 1e-12 and abs(x) > 1.0


@pytest.mark.parametrize("N, a", PARAM_SETS + [(12, 1.39948), (4, 0.0504), (3, 1.99)])
def test_quotient_matches_star_oracle(N, a):
    # the deficit quotient against (||u||^2 - S ||u||_*^2) / (t ||U_1||)^2
    # summed directly in star form on log_rule: S ||u||_*^2 / ||U_1||^2 =
    # (int U_1^{p*} ratio^{p*} / int U_1^{p*})^{2/p*}
    p = validate_params(N, a)
    z, w = _star_log_rule()
    star = w * np.exp(-p.M * (np.logaddexp(z, -z) - math.log(2.0)))
    for row in _remainder_rows(N, a):
        t = row["t"]
        ratio, norm_sq = remainder_ratio(p, t)
        deficit = norm_sq - (float(star @ ratio(z) ** p.pstar) / star.sum()) ** (2.0 / p.pstar)
        assert row["quotient"] == pytest.approx(deficit / (t * t), rel=1e-8)


def test_remainder_scan_limit(p51, modes51):
    mu2, mu3 = float(modes51.eigenvalues[1]), float(modes51.eigenvalues[2])
    target = 1.0 - mu2 / mu3
    rows = remainder_curve(modes51, [1e-2, 1e-3])
    assert abs(rows[-1]["quotient"] - target) < 0.05 * target
    assert abs(rows[0]["quotient"] - target) < 0.1 * target
    # q(t) - limit is O(t)
    ratio = (rows[0]["quotient"] - target) / (rows[1]["quotient"] - target)
    assert 9.0 < ratio < 11.0


def test_correction_zero_eps(p51):
    pp0 = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 0.0, nodes=180)
    res = solve_correction(pp0, 1.0)
    assert res.omega_norm < 1e-8
    assert abs(res.l) < 1e-10


def test_correction_zero_h(p51):
    pp = PerturbationProblem(p51, lambda r: np.zeros_like(np.asarray(r)), 5e-2, nodes=128)
    res = solve_correction(pp, 1.0)
    assert res.omega_norm < 1e-8


def tangent_norm(pp):
    """||dU_lam/dlam|| at lam = 1, the exact Beta value (no pencil, no grid)."""
    return math.sqrt(weighted_hessian_norm_sq(pp.params, dilation_tangent(pp.params)))


def test_correction_linear_regime(p51, pp51):
    r1 = solve_correction(pp51, 1.0)
    pp_half = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 5e-4, nodes=180)
    r2 = solve_correction(pp_half, 1.0)
    assert 1.8 <= r1.omega_norm / r2.omega_norm <= 2.2
    assert r1.contraction_factor < 0.9
    assert r1.converged and r1.iterations <= 100
    assert r1.residual < 1e-8
    # constraint: the correction is orthogonal to the dilation tangent
    overlap = float(pp51.d @ r1.coeffs)
    assert abs(overlap) <= 1e-8 * r1.omega_norm * tangent_norm(pp51)


def test_correction_linear_response_oracle(monkeypatch, p51, pp51):
    # first-order prediction: a single frozen-Jacobian step solves the
    # linearized system for the eps-forcing alone; the converged fixed point
    # may differ from it only at second order in eps
    eps = pp51.eps
    h = BUILTIN_H["exp_bump"]
    res = solve_correction(pp51, 1.0)
    with monkeypatch.context() as m:
        m.setattr(reduction, "MAX_ITER", 1)
        lin = solve_correction(PerturbationProblem(p51, h, eps, nodes=180), 1.0)
    assert lin.iterations == 1 and not lin.converged
    diffG = math.sqrt(float(np.sum(pp51.G * (res.coeffs - lin.coeffs) ** 2)))
    assert diffG < 20.0 * res.omega_norm * eps
    # and scaling eps by 8 scales the response by 8 up to the same order
    res8 = solve_correction(PerturbationProblem(p51, h, eps / 8.0, nodes=180), 1.0)
    diff8 = math.sqrt(float(np.sum(pp51.G * (res.coeffs - 8.0 * res8.coeffs) ** 2)))
    assert diff8 < 20.0 * res.omega_norm * eps


def tangent_overlaps(pp):
    """|<e_i, dU/dlam>| / (||e_i|| ||dU/dlam||) for every basis mode e_i."""
    return np.abs(pp.d) / (np.sqrt(pp.G) * tangent_norm(pp))


def test_correction_orthogonal_basis(pp51):
    # every basis mode but the tangent's is orthogonal to the dilation tangent
    assert np.delete(tangent_overlaps(pp51), pp51.i_tan).max() < 1e-8


def test_tangent_index_shared(pp51):
    # the elimination's pivot-free row is the basis mode along the dilation
    # tangent, the largest normalized overlap with it
    overlaps = tangent_overlaps(pp51)
    assert pp51.i_tan == int(np.argmax(overlaps))
    assert pp51.i_tan == int(np.argmin(np.abs(pp51.D) / pp51.G))
    assert overlaps[pp51.i_tan] > 0.99


def _backward_error(K, x, b):
    """Componentwise (Oettli-Prager) backward error of x as a solution of K x = b."""
    return float(np.max(np.abs(b - K @ x) / (np.abs(K) @ np.abs(x) + np.abs(b))))


@pytest.mark.parametrize("N, a", PARAM_SETS + [(9, -4.8), (4, 0.0504), (12, -7), (10, 1.7)])
def test_jacobian_closed_form_backward_error(N, a):
    pp = PerturbationProblem(validate_params(N, a), BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    k = pp.kept
    K = np.zeros((k + 1, k + 1))
    K[np.diag_indices(k)] = pp.D
    K[:k, k] = -pp.d
    K[k, :k] = pp.d
    res = pp._residual(np.zeros(k), pp._forcing(1.0))
    rng = np.random.default_rng(8)
    # the first fixed-point step's right-hand side, and a random one on the G scale
    for b in (np.append(-res, 0.0), np.append(rng.standard_normal(k) * np.sqrt(pp.G), 1.0)):
        x, l = pp._solve_jacobian(b[:k], b[k])
        assert _backward_error(K, np.append(x, l), b) <= 1e-14


@pytest.mark.parametrize("offset", [0.0, 1e-8])
def test_jacobian_second_small_pivot_is_typed(monkeypatch, p51, offset):
    # a second (near-)zero D_i: at mu_3 itself (argmin leaves the tangent),
    # or 1e-8 above mu_2 (below the pivot floor, the tangent still smallest)
    solve_pencil = reduction._solve_pencil

    def patched(A, B, where):
        mu, x, couplings = solve_pencil(A, B, where)
        mu = mu.copy()
        mu[2] = (p51.pstar - 1.0) * (1.0 + offset)
        return mu, x, couplings

    monkeypatch.setattr(reduction, "_solve_pencil", patched)
    with pytest.raises(EigensolveFailure, match=r"perturbation Jacobian at N=5, alpha=1\.0 \(M=8\)"):
        PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=96)


def test_jacobian_determinant_underflow_is_typed(monkeypatch, p51):
    # perturb --N 3 --alpha 1.9981 has c = 1.2e-158, so d_j^2 and sum
    # d_i^2/D_i underflow and the determinant is 0: its solve gave NaN
    # multipliers with two RuntimeWarnings, read as a constant energy.  The
    # same bubble here, c scaled by e^-400, builds in milliseconds
    log_bubble_coeff = reduction._log_bubble_coeff
    monkeypatch.setattr(reduction, "_log_bubble_coeff",
                        lambda p, delta: log_bubble_coeff(p, delta) - 400.0)
    with pytest.raises(EigensolveFailure, match=r"perturbation Jacobian at N=5, alpha=1\.0 "
                       r"\(M=8\): its 2x2 determinant .* is 0\.000e\+00, not a normal float"):
        PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=96)


def test_contraction_guard(p51):
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 12.0, nodes=96)
    with pytest.raises(ContractionFailure):
        solve_correction(pp, 1.0)


@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_lockstep_matches_single_scale(N, a):
    # every column of the lockstep block on the default curve grid against
    # the same scale solved alone with a fresh cache, relative to the
    # solution U_lam + w_lam: far from h the correction itself sits at the
    # rounding floor of the fixed point, which is set by the bubble; the
    # energies of the two solves agree to rounding
    pp = PerturbationProblem(validate_params(N, a), BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    lams = reduction.CURVE_SCALES
    block = solve_corrections(pp, lams)
    assert all(solve_correction(pp, lam) is res for lam, res in zip(lams, block))
    for lam, res in zip(lams, block):
        pp._cache.clear()
        one = solve_correction(pp, lam)
        diff = math.sqrt(float(np.sum(pp.G * (res.coeffs - one.coeffs) ** 2)))
        assert diff <= 1e-12 * math.sqrt(pp.norm_sq(one.coeffs))
        assert (res.iterations, res.converged) == (one.iterations, one.converged)
        assert abs(res.energy / one.energy - 1.0) <= 1e-14


def test_lockstep_failure_names_first_scale(monkeypatch, p51):
    # at eps = 1 the observed contraction factor is 0.1252, then 0.1303 at
    # lam = 0.9 and 0.1276 at lam = 1: under a refuse factor of 0.1265,
    # lam = 1 fails at the second sweep and lam = 0.9 only at the third,
    # yet the block names the first failing scale in its order, as the
    # scale-by-scale solve would
    monkeypatch.setattr(reduction, "REFUSE_FACTOR", 0.1265)
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1.0, nodes=96)
    with pytest.raises(ContractionFailure, match=r"factor 0\.130 >= 0\.1265 at scale 0\.9$"):
        solve_corrections(pp, [0.9, 1.0, 0.5])
    with pytest.raises(ContractionFailure, match=r"factor 0\.128 >= 0\.1265 at scale 1\.0$"):
        solve_correction(pp, 1.0)
    # the scale that passed was cached, the failing ones were not
    assert list(pp._cache) == [0.5]


def test_weight_sign_checked_at_every_scale(p51):
    # h = 2 only past r = 1e11, beyond the grid's r = s^q <= e^24 at scale 1
    # but within r/lam at lam = 0.01: there 1 + eps h = -0.8 changes sign
    def h(r):
        return np.where(np.asarray(r) > 1e11, 2.0, 0.0)

    pp = PerturbationProblem(p51, h, -0.9, nodes=96)
    assert solve_correction(pp, 1.0).converged
    with pytest.raises(ContractionFailure, match=r"^weight 1 \+ eps h at N=5, alpha=1\.0, "
                                                 r"eps=-0\.9: \|eps\| sup\|h\| = 1\.8 exceeds 1$"):
        solve_correction(pp, 0.01)


def test_gamma_flat_at_zero_eps(p51):
    pp0 = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 0.0, nodes=160)
    lams = np.logspace(-1, 1, 7)
    g = np.array([res.energy for res in solve_corrections(pp0, lams)])
    assert g.max() - g.min() < 1e-9 * abs(pp0.unperturbed_energy)
    with pytest.raises(NoInteriorExtremum, match="constant and every scale is critical"):
        find_perturbed_solution(pp0)


@pytest.mark.parametrize("N, a", [(5, 1.0), (6, -1.0), (7, -2.0)])
def test_perturbation_grid_converged(N, a):
    # Gamma on the pencil's own (m+8)-node Gauss-Jacobi rule against the
    # same code on a rule of twice the nodes, and on a composite rule in
    # ln s with 128-point panels (6 784 nodes at m = 220)
    p = validate_params(N, a)
    h = BUILTIN_H["exp_bump"]
    lams = (1e-2, 1.0, 1e2)

    def gammas(pp):
        return np.array([res.energy for res in solve_corrections(pp, lams)])

    pp = PerturbationProblem(p, h, 1e-3, nodes=220)
    own = gammas(pp)
    delta = (p.M - 2.0) / 2.0
    larger = JacobiRule.build(2 * pp.rule.n, delta)
    for rule in (larger, composite_rule(220, -12.0, 12.0, 128, delta)):
        ref_pp = perturbation_on(rule, p, h, 1e-3, nodes=220)
        assert ref_pp.rule is rule
        assert np.max(np.abs(own - gammas(ref_pp)) / np.abs(own)) <= 1e-12


def test_perturbation_grid_size(p51):
    # the star integrals run on the pencil's own rule, m + 8 nodes: 228 at
    # m = 220, where the composite log rule it replaced had 3 392 (and
    # 12 096 before that rule was sized to the basis)
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=220)
    assert pp.rule is pp.problem.grid
    assert pp.rule.n == 220 + 8


@pytest.mark.parametrize("N, a", [(5, "1"), (3, "1.5"), (7, "-2"), (10, "1.7"), (3, "1.99"),
                                  (12, "-7.99")])
def test_star_weights_match_s_frame(N, a):
    # the star weights taken in t, the Christoffel numbers times (1-t^2)^2 /
    # 2^M, against ln W_s + (M-1) ln s + M ln((1-t)/2) summed in the s frame,
    # whose terms of size delta |ln(1-t)| cancel to them, on mode 0's
    # 168-node rule: within 2e-13 (measured at most 1.2e-13, at M = 202)
    p = validate_params(N, a)
    delta = (p.M - 2.0) / 2.0
    rule = JacobiRule.build(168, delta)
    srule = rule_in_s(rule, delta)
    want = srule.log_w + (p.M - 1.0) * srule.u + p.M * np.log(0.5 * rule.one_minus_t)
    assert np.max(np.abs(reduction._log_star_weights(p, rule) - want)) <= 2e-13


@pytest.mark.parametrize("N, a, tol", [(3, "1.99", 6e-14), (10, "1.7", 2e-14), (5, "1", 5e-15)])
def test_star_weights_against_mpmath(N, a, tol):
    # ln W + 2 ln(1-t) + 2 ln(1+t) - M ln 2 summed in 40-digit mpmath from the
    # rule's own floats: the sum in t is within tol of it (measured 5.7e-14,
    # 1.4e-14 and 3.6e-15), where the s frame's sum of the same weights reads
    # 1.1e-13, 4.3e-14 and 7.1e-15
    p = validate_params(N, a)
    rule = JacobiRule.build(168, (p.M - 2.0) / 2.0)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.mpf(float(c)) + 2 * mpmath.log(float(x))
                               + 2 * mpmath.log(float(y)) - p.M * mpmath.log(2))
                         for c, x, y in zip(rule.log_chr, rule.one_minus_t, rule.one_plus_t)])
    assert np.max(np.abs(reduction._log_star_weights(p, rule) - want)) <= tol


@pytest.mark.parametrize("N, a", PARAM_SETS + [(9, -4.8)])
def test_star_window_converged(N, a):
    # Gamma at lam = 1e-3, 1 and 1e3 on the rule, whose nodes reach only
    # |ln s| < 6 or so, against a composite rule over |ln s| <= 22: nothing
    # of the tails is lost; (9, -4.8) has M near 4 and q = 0.29, the widest
    # transport of h(r/lam)
    p = validate_params(N, a)
    h = BUILTIN_H["exp_bump"]
    lams = (1e-3, 1.0, 1e3)

    def gammas(pp):
        return np.array([res.energy for res in solve_corrections(pp, lams)])

    pp = PerturbationProblem(p, h, 1e-3, nodes=160)
    delta = (p.M - 2.0) / 2.0
    wide = perturbation_on(composite_rule(160, -22.0, 22.0, 64, delta), p, h, 1e-3, nodes=160)
    u, wide_u = rule_in_s(pp.rule, delta).u, rule_in_s(wide.rule, delta).u
    assert wide_u[-1] - u[-1] > 15.0 and u[0] - wide_u[0] > 15.0
    own = gammas(pp)
    assert np.max(np.abs(own - gammas(wide)) / np.abs(own)) <= 1e-12


@pytest.mark.parametrize("N, a", [(5, 1.0), (7, -2.0), (4, 0.0504), (12, -7.0), (9, -4.8)])
def test_lambda_star_matches_composite_reference(N, a):
    # lambda* and the energy on the pencil's own rule against the same solve
    # with the star integrals on a 38 400-node composite rule in ln s
    # (|ln s| <= 12, 256-point panels), whose lambda* moves by at most 6e-12
    # with a wider window or other panels; (9, -4.8) is the worst, at M =
    # 4.06, where Gamma is flat
    p = validate_params(N, a)
    h = BUILTIN_H["exp_bump"]
    rule = composite_rule(800, -12.0, 12.0, 256, (p.M - 2.0) / 2.0)
    assert rule.n == 38400
    pp = PerturbationProblem(p, h, 1e-3, nodes=160)
    assert pp.rule is pp.problem.grid
    rep = find_perturbed_solution(pp)
    ref = find_perturbed_solution(perturbation_on(rule, p, h, 1e-3, nodes=160))
    assert rep["lambda_star_polished"] and ref["lambda_star_polished"]
    assert abs(rep["lambda_star"] - ref["lambda_star"]) <= 1e-9
    assert abs(rep["energy"] / ref["energy"] - 1.0) <= 1e-14


@pytest.mark.parametrize("alpha, nodes", [("1.9982", 11112), ("1.999", 20001), ("1.9999", 200001)])
def test_star_rule_is_refused_before_it_is_built(monkeypatch, alpha, nodes):
    # at (3, 1.999), q = 2000, a rule of 10 q nodes would take 3 s to build,
    # and at (3, 1.9999) about 5 minutes, its build's time growing as n^2:
    # past STAR_NODES_MAX = 10 770 (q = 1 077) the star rule is refused
    # before it is built
    monkeypatch.setattr(JacobiRule, "build", classmethod(
        lambda cls, n, delta: pytest.fail(f"a {n}-node rule was built")))
    p = validate_params(3, alpha)
    with pytest.raises(QuadratureFailure, match=rf"^star-type integrals at q=[\d.]+: the rule needs "
                                                rf"{nodes} nodes \(10 per unit of q\), more "
                                                rf"than the largest, 10770$"):
        PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160)


@pytest.mark.parametrize("N, a", [(3, 1.95), (3, 1.99)])
def test_star_rule_grows_with_q(N, a):
    # q = 40 and 200: h(r/lam) = h(s^q/lam) is 1/q wide in ln s, and the
    # pencil's 168-node rule puts lambda* 4.3e-6 and 0.75 relative off a
    # composite reference; the star integrals run on a rule of 10 q nodes
    # instead.  M = 42 and 202: the energy is a difference of two terms of
    # size ||U||^2 that cancel to 5 % and 1 %, so it is compared on that
    # scale.  At (3, 1.99) composite references with other panels spread by
    # 3e-9 in lambda*
    p = validate_params(N, a)
    h = BUILTIN_H["exp_bump"]
    pp = PerturbationProblem(p, h, 1e-3, nodes=160)
    assert pp.rule.n == math.ceil(reduction.H_NODES_PER_Q * p.q) > pp.problem.grid.n
    rep = find_perturbed_solution(pp)
    ref = find_perturbed_solution(perturbation_on(
        composite_rule(800, -12.0, 12.0, 256, (p.M - 2.0) / 2.0), p, h, 1e-3, nodes=160))
    assert rep["lambda_star_polished"] and ref["lambda_star_polished"]
    assert abs(rep["lambda_star"] / ref["lambda_star"] - 1.0) <= 1e-8
    assert abs(rep["energy"] - ref["energy"]) <= 1e-14 * pp.norm0
    own = find_perturbed_solution(perturbation_on(pp.problem.grid, p, h, 1e-3, nodes=160))
    assert abs(own["lambda_star"] / ref["lambda_star"] - 1.0) > 1e-6


@pytest.mark.parametrize("N, a", PARAM_SETS + [(9, -4.8), (4, 0.0504), (12, -7.0)])
def test_windowed_energy_matches_full_grid(N, a):
    # the star term summed in the fixed point's scale-1 frame against the
    # physical-frame integral on a grid widened to each scale: the dilation
    # invariance the program assumes, measured out to lam = 1e-4 and 1e4,
    # where the bubble's centre lies 41 units of ln s out at (12, -7)
    pp = PerturbationProblem(validate_params(N, a), BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    lams = np.array([1e-4, 1e-3, 1.0, 1e3, 1e4])
    results = solve_corrections(pp, lams)
    got = np.array([res.energy for res in results])
    want = np.array([full_grid_energy(pp, lam, res) for lam, res in zip(lams, results)])
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_coefficient_norm_matches_quadrature(N, a):
    # ||U_lam + w_lam||^2 from the pencil against |Delta u|^2 integrated in
    # the physical frame at scale lam on a rule wide enough for its s^{3-M}
    # tail
    p = validate_params(N, a)
    pp = PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    basis = pp.problem.basis
    u, s, w = wide_log_rule(basis.m, p.M)
    wq = w * s ** (p.M - 1.0)
    for lam in (1e-2, 1.0, 1e2):
        res = solve_correction(pp, lam)
        coeffs = trial_coeffs(pp, res.coeffs)
        nu = lam ** (1.0 / p.q)
        lap_u = sobolev_bubble(p, lam).form.radial_laplacian(p.M).eval(s)
        for lo in range(0, s.size, 4096):
            sl = slice(lo, lo + 4096)
            _, lpsi = applied(basis, nu * s[sl])
            lap_u[sl] += nu ** ((p.M - 4.0) / 2.0 + 2.0) * (coeffs @ lpsi)
        want = pp.scale * float(wq @ lap_u ** 2)
        assert abs(pp.norm_sq(res.coeffs) / want - 1.0) <= 1e-10


def test_gamma_limits(pp51):
    E0 = pp51.unperturbed_energy
    for lam in (1e-3, 1e3):
        assert abs(solve_correction(pp51, lam).energy - E0) < 1e-5 * abs(E0)


def test_exp_bump_does_not_overflow():
    # r*r overflowed past r = 1.3e154; at (3, 1.95), where q = 40, the
    # perturbation grid reaches r = e^480
    r = np.concatenate(([0.0, 1e-300, 1.0, 1e154, 1e300], np.logspace(-3, 3, 61)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = BUILTIN_H["exp_bump"](r)
    with np.errstate(over="ignore"):
        direct = np.exp(-r) * r * r / (1.0 + r * r)
    finite = np.isfinite(direct)
    assert np.all(np.abs(got - direct)[finite] <= np.spacing(np.abs(direct[finite])))
    assert np.isfinite(got).all()


def test_h_ladder(p51):
    h = BUILTIN_H["exp_bump"]
    mid = h_weighted_star_norm(p51, h, 1.0)
    # power-law vanishing toward both ends: like lam^{-2/p*} upward (h ~ r^2
    # near the origin) and like lam^{(N-4+a)/2} downward
    assert h_weighted_star_norm(p51, h, 1e3) < 0.1 * mid
    assert h_weighted_star_norm(p51, h, 1e-3) < 0.02 * mid
    up = [h_weighted_star_norm(p51, h, lam) for lam in (1.0, 10.0, 100.0, 1000.0)]
    down = [h_weighted_star_norm(p51, h, lam) for lam in (1.0, 0.1, 0.01, 0.001)]
    assert all(a > b for a, b in zip(up, up[1:]))
    assert all(a > b for a, b in zip(down, down[1:]))


def test_h_functional_bound(p51, pp51):
    # |H[U_lam + w]| <= C (||h|^{1/p*} U_lam||_*^{p*} + ||w||^{p*}) with finite C
    h = BUILTIN_H["exp_bump"]
    ratios = []
    for lam in (0.1, 1.0, 10.0):
        res = solve_correction(pp51, lam)
        u = solution_radial(res)
        lhs = abs(weighted_H(p51, h, u))
        rhs = h_weighted_star_norm(p51, h, lam) ** p51.pstar + res.omega_norm ** p51.pstar
        ratios.append(lhs / rhs)
    assert np.isfinite(ratios).all()
    assert max(ratios) < 10.0


def test_find_perturbed_solution(p51, pp51):
    rep = find_perturbed_solution(pp51)
    assert rep["residual"] < 1e-6
    assert rep["positive"]
    assert rep["contraction_factor"] < 0.9
    assert 0.01 < rep["lambda_star"] < 100.0
    assert abs(rep["l"]) < 1e-10
    assert rep["lambda_star_polished"]


@pytest.mark.parametrize("N, a", PARAM_SETS + [(9, -4.8), (4, 0.0504), (12, -7.0)])
def test_block_polish_matches_brentq(N, a):
    # the root of the Chebyshev interpolant of l/lam against brentq on l
    # itself, in the curve cell that holds lambda*
    pp = PerturbationProblem(validate_params(N, a), BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    rep = find_perturbed_solution(pp)
    assert rep["lambda_star_polished"]
    grid = reduction.CURVE_SCALES
    j = int(np.searchsorted(grid, rep["lambda_star"]))
    lam_ref = brentq_lambda_star(pp, grid[j - 1], grid[j])
    assert abs(rep["lambda_star"] / lam_ref - 1.0) <= 1e-10
    energy_ref = solve_correction(pp, lam_ref).energy
    assert abs(rep["energy"] / energy_ref - 1.0) <= 1e-14


@pytest.mark.parametrize("f, x_near, want", [
    (np.sin, 2.5, [0.0]),                                             # one root
    (lambda x: (x - 0.2) * (x - 2.1) * (x + 3.0), 1.5, [2.1]),        # two: the nearer
    (lambda x: (x - 0.2) * (x - 2.1) * (x + 3.0), 1.0, [0.2]),
    (lambda x: x * x + 1.0, 1.0, []),                                 # complex roots only
    (lambda x: (x + 2.0) * (x - 4.0), 1.0, []),                       # real, outside
])
def test_bracketed_root_selection(f, x_near, want):
    # interpolants built as the polish builds them, on [xa, xb] = [-1, 3]
    xa, xb = -1.0, 3.0
    k = np.arange(reduction.POLISH_POINTS)
    xs = 0.5 * (xa + xb) - 0.5 * (xb - xa) * np.cos(np.pi * k / (reduction.POLISH_POINTS - 1))
    cheb = Chebyshev.fit(xs, f(xs), reduction.POLISH_POINTS - 1, domain=[xa, xb])
    x = _bracketed_root(cheb, x_near)
    if want:
        assert abs(x - want[0]) < 1e-8
    else:
        assert x is None


def test_block_polish_work(p51):
    # after the curve, the polish solves its POLISH_POINTS - 2 interior
    # scales and the final solve one more: no scale is solved twice
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    solve_corrections(pp, np.logspace(-2, 2, 33))
    assert len(pp._cache) == 33
    rep = find_perturbed_solution(pp)
    assert rep["lambda_star_polished"]
    assert len(pp._cache) == 33 + reduction.POLISH_POINTS - 2 + 1
    assert rep["polish_l_ratio"] < 1e-10


@pytest.mark.parametrize("lo, hi, sign", [(-2.0, -0.5, "negative"), (0.5, 2.0, "positive")])
def test_curve_without_sign_change_is_typed(monkeypatch, p51, lo, hi, sign):
    # a curve wholly below or wholly above lambda* brackets no sign change
    # of l: the reduced energy is monotone across it, and no scale is taken
    # for a critical point
    monkeypatch.setattr(reduction, "CURVE_SCALES", np.logspace(lo, hi, 7))
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=180)
    with pytest.raises(NoInteriorExtremum, match=rf"l/lam is {sign} above its rounding floor "
                                                 rf"at 7 of the 7 scales of the curve, lam "
                                                 rf"from {10 ** lo:g} to {10 ** hi:g}"):
        find_perturbed_solution(pp)


@pytest.mark.parametrize("N, a", [(6, -1.0), (5, 1.0), (7, -2.0)])
def test_min_ratio_to_bubble(N, a):
    # the positivity measure is the minimum of (U_lam + w_lam)/U_lam over all
    # of (0, inf): it agrees with the ratio summed on the reduction's rule
    # and does not move when the star integrals run on a composite rule over
    # |ln s| <= 22, far past the rule's nodes
    p = validate_params(N, a)

    def solution(pp):
        return pp, find_perturbed_solution(pp)

    delta = (p.M - 2.0) / 2.0
    pp, rep = solution(PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160))
    lam = rep["lambda_star"]
    nu = lam ** (1.0 / p.q)
    s = rule_in_s(pp.rule, delta).s
    bubble = sobolev_bubble(p, lam).form.eval(s)
    w = nu ** ((p.M - 4.0) / 2.0) * omega_hat(rep["result"]).eval(nu * s)
    on_grid = float(np.min((bubble + w) / bubble))
    assert 0.0 < rep["min_ratio_to_bubble"] <= on_grid + 1e-14
    assert rep["min_ratio_to_bubble"] == pytest.approx(on_grid, abs=1e-6)
    assert rep["positive"]
    wide_pp, wide = solution(perturbation_on(composite_rule(160, -22.0, 22.0, 64, delta), p,
                                             BUILTIN_H["exp_bump"], 1e-3, nodes=160))
    assert rule_in_s(wide_pp.rule, delta).u[-1] - rule_in_s(pp.rule, delta).u[-1] > 15.0
    assert abs(wide["min_ratio_to_bubble"] - rep["min_ratio_to_bubble"]) <= 1e-12


def test_large_M_working_basis_is_cut(pp51):
    # at (10, 1.7), M = 55.3, the diagonal basis does not fix (U + w)/U
    # pointwise (its p_j reach 1e27 times p_0 at t = 1 per unit alpha-norm),
    # so the working basis is the pencil's on the Legendre directions the
    # mass controls: fewer than m, holding the bubble at mu = 1 and the
    # dilation tangent.  At (5, 1) the diagonal basis stands, uncut
    assert pp51.family is pp51.problem.basis.family
    assert pp51.kept == pp51.problem.basis.m
    p = validate_params(10, 1.7)
    pp = PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    assert pp.family is not pp.problem.basis.family
    assert 64 < pp.kept < 160
    assert pp.G[0] / pp.scale == pytest.approx(1.0, rel=1e-10)
    assert np.sum(pp.bU ** 2 / pp.G) == pytest.approx(pp.norm0, rel=1e-9)
    assert np.sum(pp.d ** 2 / pp.G) == pytest.approx(tangent_norm(pp) ** 2, rel=1e-9)


@pytest.mark.parametrize("N, a", PARAM_SETS + [(10, 1.7)])
def test_phi_diagonal_product_is_exact(N, a):
    # in the diagonal basis phi_i/U_1 = x_i p_i(t)/c is formed row by row,
    # from the rows of the assembly pass, bit for bit the product W^T P / c
    # with W = diag(x), P the family's own rows at the rule's map values and
    # U_1 = c E; the cut basis at (10, 1.7) still forms that product.  So are
    # the bubble's and the tangent's products with phi_i, x_i A_i0 and x_i A_i1,
    # and the positivity series' coefficients W c
    p = validate_params(N, a)
    pp = PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    basis = pp.problem.basis
    assert (pp.family is basis.family) == ((N, a) != (10, 1.7))
    assert (pp.W is None) == (pp.family is basis.family)
    W = np.diag(pp.x) if pp.W is None else pp.W
    rows = pp.family.rows(pp.problem.grid.t, basis.m)
    assert np.array_equal(pp.phi, W.T @ rows / bubble_c(pp))
    X = W if pp.X is None else pp.X
    A = pp.problem.A
    c0 = bubble_c(pp) / basis.family.p0
    assert np.array_equal(pp.bU, pp.scale * c0 * (X.T @ A[:, 0]))
    c1 = c0 * (p.N - 4.0 + p.alpha) / 2.0 * float(basis.family.off[1])
    assert np.array_equal(pp.d, -pp.scale * c1 * (X.T @ A[:, 1]))
    c = np.random.default_rng(0).standard_normal(pp.kept)
    assert np.array_equal(pp.family_coeffs(c), W @ c)


@pytest.mark.parametrize("N, a", [(5, 1.0), (7, -2.0), (3, 1.5), (10, 1.7)])
def test_gain_closed_form_matches_recurrence(N, a):
    # the working basis is chosen from p_j(1)/p_0, the product of the
    # family's closed-form ratios; against the recurrence run at t = 1
    p = validate_params(N, a)
    pp = PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    fam = pp.problem.basis.family
    m = pp.problem.basis.m
    closed = np.concatenate(([1.0], np.cumprod(fam.ratio)))
    with np.errstate(over="ignore"):
        recurrence = fam.rows(np.ones(1), m)[:, 0] / fam.p0
    finite = np.isfinite(recurrence)
    assert finite.sum() > m // 2
    np.testing.assert_allclose(closed[finite], recurrence[finite], rtol=1e-12, atol=0.0)
    # the same branch as the recurrence would take
    mu = pp.problem.A.diagonal() / pp.problem.B.diagonal()
    assert (pp.family is fam) == ((recurrence ** 2 / mu).max() * reduction.MASS_CUT <= 1.0)


def test_forcing_built_once_per_scale(monkeypatch, p51):
    # the weight 1 + eps h(r/lam) of each scale is built once, by the solve
    # that iterates with it; the reduced energy reuses that solve's star term
    built = []
    forcing = PerturbationProblem._forcing

    def counting(self, lams):
        built.extend(np.atleast_1d(lams).tolist())
        return forcing(self, lams)

    monkeypatch.setattr(PerturbationProblem, "_forcing", counting)
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=96)
    rep = find_perturbed_solution(pp)
    assert len(built) == len(set(built)) == 33 + reduction.POLISH_POINTS - 2 + 1
    res = rep["result"]
    c = res.coeffs[None, :]
    star = pp._star(c, forcing(pp, [res.lam]))
    assert res.star == pytest.approx(float(star[0]), rel=1e-14)


def test_independent_residual_oracle(p51, pp51):
    # the assembled solution nearly annihilates the energy gradient against
    # an unrelated family of test functions, by quadrature on the weighted side
    rep = find_perturbed_solution(pp51)
    lam = rep["lambda_star"]
    res = rep["result"] if "result" in rep else None
    res = res or solve_correction(pp51, lam)
    u = solution_radial(res)
    h = BUILTIN_H["exp_bump"]
    grid = default_grid()
    r = grid.nodes
    uplus = np.maximum(u.eval(r), 0.0) ** (p51.pstar - 1.0)
    for k, eta in enumerate([PolyGaussProfile([1.0], 1.0),
                             PolyGaussProfile([0.0, 0.0, 1.0], 0.5),
                             PolyGaussProfile([1.0, 0.0, -0.5], 2.0)]):
        pair = inner_alpha(p51, u, eta, grid)
        forc = sphere_area(p51.N) * grid.integrate(
            (1.0 + pp51.eps * h(r)) * r ** (-p51.alpha) * uplus * eta.eval(r) * r ** (p51.N - 1))
        nrm = math.sqrt(weighted_hessian_norm_sq(p51, eta))            # exact
        assert abs(pair - forc) / nrm < 1e-6
