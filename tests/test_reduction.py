import copy
import math
import warnings

import mpmath
import numpy as np
import pytest

import ckn4.reduction as reduction
from ckn4.calculus import inner_alpha, weighted_H, weighted_hessian_norm_sq
from ckn4.emden import sobolev_bubble
from ckn4.errors import ContractionFailure, EigensolveFailure, NoInteriorExtremum, OnManifold
from ckn4.params import normalization_constant, sphere_area, validate_params
from ckn4.profiles import PolyGaussProfile, dilation_tangent, extremal_U, kernel_Z0
from ckn4.reduction import (
    BUILTIN_H,
    SCAN_HALF_WIDTH,
    PerturbationProblem,
    RadialCombination,
    dist_to_manifold,
    find_perturbed_solution,
    h_weighted_star_norm,
    reduced_energies,
    reduced_energy,
    remainder_quotient,
    remainder_scan,
    solve_correction,
    solve_corrections,
    _wide_grid,
)
from ckn4.spectrum import SGrid, mode_eigenvalues
from conftest import PARAM_SETS, applied, brentq_lambda_star, full_grid_energy, wide_log_rule


@pytest.fixture(scope="module")
def p51():
    return validate_params(5, 1)


@pytest.fixture(scope="module")
def modes51(p51):
    return mode_eigenvalues(p51, 0, n_eigs=6, nodes=160)


@pytest.fixture(scope="module")
def phi3_unit(p51, modes51):
    f = modes51.eigenfunction(2).to_radial(p51)
    nrm = math.sqrt(weighted_hessian_norm_sq(p51, f))
    return RadialCombination([f], [1.0 / nrm])


@pytest.fixture(scope="module")
def pp51(p51):
    return PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=180)


def test_dist_on_manifold(p51):
    u = extremal_U(p51, 2.0, amplitude=3.0 * extremal_U(p51).amplitude)
    fit = dist_to_manifold(p51, u)
    assert fit.c == pytest.approx(3.0, rel=1e-10)
    assert fit.lam == pytest.approx(2.0, rel=1e-10)
    assert fit.dist < 1e-8
    assert fit.converged


def test_dist_linear_in_offset(p51, phi3_unit):
    U = extremal_U(p51)
    for t in (1e-2, 1e-3):
        u = RadialCombination([U, phi3_unit], [1.0, t])
        fit = dist_to_manifold(p51, u)
        assert fit.dist == pytest.approx(t, rel=5e-3)
        assert fit.lam == pytest.approx(1.0, rel=1e-2)


def test_dist_brute_force_oracle(p51, phi3_unit):
    # direct scan over a (c, lam) product grid bounds the reported distance
    U = extremal_U(p51)
    u = RadialCombination([U, phi3_unit], [1.0, 0.05])
    fit = dist_to_manifold(p51, u)
    norm_U = weighted_hessian_norm_sq(p51, U)
    best = np.inf
    for lam in np.exp(np.linspace(-0.02, 0.02, 9)):
        Ul = extremal_U(p51, float(lam))
        g = inner_alpha(p51, u, Ul)
        c = g / norm_U
        d2 = (weighted_hessian_norm_sq(p51, u) - 2 * c * g + c * c * norm_U)
        best = min(best, math.sqrt(max(d2, 0.0)))
    assert fit.dist <= best * (1.0 + 1e-8)
    assert fit.dist == pytest.approx(best, rel=1e-3)


def test_dist_z0(p51):
    fit = dist_to_manifold(p51, kernel_Z0(p51))
    assert np.isfinite(fit.dist) and fit.dist > 0.1
    assert len(fit.candidates) >= 1


def test_dist_two_bubbles_global_maximum(p51):
    # the fit against a brute-force 4001-point scan of the same range of
    # ln lam, with the distance integrated directly at each scale
    u = RadialCombination([extremal_U(p51, 0.05), extremal_U(p51, 20.0)], [1.0, 0.5])
    fit = dist_to_manifold(p51, u)
    grid = _wide_grid()
    r = grid.nodes
    weight = sphere_area(p51.N) * grid.weights * r ** (p51.alpha + p51.N - 1)
    lap_u = u.deriv(r, 2) + (p51.N - 1) * u.deriv(r, 1) / r
    lap_1 = extremal_U(p51).form.radial_laplacian(p51.N).eval(r)
    norm_U_sq = float(weight @ lap_1 ** 2)
    best = np.inf
    for x in np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, 4001):
        lap_l = extremal_U(p51, math.exp(x)).form.radial_laplacian(p51.N).eval(r)
        c = float(weight @ (lap_u * lap_l)) / norm_U_sq
        best = min(best, math.sqrt(float(weight @ (lap_u - c * lap_l) ** 2)))
    assert fit.dist <= best * (1.0 + 1e-8)
    assert abs(math.log(fit.lam / 0.05)) < 0.1          # the larger bubble's peak


@pytest.mark.parametrize("lam", [0.01, 150.0])
def test_dist_near_range_ends(p51, lam):
    u = extremal_U(p51, lam, amplitude=3.0 * normalization_constant(p51))
    fit = dist_to_manifold(p51, u)
    assert fit.c == pytest.approx(3.0, rel=1e-10)
    assert fit.lam == pytest.approx(lam, rel=1e-10)


def test_dist_outside_scan_not_converged(p51):
    # the peak of g^2 lies beyond the scan's end, so no bracket polishes it
    fit = dist_to_manifold(p51, extremal_U(p51, 512.0))
    assert not fit.converged
    assert fit.lam == pytest.approx(math.exp(SCAN_HALF_WIDTH), rel=1e-12)


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
def test_tangent_laplacian_on_wide_grid(lam):
    # gamma = 9.68: towards r = 1e14, r^p overflows (NaN) or (1 + w r^gamma)^e
    # underflows into the subnormals (finite, but 64 times off at r = 1.9e11)
    p = validate_params(12, -7.68064)
    form = dilation_tangent(p, lam).form.radial_laplacian(p.N)
    r = _wide_grid().nodes
    vals = form.eval(r)
    assert np.isfinite(vals).all()
    with mpmath.workdps(50):
        g, w, e0 = (mpmath.mpf(v) for v in (form.gamma, form.w, form.e0))
        for i in range(1500, r.size, 23):
            x = mpmath.mpf(r[i])
            exact = float(sum(mpmath.mpf(c) * x ** (a * g - b) * (1 + w * x ** g) ** (e0 - m)
                              for (a, b, m), c in form.terms.items()))
            assert abs(vals[i] - exact) <= 1e-9 * abs(exact)


def test_dist_profile_evaluations(monkeypatch, p51, phi3_unit):
    # one scan and one bracket per peak: the 13-start ladder with its polish
    # built the extremal 498 times for this fit
    import ckn4.reduction as reduction
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return extremal_U(*args, **kwargs)

    u = RadialCombination([extremal_U(p51), phi3_unit], [1.0, 1e-2])
    monkeypatch.setattr(reduction, "extremal_U", counted)
    dist_to_manifold(p51, u)
    assert len(calls) <= 100


def test_quotient_nonnegative_and_on_manifold_error(p51):
    g = PolyGaussProfile([1.0, 0.0, 0.2], 1.0)
    assert remainder_quotient(p51, g) >= 0.0
    with pytest.raises(OnManifold):
        remainder_quotient(p51, extremal_U(p51, 1.3))


def test_remainder_scan_limit(p51, modes51, phi3_unit):
    mu2, mu3 = float(modes51.eigenvalues[1]), float(modes51.eigenvalues[2])
    target = 1.0 - mu2 / mu3
    rows = remainder_scan(p51, phi3_unit, [1e-2, 1e-3])
    assert abs(rows[-1]["quotient"] - target) < 0.05 * target
    # the quotient approaches the limit monotonically-ish from below here
    assert abs(rows[0]["quotient"] - target) < 0.1 * target


def test_remainder_scan_samples_direction_once(p51, phi3_unit):
    # the direction's value and two derivatives are taken once for all t
    calls = []

    class Counted:
        def eval(self, r):
            calls.append(0)
            return phi3_unit.eval(r)

        def deriv(self, r, order=1):
            calls.append(order)
            return phi3_unit.deriv(r, order)

    rows = remainder_scan(p51, Counted(), [1e-2, 1e-3])
    assert sorted(calls) == [0, 1, 2]
    assert rows == remainder_scan(p51, phi3_unit, [1e-2, 1e-3])


def test_remainder_scan_higher_modes(p51, modes51):
    # directions with spectral content above mu3 stay above the bound
    mu2, mu3 = float(modes51.eigenvalues[1]), float(modes51.eigenvalues[2])
    f4 = modes51.eigenfunction(3).to_radial(p51)
    nrm = math.sqrt(weighted_hessian_norm_sq(p51, f4))
    w = RadialCombination([f4], [1.0 / nrm])
    rows = remainder_scan(p51, w, [1e-3])
    assert rows[0]["quotient"] >= (1.0 - mu2 / mu3) - 0.05


def test_correction_zero_eps(p51, pp51):
    res = solve_correction(pp51, 1.0, eps=0.0)
    assert res.omega_norm < 1e-8
    assert abs(res.l) < 1e-10


def test_correction_zero_h(p51):
    pp = PerturbationProblem(p51, lambda r: np.zeros_like(np.asarray(r)), 5e-2, nodes=128)
    res = solve_correction(pp, 1.0)
    assert res.omega_norm < 1e-8


def test_correction_linear_regime(pp51):
    r1 = solve_correction(pp51, 1.0, eps=1e-3)
    r2 = solve_correction(pp51, 1.0, eps=5e-4)
    assert 1.8 <= r1.omega_norm / r2.omega_norm <= 2.2
    assert r1.contraction_factor < 0.9
    assert r1.converged and r1.iterations <= 100
    assert r1.residual < 1e-8
    # constraint: the correction is orthogonal to the dilation tangent
    overlap = float(pp51.d @ r1.coeffs)
    assert abs(overlap) <= 1e-8 * r1.omega_norm * pp51.tangent_norm


def test_correction_linear_response_oracle(pp51):
    # first-order prediction: a single frozen-Jacobian step solves the
    # linearized system for the eps-forcing alone; the converged fixed point
    # may differ from it only at second order in eps
    eps = 1e-3
    res = solve_correction(pp51, 1.0, eps=eps)
    lin = solve_correction(pp51, 1.0, eps=eps, max_iter=1)
    diffG = math.sqrt(float(np.sum(pp51.G * (res.coeffs - lin.coeffs) ** 2)))
    assert diffG < 20.0 * res.omega_norm * eps
    # and scaling eps by 8 scales the response by 8 up to the same order
    res8 = solve_correction(pp51, 1.0, eps=eps / 8.0)
    diff8 = math.sqrt(float(np.sum(pp51.G * (res.coeffs - 8.0 * res8.coeffs) ** 2)))
    assert diff8 < 20.0 * res.omega_norm * eps


def test_correction_orthogonal_basis(pp51):
    assert pp51.basis_tangent_overlaps() < 1e-8


def test_tangent_index_shared(pp51):
    # the elimination's pivot-free row and basis_tangent_overlaps' excluded
    # mode are one index: the largest normalized overlap with the tangent
    overlaps = np.abs(pp51.d) / np.sqrt(pp51.G)
    assert pp51.i_tan == int(np.argmax(overlaps))
    assert pp51.i_tan == int(np.argmin(np.abs(pp51.D) / pp51.G))
    moved = copy.copy(pp51)
    moved.i_tan = (pp51.i_tan + 1) % pp51.kept
    assert moved.basis_tangent_overlaps() > 0.99


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
    res = pp._residual(np.zeros(k), pp._forcing(1.0, pp.eps))
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

    def patched(A, B, drop=1e-13):
        mu, X, kept = solve_pencil(A, B, drop=drop)
        mu = mu.copy()
        mu[2] = (p51.pstar - 1.0) * (1.0 + offset)
        return mu, X, kept

    monkeypatch.setattr(reduction, "_solve_pencil", patched)
    with pytest.raises(EigensolveFailure, match=r"perturbation Jacobian at N=5, alpha=1\.0 \(M=8\)"):
        PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=96)


def test_contraction_guard(p51):
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 12.0, nodes=96)
    with pytest.raises(ContractionFailure):
        solve_correction(pp, 1.0)


def test_correction_cache_keeps_refuse_factor(p51):
    # a result cached under the default refuse_factor must not stand in for
    # a call whose stricter refuse_factor rejects the same iteration
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=96)
    assert solve_correction(pp, 1.0).converged
    with pytest.raises(ContractionFailure):
        solve_correction(pp, 1.0, refuse_factor=1e-6)


@pytest.mark.parametrize("N, a", PARAM_SETS)
def test_lockstep_matches_single_scale(N, a):
    # every column of the lockstep block on the default curve grid against
    # the same scale solved alone with a fresh cache, relative to the
    # solution U_lam + w_lam: far from h the correction itself sits at the
    # rounding floor of the fixed point, which is set by the bubble
    pp = PerturbationProblem(validate_params(N, a), BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    lams = np.logspace(-2, 2, 33)
    block = solve_corrections(pp, lams)
    assert all(solve_correction(pp, lam) is res for lam, res in zip(lams, block))
    for lam, res in zip(lams, block):
        pp._cache.clear()
        one = solve_correction(pp, lam)
        diff = math.sqrt(float(np.sum(pp.G * (res.coeffs - one.coeffs) ** 2)))
        assert diff <= 1e-12 * math.sqrt(pp.norm_sq(one.coeffs))
        assert (res.iterations, res.converged) == (one.iterations, one.converged)


def test_lockstep_failure_names_first_scale(p51):
    # at eps = 1 the observed contraction factor is 0.1252, then 0.1303 at
    # lam = 0.9 and 0.1276 at lam = 1: under a refuse factor of 0.1265,
    # lam = 1 fails at the second sweep and lam = 0.9 only at the third,
    # yet the block names the first failing scale in its order, as the
    # scale-by-scale solve would
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1.0, nodes=96)
    with pytest.raises(ContractionFailure, match=r"factor 0\.130 >= 0\.1265 at scale 0\.9$"):
        solve_corrections(pp, [0.9, 1.0, 0.5], refuse_factor=0.1265)
    with pytest.raises(ContractionFailure, match=r"factor 0\.128 >= 0\.1265 at scale 1\.0$"):
        solve_correction(pp, 1.0, refuse_factor=0.1265)
    # the scale that passed was cached, the failing ones were not
    assert [key[0] for key in pp._cache] == [0.5]


def test_weight_sign_checked_at_every_scale(p51):
    # h = 2 only past r = 1e11, beyond the grid's r = s^q <= e^24 at scale 1
    # but within r/lam at lam = 0.01: there 1 + eps h = -0.8 changes sign
    def h(r):
        return np.where(np.asarray(r) > 1e11, 2.0, 0.0)

    pp = PerturbationProblem(p51, h, -0.9, nodes=96)
    assert solve_correction(pp, 1.0).converged
    with pytest.raises(ContractionFailure, match=r"\|eps\| sup\|h\| = 1\.800 exceeds 1"):
        solve_correction(pp, 0.01)


def test_gamma_flat_at_zero_eps(p51):
    pp0 = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 0.0, nodes=160)
    lams = np.logspace(-1, 1, 7)
    g = np.array([reduced_energy(pp0, lam) for lam in lams])
    assert g.max() - g.min() < 1e-9 * abs(pp0.unperturbed_energy)
    with pytest.raises(NoInteriorExtremum):
        find_perturbed_solution(pp0, lam_grid=np.logspace(-1, 1, 9))


@pytest.mark.parametrize("N, a", [(5, 1.0), (6, -1.0), (7, -2.0)])
def test_perturbation_grid_converged(monkeypatch, N, a):
    # Gamma on the default rule against the same zones with twice the nodes
    # per panel
    p = validate_params(N, a)
    lams = (1e-2, 1.0, 1e2)

    def gammas():
        pp = PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=220)
        return pp, np.array([reduced_energy(pp, lam) for lam in lams])

    pp, coarse = gammas()
    build = SGrid.build.__func__
    monkeypatch.setattr(SGrid, "build", classmethod(
        lambda cls, m, **kw: build(cls, m, **kw, panel_pts=128)))
    fine_pp, fine = gammas()
    assert fine_pp.s.size == 2 * pp.s.size
    assert np.max(np.abs(coarse - fine) / np.abs(fine)) <= 1e-12


def test_perturbation_grid_size(p51):
    # 12 096 nodes before the rule was sized to the basis, 6 048 before its
    # window was sized to the star terms
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=220)
    assert pp.s.size <= 3392


@pytest.mark.parametrize("N, a", PARAM_SETS + [(9, -4.8)])
def test_star_window_converged(monkeypatch, N, a):
    # Gamma at lam = 1e-3, 1 and 1e3 against the same rule with its window
    # widened by 10 units of ln s at each end; (9, -4.8) has M near 4 and
    # q = 0.29, the widest transport of h(r/lam)
    p = validate_params(N, a)
    lams = (1e-3, 1.0, 1e3)

    def gammas():
        pp = PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
        return pp, np.array([reduced_energy(pp, lam) for lam in lams])

    pp, narrow = gammas()
    monkeypatch.setattr(SGrid, "HALF_WIDTH", SGrid.HALF_WIDTH + 10.0)
    wide_pp, wide = gammas()
    assert np.log(wide_pp.s[-1] / pp.s[-1]) > 9.0 and np.log(pp.s[0] / wide_pp.s[0]) > 9.0
    assert np.max(np.abs(narrow - wide) / np.abs(wide)) <= 1e-12


@pytest.mark.parametrize("N, a", PARAM_SETS + [(9, -4.8), (4, 0.0504), (12, -7.0)])
def test_windowed_energy_matches_full_grid(N, a):
    # the star term summed in the fixed point's scale-1 frame against the
    # physical-frame integral on a grid widened to each scale: the dilation
    # invariance the program assumes, measured out to lam = 1e-4 and 1e4,
    # where the bubble's centre lies 41 units of ln s out at (12, -7)
    pp = PerturbationProblem(validate_params(N, a), BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    lams = np.array([1e-4, 1e-3, 1.0, 1e3, 1e4])
    results = solve_corrections(pp, lams)
    got = reduced_energies(pp, lams, results=results)
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
        coeffs = pp.X @ res.coeffs
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
        assert abs(reduced_energy(pp51, lam) - E0) < 1e-5 * abs(E0)


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
        omega = res.omega_radial()
        U = extremal_U(p51, lam)
        u = RadialCombination([U, omega], [1.0, 1.0])
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
    grid = np.logspace(-2, 2, 33)
    j = int(np.searchsorted(grid, rep["lambda_star"]))
    lam_ref = brentq_lambda_star(pp, grid[j - 1], grid[j])
    assert abs(rep["lambda_star"] / lam_ref - 1.0) <= 1e-10
    energy_ref = reduced_energy(pp, lam_ref, result=solve_correction(pp, lam_ref))
    assert abs(rep["energy"] / energy_ref - 1.0) <= 1e-14


def test_block_polish_work(p51):
    # after the curve, the polish solves its POLISH_POINTS - 2 interior
    # scales and the final solve one more: no scale is solved twice
    pp = PerturbationProblem(p51, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
    solve_corrections(pp, np.logspace(-2, 2, 33))
    assert len(pp._cache) == 33
    rep = find_perturbed_solution(pp)
    assert rep["lambda_star_polished"]
    assert len(pp._cache) == 33 + reduction.POLISH_POINTS - 2 + 1
    assert rep["polish_scales"] == reduction.POLISH_POINTS - 2
    assert rep["polish_l_ratio"] < 1e-10


def test_unpolished_lambda_star_is_reported(pp51):
    # a curve grid wholly below lambda* brackets no sign change of l: the
    # parabolic scale stands, and the report says it was not polished
    grid = np.logspace(-2, -0.5, 7)
    rep = find_perturbed_solution(pp51, lam_grid=grid)
    assert not rep["lambda_star_polished"]
    assert rep["polish_scales"] == 0
    assert grid[-3] <= rep["lambda_star"] <= grid[-1]
    assert abs(rep["l"]) > 1e-10


@pytest.mark.parametrize("N, a", [(6, -1.0), (5, 1.0), (7, -2.0)])
def test_min_ratio_to_bubble(monkeypatch, N, a):
    # the positivity measure is the minimum of (U_lam + w_lam)/U_lam over all
    # of (0, inf): it agrees with the ratio summed on the reduction's grid
    # and does not move when that grid's window is widened by 10 units of
    # ln s at each end
    p = validate_params(N, a)

    def solution():
        pp = PerturbationProblem(p, BUILTIN_H["exp_bump"], 1e-3, nodes=160)
        return pp, find_perturbed_solution(pp)

    pp, rep = solution()
    lam = rep["lambda_star"]
    nu = lam ** (1.0 / p.q)
    bubble = sobolev_bubble(p, lam).form.eval(pp.s)
    w = nu ** ((p.M - 4.0) / 2.0) * rep["result"].omega_hat().eval(nu * pp.s)
    on_grid = float(np.min((bubble + w) / bubble))
    assert 0.0 < rep["min_ratio_to_bubble"] <= on_grid + 1e-14
    assert rep["min_ratio_to_bubble"] == pytest.approx(on_grid, abs=1e-6)
    assert rep["positive"]
    monkeypatch.setattr(SGrid, "HALF_WIDTH", SGrid.HALF_WIDTH + 10.0)
    wide_pp, wide = solution()
    assert wide_pp.s.size > pp.s.size
    assert abs(wide["min_ratio_to_bubble"] - rep["min_ratio_to_bubble"]) <= 1e-12


def test_independent_residual_oracle(p51, pp51):
    # the assembled solution nearly annihilates the energy gradient against
    # an unrelated family of test functions, by quadrature on the weighted side
    rep = find_perturbed_solution(pp51)
    lam = rep["lambda_star"]
    res = rep["result"] if "result" in rep else None
    res = res or solve_correction(pp51, lam)
    omega = res.omega_radial()
    U = extremal_U(p51, lam)
    u = RadialCombination([U, omega], [1.0, 1.0])
    h = BUILTIN_H["exp_bump"]
    from ckn4.calculus import default_grid, sphere_area
    grid = default_grid()
    r = grid.nodes
    uplus = np.maximum(u.eval(r), 0.0) ** (p51.pstar - 1.0)
    for k, eta in enumerate([PolyGaussProfile([1.0], 1.0),
                             PolyGaussProfile([0.0, 0.0, 1.0], 0.5),
                             PolyGaussProfile([1.0, 0.0, -0.5], 2.0)]):
        pair = inner_alpha(p51, u, eta, grid)
        forc = sphere_area(p51.N) * grid.integrate(
            (1.0 + pp51.eps * h(r)) * r ** (-p51.alpha) * uplus * eta.eval(r) * r ** (p51.N - 1))
        nrm = math.sqrt(weighted_hessian_norm_sq(p51, eta, grid))
        assert abs(pair - forc) / nrm < 1e-6
