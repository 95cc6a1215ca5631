"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Each criterion pins its tolerances here; nothing is deferred to runtime
calibration.
"""

import math
import time

import numpy as np
import scipy.linalg
from conftest import (alignment, biradial_fd_residual, composite_grid_pencil, el_residual_relative,
                      full_grid_energy, params_at_M, random_trial_profiles, trial_rayleigh_quotient)

from ckn4.calculus import rayleigh_quotient
from ckn4.params import (
    best_constant_radial,
    fourth_order_sobolev_constant,
    sobolev_constant_C_forms,
    validate_params,
)
from ckn4.profiles import (
    biradial_residual,
    el_residual_sup,
    extremal_U,
    nonradial_branch,
)
from ckn4.emden import norm_identity_check, sobolev_bubble, star_identity_check
from ckn4.spectrum import mode_eigenvalues, verify_kernel
from ckn4.reduction import (
    BUILTIN_H,
    PerturbationProblem,
    find_perturbed_solution,
    remainder_curve,
    solve_correction,
)

PARAM_SETS = [(5, 1.0), (5, 0.5), (6, -1.0), (3, 1.5), (7, -2.0)]


def _verdict(num, name, ok, detail, t0, budget):
    elapsed = time.time() - t0
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_constant_consistency():
    t0 = time.time()
    worst_s = 0.0
    for N in range(5, 13):
        p = validate_params(N, 0)
        S = best_constant_radial(p)
        classical = fourth_order_sobolev_constant(float(N))
        worst_s = max(worst_s, abs(S - classical) / classical)
    worst_c = 0.0
    for M in (4.5, 5.0, 6.0, 8.0, 10.7):
        thm, proof = sobolev_constant_C_forms(params_at_M(M))
        worst_c = max(worst_c, abs(thm - proof) / abs(thm))
    ok = worst_s <= 1e-12 and worst_c <= 1e-12
    _verdict(1, "constant consistency", ok,
             f"max rel dev: unweighted {worst_s:.2e}, C-forms {worst_c:.2e}; tol 1e-12",
             t0, budget=1.0)


def test_criterion_2_extremality():
    t0 = time.time()
    worst_rq = 0.0
    worst_gap = np.inf
    for N, a in PARAM_SETS:
        p = validate_params(N, a)
        S = best_constant_radial(p)
        rq = rayleigh_quotient(p, extremal_U(p))
        worst_rq = max(worst_rq, abs(rq - S) / S)
        for trial in random_trial_profiles(50, seed=hash((N, int(10 * a))) % 2 ** 31):
            worst_gap = min(worst_gap, trial_rayleigh_quotient(p, trial) - S)
    ok = worst_rq <= 1e-8 and worst_gap >= -1e-8
    _verdict(2, "extremality", ok,
             f"extremal quotient rel dev {worst_rq:.2e} (tol 1e-8); "
             f"min trial gap {worst_gap:.3e} >= -1e-8",
             t0, budget=10.0)


def test_criterion_3_euler_lagrange_identity():
    t0 = time.time()
    r = np.logspace(-3, 3, 601)
    worst = exact = 0.0
    for N, a in PARAM_SETS:
        p = validate_params(N, a)
        worst = max(worst, float(np.max(el_residual_relative(p, extremal_U(p), r))))
        exact = max(exact, el_residual_sup(p, extremal_U(p)))
    ok = worst < 1e-9 and exact <= 1e-15
    _verdict(3, "Euler-Lagrange identity", ok,
             f"sampled sup relative residual {worst:.2e}; tol 1e-9; exact {exact:.1e} <= 1e-15",
             t0, budget=1.0)


def test_criterion_4_transform_identity():
    t0 = time.time()
    from ckn4.profiles import PolyGaussProfile

    worst = 0.0
    for N, a in PARAM_SETS:
        p = validate_params(N, a)
        for u in (extremal_U(p), PolyGaussProfile([1.0], 1.0)):
            worst = max(worst, norm_identity_check(p, u)[2])
            worst = max(worst, star_identity_check(p, u)[2])
    ok = worst < 1e-7
    _verdict(4, "transform identity", ok,
             f"max rel err {worst:.2e}; tol 1e-7", t0, budget=5.0)


def test_criterion_5_spectrum():
    t0 = time.time()
    worst_mu = 0.0
    worst_align = 1.0
    worst_shift = 0.0
    min_margin = np.inf
    for N, a in PARAM_SETS:
        p = validate_params(N, a)
        res = mode_eigenvalues(p, 0, n_eigs=4, nodes=400)
        mu = res.eigenvalues
        target = p.pstar - 1.0
        worst_mu = max(worst_mu, abs(mu[0] - 1.0), abs(mu[1] - target) / target)
        bub = sobolev_bubble(p)
        tangent = lambda s: (1 - s ** 2) * (1 + s ** 2) ** (-(p.M - 2) / 2.0)
        worst_align = min(worst_align, alignment(res, 0, bub.eval), alignment(res, 1, tangent))
        min_margin = min(min_margin, (mu[2] - mu[1]) / mu[1])
        # the pencil at weight scale 2, B_2 on the composite reference rule, by a
        # dense generalized eigensolve of its reciprocal (B_2, A), whose largest
        # eigenvalues are 1/mu to rounding
        pr = res.problem
        _, B2 = composite_grid_pencil(pr, weight_lambda=2.0)
        mu2 = 1.0 / scipy.linalg.eigh(B2, pr.A, eigvals_only=True)[::-1][:4]
        worst_shift = max(worst_shift, float(np.max(np.abs(mu2 - mu))))
    ok = (worst_mu <= 1e-4 and worst_align > 0.999 and min_margin > 0.0
          and worst_shift <= 1e-6)
    _verdict(5, "spectrum", ok,
             f"eig dev {worst_mu:.2e} (tol 1e-4); alignment {worst_align:.6f} > 0.999; "
             f"mu3 margin {min_margin:.3f} > 0; scale shift {worst_shift:.2e} (tol 1e-6); "
             f"400 nodes", t0, budget=150.0)


def test_criterion_6_kernel_dimension_jump():
    t0 = time.time()
    dims = {}
    match = {}
    for a in (-2.5, -2.0, -1.5):
        p = validate_params(7, a)
        rep = verify_kernel(p, k_max=3, nodes=160)
        dims[a] = rep["kernel_dim"]
        mode2 = next(m for m in rep["modes"] if m["k"] == 2)
        match[a] = mode2["rel_distance_to_target"] < 1e-3
    rep50 = verify_kernel(validate_params(5, 0), k_max=3, nodes=160)
    ok = (match == {-2.5: False, -2.0: True, -1.5: False}
          and dims == {-2.5: 1, -2.0: 28, -1.5: 1}
          and rep50["kernel_dim"] == 6)
    _verdict(6, "kernel-dimension jump", ok,
             f"mode-2 match {match}; dims {dims}; (5,0) dim {rep50['kernel_dim']}",
             t0, budget=60.0)


def test_criterion_7_remainder_bound():
    t0 = time.time()
    p = validate_params(5, 1)
    res = mode_eigenvalues(p, 0, n_eigs=4, nodes=400)
    mu2, mu3 = float(res.eigenvalues[1]), float(res.eigenvalues[2])
    target = 1.0 - mu2 / mu3
    quot = remainder_curve(res, [1e-3])[0]["quotient"]
    rel = abs(quot - target) / target
    ok = rel <= 0.05
    _verdict(7, "remainder bound", ok,
             f"quotient {quot:.6f} vs 1-mu2/mu3 {target:.6f}, rel dev {rel:.2%} <= 5%",
             t0, budget=30.0)


def test_criterion_8_lyapunov_schmidt():
    t0 = time.time()
    p = validate_params(5, 1)
    h = BUILTIN_H["exp_bump"]
    eps = 1e-3
    pp = PerturbationProblem(p, h, eps, nodes=220)
    res = solve_correction(pp, 1.0)
    r_half = solve_correction(PerturbationProblem(p, h, eps / 2.0, nodes=220), 1.0)
    ratio = res.omega_norm / r_half.omega_norm

    # Gamma_0 in the physical frame: the program sums it at scale 1, where
    # its span is 0 by construction
    pp0 = PerturbationProblem(p, h, 0.0, nodes=220)
    lams = np.logspace(-1, 1, 9)
    g0 = np.array([full_grid_energy(pp0, lam, solve_correction(pp0, lam)) for lam in lams])
    gamma0_span = float(g0.max() - g0.min())

    E0 = pp.unperturbed_energy
    endpoint_dev = max(abs(solve_correction(pp, lam).energy - E0) for lam in (1e-3, 1e3))
    endpoint_rel = endpoint_dev / abs(E0)

    rep = find_perturbed_solution(pp)

    ok = (res.converged and res.contraction_factor < 0.9
          and 1.8 <= ratio <= 2.2
          and gamma0_span <= 1e-9
          and endpoint_rel <= 1e-6
          and rep["residual"] < 1e-6
          and rep["positive"])
    _verdict(8, "Lyapunov-Schmidt", ok,
             f"contraction {res.contraction_factor:.2e} < 0.9; eps-ratio {ratio:.4f} in [1.8,2.2]; "
             f"Gamma_0 span {gamma0_span:.2e} <= 1e-9; endpoint dev {endpoint_dev:.2e} "
             f"(rel {endpoint_rel:.2e} <= 1e-6); residual {rep['residual']:.2e} < 1e-6; "
             f"positive={rep['positive']} at lambda*={rep['lambda_star']:.4f}",
             t0, budget=120.0)


def test_criterion_9_nonradial_branch():
    t0 = time.time()
    details = []
    ok = True
    for a in (0.0, 0.3):
        prof = nonradial_branch(8, a)
        sups = [biradial_fd_residual(prof, n)["rel_sup"] for n in (100, 200, 400)]
        orders = [math.log2(s1 / s2) for s1, s2 in zip(sups, sups[1:])]
        exact = biradial_residual(prof)
        ok = ok and sups[1] < 1e-3 and min(orders) >= 2.0 and exact["rel_sup"] <= 1e-13
        details.append(f"a={a}: rel {sups[1]:.2e} at n=200, orders {[f'{o:.2f}' for o in orders]}, "
                       f"exact {exact['rel_sup']:.1e} <= 1e-13")
    # at a = 0 the difference oracle's operator field reproduces the exact
    # closed-form image of the radial profile to discretization error
    p = validate_params(8, -2)
    rep = biradial_fd_residual(nonradial_branch(8, 0.0), 200)
    U = extremal_U(p)
    lhs_form = U.form.radial_laplacian(p.N).mul_rpow(a=-1, b=-2).radial_laplacian(p.N)
    R = np.sqrt(rep["t"][:, None] ** 2 + rep["t"][None, :] ** 2)
    exact = lhs_form.eval(R.ravel()).reshape(R.shape)
    mask = rep["mask"]
    dev = np.abs(rep["lap_w"] - exact)[mask].max() / np.abs(exact)[mask].max()
    ok = ok and dev < 1e-3
    details.append(f"a=0 field vs exact radial image: rel sup {dev:.2e} < 1e-3")
    _verdict(9, "nonradial branch", ok, "; ".join(details), t0, budget=120.0)
