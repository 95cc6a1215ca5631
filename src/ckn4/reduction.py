"""The remainder quotient and the reduced perturbation solve, in the mode-0 pencil's frame.

The remainder quotient is taken along u = U_1 + t ||U_1|| w, w the unit
third eigenfunction of the mode-0 pencil (remainder_curve).  w is
orthogonal to the bubble and to the dilation tangent, so the nearest point
of the manifold {c U_lam} is U_1 itself wherever the fit there is a local
maximum, and dist(u, M) = t ||U_1|| exactly; the deficit is summed on the
pencil's own rule with its first-order term removed by hand, and needs no
fit and no radial grid.

The correction equation is solved in the scale-transported frame: solving
at scale lam with perturbation weight h(x) is the same problem as solving
at scale 1 with weight h(x/lam), because the scaling map is an isometry of
every functional involved except the explicit h-term.  The discrete space
is the spectral basis of the mode-0 linearized pencil, in which the frozen
Jacobian of the fixed-point map is diagonal plus a one-dimensional border.
U_1 is nondegenerate, so only the dilation tangent's diagonal entry is near
zero, and each step is solved in closed form: every other row is eliminated
directly, leaving a 2x2 system in the tangent coefficient and the
multiplier, with no LAPACK call.  The scales of the Gamma curve are
solved as one block (solve_corrections): their fixed-point sweeps run in
lockstep over an (L, kept) coefficient block, two matrix products per
sweep, and each scale stops at its own tolerance, or at the rounding floor
of ||U_lam + w||_alpha where that norm is huge.  lambda* is polished the
same way: the multiplier l, proportional to Gamma', is analytic in ln lam,
so it is sampled at Chebyshev-Lobatto scales of the bracket, all as one
block, and lambda* is the root of its Chebyshev interpolant.
The quadratic terms of the reduced energy are exact in that basis: the
bubble is c0 psi_0, so its alpha-products come from the pencil's stiffness
matrix, and scaling is an isometry of the alpha-norm.  Only the star and h
terms are integrated, at scale 1, on the mode-0 pencil's own (m+8)-node
Gauss-Gegenbauer rule: the star measure U_1^{p*} s^{M-1} ds is the rule's
weight times (1-t^2)^2, and (U_1 + w)/U_1 is a polynomial in t, so every
such integrand is the rule's weight times a smooth function of t; h(r/lam)
is smooth for the built-in h, and a CSV h's kinks, which move with lam,
converge only algebraically on any rule the scales share.  The fixed point
works on that ratio and on phi_i/U_1, with the weights of
int U_1^{p*} f s^{M-1} ds formed in logs from the Christoffel numbers; in
the diagonal basis on the pencil's rule phi_i/U_1 comes from the assembly
pass's own rows.  The star term and the reduced energy itself are summed in
the same frame, from the fixed point's own arrays, when each scale
converges, with the weight it iterated with (CorrectionResult.energy).  The
program so assumes the dilation invariance of the reduced energy; the tests
measure it, against the star term integrated in the physical frame on a
composite grid widened to each scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import JacobiRule
from .errors import (ContractionFailure, EigensolveFailure, MOutOfRange, NoInteriorExtremum,
                     QuadratureFailure)
from .params import REFUSE_FACTOR, Params, normalization_constant, sphere_area
from .spectrum import (ModeProblem, SpectrumResult, _assembled, _log_s, _solve_pencil,
                       _solve_pencil_cut)

__all__ = [
    "remainder_curve",
    "PerturbationProblem",
    "CorrectionResult",
    "solve_correction",
    "solve_corrections",
    "find_perturbed_solution",
    "BUILTIN_H",
]


def exp_bump(r):
    """h(r) = e^{-r} r^2/(1+r^2).

    r is capped at 1e150, where e^{-r} is already 0, so that r*r stays finite.
    """
    r = np.minimum(np.asarray(r, dtype=float), 1e150)
    return np.exp(-r) * r * r / (1.0 + r * r)


BUILTIN_H = {"exp_bump": exp_bump}


# -- Chebyshev-proxy roots ------------------------------------------------------

# Chebyshev-Lobatto points in ln lam across a bracket, ends included, for the
# polish of lambda*: against brentq on l itself at the five PARAM_SETS,
# (9, -4.8), (4, 0.0504) and (12, -7), lambda* agrees to 8.1e-8 with 8
# points, 7.0e-10 with 10, 2.0e-11 with 12 and 6.5e-12 with 16, where l's
# own rounding sets in
POLISH_POINTS = 12


def _lobatto(xa: float, xb: float) -> np.ndarray:
    """The POLISH_POINTS Chebyshev-Lobatto points of [xa, xb], from xa up to xb."""
    k = np.arange(POLISH_POINTS)
    return 0.5 * (xa + xb) - 0.5 * (xb - xa) * np.cos(np.pi * k / (POLISH_POINTS - 1))


def _bracketed_root(cheb: np.polynomial.Chebyshev, x_near: float) -> float | None:
    """The real root of cheb in its domain nearest x_near, or None if it has none.

    The roots are the eigenvalues of the colleague matrix (numpy's
    chebroots); a real root comes out with imaginary part exactly 0.
    """
    xa, xb = cheb.domain
    roots = cheb.roots()
    roots = roots[roots.imag == 0.0].real
    roots = roots[(xa <= roots) & (roots <= xb)]
    if roots.size == 0:
        return None
    return float(roots[np.argmin(np.abs(roots - x_near))])


# -- remainder quotient ---------------------------------------------------------

def _log_star_weights(p: Params, rule: JacobiRule) -> np.ndarray:
    """ln of the weights of int U_1^{p*} f s^{M-1} ds on rule, less p* ln C.

    U_1^{p*} = C^{p*} ((1-t)/2)^M and s^{M-1} ds = s^M dt/(1-t^2), so the
    star measure is C^{p*} (1-t^2)^delta dt / 2^M, delta = (M-2)/2 the
    rule's: the Christoffel numbers times (1-t^2)^2 / 2^M, with no terms of
    size delta |ln(1-t)| to cancel.
    """
    return (rule.log_chr + 2.0 * (np.log(rule.one_minus_t) + np.log(rule.one_plus_t))
            - p.M * math.log(2.0))


def _log_bubble_coeff(p: Params, delta: float) -> float:
    """ln c of the bubble U_1 = c E in mode 0, E = ((1+s^2)/2)^{1-delta} the basis's envelope.

    U_1 = C (1+s^2)^{1-delta} (sigma0 = 0 in mode 0), so ln c = ln C +
    (1-delta) ln 2, and U_1 = c0 psi_0 with c0 = c/p0: the one place the
    envelope's normalization E(1) = 1 shows.  c leaves the float range at
    large M, where 2^{1-delta} underflows.
    """
    return math.log(normalization_constant(p)) + (1.0 - delta) * math.log(2.0)


def _normal_exp(log_v: float, what: str) -> float:
    """e^log_v, or MOutOfRange naming what where that is not a positive normal float."""
    with np.errstate(over="ignore"):
        v = float(np.exp(log_v))
    if not np.finfo(float).tiny <= v < math.inf:
        raise MOutOfRange(f"{what} is e^{log_v:.6g}, outside the normal float range")
    return v


def remainder_curve(res: SpectrumResult, t_values) -> list[dict]:
    """Deficit quotient (||u||^2 - S ||u||_*^2) / dist(u, M)^2 along u = U_1 + t ||U_1|| w.

    res is the mode-0 spectrum, whose solve certified the pencil diagonal,
    and w = x_2 psi_2 / sqrt(scale mu_3) = psi_2 / ||psi_2|| its third
    eigenfunction at unit alpha-norm, ||psi_j||^2 = scale A_jj.  In the map
    value tau = (s^2-1)/(s^2+1), U_1 = c0 psi_0 (c0 = c/p0), the dilation
    tangent T = dU_{e^x}/dx at x = 0 is -a tau U_1 with a = (M-4)/(2q),
    proportional to psi_1, and d^2U/dx^2 = ((a^2 + a/q) tau^2 - a/q) U_1.
    w is alpha-orthogonal to U_1 and to T, so f(x) = <u, U_{e^x}> has f'(0)
    = 0: c = 1 at scale 1 is a stationary fit, where dist = t ||U_1||
    exactly and ||u||^2 = (1 + t^2) ||U_1||^2.  Each row's curvature
    f''(0)/||U_1||^2 = -||T||^2/||U_1||^2 + t <w, d^2U/dx^2>/||U_1|| is
    exact in the basis; where it is negative the fit is a local best one.

    The deficit is formed without cancellation.  S ||U_1||_*^2 = ||U_1||^2,
    and the first-order term of ||u||_*^{p*}, p* t ||U_1|| <U_1, w>,
    vanishes, so deficit/||U_1||^2 = t^2 - expm1((2/p*) log1p(D)), with D =
    int U_1^{p*} g(v) / int U_1^{p*}, g(v) = (1+v)^{p*} - 1 - p* v and v =
    t ||U_1|| w/U_1, a quadratic in tau.  Both integrals run on the pencil's
    own Gauss-Gegenbauer rule, whose weight times (1-tau^2)^2 is the star
    measure; D is their ratio, so it takes the weights relative to the largest
    and needs no C.  dist is formed from ln ||U_1||_alpha, which carries ln c
    (_log_bubble_coeff): MOutOfRange where it is not a positive normal float.
    v is smallest at tau = 0, where it is above -t/sqrt(2), so 1 + v > 0.92
    for t <= 0.1.  QuadratureFailure where (1+v)^{p*} overflows, near M = 4,
    where p* is huge.
    """
    pr = res.problem
    p, basis = pr.params, pr.basis
    a00, a11, a22 = (float(pr.A[j, j]) for j in range(3))
    fam = basis.family
    # ln ||U_1||_alpha, ||U_1||_alpha^2 = scale c0^2 A_00
    log_norm_U = (_log_bubble_coeff(p, basis.delta) - math.log(fam.p0)
                  + 0.5 * math.log(pr.alpha_scale * a00))
    # tau U_1 = c0 b1 psi_1 and tau^2 U_1 = c0 b1 (b2 psi_2 + b1 psi_0): ||T||^2/||U_1||^2
    # = a^2 b1^2 A_11/A_00, and <w, d^2U/dx^2>/||U_1|| = (a^2 + a/q) b1 b2 sqrt(A_22/A_00)
    b1, b2 = float(fam.off[1]), float(fam.off[2])
    a = p.M_minus_4 / (2.0 * p.q)
    tangent_sq = a * a * b1 * b1 * a11 / a00
    bend = (a * a + a / p.q) * b1 * b2 * math.sqrt(a22 / a00)
    rule = pr.grid
    log_wq = _log_star_weights(p, rule)
    wq = np.exp(log_wq - log_wq.max())
    # ||U_1|| w/U_1 = sqrt(A_00/A_22) p_2(tau)/p0 on the rule, per unit t
    v1 = math.sqrt(a00 / a22) / fam.p0 * fam.rows(rule.t, 3)[2]
    rows = []
    for t in t_values:
        v = t * v1
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.expm1(p.pstar * np.log1p(v)) - p.pstar * v
            D = float(wq @ g) / float(wq.sum())
        if not math.isfinite(D):
            raise QuadratureFailure(
                f"remainder at N={p.N}, alpha={p.alpha} (M={p.M:.6g}), t={t:g}: "
                f"(1 + v)^p* overflows on the rule, p* = {p.pstar:.6g}")
        deficit = t * t - math.expm1(2.0 / p.pstar * math.log1p(D))
        dist = _normal_exp(math.log(t) + log_norm_U,
                           f"remainder at N={p.N}, alpha={p.alpha} (M={p.M:.6g}), t={t:g}: "
                           f"dist = t ||U_1||_alpha")
        rows.append({"t": float(t), "quotient": deficit / (t * t), "dist": dist,
                     "curvature": t * bend - tangent_sq})
    return rows


# -- perturbation problem -------------------------------------------------------

# smallest |D_i|/G_i = |1 - mu2/mu_i| the Jacobian's elimination accepts off the tangent
PIVOT_FLOOR = 1e-6
# a fixed-point step at most this many ulps of ||U_lam + w||_alpha is rounding
# noise and counts as converged: at (10, 1.7), where that norm is 5.6e17, the
# step stalls at up to 5.8 ulps of it; at the PARAM_SETS the floor is below 1e-12
STEP_FLOOR_ULPS = 64.0
# update norm below which the fixed point counts as converged
STEP_TOL = 1e-10
# sweeps of the fixed point before a scale stops unconverged
MAX_ITER = 100
# smallest mass, relative to the largest, of a Legendre direction the
# perturbation's working basis keeps where the diagonal basis does not fix
# (U + w)/U pointwise (PerturbationProblem)
MASS_CUT = 1e-13
# nodes per unit of q in the rule of the star-type integrals, when the
# pencil's own rule has fewer: the built-in h, O(1) wide in ln r, is 1/q wide
# in ln s.  Against a composite rule in ln s, lambda* at (3, 1.95), q = 40, is
# off by 4.3e-6 relative on the 168-node pencil rule, 3.1e-9 at 256 nodes and
# 1.3e-10 at 400; at (3, 1.99), q = 200, by 0.75 at 168 nodes, 6.4e-6 at 800
# and, at 2 000, less than composite references with other panels differ
# (3e-9).  Up to q = 20 the pencil's rule holds lambda* within 1e-10
H_NODES_PER_Q = 10.0
# the largest rule of the star-type integrals, 10 q at N = 3 and M = 1 079
# (q = 1 077).  The rule build's time grows as n^2, its seeds' dsterf and its
# Newton step alike: 0.93 s there (0.44 s seeds, 0.49 s Newton step), 3.2 s at
# 20 001 nodes, and so about 5 minutes at the 200 001 of (3, 1.9999); its
# memory grows as n, 22 MiB traced there.  perturb at (3, 1.998), a rule of
# 10 000 nodes, takes 0.8 s and 57 MB.  A larger rule is refused before it is
# built
STAR_NODES_MAX = 10_770
# ln s of the probe on which the weight's sign is checked besides the rule's
# nodes, in steps of 1/4; it has no quadrature role
SIGN_PROBE = np.linspace(-12.0, 12.0, 97)


def _star_rule(problem: ModeProblem, q: float) -> JacobiRule:
    """The rule of the star-type integrals: mode 0's pencil rule, larger where q is.

    The star measure U_1^{p*} s^{M-1} ds is C^{p*} (1-t^2)^delta dt / 2^M,
    the pencil rule's weight times (1-t^2)^2, and every star-type integrand is
    that measure times a smooth function of the ratio (U_1 + w)/U_1, a
    polynomial in t, and of h(r/lam), r = s^q.  Where q is large the rule is
    too coarse for h, and one of H_NODES_PER_Q q nodes in the same delta is
    built, or refused (QuadratureFailure) where that is more than
    STAR_NODES_MAX.
    """
    n = math.ceil(H_NODES_PER_Q * q)
    if problem.grid.n >= n:
        return problem.grid
    if n > STAR_NODES_MAX:
        raise QuadratureFailure(f"star-type integrals at q={q:.6g}: the rule needs {n} nodes "
                                f"({H_NODES_PER_Q:g} per unit of q), more than the largest, "
                                f"{STAR_NODES_MAX}")
    return JacobiRule.build(n, problem.basis.delta)


class PerturbationProblem:
    """Discretization of the correction equation for a given (h, eps).

    The working basis is the spectral basis {phi_i} of the mode-0 pencil of
    `nodes` trial functions at scale 1, the trial functions themselves
    scaled to unit weighted mass, phi_i = x_i psi_i, or at large M the
    pencil's eigenvectors on a cut of the trial space (_solve_pencil_cut):
    it is orthogonal in the alpha-inner product with <phi_i, phi_i> =
    scale * mu_i, contains the extremal and the dilation tangent, and makes
    the frozen Jacobian diagonal plus border.
    """

    def __init__(self, params: Params, h, eps: float, nodes: int):
        self.params = params
        self.h = h
        self.eps = float(eps)
        p = params

        self.problem, rows = next(_assembled(p, [0], nodes))
        A = self.problem.A
        basis = self.problem.basis
        mu, x, _ = _solve_pencil(A, self.problem.B, self.problem.label)
        self.scale = self.problem.alpha_scale          # omega q^{-3}
        self.star_scale = sphere_area(p.N) * p.q       # omega q

        # the weights wq of int U_1^{p*} f s^{M-1} ds on _star_rule
        self.rule = rule = _star_rule(self.problem, p.q)
        # the bubble U_1 = c E = c0 psi_0
        self.c = c = _normal_exp(_log_bubble_coeff(p, basis.delta),
                                 f"the bubble's coefficient c at N={p.N}, alpha={p.alpha} "
                                 f"(M={p.M:.6g})")
        c0 = c / basis.family.p0
        self.wq = np.exp(_log_star_weights(p, rule) + p.pstar * math.log(normalization_constant(p)))

        # phi_i = E sum_k W_ki p_k(t) with p_k of self.family, = sum_j X_ji psi_j.
        # In the diagonal basis W = X = diag(x), and (U + w)/U = 1 + sum_j
        # x_j c_j p_j(t)/c; |p_j| peaks at t = 1 (delta > 1 in mode 0), so a
        # change of c_j by a given alpha-norm, relative to the bubble's, moves
        # the ratio by up to gain_j = (p_j(1)/p_0)/sqrt(mu_j) times that.
        # Where a gain_j^2 exceeds 1/MASS_CUT (at most 5e5 at the PARAM_SETS,
        # 1e54 at (10, 1.7), M = 55.3) the ratio is not fixed pointwise, and
        # the working basis is the pencil's on the Legendre directions whose
        # mass is at least MASS_CUT of the largest (103 of 160 there).
        # p_j(1)/p_0 is the product of the family's closed-form ratios
        fam = basis.family
        with np.errstate(over="ignore"):
            gain_sq = np.concatenate(([1.0], np.cumprod(fam.ratio))) ** 2 / mu
        # In the diagonal basis only x is kept: each product with W or X is
        # the elementwise one with x, the matrix product without its zeros
        if gain_sq.max() * MASS_CUT <= 1.0:
            self.family, self.x, self.W, self.X = fam, x, None, None
        else:
            mu, self.W, self.X, self.family = _solve_pencil_cut(self.problem, rows, MASS_CUT)
            self.x = None
        self.kept = kept = mu.size
        # phi_i / U_1 = sum_k W_ki p_k(t) / c on the rule, (kept, n), in the
        # diagonal basis x_i p_i(t) / c from the rows the assembly pass has
        # made where the rule is the pencil's; the bubble is c0 psi_0, so its
        # alpha-products with phi_i are read off the stiffness matrix's first
        # column, (X^T A)_i0, and the dilation tangent's off its second
        if self.x is not None:
            P = rows if rule is self.problem.grid else fam.rows(rule.t, basis.m)
            self.phi = x[:, None] * P / c
            XtA0, XtA1 = x * A[:, 0], x * A[:, 1]
        else:
            self.phi = self.W.T @ self.family.rows(rule.t, basis.m) / c
            XtA0, XtA1 = self.X.T @ A[:, 0], self.X.T @ A[:, 1]

        self.G = self.scale * mu                        # diag of <phi_i, phi_j>_alpha
        self.bU = self.scale * c0 * XtA0
        self.norm0 = self.scale * c0 * c0 * float(A[0, 0])
        # dilation tangent at scale 1 on the s side: -a t U_1 = -a c0 off[1] psi_1,
        # a = (N-4+alpha)/2
        c1 = c0 * p.decay_exp / 2.0 * float(fam.off[1])
        self.d = -self.scale * c1 * XtA1

        # at 160 trial functions the rule's nodes reach only |ln s| < 6; the
        # sign of the weight 1 + eps h(r/lam) is also checked on a fixed probe
        # out to |ln s| = 12.  Where q is large r = s^q overflows to inf, and h
        # is taken at infinity there
        with np.errstate(over="ignore"):
            self.r_of_s = np.exp(p.q * _log_s(rule))
            self.r_probe = np.exp(p.q * SIGN_PROBE)

        # frozen Jacobian [[diag(D), -d], [d^T, 0]], solved by _solve_jacobian;
        # D_i = scale*(mu_i - mu2) with mu2 = p*-1 is near zero only at the tangent
        D = self.D = self.G * (1.0 - (p.pstar - 1.0) / mu)
        j = self.i_tan = int(np.argmax(np.abs(self.d) / np.sqrt(self.G)))
        ratios = np.abs(D) / self.G
        others = np.arange(kept) != j
        second = float(ratios[others].min())
        if int(np.argmin(ratios)) != j or second < PIVOT_FLOOR:
            raise EigensolveFailure(
                f"perturbation Jacobian at N={p.N}, alpha={p.alpha} (M={p.M:.6g}): the "
                f"elimination needs one near-zero |D_i|/G_i, at the tangent index {j}; "
                f"|D_j|/G_j = {ratios[j]:.3e}, smallest other = {second:.3e} "
                f"(floor {PIVOT_FLOOR:g})")
        self._inv_D = np.zeros(kept)
        self._inv_D[others] = 1.0 / D[others]
        self._d_over_D = self.d * self._inv_D
        self._schur = float(self._d_over_D @ self.d)      # sum_{i != j} d_i^2 / D_i
        D_j, d_j = float(D[j]), float(self.d[j])
        self._det = det = D_j * self._schur + d_j * d_j
        if not abs(det) >= np.finfo(float).tiny:
            raise EigensolveFailure(
                f"perturbation Jacobian at N={p.N}, alpha={p.alpha} (M={p.M:.6g}): its 2x2 "
                f"determinant D_j sum d_i^2/D_i + d_j^2 is {det:.3e}, not a normal float; "
                f"d_j = {d_j:.3e}, with the bubble's coefficient c = {c:.3e}")
        self._cache: dict = {}

        # the star term with no correction and eps = 0
        star0 = self.star_scale * float(self.wq.sum())
        self.unperturbed_energy = 0.5 * self.norm0 - star0 / p.pstar

    # -- helpers ---------------------------------------------------------------

    def family_coeffs(self, c: np.ndarray) -> np.ndarray:
        """W c: the coefficients of w = sum_i c_i phi_i on self.family's E p_k(t)."""
        return self.x * c if self.W is None else self.W @ c

    def norm_sq(self, c: np.ndarray):
        """||U_lam + w_lam||^2 for the correction w = sum_i c_i phi_i, at every lam.

        c is one coefficient vector (kept,) or a block (L, kept), one per row.
        """
        return self.norm0 + 2.0 * (c @ self.bU) + (c * c) @ self.G

    def _h_values(self, r_of_s: np.ndarray, lam) -> np.ndarray:
        """h(r/lam) at r = r_of_s: shape (n,) for one scale, (L, n) for L scales."""
        with np.errstate(over="ignore"):
            r = r_of_s / np.asarray(lam, dtype=float)[..., None]
        return np.asarray(self.h(r.ravel()), dtype=float).reshape(r.shape)

    def _solve_jacobian(self, r: np.ndarray, r_l):
        """(x, l) with D_i x_i - d_i l = r_i and d . x = r_l, in O(kept) work.

        Rows i != i_tan give x_i = (r_i + d_i l)/D_i; what is left is the
        2x2 system [[D_j, -d_j], [d_j, sum_{i!=j} d_i^2/D_i]] in (x_j, l).
        r is one right-hand side (kept,) with a scalar r_l, or a block
        (L, kept) with r_l of shape (L,), solved row by row.
        """
        j = self.i_tan
        D_j, d_j, det = float(self.D[j]), float(self.d[j]), self._det
        r_j = r[..., j]
        b = r_l - r @ self._d_over_D
        l = (D_j * b - d_j * r_j) / det
        x = self._inv_D * r + self._d_over_D * np.expand_dims(l, -1)
        x[..., j] = (self._schur * r_j + d_j * b) / det
        return x, l

    def _forcing(self, lams) -> np.ndarray:
        """star_scale wq (1 + eps h(r/lam)), the nonlinear term's weight at each scale.

        Raises ContractionFailure where |eps h| exceeds 1 at one of the
        scales, on the rule or on the sign probe: the weight would change
        sign.
        """
        f = self._h_values(self.r_of_s, lams)
        f *= self.eps
        probe = self._h_values(self.r_probe, lams)
        sup = max(float(np.max(np.abs(f))), abs(self.eps) * float(np.max(np.abs(probe))))
        if sup > 1.0:
            p = self.params
            raise ContractionFailure(f"weight 1 + eps h at N={p.N}, alpha={p.alpha}, "
                                     f"eps={self.eps:.3g}: |eps| sup|h| = {sup:.3g} exceeds 1")
        f += 1.0
        f *= self.star_scale * self.wq
        return f

    def _ratio_plus(self, c: np.ndarray) -> np.ndarray:
        """(U_1 + w)_+ / U_1 on the rule, w = sum_i c_i phi_i; one row per row of c."""
        f = c @ self.phi
        f += 1.0
        np.maximum(f, 0.0, out=f)
        return f

    def _residual(self, c: np.ndarray, forcing: np.ndarray,
                  plus: np.ndarray | None = None) -> np.ndarray:
        """<u, phi_i>_alpha - int (1+eps h)|x|^{-a} u_+^{p*-1} phi_i, u = U_1 + w.

        c is (kept,) with forcing (n,), or a block (L, kept) with forcing
        (L, n) from _forcing; the residual has the shape of c.  plus, when
        given, is _ratio_plus(c), computed once by the caller and left
        unchanged.  The weight U_1^{p*} sits in forcing and U_1 in phi, so
        u_+^{p*-1} phi_i is taken as U_1^{p*} ratio_+^{p*-1} phi_i/U_1.
        """
        f = (self._ratio_plus(c) if plus is None else plus) ** (self.params.pstar - 1.0)
        f *= forcing
        return self.bU + self.G * c - f @ self.phi.T

    def _star(self, c: np.ndarray, forcing: np.ndarray,
              plus: np.ndarray | None = None) -> np.ndarray:
        """int (1+eps h)|x|^{-a} u_+^{p*}, u = U_1 + w, with c, forcing and plus as in _residual."""
        f = (self._ratio_plus(c) if plus is None else plus) ** self.params.pstar
        f *= forcing
        return f.sum(axis=-1)


@dataclass
class CorrectionResult:
    """Fixed-point output for one scale."""

    lam: float
    coeffs: np.ndarray
    l: float                      # physical multiplier (frame value times lam)
    iterations: int
    contraction_factor: float
    omega_norm: float
    residual: float               # dual norm of the projected residual
    unprojected_residual: float
    star: float                   # int (1 + eps h(r/lam)) |x|^{-a} u_+^{p*} in the scale-1 frame
    energy: float                 # reduced energy 1/2 ||U_lam + w||^2 - star/p*
    converged: bool
    problem: PerturbationProblem


def solve_correction(pp: PerturbationProblem, lam: float) -> CorrectionResult:
    """Fixed-point iteration for the constrained correction at scale lam.

    The one-scale case of solve_corrections.
    """
    return solve_corrections(pp, [lam])[0]


def solve_corrections(pp: PerturbationProblem, lams) -> list[CorrectionResult]:
    """Fixed-point iteration for the constrained correction at every scale in lams.

    Iterates the frozen-Jacobian map for (w, l) with the orthogonality
    constraint <w, tangent> = 0 until the update norm drops below STEP_TOL,
    or below STEP_FLOOR_ULPS ulps of ||U_lam + w||_alpha when that is larger:
    such a step is rounding noise; a scale still above it after MAX_ITER
    sweeps stops unconverged.
    The scales not yet in pp's cache are iterated in lockstep: each sweep
    takes the residuals of all of them as two matrix products over the
    (L, kept) coefficient block, and each scale leaves the sweeps at its
    own convergence, with its own iteration count and contraction factor.
    There its star term and reduced energy are summed, in the scale-1 frame
    and with the weight 1 + eps h(r/lam) it iterated with: scaling is an
    isometry of both terms but that weight, so the quadratic part is taken
    in coefficient space (PerturbationProblem.norm_sq).
    Raises ContractionFailure when the observed contraction factor reaches
    REFUSE_FACTOR (the perturbation is too large for the fixed point);
    after every scale has been swept it names the first failing one in the
    order of lams.  The other results are cached either way.
    """
    lams = [float(lam) for lam in np.atleast_1d(lams)]
    todo = list(dict.fromkeys(lam for lam in lams if lam not in pp._cache))
    if not todo:
        return [pp._cache[lam] for lam in lams]
    sqrtG = np.sqrt(pp.G)
    at = np.arange(len(todo))                # positions in todo of the scales still iterated
    forcing = pp._forcing(todo)
    c = np.zeros((len(todo), pp.kept))
    l_hat = np.zeros(len(todo))
    prev_step = np.zeros(len(todo))
    factor = np.zeros(len(todo))
    failures = {}                            # position in todo -> message
    for it in range(1, MAX_ITER + 1):
        res = pp._residual(c, forcing)
        dc, dl = pp._solve_jacobian(-(res - l_hat[:, None] * pp.d), -(c @ pp.d))
        c += dc
        l_hat += dl
        step = np.sqrt(np.sum((sqrtG * dc) ** 2, axis=1) + dl * dl)
        ratio = np.divide(step, prev_step, out=np.zeros_like(step), where=prev_step > 0)
        factor = np.fmax(factor, ratio)
        # STEP_TOL, or the step's rounding floor where the solution is huge
        tol_l = np.maximum(STEP_TOL, STEP_FLOOR_ULPS * np.finfo(float).eps
                           * np.sqrt(pp.norm_sq(c)))
        failed = (ratio >= REFUSE_FACTOR) & (step > tol_l)
        for i, r in zip(at[failed], ratio[failed]):
            failures[int(i)] = f"contraction factor {r:.3f} >= {REFUSE_FACTOR} at scale {todo[i]}"
        prev_step = step
        converged = step < tol_l
        done = (converged | (it == MAX_ITER)) & ~failed
        if done.any():
            c_done, forcing_done = c[done], forcing[done]
            plus = pp._ratio_plus(c_done)
            res = pp._residual(c_done, forcing_done, plus)
            star = pp._star(c_done, forcing_done, plus)
            energy = 0.5 * pp.norm_sq(c_done) - star / pp.params.pstar
            proj = res - l_hat[done, None] * pp.d
            residual = np.sqrt(np.sum(proj ** 2 / pp.G, axis=1))
            unproj = np.sqrt(np.sum(res ** 2 / pp.G, axis=1))
            for k, i in enumerate(np.flatnonzero(done)):
                lam = todo[at[i]]
                pp._cache[lam] = CorrectionResult(
                    lam=lam, coeffs=c[i].copy(), l=lam * float(l_hat[i]),
                    iterations=it, contraction_factor=float(factor[i]),
                    omega_norm=math.sqrt(float(np.sum(pp.G * c[i] ** 2))),
                    residual=float(residual[k]), unprojected_residual=float(unproj[k]),
                    star=float(star[k]), energy=float(energy[k]),
                    converged=bool(converged[i]), problem=pp)
        going = ~(done | failed)
        if not going.any():
            break
        if not going.all():
            at, forcing, c, l_hat, prev_step, factor = (
                a[going] for a in (at, forcing, c, l_hat, prev_step, factor))
    if failures:
        raise ContractionFailure(failures[min(failures)])
    return [pp._cache[lam] for lam in lams]


# |l| / lam below this many ulps of ||U_lam + w||_alpha / ||T||, T the dilation
# tangent, is rounding and carries no sign: on the unperturbed problem (eps =
# 0, where l vanishes in exact arithmetic) it reads at most 469 such ulps over
# 32 points with N <= 12 and M from 4.0001 to 82, the most at M near 4
L_FLOOR_ULPS = 4096.0
# the scales of the reduced curve Gamma(lam), solved as one block
CURVE_SCALES = np.logspace(-2, 2, 33)


def find_perturbed_solution(pp: PerturbationProblem) -> dict:
    """Locate an interior extremum of the reduced energy and assemble the solution.

    The reduced curve is sampled at CURVE_SCALES, all of them as one
    block.  Its extrema are read off the multiplier l(lam), which every
    curve scale carries: l is proportional to the derivative of the curve
    and analytic in x = ln lam, and an interior extremum is a sign change
    of l between curve scales where |l| is above its rounding floor
    (L_FLOOR_ULPS).  NoInteriorExtremum is raised where there is none:
    where l is below that floor at every scale the curve is constant and
    every scale is critical, and where l keeps one sign above it the
    curve is monotone across its scales.
    Of several sign changes (l_sign_changes) the one whose bracket reaches
    furthest from E0 is taken (l_sign_change_taken, from 0 in increasing
    lam).  lambda* is polished across that bracket: l/lam is solved at
    POLISH_POINTS Chebyshev-Lobatto points in x (the ends are curve scales,
    so POLISH_POINTS - 2 new ones, one block), and lambda* is the root of
    its Chebyshev interpolant (Boyd's Chebyshev-proxy root finder): an
    eigenvalue of the interpolant's colleague matrix, with no further
    fixed-point solves.  Of several real roots in the bracket the
    one nearest the secant root of its ends is taken;
    lambda_star_polished is false only when the interpolant has no real
    root in the bracket, and the secant root stands.  The solution at
    lambda* is then solved from a zero start, as every scale is, so its
    iterations and contraction factor mean what they mean elsewhere.
    polish_l_ratio is |l(lambda*)| over the larger |l| at the bracket's
    ends.
    """
    from numpy.polynomial.chebyshev import Chebyshev

    curve = solve_corrections(pp, CURVE_SCALES)
    gammas = np.array([res.energy for res in curve])
    dev = np.abs(gammas - pp.unperturbed_energy)

    l_hat = np.array([res.l / res.lam for res in curve])
    c = np.array([res.coeffs for res in curve])
    tangent_norm = math.sqrt(float(np.sum(pp.d ** 2 / pp.G)))
    floor = L_FLOOR_ULPS * np.finfo(float).eps * np.sqrt(pp.norm_sq(c)) / tangent_norm
    sig = np.flatnonzero(np.abs(l_hat) > floor)
    if sig.size == 0:
        raise NoInteriorExtremum(
            f"l is below its rounding floor at all {CURVE_SCALES.size} scales of the curve "
            f"(largest |l/lam| {float(np.max(np.abs(l_hat))):.3e}); the reduced energy is "
            f"constant and every scale is critical")
    flips = [(int(a), int(b)) for a, b in zip(sig[:-1], sig[1:]) if l_hat[a] * l_hat[b] < 0]
    if not flips:
        sign = "positive" if l_hat[sig[0]] > 0 else "negative"
        raise NoInteriorExtremum(
            f"l/lam is {sign} above its rounding floor at {sig.size} of the "
            f"{CURVE_SCALES.size} scales of the curve, lam from {CURVE_SCALES[0]:g} to "
            f"{CURVE_SCALES[-1]:g}, and changes sign at none: the reduced energy is "
            f"monotone there")

    taken = int(np.argmax([max(dev[a], dev[b]) for a, b in flips]))
    ia, ib = flips[taken]
    la, lb = float(CURVE_SCALES[ia]), float(CURVE_SCALES[ib])
    # Chebyshev-Lobatto points in ln lam, from xa up to xb; the ends are set
    # to the curve's own scales so that they are cache hits
    xa, xb = math.log(la), math.log(lb)
    x_sec = xa + (xb - xa) * l_hat[ia] / (l_hat[ia] - l_hat[ib])
    xs = _lobatto(xa, xb)
    lams = np.exp(xs)
    lams[0], lams[-1] = la, lb
    l_pol = [res.l / res.lam for res in solve_corrections(pp, lams)]
    cheb = Chebyshev.fit(xs, l_pol, POLISH_POINTS - 1, domain=[xa, xb])
    x_star = _bracketed_root(cheb, x_sec)
    polished = x_star is not None
    lam_star = math.exp(x_star if polished else x_sec)
    final = solve_correction(pp, lam_star)
    # in mode 0 the bubble is c E and w = E sum_k (W c)_k p_k(t), so at every
    # scale (U_lam + w_lam)/U_lam = 1 + sum_k (W c)_k p_k(t)/c, a polynomial
    # in t = (s^2-1)/(s^2+1) of degree below m, whose minimum over all of
    # [-1, 1] is sampled at 16 m + 1 Chebyshev-Lobatto points (ends included):
    # the series is summed at the 8 m + 1 with t >= 0, and its even and odd
    # parts give it at -t too
    n_t = 16 * pp.problem.basis.m
    t = np.cos(np.pi * np.arange(n_t // 2 + 1) / n_t)
    even, odd = pp.family.parts(pp.family_coeffs(final.coeffs), t)
    ratio = 1.0 + np.concatenate((even + odd, even - odd)) / pp.c
    min_ratio = float(ratio.min())
    return {
        "lambda_star": lam_star,
        "lambda_star_polished": polished,
        "energy": final.energy,
        "omega_norm": final.omega_norm,
        "l": final.l,
        "residual": final.unprojected_residual,
        "projected_residual": final.residual,
        "iterations": final.iterations,
        "contraction_factor": final.contraction_factor,
        "min_ratio_to_bubble": min_ratio,
        "positive": min_ratio > 0.0,
        "l_sign_changes": len(flips),
        "l_sign_change_taken": taken,
        "polish_l_ratio": abs(final.l) / max(abs(curve[ia].l), abs(curve[ib].l)),
        "gamma_curve": [{"lam": float(l), "gamma": float(g)} for l, g in zip(CURVE_SCALES, gammas)],
        "result": final,
    }
