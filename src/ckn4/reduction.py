"""Manifold distance, deficit quotients, and the reduced perturbation solve.

The correction equation is solved in the scale-transported frame: solving
at scale lam with perturbation weight h(x) is the same problem as solving
at scale 1 with weight h(x/lam), because the scaling map is an isometry of
every functional involved except the explicit h-term.  The discrete space
is the spectral basis of the mode-0 linearized pencil, in which the frozen
Jacobian of the fixed-point map is diagonal plus a one-dimensional border.
U_1 is nondegenerate, so only the dilation tangent's diagonal entry is near
zero, and each step is solved in closed form: every other row is eliminated
directly, leaving a 2x2 system in the tangent coefficient and the
multiplier.  The loop makes no scipy LAPACK call: numpy and scipy each
carry their own OpenBLAS thread pool, and a LAPACK call right after numpy's
BLAS work waits for the other pool.  The scales of the Gamma curve are
solved as one block (solve_corrections): their fixed-point sweeps run in
lockstep over an (L, kept) coefficient block, two matrix products per
sweep, and each scale stops at its own tolerance, or at the rounding floor
of ||U_lam + w||_alpha where that norm is huge.  lambda* is polished the
same way: the multiplier l, proportional to Gamma', is analytic in ln lam,
so it is sampled at Chebyshev-Lobatto scales of the bracket, all as one
block, and lambda* is the root of its Chebyshev interpolant.
The quadratic terms of the reduced energy are exact in that basis: the
bubble is C psi_0, so its alpha-products come from the pencil's stiffness
matrix, and scaling is an isometry of the alpha-norm.  Only the star and h
terms are integrated, at scale 1, on the mode-0 pencil's own (m+8)-node
Gauss-Jacobi rule: the star measure U_1^{p*} s^{M-1} ds is the rule's
weight times (1-t)^2, and (U_1 + w)/U_1 is a polynomial in t, so every
such integrand is the rule's weight times a smooth function of t; h(r/lam)
is smooth for the built-in h, and a CSV h's kinks, which move with lam,
converge only algebraically on any rule the scales share.  The fixed
point works on that ratio and on phi_i/U_1, with the weights of
int U_1^{p*} f s^{M-1} ds formed in logs.  The star term of the reduced
energy is summed in the same frame, from the fixed point's own arrays,
when each scale converges, with the weight it iterated with
(reduced_energies).  The program so assumes the dilation invariance of
the reduced energy; the tests measure it, against the star term
integrated in the physical frame on a composite grid widened to each
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .calculus import RadialGrid, weighted_hessian_norm_sq, weighted_star_norm
from .errors import (ContractionFailure, EigensolveFailure, NoInteriorExtremum, OnManifold,
                     ZeroFunction)
from .forms import PowerForm
from .params import Params, best_constant_radial, normalization_constant, sphere_area
from .profiles import RadialProfile, dilation_tangent, extremal_U
from .spectrum import (JacobiRule, ModeProblem, _log_hypot1, _solve_pencil, _solve_pencil_cut,
                       assemble_mode_problem)

__all__ = [
    "ManifoldFit",
    "UnitManifold",
    "wide_grid",
    "dist_to_manifold",
    "remainder_quotient",
    "remainder_scan",
    "PerturbationProblem",
    "CorrectionResult",
    "solve_correction",
    "solve_corrections",
    "reduced_energy",
    "reduced_energies",
    "find_perturbed_solution",
    "RadialCombination",
    "BUILTIN_H",
]


def exp_bump(r):
    """h(r) = e^{-r} r^2/(1+r^2).

    r is capped at 1e150, where e^{-r} is already 0, so that r*r stays finite.
    """
    r = np.minimum(np.asarray(r, dtype=float), 1e150)
    return np.exp(-r) * r * r / (1.0 + r * r)


BUILTIN_H = {"exp_bump": exp_bump}


class RadialCombination:
    """Weighted sum of radial profiles sharing eval/deriv."""

    def __init__(self, parts, weights):
        self.parts = list(parts)
        self.weights = [float(w) for w in weights]

    def eval(self, r):
        out = self.weights[0] * self.parts[0].eval(r)
        for w, f in zip(self.weights[1:], self.parts[1:]):
            out = out + w * f.eval(r)
        return out

    def deriv(self, r, order: int = 1):
        out = self.weights[0] * self.parts[0].deriv(r, order)
        for w, f in zip(self.weights[1:], self.parts[1:]):
            out = out + w * f.deriv(r, order)
        return out


# -- Chebyshev-proxy roots ------------------------------------------------------

# Chebyshev-Lobatto points in ln lam across a bracket, ends included, for the
# polish of lambda* and of the manifold fit's peaks: against brentq on l itself
# at the five PARAM_SETS, (9, -4.8), (4, 0.0504) and (12, -7), lambda* agrees
# to 8.1e-8 with 8 points, 7.0e-10 with 10, 2.0e-11 with 12 and 6.5e-12 with
# 16, where l's own rounding sets in
POLISH_POINTS = 12


def _lobatto(xa: float, xb: float) -> np.ndarray:
    """The POLISH_POINTS Chebyshev-Lobatto points of [xa, xb], from xa up to xb."""
    k = np.arange(POLISH_POINTS)
    return 0.5 * (xa + xb) - 0.5 * (xb - xa) * np.cos(np.pi * k / (POLISH_POINTS - 1))


def _bracketed_root(cheb: Chebyshev, x_near: float) -> float | None:
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


# -- distance to the two-parameter manifold -----------------------------------

def wide_grid() -> RadialGrid:
    """The log-Gauss rule of the manifold fit and the remainder quotient."""
    return RadialGrid.log_gauss(1e-14, 1e14, 2048)


@dataclass
class ManifoldFit:
    """Nearest point c*U_lam on the scaled-extremal manifold."""

    c: float
    lam: float
    dist: float
    converged: bool               # every local maximum of the scan was polished
    candidates: list
    # slopes the polish evaluated: POLISH_POINTS per scan peak, one more per polished peak
    polish_points: int


# the scan in x = ln lam: the scales 2^-7.5 to 2^7.5 in steps of 2^(1/4)
SCAN_HALF_WIDTH = 7.5 * math.log(2.0)
SCAN_POINTS = 61
# scales per block of the scan and the polish, on the 2048-node wide grid:
# after a spectrum report, remainder --N 5 --alpha 1 raised the process's peak
# RSS by 6.5 MB with one (61, 2048) block and by 2.0 MB with blocks of 8
FIT_BLOCK = 8


@dataclass(frozen=True)
class UnitManifold:
    """The manifold's member at lam = 1, from which the fit reads every scale.

    With s = (N-4+alpha)/2, U_lam(r) = lam^s U_1(lam r) and the dilation
    tangent dU_lam/dlam is lam^(s-1) T_1(lam r), so Delta U_lam(r) =
    lam^(s+2) (Delta U_1)(lam r) and d/dx <u, U_{e^x}> = lam^(s+2) <Delta u,
    (Delta T_1)(lam r)> with lam = e^x.
    """

    U: RadialProfile              # U_1
    lap_U: PowerForm              # Delta U_1
    lap_T: PowerForm              # Delta T_1
    power: float                  # s + 2
    norm_sq: float                # ||U_1||^2, the exact Beta value (no grid)

    @classmethod
    def build(cls, p: Params, grid: RadialGrid) -> "UnitManifold":
        U = extremal_U(p)
        return cls(U=U, lap_U=U.form.radial_laplacian(p.N),
                   lap_T=dilation_tangent(p).form.radial_laplacian(p.N),
                   power=p.decay_exp / 2.0 + 2.0,
                   norm_sq=weighted_hessian_norm_sq(p, U, grid))


def _dilated_products(form: PowerForm, power: float, xs: np.ndarray, r: np.ndarray,
                      v: np.ndarray) -> np.ndarray:
    """lam^power sum_j v_j form(lam r_j) at each lam = e^x, FIT_BLOCK scales at a time.

    The sums are numpy reductions, not a matrix-vector product: OpenBLAS
    threads a (8, 2048) product, and its second thread then spins beside
    the reports that follow.
    """
    lams = np.exp(xs)
    out = np.empty(lams.size)
    for k in range(0, lams.size, FIT_BLOCK):
        rows = form.eval(lams[k:k + FIT_BLOCK, None] * r)
        rows *= v
        out[k:k + FIT_BLOCK] = rows.sum(axis=1)
    return lams ** power * out


def dist_to_manifold(p: Params, u, grid: RadialGrid | None = None,
                     unit: UnitManifold | None = None) -> ManifoldFit:
    """Minimize ||u - c U_lam|| over (c, lam).

    c is eliminated in closed form through c*(lam) = <u, U_lam>/||U||^2,
    which leaves the maximization of g(x)^2 = <u, U_lam>^2 over x = ln lam.
    g is evaluated on one uniform scan of |x| <= 7.5 ln 2 with step ln 2 / 4
    (61 points).  Measured at 28 points with N <= 12 and M from 4.02 to 202,
    the full width at half maximum of g^2 in ln lam for u = U_1 is at least
    0.81 (narrowest near (N, alpha) = (12, -3)), so every peak spans more
    than four steps.  At fixed M that width falls like q = (M-2)/(N-2),
    because ln lam = q ln nu (it is 0.37 at (24, -8)); a single peak is
    still bracketed there, but two peaks closer than a few steps merge.
    The scan and the slopes dg/dx are read off the scale-1 member by
    dilation (UnitManifold), in blocks of scales, so neither builds a
    closed form per scale.  Each discrete local maximum of g^2 is polished
    on the stationarity condition dg/dx = 0, which is analytic in x: the
    slope is taken at POLISH_POINTS Chebyshev-Lobatto points across the
    peak's neighbouring scan points, the root nearest the peak of its
    Chebyshev interpolant is an eigenvalue of the colleague matrix
    (Boyd's Chebyshev-proxy root finder), and one Newton step on the slope
    itself refines it, so the fit needs no scipy.  A bracket where the
    slope does not change sign or is not finite, or whose interpolant has
    no real root in it, leaves the scan point standing and the fit
    unconverged.  The candidate with the smallest distance wins.
    That distance is the direct quadrature of the optimal residual against
    U_lam built at the candidate's scale, so on-manifold inputs come back
    at rounding level rather than at the cancellation floor of the quotient
    formula.  unit, when given, is UnitManifold.build(p, grid), shared by
    several fits.
    """
    grid = grid or wide_grid()
    unit = unit or UnitManifold.build(p, grid)
    r = grid.nodes
    lap_u = u.deriv(r, 2) + (p.N - 1) * u.deriv(r, 1) / r
    weight = sphere_area(p.N) * grid.weights * r ** (p.alpha + p.N - 1)
    wlap_u = weight * lap_u

    xs = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)
    g2 = _dilated_products(unit.lap_U, unit.power, xs, r, wlap_u) ** 2
    # discrete local maxima; a plateau counts once, at its right end
    left = np.concatenate(([True], g2[1:] >= g2[:-1]))
    right = np.concatenate((g2[:-1] > g2[1:], [True]))
    peaks = np.flatnonzero(left & right)
    cands = []
    polished = True
    points = 0
    for i in peaks:
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, SCAN_POINTS - 1)]
        xp = _lobatto(a, b)
        slope = _dilated_products(unit.lap_T, unit.power, xp, r, wlap_u)
        points += POLISH_POINTS
        x = None
        # no sign change: a peak at the scan's end, or a non-finite slope
        if np.isfinite(slope).all() and slope[0] * slope[-1] < 0:
            cheb = Chebyshev.fit(xp, slope, POLISH_POINTS - 1, domain=[a, b])
            x = _bracketed_root(cheb, xs[i])
        if x is not None:
            # one Newton step on the slope itself, with the interpolant's
            # derivative: the slope's complex singularities lie about
            # pi/gamma off the real axis, so at gamma near 10 the root of
            # the interpolant is off by up to 1.2e-11 in ln lam
            fx = _dilated_products(unit.lap_T, unit.power, np.array([x]), r, wlap_u)[0]
            x = min(max(x - fx / cheb.deriv()(x), a), b)
            points += 1
        else:
            # the scan point stands, and the fit does not count as converged
            x = xs[i]
            polished = False
        lam = math.exp(x)
        lap_l = extremal_U(p, lam).form.radial_laplacian(p.N).eval(r)
        c = float(weight @ (lap_u * lap_l)) / unit.norm_sq
        dist_sq = float(weight @ (lap_u - c * lap_l) ** 2)
        cands.append((max(dist_sq, 0.0), c, lam))
    cands.sort(key=lambda t: t[0])
    # deduplicate local minima for the report
    uniq = []
    for d2, c, lam in cands:
        if not any(abs(math.log(lam / l2)) < 1e-4 for _, _, l2 in uniq):
            uniq.append((d2, c, lam))
    d2, c, lam = cands[0]
    return ManifoldFit(c=c, lam=lam, dist=math.sqrt(d2), converged=polished,
                       candidates=[{"c": cc, "lam": ll, "dist": math.sqrt(dd)} for dd, cc, ll in uniq],
                       polish_points=points)


def remainder_quotient(p: Params, u, grid: RadialGrid | None = None,
                       fit: ManifoldFit | None = None) -> float:
    """Deficit quotient (||u||^2 - S ||u||_*^2) / dist(u, M2)^2."""
    grid = grid or wide_grid()
    norm_sq = weighted_hessian_norm_sq(p, u, grid)
    if norm_sq == 0.0:
        raise ZeroFunction("quotient undefined for the zero function")
    star = weighted_star_norm(p, u, grid)
    fit = fit or dist_to_manifold(p, u, grid)
    if fit.dist < 1e-9 * math.sqrt(norm_sq):
        raise OnManifold(f"dist {fit.dist:.3e} below tolerance; quotient undefined")
    S = best_constant_radial(p)
    return (norm_sq - S * star ** 2) / fit.dist ** 2


class _Sampled:
    """A radial function's value and first two derivatives, taken once at nodes r."""

    def __init__(self, f, r: np.ndarray):
        self.r = r
        self.jet = (f.eval(r), f.deriv(r, 1), f.deriv(r, 2))

    def eval(self, r):
        return self.deriv(r, 0)

    def deriv(self, r, order: int = 1):
        if r is not self.r:
            raise ValueError("sampled only at the nodes it was built on")
        return self.jet[order]


def remainder_scan(p: Params, w, t_list, grid: RadialGrid | None = None) -> list[dict]:
    """Quotient along u(t) = U_1 + t w for the given offsets t.

    w is sampled on the grid once, and the fit's scale-1 member
    (UnitManifold) is built once; every t reuses both.  Each row's "fit"
    holds the manifold fit's converged flag and polish_points.
    """
    grid = grid or wide_grid()
    unit = UnitManifold.build(p, grid)
    w = _Sampled(w, grid.nodes)
    out = []
    for t in t_list:
        u = RadialCombination([unit.U, w], [1.0, float(t)])
        fit = dist_to_manifold(p, u, grid, unit)
        quot = remainder_quotient(p, u, grid, fit=fit)
        out.append({"t": float(t), "quotient": quot, "dist": fit.dist,
                    "c": fit.c, "lam": fit.lam,
                    "fit": {"converged": fit.converged, "polish_points": fit.polish_points}})
    return out


# -- perturbation problem -------------------------------------------------------

# smallest |D_i|/G_i = |1 - mu2/mu_i| the Jacobian's elimination accepts off the tangent
PIVOT_FLOOR = 1e-6
# a fixed-point step at most this many ulps of ||U_lam + w||_alpha is rounding
# noise and counts as converged: at (10, 1.7), where that norm is 5.6e17, the
# step stalls at up to 5.8 ulps of it; at the PARAM_SETS the floor is below 1e-12
STEP_FLOOR_ULPS = 64.0
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
# ln s of the probe on which the weight's sign is checked besides the rule's
# nodes, in steps of 1/4; it has no quadrature role
SIGN_PROBE = np.linspace(-12.0, 12.0, 97)


def _star_rule(problem: ModeProblem, q: float) -> JacobiRule:
    """The rule of the star-type integrals: mode 0's pencil rule, larger where q is.

    The star measure U_1^{p*} s^{M-1} ds is C^{p*} (1-t^2)^delta dt / 2^M,
    the pencil rule's weight times (1-t)^2, and every star-type integrand is
    that measure times a smooth function of the ratio (U_1 + w)/U_1, a
    polynomial in t, and of h(r/lam), r = s^q.  Where q is large the rule is
    too coarse for h, and one of H_NODES_PER_Q q nodes in the same delta is
    built.
    """
    n = math.ceil(H_NODES_PER_Q * q)
    return problem.grid if problem.grid.n >= n else JacobiRule.build(n, problem.basis.delta)


class PerturbationProblem:
    """Discretization of the correction equation for a given (h, eps).

    The working basis is the spectral basis {phi_i} of the mode-0 pencil at
    scale 1, the trial functions themselves scaled to unit weighted mass,
    phi_i = x_i psi_i, or at large M the pencil's eigenvectors on a cut of
    the trial space (_solve_pencil_cut): it is orthogonal in the
    alpha-inner product with <phi_i, phi_i> = scale * mu_i, contains the
    extremal and the dilation tangent, and makes the frozen Jacobian
    diagonal plus border.
    """

    def __init__(self, params: Params, h, eps: float, nodes: int = 220):
        self.params = params
        self.h = h
        self.eps = float(eps)
        p = params

        self.problem: ModeProblem = assemble_mode_problem(p, 0, nodes=nodes)
        A = self.problem.A
        basis = self.problem.basis
        mu, x, _ = _solve_pencil(A, self.problem.B, self.problem.label)
        self.scale = self.problem.alpha_scale          # omega q^{-3}
        self.star_scale = sphere_area(p.N) * p.q       # omega q

        # the weights wq of int U_1^{p*} f s^{M-1} ds on _star_rule, formed in logs
        rule = _star_rule(self.problem, p.q)
        self.s = rule.s
        C = normalization_constant(p)
        self.wq = np.exp(rule.log_w + (p.M - 1.0) * rule.u
                         + p.pstar * (math.log(C) - (p.M - 4.0) * _log_hypot1(rule.s)))
        t = basis._map(self.s)

        # phi_i = E sum_k W_ki p_k(t) with p_k of self.family, = sum_j X_ji psi_j.
        # In the diagonal basis W = X = diag(x), and (U + w)/U = 1 + sum_j
        # x_j c_j p_j(t)/C; |p_j| peaks at t = 1 (delta > 1 in mode 0), so a
        # change of c_j by a given alpha-norm, relative to the bubble's, moves
        # the ratio by up to gain_j = (p_j(1)/p_0)/sqrt(mu_j) times that.
        # Where a gain_j^2 exceeds 1/MASS_CUT (at most 5e5 at the PARAM_SETS,
        # 1e54 at (10, 1.7), M = 55.3) the ratio is not fixed pointwise, and
        # the working basis is the pencil's on the Legendre directions whose
        # mass is at least MASS_CUT of the largest (103 of 160 there).
        # p_j(1)/p_0 is the product of the family's closed-form ratios
        fam = basis.families[0]
        with np.errstate(over="ignore"):
            gain_sq = np.concatenate(([1.0], np.cumprod(fam.ratio))) ** 2 / mu
        if gain_sq.max() * MASS_CUT <= 1.0:
            self.family, self.W = fam, np.diag(x)
            self.X = self.W
        else:
            mu, self.W, self.X, self.family = _solve_pencil_cut(self.problem, MASS_CUT)
        self.kept = kept = mu.size
        # phi_i / U_1 = sum_k W_ki p_k(t) / C on the rule, (kept, n)
        self.phi = self.W.T @ self.family.rows(t, basis.m) / C

        self.G = self.scale * mu                        # diag of <phi_i, phi_j>_alpha
        # the bubble is C E = (C/p0) psi_0 (sigma0 = 0 in mode 0): its
        # alpha-products with the basis are read off the stiffness matrix
        c0 = C / basis.p0
        self.bU = self.scale * c0 * (self.X.T @ A[:, 0])
        self.norm0 = self.scale * c0 * c0 * float(A[0, 0])
        # dilation tangent at scale 1 on the s side: -c E t = -c (b1/p0) psi_1
        c1 = C * (p.N - 4.0 + p.alpha) / 2.0 * basis.b1 / basis.p0
        self.d = -self.scale * c1 * (self.X.T @ A[:, 1])

        # at 160 trial functions the rule's nodes reach only |ln s| < 6; the
        # sign of the weight 1 + eps h(r/lam) is also checked on a fixed probe
        # out to |ln s| = 12.  Where q is large r = s^q overflows to inf, and h
        # is taken at infinity there
        with np.errstate(over="ignore"):
            self.r_of_s = np.exp(p.q * rule.u)
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
        self._cache: dict = {}

        # the star term with no correction and eps = 0
        star0 = self.star_scale * float(self.wq.sum())
        self.unperturbed_energy = 0.5 * self.norm0 - star0 / p.pstar

    # -- helpers ---------------------------------------------------------------

    def norm_sq(self, c: np.ndarray):
        """||U_lam + w_lam||^2 for the correction w = sum_i c_i phi_i, at every lam.

        c is one coefficient vector (kept,) or a block (L, kept), one per row.
        """
        return self.norm0 + 2.0 * (c @ self.bU) + (c * c) @ self.G

    def _h_values(self, r_of_s: np.ndarray, lam) -> np.ndarray:
        """h(r/lam) at r = r_of_s: shape (n,) for one scale, (L, n) for L scales."""
        with np.errstate(over="ignore"):
            r = r_of_s / np.asarray(lam, dtype=float)[..., None]
        if self.h is None:
            return np.zeros(r.shape)
        return np.asarray(self.h(r.ravel()), dtype=float).reshape(r.shape)

    def _solve_jacobian(self, r: np.ndarray, r_l):
        """(x, l) with D_i x_i - d_i l = r_i and d . x = r_l, in O(kept) work.

        Rows i != i_tan give x_i = (r_i + d_i l)/D_i; what is left is the
        2x2 system [[D_j, -d_j], [d_j, sum_{i!=j} d_i^2/D_i]] in (x_j, l).
        r is one right-hand side (kept,) with a scalar r_l, or a block
        (L, kept) with r_l of shape (L,), solved row by row.
        """
        j = self.i_tan
        D_j, d_j = float(self.D[j]), float(self.d[j])
        det = D_j * self._schur + d_j * d_j
        r_j = r[..., j]
        b = r_l - r @ self._d_over_D
        l = (D_j * b - d_j * r_j) / det
        x = self._inv_D * r + self._d_over_D * np.expand_dims(l, -1)
        x[..., j] = (self._schur * r_j + d_j * b) / det
        return x, l

    def _forcing(self, lams, eps: float) -> np.ndarray:
        """star_scale wq (1 + eps h(r/lam)), the nonlinear term's weight at each scale.

        Raises ContractionFailure where |eps h| exceeds 1 at one of the
        scales, on the rule or on the sign probe: the weight would change
        sign.
        """
        f = self._h_values(self.r_of_s, lams)
        f *= eps
        probe = self._h_values(self.r_probe, lams)
        sup = max(float(np.max(np.abs(f))), abs(eps) * float(np.max(np.abs(probe))))
        if sup > 1.0:
            raise ContractionFailure(f"|eps| sup|h| = {sup:.3f} exceeds 1")
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
    eps: float
    coeffs: np.ndarray
    l: float                      # physical multiplier (frame value times lam)
    iterations: int
    contraction_factor: float
    omega_norm: float
    residual: float               # dual norm of the projected residual
    unprojected_residual: float
    star: float                   # int (1 + eps h(r/lam)) |x|^{-a} u_+^{p*} in the scale-1 frame
    converged: bool
    problem: PerturbationProblem


def solve_correction(pp: PerturbationProblem, lam: float, eps: float | None = None,
                     tol: float = 1e-10, max_iter: int = 100,
                     refuse_factor: float = 0.9) -> CorrectionResult:
    """Fixed-point iteration for the constrained correction at scale lam.

    The one-scale case of solve_corrections.
    """
    return solve_corrections(pp, [lam], eps, tol, max_iter, refuse_factor)[0]


def solve_corrections(pp: PerturbationProblem, lams, eps: float | None = None,
                      tol: float = 1e-10, max_iter: int = 100,
                      refuse_factor: float = 0.9) -> list[CorrectionResult]:
    """Fixed-point iteration for the constrained correction at every scale in lams.

    Iterates the frozen-Jacobian map for (w, l) with the orthogonality
    constraint <w, tangent> = 0 until the update norm drops below `tol`,
    or below STEP_FLOOR_ULPS ulps of ||U_lam + w||_alpha when that is larger:
    such a step is rounding noise.
    The scales not yet in pp's cache are iterated in lockstep: each sweep
    takes the residuals of all of them as two matrix products over the
    (L, kept) coefficient block, and each scale leaves the sweeps at its
    own convergence, with its own iteration count and contraction factor.
    Raises ContractionFailure when the observed contraction factor reaches
    `refuse_factor` (the perturbation is too large for the fixed point);
    after every scale has been swept it names the first failing one in the
    order of lams.  The other results are cached either way.
    """
    eps = pp.eps if eps is None else float(eps)
    lams = [float(lam) for lam in np.atleast_1d(lams)]
    keys = [(lam, eps, tol, max_iter, refuse_factor) for lam in lams]
    todo = list(dict.fromkeys(lam for lam, key in zip(lams, keys) if key not in pp._cache))
    if not todo:
        return [pp._cache[key] for key in keys]
    sqrtG = np.sqrt(pp.G)
    at = np.arange(len(todo))                # positions in todo of the scales still iterated
    forcing = pp._forcing(todo, eps)
    c = np.zeros((len(todo), pp.kept))
    l_hat = np.zeros(len(todo))
    prev_step = np.zeros(len(todo))
    factor = np.zeros(len(todo))
    failures = {}                            # position in todo -> message
    for it in range(1, max_iter + 1):
        res = pp._residual(c, forcing)
        dc, dl = pp._solve_jacobian(-(res - l_hat[:, None] * pp.d), -(c @ pp.d))
        c += dc
        l_hat += dl
        step = np.sqrt(np.sum((sqrtG * dc) ** 2, axis=1) + dl * dl)
        ratio = np.divide(step, prev_step, out=np.zeros_like(step), where=prev_step > 0)
        factor = np.fmax(factor, ratio)
        # the absolute tol, or the step's rounding floor where the solution is huge
        tol_l = np.maximum(tol, STEP_FLOOR_ULPS * np.finfo(float).eps * np.sqrt(pp.norm_sq(c)))
        failed = (ratio >= refuse_factor) & (step > tol_l)
        for i, r in zip(at[failed], ratio[failed]):
            failures[int(i)] = f"contraction factor {r:.3f} >= {refuse_factor} at scale {todo[i]}"
        prev_step = step
        converged = step < tol_l
        done = (converged | (it == max_iter)) & ~failed
        if done.any():
            c_done, forcing_done = c[done], forcing[done]
            plus = pp._ratio_plus(c_done)
            res = pp._residual(c_done, forcing_done, plus)
            star = pp._star(c_done, forcing_done, plus)
            proj = res - l_hat[done, None] * pp.d
            residual = np.sqrt(np.sum(proj ** 2 / pp.G, axis=1))
            unproj = np.sqrt(np.sum(res ** 2 / pp.G, axis=1))
            for k, i in enumerate(np.flatnonzero(done)):
                lam = todo[at[i]]
                pp._cache[(lam, eps, tol, max_iter, refuse_factor)] = CorrectionResult(
                    lam=lam, eps=eps, coeffs=c[i].copy(), l=lam * float(l_hat[i]),
                    iterations=it, contraction_factor=float(factor[i]),
                    omega_norm=math.sqrt(float(np.sum(pp.G * c[i] ** 2))),
                    residual=float(residual[k]), unprojected_residual=float(unproj[k]),
                    star=float(star[k]), converged=bool(converged[i]), problem=pp)
        going = ~(done | failed)
        if not going.any():
            break
        if not going.all():
            at, forcing, c, l_hat, prev_step, factor = (
                a[going] for a in (at, forcing, c, l_hat, prev_step, factor))
    if failures:
        raise ContractionFailure(failures[min(failures)])
    return [pp._cache[key] for key in keys]


def reduced_energy(pp: PerturbationProblem, lam: float, eps: float | None = None,
                   result: CorrectionResult | None = None) -> float:
    """Energy of U_lam + correction at scale lam.

    The one-scale case of reduced_energies.
    """
    return float(reduced_energies(pp, [lam], eps, None if result is None else [result])[0])


def reduced_energies(pp: PerturbationProblem, lams, eps: float | None = None,
                     results: list | None = None) -> np.ndarray:
    """Energy of U_lam + correction at every scale in lams.

    Scaling is an isometry of both terms but the explicit h-weight, so each
    is taken in the scale-1 frame the fixed point works in: the quadratic
    part in coefficient space (PerturbationProblem.norm_sq), the star term
    as summed by solve_corrections on the fixed point's grid with the weight
    1 + eps h(r/lam) it iterated with (CorrectionResult.star), so that
    weight is built once per scale.  The dilation invariance this assumes
    is measured by the tests, against the star term integrated in the
    physical frame at scale lam.  results, when given, are the solutions at
    lams; otherwise they are solved here.
    """
    results = results or solve_corrections(pp, lams, eps)
    c = np.array([res.coeffs for res in results])          # (L, kept)
    star = np.array([res.star for res in results])
    return 0.5 * pp.norm_sq(c) - star / pp.params.pstar


# |l| / lam below this many ulps of ||U_lam + w||_alpha / ||T||, T the dilation
# tangent, is rounding and carries no sign: on the unperturbed problem (eps =
# 0, where l vanishes in exact arithmetic) it reads at most 469 such ulps over
# 32 points with N <= 12 and M from 4.0001 to 82, the most at M near 4
L_FLOOR_ULPS = 4096.0


def find_perturbed_solution(pp: PerturbationProblem,
                            lam_grid: np.ndarray | None = None) -> dict:
    """Locate an interior extremum of the reduced energy and assemble the solution.

    The reduced curve is sampled on a log grid, all of its scales as one
    block.  Its extrema are read off the multiplier l(lam), which every
    curve scale carries: l is proportional to the derivative of the curve
    and analytic in x = ln lam, and an interior extremum is a sign change
    of l between curve scales where |l| is above its rounding floor
    (L_FLOOR_ULPS).  Where l is below that floor at every scale the curve
    is constant, every scale is critical, and NoInteriorExtremum is raised.
    Of several sign changes (l_sign_changes) the one whose bracket reaches
    furthest from E0 is taken (l_sign_change_taken, from 0 in increasing
    lam).  lambda* is polished across that bracket: l/lam is solved at
    POLISH_POINTS Chebyshev-Lobatto points in x (the ends are curve scales,
    so POLISH_POINTS - 2 new ones, one block), and lambda* is the root of
    its Chebyshev interpolant (Boyd's Chebyshev-proxy root finder): an
    eigenvalue of the interpolant's colleague matrix, with no further
    fixed-point solves.  Of several real roots in the bracket the one
    nearest the secant root of its ends is taken.  When l keeps one sign
    above its floor, the curve is monotone across the grid: the extremum
    is refined by a parabolic fit at the interior scale furthest from E0,
    and lambda_star_polished is false, as it is when the interpolant has no
    real root in its bracket (the secant root stands).  The solution at
    lambda* is then solved from a zero start, as every scale is, so its
    iterations and contraction factor mean what they mean elsewhere.
    polish_scales counts the new scales, polish_l_ratio is |l(lambda*)|
    over the larger |l| at the bracket's ends.
    """
    p = pp.params
    lam_grid = np.logspace(-2, 2, 33) if lam_grid is None else np.asarray(lam_grid, dtype=float)
    curve = solve_corrections(pp, lam_grid)
    gammas = reduced_energies(pp, lam_grid, results=curve)
    E0 = pp.unperturbed_energy
    dev = np.abs(gammas - E0)

    l_hat = np.array([res.l / res.lam for res in curve])
    c = np.array([res.coeffs for res in curve])
    tangent_norm = math.sqrt(float(np.sum(pp.d ** 2 / pp.G)))
    floor = L_FLOOR_ULPS * np.finfo(float).eps * np.sqrt(pp.norm_sq(c)) / tangent_norm
    sig = np.flatnonzero(np.abs(l_hat) > floor)
    if sig.size == 0:
        raise NoInteriorExtremum(
            f"l is below its rounding floor at all {lam_grid.size} scales of the curve "
            f"(largest |l/lam| {float(np.max(np.abs(l_hat))):.3e}); the reduced energy is "
            f"constant and every scale is critical")
    flips = [(int(a), int(b)) for a, b in zip(sig[:-1], sig[1:]) if l_hat[a] * l_hat[b] < 0]

    polish_scales = 0
    taken = None
    if flips:
        taken = int(np.argmax([max(dev[a], dev[b]) for a, b in flips]))
        ia, ib = flips[taken]
        la, lb = float(lam_grid[ia]), float(lam_grid[ib])
        ends = [curve[ia], curve[ib]]
        # Chebyshev-Lobatto points in ln lam, from xa up to xb; the ends are
        # set to the curve's own scales so that they are cache hits
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
        polish_scales = POLISH_POINTS - 2
    else:
        interior = np.arange(1, len(lam_grid) - 1)
        i_star = int(interior[np.argmax(dev[interior])])
        x = np.log(lam_grid[i_star - 1:i_star + 2])
        y = gammas[i_star - 1:i_star + 2]
        denom = (y[0] - 2.0 * y[1] + y[2])
        if denom != 0.0:
            x_par = x[1] - 0.5 * (x[2] - x[0]) * (y[2] - y[0]) / (2.0 * denom)
            lam_star = float(np.exp(np.clip(x_par, x[0], x[2])))
        else:
            lam_star = float(lam_grid[i_star])
        ends = [curve[i_star - 1], curve[i_star + 1]]
        polished = False
    final = solve_correction(pp, lam_star)
    energy = reduced_energy(pp, lam_star, result=final)
    # in mode 0 the bubble is C E and w = E sum_k (W c)_k p_k(t), so at every
    # scale (U_lam + w_lam)/U_lam = 1 + sum_k (W c)_k p_k(t)/C, a polynomial
    # in t = (s^2-1)/(s^2+1) of degree below m, whose minimum over all of
    # [-1, 1] is sampled at 16 m + 1 Chebyshev-Lobatto points (ends included)
    n_t = 16 * pp.problem.basis.m
    t = np.cos(np.pi * np.arange(n_t + 1) / n_t)
    ratio = 1.0 + pp.family.sum(pp.W @ final.coeffs, t) / normalization_constant(p)
    min_ratio = float(ratio.min())
    l_ends = max(abs(ends[0].l), abs(ends[1].l))
    return {
        "lambda_star": float(lam_star),
        "lambda_star_polished": bool(polished),
        "energy": float(energy),
        "omega_norm": final.omega_norm,
        "l": final.l,
        "residual": final.unprojected_residual,
        "projected_residual": final.residual,
        "iterations": final.iterations,
        "contraction_factor": final.contraction_factor,
        "min_ratio_to_bubble": min_ratio,
        "positive": min_ratio > 0.0,
        "polish_scales": polish_scales,
        "l_sign_changes": len(flips),
        "l_sign_change_taken": taken,
        "polish_l_ratio": abs(final.l) / l_ends if l_ends > 0.0 else 0.0,
        "gamma_curve": [{"lam": float(l), "gamma": float(g)} for l, g in zip(lam_grid, gammas)],
        "result": final,
    }
