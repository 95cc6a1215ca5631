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
terms are integrated, on SGrid's composite log grid at scale 1, where the
bubble sits at ln s = 0 for every lam, so its window |ln s| <= 12 serves
every scale.  The fixed point's residual is summed over that whole grid:
the high pencil modes live in its tails, where u_+^{p*-1} phi_i is not
bounded by the bubble's decay.  The star term of the reduced energy is
summed in the same frame, from the fixed point's own arrays: one (L, kept)
@ (kept, n) product for all scales, as in a residual sweep
(reduced_energies).  The program so assumes the dilation invariance of
the reduced energy; the tests measure it, against the star term
integrated in the physical frame on a grid widened to each scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.legendre import legval
from scipy.optimize import brentq

from .calculus import RadialGrid, weighted_hessian_norm_sq, weighted_star_norm
from .emden import ComposedRadial, sobolev_bubble
from .errors import (ContractionFailure, EigensolveFailure, NoInteriorExtremum, OnManifold,
                     QuadratureFailure, ZeroFunction)
from .params import Params, best_constant_radial, normalization_constant, sphere_area
from .profiles import dilation_tangent, extremal_U
from .spectrum import ModeProblem, SGrid, SobolevModeFunction, assemble_mode_problem, _solve_pencil

__all__ = [
    "ManifoldFit",
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
    "h_weighted_star_norm",
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

    def __call__(self, r):
        return self.eval(r)

    def deriv(self, r, order: int = 1):
        out = self.weights[0] * self.parts[0].deriv(r, order)
        for w, f in zip(self.weights[1:], self.parts[1:]):
            out = out + w * f.deriv(r, order)
        return out


# -- distance to the two-parameter manifold -----------------------------------

_WIDE = None


def _wide_grid() -> RadialGrid:
    global _WIDE
    if _WIDE is None:
        _WIDE = RadialGrid.log_gauss(1e-14, 1e14, 2048)
    return _WIDE


@dataclass
class ManifoldFit:
    """Nearest point c*U_lam on the scaled-extremal manifold."""

    c: float
    lam: float
    dist: float
    converged: bool               # every local maximum of the scan was polished
    candidates: list


# the scan in x = ln lam: the scales 2^-7.5 to 2^7.5 in steps of 2^(1/4)
SCAN_HALF_WIDTH = 7.5 * math.log(2.0)
SCAN_POINTS = 61


def dist_to_manifold(p: Params, u, grid: RadialGrid | None = None) -> ManifoldFit:
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
    Each discrete local maximum of g^2 is polished by one brentq on the
    stationarity condition dg/dx = 0 between its neighbouring scan points,
    and the candidate with the smallest directly integrated distance wins.  That distance is the
    direct quadrature of the optimal residual, so on-manifold inputs come
    back at rounding level rather than at the cancellation floor of the
    quotient formula.
    """
    grid = grid or _wide_grid()
    r = grid.nodes
    lap_u = u.deriv(r, 2) + (p.N - 1) * u.deriv(r, 1) / r
    weight = sphere_area(p.N) * grid.weights * r ** (p.alpha + p.N - 1)
    norm_U_sq = weighted_hessian_norm_sq(p, extremal_U(p), grid)

    def lap_U(lam):
        return extremal_U(p, lam).form.radial_laplacian(p.N).eval(r)

    def overlap(x):
        return float(weight @ (lap_u * lap_U(math.exp(x))))

    def overlap_slope(x):
        # d/dx <u, U_{e^x}> = e^x <u, dU/dlam at e^x>
        lam = math.exp(x)
        lap_t = dilation_tangent(p, lam).form.radial_laplacian(p.N).eval(r)
        return lam * float(weight @ (lap_u * lap_t))

    xs = np.linspace(-SCAN_HALF_WIDTH, SCAN_HALF_WIDTH, SCAN_POINTS)
    g2 = np.array([overlap(x) for x in xs]) ** 2
    # discrete local maxima; a plateau counts once, at its right end
    left = np.concatenate(([True], g2[1:] >= g2[:-1]))
    right = np.concatenate((g2[:-1] > g2[1:], [True]))
    peaks = np.flatnonzero(left & right)
    cands = []
    polished = True
    for i in peaks:
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, SCAN_POINTS - 1)]
        fa, fb = overlap_slope(a), overlap_slope(b)
        if fa * fb < 0:
            x = brentq(overlap_slope, a, b, xtol=1e-14)
        else:
            # no sign change (a peak at the scan's end, or a non-finite slope):
            # the scan point stands, and the fit does not count as converged
            x = xs[i]
            polished = False
        lam = math.exp(x)
        lap_l = lap_U(lam)
        c = float(weight @ (lap_u * lap_l)) / norm_U_sq
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
                       candidates=[{"c": cc, "lam": ll, "dist": math.sqrt(dd)} for dd, cc, ll in uniq])


def remainder_quotient(p: Params, u, grid: RadialGrid | None = None,
                       fit: ManifoldFit | None = None) -> float:
    """Deficit quotient (||u||^2 - S ||u||_*^2) / dist(u, M2)^2."""
    grid = grid or _wide_grid()
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

    w is sampled on the grid once; every t reuses those samples.
    """
    grid = grid or _wide_grid()
    U = extremal_U(p)
    w = _Sampled(w, grid.nodes)
    out = []
    for t in t_list:
        u = RadialCombination([U, w], [1.0, float(t)])
        fit = dist_to_manifold(p, u, grid)
        quot = remainder_quotient(p, u, grid, fit=fit)
        out.append({"t": float(t), "quotient": quot, "dist": fit.dist,
                    "c": fit.c, "lam": fit.lam})
    return out


# -- perturbation problem -------------------------------------------------------

# smallest |D_i|/G_i = |1 - mu2/mu_i| the Jacobian's elimination accepts off the tangent
PIVOT_FLOOR = 1e-6
# a fixed-point step at most this many ulps of ||U_lam + w||_alpha is rounding
# noise and counts as converged: at (10, 1.7), where that norm is 5.6e17, the
# step stalls at up to 5.8 ulps of it; at the PARAM_SETS the floor is below 1e-12
STEP_FLOOR_ULPS = 64.0
# Chebyshev-Lobatto scales in ln lam across the bracket of lambda*, ends
# included: against brentq on l itself at the five PARAM_SETS, (9, -4.8),
# (4, 0.0504) and (12, -7), lambda* agrees to 8.1e-8 with 8 points, 7.0e-10
# with 10, 2.0e-11 with 12 and 6.5e-12 with 16, where l's own rounding sets in
POLISH_POINTS = 12


class PerturbationProblem:
    """Discretization of the correction equation for a given (h, eps).

    The working basis is the spectral basis {phi_i} of the mode-0 pencil at
    scale 1: it is orthogonal in the alpha-inner product with
    <phi_i, phi_i> = scale * mu_i, contains the extremal and the dilation
    tangent exactly, and makes the frozen Jacobian diagonal plus border.
    """

    def __init__(self, params: Params, h, eps: float, nodes: int = 220,
                 drop: float = 1e-13):
        self.params = params
        self.h = h
        self.eps = float(eps)
        p = params

        self.problem: ModeProblem = assemble_mode_problem(p, 0, nodes=nodes)
        mu, X, kept = _solve_pencil(self.problem.A, self.problem.B, drop=drop)
        self.X = X                      # (m_poly, kept) B-orthonormal columns
        self.kept = kept
        self.scale = self.problem.alpha_scale          # omega q^{-3}
        self.star_scale = sphere_area(p.N) * p.q       # omega q

        # u_+^{p*-1} and h(r/lam) are not polynomial in the pencil's Jacobi
        # variable, so the star-type integrals use the composite log grid
        grid = SGrid.build(nodes)
        self.s = grid.s
        with np.errstate(over="ignore"):
            self.wq = grid.w * self.s ** (p.M - 1.0)
        if not np.isfinite(self.wq).all():
            raise QuadratureFailure(
                f"perturbation grid at N={p.N}, alpha={p.alpha} (M={p.M:.6g}): the weight "
                f"s^(M-1) overflows the float range at ln s = {grid.u[-1]:.4g}")
        self.bub_vals = sobolev_bubble(p, 1.0).form.eval(self.s)
        self.phi = X.T @ self.problem.basis.values(self.s)      # (kept, n)

        C = normalization_constant(p)
        self.G = self.scale * mu                        # diag of <phi_i, phi_j>_alpha
        # the bubble is C psi_0 (sigma0 = 0 in mode 0): its alpha-products
        # with the basis are read off the stiffness matrix exactly
        self.bU = self.scale * C * (X.T @ self.problem.A[:, 0])
        self.norm0 = self.scale * C * C * float(self.problem.A[0, 0])
        # dilation tangent at scale 1 on the s side: -c * E * t = -c * psi_1
        c_tan = C * (p.N - 4.0 + p.alpha) / 2.0
        d_poly = np.zeros(X.shape[0])
        if X.shape[0] > 1:
            d_poly[1] = -c_tan
        self.d = self.scale * (X.T @ (self.problem.A @ d_poly))
        self.tangent_norm = math.sqrt(float(self.scale * d_poly @ self.problem.A @ d_poly))

        self.r_of_s = self.s ** p.q

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
        star0 = float(self._star(np.zeros(kept), self.star_scale * self.wq))
        self.unperturbed_energy = 0.5 * self.norm0 - star0 / p.pstar

    # -- helpers ---------------------------------------------------------------

    def norm_sq(self, c: np.ndarray):
        """||U_lam + w_lam||^2 for the correction w = sum_i c_i phi_i, at every lam.

        c is one coefficient vector (kept,) or a block (L, kept), one per row.
        """
        return self.norm0 + 2.0 * (c @ self.bU) + (c * c) @ self.G

    def _h_values(self, lam) -> np.ndarray:
        """h(r/lam) on the grid: shape (n,) for one scale, (L, n) for L scales."""
        r = self.r_of_s / np.asarray(lam, dtype=float)[..., None]
        if self.h is None:
            return np.zeros(r.shape)
        return np.asarray(self.h(r.ravel()), dtype=float).reshape(r.shape)

    def basis_tangent_overlaps(self) -> float:
        """Largest normalized overlap of a non-tangent basis mode with the tangent."""
        overlaps = np.abs(self.d) / (np.sqrt(self.G) * self.tangent_norm)
        return float(np.delete(overlaps, self.i_tan).max())

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

        Raises ContractionFailure where |eps h| exceeds 1 on the grid at one
        of the scales: the weight would change sign.
        """
        f = self._h_values(lams)
        f *= eps
        sup = float(np.max(np.abs(f)))
        if sup > 1.0:
            raise ContractionFailure(f"|eps| sup|h| = {sup:.3f} exceeds 1")
        f += 1.0
        f *= self.star_scale * self.wq
        return f

    def _u_plus(self, c: np.ndarray) -> np.ndarray:
        """(U_1 + w)_+ on the grid, w = sum_i c_i phi_i; one row per row of c."""
        f = c @ self.phi
        f += self.bub_vals
        np.maximum(f, 0.0, out=f)
        return f

    def _residual(self, c: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        """<u, phi_i>_alpha - int (1+eps h)|x|^{-a} u_+^{p*-1} phi_i, u = U_1 + w.

        c is (kept,) with forcing (n,), or a block (L, kept) with forcing
        (L, n) from _forcing; the residual has the shape of c.
        """
        f = self._u_plus(c)
        f **= self.params.pstar - 1.0
        f *= forcing
        return self.bU + self.G * c - f @ self.phi.T

    def _star(self, c: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        """int (1+eps h)|x|^{-a} u_+^{p*}, u = U_1 + w, with c and forcing as in _residual."""
        f = self._u_plus(c)
        f **= self.params.pstar
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
    converged: bool
    problem: PerturbationProblem

    def omega_hat(self) -> SobolevModeFunction:
        """Correction in the transported frame, as a function of s."""
        pp = self.problem
        return SobolevModeFunction(pp.problem.basis, pp.X @ self.coeffs)

    def omega_radial(self) -> ComposedRadial:
        """Physical correction P_lam(w) on the weighted side."""
        p = self.problem.params
        pre = self.lam ** ((p.N - 4.0 + p.alpha) / 2.0)
        return ComposedRadial(self.omega_hat(), 1.0 / p.q, scale=self.lam, amp=pre)


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
            res = pp._residual(c[done], forcing[done])
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
                    converged=bool(converged[i]), problem=pp)
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
    summed on the fixed point's grid with the weight 1 + eps h(r/lam), all
    scales as one (L, kept) @ (kept, n) product.  The dilation invariance
    this assumes is measured by the tests, against the star term
    integrated in the physical frame at scale lam.
    """
    p = pp.params
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    eps = pp.eps if eps is None else float(eps)
    results = results or solve_corrections(pp, lams, eps)
    c = np.array([res.coeffs for res in results])          # (L, kept)
    return 0.5 * pp.norm_sq(c) - pp._star(c, pp._forcing(lams, eps)) / p.pstar


def find_perturbed_solution(pp: PerturbationProblem,
                            lam_grid: np.ndarray | None = None,
                            flat_tol: float = 1e-10) -> dict:
    """Locate an interior extremum of the reduced energy and assemble the solution.

    The reduced curve is sampled on a log grid, all of its scales as one
    block, and the extremum refined by a parabolic fit.  It is then
    polished on the multiplier l(lam), which is proportional to the
    derivative of the curve and analytic in x = ln lam: l/lam is solved at
    POLISH_POINTS Chebyshev-Lobatto points in x across the bracket of
    neighbouring curve scales (the ends are curve scales, so POLISH_POINTS
    - 2 new ones, one block), and lambda* is the root of its Chebyshev
    interpolant, found by brentq without further fixed-point solves.  The
    solution at lambda* is then solved from a zero start, as every scale is,
    so its iterations and contraction factor mean what they mean elsewhere.
    When l does not change sign across the bracket the parabolic scale
    stands, and lambda_star_polished says so.  polish_scales counts the new
    scales, polish_l_ratio is |l(lambda*)| over the larger |l| at the
    bracket's ends.  When the curve is numerically constant
    NoInteriorExtremum is raised.
    """
    p = pp.params
    lam_grid = np.logspace(-2, 2, 33) if lam_grid is None else np.asarray(lam_grid, dtype=float)
    gammas = reduced_energies(pp, lam_grid, results=solve_corrections(pp, lam_grid))
    E0 = pp.unperturbed_energy
    span = float(gammas.max() - gammas.min())
    if span < flat_tol * max(1.0, abs(E0)):
        raise NoInteriorExtremum(
            f"reduced energy is constant to {span:.3e}; every scale is critical")

    dev = np.abs(gammas - E0)
    interior = np.arange(1, len(lam_grid) - 1)
    i_star = int(interior[np.argmax(dev[interior])])
    x = np.log(lam_grid[i_star - 1:i_star + 2])
    y = gammas[i_star - 1:i_star + 2]
    denom = (y[0] - 2.0 * y[1] + y[2])
    if denom != 0.0:
        x_par = x[1] - 0.5 * (x[2] - x[0]) * (y[2] - y[0]) / (2.0 * denom)
        lam_par = float(np.exp(np.clip(x_par, x[0], x[2])))
    else:
        lam_par = float(lam_grid[i_star])

    lam_star = lam_par
    la, lb = float(lam_grid[i_star - 1]), float(lam_grid[i_star + 1])
    ends = solve_corrections(pp, [la, lb])
    polished = ends[0].l * ends[1].l < 0
    polish_scales = 0
    if polished:
        # Chebyshev-Lobatto points in ln lam, from xa up to xb; the ends are
        # set to the curve's own scales so that they are cache hits
        xa, xb = math.log(la), math.log(lb)
        xs = 0.5 * (xa + xb) - 0.5 * (xb - xa) * np.cos(np.pi * np.arange(POLISH_POINTS)
                                                         / (POLISH_POINTS - 1))
        lams = np.exp(xs)
        lams[0], lams[-1] = la, lb
        l_hat = [res.l / res.lam for res in solve_corrections(pp, lams)]
        cheb = Chebyshev.fit(xs, l_hat, POLISH_POINTS - 1, domain=[xa, xb])
        lam_star = math.exp(brentq(cheb, xa, xb, xtol=1e-15))
        polish_scales = POLISH_POINTS - 2
    final = solve_correction(pp, lam_star)
    energy = reduced_energy(pp, lam_star, result=final)
    # in mode 0, psi_j = E P_j(t) and the bubble is C psi_0, so at every
    # scale (U_lam + w_lam)/U_lam = 1 + sum_j (X c)_j P_j(t)/C, a polynomial
    # in t = (s^2-1)/(s^2+1) of degree below m, whose minimum over all of
    # [-1, 1] is sampled at 16 m + 1 Chebyshev-Lobatto points (ends included)
    n_t = 16 * pp.problem.basis.m
    t = np.cos(np.pi * np.arange(n_t + 1) / n_t)
    ratio = 1.0 + legval(t, pp.X @ final.coeffs) / normalization_constant(p)
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
        "polish_l_ratio": abs(final.l) / l_ends if l_ends > 0.0 else 0.0,
        "gamma_curve": [{"lam": float(l), "gamma": float(g)} for l, g in zip(lam_grid, gammas)],
        "result": final,
    }


def h_weighted_star_norm(p: Params, h, lam: float, grid: RadialGrid | None = None) -> float:
    """Norm || |h|^{1/p*} U_lam ||_* measuring where the perturbation sees the bubble."""
    grid = grid or _wide_grid()
    r = grid.nodes
    U = extremal_U(p, lam)
    hv = np.abs(np.asarray(h(r), dtype=float))
    vals = hv * r ** (-p.alpha) * U.eval(r) ** p.pstar * r ** (p.N - 1)
    return (sphere_area(p.N) * grid.integrate(vals)) ** (1.0 / p.pstar)
