"""Manifold distance, deficit quotients, and the reduced perturbation solve.

The correction equation is solved in the scale-transported frame: solving
at scale lam with perturbation weight h(x) is the same problem as solving
at scale 1 with weight h(x/lam), because the scaling map is an isometry of
every functional involved except the explicit h-term.  The discrete space
is the spectral basis of the mode-0 linearized pencil, in which the frozen
Jacobian of the fixed-point map is diagonal plus a one-dimensional border.
Reported energies are still evaluated in the physical frame, so scaling
invariance is measured, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import brentq, minimize_scalar

from .calculus import RadialGrid, weighted_hessian_norm_sq, weighted_star_norm
from .errors import ContractionFailure, NoInteriorExtremum, OnManifold, ZeroFunction
from .forms import PowerForm
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
    "reduced_energy",
    "find_perturbed_solution",
    "RadialCombination",
    "BUILTIN_H",
    "h_weighted_star_norm",
]


def exp_bump(r):
    r = np.asarray(r, dtype=float)
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
    converged: bool
    starts_used: int
    candidates: list


def dist_to_manifold(p: Params, u, grid: RadialGrid | None = None,
                     starts: tuple = tuple(2.0 ** k for k in range(-6, 7))) -> ManifoldFit:
    """Minimize ||u - c U_lam|| over (c, lam).

    c is eliminated in closed form through c*(lam) = <u, U_lam>/||U||^2 and
    the remaining profile maximization over ln(lam) runs from a ladder of
    starts with local refinement.  The returned distance is the direct
    quadrature of the optimal residual, so on-manifold inputs come back at
    rounding level rather than at the cancellation floor of the quotient
    formula.
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

    def neg_sq(x):
        g = overlap(x)
        return -g * g

    cands = []
    for lam0 in starts:
        x0 = math.log(lam0)
        res = minimize_scalar(neg_sq, bounds=(x0 - 1.5 * math.log(2), x0 + 1.5 * math.log(2)),
                              method="bounded", options={"xatol": 1e-12})
        xs = res.x
        # value-based search localizes only to sqrt(eps); polish on the
        # stationarity condition <u, dU/dlam> = 0, which crosses steeply
        hw = 1e-3
        while hw < 0.7:
            fa, fb = overlap_slope(xs - hw), overlap_slope(xs + hw)
            if fa == 0.0 or fb == 0.0 or fa * fb < 0:
                if fa * fb < 0:
                    xs = brentq(overlap_slope, xs - hw, xs + hw, xtol=1e-14)
                break
            hw *= 4.0
        lam = math.exp(xs)
        c = overlap(xs) / norm_U_sq
        dist_sq = float(weight @ (lap_u - c * lap_U(lam)) ** 2)
        cands.append((max(dist_sq, 0.0), c, lam))
    cands.sort(key=lambda t: t[0])
    # deduplicate local minima for the report
    uniq = []
    for d2, c, lam in cands:
        if not any(abs(math.log(lam / l2)) < 1e-4 for _, _, l2 in uniq):
            uniq.append((d2, c, lam))
    d2, c, lam = cands[0]
    return ManifoldFit(c=c, lam=lam, dist=math.sqrt(d2), converged=True,
                       starts_used=len(starts),
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


def remainder_scan(p: Params, w, t_list, grid: RadialGrid | None = None) -> list[dict]:
    """Quotient along u(t) = U_1 + t w for the given offsets t."""
    grid = grid or _wide_grid()
    U = extremal_U(p)
    out = []
    for t in t_list:
        u = RadialCombination([U, w], [1.0, float(t)])
        fit = dist_to_manifold(p, u, grid)
        quot = remainder_quotient(p, u, grid, fit=fit)
        out.append({"t": float(t), "quotient": quot, "dist": fit.dist,
                    "c": fit.c, "lam": fit.lam})
    return out


# -- perturbation problem -------------------------------------------------------


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
        self.nodes = nodes
        p = params

        self.problem: ModeProblem = assemble_mode_problem(p, 0, nodes=nodes)
        mu, X, kept = _solve_pencil(self.problem.A, self.problem.B, drop=drop)
        self.mu = mu
        self.X = X                      # (m_poly, kept) B-orthonormal columns
        self.kept = kept
        self.scale = self.problem.alpha_scale          # omega q^{-3}
        self.star_scale = sphere_area(p.N) * p.q       # omega q

        # u_+^{p*-1} and h(r/lam) are not polynomial in the pencil's Jacobi
        # variable, so the nonlinear integrals use the composite log grid
        grid = SGrid.build(nodes, M=p.M)
        self.s = grid.s
        self.wq = grid.w * self.s ** (p.M - 1.0)
        # spectral basis values and applied operator on the grid
        psi, lpsi = self.problem.basis.applied(self.s)
        self.phi = X.T @ psi            # (kept, n)
        self.lphi = X.T @ lpsi
        del psi, lpsi

        C = normalization_constant(p)
        self.bubble = _bubble_form(p, 1.0)
        self.bub_vals = self.bubble.eval(self.s)
        self.lbub_vals = self.bubble.radial_laplacian(p.M).eval(self.s)

        self.G = self.scale * mu                        # diag of <phi_i, phi_j>_alpha
        self.bU = self.scale * (self.lphi * self.wq) @ self.lbub_vals
        # dilation tangent at scale 1 on the s side: -c * E * t = -c * psi_1
        c_tan = C * (p.N - 4.0 + p.alpha) / 2.0
        d_poly = np.zeros(X.shape[0])
        if X.shape[0] > 1:
            d_poly[1] = -c_tan
        self.d = self.scale * (X.T @ (self.problem.A @ d_poly))
        self.d_poly = d_poly
        self.tangent_norm = math.sqrt(float(self.scale * d_poly @ self.problem.A @ d_poly))

        self.r_of_s = self.s ** p.q
        self.h_phys = self._h_values(1.0)           # physical-frame h on the grid
        self.h_sup = float(np.max(np.abs(self.h_phys)))

        D = self.G * (1.0 - (p.pstar - 1.0) / mu)       # scale*(mu_i - mu2) with mu2 = p*-1
        K = np.zeros((kept + 1, kept + 1))
        K[np.diag_indices(kept)] = D
        K[:kept, kept] = -self.d
        K[kept, :kept] = self.d
        self._K_lu = lu_factor(K)
        self._cache: dict = {}

        # unperturbed energy of the extremal, from the same quadrature
        star0 = self.star_scale * float(self.wq @ np.maximum(self.bub_vals, 0.0) ** p.pstar)
        norm0 = self.scale * float(self.wq @ self.lbub_vals ** 2)
        self.norm_U_sq = norm0
        self.unperturbed_energy = 0.5 * norm0 - star0 / p.pstar

    # -- helpers ---------------------------------------------------------------

    def _h_values(self, lam: float) -> np.ndarray:
        if self.h is None:
            return np.zeros_like(self.s)
        return np.asarray(self.h(self.r_of_s / lam), dtype=float)

    def basis_tangent_overlaps(self) -> float:
        """Largest normalized overlap of a non-tangent basis mode with the tangent."""
        norms = np.sqrt(self.G)
        overlaps = np.abs(self.d) / (norms * self.tangent_norm)
        i_tan = int(np.argmax(overlaps))
        rest = np.delete(overlaps, i_tan)
        return float(rest.max())

    def _residual(self, c: np.ndarray, hvals: np.ndarray, eps: float):
        """<u, phi_i>_alpha - int (1+eps h)|x|^{-a} u_+^{p*-1} phi_i, u = U_1 + w."""
        p = self.params
        u_vals = self.bub_vals + c @ self.phi
        f = (1.0 + eps * hvals) * np.maximum(u_vals, 0.0) ** (p.pstar - 1.0)
        nonlinear = self.star_scale * (self.phi @ (self.wq * f))
        return self.bU + self.G * c - nonlinear, u_vals


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

    def omega_radial(self):
        """Physical correction P_lam(w) on the weighted side."""
        pp = self.problem
        p = pp.params
        fn = self.omega_hat()
        lam = self.lam
        pre = lam ** ((p.N - 4.0 + p.alpha) / 2.0)
        iq = 1.0 / p.q

        class _Omega:
            def eval(self, r):
                r = np.asarray(r, dtype=float)
                return pre * fn.eval((lam * r) ** iq)

            __call__ = eval

            def deriv(self, r, order: int = 1):
                r = np.asarray(r, dtype=float)
                rr = lam * r
                s = rr ** iq
                ds = iq * rr ** (iq - 1.0) * lam
                if order == 1:
                    return pre * fn.deriv(s, 1) * ds
                d2s = iq * (iq - 1.0) * rr ** (iq - 2.0) * lam * lam
                return pre * (fn.deriv(s, 2) * ds ** 2 + fn.deriv(s, 1) * d2s)

        return _Omega()


def solve_correction(pp: PerturbationProblem, lam: float, eps: float | None = None,
                     tol: float = 1e-10, max_iter: int = 100,
                     refuse_factor: float = 0.9) -> CorrectionResult:
    """Fixed-point iteration for the constrained correction at scale lam.

    Iterates the frozen-Jacobian map for (w, l) with the orthogonality
    constraint <w, tangent> = 0 until the update norm drops below `tol`.
    Raises ContractionFailure when the observed contraction factor reaches
    `refuse_factor` (the perturbation is too large for the fixed point).
    """
    eps = pp.eps if eps is None else float(eps)
    key = (lam, eps, tol, max_iter, refuse_factor)
    if key in pp._cache:
        return pp._cache[key]
    if abs(eps) * pp.h_sup > 1.0:
        raise ContractionFailure(f"|eps| sup|h| = {abs(eps) * pp.h_sup:.3f} exceeds 1")
    kept = pp.kept
    hvals = pp._h_values(lam)
    c = np.zeros(kept)
    l_hat = 0.0
    sqrtG = np.sqrt(pp.G)
    prev_step = None
    factor = 0.0
    iterations = 0
    converged = False
    for it in range(1, max_iter + 1):
        res, _ = pp._residual(c, hvals, eps)
        rhs = np.empty(kept + 1)
        rhs[:kept] = -(res - l_hat * pp.d)
        rhs[kept] = -(pp.d @ c)
        delta = lu_solve(pp._K_lu, rhs)
        c = c + delta[:kept]
        l_hat = l_hat + delta[kept]
        step = math.sqrt(float(np.sum((sqrtG * delta[:kept]) ** 2)) + delta[kept] ** 2)
        iterations = it
        if prev_step is not None and prev_step > 0:
            ratio = step / prev_step
            factor = max(factor, ratio)
            if ratio >= refuse_factor and step > tol:
                raise ContractionFailure(
                    f"contraction factor {ratio:.3f} >= {refuse_factor} at scale {lam}")
        prev_step = step
        if step < tol:
            converged = True
            break
    res, _ = pp._residual(c, hvals, eps)
    proj = res - l_hat * pp.d
    residual = math.sqrt(float(np.sum(proj ** 2 / pp.G)))
    unproj = math.sqrt(float(np.sum(res ** 2 / pp.G)))
    omega_norm = math.sqrt(float(np.sum(pp.G * c ** 2)))
    out = CorrectionResult(lam=float(lam), eps=eps, coeffs=c, l=float(lam) * l_hat,
                           iterations=iterations, contraction_factor=factor,
                           omega_norm=omega_norm, residual=residual,
                           unprojected_residual=unproj, converged=converged,
                           problem=pp)
    pp._cache[key] = out
    return out


def _bubble_form(p: Params, lam: float) -> PowerForm:
    C = normalization_constant(p)
    nu = lam ** (1.0 / p.q)
    return PowerForm.single(2.0, nu * nu, -(p.M - 4.0) / 2.0,
                            coef=C * nu ** ((p.M - 4.0) / 2.0))


def reduced_energy(pp: PerturbationProblem, lam: float, eps: float | None = None,
                   result: CorrectionResult | None = None) -> float:
    """Physical-frame energy of U_lam + correction at scale lam.

    Every integral is evaluated on the fixed quadrature grid with the
    scale-dependent integrands, so invariance under scaling is a measured
    property of the discretization rather than an identity of the code.
    """
    p = pp.params
    eps = pp.eps if eps is None else float(eps)
    result = result or solve_correction(pp, lam, eps)
    nu = lam ** (1.0 / p.q)
    bub = _bubble_form(p, lam)
    bub_vals = bub.eval(pp.s)
    lbub_vals = bub.radial_laplacian(p.M).eval(pp.s)
    # transported correction: nu^{(M-4)/2} w(nu s); operator picks nu^2
    w_vals, _, _, lw_vals = pp.problem.basis.series(pp.X @ result.coeffs, nu * pp.s)
    pre = nu ** ((p.M - 4.0) / 2.0)
    lap_u = lbub_vals + pre * nu * nu * lw_vals
    norm_sq = pp.scale * float(pp.wq @ lap_u ** 2)
    u_vals = bub_vals + pre * w_vals
    star = pp.star_scale * float(pp.wq @ ((1.0 + eps * pp.h_phys) * np.maximum(u_vals, 0.0) ** p.pstar))
    return 0.5 * norm_sq - star / p.pstar


def find_perturbed_solution(pp: PerturbationProblem,
                            lam_grid: np.ndarray | None = None,
                            flat_tol: float = 1e-10) -> dict:
    """Locate an interior extremum of the reduced energy and assemble the solution.

    The reduced curve is sampled on a log grid, the extremum refined by a
    parabolic fit and then polished by a root solve on the multiplier l(lam)
    (l is proportional to the derivative of the curve).  When the curve is
    numerically constant NoInteriorExtremum is raised.
    """
    p = pp.params
    lam_grid = np.logspace(-2, 2, 33) if lam_grid is None else np.asarray(lam_grid, dtype=float)
    results = [solve_correction(pp, lam) for lam in lam_grid]
    gammas = np.array([reduced_energy(pp, lam, result=res) for lam, res in zip(lam_grid, results)])
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

    def l_hat_of(lam: float) -> float:
        res = solve_correction(pp, lam)
        return res.l / lam

    lam_star = lam_par
    la, lb = lam_grid[i_star - 1], lam_grid[i_star + 1]
    fa, fb = l_hat_of(la), l_hat_of(lb)
    if fa * fb < 0:
        lam_star = brentq(l_hat_of, la, lb, xtol=1e-14, rtol=1e-14)
    final = solve_correction(pp, lam_star)
    energy = reduced_energy(pp, lam_star, result=final)
    nu = lam_star ** (1.0 / p.q)
    w_vals = final.omega_hat().eval(nu * pp.s)
    u_vals = _bubble_form(p, lam_star).eval(pp.s) + nu ** ((p.M - 4.0) / 2.0) * w_vals
    return {
        "lambda_star": float(lam_star),
        "energy": float(energy),
        "omega_norm": final.omega_norm,
        "l": final.l,
        "residual": final.unprojected_residual,
        "projected_residual": final.residual,
        "iterations": final.iterations,
        "contraction_factor": final.contraction_factor,
        "u_min_on_grid": float(u_vals.min()),
        "positive": bool(u_vals.min() > 0.0),
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
