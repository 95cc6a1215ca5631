"""Per-mode eigenproblem of the linearized equation.

After the substitution s = r^{1/q} the mode-k problem becomes, in the
effective dimension M,

    T_k(T_k X) = mu * (M-4)(M-2)M(M+2) (1 + s^2)^{-4} X,
    T_k X = X'' + (M-1) X'/s - lambda_k q^2 X / s^2,

with mu normalized so the extremal itself sits at mu = 1.  The problem is
discretized in weak form: trial space s^{sigma0} (1+s^2)^{1-delta} P_j(t),
t = (s^2-1)/(s^2+1), where sigma0 and the decay power are the indicial
exponents of T_k at zero and infinity.  Both closed-form eigenfunctions of
the continuum problem lie in the span exactly, the stiffness matrix needs
only second derivatives, and the discrete pencil is symmetric by
construction.  Under the same map every stiffness and mass integrand is a
polynomial of degree at most 2m in t times the Jacobi weight
(1-t)^{delta-2} (1+t)^{delta}, so the pencil is assembled exactly on an
(m+8)-node Gauss-Jacobi rule (Golub & Welsch 1969), one rule per mode.  A
scale-shifted potential (1 + nu^2 s^2)^{-4}, nu != 1, is analytic but not
polynomial in t and gets an oversampled rule whose extra nodes grow as nu
moves away from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import legder
from scipy.special import betaln, roots_jacobi, roots_legendre

from .emden import ComposedRadial, from_sobolev
from .errors import EigensolveFailure, GridTooCoarse, InconsistentKernel
from .params import (
    Params,
    even_alpha_info,
    mode_lambda,
    normalization_constant,
    sphere_area,
)
from .profiles import RadialProfile

__all__ = [
    "SGrid",
    "JacobiRule",
    "ModeBasis",
    "ModeProblem",
    "SpectrumResult",
    "assemble_mode_problem",
    "mode_eigenvalues",
    "exact_eigenvalues",
    "exact_rel_errors",
    "verify_kernel",
    "kernel_residual",
    "mu3_estimate",
    "SobolevModeFunction",
]


@dataclass(frozen=True)
class SGrid:
    """Composite Gauss-Legendre rule in u = ln s for int_0^inf f(s) ds.

    For the star-type integrals of the reduction (u_+^{p*}, u_+^{p*-1} phi_i,
    h(r/lam) times either), which are not polynomial in t; the pencil
    itself uses JacobiRule.  The reduction takes them at scale 1, where the
    bubble is centred at u = 0 whatever lam is, so the window is fixed at
    |u| <= HALF_WIDTH: each integrand is (2 cosh u)^{-M} in du times a
    bounded factor, below e^{-32} of its peak past arccosh(e^{32/M}), which
    is at most 8.7 for M >= 4.  Panels of panel_pts nodes, sized to what
    each zone of u resolves: min(1, 96/m) wide for |u| < 8, where
    ModeBasis(m) functions (degree < m in t = tanh u) oscillate at most
    about m radians per unit u; half a unit for 8 < |u| < 12, the tails
    where the fixed point's residual still sums the high pencil modes; a
    unit beyond, for a window widened past 12.
    """

    HALF_WIDTH = 12.0

    u: np.ndarray
    s: np.ndarray
    w: np.ndarray          # weights including ds = s du

    @classmethod
    def build(cls, m: int, panel_pts: int = 64) -> "SGrid":
        u_max = cls.HALF_WIDTH
        zones = [
            (-u_max, -12.0, 1.0),
            (-12.0, -8.0, 0.5),
            (-8.0, 8.0, min(1.0, 96.0 / m)),
            (8.0, 12.0, 0.5),
            (12.0, u_max, 1.0),
        ]
        x, wref = roots_legendre(panel_pts)
        us, ws = [], []
        for a, b, h in zones:
            npan = int(math.ceil((b - a) / h))       # none when u_max = 12
            edges = np.linspace(a, b, npan + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            us.append((mid[:, None] + half[:, None] * x[None, :]).ravel())
            ws.append((half[:, None] * wref[None, :]).ravel())
        u = np.concatenate(us)
        w = np.concatenate(ws)
        s = np.exp(u)
        return cls(u=u, s=s, w=w * s)

    @property
    def n(self) -> int:
        return self.s.size


MAX_RULE_NODES = 4096       # caps a scale-shifted rule: 1/370 < nu < 370 at m = 400


@dataclass(frozen=True)
class JacobiRule:
    """Gauss-Jacobi rule for int_0^inf f(s) ds under t = (s^2-1)/(s^2+1).

    Exact when f(s) ds = P(t) (1-t)^{delta-2} (1+t)^{delta} dt with P a
    polynomial of degree below 2n.  The weights are kept as logarithms: the
    divided-out Jacobi factor (1-t)^{-delta} overflows for large delta.
    """

    s: np.ndarray
    u: np.ndarray          # ln s
    log_w: np.ndarray      # ln of the weights for int f(s) ds

    @classmethod
    def build(cls, n: int, delta: float) -> "JacobiRule":
        a, b = delta - 2.0, delta
        t, _ = roots_jacobi(n, a, b)
        lm, lp = np.log1p(-t), np.log1p(t)
        u = 0.5 * (lp - lm)
        # ds = dt / (s (1-t)^2); dividing out the Jacobi weight leaves
        # W / (s (1-t)^delta (1+t)^delta)
        log_w = _log_christoffel(t, a, b) - u - delta * (lm + lp)
        return cls(s=np.exp(u), u=u, log_w=log_w)

    @property
    def n(self) -> int:
        return self.s.size


def _log_christoffel(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """ln of the Gauss-Jacobi weights at the nodes t, as -ln sum_k p_k(t)^2.

    The p_k, k < n, are the orthonormal Jacobi polynomials.  A sum of
    positive terms, each weight is accurate to a few ulp; the weights of
    scipy's roots_jacobi lose up to 8e-9 relative at 168 nodes and 2e-7 at
    408 as a approaches -1 (M near 4), which the pencil would carry.  Nodes
    whose terms grow large (large a, b) are rescaled, the scale kept as a
    logarithm.
    """
    n = t.size
    k = np.arange(1.0, n)
    ab = a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (ab + 2.0)
    diag[1:] = (b * b - a * a) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off = np.zeros(n)
    off[1:] = (2.0 / (2.0 * k + ab) * np.sqrt((k + a) * (k + b) / (2.0 * k + ab + 1.0))
               * np.sqrt(k * (k + ab) / (2.0 * k + ab - 1.0)))
    log_mu0 = (ab + 1.0) * math.log(2.0) + betaln(a + 1.0, b + 1.0)
    p_prev = np.zeros_like(t)
    p = np.full_like(t, math.exp(-0.5 * log_mu0))
    total = p * p
    log_scale = np.zeros_like(t)
    for j in range(n - 1):
        p_prev, p = p, ((t - diag[j]) * p - off[j] * p_prev) / off[j + 1]
        total += p * p
        big = np.abs(p) > 1e100
        if big.any():
            p[big] *= 1e-100
            p_prev[big] *= 1e-100
            total[big] *= 1e-200
            log_scale[big] += 200.0 * math.log(10.0)
    return -np.log(total) - log_scale


class ModeBasis:
    """Decay-adapted trial functions for one mode."""

    def __init__(self, M: float, nu_coeff: float, m: int):
        self.M = float(M)
        self.nu_coeff = float(nu_coeff)           # lambda_k q^2
        self.m = int(m)
        self.delta = math.sqrt(((M - 2.0) / 2.0) ** 2 + nu_coeff)
        self.sigma0 = self.delta - (M - 2.0) / 2.0

    def _legendre(self, t: np.ndarray, orders: int = 2):
        m, n = self.m, t.size
        P = np.empty((m, n))
        dP = np.empty((m, n)) if orders >= 1 else None
        d2P = np.empty((m, n)) if orders >= 2 else None
        P[0] = 1.0
        if orders >= 1:
            dP[0] = 0.0
        if orders >= 2:
            d2P[0] = 0.0
        if m > 1:
            P[1] = t
            if orders >= 1:
                dP[1] = 1.0
            if orders >= 2:
                d2P[1] = 0.0
        for j in range(1, m - 1):
            P[j + 1] = ((2 * j + 1) * t * P[j] - j * P[j - 1]) / (j + 1)
            if orders >= 1:
                dP[j + 1] = dP[j - 1] + (2 * j + 1) * P[j]
            if orders >= 2:
                d2P[j + 1] = d2P[j - 1] + (2 * j + 1) * dP[j]
        return P, dP, d2P

    def _log_envelope(self, s: np.ndarray) -> np.ndarray:
        # ln E computed as a sum so that s^{sigma0} and (1+s^2)^{1-delta}
        # cannot overflow separately (they can for large modes or large M)
        out = 2.0 * (1.0 - self.delta) * _log_hypot1(s)
        if self.sigma0 != 0.0:
            out = out + self.sigma0 * np.log(s)
        return out

    @staticmethod
    def _map(s: np.ndarray) -> np.ndarray:
        """Map value t = (s^2-1)/(s^2+1), in z = s^{-2} for s > 1 as in _frame_coeffs."""
        t = np.empty_like(s)
        low = s <= 1.0
        if np.any(low):
            s2 = s[low] * s[low]
            t[low] = (s2 - 1.0) / (s2 + 1.0)
        if np.any(~low):
            sl = s[~low]
            z = 1.0 / (sl * sl)
            t[~low] = (1.0 - z) / (1.0 + z)
        return t

    def _frame_coeffs(self, s: np.ndarray):
        """Map value t and the rational coefficient fields, overflow-safe.

        For s > 1 the fields are rewritten in z = s^{-2}; their direct forms
        overflow in (1+s^2)^2 and (1+s^2)^3 long before the fields themselves
        leave the representable range.
        """
        sig, dl = self.sigma0, self.delta
        t = self._map(s)
        a = np.empty_like(s)
        ap = np.empty_like(s)
        tp = np.empty_like(s)
        tpp = np.empty_like(s)
        low = s <= 1.0
        if np.any(low):
            ss = s[low]
            s2 = ss * ss
            a[low] = sig / ss + 2.0 * (1.0 - dl) * ss / (1.0 + s2)
            ap[low] = -sig / s2 + 2.0 * (1.0 - dl) * (1.0 - s2) / (1.0 + s2) ** 2
            tp[low] = 4.0 * ss / (1.0 + s2) ** 2
            tpp[low] = (4.0 - 12.0 * s2) / (1.0 + s2) ** 3
        if np.any(~low):
            sl = s[~low]
            z = 1.0 / (sl * sl)
            zp = 1.0 + z
            a[~low] = sig / sl + 2.0 * (1.0 - dl) / (sl * zp)
            ap[~low] = -sig * z + 2.0 * (1.0 - dl) * z * (z - 1.0) / zp ** 2
            tp[~low] = 4.0 * (z / sl) / zp ** 2
            tpp[~low] = z * z * (4.0 * z - 12.0) / zp ** 3
        return t, a, ap, tp, tpp

    def _operator_coeffs(self, s: np.ndarray):
        t, a, ap, tp, tpp = self._frame_coeffs(s)
        M, nu = self.M, self.nu_coeff
        inv_s = 1.0 / s
        c0 = a * a + ap + (M - 1.0) * a * inv_s - nu * inv_s * inv_s
        c1 = 2.0 * a * tp + tpp + (M - 1.0) * tp * inv_s
        c2 = tp * tp
        return t, a, ap, tp, tpp, c0, c1, c2

    def values(self, s: np.ndarray) -> np.ndarray:
        """Matrix (m, n) of trial values."""
        E = np.exp(self._log_envelope(s))
        P, _, _ = self._legendre(self._map(s), orders=0)
        return E * P

    def series(self, coeffs: np.ndarray, s: np.ndarray, order: int = 0) -> np.ndarray:
        """Derivative `order` (0, 1 or 2) at s of X = sum_j coeffs[j] psi_j.

        coeffs is (m,) and s of any shape; the result has the shape of s.
        The Legendre part is summed in coefficient space by Clenshaw's
        recurrence, so no (m, n) basis matrix is formed; only the order + 1
        Legendre series the derivative reads are summed.
        """
        E = np.exp(self._log_envelope(s))
        if order == 0:
            return E * _legendre_sum(coeffs, self._map(s))
        t, a, ap, tp, tpp = self._frame_coeffs(s)
        P = _legendre_sum(coeffs, t)
        dcoeffs = legder(coeffs)
        dP = _legendre_sum(dcoeffs, t)
        if order == 1:
            return E * (a * P + tp * dP)
        d2P = _legendre_sum(legder(dcoeffs), t)
        return E * ((a * a + ap) * P + (2.0 * a * tp + tpp) * dP + tp * tp * d2P)

    def weighted_rows(self, s: np.ndarray, log_weight: np.ndarray,
                      log_pot: np.ndarray | None = None):
        """(psi, T_k psi) times exp(log_weight/2), assembled in log space.

        Folding the square root of the quadrature weight (and optionally of
        the potential) into the envelope keeps every factor representable
        even when s^{M-1} or the envelope overflow on their own.
        """
        lnE = self._log_envelope(s)
        t, _, _, _, _, c0, c1, c2 = self._operator_coeffs(s)
        P, dP, d2P = self._legendre(t, orders=2)
        stiff_scale = np.exp(lnE + 0.5 * log_weight)
        rows_stiff = stiff_scale * (c0 * P + c1 * dP + c2 * d2P)
        if log_pot is None:
            rows_mass = stiff_scale * P
        else:
            rows_mass = np.exp(lnE + 0.5 * (log_weight + log_pot)) * P
        return rows_mass, rows_stiff


@dataclass
class ModeProblem:
    """Discretized pencil for one spherical-harmonic mode."""

    params: Params
    k: int
    lambda_k: float
    basis: ModeBasis
    grid: JacobiRule       # the (m+8)-node rule the pencil is exact on
    A: np.ndarray          # stiffness int (T psi_i)(T psi_j) s^{M-1} ds
    B: np.ndarray          # weighted mass with the sharp potential, weight scale nu_w
    weight_lambda: float = 1.0

    @property
    def alpha_scale(self) -> float:
        """Factor turning s-side quadratic forms into the R^N inner product."""
        p = self.params
        return sphere_area(p.N) / p.q ** 3

    def potential(self, s: np.ndarray, weight_lambda: float = 1.0) -> np.ndarray:
        return np.exp(self.log_potential(s, weight_lambda))

    def log_potential(self, s: np.ndarray, weight_lambda: float = 1.0) -> np.ndarray:
        nu = weight_lambda ** (1.0 / self.params.q)
        return _log_potential(self.params.M, nu, s)

    def rule(self, weight_lambda: float = 1.0) -> JacobiRule:
        """Quadrature for integrals against the potential at weight scale weight_lambda."""
        nu = weight_lambda ** (1.0 / self.params.q)
        if nu == 1.0:
            return self.grid
        # (1 + nu^2 s^2)^{-4} has its pole at t = -(nu^2+1)/(nu^2-1), on the
        # Bernstein ellipse rho = (1+nu)/|1-nu|: the error beyond the
        # polynomial part falls like rho^{-2n}, so 20/ln(rho) extra nodes
        # bring it to rounding (measured against 1.5x the nodes, 0.01 <= nu <= 100)
        n = self.basis.m + 8 + math.ceil(20.0 / math.log((1.0 + nu) / abs(1.0 - nu)))
        if n > MAX_RULE_NODES:
            raise GridTooCoarse(f"weight scale {weight_lambda:g} needs a {n}-node rule, "
                                f"more than {MAX_RULE_NODES}")
        return JacobiRule.build(n, self.basis.delta)

    def weighted_mass(self, weight_lambda: float) -> np.ndarray:
        nu = weight_lambda ** (1.0 / self.params.q)
        _, B = _gram_matrices(self.basis, self.rule(weight_lambda), self.params.M, nu,
                              stiffness=False)
        return B


def _legendre_sum(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] P_k(t) by Clenshaw's recurrence, in place.

    b_k = c_k + (2k+1)/(k+1) t b_{k+1} - (k+1)/(k+2) b_{k+2} from b_m =
    b_{m+1} = 0 down to b_0, the sum, over three preallocated buffers.
    """
    b1 = np.zeros(t.shape)
    b2 = np.zeros(t.shape)
    tb = np.empty(t.shape)
    for k in range(coeffs.shape[0] - 1, -1, -1):
        np.multiply(t, b1, out=tb)
        tb *= (2 * k + 1) / (k + 1)
        b2 *= -(k + 1) / (k + 2)
        b2 += tb
        b2 += coeffs[k]
        b1, b2 = b2, b1
    return b1


def _log_hypot1(s: np.ndarray) -> np.ndarray:
    """0.5 * log(1 + s^2) without overflow in the square."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    low = s < 1e150
    out[low] = 0.5 * np.log1p(s[low] * s[low])
    out[~low] = np.log(s[~low])
    return out


def _log_potential(M: float, nu: float, s: np.ndarray) -> np.ndarray:
    P4 = (M - 4.0) * (M - 2.0) * M * (M + 2.0)
    return math.log(P4) + 4.0 * math.log(nu) - 8.0 * _log_hypot1(nu * s)


def _gram_matrices(basis: ModeBasis, rule: JacobiRule, M: float, nu: float,
                   stiffness: bool = True):
    log_w = rule.log_w + (M - 1.0) * rule.u
    rows_mass, rows_stiff = basis.weighted_rows(rule.s, log_w, _log_potential(M, nu, rule.s))
    B = rows_mass @ rows_mass.T
    A = rows_stiff @ rows_stiff.T if stiffness else None
    return A, B


def assemble_mode_problem(p: Params, k: int, nodes: int = 160) -> ModeProblem:
    """Build the weak-form pencil (A, B) for mode k with `nodes` trial functions."""
    if nodes < 64:
        raise GridTooCoarse(f"need at least 64 trial functions, got {nodes}")
    lam_k, _ = mode_lambda(k, p.N)
    nu_coeff = p.q ** 2 * lam_k
    basis = ModeBasis(p.M, nu_coeff, nodes)
    grid = JacobiRule.build(nodes + 8, basis.delta)
    A, B = _gram_matrices(basis, grid, p.M, 1.0)
    return ModeProblem(params=p, k=k, lambda_k=lam_k, basis=basis, grid=grid, A=A, B=B)


def _solve_pencil(A: np.ndarray, B: np.ndarray, drop: float = 1e-13):
    lam, V = np.linalg.eigh(B)
    top = lam.max()
    if not np.isfinite(top) or top <= 0:
        raise EigensolveFailure("weighted mass matrix is not positive")
    keep = lam > top * drop
    T = V[:, keep] / np.sqrt(lam[keep])
    Ar = T.T @ A @ T
    mu, Y = np.linalg.eigh(0.5 * (Ar + Ar.T))
    X = T @ Y
    return mu, X, int(keep.sum())


@dataclass
class SpectrumResult:
    """Computed eigenpairs of one mode pencil."""

    problem: ModeProblem
    eigenvalues: np.ndarray
    coefficients: np.ndarray      # (m, n_eigs), columns B-orthonormal
    residual_norms: np.ndarray
    nodes: int
    kept_rank: int

    def eigenfunction(self, i: int) -> "SobolevModeFunction":
        return SobolevModeFunction(self.problem.basis, self.coefficients[:, i])

    def alignment(self, i: int, exact_fn) -> float:
        """Weighted-inner-product alignment of eigenvector i with a closed form."""
        pr = self.problem
        rule = pr.rule(pr.weight_lambda)
        s = rule.s
        log_w = rule.log_w + (pr.params.M - 1.0) * rule.u + pr.log_potential(s, pr.weight_lambda)
        fnum = self.eigenfunction(i).eval(np.atleast_1d(s))
        fex = np.asarray(exact_fn(s), dtype=float)

        def wsum(f, g):
            # assembled in log space; nodes where a factor underflowed to
            # zero contribute nothing by construction
            m = (f != 0.0) & (g != 0.0) & np.isfinite(f) & np.isfinite(g)
            vals = (np.sign(f[m]) * np.sign(g[m])
                    * np.exp(log_w[m] + np.log(np.abs(f[m])) + np.log(np.abs(g[m]))))
            return float(vals.sum())

        num = wsum(fnum, fex)
        den = math.sqrt(wsum(fnum, fnum) * wsum(fex, fex))
        return abs(num) / den


def exact_eigenvalues(p: Params, k: int, n: int) -> np.ndarray:
    """The n smallest mode-k eigenvalues of the continuum problem, in closed form.

    mu_{k,j} = prod_{i<4} (2l + M - 4 + 2i) / ((M-4)(M-2)M(M+2)) with
    l = sigma0(k) + j, the Paneitz spectrum on S^M (Beckner, Ann. Math. 138,
    1993) in the effective dimension; an oracle for the discrete pencil.
    """
    M = p.M
    lam_k, _ = mode_lambda(k, p.N)
    ell = ModeBasis(M, p.q ** 2 * lam_k, n).sigma0 + np.arange(n)
    num = (2 * ell + M - 4) * (2 * ell + M - 2) * (2 * ell + M) * (2 * ell + M + 2)
    return num / ((M - 4) * (M - 2) * M * (M + 2))


def exact_rel_errors(p: Params, k: int, eigenvalues) -> np.ndarray:
    """|mu_j / exact_j - 1| for the smallest computed mode-k eigenvalues.

    The discretization error against exact_eigenvalues; a pencil residual
    measures only the rounding of the solve.
    """
    mu = np.asarray(eigenvalues, dtype=float)
    return np.abs(mu / exact_eigenvalues(p, k, mu.size) - 1.0)


def mode_eigenvalues(p: Params, k: int, n_eigs: int = 6, nodes: int = 160,
                     weight_lambda: float = 1.0,
                     problem: ModeProblem | None = None) -> SpectrumResult:
    """Smallest eigenvalues of the mode-k pencil with discrete residual norms."""
    pr = problem or assemble_mode_problem(p, k, nodes=nodes)
    if weight_lambda != pr.weight_lambda:
        pr = replace(pr, B=pr.weighted_mass(weight_lambda), weight_lambda=weight_lambda)
    mu, X, kept = _solve_pencil(pr.A, pr.B)
    if kept < n_eigs:
        raise EigensolveFailure(f"only {kept} stable directions, need {n_eigs}")
    mu = mu[:n_eigs]
    X = X[:, :n_eigs]
    # sign normalization: positive at the first interior point where the
    # eigenfunction is resolvably nonzero
    probe = pr.basis.values(np.array([0.3, 1.0, 3.0]))
    vals = X.T @ probe
    for i in range(n_eigs):
        nz = vals[i][np.abs(vals[i]) > 1e-300]
        if nz.size and nz[0] < 0:
            X[:, i] = -X[:, i]
    res = np.empty(n_eigs)
    for i in range(n_eigs):
        ax = pr.A @ X[:, i]
        bx = pr.B @ X[:, i]
        res[i] = np.linalg.norm(ax - mu[i] * bx) / np.linalg.norm(bx)
    return SpectrumResult(problem=pr, eigenvalues=mu, coefficients=X,
                          residual_norms=res, nodes=pr.basis.m, kept_rank=kept)


class SobolevModeFunction:
    """Eigenfunction as an analytic combination of trial functions (s side)."""

    def __init__(self, basis: ModeBasis, coeffs: np.ndarray):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)

    def eval(self, s):
        return self.deriv(s, 0)

    def __call__(self, s):
        return self.eval(s)

    def deriv(self, s, order: int = 1):
        if order not in (0, 1, 2):
            raise ValueError("mode functions support derivatives up to order 2")
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = self.basis.series(self.coeffs, s, order)
        return out if out.size > 1 else float(out[0])

    def to_radial(self, p: Params) -> ComposedRadial:
        """The same function pulled back to the weighted side, u(r) = X(r^{1/q})."""
        return from_sobolev(p, self)


def kernel_residual(p: Params, profile: RadialProfile, k: int, mu: float | None = None) -> float:
    """Sup over log-spaced radii of the relative mode-k ODE residual.

    The residual of L_k(r^alpha L_k u) = mu K r^{-alpha} (1+r^{2-a})^{-4} u is
    evaluated exactly through the term algebra; mu defaults to p*-1.
    """
    if mu is None:
        mu = p.pstar - 1.0
    lam_k, _ = mode_lambda(k, p.N)
    K = normalization_constant(p) ** (p.pstar - 2.0)
    form = profile.form
    inner = form.radial_laplacian(p.N, lam_k).mul_rpow(a=-1, b=-2)
    lhs = inner.radial_laplacian(p.N, lam_k)
    rhs = form.mul_wpow(-4).mul_rpow(a=1, b=2).scaled(mu * K)
    res = lhs - rhs
    r = np.logspace(-3, 3, 121)
    scale = lhs.term_magnitude(r) + np.abs(rhs.eval(r))
    return float(np.max(np.abs(res.eval(r)) / scale))


def verify_kernel(p: Params, k_max: int = 6, tol: float = 1e-3, nodes: int = 160,
                  n_eigs: int = 8) -> dict:
    """Compare the algebraic kernel condition with the discrete spectra.

    For each mode k <= k_max the condition q^2 lambda_k in {0, M-1} is
    checked analytically and against the presence of the eigenvalue p*-1 in
    the discrete pencil.  Disagreement raises InconsistentKernel.  The total
    kernel dimension (radial element plus harmonic multiplicities) must
    reproduce the even-case count.
    """
    info = even_alpha_info(p)
    target = p.pstar - 1.0
    modes = []
    kernel_dim = 0
    for k in range(k_max + 1):
        lam_k, mult = mode_lambda(k, p.N)
        nu = p.q ** 2 * lam_k
        analytic = (k == 0) or abs(nu - (p.M - 1.0)) < 1e-9
        result = mode_eigenvalues(p, k, n_eigs=n_eigs, nodes=nodes)
        dist = float(np.min(np.abs(result.eigenvalues - target)) / target)
        numeric = dist < tol
        if numeric != analytic:
            raise InconsistentKernel(
                f"mode {k}: analytic={analytic} numeric={numeric} (rel dist {dist:.2e})")
        if analytic:
            kernel_dim += 1 if k == 0 else mult
        modes.append({
            "k": k,
            "lambda_k": lam_k,
            "multiplicity": mult,
            "in_kernel": analytic,
            "rel_distance_to_target": dist,
            "exact_rel_error_max": float(exact_rel_errors(p, k, result.eigenvalues).max()),
        })
    if kernel_dim != info.kernel_dim:
        raise InconsistentKernel(
            f"assembled kernel dim {kernel_dim} != expected {info.kernel_dim}")
    return {
        "N": p.N,
        "alpha": p.alpha,
        "target_eigenvalue": target,
        "tol": tol,
        "modes": modes,
        "kernel_dim": kernel_dim,
        "is_even_case": info.is_even_case,
        "k_even": info.k,
    }


def mu3_estimate(p: Params, nodes: int = 220, n_eigs: int = 6) -> dict:
    """Third radial eigenvalue with a refinement error bar and its margin over p*-1."""
    coarse = mode_eigenvalues(p, 0, n_eigs=n_eigs, nodes=max(64, (2 * nodes) // 3))
    fine = mode_eigenvalues(p, 0, n_eigs=n_eigs, nodes=nodes)
    mu3 = float(fine.eigenvalues[2])
    err = abs(mu3 - float(coarse.eigenvalues[2]))
    margin = mu3 - (p.pstar - 1.0) - err
    return {
        "mu1": float(fine.eigenvalues[0]),
        "mu2": float(fine.eigenvalues[1]),
        "mu3": mu3,
        "err_bar": err,
        "margin_over_mu2": margin,
        "nodes": nodes,
    }
