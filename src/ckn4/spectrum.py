"""Per-mode eigenproblem of the linearized equation.

After the substitution s = r^{1/q} the mode-k problem becomes, in the
effective dimension M,

    T_k(T_k X) = mu * (M-4)(M-2)M(M+2) (1 + s^2)^{-4} X,
    T_k X = X'' + (M-1) X'/s - lambda_k q^2 X / s^2,

with mu normalized so the extremal itself sits at mu = 1.  The problem is
discretized in weak form: trial functions psi_j = E(s) p_j(t), E =
s^{sigma0} (1+s^2)^{1-delta}, t = (s^2-1)/(s^2+1), where sigma0 and the
decay power are the indicial exponents of T_k at zero and infinity and
p_j, j < m, are the orthonormal Jacobi P^{(delta,delta)} polynomials.
Under that map the mass integrand is p_i p_j (1-t^2)^delta, so B is
diagonal, and E p_j, the Gegenbauer C_j^{(delta+1/2)} times the envelope,
are the eigenfunctions of the continuum problem (the Paneitz spectrum on
S^M, Beckner, Ann. Math. 138, 1993), so A is diagonal too: the
mass-orthonormal basis of Shen's spectral-Galerkin methods (SIAM J. Sci.
Comput. 15, 1994).  The eigenpairs are read off the diagonal, mu_j =
A_jj / B_jj with eigenvector x_j e_j, x_j = B_jj^{-1/2} > 0, and that read
is certified on every solve: the normalized off-diagonal couplings of both
matrices must stay below COUPLING_TOL, which bounds the eigenvalue error by
its square.  Every stiffness and mass integrand is a polynomial of degree
at most 2m in t times the Jacobi weight (1-t)^{delta-2} (1+t)^{delta}, so
the pencil is assembled exactly on an (m+8)-node Gauss-Jacobi rule, one
rule per mode: its nodes are the eigenvalues of the Jacobi matrix of the
three-term recurrence (Golub & Welsch, Math. Comp. 23, 1969), found by
LAPACK's MRRR tridiagonal solver (Dhillon & Parlett, Linear Algebra Appl.
387, 2004), and its weights are the Christoffel sums of the same
recurrence at those nodes.  Mode 0's rule also carries the perturbation's
star-type integrals (reduction): there the star measure U^{p*} s^{M-1} ds
is the rule's weight times (1-t)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolveFailure, GridTooCoarse, InconsistentKernel, QuadratureFailure
from .params import (
    Params,
    even_alpha_info,
    mode_lambda,
    normalization_constant,
    sphere_area,
)
from .profiles import RadialProfile

__all__ = [
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
]


@dataclass(frozen=True)
class JacobiRule:
    """Gauss-Jacobi rule for int_0^inf f(s) ds under t = (s^2-1)/(s^2+1).

    Exact when f(s) ds = P(t) (1-t)^{delta-2} (1+t)^{delta} dt with P a
    polynomial of degree below 2n.  The nodes t are the eigenvalues of the
    Jacobi matrix of the P^{(delta-2, delta)} recurrence (Golub-Welsch), by
    LAPACK's MRRR solver (stemr); the weights are the Christoffel sums of the
    same recurrence at those nodes (_log_christoffel).  The weights are kept
    as logarithms: the divided-out Jacobi factor (1-t)^{-delta} overflows
    for large delta.  QuadratureFailure when a node is not strictly inside
    (-1, 1), where s would be 0 or infinite.
    """

    s: np.ndarray
    u: np.ndarray          # ln s
    log_w: np.ndarray      # ln of the weights for int f(s) ds

    @classmethod
    def build(cls, n: int, delta: float) -> "JacobiRule":
        # imported here, not with the module: scipy.linalg costs a fresh process
        # about 0.2 s and 28 MB, and the closed-form commands build no Jacobi rule
        from scipy.linalg import eigvalsh_tridiagonal

        a, b = delta - 2.0, delta
        diag, off, _ = _jacobi_recurrence(n, a, b)
        t = eigvalsh_tridiagonal(diag, off[1:], lapack_driver="stemr")
        if not (np.abs(t) < 1.0).all():
            raise QuadratureFailure(f"Gauss-Jacobi rule with {n} nodes at delta={delta:.6g}: "
                                    f"a node is not strictly inside (-1, 1)")
        lm, lp = np.log1p(-t), np.log1p(t)
        u = 0.5 * (lp - lm)
        # ds = dt / (s (1-t)^2); dividing out the Jacobi weight leaves
        # W / (s (1-t)^delta (1+t)^delta)
        log_w = _log_christoffel(t, a, b) - u - delta * (lm + lp)
        return cls(s=np.exp(u), u=u, log_w=log_w)

    @property
    def n(self) -> int:
        return self.s.size


def _jacobi_recurrence(n: int, a: float, b: float):
    """(diag, off, log_mu0) of the orthonormal Jacobi P^{(a,b)} polynomials p_k, k < n.

    t p_k = off[k+1] p_{k+1} + diag[k] p_k + off[k] p_{k-1} with off[0] = 0,
    and p_0 = exp(-log_mu0/2), log_mu0 the log of the weight's total mass
    2^{a+b+1} B(a+1, b+1).
    """
    # imported here, not with the module: scipy.special costs a fresh process
    # about 0.3 s and 26 MB, and the closed-form commands take no Jacobi recurrence
    from scipy.special import betaln

    k = np.arange(1.0, n)
    ab = a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (ab + 2.0)
    diag[1:] = (b * b - a * a) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off = np.zeros(n)
    off[1:] = (2.0 / (2.0 * k + ab) * np.sqrt((k + a) * (k + b) / (2.0 * k + ab + 1.0))
               * np.sqrt(k * (k + ab) / (2.0 * k + ab - 1.0)))
    log_mu0 = (ab + 1.0) * math.log(2.0) + betaln(a + 1.0, b + 1.0)
    return diag, off, log_mu0


def _log_christoffel(t: np.ndarray, a: float, b: float) -> np.ndarray:
    """ln of the Gauss-Jacobi weights at the nodes t, as -ln sum_k p_k(t)^2.

    The p_k, k < n, are the orthonormal Jacobi polynomials, run by the same
    recurrence whose Jacobi matrix gave the nodes.  A sum of positive terms,
    each weight is accurate to a few ulp; the Golub-Welsch weights, squared
    first components of the eigenvectors, and those of scipy's roots_jacobi
    (up to 8e-9 relative at 168 nodes and 2e-7 at 408 as a approaches -1,
    M near 4) are not.  Nodes whose terms grow large (large a, b) are
    rescaled, the scale kept as a logarithm.  The test for that runs once
    per block of steps: with |t| < 1 a step multiplies max(|p_j|, |p_{j-1}|)
    by at most g_j = max(1, (1 + |diag_j| + off_j) / off_{j+1}), and a block
    ends before the product of its g_j would pass 1e50, so no value passes
    1e150 and no square overflows.
    """
    n = t.size
    diag, off, log_mu0 = _jacobi_recurrence(n, a, b)
    growth = np.log(np.maximum(1.0, (1.0 + np.abs(diag[:-1]) + off[:-1]) / off[1:]))
    budget, spent = 50.0 * math.log(10.0), 0.0
    p_prev = np.zeros_like(t)
    p = np.full_like(t, math.exp(-0.5 * log_mu0))
    total = p * p
    log_scale = np.zeros_like(t)
    for j in range(n - 1):
        spent += growth[j]
        if spent > budget:
            spent = growth[j]
            big = np.maximum(np.abs(p), np.abs(p_prev)) > 1e100
            if big.any():
                p[big] *= 1e-100
                p_prev[big] *= 1e-100
                total[big] *= 1e-200
                log_scale[big] += 200.0 * math.log(10.0)
        p_prev, p = p, ((t - diag[j]) * p - off[j] * p_prev) / off[j + 1]
        total += p * p
    return -np.log(total) - log_scale


def _jacobi_rows(t: np.ndarray, n: int, p0, off) -> np.ndarray:
    """(F, n, t.size) values p_k(t), k < n, of F symmetric Jacobi families at once.

    p0 (F,) and off (F, >= n) as in _SymmetricJacobi; one forward recurrence
    over k serves every family, over contiguous (F, t.size) blocks.
    """
    p0 = np.asarray(p0, dtype=float)[:, None]
    off = np.asarray(off, dtype=float)[:, :n].T[:, :, None]      # (n, F, 1)
    P = np.empty((n, p0.shape[0], t.size))
    P[0] = p0
    if n > 1:
        np.multiply(t, P[0], out=P[1])
        P[1] /= off[1]
    for k in range(1, n - 1):
        np.multiply(t, P[k], out=P[k + 1])
        P[k + 1] -= off[k] * P[k - 1]
        P[k + 1] /= off[k + 1]
    return P.transpose(1, 0, 2)


class _SymmetricJacobi:
    """The orthonormal Jacobi P^{(a,a)} family p_k, k < n: rows and sums.

    The weight is even, so the recurrence is t p_k = off[k+1] p_{k+1} +
    off[k] p_{k-1}.
    """

    def __init__(self, n: int, a: float):
        _, off, log_mu0 = _jacobi_recurrence(n + 2, a, a)
        self.off = off
        self.p0 = math.exp(-0.5 * log_mu0)
        # r_k = p_k(1)/p_{k-1}(1) in closed form, from P_k(1) = binom(k+a, k) and the norms
        k = np.arange(1.0, n)
        self.ratio = np.sqrt((2.0 * k + 2.0 * a + 1.0) * (k + 2.0 * a)
                             / ((2.0 * k + 2.0 * a - 1.0) * k))
        self.damp = 1.0 / off[1:n] - self.ratio

    def rows(self, t: np.ndarray, n: int) -> np.ndarray:
        """(n, t.size) values p_k(t), k < n."""
        return _jacobi_rows(t, n, [self.p0], [self.off])[0]

    def sum(self, coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
        """sum_k coeffs[k] p_k(t) by a forward recurrence in h = 1 - |t| (Reinsch's modification).

        With D_k = p_k - r_k p_{k-1}, the recurrence at t and at 1 give p_k =
        r_k p_{k-1} + D_k, D_k = (1/off[k] - r_k) D_{k-1} - h p_{k-1}/off[k],
        D_0 = 0: its terms vanish with h instead of cancelling as t nears
        +-1, where Clenshaw's sum loses up to 800 ulps of the series.  p_k(-t)
        = (-1)^k p_k(t) gives t < 0.  The sum stops at the last nonzero
        coefficient.  It serves the positivity check of (U + w)/U in
        reduction.find_perturbed_solution, where t nears +-1 in the tails.
        """
        off = self.off
        h = 1.0 - np.abs(t)
        p = np.full(t.shape, self.p0)
        D = np.zeros(t.shape)
        tmp = np.empty(t.shape)
        parts = [coeffs[0] * p, np.zeros(t.shape)]       # even and odd k
        nonzero = np.flatnonzero(coeffs)
        for k in range(1, nonzero[-1] + 1 if nonzero.size else 1):
            np.multiply(h, p, out=tmp)
            tmp /= off[k]
            D *= self.damp[k - 1]
            D -= tmp
            p *= self.ratio[k - 1]
            p += D
            parts[k % 2] += coeffs[k] * p
        return parts[0] + np.sign(t) * parts[1]


class ModeBasis:
    """Decay-adapted trial functions for one mode.

    psi_j = E(s) p_j(t), E = s^{sigma0} (1+s^2)^{1-delta}, p_j the
    orthonormal Jacobi P^{(delta,delta)} polynomials: E p_j are the
    continuum eigenfunctions, so both pencil matrices are diagonal.
    Derivatives in t go to the next families through d/dt p_n^{(a,a)} =
    sqrt(n(n+2a+1)) p_{n-1}^{(a+1,a+1)}.
    """

    def __init__(self, M: float, nu_coeff: float, m: int):
        self.M = float(M)
        self.nu_coeff = float(nu_coeff)           # lambda_k q^2
        self.m = int(m)
        self.delta = math.sqrt(((M - 2.0) / 2.0) ** 2 + nu_coeff)
        self.sigma0 = self.delta - (M - 2.0) / 2.0
        # p_j, p_j' and p_j'' come from the (delta+i, delta+i) families, i = 0, 1, 2
        self.families = [_SymmetricJacobi(self.m - i, self.delta + i) for i in range(3)]
        n = np.arange(self.m, dtype=float)
        self._dscale = [np.sqrt(n * (n + 2.0 * (self.delta + i) + 1.0)) for i in range(2)]

    @property
    def p0(self) -> float:
        """The constant p_0: psi_0 = p0 E."""
        return self.families[0].p0

    @property
    def b1(self) -> float:
        """The recurrence's first off-diagonal coefficient: t = (b1/p0) p_1."""
        return float(self.families[0].off[1])

    def _poly_rows(self, t: np.ndarray, orders: int) -> np.ndarray:
        """(orders + 1, m, n): p_j, then p_j' and p_j'' up to the given order.

        The derivative rows are the next families' rows, shifted by the
        order and scaled; all families run through one recurrence.
        """
        m = self.m
        fams = self.families[:orders + 1]
        P = _jacobi_rows(t, m, [f.p0 for f in fams], [f.off[:m] for f in fams])
        scale = np.ones(m)
        for i in range(1, orders + 1):
            scale[i:] *= self._dscale[i - 1][1:m - i + 1]
            P[i, i:] = P[i, :m - i] * scale[i:, None]
            P[i, :i] = 0.0
        return P

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

    def weighted_rows(self, s: np.ndarray, log_weight: np.ndarray, log_pot: np.ndarray):
        """(psi exp((log_weight + log_pot)/2), T_k psi exp(log_weight/2)), in log space.

        Folding the square roots of the quadrature weight and the potential
        into the envelope keeps every factor representable even when
        s^{M-1} or the envelope overflow on their own.  Raises
        QuadratureFailure where a row is still not finite (p_j overflows
        where the weight underflows, at extreme delta).
        """
        lnE = self._log_envelope(s)
        t, _, _, _, _, c0, c1, c2 = self._operator_coeffs(s)
        with np.errstate(over="ignore", invalid="ignore"):
            P, dP, d2P = self._poly_rows(t, orders=2)
            stiff_scale = np.exp(lnE + 0.5 * log_weight)
            rows_stiff = stiff_scale * (c0 * P + c1 * dP + c2 * d2P)
            rows_mass = np.exp(lnE + 0.5 * (log_weight + log_pot)) * P
        if not (np.isfinite(rows_mass).all() and np.isfinite(rows_stiff).all()):
            raise QuadratureFailure(
                f"mode pencil rows at M={self.M:.6g}, delta={self.delta:.6g}, "
                f"{self.m} trial functions: a weighted row is not finite")
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
    B: np.ndarray          # weighted mass with the sharp potential

    @property
    def label(self) -> str:
        """The pencil's parameters, mode and node count, for messages."""
        p = self.params
        return f"N={p.N}, alpha={p.alpha}, mode {self.k}, {self.grid.n} nodes"

    @property
    def alpha_scale(self) -> float:
        """Factor turning s-side quadratic forms into the R^N inner product."""
        p = self.params
        return sphere_area(p.N) / p.q ** 3


def _log_hypot1(s: np.ndarray) -> np.ndarray:
    """0.5 * log(1 + s^2) without overflow in the square."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    low = s < 1e150
    out[low] = 0.5 * np.log1p(s[low] * s[low])
    out[~low] = np.log(s[~low])
    return out


def _log_potential(M: float, s: np.ndarray) -> np.ndarray:
    """ln of the sharp potential (M-4)(M-2)M(M+2) (1 + s^2)^{-4}."""
    P4 = (M - 4.0) * (M - 2.0) * M * (M + 2.0)
    return math.log(P4) - 8.0 * _log_hypot1(s)


def _gram_matrices(basis: ModeBasis, rule: JacobiRule, M: float):
    log_w = rule.log_w + (M - 1.0) * rule.u
    rows_mass, rows_stiff = basis.weighted_rows(rule.s, log_w, _log_potential(M, rule.s))
    return rows_stiff @ rows_stiff.T, rows_mass @ rows_mass.T


def assemble_mode_problem(p: Params, k: int, nodes: int = 160) -> ModeProblem:
    """Build the weak-form pencil (A, B) for mode k with `nodes` trial functions."""
    if nodes < 64:
        raise GridTooCoarse(f"need at least 64 trial functions, got {nodes}")
    lam_k, _ = mode_lambda(k, p.N)
    nu_coeff = p.q ** 2 * lam_k
    basis = ModeBasis(p.M, nu_coeff, nodes)
    grid = JacobiRule.build(nodes + 8, basis.delta)
    A, B = _gram_matrices(basis, grid, p.M)
    return ModeProblem(params=p, k=k, lambda_k=lam_k, basis=basis, grid=grid, A=A, B=B)


# largest normalized off-diagonal entry |K_ij|/sqrt(K_ii K_jj) the diagonal read
# accepts; the eigenvalue error it allows is of its square.  The worst measured
# on the exact rule is 8.2e-13 (the spectral decks of seeds 1-6)
COUPLING_TOL = 1e-9


def _coupling(K: np.ndarray) -> float:
    """max over i != j of |K_ij| / sqrt(K_ii K_jj)."""
    r = 1.0 / np.sqrt(np.diag(K))
    C = np.abs(K) * r[:, None] * r[None, :]
    np.fill_diagonal(C, 0.0)
    return float(C.max())


def _solve_pencil(A: np.ndarray, B: np.ndarray, where: str):
    """Eigenpairs of the pencil (A, B) of the mass-orthonormal basis, read off its diagonal.

    In that basis both matrices are diagonal up to rounding: mu_j =
    A_jj / B_jj with the B-normalized eigenvector x_j e_j, x_j = B_jj^{-1/2}.
    The read is certified on every call: EigensolveFailure (naming `where`)
    when a diagonal entry is not finite and positive, when the normalized
    off-diagonal coupling of A or of B exceeds COUPLING_TOL, or when mu does
    not increase with j.  Returns (mu, x, couplings).
    """
    a, b = np.diag(A), np.diag(B)
    if not (np.isfinite(a).all() and np.isfinite(b).all() and (a > 0).all() and (b > 0).all()):
        raise EigensolveFailure(f"pencil at {where}: a diagonal entry is not finite and positive")
    couplings = {"stiffness_coupling": _coupling(A), "mass_coupling": _coupling(B)}
    worst = max(couplings, key=couplings.get)
    if couplings[worst] > COUPLING_TOL:
        raise EigensolveFailure(
            f"pencil at {where}: {worst.replace('_', ' ')} {couplings[worst]:.3e} "
            f"exceeds {COUPLING_TOL:g}, so the pencil is not diagonal")
    mu = a / b
    if not (np.diff(mu) > 0).all():
        j = int(np.argmin(np.diff(mu)))
        raise EigensolveFailure(f"pencil at {where}: mu_{j + 1} = {mu[j + 1]:.6g} does not "
                                f"exceed mu_{j} = {mu[j]:.6g}")
    return mu, 1.0 / np.sqrt(b), couplings


def _solve_pencil_cut(pr: ModeProblem, cut: float):
    """Eigenpairs of the pencil on the Legendre directions its mass controls.

    The functions E p_k(t), p_k the orthonormal Legendre polynomials, k < m,
    span the trial space too.  The pencil is solved densely on the
    eigenvectors of their mass matrix whose mass exceeds `cut` times the
    largest; the others, polynomials large where the weight is negligible,
    are left out.  Returns (mu, W, X, family): the eigenvalues, the
    B-orthonormal eigenvectors as coefficients W of the E p_k and X of the
    trial functions psi_j, and the Legendre family.
    """
    basis, rule = pr.basis, pr.grid
    family = _SymmetricJacobi(basis.m, 0.0)
    t = basis._map(rule.s)
    log_weight = rule.log_w + (pr.params.M - 1.0) * rule.u + _log_potential(pr.params.M, rule.s)
    env = np.exp(basis._log_envelope(rule.s) + 0.5 * log_weight)
    rows = env * family.rows(t, basis.m)
    # E p_k = sum_j L_jk psi_j, read off the mass products on the exact rule
    L = (env * basis.families[0].rows(t, basis.m)) @ rows.T / np.diag(pr.B)[:, None]
    lam, V = np.linalg.eigh(rows @ rows.T)
    keep = lam > lam[-1] * cut
    T = V[:, keep] / np.sqrt(lam[keep])
    K = T.T @ (L.T @ pr.A @ L) @ T
    mu, Y = np.linalg.eigh(0.5 * (K + K.T))
    W = T @ Y
    return mu, W, L @ W, family


@dataclass
class SpectrumResult:
    """Computed eigenpairs of one mode pencil."""

    problem: ModeProblem
    eigenvalues: np.ndarray
    coefficients: np.ndarray      # (m, n_eigs), columns B-orthonormal
    residual_norms: np.ndarray    # ||A x - mu B x|| / ||B x||: the coupling of the read
    nodes: int
    kept_rank: int                # always the basis size: nothing is cut
    diagnostics: dict             # quad_nodes, basis_size, stiffness/mass coupling


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


def mode_eigenvalues(p: Params, k: int, n_eigs: int = 6, nodes: int = 160) -> SpectrumResult:
    """Smallest mode-k eigenpairs, eigenvector j = B_jj^{-1/2} e_j, and their residual norms."""
    pr = assemble_mode_problem(p, k, nodes=nodes)
    mu, x, couplings = _solve_pencil(pr.A, pr.B, pr.label)
    m = mu.size
    if m < n_eigs:
        raise EigensolveFailure(f"only {m} trial functions, need {n_eigs} eigenvalues")
    mu = mu[:n_eigs]
    X = np.zeros((m, n_eigs))
    X[np.arange(n_eigs), np.arange(n_eigs)] = x[:n_eigs]
    res = np.empty(n_eigs)
    for i in range(n_eigs):
        ax = pr.A @ X[:, i]
        bx = pr.B @ X[:, i]
        res[i] = np.linalg.norm(ax - mu[i] * bx) / np.linalg.norm(bx)
    diagnostics = {"quad_nodes": pr.grid.n, "basis_size": m, **couplings}
    return SpectrumResult(problem=pr, eigenvalues=mu, coefficients=X, residual_norms=res,
                          nodes=m, kept_rank=m, diagnostics=diagnostics)


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
    decided exactly, as k = 0 or alpha = -2(k-1) (even_alpha_info), and
    checked against the presence of the eigenvalue p*-1 in the discrete
    pencil.  Disagreement raises InconsistentKernel.  The total
    kernel dimension (radial element plus harmonic multiplicities) must
    reproduce the even-case count.
    """
    info = even_alpha_info(p)
    target = p.pstar - 1.0
    modes = []
    kernel_dim = 0
    for k in range(k_max + 1):
        lam_k, mult = mode_lambda(k, p.N)
        analytic = k == 0 or info.k == k
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
            "diagnostics": result.diagnostics,
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
