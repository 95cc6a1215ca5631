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
recurrence at those nodes.  The sums and the trial functions' rows at the
rule's map values come from one recurrence pass over the degree, stacked
over all the modes a command assembles (assemble_mode_problems).  Mode
0's rule also carries the perturbation's star-type integrals (reduction):
there the star measure U^{p*} s^{M-1} ds is the rule's weight times
(1-t)^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CknError, EigensolveFailure, GridTooCoarse, InconsistentKernel,
                     QuadratureFailure)
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
    "assemble_mode_problems",
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
    same recurrence at those nodes (_jacobi_pass).  The weights are kept
    as logarithms: the divided-out Jacobi factor (1-t)^{-delta} overflows
    for large delta.  QuadratureFailure when a node is not strictly inside
    (-1, 1), where s would be 0 or infinite.
    """

    s: np.ndarray
    u: np.ndarray          # ln s
    log_w: np.ndarray      # ln of the weights for int f(s) ds

    @classmethod
    def build(cls, n: int, delta: float) -> "JacobiRule":
        rules, _, failure = _rules_and_rows([delta], n, 0)
        if failure is not None:
            raise failure
        return rules[0]

    @property
    def n(self) -> int:
        return self.s.size


def _jacobi_recurrence(n: int, a, b):
    """(diag, off, log_mu0) of the orthonormal Jacobi P^{(a,b)} polynomials p_k, k < n.

    t p_k = off[k+1] p_{k+1} + diag[k] p_k + off[k] p_{k-1} with off[0] = 0,
    and p_0 = exp(-log_mu0/2), log_mu0 the log of the weight's total mass
    2^{a+b+1} B(a+1, b+1).  a and b may be arrays of one shape, a family
    each: diag and off then carry that shape before the degree axis, and
    log_mu0 has it.  A symmetric family (a = b) has a diagonal of exact zeros.
    """
    # imported here, not with the module: scipy.special costs a fresh process
    # about 0.3 s and 26 MB, and the closed-form commands take no Jacobi recurrence
    from scipy.special import betaln

    a = np.asarray(a, dtype=float)[..., None]
    b = np.asarray(b, dtype=float)[..., None]
    k = np.arange(1.0, n)
    ab = a + b
    diag = np.empty(ab.shape[:-1] + (n,))
    diag[..., :1] = (b - a) / (ab + 2.0)
    diag[..., 1:] = (b * b - a * a) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off = np.zeros_like(diag)
    off[..., 1:] = (2.0 / (2.0 * k + ab) * np.sqrt((k + a) * (k + b) / (2.0 * k + ab + 1.0))
                    * np.sqrt(k * (k + ab) / (2.0 * k + ab - 1.0)))
    log_mu0 = ((ab + 1.0) * math.log(2.0) + betaln(a + 1.0, b + 1.0))[..., 0]
    return diag, off, log_mu0


def _rescale_schedule(diag: np.ndarray, off: np.ndarray) -> dict:
    """Steps at which _jacobi_pass tests each group's summed family for rescaling.

    diag and off (G, n) are the summed families' recurrences.  With |t| < 1
    step j multiplies max(|p_j|, |p_{j-1}|) by at most g_j = max(1, (1 +
    |diag_j| + off_j) / off_{j+1}); a block of steps ends before the product
    of its g_j would pass 1e50, and the test runs as the next block starts.
    Returns {step: [groups]}.
    """
    growth = np.log(np.maximum(1.0, (1.0 + np.abs(diag[:, :-1]) + off[:, :-1]) / off[:, 1:]))
    budget = 50.0 * math.log(10.0)
    schedule: dict = {}
    for g, row in enumerate(growth.tolist()):
        spent = 0.0
        for j, step in enumerate(row):
            spent += step
            if spent > budget:
                spent = step
                schedule.setdefault(j, []).append(g)
    return schedule


def _jacobi_pass(t: np.ndarray, diag: np.ndarray, off: np.ndarray, p0: np.ndarray,
                 n_rows: int, n_sum: int = 0):
    """A stack of orthonormal Jacobi families, run through one recurrence over the degree.

    Family f of group g is p_k(t[g, f]), k = 0, 1, ..., with the recurrence
    diag[g, f], off[g, f] of _jacobi_recurrence and the constant p0[g, f];
    a symmetric family's diagonal is 0, so every element takes the same
    operations in the same order.  t is (G, F, nodes).

    With n_sum > 0 family 0 of each group is summed, and the first result
    is ln 1/sum_{k < n_sum} p_k(t)^2, (G, nodes): the log-Christoffel function
    whose values at the Gauss-Jacobi nodes are the rule's weights.  A sum of
    positive terms, each weight is accurate to a few ulp; the Golub-Welsch
    weights, squared first components of the eigenvectors, and those of
    scipy's roots_jacobi (up to 8e-9 relative at 168 nodes and 2e-7 at 408
    as a approaches -1, M near 4) are not.  Nodes whose terms grow large
    (large a, b) are rescaled on _rescale_schedule, the scale kept as a
    logarithm, so no value passes 1e150 and no square overflows.  The other
    families give rows; without a sum, every family does, and the first
    result is None.

    The second result is the rows (G, F', n_rows, nodes), p_k(t), k < n_rows,
    of the row families.  They are not rescaled: where they overflow the
    caller's weight has underflowed, and the caller checks its products.
    """
    G, F, nodes = t.shape
    first = 1 if n_sum else 0
    steps = max(n_sum, n_rows) - 1
    D = np.moveaxis(diag, -1, 0)[..., None]           # (degree, G, F, 1)
    O = np.moveaxis(off, -1, 0)[..., None]
    rows = np.empty((G, F - first, n_rows, nodes))
    p_prev = np.zeros((G, F, nodes))
    p = np.empty((G, F, nodes))
    p[...] = np.asarray(p0, dtype=float)[..., None]
    new, tmp = np.empty_like(p), np.empty_like(p)
    if n_rows:
        rows[:, :, 0] = p[:, first:]
    log_chr, schedule = None, {}
    if n_sum:
        total = p[:, 0] * p[:, 0]
        sq = np.empty_like(total)
        log_scale = np.zeros((G, nodes))
        schedule = _rescale_schedule(diag[:, 0, :n_sum], off[:, 0, :n_sum])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            if j == n_rows - 1:
                # the rows are done: only the summed families go on
                t, p, p_prev, new, tmp = (x[:, :1] for x in (t, p, p_prev, new, tmp))
                D, O = D[:, :, :1], O[:, :, :1]
            for g in schedule.get(j, ()):
                pg, qg = p[g, 0], p_prev[g, 0]
                big = np.maximum(np.abs(pg), np.abs(qg)) > 1e100
                if big.any():
                    pg[big] *= 1e-100
                    qg[big] *= 1e-100
                    total[g, big] *= 1e-200
                    log_scale[g, big] += 200.0 * math.log(10.0)
            np.subtract(t, D[j], out=new)
            new *= p
            np.multiply(O[j], p_prev, out=tmp)
            new -= tmp
            new /= O[j + 1]
            p_prev, p, new = p, new, p_prev
            if j + 1 < n_rows:
                rows[:, :, j + 1] = p[:, first:]
            if n_sum:
                np.multiply(p[:, 0], p[:, 0], out=sq)
                total += sq
    if n_sum:
        log_chr = -np.log(total) - log_scale
    return log_chr, rows


def _gauss_jacobi_nodes(diag: np.ndarray, off: np.ndarray, delta: float) -> np.ndarray:
    """Nodes of the Gauss-Jacobi rule of the (delta-2, delta) recurrence (diag, off), by stemr."""
    # imported here, not with the module: scipy.linalg costs a fresh process
    # about 0.2 s and 28 MB, and the closed-form commands build no Jacobi rule
    from scipy.linalg import eigvalsh_tridiagonal

    t = eigvalsh_tridiagonal(diag, off[1:], lapack_driver="stemr")
    if not (np.abs(t) < 1.0).all():
        raise QuadratureFailure(f"Gauss-Jacobi rule with {t.size} nodes at delta={delta:.6g}: "
                                f"a node is not strictly inside (-1, 1)")
    return t


def _rules_and_rows(deltas, n: int, m: int):
    """n-node Gauss-Jacobi rules in each delta and, for m > 0, their basis rows, in one pass.

    The rows are p_k(t), k < m, of the (delta+i, delta+i) families, i = 0, 1,
    2, at the map values t = _map(s) of each rule's nodes, (G, 3, m, n): the
    values ModeBasis.weighted_rows takes.  Returns (rules, rows, failure):
    the rules of the leading deltas whose nodes were found, and the
    QuadratureFailure of the first one whose nodes were not (None if none),
    for the caller to raise in that delta's turn.
    """
    # family 0 is the rule's (delta-2, delta); the row families follow
    a_shift, b_shift = ([-2.0, 0.0, 1.0, 2.0], [0.0, 0.0, 1.0, 2.0]) if m else ([-2.0], [0.0])
    d = np.asarray(deltas, dtype=float).reshape(-1, 1)
    diag, off, log_mu0 = _jacobi_recurrence(n, d + a_shift, d + b_shift)
    frames, failure = [], None
    for g, delta in enumerate(deltas):
        try:
            t = _gauss_jacobi_nodes(diag[g, 0], off[g, 0], delta)
        except QuadratureFailure as exc:
            failure = exc
            break
        lm, lp = np.log1p(-t), np.log1p(t)
        u = 0.5 * (lp - lm)
        frames.append((t, lm, lp, u, np.exp(u)))
    G = len(frames)
    T = np.empty((G, len(a_shift), n))
    for g, (t, _, _, _, s) in enumerate(frames):
        T[g, 0] = t
        T[g, 1:] = ModeBasis._map(s)
    # p_0 = exp(-log_mu0/2) by libm's exp, as _SymmetricJacobi takes it
    p0 = np.array([math.exp(-0.5 * v) for v in log_mu0[:G].ravel()]).reshape(G, len(a_shift))
    log_chr, rows = _jacobi_pass(T, diag[:G], off[:G], p0, m, n)
    # ds = dt / (s (1-t)^2); dividing out the Jacobi weight leaves
    # W / (s (1-t)^delta (1+t)^delta)
    rules = [JacobiRule(s=s, u=u, log_w=log_chr[g] - u - delta * (lm + lp))
             for g, ((_, lm, lp, u, s), delta) in enumerate(zip(frames, deltas))]
    return rules, rows, failure


class _SymmetricJacobi:
    """The orthonormal Jacobi P^{(a,a)} family p_k, k < n: rows and sums.

    The weight is even, so the recurrence is t p_k = off[k+1] p_{k+1} +
    off[k] p_{k-1}.
    """

    def __init__(self, n: int, a: float):
        self.diag, self.off, log_mu0 = _jacobi_recurrence(n + 2, a, a)
        self.p0 = math.exp(-0.5 * log_mu0)
        # r_k = p_k(1)/p_{k-1}(1) in closed form, from P_k(1) = binom(k+a, k) and the norms
        k = np.arange(1.0, n)
        self.ratio = np.sqrt((2.0 * k + 2.0 * a + 1.0) * (k + 2.0 * a)
                             / ((2.0 * k + 2.0 * a - 1.0) * k))
        self.damp = 1.0 / self.off[1:n] - self.ratio

    def rows(self, t: np.ndarray, n: int) -> np.ndarray:
        """(n, t.size) values p_k(t), k < n."""
        _, rows = _jacobi_pass(t[None, None], self.diag[None, None], self.off[None, None],
                               np.array([[self.p0]]), n)
        return rows[0, 0]

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
    """

    def __init__(self, M: float, nu_coeff: float, m: int):
        self.M = float(M)
        self.nu_coeff = float(nu_coeff)           # lambda_k q^2
        self.m = int(m)
        self.delta = math.sqrt(((M - 2.0) / 2.0) ** 2 + nu_coeff)
        self.sigma0 = self.delta - (M - 2.0) / 2.0
        n = np.arange(self.m, dtype=float)
        self._dscale = [np.sqrt(n * (n + 2.0 * (self.delta + i) + 1.0)) for i in range(2)]

    @functools.cached_property
    def families(self) -> list:
        """The (delta+i, delta+i) families, i = 0, 1, 2, whose rows give p_j, p_j' and p_j''.

        Built on first use: the pencil's assembly takes their rows from its
        own pass (_rules_and_rows), and only the reduction reads a family.
        """
        return [_SymmetricJacobi(self.m - i, self.delta + i) for i in range(3)]

    @property
    def p0(self) -> float:
        """The constant p_0: psi_0 = p0 E."""
        return self.families[0].p0

    @property
    def b1(self) -> float:
        """The recurrence's first off-diagonal coefficient: t = (b1/p0) p_1."""
        return float(self.families[0].off[1])

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

    def weighted_rows(self, s: np.ndarray, log_weight: np.ndarray, log_pot: np.ndarray, P):
        """(psi exp((log_weight + log_pot)/2), T_k psi exp(log_weight/2)), in log space.

        P holds the three families' (m, s.size) rows p_k(t), k < m, at t =
        _map(s), as _rules_and_rows gives them.  Derivatives in t go to the
        next families through d/dt p_n^{(a,a)} = sqrt(n(n+2a+1))
        p_{n-1}^{(a+1,a+1)}, by shifting the rows by the order and scaling.
        The derivative rows are worked in place and end as the two results,
        so the assembly needs a single temporary of their size.  Folding the
        square roots of the quadrature weight and the potential into the
        envelope keeps every factor representable even when s^{M-1} or the
        envelope overflow on their own.  Raises QuadratureFailure where a row
        is still not finite (p_j overflows where the weight underflows, at
        extreme delta).
        """
        lnE = self._log_envelope(s)
        _, _, _, _, _, c0, c1, c2 = self._operator_coeffs(s)
        m = self.m
        P, dP, d2P = P
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.ones(m)
            for i, R in ((1, dP), (2, d2P)):
                scale[i:] *= self._dscale[i - 1][1:m - i + 1]
                R[i:] = R[:m - i] * scale[i:, None]
                R[:i] = 0.0
            # E (c0 P + c1 P' + c2 P''), summed in that order in the rows of
            # P', and the mass rows in those of P''
            np.multiply(c1, dP, out=dP)
            dP += c0 * P
            np.multiply(c2, d2P, out=d2P)
            dP += d2P
            rows_stiff = np.multiply(np.exp(lnE + 0.5 * log_weight), dP, out=dP)
            rows_mass = np.multiply(np.exp(lnE + 0.5 * (log_weight + log_pot)), P, out=d2P)
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


def _gram_matrices(basis: ModeBasis, rule: JacobiRule, M: float, P):
    log_w = rule.log_w + (M - 1.0) * rule.u
    rows_mass, rows_stiff = basis.weighted_rows(rule.s, log_w, _log_potential(M, rule.s), P)
    return rows_stiff @ rows_stiff.T, rows_mass @ rows_mass.T


# --nodes, the trial functions of a mode pencil: the smallest the assembly takes,
# and the largest the command line takes
NODES_RANGE = (64, 2048)
# the most basis rows one assembly pass stacks: one mode's three (m, m+8) blocks
# at the largest node count, so a pass over several modes holds no more rows
# than a single mode does there
PASS_ROWS = 3 * NODES_RANGE[1] * (NODES_RANGE[1] + 8)


def _modes_per_pass(nodes: int) -> int:
    """How many modes of `nodes` trial functions one assembly pass takes."""
    return max(1, PASS_ROWS // (3 * nodes * (nodes + 8)))


def assemble_mode_problems(p: Params, ks, nodes: int = 160):
    """Yield the weak-form pencils (A, B) of the modes ks, in order, `nodes` trial functions each.

    The modes' rules and basis rows come from one recurrence pass per
    _modes_per_pass modes (_rules_and_rows); each pencil's weighted rows
    and Gram products are formed when its turn comes.  A mode that fails to
    assemble raises in its own turn, so a later mode's failure never
    pre-empts what the caller does with an earlier one.
    """
    if nodes < NODES_RANGE[0]:
        raise GridTooCoarse(f"need at least {NODES_RANGE[0]} trial functions, got {nodes}")
    ks = list(ks)
    size = _modes_per_pass(nodes)
    for lo in range(0, len(ks), size):
        # a pass's rows are released before the next pass is made
        yield from _assemble_pass(p, ks[lo:lo + size], nodes)


def _assemble_pass(p: Params, ks: list, nodes: int):
    """Yield the pencils of the modes ks, assembled from one recurrence pass, in order."""
    staged, failure = [], None
    try:
        for k in ks:
            lam_k, _ = mode_lambda(k, p.N)
            staged.append((k, lam_k, ModeBasis(p.M, p.q ** 2 * lam_k, nodes)))
    except (CknError, ValueError) as exc:
        failure = exc
    rules, rows, rule_failure = _rules_and_rows([b.delta for _, _, b in staged], nodes + 8, nodes)
    for g, ((k, lam_k, basis), grid) in enumerate(zip(staged, rules)):
        A, B = _gram_matrices(basis, grid, p.M, rows[g])
        yield ModeProblem(params=p, k=k, lambda_k=lam_k, basis=basis, grid=grid, A=A, B=B)
    if rule_failure is not None or failure is not None:
        raise rule_failure or failure


def assemble_mode_problem(p: Params, k: int, nodes: int = 160) -> ModeProblem:
    """Build the weak-form pencil (A, B) for mode k with `nodes` trial functions."""
    return next(assemble_mode_problems(p, [k], nodes))


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
    return _read_spectrum(assemble_mode_problem(p, k, nodes=nodes), n_eigs)


def _read_spectrum(pr: ModeProblem, n_eigs: int) -> SpectrumResult:
    """The n_eigs smallest eigenpairs of an assembled pencil, off its diagonal."""
    mu, x, couplings = _solve_pencil(pr.A, pr.B, pr.label)
    m = mu.size
    if m < n_eigs:
        raise EigensolveFailure(f"only {m} trial functions, need {n_eigs} eigenvalues")
    mu = mu[:n_eigs]
    X = np.zeros((m, n_eigs))
    X[np.arange(n_eigs), np.arange(n_eigs)] = x[:n_eigs]
    res = np.empty(n_eigs)
    for i in range(n_eigs):
        # A and B times the eigenvector x_i e_i
        ax = x[i] * pr.A[:, i]
        bx = x[i] * pr.B[:, i]
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
    pencil, all of whose modes are assembled together
    (assemble_mode_problems).  Disagreement raises InconsistentKernel.  The total
    kernel dimension (radial element plus harmonic multiplicities) must
    reproduce the even-case count.
    """
    info = even_alpha_info(p)
    target = p.pstar - 1.0
    modes = []
    kernel_dim = 0
    problems = assemble_mode_problems(p, range(k_max + 1), nodes)
    for k in range(k_max + 1):
        lam_k, mult = mode_lambda(k, p.N)
        analytic = k == 0 or info.k == k
        result = _read_spectrum(next(problems), n_eigs)
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
        del result          # its pencil, before the next mode's is assembled
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
