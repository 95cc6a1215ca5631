"""Per-mode eigenproblem of the linearized equation.

After the substitution s = r^{1/q} the mode-k problem becomes, in the
effective dimension M,

    T_k(T_k X) = mu * (M-4)(M-2)M(M+2) (1 + s^2)^{-4} X,
    T_k X = X'' + (M-1) X'/s - lambda_k q^2 X / s^2,

with mu normalized so the extremal itself sits at mu = 1.  The problem is
discretized in weak form: trial functions psi_j = E(s) p_j(t), E =
s^{sigma0} ((1+s^2)/2)^{1-delta}, t = (s^2-1)/(s^2+1), where sigma0 and
the decay power are the indicial exponents of T_k at zero and infinity,
E(1) = 1, and p_j, j < m, are the orthonormal Jacobi P^{(delta,delta)}
polynomials.
Under that map the mass integrand is p_i p_j (1-t^2)^delta, so B is
diagonal, and E p_j, the Gegenbauer C_j^{(delta+1/2)} times the envelope,
are the eigenfunctions of the continuum problem (the Paneitz spectrum on
S^M, Beckner, Ann. Math. 138, 1993), so A is diagonal too: the
mass-orthonormal basis of Shen's spectral-Galerkin methods (SIAM J. Sci.
Comput. 15, 1994).  In t, T_k psi_j / E is (1-t) times c_j p_j + 2(1-t^2)
p_j', c_j a polynomial in t that depends on delta and j alone
(ModeBasis.weighted_rows): sigma0 is the indicial exponent at zero, so M,
nu and sigma0 cancel, the Gegenbauer equation eliminates p_j'', and what
is left is the Paneitz operator on S^M in the coordinate t.  The pencil is
assembled from 1 - t and 1 + t as its rule holds them, and s enters only as
ln s (_log_s).  The eigenpairs are read off the diagonal, mu_j = A_jj /
B_jj with eigenvector x_j e_j, x_j = B_jj^{-1/2} > 0, and that read is
certified on every solve: the normalized off-diagonal couplings of both
matrices must stay below COUPLING_TOL, which bounds the eigenvalue error by
its square.  Every stiffness and mass integrand is a polynomial of degree
at most 2m in t times (1-t)^{delta-2} (1+t)^{delta}, that is (1+t)^2 times
such a polynomial times the Gegenbauer weight (1-t^2)^{delta-2}, so the
pencil is assembled exactly on an (m+8)-node Gauss-Gegenbauer rule, one
rule per mode, with 13 degrees to spare (calculus.JacobiRule, whose
builder stacks the modes' rules).  The trial functions' rows at the nodes
t >= 0 come from one recurrence pass over the degree, stacked over all the
modes a command assembles (assemble_mode_problems); the rows at -t are
(-1)^k times those, and their scale carries no power of 1 +- t
(_log_row_scale), whose sums would cost digits.  Mode 0's rule also
carries the perturbation's star-type integrals (reduction): there the star
measure U^{p*} s^{M-1} ds is the rule's weight times (1-t^2)^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import JacobiRule, _degree_blocks, _jacobi_recurrence, _jacobi_rules
from .errors import (CknError, EigensolveFailure, GridTooCoarse, InconsistentKernel,
                     QuadratureFailure)
from .params import (
    KERNEL_TOL,
    NODES_RANGE,
    Params,
    even_alpha_info,
    mode_lambda,
    paneitz_product,
    sphere_area,
)

__all__ = [
    "ModeBasis",
    "ModeProblem",
    "SpectrumResult",
    "assemble_mode_problem",
    "assemble_mode_problems",
    "mode_eigenvalues",
    "exact_eigenvalues",
    "exact_rel_errors",
    "verify_kernel",
]


def _jacobi_pass(t: np.ndarray, off: np.ndarray, p0: np.ndarray, n_rows: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Rows p_k(t), k < n_rows, of a stack of orthonormal Jacobi (a, a) families, in one pass.

    Family f of group g is p_k(t[g, f]), with the recurrence off[g, f] of
    _jacobi_recurrence and the constant p0[g, f]; t is (G, F, nodes), or (G,
    1, nodes) for one set of points per group.  One recurrence over the
    degree runs them all, and every element takes the same operations in the
    same order, so a family's rows do not depend on what it is stacked with,
    and its rows at -t are (-1)^k times those at t, bit for bit.  The
    recurrence runs one block of calculus.DEGREE_BLOCK degrees at a time in
    a degree-major buffer, with t and off at its full shape, so each of its
    numpy calls takes contiguous operands of one shape; each finished block
    is copied into the rows.  Returns (G, F, n_rows, nodes), written into
    out when given.  The rows are not rescaled: where they overflow the
    caller's weight has underflowed, and the caller checks its products.
    """
    G, F = off.shape[:2]
    nodes = t.shape[-1]
    rows = np.empty((G, F, n_rows, nodes)) if out is None else out
    if not n_rows:
        return rows
    O = np.moveaxis(off, -1, 0)[..., None]           # (degree, G, F, 1)
    t = np.ascontiguousarray(np.broadcast_to(t, (G, F, nodes)))
    rows[:, :, 0] = np.asarray(p0, dtype=float)[..., None]
    blocks = _degree_blocks(1, n_rows)
    # buf[0] and buf[1] hold the two rows before the block's, buf[2:] its rows
    buf = np.empty((max((hi - lo for lo, hi in blocks), default=0) + 2, G, F, nodes))
    buf[0], buf[1] = 0.0, rows[:, :, 0]
    tmp = np.empty((G, F, nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in blocks:
            # off[j-1] and off[j] of row j, as Ob[j - lo] and Ob[j - lo + 1]
            Ob = np.broadcast_to(O[lo - 1:hi], (hi - lo + 1, G, F, nodes)).copy()
            for i in range(hi - lo):
                new = buf[i + 2]
                np.multiply(t, buf[i + 1], out=new)
                np.multiply(Ob[i], buf[i], out=tmp)
                new -= tmp
                new /= Ob[i + 1]
            rows[:, :, lo:hi] = np.moveaxis(buf[2:hi - lo + 2], 0, 2)
            buf[:2] = buf[hi - lo:hi - lo + 2]
    return rows


class _SymmetricJacobi:
    """The orthonormal Jacobi P^{(a,a)} family p_k, k < n: rows and sums.

    The weight is even, so the recurrence is t p_k = off[k+1] p_{k+1} +
    off[k] p_{k-1}.
    """

    def __init__(self, n: int, a: float):
        self.off, ratio, log_mu0 = _jacobi_recurrence(n + 2, a)
        self.p0 = math.exp(-0.5 * float(log_mu0))
        # r_k = p_k(1)/p_{k-1}(1), k = 1, ..., n-1
        self.ratio = ratio[1:n]
        self.damp = 1.0 / self.off[1:n] - self.ratio

    def rows(self, t: np.ndarray, n: int) -> np.ndarray:
        """(n, t.size) values p_k(t), k < n."""
        return _jacobi_pass(t[None, None], self.off[None, None], np.array([[self.p0]]), n)[0, 0]

    def parts(self, coeffs: np.ndarray, t: np.ndarray):
        """(even, odd): sum_k coeffs[k] p_k(t) over even and over odd k, at t >= 0.

        The sum at t is even + odd, and at -t, as p_k(-t) = (-1)^k p_k(t), it
        is even - odd.  A forward recurrence in h = 1 - t (Reinsch's
        modification): with D_k = p_k - r_k p_{k-1}, the recurrence at t and
        at 1 give p_k = r_k p_{k-1} + D_k, D_k = (1/off[k] - r_k) D_{k-1} - h
        p_{k-1}/off[k], D_0 = 0: its terms vanish with h instead of
        cancelling as t nears 1, where Clenshaw's sum loses up to 800 ulps of
        the series.  The sum stops at the last nonzero coefficient.  It
        serves the positivity check of (U + w)/U in
        reduction.find_perturbed_solution, where t nears +-1 in the tails.
        """
        off = self.off
        h = 1.0 - t
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
        return parts[0], parts[1]


class ModeBasis:
    """Decay-adapted trial functions for one mode.

    psi_j = E(s) p_j(t), E = s^{sigma0} ((1+s^2)/2)^{1-delta}, p_j the
    orthonormal Jacobi P^{(delta,delta)} polynomials: E p_j are the
    continuum eigenfunctions, so both pencil matrices are diagonal.  E is 1
    at s = 1, so the pencil carries no common factor; only the bubble's
    coefficient in the basis shows the normalization (reduction).
    """

    def __init__(self, M: float, nu_coeff: float, m: int):
        self.M = float(M)
        self.nu_coeff = float(nu_coeff)           # lambda_k q^2
        self.m = int(m)
        self.delta = math.sqrt(((M - 2.0) / 2.0) ** 2 + nu_coeff)
        self.sigma0 = self.delta - (M - 2.0) / 2.0

    @functools.cached_property
    def family(self) -> _SymmetricJacobi:
        """The (delta, delta) family p_j, built on first use: the pencils take no rows from it."""
        return _SymmetricJacobi(self.m, self.delta)

    def weighted_rows(self, one_minus_t: np.ndarray, one_plus_t: np.ndarray,
                      log_scale: np.ndarray, log_pot: np.ndarray, P):
        """(p exp(log_scale + log_pot/2), (T_k psi / E) exp(log_scale)), in log space.

        one_minus_t and one_plus_t are 1 - t and 1 + t at the map values t
        of the points s, log_scale is ln(c E sqrt(w)) there, E the envelope,
        w the quadrature weight with its s^{M-1} and c a constant, so the
        rows are c psi sqrt(w pot) and c T_k psi sqrt(w); _log_row_scale
        gives it on a pencil's own rule.  P holds the two families' (m,
        s.size) rows p_k(t), k < m, as _assemble_pass gives them.  The rows
        are formed in t alone.  In s, T_k psi / E = c0 p + c1 p' + c2 p''
        with c0 = a^2 + a' + (M-1) a/s - nu/s^2, c1 = 2 a t' + t'' + (M-1)
        t'/s, c2 = t'^2 and a = E'/E; with 1 + s^2 = 2/(1-t) and s^2 =
        (1+t)/(1-t), M, nu and sigma0 cancel through the indicial identity
        sigma0^2 + (M-2) sigma0 = nu, and the Gegenbauer equation (1-t^2)
        p_j'' = 2(delta+1) t p_j' - j(j+2delta+1) p_j eliminates p'':
            T_k psi_j / E = (1-t) [((1-delta)(2 + delta(1-t))
                                    - j(j+2delta+1)(1-t)) p_j + 2(1-t)(1+t) p_j'],
        the Paneitz operator on S^M in the coordinate t, free of cancellation
        in 1 -+ t.  p' comes from the next family through d/dt p_n^{(a,a)} =
        sqrt(n(n+2a+1)) p_{n-1}^{(a+1,a+1)}, its rows shifted by one and
        scaled in place; they end as the stiffness rows and one temporary as
        the mass rows, so the rows of p are left as they were.  Folding the
        square roots of the quadrature weight and the potential into the
        envelope keeps every factor representable even when s^{M-1} or the
        envelope overflow on their own.  Raises QuadratureFailure where a row
        is still not finite (p_j overflows where the weight underflows, at
        extreme delta).
        """
        d, lo = self.delta, one_minus_t
        j = np.arange(self.m, dtype=float)
        eig = (j * (j + 2.0 * d + 1.0))[:, None]
        P, dP = P
        with np.errstate(over="ignore", invalid="ignore"):
            dP[1:] = dP[:-1] * np.sqrt(eig[1:])
            dP[0] = 0.0
            # (1-t) E (c p + 2(1-t)(1+t) p'), summed in the rows of p', with
            # c p, then the mass rows, in one temporary
            np.multiply(2.0 * lo * one_plus_t, dP, out=dP)
            tmp = np.multiply(eig, lo)
            np.subtract((1.0 - d) * (2.0 + d * lo), tmp, out=tmp)
            tmp *= P
            dP += tmp
            rows_stiff = np.multiply(lo * np.exp(log_scale), dP, out=dP)
            rows_mass = np.multiply(np.exp(log_scale + 0.5 * log_pot), P, out=tmp)
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


def _log_potential(p: Params, one_minus_t: np.ndarray) -> np.ndarray:
    """ln of the sharp potential (M-4)(M-2)M(M+2) (1+s^2)^{-4} = P4 ((1-t)/2)^4."""
    return math.log(paneitz_product(p.M, p.M_minus_4)) + 4.0 * np.log(0.5 * one_minus_t)


def _log_s(rule: JacobiRule) -> np.ndarray:
    """ln s = (ln(1+t) - ln(1-t))/2 at a rule's nodes, from 1 -+ t as it holds them."""
    return 0.5 * (np.log(rule.one_plus_t) - np.log(rule.one_minus_t))


def _log_row_scale(rule: JacobiRule) -> np.ndarray:
    """ln(E sqrt(w)) on a pencil's own rule: ln(W)/2 + 2 ln s (_log_s).

    E = s^{sigma0} ((1+s^2)/2)^{1-delta} is the envelope and w = W_s s^{M-1}
    the weight of int f s^{M-1} ds, W_s = W s/(1-t^2)^{delta-1} the rule's
    Christoffel numbers W (rule.log_chr) carried to ds = s dt/(1-t^2).  With
    (1+s^2)/2 = 1/(1-t), s^2 = (1+t)/(1-t) and sigma0 = delta - (M-2)/2, the
    powers of 1-t and 1+t carrying delta, M and sigma0 cancel exactly, for
    every mode.  Summed as floats those terms reach delta |ln(1-t)|, hundreds
    at large M, and the rounding of their exponentials read a median 1e-13 in
    1 - mu2/mu3 (remainder's limit_is_paneitz) near M = 202, against 8.5e-15
    with them cancelled.
    """
    return 0.5 * rule.log_chr + 2.0 * _log_s(rule)


def _gram_matrices(basis: ModeBasis, rule: JacobiRule, p: Params, P):
    rows_mass, rows_stiff = basis.weighted_rows(rule.one_minus_t, rule.one_plus_t,
                                                _log_row_scale(rule),
                                                _log_potential(p, rule.one_minus_t), P)
    return rows_stiff @ rows_stiff.T, rows_mass @ rows_mass.T


# the most basis rows one assembly pass stacks: one mode's two (m, m+8) blocks,
# of p and p', at the largest node count, so a pass over several modes holds no
# more rows than a single mode does there
PASS_ROWS = 2 * NODES_RANGE[1] * (NODES_RANGE[1] + 8)


def _modes_per_pass(nodes: int) -> int:
    """How many modes of `nodes` trial functions one assembly pass takes."""
    return max(1, PASS_ROWS // (2 * nodes * (nodes + 8)))


def assemble_mode_problems(p: Params, ks, nodes: int):
    """Yield the weak-form pencils (A, B) of the modes ks, in order, `nodes` trial functions each.

    The modes' rules and basis rows come from one recurrence pass per
    _modes_per_pass modes (_assemble_pass); each pencil's weighted rows
    and Gram products are formed when its turn comes.  A mode that fails to
    assemble raises in its own turn, so a later mode's failure never
    pre-empts what the caller does with an earlier one.
    """
    for problem, _ in _assembled(p, ks, nodes):
        yield problem


def _assembled(p: Params, ks, nodes: int):
    """assemble_mode_problems, each pencil with its (delta, delta) family's rows on its rule.

    The rows, (m, n) values p_k(t) at the rule's map values, are a view of
    the pass's buffer, which weighted_rows leaves unchanged in them.
    """
    if nodes < NODES_RANGE[0]:
        raise GridTooCoarse(f"need at least {NODES_RANGE[0]} trial functions, got {nodes}")
    ks = list(ks)
    size = _modes_per_pass(nodes)
    for lo in range(0, len(ks), size):
        # a pass's rows are released before the next pass is made
        yield from _assemble_pass(p, ks[lo:lo + size], nodes)


def _assemble_pass(p: Params, ks: list, nodes: int):
    """Yield (pencil, family-0 rows) of the modes ks, from one recurrence pass, in order.

    The modes' n = nodes+8 node rules come from one calculus._jacobi_rules
    call, and the rows of their (delta, delta) and (delta+1, delta+1)
    families, (modes, 2, nodes, n), from one _jacobi_pass at the nodes t >=
    0, mirrored to -t.
    """
    staged, failure = [], None
    try:
        for k in ks:
            lam_k, _ = mode_lambda(k, p.N)
            staged.append((k, lam_k, ModeBasis(p.M, p.q ** 2 * lam_k, nodes)))
    except (CknError, ValueError) as exc:
        failure = exc
    deltas, n = [b.delta for _, _, b in staged], nodes + 8
    rules, rule_failure = _jacobi_rules(deltas, n)
    G, neg = len(rules), n // 2
    off, _, log_mu0 = _jacobi_recurrence(nodes, np.asarray(deltas[:G])[:, None] + np.arange(2.0))
    # p_0 = exp(-log_mu0/2) by libm's exp, as _SymmetricJacobi takes it
    p0 = np.array([math.exp(-0.5 * v) for v in log_mu0.ravel().tolist()]).reshape(G, 2)
    rows = np.empty((G, 2, nodes, n))
    _jacobi_pass(np.reshape([rule.t[neg:] for rule in rules], (G, 1, n - neg)), off, p0, nodes,
                 out=rows[..., neg:])
    rows[..., :neg] = rows[..., ::-1][..., :neg]
    rows[:, :, 1::2, :neg] *= -1.0
    for g, ((k, lam_k, basis), grid) in enumerate(zip(staged, rules)):
        A, B = _gram_matrices(basis, grid, p, rows[g])
        problem = ModeProblem(params=p, k=k, lambda_k=lam_k, basis=basis, grid=grid, A=A, B=B)
        yield problem, rows[g, 0]
    if rule_failure is not None or failure is not None:
        raise rule_failure or failure


def assemble_mode_problem(p: Params, k: int, nodes: int) -> ModeProblem:
    """Build the weak-form pencil (A, B) for mode k with `nodes` trial functions."""
    return next(assemble_mode_problems(p, [k], nodes))


# largest normalized off-diagonal entry |K_ij|/sqrt(K_ii K_jj) the diagonal read
# accepts; the eigenvalue error it allows is of its square.  The worst measured
# on the exact rule is 8.2e-13 (the spectral decks of seeds 1-6)
COUPLING_TOL = 1e-9


def _coupling(K: np.ndarray) -> float:
    """max over i != j of |K_ij| / sqrt(K_ii K_jj)."""
    r = 1.0 / np.sqrt(np.diag(K))
    C = np.abs(K)       # scaled in place: one m x m temporary
    C *= r[:, None]
    C *= r[None, :]
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


def _solve_pencil_cut(pr: ModeProblem, rows0: np.ndarray, cut: float):
    """Eigenpairs of the pencil on the Legendre directions its mass controls.

    rows0 are the (m, n) rows p_j(t) of the trial functions' family on the
    pencil's rule, as _assembled gives them.  The functions E p_k(t), p_k
    the orthonormal Legendre polynomials, k < m, span the trial space too.
    The pencil is solved densely on the eigenvectors of their mass matrix
    whose mass exceeds `cut` times the largest; the others, polynomials
    large where the weight is negligible, are left out.  Returns (mu, W, X, family): the eigenvalues, the
    B-orthonormal eigenvectors as coefficients W of the E p_k and X of the
    trial functions psi_j, and the Legendre family.
    """
    basis, rule = pr.basis, pr.grid
    family = _SymmetricJacobi(basis.m, 0.0)
    t = rule.t
    env = np.exp(_log_row_scale(rule) + 0.5 * _log_potential(pr.params, rule.one_minus_t))
    rows = env * family.rows(t, basis.m)
    # E p_k = sum_j L_jk psi_j, read off the mass products on the exact rule
    L = (env * rows0) @ rows.T / np.diag(pr.B)[:, None]
    lam, V = np.linalg.eigh(rows @ rows.T)
    keep = lam > lam[-1] * cut
    T = V[:, keep] / np.sqrt(lam[keep])
    K = T.T @ (L.T @ pr.A @ L) @ T
    mu, Y = np.linalg.eigh(0.5 * (K + K.T))
    W = T @ Y
    return mu, W, L @ W, family


@dataclass
class SpectrumResult:
    """Computed eigenpairs of one mode pencil; its basis size is diagnostics["basis_size"]."""

    problem: ModeProblem
    eigenvalues: np.ndarray
    coefficients: np.ndarray      # (m, n_eigs), columns B-orthonormal
    residual_norms: np.ndarray    # ||A x - mu B x|| / ||B x||: the coupling of the read
    diagnostics: dict             # quad_nodes, basis_size, stiffness/mass coupling


def exact_eigenvalues(p: Params, k: int, n: int) -> np.ndarray:
    """The n smallest mode-k eigenvalues of the continuum problem, in closed form.

    mu_{k,j} = prod_{i<4} (2l + M - 4 + 2i) / ((M-4)(M-2)M(M+2)) with
    l = sigma0(k) + j, the Paneitz spectrum on S^M (Beckner, Ann. Math. 138,
    1993) in the effective dimension; an oracle for the discrete pencil.
    """
    lam_k, _ = mode_lambda(k, p.N)
    ell = ModeBasis(p.M, p.q ** 2 * lam_k, n).sigma0 + np.arange(n)
    M_ell = 2 * ell + p.M
    return paneitz_product(M_ell, M_ell - 4) / paneitz_product(p.M, p.M_minus_4)


def exact_rel_errors(p: Params, k: int, eigenvalues) -> np.ndarray:
    """|mu_j / exact_j - 1| for the smallest computed mode-k eigenvalues.

    The discretization error against exact_eigenvalues; a pencil residual
    measures only the rounding of the solve.
    """
    mu = np.asarray(eigenvalues, dtype=float)
    return np.abs(mu / exact_eigenvalues(p, k, mu.size) - 1.0)


def mode_eigenvalues(p: Params, k: int, n_eigs: int, nodes: int) -> SpectrumResult:
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
                          diagnostics=diagnostics)


# the smallest eigenvalues of a mode searched for p*-1 (KERNEL_TOL, params)
KERNEL_EIGS = 8


def verify_kernel(p: Params, k_max: int, nodes: int) -> dict:
    """Compare the algebraic kernel condition with the discrete spectra.

    For each mode k <= k_max the condition q^2 lambda_k in {0, M-1} is
    decided exactly, as k = 0 or alpha = -2(k-1) (even_alpha_info), and
    checked against the presence of the eigenvalue p*-1 among the
    KERNEL_EIGS smallest of the discrete pencil, within KERNEL_TOL
    relative; all the modes' pencils, `nodes` trial functions each, are
    assembled together (assemble_mode_problems).  Disagreement raises
    InconsistentKernel.  The total kernel dimension (radial element plus
    harmonic multiplicities) must reproduce the even-case count.
    """
    info = even_alpha_info(p)
    target = p.pstar - 1.0
    modes = []
    kernel_dim = 0
    problems = assemble_mode_problems(p, range(k_max + 1), nodes)
    for k in range(k_max + 1):
        lam_k, mult = mode_lambda(k, p.N)
        analytic = k == 0 or info.k == k
        result = _read_spectrum(next(problems), KERNEL_EIGS)
        dist = float(np.min(np.abs(result.eigenvalues - target)) / target)
        numeric = dist < KERNEL_TOL
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
        "tol": KERNEL_TOL,
        "modes": modes,
        "kernel_dim": kernel_dim,
        "is_even_case": info.is_even_case,
        "k_even": info.k,
    }
