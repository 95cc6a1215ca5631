"""Gauss rules, and the functionals of the problem in closed form.

Every Gauss rule of the program is a symmetric Gauss-Gegenbauer rule in
(1-t^2)^{delta-2} on (-1, 1), from one numpy builder (_half_rules): seeds
from a tridiagonal eigenproblem of half the size, solved on its two
diagonals by LAPACK's dsterf in numpy's own OpenBLAS, a Newton step in
h = 1 - |t| (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013) and
Christoffel-Darboux weights, certified against the weight's mass and
divided by their sum.  The Newton step, like the basis rows' recurrence
(spectrum._jacobi_pass), runs a block of DEGREE_BLOCK degrees at a time on
contiguous operands of one shape, and holds no table over all the degrees.
The rules (JacobiRule) are rules in t alone, for the mode pencils
(spectrum) and the perturbation's star integrals (reduction); the map
t = (s^2-1)/(s^2+1) is spectrum's.  A radial profile is integrated one way
only, exactly: its Hessian integral, and its star integral when its form is
a single term, are Beta sums (PowerForm) or Gamma sums (ExpForm) that touch
no rule, so the closed-form commands build none.  The sphere factor
omega_{N-1} is folded into every full-space integral, so reported norms
match the R^N definitions.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoClosedForm, QuadratureFailure, ZeroFunction
from .openblas import numpy_openblas
from .params import Params, sphere_area

__all__ = [
    "JacobiRule",
    "hessian_integral",
    "star_integral",
    "weighted_hessian_norm_sq",
    "weighted_star_norm",
    "rayleigh_quotient",
    "in_float_range",
]


@dataclass(frozen=True)
class JacobiRule:
    """Gauss-Gegenbauer rule for int_{-1}^1 P(t) (1-t^2)^{delta-2} dt.

    Exact when P is a polynomial of degree below 2n.  The nodes come in
    pairs +-t, in increasing t, and t holds them exactly so (one node is t =
    0 when n is odd); the nodes t >= 0 and their weights come from
    _half_rules, within about 1e-14 relative in 1 - |t| of 40-digit ones,
    and 1 - t and 1 + t are kept from h = 1 - |t| as h and 2 - h, with no
    cancellation.  The weights, the Christoffel numbers, are kept as
    logarithms: they underflow for large delta.  The map to s is spectrum's
    (spectrum._log_s).  QuadratureFailure when a node is not strictly inside
    (-1, 1) or when _half_rules cannot certify it.
    """

    t: np.ndarray
    one_minus_t: np.ndarray  # 1 - t and 1 + t, each h or 2 - h
    one_plus_t: np.ndarray
    log_chr: np.ndarray    # ln of the weights for int P(t) (1-t^2)^{delta-2} dt

    @classmethod
    def build(cls, n: int, delta: float) -> "JacobiRule":
        rules, failure = _jacobi_rules([delta], n)
        if failure is not None:
            raise failure
        return rules[0]

    @property
    def n(self) -> int:
        return self.t.size


_HALF_LOG_PI = 0.5 * math.log(math.pi)
# ln Gamma(x+1/2)/Gamma(x) = ln(x)/2 + sum_j c_j x^{1-j}, j = 2, 4, ..., 14: the
# Bernoulli terms (2^{1-j} - 2) B_j / (j(j-1)) of the two Stirling series
_HALF_GAMMA_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
                      -5461 / 425984)


def _log_mu0(a: float) -> float:
    """ln of the mass sqrt(pi) Gamma(a+1)/Gamma(a+3/2) of the weight (1-t^2)^a on (-1, 1).

    That is 2^{2a+1} B(a+1, a+1), by the duplication formula.  The lgamma
    difference loses digits to cancellation as a grows (4e-13 at a = 1000),
    so from a = 8 on ln Gamma(x+1/2)/Gamma(x), x = a+1, is summed from its
    Stirling series, whose next term is below 4e-16 there; both are within
    4e-15 of 40-digit mpmath over a > -1.
    """
    if a < 8.0:
        return _HALF_LOG_PI + math.lgamma(a + 1.0) - math.lgamma(a + 1.5)
    x = a + 1.0
    y = 1.0 / (x * x)
    tail = 0.0
    for c in reversed(_HALF_GAMMA_SERIES):
        tail = tail * y + c
    return _HALF_LOG_PI - 0.5 * math.log(x) - tail / x


def _jacobi_recurrence(n: int, a):
    """(off, ratio, log_mu0) of the orthonormal Jacobi P^{(a,a)} polynomials p_k, k < n.

    t p_k = off[k+1] p_{k+1} + off[k] p_{k-1} with off[0] = 0: the weight
    (1-t^2)^a is even, so the diagonal is 0.  ratio[k] = p_k(1)/p_{k-1}(1),
    k >= 1 (ratio[0] = 1), in closed form from P_k(1) = binom(k+a, k) and the
    norms, and p_0 = exp(-log_mu0/2), log_mu0 = _log_mu0(a).  a may be an
    array, a family per element: off and ratio then carry its shape before
    the degree axis, and log_mu0 has it.  At k = 1 both are taken in their
    cancelled forms, off[1] = 1/sqrt(3+2a) and ratio[1] = sqrt(3+2a): the
    textbook forms carry a factor (1+2a)/(1+2a), 0/0 at a = -1/2.
    """
    a = np.asarray(a, dtype=float)
    log_mu0 = np.array([_log_mu0(v) for v in a.ravel().tolist()]).reshape(a.shape)
    a = a[..., None]
    k = np.arange(2.0, n)
    c = 2.0 * k + 2.0 * a
    off = np.zeros(a.shape[:-1] + (n,))
    ratio = np.ones_like(off)
    off[..., 2:] = np.sqrt(k * (k + 2.0 * a) / ((c + 1.0) * (c - 1.0)))
    ratio[..., 2:] = np.sqrt((c + 1.0) * (k + 2.0 * a) / ((c - 1.0) * k))
    if n > 1:
        ratio[..., 1] = np.sqrt(3.0 + 2.0 * a[..., 0])
        off[..., 1] = 1.0 / ratio[..., 1]
    return off, ratio, log_mu0


def _rescale_steps(off: np.ndarray) -> dict:
    """Steps k at which _newton_step tests each rule's terms for rescaling: {k: [rules]}.

    off (G, n+1) are the rules' recurrences.  With |t| < 1 step k multiplies
    max(|p_k|, |p_{k-1}|) by at most g_k = max(1, (1 + off[k-1]) / off[k]);
    a rule's test runs as a step starts after the product of its g_k has
    passed another 1e50 since the last.  Each rule keeps its own steps, so
    its nodes do not depend on what it is stacked with.
    """
    growth = np.cumsum(np.log(np.maximum(1.0, (1.0 + off[:, :-1]) / off[:, 1:])), axis=1)
    block = np.floor(growth / (50.0 * math.log(10.0)))
    schedule: dict = {}
    for g, i in zip(*np.nonzero(np.diff(block, axis=1) > 0)):
        schedule.setdefault(int(i) + 3, []).append(int(g))
    return schedule


# a Newton step of at most this share of h leaves the node within about 1e-14
# of it relative (the step squares the error), so the rule is done; a rule
# whose step stays larger after NEWTON_STEPS steps, or whose weights do not
# sum to its weight's mass within MASS_TOL relative, is refused.  One step
# is enough from every seed measured but those of delta within about 1e-8 of
# 1 at a thousand nodes or more, where the end node's h is below the seeds'
# absolute accuracy
NEWTON_TOL = 1e-7
NEWTON_STEPS = 8
MASS_TOL = 1e-11
# the h Newton starts from where a seed's h rounds to 0 or below (delta within
# about 1e-15 of 1): a node that does not leave it is refused by the steps'
# tolerance or by the weights' mass
H_FLOOR = 1e-30
# degrees per block of the recurrences of _newton_step and spectrum._jacobi_pass,
# each block's coefficients formed at the nodes' full shape: the length changes
# no bit, only the memory the blocks take
DEGREE_BLOCK = 64


def _degree_blocks(lo: int, hi: int) -> list:
    """(start, stop) of the consecutive blocks of DEGREE_BLOCK degrees that cover range(lo, hi)."""
    return [(k, min(k + DEGREE_BLOCK, hi)) for k in range(lo, hi, DEGREE_BLOCK)]


def _newton_step(n: int, h: np.ndarray, off: np.ndarray, ratio: np.ndarray,
                 log_mu0: np.ndarray):
    """One Newton step on p_n in h = 1 - t, for each rule's nodes t >= 0: (h, step, log_chr).

    h (G, ceil(n/2)) are the nodes before the step, off and ratio (G, n+1)
    the rules' recurrences (_jacobi_recurrence).  The step runs the
    recurrence in Reinsch's form, with (1-t^2) p_k' = k (h p_k - D_k), D_k =
    p_k - ratio[k] p_{k-1}: in h the nodes near t = 1 keep their relative
    accuracy.  By Christoffel-Darboux
    sum_{k<n} p_k^2 = off[n] p_n' p_{n-1} = n ratio[n] off[n] p_{n-1}^2 /
    (1-t^2) at a node, with p_{n-1} taken at the new node to first order
    from the same pass; log_chr is ln 1/sum_{k<n} p_k(t)^2 there.  Terms
    that grow large (large delta) are rescaled on _rescale_steps, the scale
    kept as a logarithm.  Each degree's coefficients, h/off and t/off and
    the recurrence's factors broadcast to the nodes' shape, are formed one
    block of DEGREE_BLOCK degrees at a time (_degree_blocks), so each step's
    numpy calls take contiguous operands of one shape and the build holds
    no table of all n degrees.
    """
    G, half = h.shape
    damp = np.zeros_like(off)
    damp[:, 1:] = 1.0 / off[:, 1:] - ratio[:, 1:]
    back = np.zeros_like(off)
    back[:, 1:] = off[:, :-1] / off[:, 1:]
    # (degree, G, 1)
    O, R, P, B = (np.moveaxis(x, -1, 0)[..., None] for x in (off, ratio, damp, back))
    checks = _rescale_steps(off)
    t = 1.0 - h
    # (p, D) in Reinsch's form and (q, q_prev) on the plain recurrence, both p_k
    p, q = np.ones((G, half)), np.ones((G, half))
    D, q_prev = np.zeros((G, half)), np.zeros((G, half))
    tmp, new = np.empty_like(p), np.empty_like(p)
    log_scale = np.zeros((G, half))
    for lo, hi in _degree_blocks(1, n + 1):
        with np.errstate(divide="ignore"):
            h_off, t_off = h / O[lo:hi], t / O[lo:hi]       # (block, G, nodes)
        P_k, R_k, B_k = (np.broadcast_to(x[lo:hi], h_off.shape).copy() for x in (P, R, B))
        for i, k in enumerate(range(lo, hi)):
            if k in checks:
                big = np.zeros((G, half), dtype=bool)
                g = checks[k]
                big[g] = np.maximum(np.abs(p[g]), np.abs(D[g])) > 1e100
                if big.any():
                    for x in (p, D, q, q_prev):
                        x[big] *= 1e-100
                    log_scale[big] += 100.0 * math.log(10.0)
            if k == n:
                p_last, D_last, q_last, q_before = p.copy(), D.copy(), q.copy(), q_prev.copy()
            np.multiply(h_off[i], p, out=tmp)
            D *= P_k[i]
            D -= tmp
            p *= R_k[i]
            p += D
            np.multiply(t_off[i], q, out=new)
            np.multiply(B_k[i], q_prev, out=tmp)
            new -= tmp
            q_prev, q, new = q, new, q_prev
    one_t2 = h * (2.0 - h)
    step = p * one_t2 / (n * (h * p - D))        # p_n / p_n'
    if n % 2:
        step[:, 0] = 0.0                         # the middle node, t = 0
    # p_{n-1} at h + step to first order, dp_{n-1}/dh = -p_{n-1}': in Reinsch's
    # form where t > 1/2, whose terms cancel as t nears 0 (a bias of 5e-14 in
    # the log-weights there at delta = 100), and on the plain recurrence,
    # which loses 1/h to cancellation near t = 1, elsewhere
    near_one = p_last - (n - 1.0) * (h * p_last - D_last) / one_t2 * step
    near_zero = q_last - (n - 1.0) * (R[n - 1] * q_before - t * q_last) / one_t2 * step
    last = np.where(t > 0.5, near_one, near_zero)
    h = h + step
    log_chr = (log_mu0[:, None] + np.log(h * (2.0 - h)) - np.log(n * R[n] * O[n])
               - 2.0 * (np.log(np.abs(last)) + log_scale))
    return h, step, log_chr


@functools.cache
def _dsterf():
    """LAPACK's dsterf (ILP64) in numpy's OpenBLAS, or None where numpy links no such routine."""
    found = numpy_openblas()
    if found is None or found[2] is None:
        return None
    lib, _, lapack = found
    fn = getattr(lib, lapack.format("dsterf"), None)
    if fn is not None:
        int64 = ctypes.POINTER(ctypes.c_int64)
        vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
        fn.restype, fn.argtypes = None, [int64, vector, vector, int64]
    return fn


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray):
    """Increasing eigenvalues of the symmetric tridiagonal matrix with diagonals d and e, or None.

    d (m,) is the diagonal and e (m-1,) the off-diagonal; None when the
    eigenvalues did not converge.  LAPACK's dsterf (root-free QR) takes the
    two diagonals in O(m^2) time and O(m) memory.  Where numpy links no
    dsterf, np.linalg.eigvalsh takes the dense matrix: its dsyevd reduces
    it with reflectors that are all the identity, as it is already
    tridiagonal, and then calls dsterf on the same d and e, so both paths
    give the same bits.
    """
    if e.shape != (d.size - 1,):
        raise ValueError(f"off-diagonal of shape {e.shape} for a diagonal of {d.size}")
    dsterf = _dsterf()
    if dsterf is None:
        try:
            return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        except np.linalg.LinAlgError:
            return None
    lam, work, info = d.copy(), e.copy(), ctypes.c_int64()
    dsterf(ctypes.byref(ctypes.c_int64(d.size)), lam, work, ctypes.byref(info))
    return lam if info.value == 0 else None


def _half_rules(n: int, deltas):
    """The nodes t >= 0 of the n-node Gauss-Gegenbauer rules in each delta, with their weights.

    Each rule's weight is (1-t^2)^a, a = delta - 2, and its Jacobi matrix J
    (the recurrence's, Golub & Welsch, Math. Comp. 23, 1969) has a zero
    diagonal, so J^2 splits into its even- and odd-indexed halves, and the
    squares of the nodes t >= 0 are the eigenvalues of the even half, a
    tridiagonal matrix of size ceil(n/2): one _tridiagonal_eigenvalues call
    per rule on its two diagonals gives the seeds.  The eigenvalues are
    accurate in t, not in h = 1 - t near t = 1, so each rule takes Newton
    steps in h (_newton_step) until every step is below NEWTON_TOL of h, one
    step from every seed but the most extreme; a seed whose h rounds to 0
    or below starts from H_FLOOR.  The rule's weights, its Christoffel
    numbers, must then sum to the weight's mass exp(log_mu0) within
    MASS_TOL relative: a certificate that every node and weight is there.
    A Gauss rule integrates constants exactly, so the weights are then
    divided by that sum: the recurrence's rounding puts a factor common to
    the whole rule into them (1e-14 at delta = 2 and 2 048 nodes).

    Returns (h, log_chr, failed): (G, ceil(n/2)) arrays of h = 1 - t and of
    the log-Christoffel values ln 1/sum_{k<n} p_k(t)^2, in increasing t (for
    odd n the first node is t = 0 exactly), and for each rule None or the
    QuadratureFailure that refuses it.
    """
    G, half = len(deltas), (n + 1) // 2
    off, ratio, log_mu0 = _jacobi_recurrence(n + 1, np.asarray(deltas, dtype=float) - 2.0)
    b = off.copy()
    b[:, n] = 0.0                   # J is n x n
    # the even half of J^2: diagonal b_{2j}^2 + b_{2j+1}^2, off-diagonal b_{2j+1} b_{2j+2}
    d = b[:, 0:2 * half:2] ** 2 + b[:, 1:2 * half:2] ** 2
    e = b[:, 1:2 * half - 2:2] * b[:, 2:2 * half - 1:2]
    lam = np.full((G, half), np.nan)
    seeded = np.zeros(G, dtype=bool)
    for g in range(G):
        seeds = _tridiagonal_eigenvalues(d[g], e[g])
        if seeds is not None:
            lam[g], seeded[g] = seeds, True
    log_chr = np.full((G, half), np.nan)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        h = np.maximum((1.0 - lam) / (1.0 + np.sqrt(np.maximum(lam, 0.0))), H_FLOOR)
        if n % 2:
            h[:, 0] = 1.0           # the middle node
        todo, converged = np.flatnonzero(seeded), np.zeros(G, dtype=bool)
        for _ in range(NEWTON_STEPS):
            if not todo.size:
                break
            h[todo], step, log_chr[todo] = _newton_step(n, h[todo], off[todo], ratio[todo],
                                                       log_mu0[todo])
            done = (np.abs(step) <= NEWTON_TOL * h[todo]).all(axis=1)
            converged[todo[done]] = True
            todo = todo[~done]
        inside = (h > 0.0).all(axis=1)
        w = np.exp(log_chr - log_mu0[:, None])
        mass = 2.0 * w.sum(axis=1) - (w[:, 0] if n % 2 else 0.0)
        log_chr -= np.log(mass)[:, None]
    failed = []
    for g, delta in enumerate(deltas):
        where = f"Gauss-Jacobi rule with {n} nodes at delta={delta:.6g}"
        if not seeded[g]:
            failed.append(QuadratureFailure(
                f"{where}: the seeds' tridiagonal eigenvalues did not converge"))
        elif not inside[g]:
            failed.append(QuadratureFailure(f"{where}: a node is not strictly inside (-1, 1)"))
        elif not converged[g]:
            failed.append(QuadratureFailure(
                f"{where}: Newton's steps from the seeds did not settle in {NEWTON_STEPS}"))
        elif not abs(mass[g] - 1.0) <= MASS_TOL:
            failed.append(QuadratureFailure(
                f"{where}: the weights sum to {mass[g]:.17g} of the weight's mass "
                f"(tolerance {MASS_TOL:g})"))
        else:
            failed.append(None)
    return h, log_chr, failed


def _jacobi_rules(deltas, n: int):
    """(rules, failure): the n-node JacobiRules in each delta, from one _half_rules call.

    The rules are those of the leading deltas whose nodes were found, and
    failure the QuadratureFailure of the first one that was not (or None).
    """
    h, log_chr, failed = _half_rules(n, deltas)
    G = next((g for g, f in enumerate(failed) if f is not None), len(failed))
    failure = failed[G] if G < len(failed) else None
    h, log_chr, neg = h[:G], log_chr[:G], n // 2

    def whole(neg_side, pos_side):
        return np.concatenate((neg_side[:, ::-1][:, :neg], pos_side), axis=1)

    rules = [JacobiRule(*fields) for fields in zip(    # t, 1 - t, 1 + t, log_chr
        whole(h - 1.0, 1.0 - h), whole(2.0 - h, h), whole(h, 2.0 - h), whole(log_chr, log_chr))]
    return rules, failure


# -- functionals ---------------------------------------------------------------


def in_float_range(p: Params, name: str, value: float) -> float:
    """value, the integral of a positive integrand, if it is a positive float."""
    if not (math.isfinite(value) and value > 0.0):
        raise QuadratureFailure(
            f"{name} at N={p.N}, alpha={p.alpha}: the integral of a positive "
            f"integrand is {value!r}, outside the float range")
    return value


def _exact(p: Params, name: str, form, value: float) -> float:
    """The exact integral value of a form's positive integrand: 0 for a zero form."""
    return value if not any(form.terms.values()) else in_float_range(p, name, value)


def hessian_integral(p: Params, dim: float, weight_pow: float, u) -> float:
    """Exact int r^weight_pow (u'' + (dim-1)u'/r)^2 r^{dim-1} dr from u's form, no sphere factor."""
    form = u.form
    lap = form.radial_laplacian(dim)
    return _exact(p, "Hessian integral", form, (lap * lap).integral(weight_pow + dim - 1.0))


def star_integral(p: Params, dim: float, weight_pow: float, u) -> float:
    """Exact int r^weight_pow |u|^{p*} r^{dim-1} dr from u's form, no sphere factor.

    |u|^{p*} of several terms is no form, and no command takes it: NoClosedForm.
    """
    form = u.form
    if len(form.terms) > 1:
        raise NoClosedForm(f"star integral at N={p.N}, alpha={p.alpha}: |u|^p* of a form "
                           f"of {len(form.terms)} terms has no closed form")
    return _exact(p, "star integral", form, form.integral(weight_pow + dim - 1.0, p.pstar))


def weighted_hessian_norm_sq(p: Params, u) -> float:
    """Squared norm omega int r^alpha (u'' + (N-1)u'/r)^2 r^{N-1} dr."""
    return sphere_area(p.N) * hessian_integral(p, p.N, p.alpha, u)


def weighted_star_norm(p: Params, u) -> float:
    """Norm (omega int r^{-alpha} |u|^{p*} r^{N-1} dr)^{1/p*}."""
    return (sphere_area(p.N) * star_integral(p, p.N, -p.alpha, u)) ** (1.0 / p.pstar)


def rayleigh_quotient(p: Params, u) -> float:
    """Quotient ||u||^2 / ||u||_*^2 whose infimum is the sharp constant."""
    star = weighted_star_norm(p, u)
    if star == 0.0:
        raise ZeroFunction("star norm vanishes; quotient undefined")
    return weighted_hessian_norm_sq(p, u) / star ** 2
