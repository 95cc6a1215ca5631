import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import roots_legendre

from ckn4.calculus import JacobiRule, weighted_hessian_norm_sq
from ckn4.params import mode_lambda, normalization_constant, sphere_area, validate_params
from ckn4.profiles import PolyGaussProfile, extremal_U
import ckn4.reduction as reduction
from ckn4.reduction import PerturbationProblem, solve_correction
from ckn4.spectrum import _SymmetricJacobi

# the five working parameter pairs exercised across the suite
PARAM_SETS = [(5, 1.0), (5, 0.5), (6, -1.0), (3, 1.5), (7, -2.0)]


def log_rule(m, u_min, u_max, panel_pts):
    """(u, s, w): composite Gauss-Legendre rule in u = ln s on [u_min, u_max].

    w includes ds = s du.  Panels min(1, 96/m) wide for |u| < 8, where m
    trial functions (degree below m in t = tanh u) oscillate at most about
    m radians per unit u, half a unit for 8 < |u| < 12, and a unit beyond.
    A composite reference, independent of the Gauss-Jacobi rules the
    program integrates on.
    """
    zones = [(u_min, -12.0, 1.0), (-12.0, -8.0, 0.5), (-8.0, 8.0, min(1.0, 96.0 / m)),
             (8.0, 12.0, 0.5), (12.0, u_max, 1.0)]
    x, wref = roots_legendre(panel_pts)
    us, ws = [], []
    for a, b, h in zones:
        edges = np.linspace(a, b, int(math.ceil((b - a) / h)) + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        us.append((mid[:, None] + half[:, None] * x[None, :]).ravel())
        ws.append((half[:, None] * wref[None, :]).ravel())
    u = np.concatenate(us)
    s = np.exp(u)
    return u, s, np.concatenate(ws) * s


def frame(u):
    """(t, 1-t, 1+t) at u = ln s: t = (s^2-1)/(s^2+1) = tanh u and 1 -+ t = 2/(1 + e^{+-2u})."""
    return np.tanh(u), 2.0 / (1.0 + np.exp(2.0 * u)), 2.0 / (1.0 + np.exp(-2.0 * u))


def rule_in_s(rule, delta):
    """(s, u, log_w) of a JacobiRule in delta: its nodes s, u = ln s and log-weights for ds.

    The s-frame oracle: s^2 = (1+t)/(1-t), and ds = s dt/(1-t^2) takes the
    Christoffel numbers W of the weight (1-t^2)^{delta-2} to the weights W /
    (s (1-t)^delta (1+t)^{delta-2}) of int f(s) ds, summed in logs term by
    term from 1 - t and 1 + t as the rule holds them.
    """
    lm, lp = np.log(rule.one_minus_t), np.log(rule.one_plus_t)
    u = 0.5 * (lp - lm)
    log_w = rule.log_chr - u - delta * lm - (delta - 2.0) * lp
    return SimpleNamespace(s=np.exp(u), u=u, log_w=log_w)


def composite_rule(m, u_min, u_max, panel_pts, delta):
    """log_rule as a JacobiRule in delta: the same nodes, as map values t = tanh u.

    Its log_chr are log_rule's weights for ds carried to the weight
    (1-t^2)^{delta-2} in t (rule_in_s inverted), so the program's star
    integrals, which read the rule in t, run on it unchanged.
    """
    u, s, w = log_rule(m, u_min, u_max, panel_pts)
    t, one_minus_t, one_plus_t = frame(u)
    log_chr = (np.log(w) + u + delta * np.log(one_minus_t)
               + (delta - 2.0) * np.log(one_plus_t))
    return JacobiRule(t=t, one_minus_t=one_minus_t, one_plus_t=one_plus_t, log_chr=log_chr)


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes/weights for integrals int_0^inf f(r) dr.

    The program integrates every radial profile exactly (a Beta or Gamma
    sum of its form); these grid sums are the tests' independent oracle
    for those sums, and integrate functions that carry no form.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self):
        return self.nodes.size

    @classmethod
    def log_gauss(cls, r_min=1e-6, r_max=1e6, n=512):
        """Gauss-Legendre in ln r, the delta = 2 JacobiRule; weights include dr = r d(ln r).

        Built once per (r_min, r_max, n) and shared, so its arrays are read-only.
        """
        return _log_gauss(float(r_min), float(r_max), int(n))

    def integrate(self, values):
        return float(self.weights @ values)


@functools.cache
def _log_gauss(r_min, r_max, n):
    rule = JacobiRule.build(n, 2.0)     # Gauss-Legendre
    a, b = math.log(r_min), math.log(r_max)
    r = np.exp(0.5 * (a + b) + 0.5 * (b - a) * rule.t)
    weights = 0.5 * (b - a) * np.exp(rule.log_chr) * r
    r.flags.writeable = weights.flags.writeable = False
    return RadialGrid(nodes=r, weights=weights)


def default_grid():
    return RadialGrid.log_gauss()


class ComposedRadial:
    """amp * u((scale * s)^power) (power > 0) with chain-rule derivatives up to order 2."""

    def __init__(self, u, power, scale=1.0, amp=1.0):
        self.u = u
        self.power = float(power)
        self.scale = float(scale)
        self.amp = float(amp)

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        return self.amp * self.u.eval((self.scale * s) ** self.power)

    def deriv(self, s, order=1):
        s = np.asarray(s, dtype=float)
        q = self.power
        rr = self.scale * s
        r = rr ** q
        dr = q * rr ** (q - 1.0) * self.scale
        if order == 1:
            return self.amp * self.u.deriv(r, 1) * dr
        if order == 2:
            d2r = q * (q - 1.0) * rr ** (q - 2.0) * self.scale * self.scale
            return self.amp * (self.u.deriv(r, 2) * dr ** 2 + self.u.deriv(r, 1) * d2r)
        raise ValueError("composed profiles support derivatives up to order 2")


def grid_hessian_integral(p, dim, weight_pow, u, grid=None):
    """int r^weight_pow (u'' + (dim-1)u'/r)^2 r^{dim-1} dr on the grid (default_grid unless given)."""
    grid = grid or default_grid()
    r = grid.nodes
    lap_u = u.deriv(r, 2) + (dim - 1) * u.deriv(r, 1) / r
    return grid.integrate(r ** weight_pow * (lap_u * lap_u) * r ** (dim - 1))


def grid_star_integral(p, dim, weight_pow, u, grid=None):
    """int r^weight_pow |u|^{p*} r^{dim-1} dr on the grid (default_grid unless given)."""
    grid = grid or default_grid()
    r = grid.nodes
    return grid.integrate(r ** weight_pow * np.abs(u.eval(r)) ** p.pstar * r ** (dim - 1))


def trial_rayleigh_quotient(p, u):
    """||u||^2 / ||u||_*^2 of a trial profile: the exact Hessian norm over the grid's star norm.

    |u|^{p*} of a polynomial-Gaussian trial of several terms has no closed
    form, so its star integral is the grid sum.
    """
    star = (sphere_area(p.N) * grid_star_integral(p, p.N, -p.alpha, u)) ** (1.0 / p.pstar)
    return weighted_hessian_norm_sq(p, u) / star ** 2


# fractional bits of gegenbauer_rule's fixed-point recurrence
_FIX = 256


@functools.cache
def gegenbauer_rule(n, delta):
    """(h, log_chr) of the n-node Gauss-Gegenbauer rule in (1-t^2)^{delta-2}, t >= 0, to 40 digits.

    h = 1 - t and the logs of the weights (the Christoffel numbers), as
    mpmath numbers in increasing t.  A reference for
    JacobiRule.build independent of its seeds, its Newton step and its
    weights: the seeds are the eigenvalues of the whole n x n Jacobi matrix
    (np.linalg.eigvalsh), polished by three Newton steps on the plain
    three-term recurrence in t, run in fixed point on Python integers with
    256 fractional bits from coefficients mpmath computes to 60 digits; the
    weights are (1-t^2) / ((2n+2a+1) off[n]^2 p_{n-1}^2), a = delta - 2, at
    the polished nodes, and they must sum to the weight's mass
    sqrt(pi) Gamma(a+1)/Gamma(a+3/2).
    """
    with mpmath.workdps(60):
        a = mpmath.mpf(delta) - 2
        off = [mpmath.mpf(0), 1 / mpmath.sqrt(3 + 2 * a)] + [
            mpmath.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
            for k in range(2, n + 1)]
        scale = mpmath.mpf(2) ** _FIX
        fix = lambda x: int(mpmath.nint(x * scale))
        off_fix = [fix(b) for b in off]
        inv_fix = [0] + [fix(1 / b) for b in off[1:]]
        log_mu0 = (mpmath.log(mpmath.pi) / 2 + mpmath.loggamma(a + 1)
                   - mpmath.loggamma(a + mpmath.mpf(3) / 2))
        p0 = fix(mpmath.exp(-log_mu0 / 2))
        J = np.diag([float(b) for b in off[1:n]], 1)
        seeds = np.linalg.eigvalsh(J + J.T)[n // 2:]
        t = np.array([fix(mpmath.mpf(float(x))) for x in seeds], dtype=object)

        def values(t):
            p_prev, p = np.zeros(t.size, dtype=object), np.full(t.size, p0, dtype=object)
            for k in range(1, n + 1):
                p_prev, p = p, ((t * p - off_fix[k - 1] * p_prev) >> _FIX) * inv_fix[k] >> _FIX
            return [mpmath.mpf(x) / scale for x in p], [mpmath.mpf(x) / scale for x in p_prev]

        kappa = (2 * n + 2 * a + 1) * off[n]
        for step in range(4):
            p, p_prev = values(t)
            T = [mpmath.mpf(x) / scale for x in t]
            # (1-t^2) p_n' = -n t p_n + kappa p_{n-1}
            moves = [pn * (1 - x * x) / (-n * x * pn + kappa * pm)
                     for x, pn, pm in zip(T, p, p_prev)]
            if step < 3:
                t = np.array([fix(x - dx) for x, dx in zip(T, moves)], dtype=object)
        h = [(scale - int(x)) / scale for x in t]
        assert max(abs(dx) / hh for dx, hh in zip(moves, h)) < mpmath.mpf(10) ** -40
        log_chr = [mpmath.log(hh * (2 - hh) / (kappa * off[n])) - 2 * mpmath.log(abs(pm))
                   for hh, pm in zip(h, p_prev)]
        mass = 2 * sum(mpmath.exp(x) for x in log_chr) - (mpmath.exp(log_chr[0]) if n % 2 else 0)
        assert abs(mass / mpmath.exp(log_mu0) - 1) < mpmath.mpf(10) ** -40
    return h, log_chr


def perturbation_on(rule, p, h, eps, nodes):
    """PerturbationProblem whose star-type integrals run on `rule`.

    The program takes them on the mode-0 pencil's own (m+8)-node
    Gauss-Jacobi rule, or a larger one where q is large
    (reduction._star_rule); here that choice is replaced, and the pencil and
    the working basis are built as usual, so the same code runs on a larger
    Gauss-Gegenbauer rule or on a composite one (composite_rule).
    """
    with mock.patch.object(reduction, "_star_rule", lambda problem, q: rule):
        return PerturbationProblem(p, h, eps, nodes=nodes)


def wide_log_rule(m, M, panel_pts=256):
    """log_rule wide enough for stiffness-type integrands (T X)^2 s^{M-1}.

    They decay like s^{3-M}: the window clip(34/(M-4), 12, 150) upward and
    max(12, min(40, 170/M)) downward.  A reference for the exact pencil and
    the coefficient-space norms.
    """
    u_max = float(np.clip(34.0 / (M - 4.0), 12.0, 150.0))
    u_min = -max(12.0, min(40.0, 170.0 / M))
    return log_rule(m, u_min, u_max, panel_pts)


@functools.lru_cache(maxsize=None)
def log_norms(d, m, order):
    """(m, 1) values ln(Gamma(j+2d+1+order) / (2^order Gamma(j+2d+1)) / sqrt(h_j)), j < m.

    h_j = 2^{2d+1} Gamma(j+d+1)^2 / ((2j+2d+1) j! Gamma(j+2d+1)) is the
    closed-form norm of P_j^{(d,d)}, and the i-th derivative of P_j^{(d,d)}
    is Gamma(j+2d+1+i) / (2^i Gamma(j+2d+1)) P_{j-i}^{(d+i,d+i)}.  Summed in
    40-digit mpmath: at d = 500 (M = 202, mode 2) the log-gamma terms reach
    6e3, and their float rounding put 6e-13 into the rows.
    """
    with mpmath.workdps(40):
        D, ln2 = mpmath.mpf(d), mpmath.log(2)
        out = []
        for j in range(m):
            log_h = ((2 * D + 1) * ln2 + 2 * mpmath.loggamma(j + D + 1)
                     - mpmath.log(2 * j + 2 * D + 1) - mpmath.loggamma(j + 1)
                     - mpmath.loggamma(j + 2 * D + 1))
            log_c = (mpmath.loggamma(j + 2 * D + 1 + order) - order * ln2
                     - mpmath.loggamma(j + 2 * D + 1))
            out.append(float(log_c - log_h / 2))
    return np.array(out)[:, None]


def jacobi_rows(basis, t, order=0):
    """(m, n) matrix of the order-th t-derivative of the basis polynomials p_j at t.

    p_j = P_j^{(d,d)} / sqrt(h_j), d = basis.delta, and its derivatives are
    the classical P^{(a,a)} scaled by log_norms.  These come from their
    unnormalized three-term recurrence (DLMF 18.9.2), which
    test_rows_and_series_match_jacobi_reference checks against scipy's
    eval_jacobi: a reference for ModeBasis independent of its orthonormal
    recurrence, and O(m n) where eval_jacobi is O(m^2 n).
    """
    d = basis.delta
    a = d + order
    t = np.asarray(t, dtype=float)
    P = np.zeros((basis.m, t.size))
    n_rows = basis.m - order
    if n_rows > 0:
        P[order] = 1.0
    if n_rows > 1:
        P[order + 1] = (a + 1.0) * t
    for n in range(1, n_rows - 1):
        # 2(n+1)(n+2a+1)(2n+2a) P_{n+1} = (2n+2a+1)(2n+2a+2)(2n+2a) t P_n
        #                                 - 2(n+a)^2 (2n+2a+2) P_{n-1}
        k = 2.0 * n + 2.0 * a
        P[order + n + 1] = ((k + 1.0) * (k + 2.0) * k * t * P[order + n]
                            - 2.0 * (n + a) ** 2 * (k + 2.0) * P[order + n - 1]) / (
                               2.0 * (n + 1.0) * (n + 2.0 * a + 1.0) * k)
    return P * np.exp(log_norms(float(d), basis.m, order))


def s_frame(basis, s):
    """(t, ln E, a, a', t', t'') of a ModeBasis at the points s: its chain rule in s.

    psi_j = E p_j(t) with t = (s^2-1)/(s^2+1) and the envelope E =
    s^{sigma0} ((1+s^2)/2)^{1-delta}, so psi' = E (a p + t' p') and psi'' =
    E ((a^2 + a') p + (2 a t' + t'') p' + t'^2 p'') with a = E'/E =
    sigma0/s + 2(1-delta) s/(1+s^2).  Written in u = ln s through t = tanh u
    and 2s/(1+s^2) = sech u, so that no power of 1+s^2 is formed: a =
    sigma0/s + (1-delta) sech u, a' = -sigma0/s^2 - (1-delta) t sech u / s,
    t' = sech^2 u / s and t'' = -(1 + 2t) sech^2 u / s^2.  A reference
    for ModeBasis.weighted_rows, which works in t alone.
    """
    sig, d = basis.sigma0, basis.delta
    u = np.log(s)
    t, sech = np.tanh(u), 1.0 / np.cosh(u)
    log_E = sig * u + (1.0 - d) * (np.logaddexp(0.0, 2.0 * u) - math.log(2.0))
    a = sig / s + (1.0 - d) * sech
    ap = -sig / (s * s) - (1.0 - d) * t * sech / s
    tp = sech * sech / s
    tpp = -(1.0 + 2.0 * t) * sech * sech / (s * s)
    return t, log_E, a, ap, tp, tpp


def values_and_derivs(basis, s):
    """(psi, psi', psi'') matrices of shape (m, n) of a ModeBasis at the points s (n,).

    The polynomials come from jacobi_rows, the envelope and the chain rule
    from s_frame.
    """
    t, log_E, a, ap, tp, tpp = s_frame(basis, s)
    E = np.exp(log_E)
    P, dP, d2P = (jacobi_rows(basis, t, i) for i in range(3))
    psi = E * P
    dpsi = E * (a * P + tp * dP)
    d2psi = E * ((a * a + ap) * P + (2.0 * a * tp + tpp) * dP + tp * tp * d2P)
    return psi, dpsi, d2psi


class ModeFunction:
    """X = sum_j coeffs[j] psi_j of a ModeBasis as a function of s, derivatives up to order 2.

    Summed from the matrices of values_and_derivs, whose polynomials come
    from jacobi_rows, not from the program's recurrence; the result has the
    shape of s.
    """

    def __init__(self, basis, coeffs):
        self.basis = basis
        self.coeffs = np.asarray(coeffs, dtype=float)

    def eval(self, s):
        return self.deriv(s, 0)

    def deriv(self, s, order=1):
        s = np.asarray(s, dtype=float)
        return (self.coeffs @ values_and_derivs(self.basis, s.ravel())[order]).reshape(s.shape)


def log_potential(p, s, weight_lambda=1.0):
    """ln of (M-4)(M-2)M(M+2) nu^4 (1 + nu^2 s^2)^{-4}, nu = weight_lambda^{1/q}.

    At weight scale 1 the pencil's potential; at any other its peak moves
    to s = 1/nu, it is no longer polynomial in t, and its mass matrix in
    the diagonal basis is not diagonal.
    """
    M = p.M
    ln_nu = math.log(weight_lambda) / p.q
    return (math.log((M - 4.0) * (M - 2.0) * M * (M + 2.0)) + 4.0 * ln_nu
            - 4.0 * np.logaddexp(0.0, 2.0 * (np.log(s) + ln_nu)))


def families(basis):
    """A ModeBasis's (delta, delta) and (delta+1, delta+1) families: the rows of p_j and p_j'."""
    return [basis.family, _SymmetricJacobi(basis.m - 1, basis.delta + 1)]


def family_rows(basis, s):
    """(2, m, s.size) rows of a basis's two families at t = tanh(ln s), for weighted_rows."""
    t = np.tanh(np.log(s))
    return np.stack([f.rows(t, basis.m) for f in families(basis)])


def composite_grid_pencil(pr, weight_lambda=1.0, chunk=4096):
    """(A, B) of pr's basis on the wide composite log rule, B at weight scale weight_lambda.

    The reference assembly: rule, weight and potential are written here,
    only the basis rows come from ModeBasis.weighted_rows.
    """
    M = pr.params.M
    u, s, w = wide_log_rule(pr.basis.m, M)
    A = np.zeros((pr.basis.m, pr.basis.m))
    B = np.zeros_like(A)
    for lo in range(0, s.size, chunk):
        sl = slice(lo, lo + chunk)
        log_w = np.log(w[sl]) + (M - 1.0) * u[sl]
        _, one_minus_t, one_plus_t = frame(u[sl])
        rows_mass, rows_stiff = pr.basis.weighted_rows(
            one_minus_t, one_plus_t, s_frame(pr.basis, s[sl])[1] + 0.5 * log_w,
            log_potential(pr.params, s[sl], weight_lambda), family_rows(pr.basis, s[sl]))
        A += rows_stiff @ rows_stiff.T
        B += rows_mass @ rows_mass.T
    return A, B


def applied(basis, s):
    """(psi, T_k psi) with T_k psi = psi'' + (M-1)psi'/s - nu psi/s^2, shape (m, n).

    A reference for the rows ModeBasis.weighted_rows assembles the pencil
    from, without the quadrature weight: T_k psi = E (c0 p + c1 p' + c2
    p''), c0 = a^2 + a' + (M-1) a/s - nu/s^2, c1 = 2 a t' + t'' + (M-1)
    t'/s and c2 = t'^2, from s_frame's chain rule; the polynomials come from
    jacobi_rows.
    """
    M, nu = basis.M, basis.nu_coeff
    t, log_E, a, ap, tp, tpp = s_frame(basis, s)
    E = np.exp(log_E)
    c0 = a * a + ap + (M - 1.0) * a / s - nu / (s * s)
    c1 = 2.0 * a * tp + tpp + (M - 1.0) * tp / s
    c2 = tp * tp
    P, dP, d2P = (jacobi_rows(basis, t, i) for i in range(3))
    return E * P, E * (c0 * P + c1 * dP + c2 * d2P)


def bubble_c(pp):
    """c in a PerturbationProblem's bubble U_1 = C (1+s^2)^{1-delta} = c ((1+s^2)/2)^{1-delta}."""
    return float(np.exp(reduction._log_bubble_coeff(pp.params, pp.problem.basis.delta)))


def trial_coeffs(pp, c):
    """X c: a correction's coefficients on the trial functions psi_j.

    In the diagonal basis a PerturbationProblem keeps X = diag(x) as x alone.
    """
    return pp.x * c if pp.X is None else pp.X @ c


def full_grid_energy(pp, lam, result):
    """Reduced energy at scale lam with the star term integrated in the physical frame.

    A reference for reduction.CorrectionResult.energy, whose star term is
    summed in the scale-1 frame of the fixed point and so assumes its dilation
    invariance.  Here the bubble U_lam sits at ln s = -ln nu, nu =
    lam^{1/q}, and h at r = s^q, on a rule of its own whose window
    |ln s| <= 12 + |ln nu| + arccosh(e^{32/M}) reaches past that centre by
    the distance beyond which (2 cosh)^{-M} is below e^{-32} of its peak.
    With U_lam = C nu^{(M-4)/2} (1 + nu^2 s^2)^{-(M-4)/2}, U_lam^{p*}
    s^{M-1} ds = C^{p*} (2 cosh(ln s + ln nu))^{-M} d(ln s), and in mode 0
    (U_lam + w_lam)/U_lam = 1 + sum_j (X c)_j p_j(t(nu s))/c, U_1 = c E
    (bubble_c): the correction is summed from the (m, n) matrix of
    jacobi_rows, and no factor leaves the float range.
    """
    p = pp.params
    basis = pp.problem.basis
    ln_nu = math.log(lam) / p.q
    half = 12.0 + abs(ln_nu) + math.acosh(math.exp(32.0 / p.M))
    u, s, w = log_rule(basis.m, -half, half, panel_pts=64)
    x = u + ln_nu                                        # ln(nu s)
    C = normalization_constant(p)
    P = jacobi_rows(basis, np.tanh(x))
    ratio = 1.0 + trial_coeffs(pp, result.coeffs) @ P / bubble_c(pp)
    h = np.asarray(pp.h(s ** p.q), dtype=float)
    star = pp.star_scale * C ** p.pstar * float(np.sum(
        w / s * np.exp(-p.M * np.logaddexp(x, -x)) * (1.0 + result.problem.eps * h)
        * np.maximum(ratio, 0.0) ** p.pstar))
    return 0.5 * pp.norm_sq(result.coeffs) - star / p.pstar


def brentq_lambda_star(pp, la, lb):
    """Root of the multiplier l(lam) on [la, lb] by brentq on l/lam.

    A reference for find_perturbed_solution's polish, which finds the root
    of a Chebyshev interpolant of l/lam on one block of scales; here every
    scale brentq tries is its own one-scale fixed-point solve.
    """
    return brentq(lambda lam: solve_correction(pp, lam).l / lam, la, lb, xtol=1e-14, rtol=1e-14)


def inner_alpha(p, u, v, grid=None):
    """Inner product omega int r^alpha (lap u)(lap v) r^{N-1} dr.

    A Beta or Gamma sum when u and v carry forms that multiply (one base),
    else the sum on the grid (default_grid unless given).  An oracle for the
    program's norms, which take only u = v (calculus.hessian_integral).
    """
    fu, fv = getattr(u, "form", None), getattr(v, "form", None)
    if fu is not None and type(fu) is type(fv):
        try:
            lap = fu.radial_laplacian(p.N) * fv.radial_laplacian(p.N)
            return sphere_area(p.N) * lap.integral(p.alpha + p.N - 1.0)
        except ValueError:      # two bases that do not multiply
            pass
    grid = grid or default_grid()
    r = grid.nodes
    lap_u = u.deriv(r, 2) + (p.N - 1) * u.deriv(r, 1) / r
    lap_v = v.deriv(r, 2) + (p.N - 1) * v.deriv(r, 1) / r
    return sphere_area(p.N) * grid.integrate(r ** p.alpha * (lap_u * lap_v) * r ** (p.N - 1))


def weighted_H(p, h, u, grid=None):
    """Perturbation functional (1/p*) omega int h |x|^{-alpha} u_+^{p*} r^{N-1} dr, on the grid."""
    grid = grid or default_grid()
    r = grid.nodes
    values = h(r) * r ** (-p.alpha) * np.maximum(u.eval(r), 0.0) ** p.pstar * r ** (p.N - 1)
    return sphere_area(p.N) * grid.integrate(values) / p.pstar


def h_weighted_star_norm(p, h, lam, grid=None):
    """Norm || |h|^{1/p*} U_lam ||_*, where the perturbation sees the bubble, on a wide grid."""
    grid = grid or RadialGrid.log_gauss(1e-14, 1e14, 2048)
    r = grid.nodes
    hv = np.abs(np.asarray(h(r), dtype=float))
    vals = hv * r ** (-p.alpha) * extremal_U(p, lam).eval(r) ** p.pstar * r ** (p.N - 1)
    return (sphere_area(p.N) * grid.integrate(vals)) ** (1.0 / p.pstar)


@functools.cache
def _star_log_rule():
    """(z, w): log_rule in z = ln s over |z| <= 40, w the weights for dz."""
    u, s, w = log_rule(960, -40.0, 40.0, 32)
    return u, w / s


def star_overlaps(p, ratio, xs, slope=False):
    """<u, U_{e^x}>_alpha / ||U_1||_alpha^2 at each x = ln lam, for u = U_1 ratio(ln s).

    The star form: by the Euler-Lagrange equation of U_lam, <u, U_lam>_alpha
    = omega q int U_nu^{p*-1} u s^{M-1} ds with nu = lam^{1/q}, and with
    U_nu = C (nu / (1 + nu^2 s^2))^{(M-4)/2} that is omega q C^{p*} int
    (2 cosh(z + y))^{-(M+4)/2} (2 cosh z)^{-(M-4)/2} ratio dz, z = ln s,
    y = x/q; ||U_1||^2 is the same with ratio = 1 at y = 0.  Summed on
    log_rule, independent of the Gauss-Jacobi rules the program integrates
    on.  With slope, d/dx of the same instead.  A scan of the manifold fit:
    the best scale of u maximizes the square.
    """
    M = p.M
    z, w = _star_log_rule()
    L = lambda v: np.logaddexp(v, -v) - math.log(2.0)       # ln cosh
    wr = w * ratio(z) * np.exp(-(M - 4.0) / 2.0 * L(z))
    norm = float(w @ np.exp(-M * L(z)))
    out = []
    for x in np.atleast_1d(xs):
        zy = z + x / p.q
        f = np.exp(-(M + 4.0) / 2.0 * L(zy))
        if slope:
            f *= -(M + 4.0) / (2.0 * p.q) * np.tanh(zy)
        out.append(float(wr @ f) / norm)
    return np.array(out)


def remainder_ratio(p, t):
    """u/U_1 as a function of z = ln s, u = U_1 + t ||U_1|| w, w the unit mu_3 mode-0 eigenfunction.

    In the continuum problem psi_j / U_1 = p_j(tanh z) / C, the p_j from
    jacobi_rows, the mass matrix is a multiple of the identity, and
    ||psi_j||^2 / ||psi_0||^2 = mu_{j+1}, so ||U_1|| w / U_1 = p_2 / (p_0
    sqrt(mu_3)) with mu_3 = (M+4)(M+6)/((M-4)(M-2)), the Paneitz value.
    Returns (ratio, norm_sq): norm_sq = ||u||^2/||U_1||^2 = 1 + 2 t <U_1, w>
    /||U_1|| + t^2 ||w||^2, with <U_1, w> and ||w||^2 = mu_3 int U_1^{p*-2}
    w^2 in star form on log_rule.
    """
    M = p.M
    mu3 = (M + 4.0) * (M + 6.0) / ((M - 4.0) * (M - 2.0))

    def v(z):
        P = jacobi_rows(SimpleNamespace(delta=(M - 2.0) / 2.0, m=3), np.tanh(z))
        return P[2] / (P[0] * math.sqrt(mu3))

    z, w = _star_log_rule()
    star = w * np.exp(-M * (np.logaddexp(z, -z) - math.log(2.0)))
    vz = v(z)
    mean, mean_sq = float(star @ vz) / star.sum(), float(star @ vz ** 2) / star.sum()
    return (lambda zz: 1.0 + t * v(zz)), 1.0 + 2.0 * t * mean + t * t * mu3 * mean_sq


def omega_hat(res):
    """A CorrectionResult's correction in the transported frame, as a function of s."""
    pp = res.problem
    return ModeFunction(pp.problem.basis, trial_coeffs(pp, res.coeffs))


def solution_radial(res):
    """U_lam + P_lam(w) of a CorrectionResult on the weighted side, as one function.

    The bubble is c0 psi_0 = (c/p0) psi_0 in the transported frame
    (bubble_c), so it is added to the correction's coefficients (omega_hat),
    and the sum is pulled back to scale lam: lam^{(N-4+alpha)/2} X((lam
    r)^{1/q}).
    """
    pp = res.problem
    p = pp.params
    basis = pp.problem.basis
    coeffs = trial_coeffs(pp, res.coeffs)
    coeffs[0] += bubble_c(pp) / basis.family.p0
    pre = res.lam ** ((p.N - 4.0 + p.alpha) / 2.0)
    return ComposedRadial(ModeFunction(basis, coeffs), 1.0 / p.q, scale=res.lam, amp=pre)


def random_trial_profiles(n, seed=0, max_degree=3):
    """Seeded family of smooth rapidly decaying trials (even polynomials x Gaussians)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        deg = int(rng.integers(0, max_degree + 1))
        coeffs = np.zeros(2 * deg + 1)
        coeffs[::2] = rng.uniform(-1.0, 1.0, size=deg + 1)
        if abs(coeffs[0]) < 0.1:
            coeffs[0] = 0.5 * np.sign(coeffs[0] or 1.0)
        b = rng.uniform(0.3, 3.0)
        out.append(PolyGaussProfile(coeffs, b))
    return out


def alignment(res, i, exact_fn):
    """|cos| of the angle between eigenvector i of a SpectrumResult and a closed form.

    In the pencil's weighted mass product on its Gauss-Jacobi rule, assembled
    in log space; nodes where a factor underflowed to zero contribute nothing.
    """
    pr = res.problem
    rule = rule_in_s(pr.grid, pr.basis.delta)
    s = rule.s
    log_w = rule.log_w + (pr.params.M - 1.0) * rule.u + log_potential(pr.params, s)
    fnum = ModeFunction(pr.basis, res.coefficients[:, i]).eval(s)
    fex = np.asarray(exact_fn(s), dtype=float)

    def wsum(f, g):
        m = (f != 0.0) & (g != 0.0) & np.isfinite(f) & np.isfinite(g)
        vals = (np.sign(f[m]) * np.sign(g[m])
                * np.exp(log_w[m] + np.log(np.abs(f[m])) + np.log(np.abs(g[m]))))
        return float(vals.sum())

    return abs(wsum(fnum, fex)) / math.sqrt(wsum(fnum, fnum) * wsum(fex, fex))


def _diff_1d(G, h, axis):
    """Fourth-order central first/second differences along one padded axis.

    G carries two ghost layers on the low side of `axis`; the two far rows
    are consumed by the stencil, so output length is len-4 along that axis.
    """
    def sl(k):
        idx = [slice(None), slice(None)]
        idx[axis] = slice(k, G.shape[axis] - 4 + k)
        return G[tuple(idx)]

    f_2, f_1, f0, f1, f2 = (sl(k) for k in range(5))
    d1 = (f_2 - 8.0 * f_1 + 8.0 * f1 - f2) / (12.0 * h)
    d2 = (-f_2 + 16.0 * f_1 - 30.0 * f0 + 16.0 * f1 - f2) / (12.0 * h * h)
    return d1, d2


def biradial_lap_two_stage(F, t, h, m):
    """Two-block radial Laplacian, first and second differences taken apart.

    Each axis's fourth-order d1 and d2 are separate shifted-slice sums over
    the padded field, and d2 + (m/t) d1 is formed afterwards.  Even
    reflection across each axis gives the ghosts; result shape (n-2, n-2).
    """
    n = F.shape[0]
    G = np.pad(F, ((2, 0), (2, 0)), mode="symmetric")
    d1a, d2a = _diff_1d(G, h, 0)    # (n-2, n+2)
    d1b, d2b = _diff_1d(G, h, 1)    # (n+2, n-2)
    nt = n - 2
    inv_t = m / t[:nt]
    return (d2a[:, 2:2 + nt] + d1a[:, 2:2 + nt] * inv_t[:, None]
            + d2b[2:2 + nt, :] + d1b[2:2 + nt, :] * inv_t[None, :])


def biradial_fd_residual(profile, n, box=6.0, exclude=0.5):
    """Difference oracle of the two-block equation Delta(|x|^-2 Delta v) = |x|^2 v^{p*-1}.

    Samples v on the offset n x n grid t_i = (i + 1/2) h, h = box/n, applies
    biradial_lap_two_stage, divides by |x|^2 and applies it again.  Returns
    the sup of the residual over the sup of the source, both outside the ball
    |x| < exclude, where the 1/|x|^2 between the stages amplifies truncation
    error without bound as h -> 0, with the fields: lap_w, the source rhs,
    the mask of nodes outside the ball and their t, each (n-4) a side.
    """
    m = profile.N / 2.0 - 1.0
    h = box / n
    t = (np.arange(n) + 0.5) * h
    V = profile.eval(t[:, None], t[None, :])
    W = biradial_lap_two_stage(V, t, h, m)
    W /= t[:n - 2, None] ** 2 + t[None, :n - 2] ** 2
    lap_w = biradial_lap_two_stage(W, t[:n - 2], h, m)
    t = t[:n - 4]
    R2 = t[:, None] ** 2 + t[None, :] ** 2
    rhs = R2 * V[:n - 4, :n - 4] ** (profile.pstar - 1.0)
    mask = R2 >= exclude ** 2
    rel_sup = np.abs(lap_w - rhs)[mask].max() / np.abs(rhs)[mask].max()
    return {"rel_sup": float(rel_sup), "lap_w": lap_w, "rhs": rhs, "mask": mask, "t": t}


def term_magnitude(form, r):
    """Sum of a PowerForm's absolute term values at r: the scale of a sampled relative residual."""
    terms = {k: abs(c) for k, c in form.terms.items()}
    return type(form)(form.gamma, form.w, form.e0, terms).eval(r)


def el_lhs_form(p, u):
    """Delta(r^alpha Delta u) as an exact form in r: r^alpha = r^(2 - gamma)."""
    inner = u.form.radial_laplacian(p.N).mul_rpow(a=-1, b=-2)
    return inner.radial_laplacian(p.N)


def el_residual_relative(p, u, r):
    """Sampled EL residual oracle: |Delta(|x|^a Delta u) - r^-a u_+^{p*-1}| at radii r > 0.

    Relative to the magnitude of the terms entering it; the left side is
    exact through u's r-space form.
    """
    r = np.asarray(r, dtype=float)
    rhs = r ** (-p.alpha) * np.maximum(u.eval(r), 0.0) ** (p.pstar - 1.0)
    lhs = el_lhs_form(p, u)
    return np.abs(lhs.eval(r) - rhs) / (term_magnitude(lhs, r) + np.abs(rhs))


def kernel_residual(p, profile, k, mu=None):
    """Sup over log-spaced radii of the relative mode-k ODE residual.

    The residual of L_k(r^alpha L_k u) = mu K r^{-alpha} (1+r^{2-a})^{-4} u is
    evaluated exactly through the term algebra; mu defaults to p*-1.
    """
    if mu is None:
        mu = p.pstar - 1.0
    lam_k, _ = mode_lambda(k, p.N)
    K = normalization_constant(p) ** (p.pstar - 2.0)
    form = profile.form

    def mode_laplacian(f):
        # f'' + (N-1) f'/r - lam_k f/r^2
        return f.radial_laplacian(p.N) + f.mul_rpow(b=2).scaled(-lam_k)

    lhs = mode_laplacian(mode_laplacian(form).mul_rpow(a=-1, b=-2))
    rhs = form.mul_wpow(-4).mul_rpow(a=1, b=2).scaled(mu * K)
    res = lhs - rhs
    r = np.logspace(-3, 3, 121)
    scale = term_magnitude(lhs, r) + np.abs(rhs.eval(r))
    return float(np.max(np.abs(res.eval(r)) / scale))


@pytest.fixture(scope="session")
def param_sets():
    return [validate_params(N, a) for N, a in PARAM_SETS]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def params_at_M(M, N=5):
    """Params of dimension N whose effective dimension is M, up to rounding: alpha = 2(M-N)/(M-2)."""
    return validate_params(N, 2.0 * (M - N) / (M - 2.0))


def random_valid_params(rng, n=20):
    out = []
    while len(out) < n:
        N = int(rng.integers(3, 13))
        lo, hi = 4 - N, 2
        a = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        out.append(validate_params(N, a))
    return out


@pytest.fixture(scope="session")
def spectrum_51():
    """Shared mode-0 eigen data at (5, 1)."""
    from ckn4.spectrum import mode_eigenvalues

    p = validate_params(5, 1.0)
    return p, mode_eigenvalues(p, 0, n_eigs=5, nodes=160)
