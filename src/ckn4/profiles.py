"""Closed-form radial families and their equations, checked exactly.

The extremal profile, the radial kernel elements of the linearized
operator, and the dilation tangent are of power-law type, and a polynomial
times Gaussian family provides smooth off-manifold trial functions; each
carries a form of ``forms``, and with it exact derivatives and integrals.
The two-block profile at alpha = -2 covers the nonradial branch.  Both
equations reduce to one identity in one variable, compared power by power.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmall,
    NonpositiveScale,
    OddDimension,
    QuadratureFailure,
    ZeroFunction,
)
from .forms import LOG_NORMAL, ExpForm, PowerForm
from .params import (Params, normalization_constant, require_even_case, source_constant,
                     validate_params)

__all__ = [
    "ProfileKind",
    "FormProfile",
    "RadialProfile",
    "extremal_U",
    "kernel_Z0",
    "kernel_Zk_radial",
    "dilation_tangent",
    "el_residual_sup",
    "PolyGaussProfile",
    "BiradialProfile",
    "nonradial_branch",
    "biradial_residual",
    "profile_to_json",
]


class ProfileKind(str, enum.Enum):
    EXTREMAL_U = "ExtremalU"
    EXTREMAL_V = "ExtremalV"
    KERNEL_Z0 = "KernelZ0"
    KERNEL_ZK = "KernelZkRadial"
    DILATION_TANGENT = "DilationTangent"
    CUSTOM = "Custom"


class FormProfile:
    """Radial function given by a form (PowerForm or ExpForm), with exact derivatives."""

    def __init__(self, form):
        self.form = form

    def _form_deriv(self, order: int):
        derivs = self.__dict__.setdefault("_derivs", [self.form])
        while len(derivs) <= order:
            derivs.append(derivs[-1].deriv())
        return derivs[order]

    def eval(self, r):
        return self.form.eval(r)

    def deriv(self, r, order: int = 1):
        return self._form_deriv(order).eval(r)


@dataclass
class RadialProfile(FormProfile):
    """A library profile: its form, with what it is and the scale and amplitude it has."""

    params: Params
    kind: ProfileKind
    lam: float
    amplitude: float
    form: PowerForm
    k: int | None = None


def extremal_U(p: Params, lam: float = 1.0, amplitude: float | None = None) -> RadialProfile:
    """Extremal profile A lam^{(N-4+a)/2} (1 + lam^{2-a} r^{2-a})^{-(N-4+a)/(2-a)}.

    With the default amplitude (the normalization constant) this is the
    positive radial solution of the fourth-order equation.
    """
    if lam <= 0:
        raise NonpositiveScale(f"need lam > 0, got {lam}")
    g = p.gamma_exp
    beta = p.decay_exp / g
    kind = ProfileKind.EXTREMAL_U if amplitude is None else ProfileKind.EXTREMAL_V
    A = normalization_constant(p) if amplitude is None else float(amplitude)
    coef = A * lam ** (p.decay_exp / 2.0)
    form = PowerForm.single(g, lam ** g, -beta, coef=coef)
    return RadialProfile(params=p, kind=kind, lam=lam, amplitude=A, form=form)


def kernel_Z0(p: Params) -> RadialProfile:
    """Radial kernel element (1 - r^{2-a}) (1 + r^{2-a})^{-(N-2)/(2-a)}."""
    g = p.gamma_exp
    e0 = -(p.N - 2.0) / g
    form = PowerForm(g, 1.0, e0, {(0, 0, 0): 1.0, (1, 0, 0): -1.0})
    return RadialProfile(params=p, kind=ProfileKind.KERNEL_Z0, lam=1.0, amplitude=1.0, form=form)


def kernel_Zk_radial(p: Params, k: int) -> RadialProfile:
    """Radial factor r^k (1 + r^{2-a})^{-(N-2)/(2-a)} of the mode-k kernel.

    Only defined in the even case alpha = -2(k-1); the exponent is the one
    the substitution s = r^{1/q} produces, (N-2)/(2-a) = (M-2)/2 in the
    effective dimension.
    """
    require_even_case(p, k)
    g = p.gamma_exp
    e0 = -(p.N - 2.0) / g
    form = PowerForm(g, 1.0, e0, {(0, -k, 0): 1.0})
    return RadialProfile(params=p, kind=ProfileKind.KERNEL_ZK, lam=1.0, amplitude=1.0, form=form, k=k)


def dilation_tangent(p: Params, lam: float = 1.0) -> RadialProfile:
    """d/dlam of the extremal family at scale lam, in closed form.

    Equals C (N-4+a)/2 * lam^{(N-4+a)/2 - 1} (1 - t)(1 + t)^{-(N-2)/(2-a)}
    with t = lam^{2-a} r^{2-a}.
    """
    if lam <= 0:
        raise NonpositiveScale(f"need lam > 0, got {lam}")
    g = p.gamma_exp
    C = normalization_constant(p)
    s = p.decay_exp / 2.0
    coef = C * s * lam ** (s - 1.0)
    e0 = -(p.decay_exp / g + 1.0)
    # (1 - lam^g r^g): the algebra keys carry plain powers of r, so the
    # lam^g factor of the second term lives in its coefficient
    form = PowerForm(g, lam ** g, e0, {(0, 0, 0): coef, (1, 0, 0): -coef * lam ** g})
    return RadialProfile(params=p, kind=ProfileKind.DILATION_TANGENT, lam=lam, amplitude=C, form=form)


# -- the equation in one variable ---------------------------------------------


def _radial_T(f: PowerForm, g: float, N: float) -> PowerForm:
    """T_g[F] = g^2 X F'' + g(N-2+g) F' of a form F in X (gamma = 1).

    For radial f = F(r^g), Delta f = r^(g-2) T_g[F](r^g).  With g = 2 - alpha,
    r^alpha r^(g-2) = 1 and r^-alpha = r^(g-2), so Delta(|x|^alpha Delta u) =
    |x|^-alpha u^(p*-1) reads T_g[T_g[F]] = F^(p*-1) in X alone.
    """
    d1 = f.deriv()
    return d1.scaled(g * (N - 2.0 + g)) + d1.deriv().mul_rpow(a=1).scaled(g * g)


def _source(p: Params, ratio: float, lam: float = 1.0) -> float | None:
    """The source c^(p*-2) w^-2 = K ratio^(p*-2) lam^((p*-2)(N-4+a)/2 - 2g) in y = wX.

    F = c (1 + wX)^e0 with c = A lam^((N-4+a)/2), w = lam^g and ratio = A/C
    solves the equation when T_g[T_g[(1+y)^e0]] is it times (1+y)^(e0 (p*-1)).
    K = C^(p*-2) comes from params, never from the float C, whose rounding
    p*-2 would multiply; ratio and lam enter as logarithms, the factor capped
    where it would outweigh every left coefficient.  None where A < 0: u_+ = 0.
    """
    if ratio < 0.0:
        return None
    K = source_constant(p)
    log_factor = ((p.pstar - 2.0) * math.log(ratio)
                  + ((p.pstar - 2.0) * p.decay_exp / 2.0 - 2.0 * p.gamma_exp) * math.log(lam))
    return K * math.exp(min(log_factor, LOG_NORMAL - math.log(K)))


def _equation_defect(e0: float, g: float, N: float, pstar: float, source) -> float:
    """Exact relative defect of T_g[T_g[(1+y)^e0]] = source (1+y)^(e0 (p*-1)).

    Each left term c y^k (1+y)^(e0-m), k >= 0, expands by y = (1+y) - 1 into
    powers (1+y)^(e0+n), n whole.  The source's power lies e0 (p*-2) = -4
    from e0; it takes the whole n nearest that offset when within 16 eps
    |e0| p* of it (the offset's rounding), else a power of its own.  Returns
    max_n |lhs_n - rhs_n| / (sum of |contributions to n|): for every y > 0,
    so every r > 0, |lhs - rhs| is at most that times the sum of the
    contributions' magnitudes.  With source None the right side is 0.
    """
    lhs = _radial_T(_radial_T(PowerForm.single(1.0, 1.0, e0), g, N), g, N)
    value, size = {}, {}

    def put(n, c):
        value[n] = value.get(n, 0.0) + c
        size[n] = size.get(n, 0.0) + abs(c)

    for (a, b, m), c in lhs.terms.items():
        k = a - b
        for i in range(k + 1):
            put(i - m, c * math.comb(k, i) * (-1.0) ** (k - i))
    if source is not None:
        offset = e0 * (pstar - 1.0) - e0
        n = round(offset)
        near = abs(offset - n) <= 16.0 * np.finfo(float).eps * abs(e0) * pstar
        put(n if near else None, -source)
    return max((abs(value[n]) / size[n] for n in size if size[n] > 0.0), default=0.0)


def el_residual_sup(p: Params, u: RadialProfile) -> float:
    """Relative residual of Delta(|x|^a Delta u) = |x|^-a u_+^(p*-1), bounded over every r > 0.

    u is an extremal-family profile A lam^((N-4+a)/2) (1 + (lam r)^g)^e0; the
    equation is checked as one exact identity in y = (lam r)^g
    (_equation_defect), the amplitude and the scale taken as logarithms.
    """
    if not any(u.form.terms.values()):
        raise ZeroFunction(f"EL residual at N={p.N}, alpha={p.alpha}: the profile is "
                           f"identically 0, so no relative residual exists")
    source = _source(p, u.amplitude / normalization_constant(p), u.lam)
    return _equation_defect(u.form.e0, u.form.gamma, p.N, p.pstar, source)


# -- smooth trial profiles ---------------------------------------------------


class PolyGaussProfile(FormProfile):
    """q(r) exp(-b r^2), q's coefficients from the constant up.

    r^k is the key (k // 2, -(k % 2)): ExpForm.integral groups terms by b.
    """

    def __init__(self, coeffs, b: float):
        super().__init__(ExpForm(2.0, b, (((k // 2, -(k % 2)), float(c))
                                          for k, c in enumerate(coeffs))))


# -- nonradial branch at alpha = -2 -------------------------------------------


@dataclass
class BiradialProfile:
    """Two-block profile v = C (1 + rho)^beta, beta = -(N-6)/4, in closed form.

    With u = t1^2, w = t2^2 and z = t1 + i t2, rho = |z^2 - a|^2 = (u - w - a)^2
    + 4uw, so 1 + rho = 1 + |x|^4 - 2a(t1^2 - t2^2) + a^2.  ``rho`` holds its
    coefficients, rho[i, j] of u^i w^j, and ``form`` is C (1 + rho)^beta as a
    PowerForm in rho (gamma = 1, w = 1); eval and biradial_residual read both.
    """

    N: int
    a: float
    pstar: float
    rho: np.ndarray
    form: PowerForm

    def rho_at(self, t1, t2):
        from numpy.polynomial.polynomial import polyval2d

        u, w = np.broadcast_arrays(np.square(t1, dtype=float), np.square(t2, dtype=float))
        return polyval2d(u, w, self.rho)

    def eval(self, t1, t2):
        return self.form.eval(self.rho_at(t1, t2))


def nonradial_branch(N: int, a: float) -> BiradialProfile:
    """Member of the branch of solutions bifurcating from the radial one at alpha = -2."""
    if N % 2 != 0:
        raise OddDimension(f"need even N, got {N}")
    if N < 8:
        raise DimensionTooSmall(f"need N >= 8, got {N}")
    p = validate_params(N, -2)
    a = float(a)
    # (u - w - a)^2 + 4uw = u^2 + 2uw + w^2 - 2au + 2aw + a^2
    rho = np.array([[a * a, 2.0 * a, 1.0],
                    [-2.0 * a, 2.0, 0.0],
                    [1.0, 0.0, 0.0]])
    form = PowerForm.single(1.0, 1.0, -(N - 6.0) / 4.0, coef=normalization_constant(p))
    return BiradialProfile(N=N, a=a, pstar=p.pstar, rho=rho, form=form)


def _polymul2(*factors) -> np.ndarray:
    """Product of polynomials in (u, w), arrays [i, j] of u^i w^j, to degree 4 in each."""
    out = np.zeros((5, 5))
    out[0, 0] = 1.0
    for f in factors:
        prod = np.zeros((5, 5))
        for i, j in zip(*np.nonzero(f)):
            prod[i:, j:] += f[i, j] * out[:5 - i, :5 - j]
        out = prod
    return out


def _derivative(c: np.ndarray, axis: int) -> np.ndarray:
    """d/du (axis 0) or d/dw (axis 1) of an array [i, j] of u^i w^j, as polyder's products."""
    k = np.arange(1.0, c.shape[axis])
    return k[:, None] * c[1:] if axis == 0 else c[:, 1:] * k


def _finite(profile: BiradialProfile, name: str, coeffs: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(coeffs))
    if bad.size:
        raise QuadratureFailure(
            f"two-block residual at N={profile.N}, a={profile.a!r}: the coefficient of "
            f"u^{bad[0][0]} w^{bad[0][1]} in {name} is not finite")


def _identity_defect(profile: BiradialProfile, name: str, terms) -> float:
    """max over coefficients of |sum of the terms c f1 f2 ...| / sum of |contributions|."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = sum(c * _polymul2(*f) for c, *f in terms)
        size = sum(abs(c) * _polymul2(*map(np.abs, f)) for c, *f in terms)
    _finite(profile, name, size)
    nonzero = size > 0.0
    return float(np.max(np.abs(value[nonzero]) / size[nonzero], initial=0.0))


def biradial_residual(profile: BiradialProfile) -> dict:
    """Exact residual of Delta(|x|^-2 Delta v) = |x|^2 v^{p*-1}, and its two chain-rule identities.

    In u = t1^2, w = t2^2 the two-block Laplacian is L = 4u d_u^2 + N d_u plus
    the same in w, and rho satisfies L rho = 4(N+2) S and 4u rho_u^2 + 4w
    rho_w^2 = 16 S rho, S = u + w = |x|^2.  So L F(rho) = S T_4[F](rho) for
    every F, and the equation is T_4[T_4[v]](rho) = v(rho)^{p*-1}: the
    identity of el_residual_sup at alpha = -2, in X = rho.  The chain-rule
    identities are checked as polynomial identities in (u, w) on rho's
    coefficient array.  QuadratureFailure where a coefficient of rho or of an
    identity is not finite (|a| from about 2.4e153).
    """
    p = validate_params(profile.N, -2)
    c = profile.rho
    _finite(profile, "rho", c)
    form = profile.form
    (coef,) = form.terms.values()
    rel_sup = _equation_defect(form.e0, p.gamma_exp, p.N, profile.pstar,
                               _source(p, coef / normalization_constant(p)))
    u, w, S = np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
    ru, rw = (_derivative(c, k) for k in (0, 1))
    ruu, rww = _derivative(ru, 0), _derivative(rw, 1)
    laplacian = _identity_defect(profile, "the Laplacian identity", [
        (4.0, u, ruu), (p.N, ru), (4.0, w, rww), (p.N, rw), (-4.0 * (p.N + 2.0), S)])
    gradient = _identity_defect(profile, "the gradient identity", [
        (4.0, u, ru, ru), (4.0, w, rw, rw), (-16.0, S, c)])
    return {"rel_sup": rel_sup, "laplacian_identity": laplacian, "gradient_identity": gradient}


# -- serialization -------------------------------------------------------------


def profile_to_json(u: RadialProfile) -> dict:
    """The profile's kind, parameters, scale and amplitude as a JSON-ready dict."""
    payload = {
        "kind": u.kind.value,
        "N": u.params.N,
        "alpha": u.params.alpha,
        "lam": u.lam,
        "amplitude": u.amplitude,
    }
    if u.k is not None:
        payload["k"] = u.k
    return payload
