"""Closed-form radial families and pointwise equation residuals.

The extremal profile, the radial kernel elements of the linearized
operator, and the dilation tangent are of power-law type, and a polynomial
times Gaussian family provides smooth off-manifold trial functions; each
carries a form of ``forms``, and with it exact derivatives and integrals.
The two-block profile at alpha = -2 covers the nonradial branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d

from .errors import (
    DimensionTooSmall,
    NonpositiveRadius,
    NonpositiveScale,
    OddDimension,
    QuadratureFailure,
    ZeroFunction,
)
from .forms import ExpForm, PowerForm
from .params import Params, normalization_constant, require_even_case, validate_params

__all__ = [
    "ProfileKind",
    "FormProfile",
    "RadialProfile",
    "extremal_U",
    "kernel_Z0",
    "kernel_Zk_radial",
    "dilation_tangent",
    "el_residual_relative",
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


# -- Euler-Lagrange residual ------------------------------------------------


def _lhs_form(p: Params, u: RadialProfile) -> PowerForm:
    """Delta(r^alpha Delta u) as an exact form: r^alpha = r^(2 - gamma)."""
    inner = u.form.radial_laplacian(p.N).mul_rpow(a=-1, b=-2)
    return inner.radial_laplacian(p.N)


def el_residual_relative(p: Params, u: RadialProfile, r):
    """Residual Delta(|x|^a Delta u) - r^{-a} u_+^{p*-1} at the radii r, relative.

    Normalized by the magnitude of the terms entering it; the left side is
    exact through u's form.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise NonpositiveRadius("residual defined for r > 0")
    if not any(u.form.terms.values()):
        raise ZeroFunction(f"EL residual at N={p.N}, alpha={p.alpha}: the profile is "
                           f"identically 0, so no relative residual exists")
    rhs = r ** (-p.alpha) * np.maximum(u.eval(r), 0.0) ** (p.pstar - 1.0)
    lhs_form = _lhs_form(p, u)
    lhs = lhs_form.eval(r)
    scale = lhs_form.term_magnitude(r) + np.abs(rhs)
    if not np.all(scale > 0.0):
        raise QuadratureFailure(
            f"EL residual at N={p.N}, alpha={p.alpha}: both sides are 0 at "
            f"r = {float(r[~(scale > 0.0)].flat[0])!r} (they underflow, or u vanishes), "
            f"so no relative residual exists")
    return np.abs(lhs - rhs) / scale


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


def _two_block_T(f: PowerForm, m: float) -> PowerForm:
    """T[F] = 8(m+2) F' + 16 rho F'': the two-block Laplacian of F(rho), over |x|^2."""
    d1 = f.deriv()
    return d1.scaled(8.0 * (m + 2.0)) + d1.deriv().mul_rpow(a=1).scaled(16.0)


def biradial_residual(profile: BiradialProfile) -> dict:
    """Exact residual of Delta(|x|^-2 Delta v) = |x|^2 v^{p*-1}, and its two chain-rule identities.

    In u = t1^2, w = t2^2 the two-block Laplacian is L = 4u d_u^2 + 2(m+1) d_u
    plus the same in w, m = N/2 - 1, and rho satisfies L rho = 8(m+2) S and
    4u rho_u^2 + 4w rho_w^2 = 16 S rho with S = u + w = |x|^2.  So L F(rho) =
    S T[F](rho) for every F, and the equation is T[T[v]](rho) = v(rho)^{p*-1},
    S cancelled, with its left side exact through v's form.  On rho(t1, t2),
    t1 and t2 each over t = 10^-3 ... 10^3 (61 points), it returns the sup of
    the residual relative as in el_residual_relative, and the sup of each
    identity's defect relative to the sum of its terms' magnitudes, the
    polynomials summed from rho's coefficient array.
    """
    m = profile.N / 2.0 - 1.0
    t = np.logspace(-3.0, 3.0, 61)
    u, w = np.meshgrid(t * t, t * t, indexing="ij")
    S = u + w
    c = profile.rho

    def value_and_magnitude(coeffs):
        return polyval2d(u, w, coeffs), polyval2d(u, w, np.abs(coeffs))

    v = profile.form
    lhs_form = _two_block_T(_two_block_T(v, m), m)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rho, rho_mag = value_and_magnitude(c)
        rhs = np.maximum(v.eval(rho), 0.0) ** (profile.pstar - 1.0)
        scale = lhs_form.term_magnitude(rho) + rhs
    if not (np.all(np.isfinite(rho_mag)) and np.all(rhs >= np.finfo(float).tiny)
            and np.all(np.isfinite(scale))):
        raise QuadratureFailure(
            f"two-block residual at N={profile.N}, a={profile.a!r}: rho or the source "
            f"v^(p*-1) leaves the normal float range on t in [1e-3, 1e3], so no "
            f"relative residual exists")
    residual = np.abs(lhs_form.eval(rho) - rhs) / scale

    (ru, ru_mag), (rw, rw_mag) = (value_and_magnitude(polyder(c, 1, axis=k)) for k in (0, 1))
    (ruu, ruu_mag), (rww, rww_mag) = (value_and_magnitude(polyder(c, 2, axis=k)) for k in (0, 1))
    k1, k2 = 2.0 * (m + 1.0), 8.0 * (m + 2.0)
    laplacian = (np.abs(4.0 * u * ruu + k1 * ru + 4.0 * w * rww + k1 * rw - k2 * S)
                 / (4.0 * u * ruu_mag + k1 * ru_mag + 4.0 * w * rww_mag + k1 * rw_mag + k2 * S))
    gradient = (np.abs(4.0 * u * ru * ru + 4.0 * w * rw * rw - 16.0 * S * rho)
                / (4.0 * u * ru_mag ** 2 + 4.0 * w * rw_mag ** 2 + 16.0 * S * rho_mag))
    return {
        "rel_sup": float(residual.max()),
        "laplacian_identity": float(laplacian.max()),
        "gradient_identity": float(gradient.max()),
        "t_range": [float(t[0]), float(t[-1])],
        "n": t.size,
    }


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
