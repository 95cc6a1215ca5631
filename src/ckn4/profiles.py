"""Closed-form radial families and pointwise equation residuals.

The extremal profile, the radial kernel elements of the linearized
operator, and the dilation tangent are of power-law type, and a polynomial
times Gaussian family provides smooth off-manifold trial functions; each
carries a form of ``forms``, and with it exact derivatives and integrals.
The two-block profile at alpha = -2 covers the nonradial branch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """Two-block profile C (1 + |x|^4 - 2a(t1^2 - t2^2) + a^2)^{-(N-6)/4}."""

    N: int
    a: float
    amplitude: float
    pstar: float

    def eval(self, t1, t2):
        t1 = np.asarray(t1, dtype=float)
        t2 = np.asarray(t2, dtype=float)
        r2 = t1 * t1 + t2 * t2
        arg = 1.0 + r2 * r2 - 2.0 * self.a * (t1 * t1 - t2 * t2) + self.a * self.a
        return self.amplitude * arg ** (-(self.N - 6.0) / 4.0)


def nonradial_branch(N: int, a: float) -> BiradialProfile:
    """Member of the branch of solutions bifurcating from the radial one at alpha = -2."""
    if N % 2 != 0:
        raise OddDimension(f"need even N, got {N}")
    if N < 8:
        raise DimensionTooSmall(f"need N >= 8, got {N}")
    p = validate_params(N, -2)
    return BiradialProfile(N=N, a=float(a), amplitude=normalization_constant(p), pstar=p.pstar)


# fourth-order central weights of f(t + (k-2)h), k = 0..4: 12h f' and 12h^2 f''
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])


def _row_pass(G: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum_k C[i, k] G[i + k, j + 2]: row i's five-tap stencil, for i, j < len(C).

    G carries two ghost rows and columns on its low sides.
    """
    nt = C.shape[0]
    return np.einsum("ijk,ik->ij", sliding_window_view(G[:, 2:2 + nt], 5, axis=0), C)


def _biradial_lap(F: np.ndarray, t: np.ndarray, h: float, m: float) -> np.ndarray:
    """Two-block radial Laplacian by fourth-order central differences.

    F holds samples at the offset nodes (t_i, t_j); even reflection across
    each axis supplies the ghost values at -h/2 and -3h/2, so stencils stay
    central everywhere.  Along each axis, d^2/dt^2 + (m/t) d/dt is one
    five-tap stencil whose weights C[i, k] = D2_k/(12h^2) + (m/t_i) D1_k/(12h)
    depend on the row; it is applied over sliding windows, to the columns
    through a transposed copy.  The two far rows/columns, where right
    neighbors run out, are dropped: the result has shape (n-2, n-2).
    """
    nt = F.shape[0] - 2
    C = _D2 / (12.0 * h * h) + (m / t[:nt, None]) * (_D1 / (12.0 * h))
    G = np.pad(F, ((2, 0), (2, 0)), mode="symmetric")
    out = _row_pass(G, C)
    out += _row_pass(np.ascontiguousarray(G.T), C).T
    return out


def _sup_outside(F: np.ndarray, k0: int, corner: np.ndarray) -> float:
    """max |F| outside the excluded ball, which lies in the k0 x k0 corner block."""
    parts = [part for part in (F[k0:], F[:k0, k0:], F[:k0, :k0][corner]) if part.size]
    # max |F| is |max F| or |min F|; np.max keeps a NaN
    return float(np.max([abs(e) for part in parts for e in (part.max(), part.min())]))


# the grid covers [0, BIRADIAL_BOX]^2 in (t1, t2); the sups leave out the
# ball |x| < BIRADIAL_EXCLUDE
BIRADIAL_BOX = 6.0
BIRADIAL_EXCLUDE = 0.5


def biradial_residual(profile: BiradialProfile, n: int, return_fields: bool = False) -> dict:
    """Discrete residual of the two-block equation on an offset n x n tensor grid.

    Returns the sup of Delta(|x|^{-2} Delta v) - |x|^2 v^{p*-1} relative to
    the sup of the source term, together with the step and the region
    measured.  A fixed ball around the origin is excluded: the 1/|x|^2
    factor between the two difference stages amplifies truncation error
    there without bound as h -> 0.
    """
    pstar = profile.pstar
    m = profile.N / 2.0 - 1.0
    box, exclude = BIRADIAL_BOX, BIRADIAL_EXCLUDE
    h = box / n
    t = (np.arange(n) + 0.5) * h
    V = profile.eval(t[:, None], t[None, :])

    n1 = n - 2
    W = _biradial_lap(V, t, h, m)                   # (n-2, n-2)
    W /= t[:n1, None] ** 2 + t[None, :n1] ** 2
    lap_w = _biradial_lap(W, t[:n1], h, m)          # (n-4, n-4)

    n2 = n - 4
    R2i = t[:n2, None] ** 2 + t[None, :n2] ** 2
    rhs = R2i * V[:n2, :n2] ** (pstar - 1.0)
    res = lap_w - rhs

    # nodes with t_i >= exclude or t_j >= exclude lie outside the ball
    k0 = min(int(np.searchsorted(t, exclude)), n2)
    corner = R2i[:k0, :k0] >= exclude ** 2
    sup_rhs = _sup_outside(rhs, k0, corner)
    sup_res = _sup_outside(res, k0, corner)
    if not (0.0 < sup_rhs < math.inf and math.isfinite(sup_res)):
        raise QuadratureFailure(
            f"two-block residual at N={profile.N}, a={profile.a!r}, n={n}: the sup of "
            f"the source is {sup_rhs!r} and of the residual {sup_res!r}; the profile "
            f"leaves the float range, so no relative residual exists")
    out = {
        "rel_sup": sup_res / sup_rhs,
        "sup_residual": sup_res,
        "sup_source": sup_rhs,
        "h": h,
        "n": n,
        "box": box,
        "exclude": exclude,
    }
    if return_fields:
        out["fields"] = {"lap_w": lap_w, "rhs": rhs, "mask": R2i >= exclude ** 2, "t": t[:n2]}
    return out


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
