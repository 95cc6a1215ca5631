"""Closed-form radial families and pointwise equation residuals.

The extremal profile, the radial kernel elements of the linearized
operator, and the dilation tangent are all of power-law type and carry
exact derivatives through the term algebra in ``forms``.  A polynomial
times Gaussian family provides smooth off-manifold trial functions, and
the two-block profile at alpha = -2 covers the nonradial branch.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooSmall,
    NonpositiveRadius,
    NonpositiveScale,
    OddDimension,
    QuadratureFailure,
)
from .forms import PowerForm
from .params import Params, normalization_constant, require_even_case, validate_params

__all__ = [
    "ProfileKind",
    "RadialProfile",
    "extremal_U",
    "kernel_Z0",
    "kernel_Zk_radial",
    "dilation_tangent",
    "el_residual",
    "el_residual_relative",
    "PolyGaussProfile",
    "random_trial_profiles",
    "BiradialProfile",
    "nonradial_branch",
    "biradial_residual",
    "profile_to_json",
    "profile_from_json",
]


class ProfileKind(str, enum.Enum):
    EXTREMAL_U = "ExtremalU"
    EXTREMAL_V = "ExtremalV"
    KERNEL_Z0 = "KernelZ0"
    KERNEL_ZK = "KernelZkRadial"
    DILATION_TANGENT = "DilationTangent"
    CUSTOM = "Custom"


@dataclass
class RadialProfile:
    """Radial function with exact derivatives up to (at least) order 4."""

    params: Params
    kind: ProfileKind
    lam: float
    amplitude: float
    form: PowerForm
    k: int | None = None

    def __post_init__(self):
        self._derivs = [self.form]

    def _form_deriv(self, order: int) -> PowerForm:
        while len(self._derivs) <= order:
            self._derivs.append(self._derivs[-1].deriv())
        return self._derivs[order]

    def eval(self, r):
        return self.form.eval(r)

    def __call__(self, r):
        return self.form.eval(r)

    def deriv(self, r, order: int = 1):
        return self._form_deriv(order).eval(r)


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


def _generic_lhs(p: Params, u, r):
    """Delta(r^alpha Delta u) for any profile with four derivatives."""
    r = np.asarray(r, dtype=float)
    a = p.alpha
    N = p.N
    u1, u2, u3, u4 = (u.deriv(r, k) for k in (1, 2, 3, 4))
    D1 = u2 + (N - 1) * u1 / r
    D1p = u3 + (N - 1) * u2 / r - (N - 1) * u1 / r ** 2
    D1pp = u4 + (N - 1) * u3 / r - 2 * (N - 1) * u2 / r ** 2 + 2 * (N - 1) * u1 / r ** 3
    return r ** a * (D1pp + (N - 1 + 2 * a) * D1p / r + a * (a + N - 2) * D1 / r ** 2)


def el_residual(p: Params, u, r):
    """Pointwise residual Delta(|x|^a Delta u) - r^{-a} u_+^{p*-1} at radius r."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise NonpositiveRadius("residual defined for r > 0")
    if isinstance(u, RadialProfile):
        lhs = _lhs_form(p, u).eval(r)
    else:
        lhs = _generic_lhs(p, u, r)
    rhs = r ** (-p.alpha) * np.maximum(u.eval(r), 0.0) ** (p.pstar - 1.0)
    return lhs - rhs


def el_residual_relative(p: Params, u, r):
    """Residual normalized by the magnitude of the terms entering it."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise NonpositiveRadius("residual defined for r > 0")
    rhs = r ** (-p.alpha) * np.maximum(u.eval(r), 0.0) ** (p.pstar - 1.0)
    if isinstance(u, RadialProfile):
        lhs_form = _lhs_form(p, u)
        lhs = lhs_form.eval(r)
        scale = lhs_form.term_magnitude(r) + np.abs(rhs)
    else:
        lhs = _generic_lhs(p, u, r)
        scale = np.abs(lhs) + np.abs(rhs)
    if not np.all(scale > 0.0):
        raise QuadratureFailure(
            f"EL residual at N={p.N}, alpha={p.alpha}: both sides are 0 at "
            f"r = {float(r[~(scale > 0.0)].flat[0])!r} (they underflow, or u vanishes), "
            f"so no relative residual exists")
    return np.abs(lhs - rhs) / scale


# -- smooth trial profiles ---------------------------------------------------


class PolyGaussProfile:
    """q(r) exp(-b r^2) with polynomial q; exact derivatives to any order."""

    def __init__(self, coeffs, b: float):
        self.poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
        self.b = float(b)
        self._dpolys = [self.poly]

    def _dpoly(self, order: int):
        # d/dr [q e^{-b r^2}] = (q' - 2 b r q) e^{-b r^2}
        while len(self._dpolys) <= order:
            q = self._dpolys[-1]
            shifted = np.polynomial.Polynomial([0.0, -2.0 * self.b]) * q
            self._dpolys.append(q.deriv() + shifted)
        return self._dpolys[order]

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        return self.poly(r) * np.exp(-self.b * r * r)

    def __call__(self, r):
        return self.eval(r)

    def deriv(self, r, order: int = 1):
        r = np.asarray(r, dtype=float)
        return self._dpoly(order)(r) * np.exp(-self.b * r * r)


def random_trial_profiles(n: int, seed: int = 0, max_degree: int = 3) -> list[PolyGaussProfile]:
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


def _diff_1d(G: np.ndarray, h: float, axis: int) -> tuple[np.ndarray, np.ndarray]:
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


def _biradial_lap(F: np.ndarray, t: np.ndarray, h: float, m: float) -> np.ndarray:
    """Two-block radial Laplacian by fourth-order central differences.

    F holds samples at the offset nodes (t_i, t_j); even reflection across
    each axis supplies the ghost values at -h/2 and -3h/2, so stencils stay
    central everywhere.  The two far rows/columns, where right neighbors run
    out, are dropped: the result has shape (n-2, n-2).
    """
    n = F.shape[0]
    G = np.pad(F, ((2, 0), (2, 0)), mode="symmetric")
    d1a, d2a = _diff_1d(G, h, 0)    # (n-2, n+2)
    d1b, d2b = _diff_1d(G, h, 1)    # (n+2, n-2)
    nt = n - 2
    inv_t = m / t[:nt]
    return (d2a[:, 2:2 + nt] + d1a[:, 2:2 + nt] * inv_t[:, None]
            + d2b[2:2 + nt, :] + d1b[2:2 + nt, :] * inv_t[None, :])


def biradial_residual(profile: BiradialProfile, n: int = 200, box: float = 6.0,
                      exclude: float = 0.5, return_fields: bool = False) -> dict:
    """Discrete residual of the two-block equation on an offset tensor grid.

    Returns the sup of Delta(|x|^{-2} Delta v) - |x|^2 v^{p*-1} relative to
    the sup of the source term, together with the step and the region
    measured.  A fixed ball around the origin is excluded: the 1/|x|^2
    factor between the two difference stages amplifies truncation error
    there without bound as h -> 0.
    """
    pstar = profile.pstar
    m = profile.N / 2.0 - 1.0
    h = box / n
    t = (np.arange(n) + 0.5) * h
    V = profile.eval(t[:, None], t[None, :])

    lap_v = _biradial_lap(V, t, h, m)               # (n-2, n-2)
    n1 = n - 2
    R2 = t[:n1, None] ** 2 + t[None, :n1] ** 2
    W = lap_v / R2
    lap_w = _biradial_lap(W, t[:n1], h, m)          # (n-4, n-4)

    n2 = n - 4
    R2i = t[:n2, None] ** 2 + t[None, :n2] ** 2
    rhs = R2i * profile.eval(t[:n2, None], t[None, :n2]) ** (pstar - 1.0)
    res = lap_w - rhs

    mask = R2i >= exclude ** 2
    sup_rhs = float(np.abs(rhs[mask]).max())
    sup_res = float(np.abs(res[mask]).max())
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
        out["fields"] = {"lap_w": lap_w, "rhs": rhs, "mask": mask, "t": t[:n2]}
    return out


# -- serialization -------------------------------------------------------------


def profile_to_json(u: RadialProfile) -> str:
    payload = {
        "kind": u.kind.value,
        "N": u.params.N,
        "alpha": u.params.alpha,
        "lam": u.lam,
        "amplitude": u.amplitude,
    }
    if u.k is not None:
        payload["k"] = u.k
    return json.dumps(payload, sort_keys=True)


def profile_from_json(text: str) -> RadialProfile:
    payload = json.loads(text)
    p = validate_params(payload["N"], payload["alpha"])
    kind = ProfileKind(payload["kind"])
    if kind is ProfileKind.EXTREMAL_U:
        return extremal_U(p, payload["lam"])
    if kind is ProfileKind.EXTREMAL_V:
        return extremal_U(p, payload["lam"], amplitude=payload["amplitude"])
    if kind is ProfileKind.KERNEL_Z0:
        return kernel_Z0(p)
    if kind is ProfileKind.KERNEL_ZK:
        return kernel_Zk_radial(p, payload["k"])
    if kind is ProfileKind.DILATION_TANGENT:
        return dilation_tangent(p, payload["lam"])
    raise ValueError(f"cannot reconstruct profile of kind {kind}")
