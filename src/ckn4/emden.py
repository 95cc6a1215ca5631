"""Change of variables r = s^q between the weighted and effective problems.

With q = 2/(2-alpha) and M = 2(N-alpha)/(2-alpha), a radial function u of
r corresponds to v(s) = u(s^q) and the weighted Hessian seminorm becomes
q^{-3} times the unweighted one in effective dimension M; the critical
integrals match with a single factor q from the substitution.  A form
maps onto a form of its family exactly (the extremal onto the bubble,
e^{-r^2} onto e^{-s^{2q}}), so each side of an identity is its own exact sum.
"""

from __future__ import annotations

from .calculus import hessian_integral, in_float_range, star_integral
from .forms import PowerForm
from .params import Params, normalization_constant
from .profiles import FormProfile, ProfileKind, RadialProfile

__all__ = [
    "to_sobolev",
    "sobolev_bubble",
    "norm_identity_check",
    "star_identity_check",
]


def sobolev_bubble(p: Params, lam: float = 1.0, amplitude: float | None = None) -> RadialProfile:
    """Effective-side image of the extremal: C nu^{(M-4)/2} (1 + nu^2 s^2)^{-(M-4)/2}.

    The scale transforms as nu = lam^{1/q}.
    """
    A = normalization_constant(p) if amplitude is None else float(amplitude)
    nu = lam ** (1.0 / p.q)
    coef = A * nu ** (p.M_minus_4 / 2.0)
    form = PowerForm.single(2.0, nu * nu, -p.M_minus_4 / 2.0, coef=coef)
    return RadialProfile(params=p, kind=ProfileKind.CUSTOM, lam=lam, amplitude=A, form=form)


def to_sobolev(p: Params, u):
    """v(s) = u(s^q), u's form in s.  Extremal profiles map onto the closed bubble family."""
    if isinstance(u, RadialProfile) and u.kind in (ProfileKind.EXTREMAL_U, ProfileKind.EXTREMAL_V):
        return sobolev_bubble(p, u.lam, amplitude=u.amplitude)
    return FormProfile(u.form.substitute(p.q))


def _relative_gap(p: Params, name: str, lhs: float, rhs: float) -> float:
    """|lhs - rhs| / max(lhs, rhs) of two integrals of positive integrands."""
    for side in (lhs, rhs):
        in_float_range(p, name, side)
    return abs(lhs - rhs) / max(lhs, rhs)


def norm_identity_check(p: Params, u) -> tuple[float, float, float]:
    """Both sides of the Hessian-seminorm identity, and their relative gap.

    lhs = int r^alpha (u'' + (N-1)u'/r)^2 r^{N-1} dr
    rhs = q^{-3} int (v'' + (M-1)v'/s)^2 s^{M-1} ds,  v(s) = u(s^q).
    """
    lhs = hessian_integral(p, p.N, p.alpha, u)
    rhs = hessian_integral(p, p.M, 0.0, to_sobolev(p, u)) / p.q ** 3
    return lhs, rhs, _relative_gap(p, "norm identity", lhs, rhs)


def star_identity_check(p: Params, u) -> tuple[float, float, float]:
    """Both sides of the critical-integral identity, and their relative gap.

    lhs = int r^{-alpha} |u|^{p*} r^{N-1} dr
    rhs = q * int |v|^{2M/(M-4)} s^{M-1} ds,  v(s) = u(s^q).
    """
    lhs = star_integral(p, p.N, -p.alpha, u)
    rhs = p.q * star_integral(p, p.M, 0.0, to_sobolev(p, u))
    return lhs, rhs, _relative_gap(p, "star identity", lhs, rhs)
