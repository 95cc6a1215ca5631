"""Change of variables r = s^q between the weighted and effective problems.

With q = 2/(2-alpha) and M = 2(N-alpha)/(2-alpha), a radial function u of
r corresponds to v(s) = u(s^q) and the weighted Hessian seminorm becomes
q^{-3} times the unweighted one in effective dimension M; the critical
integrals match with a single factor q from the substitution.  Library
profiles map onto the closed bubble family exactly; generic functions are
composed with chain-rule derivatives.
"""

from __future__ import annotations

import numpy as np

from .calculus import RadialGrid, default_grid, hessian_integral, in_float_range, star_integral
from .forms import PowerForm
from .params import Params, normalization_constant
from .profiles import ProfileKind, RadialProfile

__all__ = [
    "to_sobolev",
    "from_sobolev",
    "sobolev_bubble",
    "norm_identity_check",
    "star_identity_check",
    "induced_sobolev_grid",
]


class ComposedRadial:
    """amp * u((scale * s)^power) (power > 0) with chain-rule derivatives up to order 2."""

    def __init__(self, u, power: float, scale: float = 1.0, amp: float = 1.0):
        self.u = u
        self.power = float(power)
        self.scale = float(scale)
        self.amp = float(amp)

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        return self.amp * self.u.eval((self.scale * s) ** self.power)

    def deriv(self, s, order: int = 1):
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


def sobolev_bubble(p: Params, lam: float = 1.0, amplitude: float | None = None) -> RadialProfile:
    """Effective-side image of the extremal: C nu^{(M-4)/2} (1 + nu^2 s^2)^{-(M-4)/2}.

    The scale transforms as nu = lam^{1/q}.
    """
    A = normalization_constant(p) if amplitude is None else float(amplitude)
    nu = lam ** (1.0 / p.q)
    coef = A * nu ** ((p.M - 4.0) / 2.0)
    form = PowerForm.single(2.0, nu * nu, -(p.M - 4.0) / 2.0, coef=coef)
    return RadialProfile(params=p, kind=ProfileKind.CUSTOM, lam=lam, amplitude=A, form=form)


def to_sobolev(p: Params, u):
    """v(s) = u(s^q).  Extremal profiles map onto the closed bubble family."""
    if isinstance(u, RadialProfile) and u.kind in (ProfileKind.EXTREMAL_U, ProfileKind.EXTREMAL_V):
        return sobolev_bubble(p, u.lam, amplitude=u.amplitude)
    return ComposedRadial(u, p.q)


def from_sobolev(p: Params, v):
    """u(r) = v(r^{1/q}), the inverse substitution."""
    return ComposedRadial(v, 1.0 / p.q)


def induced_sobolev_grid(p: Params, grid: RadialGrid) -> RadialGrid:
    """s-grid induced by s = r^{1/q} from a log-mapped r-grid."""
    q = p.q
    return RadialGrid(
        nodes=grid.nodes ** (1.0 / q),
        weights=grid.weights * grid.nodes ** (1.0 / q - 1.0) / q,
    )


def _relative_gap(p: Params, name: str, lhs: float, rhs: float) -> float:
    """|lhs - rhs| / max(lhs, rhs) of two integrals of positive integrands."""
    for side in (lhs, rhs):
        in_float_range(p, name, side)
    return abs(lhs - rhs) / max(lhs, rhs)


def norm_identity_check(p: Params, u) -> tuple[float, float, float]:
    """Both sides of the Hessian-seminorm identity on the default grid, and their relative gap.

    lhs = int r^alpha (u'' + (N-1)u'/r)^2 r^{N-1} dr
    rhs = q^{-3} int (v'' + (M-1)v'/s)^2 s^{M-1} ds,  v(s) = u(s^q).
    """
    grid = default_grid()
    lhs = hessian_integral(p, p.N, p.alpha, u, grid)
    v = to_sobolev(p, u)
    rhs = hessian_integral(p, p.M, 0.0, v, induced_sobolev_grid(p, grid)) / p.q ** 3
    return lhs, rhs, _relative_gap(p, "norm identity", lhs, rhs)


def star_identity_check(p: Params, u) -> tuple[float, float, float]:
    """Both sides of the critical-integral identity on the default grid, and their relative gap.

    lhs = int r^{-alpha} |u|^{p*} r^{N-1} dr
    rhs = q * int |v|^{2M/(M-4)} s^{M-1} ds,  v(s) = u(s^q).
    """
    grid = default_grid()
    lhs = star_integral(p, p.N, -p.alpha, u, grid)
    v = to_sobolev(p, u)
    rhs = p.q * star_integral(p, p.M, 0.0, v, induced_sobolev_grid(p, grid))
    return lhs, rhs, _relative_gap(p, "star identity", lhs, rhs)
