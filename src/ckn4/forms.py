"""Exact calculus on the closed-form radial family.

Every library profile (extremals, kernel elements, dilation tangents) and
everything radial differential operators produce from them is a finite sum

    sum_j  c_j * r^(a_j*g - b_j) * (1 + w r^g) ** (e0 - m_j)

with a fixed base (g, w, e0), integer triples (a_j, b_j, m_j) and float
coefficients c_j.  The family is closed under d/dr, under multiplication by
r^(a*g-b), and under products of forms sharing (g, w), so fourth-order
operators applied to library profiles are evaluated exactly (no numerical
differentiation) and their integrals admit analytic power-law head/tail
corrections outside any finite quadrature window.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaln

from .errors import NonIntegrable

__all__ = ["PowerForm"]


def _gen_binom(e: float, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= (e - i) / (i + 1)
    return out


class PowerForm:
    """Finite sum of terms c * r^(a*g-b) * (1 + w r^g)^(e0-m)."""

    __slots__ = ("gamma", "w", "e0", "terms")

    def __init__(self, gamma: float, w: float, e0: float, terms: dict | None = None):
        self.gamma = float(gamma)
        self.w = float(w)
        self.e0 = float(e0)
        self.terms = dict(terms or {})

    @classmethod
    def single(cls, gamma, w, e0, coef=1.0, a=0, b=0, m=0) -> "PowerForm":
        return cls(gamma, w, e0, {(a, b, m): float(coef)})

    def _compact(self) -> "PowerForm":
        self.terms = {k: c for k, c in self.terms.items() if c != 0.0}
        return self

    # -- algebra ----------------------------------------------------------

    def scaled(self, c: float) -> "PowerForm":
        return PowerForm(self.gamma, self.w, self.e0, {k: v * c for k, v in self.terms.items()})

    def mul_rpow(self, a: int = 0, b: int = 0) -> "PowerForm":
        """Multiply by r^(a*gamma - b)."""
        return PowerForm(
            self.gamma, self.w, self.e0,
            {(ka + a, kb + b, km): c for (ka, kb, km), c in self.terms.items()},
        )

    def mul_wpow(self, j: int) -> "PowerForm":
        """Multiply by (1 + w r^gamma)^j for integer j."""
        return PowerForm(
            self.gamma, self.w, self.e0,
            {(ka, kb, km - j): c for (ka, kb, km), c in self.terms.items()},
        )

    def __add__(self, other: "PowerForm") -> "PowerForm":
        if not isinstance(other, PowerForm):
            return NotImplemented
        if self.gamma != other.gamma or self.w != other.w:
            raise ValueError("cannot add forms with different bases")
        shift = other.e0 - self.e0
        ishift = round(shift)
        if abs(shift - ishift) > 1e-12:
            raise ValueError("cannot add forms whose base exponents differ non-integrally")
        out = dict(self.terms)
        for (a, b, m), c in other.terms.items():
            key = (a, b, m - ishift)
            out[key] = out.get(key, 0.0) + c
        return PowerForm(self.gamma, self.w, self.e0, out)._compact()

    def __sub__(self, other: "PowerForm") -> "PowerForm":
        return self + other.scaled(-1.0)

    def __mul__(self, other: "PowerForm") -> "PowerForm":
        if not isinstance(other, PowerForm):
            return NotImplemented
        if self.gamma != other.gamma or self.w != other.w:
            raise ValueError("cannot multiply forms with different bases")
        out: dict = {}
        for (a1, b1, m1), c1 in self.terms.items():
            for (a2, b2, m2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2, m1 + m2)
                out[key] = out.get(key, 0.0) + c1 * c2
        return PowerForm(self.gamma, self.w, self.e0 + other.e0, out)._compact()

    def deriv(self) -> "PowerForm":
        """d/dr, exact within the family."""
        g, w = self.gamma, self.w
        out: dict = {}
        for (a, b, m), c in self.terms.items():
            p = a * g - b
            if p != 0.0:
                key = (a, b + 1, m)
                out[key] = out.get(key, 0.0) + c * p
            ce = c * (self.e0 - m) * w * g
            if ce != 0.0:
                key = (a + 1, b + 1, m + 1)
                out[key] = out.get(key, 0.0) + ce
        return PowerForm(g, w, self.e0, out)._compact()

    def radial_laplacian(self, N: float, lam_k: float = 0.0) -> "PowerForm":
        """f'' + (N-1) f'/r - lam_k f/r^2."""
        d1 = self.deriv()
        out = d1.deriv() + d1.mul_rpow(b=1).scaled(N - 1.0)
        if lam_k:
            out = out + self.mul_rpow(b=2).scaled(-lam_k)
        return out

    # -- evaluation --------------------------------------------------------

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        wr = 1.0 + self.w * r ** self.gamma
        out = np.zeros_like(r)
        for (a, b, m), c in self.terms.items():
            p = a * self.gamma - b
            out = out + c * r ** p * wr ** (self.e0 - m)
        return out if out.shape else float(out)

    def term_magnitude(self, r):
        """Sum of absolute term values; the scale for relative residuals."""
        r = np.asarray(r, dtype=float)
        wr = 1.0 + self.w * r ** self.gamma
        out = np.zeros_like(r)
        for (a, b, m), c in self.terms.items():
            p = a * self.gamma - b
            out = out + abs(c) * r ** p * wr ** (self.e0 - m)
        return out if out.shape else float(out)

    # -- integrals ---------------------------------------------------------

    def _exponents(self, extra: float = 0.0):
        for (a, b, m), c in self.terms.items():
            yield c, a * self.gamma - b + extra, self.e0 - m

    def head_integral(self, r_lo: float, extra: float = 0.0, orders: int = 12) -> float:
        """Analytic int_0^{r_lo} r^extra * self via binomial expansion of (1+w r^g)^e."""
        g, w = self.gamma, self.w
        out = 0.0
        for c, p, e in self._exponents(extra):
            if p <= -1.0:
                raise NonIntegrable(f"term r^{p} not integrable at 0")
            for j in range(orders):
                q = p + g * j + 1.0
                out += c * _gen_binom(e, j) * w ** j * r_lo ** q / q
        return out

    def tail_integral(self, r_hi: float, extra: float = 0.0, orders: int = 12) -> float:
        """Analytic int_{r_hi}^inf r^extra * self, expanded in the r^g-dominant regime."""
        g, w = self.gamma, self.w
        out = 0.0
        for c, p, e in self._exponents(extra):
            if p + g * e >= -1.0:
                raise NonIntegrable(f"term r^{p}(1+wr^{g})^{e} not integrable at infinity")
            for j in range(orders):
                q = p + g * (e - j) + 1.0
                out += c * w ** (e - j) * _gen_binom(e, j) * (-(r_hi ** q) / q)
        return out

    def integral(self, extra: float = 0.0) -> float:
        """Exact int_0^inf r^extra * self through Beta functions (oracle path)."""
        g, w = self.gamma, self.w
        out = 0.0
        for c, p, e in self._exponents(extra):
            x = (p + 1.0) / g
            y = -e - x
            if x <= 0 or y <= 0:
                raise NonIntegrable(f"term r^{p}(1+wr^{g})^{e} has no convergent Beta integral")
            out += c / g * w ** (-x) * math.exp(betaln(x, y))
        return out
