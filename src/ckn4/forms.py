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

# |ln x| of the normal double range, with a margin: e^-700 = 9.9e-305
LOG_NORMAL = 700.0


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
        de = other.e0 - self.e0
        ide = round(de)
        if abs(de - ide) > 1e-12:
            raise ValueError("cannot add forms whose base exponents differ non-integrally")
        out = dict(self.terms)
        for (a, b, m), c in other.terms.items():
            key = (a, b, m - ide)
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
        if not self._factors_in_range(r):
            return self._eval_in_logs(r)
        wr = 1.0 + self.w * r ** self.gamma
        out = np.zeros_like(r)
        for (a, b, m), c in self.terms.items():
            p = a * self.gamma - b
            out = out + c * r ** p * wr ** (self.e0 - m)
        return out if out.shape else float(out)

    def _factors_in_range(self, r: np.ndarray) -> bool:
        """Whether 1 + w r^g and every factor r^p, (1 + w r^g)^e is a normal float on r.

        Past |ln| = LOG_NORMAL a factor overflows, or underflows into the
        subnormals and keeps only a few digits, so the product of the two
        factors can be NaN, or finite and wrong.
        """
        if r.size == 0 or self.w <= 0.0:
            return True
        lo, hi = float(r.min()), float(r.max())
        if not (lo > 0.0 and math.isfinite(hi)):
            return True
        ln_r = max(-math.log(lo), math.log(hi))
        # ln(1 + w r^g) <= ln 2 + max(0, ln w + g ln r) on [lo, hi]
        ln_w = math.log(self.w)
        ln_wr = math.log(2.0) + max(0.0, ln_w + self.gamma * math.log(lo),
                                    ln_w + self.gamma * math.log(hi))
        return ln_wr <= LOG_NORMAL and all(
            abs(a * self.gamma - b) * ln_r <= LOG_NORMAL and abs(self.e0 - m) * ln_wr <= LOG_NORMAL
            for a, b, m in self.terms)

    def _eval_in_logs(self, r: np.ndarray):
        """eval for r > 0 and w > 0, with each term entry whose factors leave the
        normal range taken as c exp(p ln r + e ln(1 + w r^g)); the other entries
        keep the plain arithmetic."""
        with np.errstate(over="ignore", invalid="ignore"):
            wr = 1.0 + self.w * r ** self.gamma
            ln_r = np.log(r)
            ln_wr = np.logaddexp(0.0, math.log(self.w) + self.gamma * ln_r)
            out = np.zeros(r.shape)
            for (a, b, m), c in self.terms.items():
                p, e = a * self.gamma - b, self.e0 - m
                lp, le = p * ln_r, e * ln_wr
                term = np.array(c * r ** p * wr ** e)
                far = (np.abs(lp) > LOG_NORMAL) | (np.abs(le) > LOG_NORMAL) | (ln_wr > LOG_NORMAL)
                term[far] = c * np.exp(lp[far] + le[far])
                out = out + term
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
