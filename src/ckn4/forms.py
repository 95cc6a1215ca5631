"""Exact calculus on the closed-form radial families.

Every library profile (extremals, kernel elements, dilation tangents) and
everything radial differential operators produce from them is a finite sum

    sum_j  c_j * r^(a_j*g - b_j) * (1 + w r^g) ** (e0 - m_j)

with a fixed base (g, w, e0), whole a_j and m_j, and float coefficients c_j
(PowerForm); the polynomial-Gaussian family has exp(-beta r^kappa) for the
last factor (ExpForm).  Each is closed under d/dr, under multiplication by
r^(a*g-b), under products on one base (the betas adding) and under r = s^q,
which scales g and every b_j by q, so fourth-order operators apply exactly
and each term's integral over (0, inf) is a Beta or a Gamma function: no
integral of a form needs a grid.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonIntegrable

__all__ = ["PowerForm", "ExpForm"]

# |ln x| of the normal double range, with a margin: e^-700 = 9.9e-305
LOG_NORMAL = 700.0
# ln of the largest double: e^x overflows beyond it
LOG_MAX = math.log(np.finfo(float).max)


def _beta_ratio(x: float, y: float, i: int, j: int) -> float:
    """B(x+i, y+j) / B(x, y) = (x)_i (y)_j / (x+y)_(i+j) for whole i, j >= 0."""
    num = den = 1.0
    for k in range(i):
        num *= x + k
    for k in range(j):
        num *= y + k
    for k in range(i + j):
        den *= x + y + k
    return num / den


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

    def radial_laplacian(self, N: float) -> "PowerForm":
        """f'' + (N-1) f'/r."""
        d1 = self.deriv()
        return d1.deriv() + d1.mul_rpow(b=1).scaled(N - 1.0)

    def substitute(self, q: float) -> "PowerForm":
        """The form in s, r = s^q: r^(a*g-b) = s^(a*q*g - q*b)."""
        return PowerForm(q * self.gamma, self.w, self.e0,
                         {(a, q * b, m): c for (a, b, m), c in self.terms.items()})

    # -- evaluation --------------------------------------------------------

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        wr = 1.0 + self.w * r ** self.gamma
        out = np.zeros_like(r)
        for (a, b, m), c in self.terms.items():
            p = a * self.gamma - b
            out = out + c * r ** p * wr ** (self.e0 - m)
        return out if out.shape else float(out)

    # -- integrals ---------------------------------------------------------

    def integral(self, extra: float = 0.0, power: float = 1.0) -> float:
        """Exact int_0^inf r^extra * self dr, or of r^extra |self|^power for one term.

        With t = w r^g each term c r^p (1 + w r^g)^e integrates to
        (c/g) w^-x B(x, y), x = (p+1)/g, y = -e - x.  Terms sharing b lie
        whole numbers apart in x and y, so a group is B(x0, y0) times a sum
        of c w^(x0-x) B(x, y)/B(x0, y0), ratios rational in x0 and y0:
        cancelling terms meet before any logarithm is rounded.  Each group
        is formed as one logarithm with ln B from lgamma, so |c|^power and
        w^-x cannot overflow on their own; a group beyond the float range
        gives +-inf.
        """
        g, w = self.gamma, self.w
        groups: dict = {}
        for (a, b, m), c in self.terms.items():
            p = power * (a * g - b) + extra
            e = power * (self.e0 - m)
            x = (p + 1.0) / g
            y = -e - x
            if not (x > 0.0 and y > 0.0):
                raise NonIntegrable(f"term r^{p}(1+wr^{g})^{e} has no convergent Beta integral")
            if c != 0.0:
                groups.setdefault(b, []).append((x, y, c))
        out = 0.0
        for group in groups.values():
            x0 = min(x for x, _, _ in group)
            y0 = min(y for _, y, _ in group)
            if power == 1.0:
                s = sum(c * w ** -round(x - x0) * _beta_ratio(x0, y0, round(x - x0), round(y - y0))
                        for x, y, c in group)
                if s == 0.0:
                    continue
                log_s = math.log(abs(s))
            else:
                ((_, _, c),) = group
                s, log_s = 1.0, power * math.log(abs(c))
            log_term = (log_s - math.log(g) - x0 * math.log(w)
                        + math.lgamma(x0) + math.lgamma(y0) - math.lgamma(x0 + y0))
            try:
                out += math.copysign(math.exp(log_term), s)
            except OverflowError:
                out += math.copysign(math.inf, s)
        return out


class ExpForm:
    """Finite sum of terms c * r^(a*kappa-b) * exp(-beta r^kappa), beta > 0, kappa > 0."""

    __slots__ = ("kappa", "beta", "terms")

    def __init__(self, kappa: float, beta: float, pairs=()):
        """The (key, c) pairs are summed by key (a, b); zero sums are dropped."""
        self.kappa, self.beta = float(kappa), float(beta)
        terms: dict = {}
        for key, c in pairs:
            terms[key] = terms.get(key, 0.0) + c
        self.terms = {key: c for key, c in terms.items() if c != 0.0}

    # -- algebra ----------------------------------------------------------

    def scaled(self, c: float) -> "ExpForm":
        return ExpForm(self.kappa, self.beta, ((key, v * c) for key, v in self.terms.items()))

    def mul_rpow(self, a: int = 0, b: float = 0) -> "ExpForm":
        """Multiply by r^(a*kappa - b)."""
        return ExpForm(self.kappa, self.beta,
                       (((ka + a, kb + b), c) for (ka, kb), c in self.terms.items()))

    def __add__(self, other: "ExpForm") -> "ExpForm":
        if not isinstance(other, ExpForm) or (self.kappa, self.beta) != (other.kappa, other.beta):
            raise ValueError("cannot add a form of another family or base")
        return ExpForm(self.kappa, self.beta, [*self.terms.items(), *other.terms.items()])

    __sub__ = PowerForm.__sub__
    radial_laplacian = PowerForm.radial_laplacian

    def __mul__(self, other: "ExpForm") -> "ExpForm":
        if not isinstance(other, ExpForm) or self.kappa != other.kappa:
            raise ValueError("cannot multiply by a form of another family or kappa")
        return ExpForm(self.kappa, self.beta + other.beta,
                       (((a1 + a2, b1 + b2), c1 * c2) for (a1, b1), c1 in self.terms.items()
                        for (a2, b2), c2 in other.terms.items()))

    def deriv(self) -> "ExpForm":
        """d/dr, exact within the family."""
        k, beta = self.kappa, self.beta
        return ExpForm(k, beta, (pair for (a, b), c in self.terms.items() for pair in
                                 (((a, b + 1), c * (a * k - b)), ((a + 1, b + 1), -c * beta * k))))

    def substitute(self, q: float) -> "ExpForm":
        """The form in s, r = s^q: kappa and every b scale by q."""
        return ExpForm(q * self.kappa, self.beta,
                       (((a, q * b), c) for (a, b), c in self.terms.items()))

    # -- evaluation and integrals --------------------------------------------

    def eval(self, r):
        r = np.asarray(r, dtype=float)
        out = sum((c * r ** (a * self.kappa - b) for (a, b), c in self.terms.items()),
                  np.zeros_like(r)) * np.exp(-self.beta * r ** self.kappa)
        return out if out.shape else float(out)

    def integral(self, extra: float = 0.0, power: float = 1.0) -> float:
        """Exact int_0^inf r^extra * self dr, or of r^extra |self|^power for one term.

        Each term c r^p e^(-beta r^kappa) integrates to c Gamma(x) / (kappa
        beta^x), x = (p+1)/kappa.  As in PowerForm.integral, terms sharing b
        lie whole numbers apart in x, so a group is summed as c (x0)_i beta^-i
        before its one logarithm is taken; a group beyond the float range
        gives +-inf.
        """
        k, beta = self.kappa, power * self.beta
        groups: dict = {}
        for (a, b), c in self.terms.items():
            x = (power * (a * k - b) + extra + 1.0) / k
            if not x > 0.0:
                raise NonIntegrable(f"term r^{x * k - 1.0} exp(-{beta} r^{k}) has no convergent "
                                    f"Gamma integral")
            groups.setdefault(b, []).append((x, c))
        out = 0.0
        for group in groups.values():
            x0 = min(x for x, _ in group)
            if power == 1.0:
                s = sum(c * math.prod(x0 + j for j in range(round(x - x0))) / beta ** round(x - x0)
                        for x, c in group)
                log_s = math.log(abs(s)) if s else -math.inf
            else:
                ((_, c),) = group
                s, log_s = 1.0, power * math.log(abs(c))
            log_term = log_s - math.log(k) - x0 * math.log(beta) + math.lgamma(x0)
            out += math.copysign(math.exp(log_term) if log_term < LOG_MAX else math.inf, s)
        return out
