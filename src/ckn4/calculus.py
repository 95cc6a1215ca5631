"""Grids, weighted quadrature, and the functionals of the problem.

The default rule is Gauss-Legendre in t = ln r on [ln r_min, ln r_max];
all integrands at hand are smooth in t and power-decaying, so the rule
converges spectrally.  Its nodes come from Newton's method on the
three-term recurrence of P_n, started from asymptotic nodes, and its
weights from P_n' at them (gauss_legendre), in numpy alone.  A library
profile carries its closed form, and its Hessian integral, and its star
integral when the form is a single term, are exact Beta sums
(PowerForm.integral) that touch no grid; the rule serves every other
function.  The sphere factor omega_{N-1} is folded into every full-space
integral, so reported norms match the R^N definitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure, ZeroFunction
from .params import Params, sphere_area

__all__ = [
    "RadialGrid",
    "gauss_legendre",
    "default_grid",
    "hessian_integral",
    "star_integral",
    "weighted_hessian_norm_sq",
    "weighted_star_norm",
    "rayleigh_quotient",
    "in_float_range",
]


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes/weights for integrals int_0^inf f(r) dr."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size

    @classmethod
    def log_gauss(cls, r_min: float = 1e-6, r_max: float = 1e6, n: int = 512) -> "RadialGrid":
        """Gauss-Legendre in ln r; weights include the dr = r d(ln r) factor.

        Built once per (r_min, r_max, n) and shared, so its arrays are read-only.
        """
        return _log_gauss(float(r_min), float(r_max), int(n))

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ values)


def _legendre(n: int, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' at x = 1 - y, by the recurrence in y (Reinsch's modification).

    The recurrence runs on P_k and d_k = P_k - P_{k-1}, so near x = 1, where
    every P_k is close to 1, it keeps the digits that the classical recurrence
    in x loses to rounding in P_n.
    """
    p, d = 1.0 - y, -y
    for k in range(1, n):
        d = (k * d - (2.0 * k + 1.0) * y * p) / (k + 1.0)
        p = p + d
    # (1 - x^2) P_n' = n (P_{n-1} - x P_n), and P_{n-1} - x P_n = y P_n - d_n
    return p, n * (y * p - d) / (y * (2.0 - y))


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [-1, 1]: ascending nodes and their weights.

    Newton's method on P_n in y = 1 - x, from Tricomi's asymptotic nodes, for
    the nodes in [0, 1); the rest by symmetry (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013, start from asymptotic nodes the same way).  Newton runs
    until every step is below 1e-8 of y, then once more, which quadratic
    convergence takes to rounding level; that step's P_n' gives the weights
    2 / ((1 - x^2) P_n'^2).  A weight near x = 1 moves by 2 dx / (1 - x^2)
    relative when its node moves by dx, so the nodes are carried in y, where
    they keep their full relative accuracy: the weights are within about
    1e-14 relative of the exact ones up to 2048 nodes, where the same formula
    at the rounded x would allow 1e-10.  Built once per n and shared, so its
    arrays are read-only.
    """
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    y = 2.0 * np.sin(0.5 * theta) ** 2 + (n - 1.0) / (8.0 * n ** 3) * np.cos(theta)
    last = False
    for _ in range(20):
        p, dp = _legendre(n, y)
        step = p / dp
        y = y + step
        if last:
            break
        last = bool((np.abs(step) <= 1e-8 * y).all())
    else:
        raise QuadratureFailure(f"Gauss-Legendre rule with {n} nodes: Newton did not converge")
    x = 1.0 - y
    w = 2.0 / (dp * dp * y * (2.0 - y))
    if n % 2:
        x[-1] = 0.0             # the middle node, exactly
    nodes = np.concatenate((-x[:n // 2], x[::-1]))
    weights = np.concatenate((w[:n // 2], w[::-1]))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _log_gauss(r_min: float, r_max: float, n: int) -> RadialGrid:
    x, w = gauss_legendre(n)
    a, b = math.log(r_min), math.log(r_max)
    t = 0.5 * (a + b) + 0.5 * (b - a) * x
    r = np.exp(t)
    weights = 0.5 * (b - a) * w * r
    r.flags.writeable = weights.flags.writeable = False
    return RadialGrid(nodes=r, weights=weights)


def default_grid() -> RadialGrid:
    return RadialGrid.log_gauss()


# -- functionals ---------------------------------------------------------------


def in_float_range(p: Params, name: str, value: float) -> float:
    """value, the integral of a positive integrand, if it is a positive float."""
    if not (math.isfinite(value) and value > 0.0):
        raise QuadratureFailure(
            f"{name} at N={p.N}, alpha={p.alpha}: the integral of a positive "
            f"integrand is {value!r}, outside the float range")
    return value


def _exact(p: Params, name: str, form, value: float) -> float:
    """The exact integral value of a form's positive integrand: 0 for a zero form."""
    return value if not any(form.terms.values()) else in_float_range(p, name, value)


def hessian_integral(p: Params, dim: float, weight_pow: float, u, grid: RadialGrid) -> float:
    """int r^weight_pow (u'' + (dim-1)u'/r)^2 r^{dim-1} dr, without the sphere factor.

    A Beta sum when u carries a form, else the grid sum.
    """
    form = getattr(u, "form", None)
    if form is not None:
        lap = form.radial_laplacian(dim)
        return _exact(p, "Hessian integral", form, (lap * lap).integral(weight_pow + dim - 1.0))
    r = grid.nodes
    lap_u = u.deriv(r, 2) + (dim - 1) * u.deriv(r, 1) / r
    return grid.integrate(r ** weight_pow * (lap_u * lap_u) * r ** (dim - 1))


def star_integral(p: Params, dim: float, weight_pow: float, u, grid: RadialGrid) -> float:
    """int r^weight_pow |u|^{p*} r^{dim-1} dr, without the sphere factor.

    Exact when u is a single-term form, else the grid sum.
    """
    form = getattr(u, "form", None)
    if form is not None and len(form.terms) == 1:
        return _exact(p, "star integral", form, form.integral(weight_pow + dim - 1.0, p.pstar))
    r = grid.nodes
    return grid.integrate(r ** weight_pow * np.abs(u.eval(r)) ** p.pstar * r ** (dim - 1))


def weighted_hessian_norm_sq(p: Params, u) -> float:
    """Squared norm omega int r^alpha (u'' + (N-1)u'/r)^2 r^{N-1} dr, on the default grid."""
    return sphere_area(p.N) * hessian_integral(p, p.N, p.alpha, u, default_grid())


def weighted_star_norm(p: Params, u) -> float:
    """Norm (omega int r^{-alpha} |u|^{p*} r^{N-1} dr)^{1/p*}, on the default grid."""
    return (sphere_area(p.N) * star_integral(p, p.N, -p.alpha, u, default_grid())) ** (1.0 / p.pstar)


def rayleigh_quotient(p: Params, u) -> float:
    """Quotient ||u||^2 / ||u||_*^2 whose infimum is the sharp constant."""
    star = weighted_star_norm(p, u)
    if star == 0.0:
        raise ZeroFunction("star norm vanishes; quotient undefined")
    return weighted_hessian_norm_sq(p, u) / star ** 2
