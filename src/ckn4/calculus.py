"""Grids, weighted quadrature, and the functionals of the problem.

The default rule is Gauss-Legendre in t = ln r on [ln r_min, ln r_max];
all integrands at hand are smooth in t and power-decaying, so the rule
converges spectrally.  For library profiles the truncated head and tail of
each integral are added back analytically from the exact power-law
expansion carried by their term algebra.  The sphere factor omega_{N-1}
is folded into every full-space integral, so reported norms match the
R^N definitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import QuadratureFailure, ZeroFunction
from .forms import PowerForm
from .params import Params, sphere_area

__all__ = [
    "RadialGrid",
    "SampledRadial",
    "default_grid",
    "hessian_integral",
    "star_integral",
    "weighted_hessian_norm_sq",
    "weighted_star_norm",
    "rayleigh_quotient",
    "inner_alpha",
    "energy_J",
    "weighted_H",
    "functional_report",
]


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature nodes/weights for integrals int_0^inf f(r) dr."""

    nodes: np.ndarray
    weights: np.ndarray
    r_min: float
    r_max: float

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

    def coarsened(self) -> "RadialGrid":
        return RadialGrid.log_gauss(self.r_min, self.r_max, max(32, self.n // 2))


@functools.lru_cache(maxsize=None)
def _log_gauss(r_min: float, r_max: float, n: int) -> RadialGrid:
    x, w = roots_legendre(n)
    a, b = math.log(r_min), math.log(r_max)
    t = 0.5 * (a + b) + 0.5 * (b - a) * x
    r = np.exp(t)
    weights = 0.5 * (b - a) * w * r
    r.flags.writeable = weights.flags.writeable = False
    return RadialGrid(nodes=r, weights=weights, r_min=r_min, r_max=r_max)


def default_grid() -> RadialGrid:
    return RadialGrid.log_gauss()


class SampledRadial:
    """Generic radial function sampled at Chebyshev points in ln r.

    Barycentric interpolation plus spectral differentiation give values and
    first/second derivatives anywhere inside the sampling window; outside it
    the function is treated as zero.
    """

    def __init__(self, values: np.ndarray, r_min: float, r_max: float):
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        self.values = values
        self.r_min, self.r_max = float(r_min), float(r_max)
        n = values.size
        j = np.arange(n)
        self.x = np.cos(math.pi * j / (n - 1))
        self._bw = np.where(j % 2 == 0, 1.0, -1.0)
        self._bw[0] *= 0.5
        self._bw[-1] *= 0.5
        self._D = self._cheb_diff(self.x)
        self._dvals = [values]

    @classmethod
    def from_function(cls, fn, r_min: float = 1e-6, r_max: float = 1e6, n: int = 257) -> "SampledRadial":
        j = np.arange(n)
        x = np.cos(math.pi * j / (n - 1))
        a, b = math.log(r_min), math.log(r_max)
        r = np.exp(0.5 * (a + b) + 0.5 * (b - a) * x)
        return cls(np.asarray(fn(r), dtype=float), r_min, r_max)

    @staticmethod
    def _cheb_diff(x: np.ndarray) -> np.ndarray:
        n = x.size
        c = np.ones(n)
        c[0] = c[-1] = 2.0
        c *= (-1.0) ** np.arange(n)
        X = x[:, None] - x[None, :] + np.eye(n)
        D = np.outer(c, 1.0 / c) / X
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        return D

    def _tvals(self, order: int) -> np.ndarray:
        while len(self._dvals) <= order:
            self._dvals.append(self._D @ self._dvals[-1])
        return self._dvals[order]

    def _bary(self, x, vals):
        diff = x[:, None] - self.x[None, :]
        exact = np.isclose(diff, 0.0, atol=1e-15)
        diff = np.where(exact, 1.0, diff)
        w = self._bw[None, :] / diff
        out = (w @ vals) / w.sum(axis=1)
        hit = exact.any(axis=1)
        if np.any(hit):
            idx = exact.argmax(axis=1)
            out[hit] = vals[idx[hit]]
        return out

    def _to_x(self, r):
        a, b = math.log(self.r_min), math.log(self.r_max)
        return (2.0 * np.log(r) - (a + b)) / (b - a)

    def eval(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        x = self._to_x(r)
        inside = (x >= -1.0) & (x <= 1.0)
        out = np.zeros_like(r)
        if np.any(inside):
            out[inside] = self._bary(x[inside], self.values)
        return out if out.size > 1 else float(out[0])

    def __call__(self, r):
        return self.eval(r)

    def deriv(self, r, order: int = 1):
        """Derivative in r (chain rule through t = ln r); supports order <= 2."""
        if order > 2:
            raise ValueError("SampledRadial supports derivatives up to order 2")
        r = np.atleast_1d(np.asarray(r, dtype=float))
        x = self._to_x(r)
        inside = (x >= -1.0) & (x <= 1.0)
        out = np.zeros_like(r)
        if np.any(inside):
            half = 0.5 * (math.log(self.r_max) - math.log(self.r_min))
            ft = self._bary(x[inside], self._tvals(1)) / half
            if order == 1:
                out[inside] = ft / r[inside]
            else:
                ftt = self._bary(x[inside], self._tvals(2)) / half ** 2
                out[inside] = (ftt - ft) / r[inside] ** 2
        return out if out.size > 1 else float(out[0])


# -- functionals ---------------------------------------------------------------


def _lap_values(dim: float, u, r: np.ndarray) -> np.ndarray:
    return u.deriv(r, 2) + (dim - 1) * u.deriv(r, 1) / r


def _lap_form(dim: float, u) -> PowerForm | None:
    form = getattr(u, "form", None)
    if form is None:
        return None
    return form.radial_laplacian(dim)


def _corrected_integral(grid: RadialGrid, values: np.ndarray,
                        form: PowerForm | None, extra: float = 0.0) -> float:
    """Quadrature plus analytic head/tail of int r^extra * form when available."""
    out = grid.integrate(values)
    if form is not None:
        out += form.head_integral(grid.r_min, extra)
        out += form.tail_integral(grid.r_max, extra)
    return out


def _star_power_form(p: Params, u) -> PowerForm | None:
    """|u|^{p*} as a single-term form when u itself is one."""
    form = getattr(u, "form", None)
    if form is None or len(form.terms) != 1:
        return None
    ((a, b, m), c) = next(iter(form.terms.items()))
    try:
        coef = abs(c) ** p.pstar
    except OverflowError:
        raise QuadratureFailure(
            f"star integral at N={p.N}, alpha={p.alpha}: |c|^p* of the closed-form "
            f"profile overflows (c={c!r}, p*={p.pstar!r})") from None
    # fractional net power p*(a*g - b) rides along as the extra power
    return PowerForm(form.gamma, form.w, p.pstar * (form.e0 - m), {(0, 0, 0): coef})


def _star_extra(p: Params, u, dim: float, weight_pow: float) -> float:
    form = u.form
    ((a, b, m), c) = next(iter(form.terms.items()))
    return p.pstar * (a * form.gamma - b) + (dim - 1.0 + weight_pow)


def hessian_integral(dim: float, weight_pow: float, u, grid: RadialGrid) -> float:
    """int r^weight_pow (u'' + (dim-1)u'/r)^2 r^{dim-1} dr, without the sphere factor."""
    r = grid.nodes
    lap = _lap_values(dim, u, r)
    values = r ** weight_pow * lap ** 2 * r ** (dim - 1)
    lf = _lap_form(dim, u)
    integrand = (lf * lf) if lf is not None else None
    return _corrected_integral(grid, values, integrand, weight_pow + dim - 1.0)


def star_integral(p: Params, dim: float, weight_pow: float, u, grid: RadialGrid) -> float:
    """int r^weight_pow |u|^{p*} r^{dim-1} dr, without the sphere factor."""
    r = grid.nodes
    values = r ** weight_pow * np.abs(u.eval(r)) ** p.pstar * r ** (dim - 1)
    integrand = _star_power_form(p, u)
    extra = _star_extra(p, u, dim, weight_pow) if integrand is not None else 0.0
    return _corrected_integral(grid, values, integrand, extra)


def weighted_hessian_norm_sq(p: Params, u, grid: RadialGrid | None = None) -> float:
    """Squared norm omega int r^alpha (u'' + (N-1)u'/r)^2 r^{N-1} dr."""
    grid = grid or default_grid()
    return sphere_area(p.N) * hessian_integral(p.N, p.alpha, u, grid)


def weighted_star_norm(p: Params, u, grid: RadialGrid | None = None) -> float:
    """Norm (omega int r^{-alpha} |u|^{p*} r^{N-1} dr)^{1/p*}."""
    grid = grid or default_grid()
    out = sphere_area(p.N) * star_integral(p, p.N, -p.alpha, u, grid)
    if not (math.isfinite(out) and out >= 0.0):
        # the analytic head/tail corrections can swamp the quadrature as alpha -> 2
        raise QuadratureFailure(
            f"weighted star norm at N={p.N}, alpha={p.alpha}: the corrected "
            f"star integral is {out!r}, not finite and nonnegative")
    return out ** (1.0 / p.pstar)


def rayleigh_quotient(p: Params, u, grid: RadialGrid | None = None) -> float:
    """Quotient ||u||^2 / ||u||_*^2 whose infimum is the sharp constant."""
    grid = grid or default_grid()
    star = weighted_star_norm(p, u, grid)
    if star == 0.0:
        raise ZeroFunction("star norm vanishes; quotient undefined")
    return weighted_hessian_norm_sq(p, u, grid) / star ** 2


def inner_alpha(p: Params, u, v, grid: RadialGrid | None = None) -> float:
    """Inner product omega int r^alpha (lap u)(lap v) r^{N-1} dr."""
    grid = grid or default_grid()
    r = grid.nodes
    values = r ** p.alpha * _lap_values(p.N, u, r) * _lap_values(p.N, v, r) * r ** (p.N - 1)
    fu, fv = _lap_form(p.N, u), _lap_form(p.N, v)
    integrand = None
    if fu is not None and fv is not None and fu.gamma == fv.gamma and fu.w == fv.w:
        integrand = fu * fv
    return sphere_area(p.N) * _corrected_integral(grid, values, integrand, p.alpha + p.N - 1.0)


def weighted_H(p: Params, h, u, grid: RadialGrid | None = None) -> float:
    """Perturbation functional (1/p*) int h |x|^{-alpha} u_+^{p*}."""
    grid = grid or default_grid()
    r = grid.nodes
    hv = h(r) if callable(h) else h.eval(r)
    values = hv * r ** (-p.alpha) * np.maximum(u.eval(r), 0.0) ** p.pstar * r ** (p.N - 1)
    return sphere_area(p.N) * grid.integrate(values) / p.pstar


def energy_J(p: Params, eps: float, h, u, grid: RadialGrid | None = None) -> float:
    """Energy (1/2)||u||^2 - (1/p*) int (1 + eps h) |x|^{-alpha} u_+^{p*}."""
    grid = grid or default_grid()
    r = grid.nodes
    plus = np.maximum(u.eval(r), 0.0) ** p.pstar
    values = r ** (-p.alpha) * plus * r ** (p.N - 1)
    integrand = None
    extra = 0.0
    form = getattr(u, "form", None)
    if form is not None and len(form.terms) == 1 and next(iter(form.terms.values())) >= 0:
        integrand = _star_power_form(p, u)
        extra = _star_extra(p, u, p.N, -p.alpha)
    base = sphere_area(p.N) * _corrected_integral(grid, values, integrand, extra)
    out = 0.5 * weighted_hessian_norm_sq(p, u, grid) - base / p.pstar
    if eps != 0.0 and h is not None:
        out -= eps * weighted_H(p, h, u, grid)
    return out


def functional_report(name: str, p: Params, value: float, est_error: float) -> dict:
    return {
        "name": name,
        "params": {"N": p.N, "alpha": p.alpha},
        "value": value,
        "est_error": est_error,
    }
