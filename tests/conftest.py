import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import roots_legendre

from ckn4.emden import sobolev_bubble
from ckn4.params import validate_params
from ckn4.reduction import solve_correction

# the five working parameter pairs exercised across the suite
PARAM_SETS = [(5, 1.0), (5, 0.5), (6, -1.0), (3, 1.5), (7, -2.0)]


def wide_log_rule(m, M, panel_pts=256):
    """(u, s, w): composite Gauss-Legendre rule in u = ln s, w including ds = s du.

    Wide enough for stiffness-type integrands (T X)^2 s^{M-1}, which decay
    like s^{3-M}: the window clip(34/(M-4), 12, 150) upward and
    max(12, min(40, 170/M)) downward, with the trial-function zones of
    SGrid.  A reference for the exact pencil and the coefficient-space
    norms, independent of SGrid's star-term window.
    """
    u_max = float(np.clip(34.0 / (M - 4.0), 12.0, 150.0))
    u_min = -max(12.0, min(40.0, 170.0 / M))
    zones = [(u_min, -12.0, 1.0), (-12.0, -8.0, 0.5), (-8.0, 8.0, min(1.0, 96.0 / m)),
             (8.0, 12.0, 0.5), (12.0, u_max, 1.0)]
    x, wref = roots_legendre(panel_pts)
    us, ws = [], []
    for a, b, h in zones:
        edges = np.linspace(a, b, int(math.ceil((b - a) / h)) + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        us.append((mid[:, None] + half[:, None] * x[None, :]).ravel())
        ws.append((half[:, None] * wref[None, :]).ravel())
    u = np.concatenate(us)
    s = np.exp(u)
    return u, s, np.concatenate(ws) * s


def values_and_derivs(basis, s):
    """(psi, psi', psi'') matrices of shape (m, n) of a ModeBasis.

    A reference for ModeBasis.series, which sums one combination of them
    by Clenshaw's recurrence without forming the matrices.
    """
    E = np.exp(basis._log_envelope(s))
    t, a, ap, tp, tpp = basis._frame_coeffs(s)
    P, dP, d2P = basis._legendre(t, orders=2)
    psi = E * P
    dpsi = E * (a * P + tp * dP)
    d2psi = E * ((a * a + ap) * P + (2.0 * a * tp + tpp) * dP + tp * tp * d2P)
    return psi, dpsi, d2psi


def applied(basis, s):
    """(psi, T_k psi) with T_k psi = psi'' + (M-1)psi'/s - nu psi/s^2, shape (m, n).

    A reference for the rows ModeBasis.weighted_rows assembles the pencil
    from, without the quadrature weight.
    """
    E = np.exp(basis._log_envelope(s))
    t, _, _, _, _, c0, c1, c2 = basis._operator_coeffs(s)
    P, dP, d2P = basis._legendre(t, orders=2)
    return E * P, E * (c0 * P + c1 * dP + c2 * d2P)


def full_grid_energy(pp, lam, result):
    """Reduced energy at scale lam with the star term summed over every node of pp's grid.

    A reference for reduction.reduced_energies, which integrates each
    scale only on its own window; the correction is summed from the
    (m, n) basis matrix, independent of ModeBasis.series.
    """
    p = pp.params
    nu = lam ** (1.0 / p.q)
    w_vals = (pp.X @ result.coeffs) @ pp.problem.basis.values(nu * pp.s)
    u_vals = sobolev_bubble(p, lam).form.eval(pp.s) + nu ** ((p.M - 4.0) / 2.0) * w_vals
    star = pp.star_scale * float(
        pp.wq @ ((1.0 + result.eps * pp.h_phys) * np.maximum(u_vals, 0.0) ** p.pstar))
    return 0.5 * pp.norm_sq(result.coeffs) - star / p.pstar


def brentq_lambda_star(pp, la, lb):
    """Root of the multiplier l(lam) on [la, lb] by brentq on l/lam.

    A reference for find_perturbed_solution's polish, which finds the root
    of a Chebyshev interpolant of l/lam on one block of scales; here every
    scale brentq tries is its own one-scale fixed-point solve.
    """
    return brentq(lambda lam: solve_correction(pp, lam).l / lam, la, lb, xtol=1e-14, rtol=1e-14)


@pytest.fixture(scope="session")
def param_sets():
    return [validate_params(N, a) for N, a in PARAM_SETS]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_valid_params(rng, n=20):
    out = []
    while len(out) < n:
        N = int(rng.integers(3, 13))
        lo, hi = 4 - N, 2
        a = float(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
        out.append(validate_params(N, a))
    return out


@pytest.fixture(scope="session")
def spectrum_51():
    """Shared mode-0 eigen data at (5, 1)."""
    from ckn4.spectrum import mode_eigenvalues

    p = validate_params(5, 1.0)
    return p, mode_eigenvalues(p, 0, n_eigs=5, nodes=160)
