import numpy as np
import pytest

from ckn4.emden import (
    norm_identity_check,
    sobolev_bubble,
    star_identity_check,
    to_sobolev,
)
from ckn4.params import (
    best_constant_radial,
    sobolev_constant_C,
    sphere_area,
    validate_params,
)
from ckn4.profiles import PolyGaussProfile, dilation_tangent, extremal_U, kernel_Z0
from conftest import ComposedRadial, PARAM_SETS, random_valid_params


def test_extremal_maps_to_bubble():
    for N, a in PARAM_SETS:
        p = validate_params(N, a)
        v = to_sobolev(p, extremal_U(p))
        s = np.logspace(-2, 2, 50)
        want = extremal_U(p).amplitude * (1.0 + s ** 2) ** (-(p.M - 4.0) / 2.0)
        assert np.allclose(v.eval(s), want, rtol=1e-13)
        # scale moves as nu = lam^{1/q}
        v2 = to_sobolev(p, extremal_U(p, 3.0))
        nu = 3.0 ** (1.0 / p.q)
        want2 = extremal_U(p).amplitude * nu ** ((p.M - 4) / 2) * (1 + (nu * s) ** 2) ** (-(p.M - 4) / 2)
        assert np.allclose(v2.eval(s), want2, rtol=1e-13)


def test_alpha_zero_is_identity():
    p = validate_params(6, 0)
    g = PolyGaussProfile([1.0, 0.0, -0.3], 0.9)
    v = to_sobolev(p, g)
    r = np.logspace(-2, 2, 30)
    assert np.allclose(v.eval(r), g.eval(r), rtol=1e-14)
    lhs, rhs, rel = norm_identity_check(p, g)
    assert rel < 1e-14


def test_round_trip():
    # the s-side form, taken back by the chain rule and by the inverse substitution
    p = validate_params(5, 0.5)
    r = np.logspace(-3, 3, 100)
    for g in (PolyGaussProfile([0.5, 0.0, 1.0], 1.3), kernel_Z0(p), dilation_tangent(p, 1.7)):
        v = to_sobolev(p, g)
        back = ComposedRadial(v, 1.0 / p.q)
        assert np.allclose(back.eval(r), g.eval(r), rtol=1e-12)
        assert np.allclose(v.form.substitute(1.0 / p.q).eval(r), g.eval(r), rtol=1e-12)
        for order in (1, 2):
            assert np.allclose(back.deriv(r, order), g.deriv(r, order), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("N,a", PARAM_SETS)
def test_norm_identity(N, a):
    p = validate_params(N, a)
    _, _, rel = norm_identity_check(p, extremal_U(p))
    assert rel < 1e-9
    _, _, rel_g = norm_identity_check(p, PolyGaussProfile([1.0], 1.0))
    assert rel_g < 1e-7


@pytest.mark.parametrize("N,a", PARAM_SETS)
def test_star_identity(N, a):
    p = validate_params(N, a)
    _, _, rel = star_identity_check(p, extremal_U(p))
    assert rel < 1e-9
    _, _, rel_g = star_identity_check(p, PolyGaussProfile([1.0], 1.0))
    assert rel_g < 1e-7


def test_exponent_bookkeeping(rng):
    for p in random_valid_params(rng, 15):
        assert 2 * p.M / (p.M - 4) == pytest.approx(p.pstar, rel=1e-12)
        assert p.M / p.q - 1 == pytest.approx(p.N - 1 - p.alpha, rel=1e-12)


def test_constant_chain_matches_corrected_closed_form(rng):
    # q-prefactor with the (N - alpha) denominator reproduces the constant chain
    for p in random_valid_params(rng, 10):
        pref = ((2.0 - p.alpha) / 2.0) ** ((4 * p.N - 4 - 2 * p.alpha) / (p.N - p.alpha))
        closed = pref * sphere_area(p.N) ** ((4 - 2 * p.alpha) / (p.N - p.alpha)) * sobolev_constant_C(p)
        assert best_constant_radial(p) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("N,a", PARAM_SETS)
def test_composed_radial_scale_and_amplitude(N, a):
    # lam^{(N-4+alpha)/2} v((lam r)^{1/q}) with v the s-side bubble is the
    # dilated extremal U_lam, derivatives included
    p = validate_params(N, a)
    lam = 2.5
    u = ComposedRadial(sobolev_bubble(p), 1.0 / p.q, scale=lam, amp=lam ** (p.decay_exp / 2.0))
    want = extremal_U(p, lam)
    r = np.logspace(-2, 2, 40)
    assert np.allclose(u.eval(r), want.eval(r), rtol=1e-12, atol=0.0)
    for order in (1, 2):
        assert np.allclose(u.deriv(r, order), want.deriv(r, order), rtol=1e-11, atol=0.0)


def test_bubble_profile_matches_transform():
    p = validate_params(7, -2)
    b = sobolev_bubble(p, 2.0)
    v = to_sobolev(p, extremal_U(p, 2.0))
    s = np.logspace(-2, 2, 25)
    assert np.allclose(b.eval(s), v.eval(s), rtol=1e-13)


@pytest.mark.parametrize("N,a", [(12, 1.9), (12, -7.9)])
def test_identities_at_extreme_exponents(N, a):
    p = validate_params(N, a)
    assert norm_identity_check(p, extremal_U(p))[2] < 1e-9
    assert star_identity_check(p, extremal_U(p))[2] < 1e-9
    assert norm_identity_check(p, PolyGaussProfile([1.0], 1.0))[2] < 1e-7
