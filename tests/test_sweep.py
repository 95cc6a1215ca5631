"""Property sweep of the mode spectra over the admissible range (hypothesis).

Every (N, alpha) with 4-N < alpha < 2, including both ends approached as
10^-k, in modes 0-4 with 64 or 160 trial functions: the pencil either
matches the closed-form Paneitz spectrum or raises a typed CknError.  A
NaN or overflow shows up as a RuntimeWarning, which the suite turns into
an error.  The examples are derandomized, so every run draws the same ones.
"""

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from ckn4.errors import CknError
from ckn4.params import validate_params
from ckn4.spectrum import exact_rel_errors, mode_eigenvalues


@st.composite
def admissible(draw):
    """(N, alpha): interior points, and alpha = 4-N+10^-k or 2-10^-k."""
    N = draw(st.integers(3, 12))
    end = draw(st.sampled_from(["low", "high", "interior"]))
    k = draw(st.integers(1, 8))
    if end == "low":
        return N, 4 - N + 10.0 ** -k
    if end == "high":
        return N, 2 - 10.0 ** -k
    return N, draw(st.floats(4 - N, 2, exclude_min=True, exclude_max=True))


@seed(20261018)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(point=admissible(), k_mode=st.integers(0, 4), m=st.sampled_from([64, 160]))
def test_spectrum_matches_closed_form_or_is_typed(point, k_mode, m):
    N, alpha = point
    try:
        p = validate_params(N, alpha)
        res = mode_eigenvalues(p, k_mode, n_eigs=5, nodes=m)
    except CknError:
        return
    assert np.isfinite(res.eigenvalues).all()
    assert exact_rel_errors(p, k_mode, res.eigenvalues).max() <= 1e-10
