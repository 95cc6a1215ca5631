"""Numerical toolkit for a weighted fourth-order inequality of CKN type.

Closed-form constants and extremal profiles, the radial change of
variables to an effective unweighted problem, the spectrum of the
linearized operator with its kernel-dimension jumps at even weight
exponents, deficit/remainder quotients near the extremal manifold, and a
finite-dimensional reduction for perturbed equations.
"""

from .params import (
    Params,
    EvenAlphaInfo,
    validate_params,
    sobolev_constant_C,
    best_constant_radial,
    best_constant_radial_report,
    normalization_constant,
    even_alpha_info,
    mode_lambda,
)
from .profiles import (
    RadialProfile,
    ProfileKind,
    extremal_U,
    kernel_Z0,
    kernel_Zk_radial,
    dilation_tangent,
    el_residual_sup,
    nonradial_branch,
    biradial_residual,
)
from .calculus import (
    weighted_hessian_norm_sq,
    weighted_star_norm,
    rayleigh_quotient,
)
from .emden import to_sobolev, norm_identity_check, star_identity_check
from .spectrum import (
    assemble_mode_problem,
    mode_eigenvalues,
    verify_kernel,
)
from .reduction import (
    remainder_curve,
    PerturbationProblem,
    solve_correction,
    find_perturbed_solution,
)

__version__ = "0.1.0"
