"""Numerical toolkit for a weighted fourth-order inequality of CKN type.

Closed-form constants and extremal profiles, the radial change of
variables to an effective unweighted problem, the spectrum of the
linearized operator with its kernel-dimension jumps at even weight
exponents, deficit/remainder quotients near the extremal manifold, and a
finite-dimensional reduction for perturbed equations.

Importing the package loads none of its modules.  Each name of __all__,
and each module (``ckn4.spectrum``), resolves on first access, so a
process loads only the modules it uses: a command line report is a fresh
process, and without cached bytecode it compiles every module it imports.
"""

import importlib

# each exported name, by the module that defines it
_EXPORTS = {
    "params": ("Params", "EvenAlphaInfo", "validate_params", "sobolev_constant_C",
               "best_constant_radial", "best_constant_radial_report", "normalization_constant",
               "even_alpha_info", "mode_lambda"),
    "profiles": ("RadialProfile", "ProfileKind", "extremal_U", "kernel_Z0", "kernel_Zk_radial",
                 "dilation_tangent", "el_residual_sup", "nonradial_branch", "biradial_residual"),
    "calculus": ("weighted_hessian_norm_sq", "weighted_star_norm", "rayleigh_quotient"),
    "emden": ("to_sobolev", "norm_identity_check", "star_identity_check"),
    "spectrum": ("assemble_mode_problem", "mode_eigenvalues", "verify_kernel"),
    "reduction": ("remainder_curve", "PerturbationProblem", "solve_correction",
                  "find_perturbed_solution"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("calculus", "cli", "emden", "errors", "forms", "openblas", "params", "profiles",
            "reduction", "spectrum")

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
