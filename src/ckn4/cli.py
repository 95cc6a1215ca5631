"""Command-line surface: deterministic JSON/CSV verification reports.

Every command runs a set of named checks against the central tolerance
block and exits nonzero when any of them fails; reports carry the
tolerances used and are byte-stable across runs.  Each command imports the
modules it calls when it runs, so a closed-form report loads none of the
spectral code; what the parser and TOLERANCES read comes from params.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import functools
import json
import math
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from .errors import CknError
from .openblas import numpy_openblas
from .params import (
    _K_GUARD,
    KERNEL_TOL,
    NODES_RANGE,
    REFUSE_FACTOR,
    best_constant_radial,
    best_constant_radial_report,
    even_alpha_info,
    fourth_order_sobolev_constant,
    normalization_constant,
    sobolev_constant_C_forms,
    validate_params,
)

TOLERANCES = {
    "constant_identity": 1e-12,
    "rayleigh": 1e-8,
    "el_residual": 1e-9,
    "transform_identity": 1e-7,
    "eigenvalue": 1e-4,
    "kernel_match": KERNEL_TOL,
    "remainder_window": 0.05,
    "contraction": REFUSE_FACTOR,
    "perturb_residual": 1e-6,
    "biradial_residual": 1e-13,
}


def _check(name, passed, value, tol):
    return {"name": name, "passed": bool(passed), "value": value, "tol": tol}


def load_h_csv(path: str):
    """Two-column CSV (r, h(r)), optional header; zero outside the sample range.

    Only the first non-blank line may be a header: a later row that does not
    read as two numbers is a usage error that names its line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"--h-file {path}: cannot read: {exc.strerror or exc}") from exc
    rows = []
    header_allowed = True
    for lineno, line in enumerate(lines, 1):
        parts = line.replace(",", " ").split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ValueError(f"--h-file {path}: line {lineno}: need two columns r,h(r)")
        try:
            r, hr = float(parts[0]), float(parts[1])
        except ValueError:
            if header_allowed:
                header_allowed = False
                continue
            raise ValueError(f"--h-file {path}: line {lineno}: r and h(r) are not numbers "
                             f"(only the first line may be a header)") from None
        header_allowed = False
        if not (math.isfinite(r) and math.isfinite(hr) and r >= 0.0):
            raise ValueError(f"--h-file {path}: line {lineno}: need finite r >= 0 and h(r)")
        rows.append((r, hr))
    data = np.array(sorted(rows))
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError(f"--h-file {path}: need at least two (r, h) rows")
    rr, hh = data[:, 0], data[:, 1]
    # a knot at r = 0 sits at ln r = -inf, so h is constant from 0 to the next knot
    with np.errstate(divide="ignore"):
        log_rr = np.log(rr)

    def h(r):
        r = np.asarray(r, dtype=float)
        return np.interp(np.log(np.maximum(r, 1e-300)), log_rr, hh, left=0.0, right=0.0)

    return h


def _resolve_h(args):
    from . import reduction

    if args.h_file:
        return load_h_csv(args.h_file)
    if args.h not in reduction.BUILTIN_H:
        raise ValueError(f"unknown builtin h {args.h!r}; have {sorted(reduction.BUILTIN_H)}")
    return reduction.BUILTIN_H[args.h]


# -- commands -------------------------------------------------------------------


def cmd_constants(args) -> dict:
    p = validate_params(args.N, args.alpha)
    form_a, form_b = sobolev_constant_C_forms(p)
    rep = best_constant_radial_report(p)
    info = even_alpha_info(p)
    gap = abs(form_a - form_b) / abs(form_a)
    checks = [
        _check("C_forms_agree", gap <= TOLERANCES["constant_identity"],
               gap, TOLERANCES["constant_identity"]),
    ]
    if p.alpha == 0.0:
        classical = fourth_order_sobolev_constant(float(p.N))
        rel = abs(rep["value"] - classical) / classical
        checks.append(_check("reduces_to_unweighted", rel <= TOLERANCES["constant_identity"],
                             rel, TOLERANCES["constant_identity"]))
    return {
        "data": {
            "N": p.N,
            "alpha": p.alpha,
            "pstar": p.pstar,
            "q": p.q,
            "M": p.M,
            "C_M": form_a,
            "best_constant_radial": rep["value"],
            "erratum_variant_value": rep["erratum_variant_value"],
            "erratum_rel_deviation": rep["erratum_rel_deviation"],
            "normalization_constant": normalization_constant(p),
            "kernel_dim": info.kernel_dim,
            "even_case_k": info.k,
        },
        "checks": checks,
    }


def cmd_verify_extremal(args) -> dict:
    from . import calculus, profiles

    p = validate_params(args.N, args.alpha)
    amp = None
    if args.perturb_amplitude != 1.0:
        amp = args.perturb_amplitude * normalization_constant(p)
    U = profiles.extremal_U(p, args.lam, amplitude=amp)
    el = profiles.el_residual_sup(p, U)
    S = best_constant_radial(p)
    rq = calculus.rayleigh_quotient(p, U)
    rq_rel = abs(rq - S) / S
    checks = [
        _check("el_residual_sup", el <= TOLERANCES["el_residual"], el, TOLERANCES["el_residual"]),
        _check("rayleigh_matches_best_constant", rq_rel <= TOLERANCES["rayleigh"],
               rq_rel, TOLERANCES["rayleigh"]),
    ]
    functionals = [
        {"name": name, "params": {"N": p.N, "alpha": p.alpha}, "value": fn(p, U)}
        for name, fn in (("hessian_norm_sq", calculus.weighted_hessian_norm_sq),
                         ("star_norm", calculus.weighted_star_norm))]
    return {
        "data": {
            "N": p.N, "alpha": p.alpha, "lam": args.lam,
            "profile": profiles.profile_to_json(U),
            "el_residual_sup": el,
            "rayleigh_quotient": rq,
            "best_constant_radial": S,
            "functionals": functionals,
        },
        "checks": checks,
    }


def cmd_transform_check(args) -> dict:
    from . import emden, profiles

    p = validate_params(args.N, args.alpha)
    out = []
    checks = []
    for label, u in (("extremal", profiles.extremal_U(p)),
                     ("gaussian", profiles.PolyGaussProfile([1.0], 1.0))):
        lhs_n, rhs_n, rel_n = emden.norm_identity_check(p, u)
        lhs_s, rhs_s, rel_s = emden.star_identity_check(p, u)
        out.append({"profile": label,
                    "norm_identity": {"lhs": lhs_n, "rhs": rhs_n, "rel_err": rel_n},
                    "star_identity": {"lhs": lhs_s, "rhs": rhs_s, "rel_err": rel_s}})
        tol = TOLERANCES["transform_identity"]
        checks.append(_check(f"norm_identity_{label}", rel_n <= tol, rel_n, tol))
        checks.append(_check(f"star_identity_{label}", rel_s <= tol, rel_s, tol))
    return {"data": {"N": p.N, "alpha": p.alpha, "identities": out}, "checks": checks}


def cmd_spectrum(args) -> dict:
    from . import spectrum

    p = validate_params(args.N, args.alpha)
    res = spectrum.mode_eigenvalues(p, args.mode, n_eigs=args.num_eigs, nodes=args.nodes)
    checks = []
    if args.mode == 0:
        tol = TOLERANCES["eigenvalue"]
        mu = res.eigenvalues
        checks.append(_check("mu1_is_one", abs(mu[0] - 1.0) <= tol, abs(mu[0] - 1.0), tol))
        t = p.pstar - 1.0
        checks.append(_check("mu2_is_pstar_minus_one", abs(mu[1] - t) / t <= tol,
                             abs(mu[1] - t) / t, tol))
        checks.append(_check("mu3_above_mu2", mu[2] > mu[1], float(mu[2] - mu[1]), 0.0))
    return {
        "data": {
            "N": p.N, "alpha": p.alpha, "k": args.mode,
            "eigenvalues": [float(v) for v in res.eigenvalues],
            "residuals": [float(v) for v in res.residual_norms],
            "exact_rel_errors": [float(v) for v in spectrum.exact_rel_errors(p, args.mode, res.eigenvalues)],
        },
        "diagnostics": res.diagnostics,
        "checks": checks,
    }


def cmd_kernel(args) -> dict:
    from . import spectrum

    p = validate_params(args.N, args.alpha)
    rep = spectrum.verify_kernel(p, args.k_max, args.nodes)
    expected = even_alpha_info(p).kernel_dim
    checks = [
        _check("kernel_dim_matches", rep["kernel_dim"] == expected,
               rep["kernel_dim"], expected),
    ]
    return {"data": rep, "checks": checks}


def cmd_remainder(args) -> dict:
    from . import reduction, spectrum

    p = validate_params(args.N, args.alpha)
    res = spectrum.mode_eigenvalues(p, 0, n_eigs=4, nodes=args.nodes)
    mu2, mu3 = float(res.eigenvalues[1]), float(res.eigenvalues[2])
    curve = reduction.remainder_curve(res, args.t_values)
    target = 1.0 - mu2 / mu3
    # judged at the smallest t: the quotient's distance from its limit is O(t)
    q_small = min(curve, key=lambda row: row["t"])["quotient"]
    rel = abs(q_small / target - 1.0)
    tol = TOLERANCES["remainder_window"]
    paneitz = abs(target / (8.0 / (p.M + 6.0)) - 1.0)
    kappa = max(row["curvature"] for row in curve)
    checks = [
        _check("quotient_near_limit", rel <= tol, rel, tol),
        _check("limit_is_paneitz", paneitz <= TOLERANCES["eigenvalue"],
               paneitz, TOLERANCES["eigenvalue"]),
        _check("scale_one_is_local_fit", kappa < 0.0, kappa, 0.0),
    ]
    return {
        "data": {
            "N": p.N, "alpha": p.alpha,
            "mu2": mu2, "mu3": mu3, "limit": target,
            "curve": curve,
        },
        "diagnostics": res.diagnostics,
        "checks": checks,
        "csv": [("t", "quotient", "dist")] + [(row["t"], row["quotient"], row["dist"]) for row in curve],
    }


def cmd_perturb(args) -> dict:
    from . import reduction

    p = validate_params(args.N, args.alpha)
    h = _resolve_h(args)
    pp = reduction.PerturbationProblem(p, h, args.eps, nodes=args.nodes)
    rep = reduction.find_perturbed_solution(pp)
    checks = [
        _check("contraction_below_limit", rep["contraction_factor"] < TOLERANCES["contraction"],
               rep["contraction_factor"], TOLERANCES["contraction"]),
        _check("residual_small", rep["residual"] <= TOLERANCES["perturb_residual"],
               rep["residual"], TOLERANCES["perturb_residual"]),
        _check("solution_positive", rep["positive"], rep["min_ratio_to_bubble"], 0.0),
    ]
    curve = rep.pop("gamma_curve")
    rep.pop("result")
    diagnostics = {"quad_nodes": pp.rule.n, "basis_size": pp.problem.basis.m,
                   "kept_rank": pp.kept,
                   "lambda_star_polished": rep.pop("lambda_star_polished"),
                   "l_sign_changes": rep.pop("l_sign_changes"),
                   "l_sign_change_taken": rep.pop("l_sign_change_taken"),
                   "polish_l_ratio": rep.pop("polish_l_ratio")}
    return {
        "data": {"N": p.N, "alpha": p.alpha, "eps": args.eps, **rep, "gamma_curve": curve},
        "diagnostics": diagnostics,
        "checks": checks,
        "csv": [("lam", "gamma")] + [(row["lam"], row["gamma"]) for row in curve],
    }


def cmd_branch(args) -> dict:
    from . import profiles

    rep = profiles.biradial_residual(profiles.nonradial_branch(args.N, args.a))
    identities = max(rep["laplacian_identity"], rep["gradient_identity"])
    tol = TOLERANCES["biradial_residual"]
    checks = [
        _check("residual_small", rep["rel_sup"] <= tol, rep["rel_sup"], tol),
        _check("chain_rule_identities", identities <= tol, identities, tol),
    ]
    return {"data": {"N": args.N, "a": args.a, **rep}, "checks": checks}


COMMANDS = {
    "constants": cmd_constants,
    "verify-extremal": cmd_verify_extremal,
    "transform-check": cmd_transform_check,
    "spectrum": cmd_spectrum,
    "kernel": cmd_kernel,
    "remainder": cmd_remainder,
    "perturb": cmd_perturb,
    "branch": cmd_branch,
}


MAX_SCAN_POINTS = 10_000


def _alpha_scan_values(text: str) -> list[str]:
    try:
        a0, a1, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad --scan-alpha {text!r}; expected a0:a1:step") from exc
    if not all(map(math.isfinite, (a0, a1, step))):
        raise ValueError(f"bad --scan-alpha {text!r}; a0, a1 and step must be finite")
    if step == 0.0:
        raise ValueError(f"bad --scan-alpha {text!r}; step must be nonzero")
    ratio = (a1 - a0) / step
    if ratio < -0.5:
        raise ValueError(f"bad --scan-alpha {text!r}; the step's sign points away from a1")
    # round(ratio) + 1 points; checked before any list is built
    if not ratio < MAX_SCAN_POINTS - 0.5:
        raise ValueError(f"bad --scan-alpha {text!r}; more than {MAX_SCAN_POINTS} points")
    n = int(round(ratio))
    return [f"{a0 + i * step:.12g}" for i in range(n + 1)]


def _run_one(name, args) -> dict:
    body = COMMANDS[name](args)
    ok = all(c["passed"] for c in body["checks"])
    return {
        "schema": 1,
        "command": name,
        "tolerances": TOLERANCES,
        "passed": ok,
        **{k: v for k, v in body.items() if k != "csv"},
        "_csv": body.get("csv"),
    }


def _emit(report, args) -> int:
    """Write one report, or a scan's list of them, to --out or stdout; return the exit code."""
    scan = isinstance(report, list)
    reports = report if scan else [report]
    csv_rows = [rep.pop("_csv", None) for rep in reports]
    if not scan and getattr(args, "format", "json") == "csv" and csv_rows[0] is not None:
        text = "".join(",".join(str(x) for x in row) + "\n" for row in csv_rows[0])
    else:
        text = json.dumps(report, sort_keys=True, indent=2, default=float) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"--out {args.out}: cannot write: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    return 0 if all(rep["passed"] for rep in reports) else 1


def finite_float(text: str) -> float:
    """argparse type of the float flags: a finite number, else a usage error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def exact_decimal(text: str) -> str:
    """argparse type of --alpha: a finite decimal, kept as its string so the weight stays exact."""
    try:
        if Decimal(text).is_finite():
            return text
    except InvalidOperation:
        pass
    raise argparse.ArgumentTypeError(f"need a finite decimal number, got {text!r}")


# remainder --t-values: each offset t, relative to ||U_1||, in [T_MIN, T_MAX].
# Up to T_MAX, u/U_1 = 1 + v stays above 1 - T_MAX/sqrt(2) > 0.92
# (reduction.remainder_curve).  The quotient's distance from its limit is O(t)
# plus the rounding of g = expm1(p* log1p v) - p* v, 3e-18/t to 3e-16/t: at
# (5, 1), (3, 1.5) and (12, 1.39948) at most 1.8e-9 at t = 1e-8, 2.1e-6 at
# 1e-10 and 1.1e-2 at 1e-14.  Below T_MIN it only loses digits, all by 1e-20
T_MIN = 1e-10
T_MAX = 0.1


def t_values(text: str) -> list[float]:
    """argparse type of remainder --t-values: comma-separated offsets, each T_MIN <= t <= T_MAX."""
    values = [finite_float(part) for part in text.split(",")]
    for t in values:
        if not T_MIN <= t <= T_MAX:
            raise argparse.ArgumentTypeError(f"need {T_MIN:g} <= t <= {T_MAX:g}, got {t!r}")
    return values


def int_in(lo: int, hi: int):
    """argparse type of an int flag: an integer in [lo, hi], checked before any array exists."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"need an integer, got {text!r}") from None
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"need {lo} <= value <= {hi}, got {n}")
        return n

    parse.range = (lo, hi)
    return parse


# --num-eigs: mode 0's checks read mu_1 to mu_3
NUM_EIGS_RANGE = (3, 2048)
# --mode and --k-max: the spherical-harmonic degrees params.spherical_multiplicity takes
MODE_RANGE = (0, _K_GUARD)


ALPHA_COMMANDS = ("constants", "verify-extremal", "transform-check", "spectrum", "kernel",
                  "remainder", "perturb")

# every flag with the subcommands whose code reads it
FLAGS = [
    ("--N", dict(type=int, default=5), tuple(COMMANDS)),
    ("--alpha", dict(type=exact_decimal, default="1", help="weight exponent, an exact decimal"),
     ALPHA_COMMANDS),
    ("--scan-alpha", dict(type=str, default=None, metavar="a0:a1:step"), ALPHA_COMMANDS),
    ("--lam", dict(type=finite_float, default=1.0), ("verify-extremal",)),
    ("--perturb-amplitude", dict(type=finite_float, default=1.0), ("verify-extremal",)),
    ("--mode", dict(type=int_in(*MODE_RANGE), default=0), ("spectrum",)),
    ("--num-eigs", dict(type=int_in(*NUM_EIGS_RANGE), default=6), ("spectrum",)),
    ("--nodes", dict(type=int_in(*NODES_RANGE), default=160),
     ("spectrum", "kernel", "remainder", "perturb")),
    ("--k-max", dict(type=int_in(*MODE_RANGE), default=4), ("kernel",)),
    ("--t-values", dict(type=t_values, default="0.01,0.001"), ("remainder",)),
    ("--eps", dict(type=finite_float, default=1e-3), ("perturb",)),
    ("--h", dict(type=str, default="exp_bump"), ("perturb",)),
    ("--h-file", dict(type=str, default=None), ("perturb",)),
    ("--a", dict(type=finite_float, default=0.0, help="two-block displacement"),
     ("branch",)),
    ("--out", dict(type=str, default=None), tuple(COMMANDS)),
    ("--format", dict(choices=("json", "csv"), default="json"), ("remainder", "perturb")),
]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckn4",
        description="Verification workflows for the weighted fourth-order inequality toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # no abbreviations: a prefix of another command's flag (verify-extremal --a
    # for --alpha) would otherwise be read instead of refused
    parsers = {name: sub.add_parser(name, allow_abbrev=False) for name in COMMANDS}
    for flag, kwargs, commands in FLAGS:
        for name in commands:
            parsers[name].add_argument(flag, **kwargs)
    return ap


@functools.cache
def _blas_thread_functions():
    """numpy's OpenBLAS (get, set) thread-count functions, or None where it links another BLAS."""
    found = numpy_openblas()
    if found is None:
        return None
    lib, threads, _ = found
    get, set_ = (getattr(lib, threads.format(x)) for x in ("get", "set"))
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore the count it had.

    A report's BLAS calls (the m x (m+8) Gram products, the fixed point's
    products) are too small for a second thread to save wall time up to
    1024 trial functions, yet it busy-waits after each call and so doubles a
    report's CPU; the rule seeds' dsterf is serial code whichever the count.
    Where numpy links another BLAS the body runs unchanged.
    """
    fns = _blas_thread_functions()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


_PARSER = None


def main(argv=None) -> int:
    # the parser is built once per process, on the first call
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    name = args.command
    try:
        with _one_blas_thread():
            scan = getattr(args, "scan_alpha", None)
            if not scan:
                return _emit(_run_one(name, args), args)
            reports = []
            for a in _alpha_scan_values(scan):
                sub_args = copy.copy(args)
                sub_args.alpha = a
                sub_args.scan_alpha = None
                reports.append(_run_one(name, sub_args))
            return _emit(reports, args)
    except CknError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
