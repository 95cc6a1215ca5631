"""Command-line surface: deterministic JSON/CSV verification reports.

Every command runs a set of named checks against the central tolerance
block and exits nonzero when any of them fails; reports carry the
tolerances used and are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys

import numpy as np

from . import calculus, emden, profiles, reduction, spectrum
from .errors import CknError
from .params import (
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
    "kernel_match": 1e-3,
    "lambda_independence": 1e-6,
    "remainder_window": 0.05,
    "contraction": 0.9,
    "perturb_residual": 1e-6,
    "biradial_residual": 1e-3,
}


def _check(name, passed, value, tol):
    return {"name": name, "passed": bool(passed), "value": value, "tol": tol}


def _gaussian():
    return profiles.PolyGaussProfile([1.0], 1.0)


def load_h_csv(path: str):
    """Two-column CSV (r, h(r)), optional header; zero outside the sample range."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"--h-file {path}: cannot read: {exc.strerror or exc}") from exc
    rows = []
    for lineno, line in enumerate(lines, 1):
        parts = line.replace(",", " ").split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ValueError(f"--h-file {path}: line {lineno}: need two columns r,h(r)")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError:
            continue  # header
    data = np.array(sorted(rows))
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError(f"{path}: need at least two (r, h) rows")
    rr, hh = data[:, 0], data[:, 1]

    def h(r):
        r = np.asarray(r, dtype=float)
        out = np.interp(np.log(np.maximum(r, 1e-300)), np.log(rr), hh, left=0.0, right=0.0)
        return out

    return h


def _resolve_h(args):
    if args.h_file:
        return load_h_csv(args.h_file)
    if args.h not in reduction.BUILTIN_H:
        raise ValueError(f"unknown builtin h {args.h!r}; have {sorted(reduction.BUILTIN_H)}")
    return reduction.BUILTIN_H[args.h]


# -- commands -------------------------------------------------------------------


def cmd_constants(args) -> dict:
    p = validate_params(args.N, args.alpha)
    form_a, form_b = sobolev_constant_C_forms(p.M)
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
    p = validate_params(args.N, args.alpha)
    amp = None
    if args.perturb_amplitude != 1.0:
        amp = args.perturb_amplitude * normalization_constant(p)
    U = profiles.extremal_U(p, args.lam, amplitude=amp)
    r = np.logspace(-3, 3, 241)
    el = float(np.max(profiles.el_residual_relative(p, U, r)))
    S = best_constant_radial(p)
    rq = calculus.rayleigh_quotient(p, U)
    rq_rel = abs(rq - S) / S
    checks = [
        _check("el_residual_sup", el <= TOLERANCES["el_residual"], el, TOLERANCES["el_residual"]),
        _check("rayleigh_matches_best_constant", rq_rel <= TOLERANCES["rayleigh"],
               rq_rel, TOLERANCES["rayleigh"]),
    ]
    grid = calculus.default_grid()
    coarse = grid.coarsened()
    functionals = []
    for fname, fn in (("hessian_norm_sq", calculus.weighted_hessian_norm_sq),
                      ("star_norm", calculus.weighted_star_norm)):
        val = fn(p, U, grid)
        functionals.append(calculus.functional_report(fname, p, val, abs(val - fn(p, U, coarse))))
    return {
        "data": {
            "N": p.N, "alpha": p.alpha, "lam": args.lam,
            "profile": json.loads(profiles.profile_to_json(U)),
            "el_residual_sup": el,
            "rayleigh_quotient": rq,
            "best_constant_radial": S,
            "functionals": functionals,
        },
        "checks": checks,
    }


def cmd_transform_check(args) -> dict:
    p = validate_params(args.N, args.alpha)
    out = []
    checks = []
    for label, u in (("extremal", profiles.extremal_U(p)), ("gaussian", _gaussian())):
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
            "nodes": res.nodes,
            "kept_rank": res.kept_rank,
        },
        "checks": checks,
    }


def cmd_kernel(args) -> dict:
    p = validate_params(args.N, args.alpha)
    rep = spectrum.verify_kernel(p, k_max=args.k_max, tol=TOLERANCES["kernel_match"],
                                 nodes=args.nodes)
    expected = even_alpha_info(p).kernel_dim
    checks = [
        _check("kernel_dim_matches", rep["kernel_dim"] == expected,
               rep["kernel_dim"], expected),
    ]
    return {"data": rep, "checks": checks}


def cmd_remainder(args) -> dict:
    p = validate_params(args.N, args.alpha)
    res = spectrum.mode_eigenvalues(p, 0, n_eigs=4, nodes=args.nodes)
    mu2, mu3 = float(res.eigenvalues[1]), float(res.eigenvalues[2])
    phi3 = res.eigenfunction(2).to_radial(p)
    nrm = np.sqrt(calculus.weighted_hessian_norm_sq(p, phi3))
    direction = reduction.RadialCombination([phi3], [1.0 / nrm])
    t_list = [float(t) for t in args.t_values.split(",")]
    curve = reduction.remainder_scan(p, direction, t_list)
    target = 1.0 - mu2 / mu3
    q_small = curve[-1]["quotient"]
    rel = abs(q_small / target - 1.0)
    tol = TOLERANCES["remainder_window"]
    checks = [_check("quotient_near_limit", rel <= tol, rel, tol)]
    return {
        "data": {
            "N": p.N, "alpha": p.alpha,
            "mu2": mu2, "mu3": mu3, "limit": target,
            "curve": curve,
        },
        "checks": checks,
        "csv": [("t", "quotient", "dist")] + [(row["t"], row["quotient"], row["dist"]) for row in curve],
    }


def cmd_perturb(args) -> dict:
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
    diagnostics = {"quad_nodes": int(pp.s.size), "basis_size": pp.problem.basis.m,
                   "kept_rank": pp.kept,
                   "lambda_star_polished": rep.pop("lambda_star_polished"),
                   "polish_scales": rep.pop("polish_scales"),
                   "polish_l_ratio": rep.pop("polish_l_ratio")}
    return {
        "data": {"N": p.N, "alpha": p.alpha, "eps": args.eps, **rep, "gamma_curve": curve},
        "diagnostics": diagnostics,
        "checks": checks,
        "csv": [("lam", "gamma")] + [(row["lam"], row["gamma"]) for row in curve],
    }


def cmd_branch(args) -> dict:
    prof = profiles.nonradial_branch(args.N, args.a)
    rep1 = profiles.biradial_residual(prof, n=args.grid_n)
    rep2 = profiles.biradial_residual(prof, n=2 * args.grid_n)
    order = float(np.log2(rep1["rel_sup"] / rep2["rel_sup"]))
    tol = TOLERANCES["biradial_residual"]
    checks = [
        _check("residual_small", rep1["rel_sup"] <= tol, rep1["rel_sup"], tol),
        _check("refinement_order_at_least_2", order >= 2.0, order, 2.0),
    ]
    return {
        "data": {"N": args.N, "a": args.a, "coarse": rep1, "fine": rep2, "observed_order": order},
        "checks": checks,
    }


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
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(rep["passed"] for rep in reports) else 1


ALPHA_COMMANDS = ("constants", "verify-extremal", "transform-check", "spectrum", "kernel",
                  "remainder", "perturb")

# every flag with the subcommands whose code reads it
FLAGS = [
    ("--N", dict(type=int, default=5), tuple(COMMANDS)),
    ("--alpha", dict(type=str, default="1", help="weight exponent as an exact decimal string"),
     ALPHA_COMMANDS),
    ("--scan-alpha", dict(type=str, default=None, metavar="a0:a1:step"), ALPHA_COMMANDS),
    ("--lam", dict(type=float, default=1.0), ("verify-extremal",)),
    ("--perturb-amplitude", dict(type=float, default=1.0), ("verify-extremal",)),
    ("--mode", dict(type=int, default=0), ("spectrum",)),
    ("--num-eigs", dict(type=int, default=6), ("spectrum",)),
    ("--nodes", dict(type=int, default=160), ("spectrum", "kernel", "remainder", "perturb")),
    ("--k-max", dict(type=int, default=4), ("kernel",)),
    ("--t-values", dict(type=str, default="0.01,0.001"), ("remainder",)),
    ("--eps", dict(type=float, default=1e-3), ("perturb",)),
    ("--h", dict(type=str, default="exp_bump"), ("perturb",)),
    ("--h-file", dict(type=str, default=None), ("perturb",)),
    ("--a", dict(type=float, default=0.0, help="two-block displacement"),
     ("branch",)),
    ("--grid-n", dict(type=int, default=200), ("branch",)),
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


_PARSER = None


def main(argv=None) -> int:
    # the parser is built once per process, on the first call
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    name = args.command
    try:
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
