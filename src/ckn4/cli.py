"""Command-line surface: deterministic JSON/CSV verification reports.

Every command runs a set of named checks against the central tolerance
block and exits nonzero when any of them fails; reports carry the
tolerances used and are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import concurrent.futures as cf
import io
import json
import math
import os
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
    for line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
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
    if getattr(args, "h_file", None):
        return load_h_csv(args.h_file)
    name = getattr(args, "h", "exp_bump")
    if name not in reduction.BUILTIN_H:
        raise ValueError(f"unknown builtin h {name!r}; have {sorted(reduction.BUILTIN_H)}")
    return reduction.BUILTIN_H[name]


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
        _check("solution_positive", rep["positive"], rep["u_min_on_grid"], 0.0),
    ]
    curve = rep.pop("gamma_curve")
    rep.pop("result")
    return {
        "data": {"N": p.N, "alpha": p.alpha, "eps": args.eps, **rep, "gamma_curve": curve},
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


def _alpha_scan_values(text: str) -> list[str]:
    try:
        a0, a1, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad --scan-alpha {text!r}; expected a0:a1:step") from exc
    if not all(map(math.isfinite, (a0, a1, step))):
        raise ValueError(f"bad --scan-alpha {text!r}; a0, a1 and step must be finite")
    if step == 0.0:
        raise ValueError(f"bad --scan-alpha {text!r}; step must be nonzero")
    n = int(round((a1 - a0) / step))
    if n < 0:
        raise ValueError(f"bad --scan-alpha {text!r}; the step's sign points away from a1")
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
    csv_rows = report.pop("_csv", None)
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        for row in csv_rows:
            buf.write(",".join(str(x) for x in row) + "\n")
        text = buf.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=2, default=float) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if isinstance(report, dict):
        return 0 if report.get("passed", False) else 1
    return 0 if all(r.get("passed", False) for r in report) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ckn4",
        description="Verification workflows for the weighted fourth-order inequality toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--N", type=int, default=5)
        sp.add_argument("--alpha", type=str, default="1",
                        help="weight exponent as an exact decimal string")
        sp.add_argument("--mode", type=int, default=0)
        sp.add_argument("--num-eigs", type=int, default=6)
        sp.add_argument("--nodes", type=int, default=160)
        sp.add_argument("--eps", type=float, default=1e-3)
        sp.add_argument("--h", type=str, default="exp_bump")
        sp.add_argument("--h-file", type=str, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--scan-alpha", type=str, default=None, metavar="a0:a1:step")
        sp.add_argument("--lam", type=float, default=1.0)
        sp.add_argument("--perturb-amplitude", type=float, default=1.0)
        sp.add_argument("--k-max", type=int, default=4)
        sp.add_argument("--t-values", type=str, default="0.01,0.001")
        sp.add_argument("--a", type=float, default=0.0,
                        help="two-block displacement for the branch command")
        sp.add_argument("--grid-n", type=int, default=200)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.command
    try:
        if args.scan_alpha:
            alphas = _alpha_scan_values(args.scan_alpha)
            workers = int(os.environ.get("CKN_LAB_THREADS", "0")) or min(8, len(alphas))

            def run_alpha(a):
                import copy
                sub_args = copy.copy(args)
                sub_args.alpha = a
                sub_args.scan_alpha = None
                return _run_one(name, sub_args)

            with cf.ThreadPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(run_alpha, alphas))
            for rep in reports:
                rep.pop("_csv", None)
            ok = all(r["passed"] for r in reports)
            text = json.dumps(reports, sort_keys=True, indent=2, default=float) + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0 if ok else 1
        report = _run_one(name, args)
        return _emit(report, args)
    except CknError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
