"""Outside-in span tracer for the ckn4 layers.

The tracer replaces the public functions and methods of each layer with
timing wrappers while it is installed, and restores them on uninstall.
Module-level names are replaced wherever ``from ... import`` bound them in
another ckn4 module (``reduction`` holds its own ``assemble_mode_problem``,
for example), so every call path is seen.  Nothing in the program changes
on disk or while the tracer is not installed.

Each span records its name, layer, start, end, parent span, report id and
thread.  Spans stay in memory until ``write``.  A span's self time is its
duration minus the part of it covered by its child spans (the union, so
children that overlap in worker threads are not counted twice).

Counts attached to spans are *computed* from public return values,
arguments and attributes (``grid.n``, ``basis.m``, ...), never from program
internals; they describe the work a call was asked to do.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

clock = time.perf_counter

# span tuple fields
ID, NAME, LAYER, START, END, PARENT, REPORT, THREAD, COUNTS = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.report = None
        self.root = None
        # solve_correction results already returned in the current report;
        # holding them keeps their ids from being reused
        self.seen_corrections: dict[int, object] = {}
        self.missing: set[str] = set()
        self.count_errors: set[str] = set()

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name, layer, start, end, parent, counts):
        self.spans.append((sid, name, layer, start, end, parent, self.report,
                           threading.get_ident(), counts))

    def run_report(self, report_id: int, name: str, fn, *args):
        """Call fn(*args) as the root span of one report.

        Spans opened in worker threads, whose own stacks are empty, take
        this span as their parent.
        """
        self.report = report_id
        self.seen_corrections = {}
        sid = next(self._ids)
        self.root = sid
        start = clock()
        try:
            return fn(*args)
        finally:
            self._record(sid, name, "cli", start, clock(), None, None)
            self.root = None
            self.seen_corrections = {}

    def _wrap(self, fn, name: str, layer: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer._ids)
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                tracer._record(sid, name, layer, start, end, parent, None)
                raise
            end = clock()
            stack.pop()
            counts = None
            if count:
                # a count must never break the program: one that no longer
                # fits the program's return values is skipped and listed
                try:
                    counts = count(tracer, args, kwargs, out)
                except (AttributeError, KeyError, TypeError, ValueError):
                    tracer.count_errors.add(name)
            tracer._record(sid, name, layer, start, end, parent, counts)
            return out

        return traced

    # -- installing ---------------------------------------------------------

    def install(self, ckn4, targets):
        """Wrap every ("module.function" or "module.Class.attr", layer, count) target.

        A target the program no longer has is skipped and listed in
        ``missing``, so the benchmark keeps running when a layer drops a name.
        """
        program = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ckn4" or n.startswith("ckn4."))]
        for path, layer, count in targets:
            *owners, attr = path.split(".")
            owner = ckn4
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.missing.add(path)
                continue
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(raw.__func__, path, layer, count))
                else:
                    new = self._wrap(raw, path, layer, count)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            fn = getattr(owner, attr)
            new = self._wrap(fn, path, layer, count)
            for mod in program:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        children = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append((s[START], s[END]))
        out = {}
        for s in self.spans:
            start, end = s[START], s[END]
            covered, reach = 0.0, start
            for a, b in sorted(children.get(s[ID], ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out[s[ID]] = (end - start) - covered
        return out

    def write(self, path):
        threads = {}
        t0 = min((s[START] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s[START]):
                fh.write(json.dumps({
                    "id": s[ID], "name": s[NAME], "layer": s[LAYER],
                    "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "report": s[REPORT],
                    "thread": threads.setdefault(s[THREAD], len(threads)),
                    "counts": s[COUNTS],
                }) + "\n")


# -- computed counts ------------------------------------------------------------


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def targets(ckn4) -> list[tuple]:
    """(dotted path under ckn4, layer, count) for each traced entry point."""
    calculus = ckn4.calculus
    default_grid = getattr(calculus, "default_grid", None)

    def eval_points(_t, args, _kw, _out):
        return {"eval_points": _size(args[1])}

    def quad_nodes_of(fn):
        if fn is None:
            return None
        signature = inspect.signature(fn)

        def count(_t, args, kwargs, _out):
            grid = signature.bind(*args, **kwargs).arguments.get("grid") or default_grid()
            return {"quad_nodes": grid.n}
        return count

    def biradial_cells(_t, _args, _kw, out):
        return {"biradial_cells": out["n"] ** 2}

    def assembled(_t, _args, _kw, pr):
        m, n = pr.basis.m, pr.grid.n
        # two Gram products, A and B, of 2*m*m*n flops each
        return {"quad_nodes": n, "trial_fns": m, "gram_flops": 4 * m * m * n}

    def weighted_mass(_t, args, _kw, _out):
        pr = args[0]
        return {"gram_flops": 2 * pr.basis.m ** 2 * pr.grid.n}

    def eig(_t, _args, _kw, res):
        return {"kept_rank": res.kept_rank, "nodes": res.nodes}

    def basis_entries(_t, args, _kw, _out):
        return {"entries": args[0].m * _size(args[1])}

    def correction(t, _args, _kw, res):
        if id(res) in t.seen_corrections:
            return {"cache_hit": 1, "iterations": 0}
        t.seen_corrections[id(res)] = res
        return {"cache_hit": 0, "iterations": res.iterations}

    out = []
    for name in ("eval", "term_magnitude"):
        out.append((f"forms.PowerForm.{name}", "forms", eval_points))
    for name in ("deriv", "radial_laplacian", "__mul__", "__add__",
                 "head_integral", "tail_integral", "integral"):
        out.append((f"forms.PowerForm.{name}", "forms", None))

    for name in ("extremal_U", "kernel_Z0", "kernel_Zk_radial", "dilation_tangent",
                 "el_residual", "el_residual_relative", "nonradial_branch",
                 "profile_to_json", "profile_from_json", "random_trial_profiles",
                 "RadialProfile.eval", "RadialProfile.deriv", "RadialProfile.__call__",
                 "PolyGaussProfile.eval", "PolyGaussProfile.deriv", "BiradialProfile.eval"):
        out.append((f"profiles.{name}", "profiles", None))
    out.append(("profiles.biradial_residual", "profiles", biradial_cells))

    for name in ("weighted_hessian_norm_sq", "weighted_star_norm", "inner_alpha", "weighted_H"):
        out.append((f"calculus.{name}", "calculus", quad_nodes_of(getattr(calculus, name, None))))
    for name in ("rayleigh_quotient", "energy_J", "functional_report", "default_grid",
                 "RadialGrid.log_gauss", "RadialGrid.algebraic", "RadialGrid.coarsened",
                 "SampledRadial.eval", "SampledRadial.deriv"):
        out.append((f"calculus.{name}", "calculus", None))

    for name in ("to_sobolev", "from_sobolev", "sobolev_bubble", "norm_identity_check",
                 "star_identity_check", "induced_sobolev_grid",
                 "ComposedRadial.eval", "ComposedRadial.deriv"):
        out.append((f"emden.{name}", "emden", None))

    out.append(("spectrum.assemble_mode_problem", "spectrum.assemble", assembled))
    out.append(("spectrum.ModeProblem.weighted_mass", "spectrum.assemble", weighted_mass))
    out.append(("spectrum.mode_eigenvalues", "spectrum.eig", eig))
    for name in ("values", "values_and_derivs", "applied"):
        out.append((f"spectrum.ModeBasis.{name}", "spectrum.basis", basis_entries))
    for name in ("SGrid.build", "verify_kernel", "kernel_residual", "mu3_estimate",
                 "SobolevModeFunction.eval", "SobolevModeFunction.deriv",
                 "RadialModeFunction.eval", "RadialModeFunction.deriv"):
        out.append((f"spectrum.{name}", "spectrum.other", None))

    out.append(("reduction.PerturbationProblem.__init__", "reduction.setup", None))
    out.append(("reduction.solve_correction", "reduction.correction", correction))
    out.append(("reduction.reduced_energy", "reduction.energy", None))
    out.append(("reduction.dist_to_manifold", "reduction.fit", None))
    out.append(("reduction.find_perturbed_solution", "reduction.solution", None))
    for name in ("remainder_quotient", "remainder_scan", "h_weighted_star_norm"):
        out.append((f"reduction.{name}", "reduction.other", None))

    # private, but it is the per-alpha unit of a scan: cli.scan.workers and
    # cli.scan.overlap come from these spans
    out.append(("cli._run_one", "cli", None))
    return out
