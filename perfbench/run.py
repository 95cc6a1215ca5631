#!/usr/bin/env python3
"""Benchmark of the ckn4 command line, end to end and layer by layer.

One single-threaded closed loop: the next report is sent only after the
previous one has returned.  A report is ``ckn4.cli.main(argv)`` run in this
process with its output captured; the program sees only the generated argv.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off:

1. set-up, three times: a fresh interpreter imports ``ckn4.cli`` and makes
   the first call of each distinct command of the workload; ``setup_s`` and
   ``peak_rss_mb`` are the medians over these three processes;
2. in this process, the same first calls, then a reference pass over the
   workload's deck (untimed);
3. the timed pass: whole deck cycles until ``--seconds`` have passed.  It
   gives ``reports_per_s``, ``report_s.p50`` and ``cpu_s_per_report`` (user
   plus system CPU of all threads over the pass, per report).

Printed as well, but not gated because they can be zero or undefined:
``fail_share`` (reports of the deck not verified, out of all of them),
``report_s.tail`` (the highest percentile with at least ten samples beyond
it; omitted below twenty reports), the pass's total ``cpu_s``, the steal
share of the machine's CPU time during the pass, the whole run's peak RSS
and, per command, the exit codes and argv of failed reports.

``--trace 1`` gives the per-layer metrics.  After a warm-up with the set-up
calls it runs each report of one deck cycle twice, untraced and traced, so
the computed counts depend only on the seed and the traced outputs must
equal the untraced ones; scan reports then run once more with one worker.

``--workload all`` runs every workload in both modes, each in a fresh
interpreter, and prints all the tables.

A report is verified when it exits 0 with ``passed: true``.  The outputs are
correct when every report's stdout and exit code are identical to those of
the reference pass, and the exit code agrees with the report's verdict.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` and ``failed``
count the distinct reports of the deck (one cycle) and those of them not
verified: a timed pass repeats each report a number of times that depends
on the machine's speed, and every repeat must give the reference's result,
so these counts depend only on the seed and the program.  Results, with the
provenance of the run, and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3
TIMEOUT_S = 170


def monotonic() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so a
    # child's reading can be compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program_check():
    if not (SRC / "ckn4" / "__init__.py").is_file():
        sys.stderr.write(f"ckn4 sources not found under {SRC}; run from a checkout of the repo\n")
        raise SystemExit(3)


def import_program():
    import_program_check()
    sys.path.insert(0, str(SRC))
    import ckn4
    import ckn4.cli
    if Path(ckn4.__file__).resolve().parent != SRC / "ckn4":
        sys.stderr.write(f"imported ckn4 from {ckn4.__file__}, not from {SRC}\n")
        raise SystemExit(3)
    return ckn4


# -- one report -------------------------------------------------------------------


class Outcome:
    __slots__ = ("argv", "stdout", "code", "error", "seconds")

    def __init__(self, argv, stdout, code, error, seconds):
        self.argv, self.stdout, self.code = argv, stdout, code
        self.error, self.seconds = error, seconds

    def verdict(self):
        """True/False from the report's own ``passed`` field, None if unreadable."""
        try:
            body = json.loads(self.stdout)
        except ValueError:
            return None
        if isinstance(body, list):
            return all(r.get("passed") is True for r in body)
        return body.get("passed") is True

    @property
    def verified(self) -> bool:
        return self.code == 0 and self.verdict() is True

    @property
    def kind(self) -> str:
        if self.error is not None:
            return "exception"
        return f"exit_{self.code}"


def run_report(cli, argv, tracer=None, report_id=None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(list(argv))
            else:
                code = tracer.run_report(report_id, "cli.main", cli.main, list(argv))
    except SystemExit as exc:
        # the interpreter's own mapping: None exits 0, any non-integer exits 1
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught exception is a failed report, not a crash
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return Outcome(argv, out.getvalue(), code, error, seconds)


def run_cycle(cli, deck) -> list[Outcome]:
    return [run_report(cli, argv) for argv in deck]


def check(outcomes, refs) -> list[str]:
    """Differences from the reference pass and exit codes contradicting verdicts."""
    problems = []
    for o in outcomes:
        ref = refs[tuple(o.argv)]
        if (o.stdout, o.code, o.error) != (ref.stdout, ref.code, ref.error):
            problems.append(f"output differs from the reference pass: {' '.join(o.argv)}")
        elif o.code in (0, 1) and o.verdict() is not (o.code == 0):
            problems.append(f"exit {o.code} contradicts the report verdict: {' '.join(o.argv)}")
    return problems


def failures(outcomes) -> dict:
    out = {}
    for o in outcomes:
        if o.verified:
            continue
        entry = out.setdefault(o.argv[0], {"exit_1": 0, "exit_2": 0, "exception": 0, "argvs": []})
        entry[o.kind] = entry.get(o.kind, 0) + 1
        line = " ".join(o.argv) + (f"  [{o.error}]" if o.error else "")
        if line not in entry["argvs"]:
            entry["argvs"].append(line)
    return out


# -- set-up ------------------------------------------------------------------------


def setup_probe():
    """Child side of a set-up measurement: import, first calls, report the clock."""
    argvs = json.loads(sys.stdin.read())
    ckn4 = import_program()
    digests = []
    for argv in argvs:
        o = run_report(ckn4.cli, argv)
        digests.append([o.code, o.error, hashlib.sha256(o.stdout.encode()).hexdigest()])
    end = monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"end": end, "rss_mb": rss_mb, "outcomes": digests}))


def measure_setup(argvs) -> tuple[list[float], list[float], list[str]]:
    """Set-up time and peak RSS of SETUP_RUNS fresh interpreters.

    A fresh process making the same calls has the same allocation history,
    so its peak RSS repeats where that of a long run, which depends on how
    the C allocator reused freed blocks, does not.
    """
    times, rss, problems, first = [], [], [], None
    for _ in range(SETUP_RUNS):
        start = monotonic()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                              input=json.dumps(argvs), capture_output=True, text=True,
                              timeout=TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode or 3)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["end"] - start)
        rss.append(result["rss_mb"])
        if first is None:
            first = result["outcomes"]
        elif result["outcomes"] != first:
            problems.append("set-up runs gave different outputs for the same calls")
    return times, rss, problems


# -- provenance --------------------------------------------------------------------


def _openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ckn4").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "CKN_LAB_THREADS")},
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- metrics ----------------------------------------------------------------------


def tail(times):
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 49, -1):
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            return {"percentile": p, "value": xs[k - 1], "beyond": n - k, "samples": n}
    return None


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def machine_ticks():
    """(steal, total) CPU ticks of the whole machine, or None off Linux.

    Steal is time the hypervisor gave this machine's CPUs to other guests;
    a timed pass with a large steal share was slowed from outside.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def timed_pass(cli, deck, seconds):
    outcomes, cycles = [], 0
    ticks0, cpu0, start = machine_ticks(), cpu_seconds(), time.perf_counter()
    while True:
        outcomes += run_cycle(cli, deck)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    wall, cpu, ticks = time.perf_counter() - start, cpu_seconds() - cpu0, machine_ticks()
    steal = None
    if ticks0 and ticks and ticks[1] > ticks0[1]:
        steal = (ticks[0] - ticks0[0]) / (ticks[1] - ticks0[1])
    return outcomes, cycles, wall, cpu, steal


def end_to_end(deck, seconds):
    # set-up is measured in fresh interpreters before this one imports the program
    import_program_check()
    setup, setup_rss, problems = measure_setup(deck.setup_argvs)
    cli = import_program().cli
    run_cycle(cli, deck.setup_argvs)
    reference = run_cycle(cli, deck.argvs)
    refs = {tuple(o.argv): o for o in reference}
    outcomes, cycles, wall, cpu, steal = timed_pass(cli, deck.argvs, seconds)
    problems += check(reference, refs) + check(outcomes, refs)
    times = [o.seconds for o in outcomes]
    failed = sum(not o.verified for o in reference)
    metrics = {
        "setup_s": statistics.median(setup),
        "reports_per_s": len(outcomes) / wall,
        "report_s.p50": statistics.median(times),
        "cpu_s_per_report": cpu / len(outcomes),
        "peak_rss_mb": statistics.median(setup_rss),
    }
    detail = {
        "setup_runs_s": setup,
        "samples": len(outcomes),
        "cycles": cycles,
        "timed_wall_s": wall,
        "cpu_s": cpu,
        "steal_share": steal,
        "setup_rss_mb": setup_rss,
        "run_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_share": failed / len(reference),
        "report_s.tail": tail(times),
        "failures": failures(reference),
        "reference_s": [o.seconds for o in reference],
        "report_s": [o.seconds for o in outcomes],
    }
    return metrics, detail, reference, problems


def layer_metrics(tr, scan_serial):
    self_t = tr.self_times()
    calls, self_s = Counter(), defaultdict(float)
    counts = defaultdict(Counter)
    roots, scan_items = {}, defaultdict(list)
    for s in tr.spans:
        layer = s[tracing.LAYER]
        calls[layer] += 1
        self_s[layer] += self_t[s[tracing.ID]]
        if s[tracing.COUNTS]:
            counts[layer].update(s[tracing.COUNTS])
        if s[tracing.PARENT] is None:
            roots[s[tracing.ID]] = s
        elif s[tracing.NAME] == "cli._run_one":
            scan_items[s[tracing.PARENT]].append(s)
    # a scan report is a root whose _run_one children ran in worker threads
    scans = [(roots[rid], items) for rid, items in scan_items.items()
             if rid in roots and any(i[tracing.THREAD] != roots[rid][tracing.THREAD]
                                     for i in items)]
    scan_wall = sum(r[tracing.END] - r[tracing.START] for r, _ in scans)
    scan_busy = sum(i[tracing.END] - i[tracing.START] for _, items in scans for i in items)

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("forms", "profiles", "calculus", "emden"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m["forms.eval_points"] = counts["forms"]["eval_points"]
    m["profiles.biradial_cells"] = counts["profiles"]["biradial_cells"]
    m["calculus.quad_nodes"] = counts["calculus"]["quad_nodes"]
    a = "spectrum.assemble"
    m.update({f"{a}.calls": calls[a], f"{a}.self_s": self_s[a],
              f"{a}.quad_nodes": counts[a]["quad_nodes"], f"{a}.trial_fns": counts[a]["trial_fns"],
              f"{a}.gram_flops": counts[a]["gram_flops"]})
    e = "spectrum.eig"
    m.update({f"{e}.calls": calls[e], f"{e}.self_s": self_s[e],
              f"{e}.kept_share": share(counts[e]["kept_rank"], counts[e]["nodes"])})
    b = "spectrum.basis"
    m.update({f"{b}.calls": calls[b], f"{b}.self_s": self_s[b], f"{b}.entries": counts[b]["entries"]})
    m["spectrum.other.self_s"] = self_s["spectrum.other"]
    c = "reduction.correction"
    m.update({"reduction.setup.self_s": self_s["reduction.setup"],
              f"{c}.calls": calls[c], f"{c}.self_s": self_s[c],
              f"{c}.iterations": counts[c]["iterations"],
              f"{c}.cache_hit_share": share(counts[c]["cache_hit"], calls[c]),
              "reduction.energy.calls": calls["reduction.energy"],
              "reduction.energy.self_s": self_s["reduction.energy"],
              "reduction.fit.calls": calls["reduction.fit"],
              "reduction.fit.self_s": self_s["reduction.fit"],
              "reduction.solution.self_s": self_s["reduction.solution"],
              "reduction.other.self_s": self_s["reduction.other"]})
    m["cli.self_s"] = self_s["cli"]
    m["cli.scan.workers"] = max((len({i[tracing.THREAD] for i in items}) for _, items in scans),
                                default=0)
    m["cli.scan.overlap"] = share(scan_busy, scan_wall)
    m["cli.scan.serial_s"] = statistics.mean(scan_serial) if scan_serial else 0.0
    return m


def per_layer(deck):
    ckn4 = import_program()
    cli = ckn4.cli
    run_cycle(cli, deck.setup_argvs)
    # each report runs once untraced and once traced, in alternating order,
    # so drift in the machine's speed affects both sides of the overhead alike
    tr = tracing.Tracer()
    targets = tracing.targets(ckn4)
    untraced, traced = [], []
    for i, argv in enumerate(deck.argvs):
        if i % 2:
            untraced.append(run_report(cli, argv))
        tr.install(ckn4, targets)
        try:
            traced.append(run_report(cli, argv, tr, i))
        finally:
            tr.uninstall()
        if not i % 2:
            untraced.append(run_report(cli, argv))
    refs = {tuple(o.argv): o for o in untraced}
    problems = check(untraced, refs) + check(traced, refs)
    # the same scans once more with one worker: the serial baseline of the pool
    scans = [argv for argv in deck.argvs if any(a.startswith("--scan-alpha") for a in argv)]
    before = os.environ.get("CKN_LAB_THREADS")
    os.environ["CKN_LAB_THREADS"] = "1"
    try:
        serial_outcomes = run_cycle(cli, scans)
    finally:
        if before is None:
            del os.environ["CKN_LAB_THREADS"]
        else:
            os.environ["CKN_LAB_THREADS"] = before
    problems += check(serial_outcomes, refs)
    serial = [o.seconds for o in serial_outcomes]
    scan_wall = [o.seconds for o in untraced if o.argv in scans]
    metrics = layer_metrics(tr, serial)
    metrics["cli.scan.wall_s"] = statistics.mean(scan_wall) if scan_wall else 0.0
    traced_wall = sum(o.seconds for o in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_share"] = traced_wall / sum(o.seconds for o in untraced)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{deck.name}-{deck.seed}.jsonl"
    tr.write(spans_path)
    detail = {"samples": len(traced), "spans": len(tr.spans),
              "spans_file": str(spans_path.relative_to(ROOT)),
              "untraced_missing": sorted(tr.missing), "count_errors": sorted(tr.count_errors),
              "failures": failures(traced)}
    return metrics, detail, traced, problems


COUNT_METRICS = ("forms.calls", "forms.eval_points", "profiles.calls", "profiles.biradial_cells",
                 "calculus.calls", "calculus.quad_nodes", "emden.calls",
                 "spectrum.assemble.calls", "spectrum.assemble.quad_nodes",
                 "spectrum.assemble.trial_fns", "spectrum.assemble.gram_flops",
                 "spectrum.eig.calls", "spectrum.eig.kept_share", "spectrum.basis.calls",
                 "spectrum.basis.entries", "reduction.correction.calls",
                 "reduction.correction.iterations", "reduction.correction.cache_hit_share",
                 "reduction.energy.calls", "reduction.fit.calls")


def counts_repeat(name, seed, prov, metrics):
    """Compare the computed counts with an earlier traced run of the same seed and sources."""
    counts = {k: metrics[k] for k in COUNT_METRICS}
    path = OUT / f"counts-{name}-{seed}-{prov['src_sha256'][:12]}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True))
        return "first traced run of this seed and source"
    earlier = json.loads(path.read_text())
    differ = sorted(k for k in counts if earlier.get(k) != counts[k])
    if differ:
        sys.stderr.write(f"computed counts differ from an earlier run: {differ}\n")
        return {"differ": differ}
    return True


# -- output -----------------------------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def table(title, metrics, spec_list, notes):
    lines = [title]
    for entry in spec_list:
        v = metrics[entry["name"]]
        note = notes.get(entry["name"], "")
        lines.append(f"  {entry['name']:<38} {v:>16.6g} {entry['unit']:<8} {note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload == "all":
        return run_all(args)

    spec = load_spec()
    deck = workloads.WORKLOADS[args.workload](args.seed)
    # outcomes: one per distinct report of the deck, those that attempted and
    # failed count
    if args.trace == 0:
        metrics, detail, outcomes, problems = end_to_end(deck, args.seconds)
        spec_list = spec["end_to_end"]
    else:
        metrics, detail, outcomes, problems = per_layer(deck)
        spec_list = spec["per_layer"]
    prov = provenance(args.seed)
    if args.trace == 1:
        detail["counts_repeat"] = counts_repeat(deck.name, args.seed, prov, metrics)
    failed = sum(not o.verified for o in outcomes)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in spec_list},
    }
    full = {"workload": deck.name, "why": deck.why, "trace": args.trace,
            "seconds": args.seconds, "provenance": prov, "points": deck.points,
            "deck_size": len(deck.argvs), "problems": problems, "detail": detail,
            "all_metrics": metrics, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{deck.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, default=str))

    samples = detail["samples"]
    notes = {"report_s.p50": f"median of {samples} reports",
             "reports_per_s": f"{samples} reports in {detail.get('timed_wall_s', 0):.2f} s"
             if args.trace == 0 else ""}
    title = (f"ckn4 benchmark: workload={deck.name} seed={args.seed} trace={args.trace} "
             f"deck={len(deck.argvs)} reports  ({deck.why})")
    print(table(title, metrics, spec_list, notes))
    if args.trace == 0:
        print(f"  {'fail_share':<38} {detail['fail_share']:>16.6g} {'share':<8} "
              f"{failed} of the deck's {len(outcomes)} reports not verified, "
              "each of them on every repeat")
        t = detail["report_s.tail"]
        print(f"  {'report_s.tail':<38} " + (
            f"{t['value']:>16.6g} {'s':<8} p{t['percentile']}, {t['beyond']} of {t['samples']} beyond"
            if t else f"{'omitted':>16} {'s':<8} fewer than 20 reports"))
        print(f"  {'cpu_s':<38} {detail['cpu_s']:>16.6g} {'s':<8} user+sys over the timed pass")
        if detail["steal_share"] is not None:
            print(f"  {'steal_share':<38} {detail['steal_share']:>16.6g} {'share':<8} "
                  "machine CPU time taken by the hypervisor during the timed pass")
        print(f"  {'run_peak_rss_mb':<38} {detail['run_peak_rss_mb']:>16.6g} {'MB':<8} "
              "peak resident memory of this whole run")
    else:
        for key, what in (("untraced_missing", "not in the program, not traced"),
                          ("count_errors", "counts skipped")):
            if detail[key]:
                print(f"  {what}: " + ", ".join(detail[key]))
    for cmd, f in detail["failures"].items():
        print(f"  failed {cmd}: exit_1={f['exit_1']} exit_2={f['exit_2']} "
              f"exception={f['exception']}: " + "; ".join(f["argvs"]))
    for p in problems:
        print(f"  INCORRECT: {p}")
    print(json.dumps({"provenance": prov, "points": deck.points}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, end to end and traced, each in a fresh interpreter."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 3
            print("\n".join(line for line in lines[:-2]))
            ok = ok and json.loads(lines[-1])["correct"]
    print(json.dumps({"correct": ok}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
