"""Seeded report decks for the ckn4 benchmark workloads.

A deck is the list of CLI argument vectors one cycle of a workload sends to
``ckn4.cli.main``.  The same seed always gives the same deck.  Every deck
has a fixed composition (which commands, how many of each); the seed draws
the parameter points and the order.  Seeded points are never filtered or
drawn again: a point where the program fails stays in the deck and counts
as a failed report, once per deck however often the timed pass repeats it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

# the five parameter pairs the test suite exercises
PARAM_SETS = [(5, "1"), (5, "0.5"), (6, "-1"), (3, "1.5"), (7, "-2")]

# position u of alpha inside the admissible interval (4-N, 2) is drawn from
# [U_LO, U_HI]: both ends of the range are reached to within half a percent
U_LO, U_HI = 0.005, 0.995
N_RANGE = (3, 12)


@dataclass
class Deck:
    """One workload cycle: the argument vectors plus what was drawn."""

    name: str
    seed: int
    why: str
    argvs: list
    setup_argvs: list      # one seed-independent call per distinct command
    points: list           # what the seed drew, for the result file


def effective_dimension(N: int, alpha: str) -> float:
    a = float(alpha)
    return 2.0 * (N - a) / (2.0 - a)


def _point(N: int, alpha: str, source: str) -> dict:
    return {"N": N, "alpha": alpha, "M": effective_dimension(N, alpha), "source": source}


def _draw_point(rng: random.Random) -> tuple[int, str]:
    N = rng.randint(*N_RANGE)
    u = rng.uniform(U_LO, U_HI)
    return N, f"{(4 - N) + u * (N - 2):.6g}"


# one seeded spectral point per band of the effective dimension M: next to 4,
# where SGrid is widest (19.5k nodes at 160 trial functions), moderate, and
# large.  Within a band the grid size barely changes, so the cost of a deck
# depends little on the seed.
M_BANDS = [(4.02, 4.2), (5.5, 8.0), (12.0, 40.0)]


def _draw_point_in_M(rng: random.Random, m_lo: float, m_hi: float) -> tuple[int, str]:
    N = rng.randint(*N_RANGE)
    M = rng.uniform(m_lo, m_hi)
    # inverse of M = 2(N - alpha)/(2 - alpha); admissible for every M > 4
    return N, f"{2.0 * (M - N) / (M - 2.0):.6g}"


def _scan_points() -> int:
    """Points per alpha range: one per available core, between 2 and 8.

    With this many points the program's default pool, min(8, points), is
    no larger than the core count.
    """
    return max(2, min(8, len(os.sched_getaffinity(0))))


def _scan_range(rng: random.Random, N: int, alpha: str) -> str:
    """--scan-alpha argument: _scan_points() values from alpha with a seeded step.

    The step points toward the far end of (4-N, 2) and the range covers at
    most 0.9 of the distance to it, so every value is admissible.
    """
    n = _scan_points()
    a0 = float(alpha)
    end = 4 - N if a0 > 0.5 * (6 - N) else 2
    step = min(rng.uniform(0.05, 0.25), 0.9 * abs(end - a0) / (n - 1))
    step = float(f"{math.copysign(step, end - a0):.4g}")
    return f"--scan-alpha={a0:.6g}:{a0 + step * (n - 1):.6g}:{step:.6g}"


def closed_form_sweep(seed: int) -> Deck:
    rng = random.Random(seed)
    argvs, points = [], []
    for _ in range(24):
        N, a = _draw_point(rng)
        points.append(_point(N, a, "seeded"))
        for cmd in ("constants", "verify-extremal", "transform-check"):
            argvs.append([cmd, "--N", str(N), "--alpha", a])
    for _ in range(8):
        N = rng.choice((8, 10, 12))
        a = f"{rng.uniform(0.0, 0.5):.4f}"
        argvs.append(["branch", "--N", str(N), "--a", a])
        points.append({"N": N, "alpha": "-2", "M": effective_dimension(N, "-2"),
                       "source": f"branch a={a}"})
    rng.shuffle(argvs)
    return Deck(
        name="closed_form_sweep",
        seed=seed,
        why="closed-form commands only (params/forms/profiles/calculus/emden); "
            "the control on which spectral and reduction changes must show no change",
        argvs=argvs,
        setup_argvs=[[c, "--N", "5", "--alpha", "1"]
                     for c in ("constants", "verify-extremal", "transform-check")]
                    + [["branch", "--N", "8", "--a", "0.3"]],
        points=points,
    )


def spectral(seed: int) -> Deck:
    rng = random.Random(seed)
    pts = [(N, a, "PARAM_SETS") for N, a in PARAM_SETS]
    pts += [(*_draw_point_in_M(rng, lo, hi), f"seeded, M in [{lo}, {hi}]") for lo, hi in M_BANDS]
    argvs, points = [], []
    scan_N, scan_a = rng.choice(PARAM_SETS)
    scan = _scan_range(rng, scan_N, scan_a)
    argvs.append(["kernel", "--N", str(scan_N), scan, "--k-max", "4"])
    points.append({"N": scan_N, "alpha_scan": scan.split("=")[1], "source": "scan from PARAM_SETS"})
    for N, a, source in pts:
        k = rng.randint(1, 3)
        base = ["--N", str(N), "--alpha", a]
        points.append({**_point(N, a, source), "mode_k": k})
        argvs += [
            ["spectrum", *base, "--nodes", "160", "--mode", "0"],
            ["spectrum", *base, "--nodes", "400", "--mode", "0"],
            ["spectrum", *base, "--nodes", "160", "--mode", str(k)],
            ["kernel", *base, "--k-max", "4"],
            ["remainder", *base],
        ]
    rng.shuffle(argvs)
    return Deck(
        name="spectral",
        seed=seed,
        why="mode-pencil assembly and eigensolve (spectrum), the manifold fit of "
            "remainder, from M near 4 to large M, and one threaded kernel --scan-alpha",
        argvs=argvs,
        setup_argvs=[["spectrum", "--N", "5", "--alpha", "1", "--nodes", "160"],
                     ["kernel", "--N", "5", "--alpha", "1", "--k-max", "4"],
                     ["remainder", "--N", "5", "--alpha", "1"]],
        points=points,
    )


def perturb(seed: int) -> Deck:
    rng = random.Random(seed)
    argvs, points = [], []
    # eps stays at the CLI default: the fixed-point cost moves with eps (about
    # a quarter at (7, -2) between 5e-4 and 2e-3), so a seeded eps would make
    # the deck's cost depend on the seed; the seed sets the order
    for N, a in PARAM_SETS:
        argvs.append(["perturb", "--N", str(N), "--alpha", a, "--h", "exp_bump", "--eps", "1e-3"])
        points.append({**_point(N, a, "PARAM_SETS"), "eps": "1e-3"})
    rng.shuffle(argvs)
    return Deck(
        name="perturb",
        seed=seed,
        why="reduction hot path (correction fixed point, reduced energy); "
            "assembly is under a tenth of it",
        argvs=argvs,
        setup_argvs=[["perturb", "--N", "5", "--alpha", "1", "--h", "exp_bump", "--eps", "1e-3"]],
        points=points,
    )


WORKLOADS = {
    "closed_form_sweep": closed_form_sweep,
    "spectral": spectral,
    "perturb": perturb,
}
