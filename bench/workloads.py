"""The benchmark's workloads: seeded CLI operations and checks on their output.

An operation is one ``subgradlab`` command line.  Each workload yields its
operations in blocks.  A block holds a fixed, balanced mix of operation
shapes (horizons, methods, scalings) in a seeded order with seeded
continuous parameters, so any run of whole blocks has the same mix whatever
the seed.  Block ``b`` of seed ``n`` is the same on every machine.

The checks recompute what they can without trusting the program: the rate
formulas are evaluated here from the benchmark's own s_{k+1} = s_k + 1/s_k
loop, and the program's ``slack`` column is never read.

This module imports neither numpy nor subgradlab.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

SLACK_FLOOR = -1e-9
TIGHT_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One command line plus the parameters its check needs."""

    argv: tuple[str, ...]
    params: dict


@dataclass(frozen=True)
class Workload:
    """``tail_pct`` is the tail percentile reported; a run holds at least
    :attr:`min_ops` operations so that ten or more lie beyond it.  A traced run
    covers the first ``trace_blocks`` blocks.  ``largest_share`` names the
    call of ``cli.main`` predicted to take the largest share of the time,
    and ``builds_long_step`` whether long-step instances are built at all."""

    name: str
    why: str
    make_block: Callable[[random.Random, random.Random, int], list[Op]]
    check: Callable[[Op, int, str, "SequenceReference"], str | None]
    tail_pct: int
    trace_blocks: int
    largest_share: str | None
    builds_long_step: bool

    @property
    def min_ops(self) -> int:
        """Fewest operations with ten beyond the nearest-rank ``tail_pct``."""
        return -(-1000 // (100 - self.tail_pct))

    def block(self, seed: int, index: int) -> list[Op]:
        """Block ``index`` of ``seed``.  The discrete mix (horizons, methods,
        scalings) does not depend on the seed; the seed picks the order of
        operations and their continuous parameters."""
        return self.make_block(random.Random(f"{self.name}/{seed}"),
                               random.Random(f"{self.name}/{seed}/{index}"), index)

    def opening(self, seed: int) -> list[Op]:
        """The first whole blocks that reach ``min_ops``; every run does them."""
        ops: list[Op] = []
        index = 0
        while len(ops) < self.min_ops:
            ops += self.block(seed, index)
            index += 1
        return ops


class SequenceReference:
    """s_{1,k} from the recursion, kept in a list that grows on demand."""

    def __init__(self):
        self.values = [1.0]

    def s(self, k: int) -> float:
        values = self.values
        while len(values) < k:
            last = values[-1]
            values.append(last + 1.0 / last)
        return values[k - 1]

    def constant_step_rate(self, N: int, h: float) -> float:
        """Worst-case last-iterate gap of N constant normalized steps h, per B*R."""
        s2 = self.s(N + 1) ** 2
        if h <= 1.0 / s2:
            return 1.0 - N * h
        return (0.5 * s2 - N) * h + 1.0 / (2.0 * s2 * h)


def _parse_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


# --- sweep_worstcase ----------------------------------------------------------

SWEEP_NS = (1, 2, 5, 10, 20, 50, 100, 150, 200)
SWEEP_STEP = 0.02
SWEEP_POINTS = 30


def _sweep_block(order: random.Random, rng: random.Random, index: int) -> list[Op]:
    ops = []
    for i, N in enumerate(SWEEP_NS):
        for j in range(4):
            method = "length" if j == 3 else "constant"
            scaled = j == i % 4
            lo = round(0.02 + rng.uniform(0.0, SWEEP_STEP), 6)
            # half a step past the last point keeps the grid at 30 points
            hi = round(lo + (SWEEP_POINTS - 0.5) * SWEEP_STEP, 6)
            B, R = (2.0, 0.5) if scaled else (1.0, 1.0)
            argv = [
                "sweep", "--instance", "worstcase", "--method", method,
                "--N-list", str(N), "--h-grid", f"{lo!r}:{hi!r}:{SWEEP_STEP!r}",
            ]
            if scaled:
                argv += ["--B", "2", "--R", "0.5"]
            ops.append(Op(tuple(argv), {"shape": len(ops), "method": method, "N": N,
                                        "lo": lo, "B": B, "R": R}))
    order.shuffle(ops)
    return ops


def _check_sweep(op: Op, rc: int, stdout: str, ref: SequenceReference) -> str | None:
    if rc != 0:
        return f"exit status {rc}"
    q = op.params
    rows = _parse_rows(stdout)
    if len(rows) != SWEEP_POINTS:
        return f"{len(rows)} rows, expected {SWEEP_POINTS}"
    BR = q["B"] * q["R"]
    for i, row in enumerate(rows):
        h = _num(row["h"])
        if row["method"] != q["method"] or int(row["N"]) != q["N"]:
            return f"row {i} echoes method={row['method']} N={row['N']}"
        if _num(row["B"]) != q["B"] or _num(row["R"]) != q["R"]:
            return f"row {i} echoes B={row['B']} R={row['R']}"
        if abs(h - (q["lo"] + i * SWEEP_STEP)) > 1e-12:
            return f"row {i} has h={h}, off the requested grid"
        last, best = _num(row["last_gap"]), _num(row["best_gap"])
        rate = BR * ref.constant_step_rate(q["N"], h)
        if q["method"] == "constant":
            if not abs(last - rate) <= TIGHT_TOL * BR:
                return f"row {i}: last_gap {last!r} misses the tight rate {rate!r}"
        elif not last <= rate + TIGHT_TOL * BR:
            return f"row {i}: last_gap {last!r} exceeds the rate {rate!r}"
        if not best <= _num(row["bound_best"]) + TIGHT_TOL:
            return f"row {i}: best_gap {best!r} exceeds bound_best {row['bound_best']}"
    return None


# --- certify_random -------------------------------------------------------------

CERTIFY_NS = (5, 10, 20)
CERTIFY_TRIALS = 100


def _certify_block(order: random.Random, rng: random.Random, index: int) -> list[Op]:
    ops = []
    for N in CERTIFY_NS:
        for _ in range(10):
            seed = rng.randrange(2**31)
            argv = ("certify", "--trials", str(CERTIFY_TRIALS), "--N", str(N), "--seed", str(seed))
            ops.append(Op(argv, {"shape": len(ops), "trials": CERTIFY_TRIALS, "N": N, "seed": seed}))
    order.shuffle(ops)
    return ops


def _check_certify(op: Op, rc: int, stdout: str, ref: SequenceReference) -> str | None:
    if rc != 0:
        return f"exit status {rc}"
    q = op.params
    lines = stdout.splitlines()
    if not lines or lines[0] != f"certify trials={q['trials']} N={q['N']} seed={q['seed']}":
        return "missing or wrong header line"
    if any(line.startswith("VIOLATION") for line in lines):
        return "violation reported"
    if not any(line.startswith("OK:") for line in lines):
        return "no OK line"
    slack_lines = [line for line in lines if line.startswith("min slack = ")]
    if len(slack_lines) != 1:
        return "no min slack line"
    slack = float(slack_lines[0].split()[3])
    if not slack >= SLACK_FLOOR:
        return f"min slack {slack!r} below {SLACK_FLOOR}"
    return None


# --- run_long ---------------------------------------------------------------------

RUN_DIMS = (2, 8, 32)
RUN_DIRECTIONS = (4, 16, 64)
RUN_METHODS = ("constant", "length", "optimal", "optimal-length")
RUN_N_LO, RUN_N_HI = 2000, 20000


def _run_block(order: random.Random, rng: random.Random, index: int) -> list[Op]:
    shapes = [
        (a, b, scaled)
        for a in range(len(RUN_DIMS))
        for b in range(len(RUN_METHODS))
        for scaled in (False, True)
    ]
    # Each block draws one horizon from each of len(shapes) equal strata of
    # [RUN_N_LO, RUN_N_HI).  The eight shapes of one dimension take every
    # third stratum, so each block holds the same spread of horizons at every
    # dimension and costs about the same as any other; a run of any number
    # of blocks then has the same mix.  The assignment rotates from block to
    # block, so every shape meets low, middle and high horizons.
    width = (RUN_N_HI - RUN_N_LO) / len(shapes)
    per_dim = len(shapes) // len(RUN_DIMS)
    ops = []
    for i, (a, b, scaled) in enumerate(shapes):
        stratum = (len(RUN_DIMS) * ((i % per_dim + 3 * index) % per_dim)
                   + (a + index) % len(RUN_DIMS))
        N = int(RUN_N_LO + (stratum + rng.random()) * width)
        dim = RUN_DIMS[a]
        directions = RUN_DIRECTIONS[(a + b) % len(RUN_DIRECTIONS)]
        method = RUN_METHODS[b]
        seed = rng.randrange(2**31)
        argv = [
            "run", "--instance", "random", "--method", method, "--N", str(N),
            "--dim", str(dim), "--directions", str(directions), "--seed", str(seed),
        ]
        step = None
        if method in ("constant", "length"):
            step = round(rng.uniform(0.01, 0.3), 6)
            argv += ["--h" if method == "constant" else "--t", repr(step)]
        B, R = (2.0, 3.0) if scaled else (1.0, 1.0)
        if scaled:
            argv += ["--B", "2", "--R", "3"]
        ops.append(Op(tuple(argv), {"shape": len(ops), "method": method, "N": N,
                                    "step": step, "B": B, "R": R}))
    order.shuffle(ops)
    return ops


def _check_run(op: Op, rc: int, stdout: str, ref: SequenceReference) -> str | None:
    if rc != 0:
        return f"exit status {rc}"
    q = op.params
    rows = _parse_rows(stdout)
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    row = rows[0]
    if row["method"] != q["method"] or int(row["N"]) != q["N"]:
        return f"row echoes method={row['method']} N={row['N']}"
    BR = q["B"] * q["R"]
    last, best = _num(row["last_gap"]), _num(row["best_gap"])
    bound_last, bound_best = _num(row["bound_last"]), _num(row["bound_best"])
    if q["method"] in ("optimal", "optimal-length"):
        expected = BR / math.sqrt(q["N"] + 1)
        if not abs(bound_last - expected) <= 1e-12 * BR:
            return f"bound_last {bound_last!r} is not B*R/sqrt(N+1) = {expected!r}"
    else:
        expected = BR * ref.constant_step_rate(q["N"], q["step"])
        if not abs(bound_last - expected) <= TIGHT_TOL * BR:
            return f"bound_last {bound_last!r} is not the rate {expected!r}"
    if not last <= bound_last + TIGHT_TOL:
        return f"last_gap {last!r} exceeds bound_last {bound_last!r}"
    if not best <= bound_best + TIGHT_TOL:
        return f"best_gap {best!r} exceeds bound_best {bound_best!r}"
    return None


# Each workload stresses different layers; see ``why``.  The tail percentile
# is fixed per workload, so that runs of different lengths report the same
# one, and sits inside a group of operations of similar cost (sweep: the
# N = 150 sweeps; certify: the N = 20 runs; run_long: the top strata), where
# machine noise moves it least.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_worstcase",
            "worst-case sweeps over N up to 200: long-step instance builds, s() calls "
            "and (N+2)x(N+1) oracle matmuls dominate; small N shows per-cell CLI and rates cost",
            _sweep_block, _check_sweep, tail_pct=85, trace_blocks=1,
            largest_share="worstcase.long_step_instance", builds_long_step=True,
        ),
        Workload(
            "certify_random",
            "thousands of tiny random instances and short runs: per-call overhead in "
            "instance setup, run setup, weights and verify_lemma; no long-step builds",
            _certify_block, _check_certify, tail_pct=90, trace_blocks=3,
            largest_share=None, builds_long_step=False,
        ),
        Workload(
            "run_long",
            "single trajectories of 2k-20k iterations on random instances, half of them "
            "scaled: the solver's per-iteration path dominates and nothing can be batched",
            _run_block, _check_run, tail_pct=85, trace_blocks=1,
            largest_share="solver.run", builds_long_step=False,
        ),
    )
}
