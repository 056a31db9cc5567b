"""Command-line experiment harness.

Three subcommands:

``run``      one experiment cell: a method on an instance, reported as one row
``sweep``    a grid of cells over horizons and step sizes
``certify``  randomized verification of the weighted telescoping inequality

Rows are CSV by default (JSON with ``--format json``) and reproduce
byte-for-byte for identical flags and seed.  Exit status: 0 when every
reported slack is at or above -1e-9 * B * R, 1 when some bound is violated
(a NaN slack counts as one), 2 for invalid flags or parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
from typing import Iterable

from . import certify as certify_mod
from . import rates, worstcase
from .core import ProblemInstance
from .errors import SubgradLabError

COLUMNS = [
    "method",
    "N",
    "h",
    "B",
    "R",
    "instance",
    "seed",
    "last_gap",
    "best_gap",
    "avg_gap",
    "bound_last",
    "bound_best",
    "slack",
]
SWEEP_COLUMNS = COLUMNS + ["bound_log"]

SLACK_FLOOR = -1e-9

# Most step values one --h-grid may list; the list is built in memory.
MAX_GRID_POINTS = 100_000


class CliError(Exception):
    """Invalid flag combination or parameter value (exit status 2)."""


@contextlib.contextmanager
def _open_out(out: str):
    """Yield the ``--out`` stream: stdout for '-', else the file, opened
    before any cell runs so that a bad path fails at once.  Like shell ``>``,
    a command that fails later leaves the file empty."""
    if out == "-":
        yield sys.stdout
        return
    try:
        with open(out, "w", newline="") as f:
            yield f
    except OSError as exc:
        raise CliError(f"cannot write --out: {exc}") from exc


def _write_rows(rows: list[dict], columns: list[str], fmt: str, out) -> None:
    """CSV (``None`` as an empty field, floats as their repr) or JSON."""
    if fmt == "csv":
        writer = csv.DictWriter(out, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:
        out.write(json.dumps(rows, indent=2) + "\n")


def _check_seed(seed: int) -> int:
    """A ``--seed`` that numpy can seed a generator from."""
    if seed < 0:
        raise CliError(f"--seed must be >= 0, got {seed}")
    return seed


def _custom_steps(args) -> list[float]:
    """The raw steps of ``run --method custom``: the ``--steps-file``, or the
    canonical schedule of a two-step instance at the requested B and R."""
    if args.steps_file is None:
        if args.instance not in ("lemma-i", "lemma-ii"):
            raise CliError("--method custom requires --steps-file")
        return [rates.TWO_STEP_FIRST * args.R / args.B, args.h2 * args.R / args.B]
    try:
        with open(args.steps_file) as f:
            return [float(tok) for tok in f.read().split()]
    except OSError as exc:
        raise CliError(f"cannot read --steps-file: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"--steps-file must hold numbers: {exc}") from exc


def _instance(args, N: int, h: float | None) -> ProblemInstance:
    """The ``--instance`` problem for a cell of horizon N and step h, at the
    requested B and R, once the flags it reads are checked."""
    key = args.instance
    if key == "longstep" and h is None:
        raise CliError("--instance longstep needs a step h (--h or --h-grid)")
    if key in ("lemma-i", "lemma-ii") and args.h2 is None:
        raise CliError(f"--instance {key} requires --h2")
    if key == "random":
        _check_seed(args.seed)
    return worstcase.cell_instance(
        key, N, h, args.method, args.B, args.R, h2=args.h2,
        own_steps=args.steps_file is not None, dim=args.dim, directions=args.directions,
        seed=args.seed,
    )


def _report(args, cells: Iterable[tuple], columns: list[str]) -> int:
    """Open ``--out``, write one row per (N, param, instance, schedule) cell
    and return the exit status: 1, naming the worst cell on stderr, when the
    least slack is below ``SLACK_FLOOR * B * R`` or NaN, else 0."""
    with _open_out(args.out) as out:
        rows = [  # the values naming a cell, then the fields of its Cell, as far as columns go
            dict(zip(columns, (args.method, N, param, p.B, p.R, args.instance, args.seed,
                               *worstcase.cell(p, args.method, N, param, schedule))))
            for N, param, p, schedule in cells
        ]
        _write_rows(rows, columns, args.format, out)
    # a NaN slack shows no bound holds: it counts as the least, and fails
    worst = min(rows, key=lambda row: -math.inf if math.isnan(row["slack"]) else row["slack"])
    if not worst["slack"] >= SLACK_FLOOR * args.B * args.R:
        print(
            f"bound violated: N={worst['N']} h={worst['h']} slack={worst['slack']!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_run(args) -> int:
    N = rates._validate_horizon(args.N)
    p = _instance(args, N, args.h)
    method = worstcase.METHODS[args.method]
    param = None if method.flag is None else getattr(args, method.flag)
    if method.flag is not None and param is None:
        raise CliError(f"--method {args.method} requires --{method.flag}")
    steps = _custom_steps(args) if args.method == "custom" else param
    return _report(args, [(N, param, p, method.schedule(N, steps))], COLUMNS)


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"--N-list must be comma-separated integers: {exc}") from exc
    if not values or any(n < 1 for n in values):
        raise CliError("--N-list needs integers >= 1")
    return values


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError("--h-grid must look like min:max:step")
    try:
        lo, hi, step = (float(tok) for tok in parts)
    except ValueError as exc:
        raise CliError(f"--h-grid must hold numbers: {exc}") from exc
    # The last test catches a cell count that overflows to inf.
    if not (
        0 < lo <= hi < math.inf and 0 < step < math.inf and (hi - lo) / step < math.inf
    ):
        raise CliError("--h-grid needs finite numbers with 0 < min <= max and step > 0")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count > MAX_GRID_POINTS:
        raise CliError(f"--h-grid has {count} points, over the limit {MAX_GRID_POINTS}")
    return [lo + i * step for i in range(count)]


def _cmd_sweep(args) -> int:
    n_values = _parse_n_list(args.N_list)
    has_step = worstcase.METHODS[args.method].flag is not None
    if has_step != (args.h_grid is not None):
        need = "needs" if has_step else "takes no"
        raise CliError(f"--method {args.method} {need} --h-grid")
    grid = _parse_grid(args.h_grid) if has_step else [None]
    rates._validate_scale(args.B, args.R)
    make_schedule = worstcase.METHODS[args.method].schedule
    cells = (  # built lazily, after --out is open
        (N, h, _instance(args, N, h), make_schedule(N, h)) for N in n_values for h in grid
    )
    return _report(args, cells, SWEEP_COLUMNS)


def _cmd_certify(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    N = rates._validate_horizon(args.N)
    seed = _check_seed(args.seed)

    min_slack = least = math.inf
    min_trial = -1
    violations: list[tuple[int, float]] = []
    chunks = certify_mod.trial_slacks(seed, N, range(args.trials), args.force_nonmonotone)
    for trials, slacks in chunks:
        for trial, slack in zip(trials, slacks.tolist()):
            # a NaN slack shows no bound holds: it counts as the least, and fails
            key = -math.inf if math.isnan(slack) else slack
            if key < least:
                least, min_slack, min_trial = key, slack, trial
            if not slack >= SLACK_FLOOR:
                violations.append((trial, slack))

    print(f"certify trials={args.trials} N={N} seed={args.seed}")
    print(f"min slack = {min_slack!r} (trial {min_trial})")
    for trial, slack in violations:
        print(f"VIOLATION: trial {trial} (seed [{args.seed}, {trial}]) slack = {slack!r}")
    if violations:
        return 1
    print(f"OK: all slacks >= {SLACK_FLOOR}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subgradlab",
        description="Last-iterate experiments for projected subgradient methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--B", type=float, default=1.0, help="subgradient norm bound")
        sp.add_argument("--R", type=float, default=1.0, help="initial distance bound")
        sp.add_argument("--seed", type=int, default=0, help="seed for random instances")
        sp.add_argument("--dim", type=int, default=5, help="dimension of random instances")
        sp.add_argument(
            "--directions",
            type=int,
            default=8,
            help="random slope directions (doubled by antipodes)",
        )
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")

    run_p = sub.add_parser("run", help="run one method on one instance")
    run_p.add_argument("--method", choices=worstcase.METHODS, required=True)
    run_p.add_argument("--N", type=int, required=True, help="iteration count")
    run_p.add_argument("--h", type=float, help="normalized step size (constant method)")
    run_p.add_argument("--t", type=float, help="normalized step length (length method)")
    run_p.add_argument("--steps-file", help="file of raw step sizes (custom method)")
    run_p.add_argument("--h2", type=float, help="second step for the two-step instances")
    run_p.add_argument(
        "--instance", choices=("abs", "longstep", "lemma-i", "lemma-ii", "random"),
        required=True,
    )
    common(run_p)
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep a grid of horizons and steps")
    swept = [m for m in worstcase.METHODS if m != "custom"]
    sweep_p.add_argument("--method", choices=swept, default="constant")
    sweep_p.add_argument("--N-list", required=True, help="comma-separated horizons")
    sweep_p.add_argument("--h-grid", help="step grid as min:max:step")
    sweep_p.add_argument(
        "--instance",
        choices=("worstcase", "abs", "longstep", "random"),
        default="worstcase",
        help="'worstcase' picks the tight construction per cell",
    )
    sweep_p.add_argument(
        "--parallel", type=int, default=1,
        help="accepted for compatibility; cells run serially with the same output",
    )
    common(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep, h2=None, steps_file=None)

    cert_p = sub.add_parser("certify", help="randomized inequality verification")
    cert_p.add_argument("--trials", type=int, required=True)
    cert_p.add_argument("--N", type=int, default=10)
    cert_p.add_argument("--seed", type=int, default=0)
    cert_p.add_argument(
        "--force-nonmonotone",
        action="store_true",
        help="debug: feed reversed weights and watch validation reject them",
    )
    cert_p.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, SubgradLabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    """The ``subgradlab`` command: ``main``'s status, or 141 (the shell's
    status of a process ended by SIGPIPE, as ``cat`` ends) when the reader
    closes stdout early, without a traceback."""
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the exit's flush of its unwritten rest succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
