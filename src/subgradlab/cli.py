"""Command-line experiment harness.

Three subcommands:

``run``      one experiment cell: a method on an instance, reported as one row
``sweep``    a grid of cells over horizons and step sizes
``certify``  randomized verification of the weighted telescoping inequality

Rows are CSV by default (JSON with ``--format json``) and reproduce
byte-for-byte for identical flags and seed.  Exit status: 0 when every
reported slack is above -1e-9, 1 when some bound is violated, 2 for invalid
flags or parameters.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Any, Callable, NamedTuple

import numpy as np

from . import certify as certify_mod
from . import rates, solver, worstcase
from .core import ProblemInstance, scale_instance
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


class _Method(NamedTuple):
    flag: str | None  # the `run` flag holding the step parameter
    schedule: Callable[[int, Any], solver.StepSchedule]  # from (N, param)
    rate: Callable[[int, Any], float] | None  # last-iterate rate per B*R


_METHODS = {
    "constant": _Method(
        "h",
        lambda N, h: solver.StepSchedule.constant_normalized(h),
        lambda N, h: rates.constant_step_rate(N, h),
    ),
    "length": _Method(
        "t",
        lambda N, t: solver.StepSchedule.constant_length(t),
        lambda N, t: rates.constant_length_rate(N, t),
    ),
    "optimal": _Method(
        None,
        lambda N, _: solver.StepSchedule.optimal_last_iterate(N),
        lambda N, _: rates.optimal_method_rate(N),
    ),
    "optimal-length": _Method(
        None,
        lambda N, _: solver.StepSchedule.optimal_length(N),
        lambda N, _: rates.optimal_method_rate(N),
    ),
    "custom": _Method(None, lambda N, steps: solver.StepSchedule.custom(steps), None),
}


class CliError(Exception):
    """Invalid flag combination or parameter value (exit status 2)."""


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(rows: list[dict], columns: list[str], fmt: str, out: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        payload = buf.getvalue()
    else:
        payload = json.dumps(
            [{c: row[c] for c in columns} for row in rows], indent=2
        )
        payload += "\n"
    if out == "-":
        sys.stdout.write(payload)
    else:
        try:
            with open(out, "w", newline="") as f:
                f.write(payload)
        except OSError as exc:
            raise CliError(f"cannot write --out: {exc}") from exc


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


def _instance(args, N: int, h: float | None, shared_random=None) -> ProblemInstance:
    """The ``--instance`` problem for a cell of horizon N and step h, at the
    requested B and R.  ``worstcase`` picks the tight construction for the
    cell's side of the knee; ``shared_random`` stands in for a fresh random
    instance."""
    B, R = rates._validate_scale(args.B, args.R)
    key = args.instance
    if key == "worstcase":
        key = "longstep" if h is not None and h > rates.knee(N) else "abs"
    if key == "abs":
        return worstcase.abs_instance(B, R)
    if key == "longstep":
        if h is None:
            raise CliError("--instance longstep needs a step h (--h or --h-grid)")
        p = worstcase.long_step_instance(N, h, scripted=args.method == "constant")
    elif key in ("lemma-i", "lemma-ii"):
        if args.h2 is None:
            raise CliError(f"--instance {key} requires --h2")
        make = (
            worstcase.two_step_worst_small
            if key == "lemma-i"
            else worstcase.two_step_worst_long
        )
        scripted = args.method == "custom" and N == 2 and args.steps_file is None
        p = make(args.h2, scripted=scripted)
    else:
        p = shared_random or worstcase.random_instance(
            args.dim, args.directions, seed=args.seed
        )
    normalized = abs(B - 1.0) <= 1e-15 and abs(R - 1.0) <= 1e-15
    return p if normalized else scale_instance(p, B, R)


def _cell_row(
    args,
    N: int,
    param: float | None,
    p: ProblemInstance,
    schedule: solver.StepSchedule,
    include_log_bound: bool = False,
) -> dict:
    trace = solver.run(p, schedule, N=N)
    BR = p.B * p.R
    lastg = solver.last_gap(trace, p)
    bestg = solver.best_gap(trace, p)
    extended = np.append(trace.steps, trace.steps[-1])
    avgg = solver.avg_gap(trace, p, extended)
    bound_best = solver.best_iterate_bound(extended, p.B, p.R)

    rate = _METHODS[args.method].rate
    bound_last = None if rate is None else BR * rate(N, param)

    slacks = [bound_best - bestg]
    if bound_last is not None:
        slacks.append(bound_last - lastg)
    row = {
        "method": args.method,
        "N": N,
        "h": param,
        "B": p.B,
        "R": p.R,
        "instance": args.instance,
        "seed": args.seed,
        "last_gap": lastg,
        "best_gap": bestg,
        "avg_gap": avgg,
        "bound_last": bound_last,
        "bound_best": bound_best,
        "slack": min(slacks),
    }
    if include_log_bound:
        if param is not None and N >= 2:  # the constant-parameter methods
            row["bound_log"] = BR * rates.weakened_rate_bounds(N, param).log_form
        else:
            row["bound_log"] = None
    return row


def _cmd_run(args) -> int:
    N = rates._validate_horizon(args.N)
    p = _instance(args, N, args.h)
    method = _METHODS[args.method]
    param = None if method.flag is None else getattr(args, method.flag)
    if method.flag is not None and param is None:
        raise CliError(f"--method {args.method} requires --{method.flag}")
    steps = _custom_steps(args) if args.method == "custom" else param
    row = _cell_row(args, N, param, p, method.schedule(N, steps))
    _write_rows([row], COLUMNS, args.format, args.out)
    if row["slack"] < SLACK_FLOOR:
        print(
            f"bound violated: slack={row['slack']!r} below {SLACK_FLOOR}",
            file=sys.stderr,
        )
        return 1
    return 0


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
    has_step = _METHODS[args.method].flag is not None
    if has_step != (args.h_grid is not None):
        need = "needs" if has_step else "takes no"
        raise CliError(f"--method {args.method} {need} --h-grid")
    grid = _parse_grid(args.h_grid) if has_step else [None]
    shared_random = None
    if args.instance == "random":
        shared_random = worstcase.random_instance(
            args.dim, args.directions, seed=args.seed
        )

    make_schedule = _METHODS[args.method].schedule
    rows = [
        _cell_row(
            args, N, h, _instance(args, N, h, shared_random), make_schedule(N, h),
            include_log_bound=True,
        )
        for N in n_values
        for h in grid
    ]
    _write_rows(rows, SWEEP_COLUMNS, args.format, args.out)
    worst = min(row["slack"] for row in rows)
    if worst < SLACK_FLOOR:
        bad = next(r for r in rows if r["slack"] == worst)
        print(
            f"bound violated: N={bad['N']} h={bad['h']} slack={worst!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_certify(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    N = rates._validate_horizon(args.N)

    draws = (  # each method's step parameter, drawn in trial order
        ("constant", lambda rng: rng.uniform(0.05, 1.2)),
        ("length", lambda rng: rng.uniform(0.05, 1.0)),
        ("optimal", lambda rng: None),
        ("optimal-length", lambda rng: None),
        ("custom", lambda rng: rng.uniform(0.02, 0.8, N)),
    )
    min_slack = math.inf
    min_trial = -1
    violations: list[tuple[int, float]] = []
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        dim = int(rng.integers(2, 9))
        directions = int(rng.integers(1, 2 * dim + 1))
        p = worstcase.random_instance(dim, directions, seed=rng)
        method, draw = draws[trial % len(draws)]
        schedule = _METHODS[method].schedule(N, draw(rng))
        trace = solver.run(p, schedule, N=N)

        v = np.sort(rng.uniform(0.05, 2.0, N + 2))
        if args.force_nonmonotone:
            v = v[::-1]
        weights = certify_mod.WeightSequence(v, h_last=float(rng.uniform(0.05, 1.0)))
        x_hat = p.x_star if trial % 2 == 0 else rng.standard_normal(dim)
        check = certify_mod.verify_lemma(trace, p, weights, x_hat)
        if check.slack < min_slack:
            min_slack = check.slack
            min_trial = trial
        if check.slack < SLACK_FLOOR:
            violations.append((trial, check.slack))

    print(f"certify trials={args.trials} N={N} seed={args.seed}")
    print(f"min slack = {min_slack!r} (trial {min_trial})")
    for trial, slack in violations:
        print(f"VIOLATION: trial {trial} (seed [{args.seed}, {trial}]) slack = {slack!r}")
    if violations:
        return 1
    print(f"OK: all slacks >= {SLACK_FLOOR}")
    return 0


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
    run_p.add_argument("--method", choices=_METHODS, required=True)
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
    swept = [m for m in _METHODS if m != "custom"]
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
    sweep_p.set_defaults(func=_cmd_sweep)

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
    sys.exit(main())
