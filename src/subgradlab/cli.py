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
import sys
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from . import certify as certify_mod
from . import core, rates, solver, worstcase
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
    draw: Callable[[np.random.Generator, int], Any]  # certify's random param


_METHODS = {
    "constant": _Method(
        "h",
        lambda N, h: solver.StepSchedule.constant_normalized(h),
        lambda N, h: rates.constant_step_rate(N, h),
        lambda rng, N: rng.uniform(0.05, 1.2),
    ),
    "length": _Method(
        "t",
        lambda N, t: solver.StepSchedule.constant_length(t),
        lambda N, t: rates.constant_length_rate(N, t),
        lambda rng, N: rng.uniform(0.05, 1.0),
    ),
    "optimal": _Method(
        None,
        lambda N, _: solver.StepSchedule.optimal_last_iterate(N),
        lambda N, _: rates.optimal_method_rate(N),
        lambda rng, N: None,
    ),
    "optimal-length": _Method(
        None,
        lambda N, _: solver.StepSchedule.optimal_length(N),
        lambda N, _: rates.optimal_method_rate(N),
        lambda rng, N: None,
    ),
    "custom": _Method(
        None,
        lambda N, steps: solver.StepSchedule.custom(steps),
        None,
        lambda rng, N: rng.uniform(0.02, 0.8, N),
    ),
}


# certify's trials cycle through the methods in this order
_CERTIFY_METHODS = tuple(_METHODS.values())


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
    requested B and R.  ``worstcase`` picks the tight construction for the
    cell's side of the knee."""
    key = args.instance
    if key == "worstcase":
        key = "longstep" if h is not None and h > rates.knee(N) else "abs"
    if key == "abs":
        p = worstcase.abs_instance()
    elif key == "longstep":
        if h is None:
            raise CliError("--instance longstep needs a step h (--h or --h-grid)")
        p = worstcase.long_step_instance(N, h, scripted=args.method in ("constant", "length"))
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
        p = worstcase.random_instance(args.dim, args.directions, seed=_check_seed(args.seed))
    return scale_instance(p, args.B, args.R)


def _cell_row(
    args,
    N: int,
    param: float | None,
    p: ProblemInstance,
    schedule: solver.StepSchedule,
    include_log_bound: bool,
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
        "slack": math.nan if any(map(math.isnan, slacks)) else min(slacks),
    }
    if include_log_bound:
        if param is not None and N >= 2:  # the constant-parameter methods
            row["bound_log"] = BR * rates.weakened_rate_bounds(N, param).log_form
        else:
            row["bound_log"] = None
    return row


def _report(args, cells: Iterable[tuple], columns: list[str]) -> int:
    """Open ``--out``, write one row per (N, param, instance, schedule) cell
    and return the exit status: 1, naming the worst cell on stderr, when the
    least slack is below ``SLACK_FLOOR * B * R`` or NaN, else 0."""
    with _open_out(args.out) as out:
        rows = [_cell_row(args, *cell, "bound_log" in columns) for cell in cells]
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
    method = _METHODS[args.method]
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
    has_step = _METHODS[args.method].flag is not None
    if has_step != (args.h_grid is not None):
        need = "needs" if has_step else "takes no"
        raise CliError(f"--method {args.method} {need} --h-grid")
    grid = _parse_grid(args.h_grid) if has_step else [None]
    rates._validate_scale(args.B, args.R)
    make_schedule = _METHODS[args.method].schedule
    cells = (  # built lazily, after --out is open
        (N, h, _instance(args, N, h), make_schedule(N, h)) for N in n_values for h in grid
    )
    return _report(args, cells, SWEEP_COLUMNS)


# Bytes of lock-step state a certify chunk may hold.
CERTIFY_CHUNK_BYTES = 1 << 20

# The largest dimension a certify trial draws; it draws up to 2 * dim
# directions, which random_instance doubles into pieces.
CERTIFY_MAX_DIM = 8


def _chunk_trials(N: int) -> int:
    """Certify trials per chunk at horizon N: as many as fit
    ``CERTIFY_CHUNK_BYTES`` at the largest shapes certify draws (dimension
    ``CERTIFY_MAX_DIM``, four times as many pieces), so memory does not grow
    with ``--trials``.  The count allows each trial its instance twice and
    its trace three times, plus about 2 KB of Python objects.  A chunk holds
    less: its pieces in their own arrays and padded, its lock-step buffers
    and its (trials, N + 2) weight and lemma rows, but no per-trial instance
    or trace.  The tracemalloc peak of ``certify --trials 1000`` is
    0.54-0.59 MiB at N = 5, 10, 20, 50 and 100 (0.87-0.95 MiB when each
    trial kept its instance and a copy of its trace)."""
    d, m = CERTIFY_MAX_DIM, 4 * CERTIFY_MAX_DIM
    trace = (N + 1) * (2 * d + 1) + N
    instance = 2 * m * (d + 3) + 3 * d
    return max(1, CERTIFY_CHUNK_BYTES // (8 * (3 * trace + instance) + 2048))


def _draw(seed: int, trial: int, N: int, build: Callable) -> tuple:
    """Trial ``trial``'s dimension, instance, schedule, unsorted weights v,
    h_last and x_hat (None for x_star, on even trials), drawn from its own
    ``default_rng([seed, trial])`` in a fixed order; the instance is
    ``build(dimension, directions, rng)``."""
    rng = np.random.default_rng([seed, trial])
    dim = int(rng.integers(2, CERTIFY_MAX_DIM + 1))
    instance = build(dim, int(rng.integers(1, 2 * dim + 1)), rng)
    method = _CERTIFY_METHODS[trial % len(_CERTIFY_METHODS)]
    schedule = method.schedule(N, method.draw(rng, N))
    v = rng.uniform(0.05, 2.0, N + 2)
    h_last = float(rng.uniform(0.05, 1.0))
    x_hat = None if trial % 2 == 0 else rng.standard_normal(dim)
    return dim, instance, schedule, v, h_last, x_hat


def _certify_trials(seed: int, trials: range, N: int, reverse: bool) -> list[float]:
    """The slacks of ``trials`` through ``random_instance``, ``run``,
    ``WeightSequence`` and ``verify_lemma``: the path of a chunk that
    ``_certify_chunk`` hands back.  Every trial runs before any is checked,
    so a run error comes first, then a weight or x_hat error, each for the
    first trial that has one."""
    drawn = [_draw(seed, trial, N, worstcase.random_instance) for trial in trials]
    traces = [solver.run(p, schedule, N=N) for _, p, schedule, *_ in drawn]
    slacks = []
    for (_, p, _, v, h_last, x_hat), trace in zip(drawn, traces):
        v = np.sort(v)
        weights = certify_mod.WeightSequence(v[::-1] if reverse else v, h_last=h_last)
        x_hat = p.x_star if x_hat is None else x_hat
        slacks.append(certify_mod.verify_lemma(trace, p, weights, x_hat).slack)
    return slacks


def _sums_of_squares(a: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """``np.add.reduce(r * r)`` of every row r of ``a[t, ..., :dims[t]]``,
    with the bits of the 1-D sum: the trials are grouped by dimension, since
    zero padding changes a sum of 4 to 7 terms once it reaches 8."""
    out = np.zeros(a.shape[:-1])
    for d in set(dims.tolist()):
        sel = dims == d
        rows = a[sel, ..., :d]
        out[sel] = np.add.reduce(rows * rows, axis=-1)
    return out


def _certify_chunk(seed: int, trials: range, N: int, reverse: bool) -> list[float] | None:
    """The slacks of ``trials``, drawn, run and checked as arrays with the
    bits of ``_certify_trials``; None, for ``_certify_trials`` to handle,
    when some run would stop early or raise, an entry is not finite, or an
    x_hat or its answer fails a check of ``verify_lemma``.

    Draw: ``_draw`` makes each trial's draws in the order of
    ``_certify_trials``, its pieces through ``worstcase.random_pieces``,
    which ``random_instance`` wraps, into the chunk's buffers.  Run:
    ``solver.step_together`` steps the chunk and records the piece of every
    answer.  Check: the instance and weight checks run once over the chunk,
    f(x_hat) is one batched answer, and ``certify.lemma_rows`` evaluates
    every trial's inequality at once.  Only BLAS calls stay per trial, since
    a kernel sums in its own order: the gemvs, the two ddots of the start
    point (its normalization and the R check) and the two of the lemma.
    """
    T = len(trials)
    dims = np.empty(T, dtype=np.intp)
    X = np.zeros((T, CERTIFY_MAX_DIM))  # x^1
    x_hat = np.zeros((T, CERTIFY_MAX_DIM))  # x_star = 0 on the even trials
    v = np.empty((T, N + 2))
    h_last = np.empty(T)
    dist = np.empty(T)
    slopes, schedules = [], []
    for t, trial in enumerate(trials):
        dim, (S, x), schedule, v[t], h_last[t], xh = _draw(seed, trial, N, worstcase.random_pieces)
        dims[t] = dim
        slopes.append(S)
        X[t, :dim] = x
        dist[t] = math.sqrt(x.dot(x))  # ||x_start - x_star||, as instance_from_pieces takes it
        schedule.check_supports(N)
        schedules.append(schedule)
        if xh is not None:
            x_hat[t, :dim] = xh
    v.sort(axis=1)
    if reverse:
        v = v[:, ::-1]
    D = int(dims.max())
    X, x_hat = X[:, :D], x_hat[:, :D]

    # the checks of instance_from_pieces, on the unit instances random_instance builds
    batch = solver.PieceBatch(slopes, [np.zeros(len(S)) for S in slopes])
    if not (np.isfinite(batch.slopes).all() and np.isfinite(X).all()):
        return None
    sq = _sums_of_squares(batch.slopes, dims)  # slope_norms ** 2, bit for bit
    core.check_bounds(np.sqrt(sq).max(axis=1), dist, 1.0, 1.0)

    steps = solver.planned_steps(schedules, N)
    by_length = np.array([schedule.by_length for schedule in schedules])
    stepped = solver.step_together(batch, X, steps, by_length, N)
    if stepped is None:
        return None
    values, points, subgradients, pieces = stepped

    # verify_lemma's checks of x_hat: finite, and feasible, at distance 0 from
    # its projection onto the whole space
    if not np.isfinite(x_hat).all() or (core.project_all(x_hat) - x_hat).any():
        return None
    f_hat = np.empty(T)
    if batch.answer(batch.gemvs(x_hat), f_hat) is None:
        return None
    certify_mod.check_weight_rows(v, h_last)

    g_norms_sq = np.empty((T, N + 1))
    g_norms_sq[:, :N] = sq[batch.ar[:, None], pieces[:N].T]  # the rows g^k are slopes
    g_norms_sq[:, N] = [g[:d].dot(g[:d]) for g, d in zip(subgradients[N], dims)]
    check = certify_mod.lemma_rows(
        steps.T, h_last, v, values.T, f_hat, g_norms_sq, _sums_of_squares(points[0] - x_hat, dims)
    )
    return check.slack.tolist()


def _cmd_certify(args) -> int:
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    N = rates._validate_horizon(args.N)
    seed = _check_seed(args.seed)

    min_slack = least = math.inf
    min_trial = -1
    violations: list[tuple[int, float]] = []
    chunk = _chunk_trials(N)
    for first in range(0, args.trials, chunk):
        trials = range(first, min(first + chunk, args.trials))
        slacks = _certify_chunk(seed, trials, N, args.force_nonmonotone)
        if slacks is None:
            slacks = _certify_trials(seed, trials, N, args.force_nonmonotone)
        for trial, slack in zip(trials, slacks):
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
