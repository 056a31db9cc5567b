import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subgradlab import (
    StepSchedule, WeightSequence, certify, cli, constant_length_rate, core, random_instance, run,
    verify_lemma, worstcase,
)
from subgradlab.certify import LemmaCheck
from subgradlab.cli import COLUMNS, SWEEP_COLUMNS, main

HEADER = "method,N,h,B,R,instance,seed,last_gap,best_gap,avg_gap,bound_last,bound_best,slack"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_run_header_and_exit(capsys):
    code, out, err = invoke(
        capsys, "run", "--method", "constant", "--N", "2", "--h", "0.16",
        "--instance", "abs",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["method"] == "constant"
    assert float(row["last_gap"]) == pytest.approx(0.68, abs=1e-12)
    assert float(row["slack"]) >= -1e-9


def test_run_reproducible_bytes(capsys):
    args = (
        "run", "--method", "optimal", "--N", "7", "--instance", "random",
        "--seed", "5", "--dim", "4", "--directions", "6",
    )
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_longstep_tight(capsys):
    code, out, _ = invoke(
        capsys, "run", "--method", "constant", "--N", "5", "--h", "0.3",
        "--instance", "longstep",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["last_gap"]) == pytest.approx(0.525607289377436, abs=1e-12)
    assert float(row["bound_last"]) == pytest.approx(float(row["last_gap"]), abs=1e-9)


def test_run_lemma_instance_default_steps(capsys):
    code, out, _ = invoke(
        capsys, "run", "--method", "custom", "--N", "2", "--h2", "0.2",
        "--instance", "lemma-ii",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["last_gap"]) == pytest.approx(0.5787219649177293, abs=1e-10)
    assert row["bound_last"] == ""


def test_run_json_format(capsys):
    code, out, _ = invoke(
        capsys, "run", "--method", "constant", "--N", "1", "--h", "0.5",
        "--instance", "abs", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert list(payload[0].keys()) == COLUMNS
    assert payload[0]["bound_last"] == pytest.approx(0.75, abs=1e-12)


def test_run_writes_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = invoke(
        capsys, "run", "--method", "constant", "--N", "1", "--h", "0.2",
        "--instance", "abs", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    header, rows = parse_csv(text)
    assert ",".join(header) == HEADER
    assert len(rows) == 1


def test_run_scaled_geometry(capsys):
    code, out, _ = invoke(
        capsys, "run", "--method", "optimal", "--N", "3", "--instance", "abs",
        "--B", "2", "--R", "3",
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["last_gap"]) == pytest.approx(1.5, abs=1e-12)
    assert float(row["bound_last"]) == pytest.approx(3.0, abs=1e-12)


def test_invalid_flags_exit_two(capsys):
    cases = [
        ("run", "--method", "constant", "--N", "2", "--instance", "abs"),
        ("run", "--method", "custom", "--N", "2", "--instance", "abs"),
        ("run", "--method", "constant", "--N", "2", "--h", "0.1",
         "--instance", "longstep"),
        ("run", "--method", "constant", "--N", "0", "--h", "0.1",
         "--instance", "abs"),
        ("run", "--method", "constant", "--N", "2", "--h", "0.1",
         "--instance", "lemma-i"),
        ("run", "--method", "constant", "--N", "2", "--h", "0.1",
         "--instance", "abs", "--B", "-1"),
        ("sweep", "--N-list", "2", "--method", "constant"),
        ("sweep", "--N-list", "", "--method", "constant", "--h-grid", "0.1:0.2:0.1"),
        ("sweep", "--N-list", "2", "--method", "optimal", "--h-grid", "0.1:0.2:0.1"),
        ("sweep", "--N-list", "2", "--method", "constant", "--h-grid", "0.5:0.1:0.1"),
        ("certify", "--trials", "0"),
        ("run", "--method", "optimal", "--N", "3", "--instance", "longstep"),
        ("sweep", "--N-list", "2,x", "--method", "optimal"),
        ("sweep", "--N-list", "2", "--method", "constant", "--h-grid", "0.1:0.2"),
        ("sweep", "--N-list", "2", "--method", "constant", "--h-grid", "0.1:abc:0.1"),
    ]
    for argv in cases:
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--instance", "random", "--method", "optimal", "--N", "3", "--B", "nan"),
        ("run", "--instance", "random", "--method", "optimal", "--N", "3", "--B", "inf"),
        ("sweep", "--instance", "abs", "--method", "optimal", "--N-list", "3",
         "--R", "nan"),
        ("sweep", "--N-list", "2", "--h-grid", "0.1:inf:0.1"),
        ("sweep", "--N-list", "2", "--h-grid", "nan:1:0.1"),
        ("sweep", "--N-list", "2", "--h-grid", "0.1:0.2:inf"),
        ("sweep", "--N-list", "2", "--h-grid", "0.1:1e300:1e-10"),
        ("sweep", "--N-list", "2", "--h-grid", "1e-9:1:1e-9"),
    ],
)
def test_non_finite_parameters_exit_two_without_traceback(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_grid_limit_is_inclusive():
    assert len(cli._parse_grid(f"1:{cli.MAX_GRID_POINTS}:1")) == cli.MAX_GRID_POINTS
    with pytest.raises(cli.CliError, match=f"{cli.MAX_GRID_POINTS + 1} points, over the limit"):
        cli._parse_grid(f"1:{cli.MAX_GRID_POINTS + 1}:1")


@pytest.mark.parametrize(
    "argv,target",
    [
        (("sweep", "--N-list", "2", "--method", "optimal"), "."),
        (("run", "--method", "optimal", "--N", "2", "--instance", "abs"),
         "missing/row.csv"),
    ],
)
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, argv, target):
    runs = []
    monkeypatch.setattr(worstcase, "run", lambda *a, **kw: runs.append(a))
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert runs == []  # the path is opened before any cell runs


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_out_file_matches_stdout(tmp_path, capsys, fmt):
    argv = ("sweep", "--N-list", "1,3", "--h-grid", "0.1:0.5:0.2", "--format", fmt)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    target = tmp_path / f"rows.{fmt}"
    code, file_out, _ = invoke(capsys, *argv, "--out", str(target))
    assert code == 0
    assert file_out == ""
    assert target.read_bytes() == out.encode()


def test_scale_near_one_is_used_as_given(capsys):
    B = "1.0000000000000002"  # the float right after 1.0
    code, out, _ = invoke(
        capsys, "run", "--instance", "random", "--method", "optimal", "--N", "3",
        "--seed", "1", "--B", B,
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["B"] == B
    assert row["R"] == "1.0"


UNIT_RANDOM = ("run", "--instance", "random", "--N", "20", "--seed", "2")


@pytest.mark.parametrize(
    "method,scale",
    [
        (("--method", "constant", "--h", "0.1"), ("--B", "1e-200")),
        (("--method", "constant", "--h", "0.1"), ("--B", "1e-160")),
        (("--method", "optimal"), ("--B", "1e155", "--R", "1e-100")),
        (("--method", "length", "--t", "0.1"), ("--B", "1e200", "--R", "1e-100")),
        # R^2 under- and overflows: bound_best read 0.0 and inf
        (("--method", "optimal"), ("--B", "1e-5", "--R", "1e-300")),
        (("--method", "optimal"), ("--B", "1e100", "--R", "1e160")),
    ],
    ids=["B=1e-200", "B=1e-160", "optimal-B=1e155-R=1e-100", "length-B=1e200-R=1e-100",
         "optimal-B=1e-5-R=1e-300", "optimal-B=1e100-R=1e160"],
)
def test_extreme_scale_is_the_unit_run_times_BR(capsys, method, scale):
    def passing_row(*argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        return dict(zip(header, rows[0]))

    unit = passing_row(*UNIT_RANDOM, *method)
    row = passing_row(*UNIT_RANDOM, *method, *scale)
    BR = float(row["B"]) * float(row["R"])
    assert float(row["last_gap"]) / BR == pytest.approx(float(unit["last_gap"]), rel=1e-12)
    assert float(row["bound_best"]) / BR == pytest.approx(float(unit["bound_best"]), rel=1e-12)


@pytest.mark.parametrize(
    "scale",
    [("--B", "1e155", "--R", "1e155"), ("--B", "1e-200", "--R", "1e-200"), ("--R", "1e-320"),
     ("--B", "1e300", "--R", "1e-100")],
    ids=["BR-overflows", "BR-underflows", "R-subnormal", "R/B-underflows"],
)
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_scale_outside_the_normal_floats_exits_two(capsys, command, scale):
    argv = (
        ("run", "--instance", "random", "--method", "optimal", "--N", "3", "--seed", "1")
        if command == "run"
        else ("sweep", "--instance", "abs", "--method", "optimal", "--N-list", "3")
    )
    code, out, err = invoke(capsys, *argv, *scale)
    assert (code, out) == (2, "")
    assert err.startswith("error: B*R and R/B must be normal floats") and err.count("\n") == 1


def test_huge_steps_give_a_finite_bound(capsys):
    # with B h_k = 1e308, (B h_k)^2 and the sum of the steps overflow unless scaled
    code, out, err = invoke(capsys, "run", "--instance", "abs", "--method", "constant",
                            "--h", "1e308", "--N", "5")
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert (code, err) == (0, "")
    assert row["bound_best"] == "5e+307" and math.isfinite(float(row["slack"]))
    assert float(row["avg_gap"]) == pytest.approx(1e308 / 6, rel=1e-12)
    code, out, err = invoke(capsys, "sweep", "--instance", "abs", "--N-list", "5",
                            "--h-grid", "1e307:1e307:1")
    header, rows = parse_csv(out)
    assert (code, err) == (0, "")
    assert float(dict(zip(header, rows[0]))["bound_best"]) == pytest.approx(5e306, rel=1e-15)


@pytest.mark.parametrize("bound", ["best", "last"])
def test_a_nan_slack_exits_one(capsys, monkeypatch, bound):
    if bound == "best":
        monkeypatch.setattr(worstcase, "best_iterate_bound", lambda *args: math.nan)
    else:
        broken = worstcase.METHODS["optimal"]._replace(rate=lambda N, h: math.nan)
        monkeypatch.setitem(worstcase.METHODS, "optimal", broken)
    code, out, err = invoke(capsys, "sweep", "--instance", "abs", "--method", "optimal",
                            "--N-list", "2,3")
    assert code == 1
    assert err == "bound violated: N=2 h=None slack=nan\n"


@pytest.mark.parametrize(
    "argv,message,n_rows",
    [
        (("run", "--method", "constant", "--N", "2", "--h", "0.1", "--instance", "abs"),
         "bound violated: N=2 h=0.1 slack=", 1),
        (("sweep", "--N-list", "2", "--h-grid", "0.1:0.2:0.1", "--instance", "abs"),
         "bound violated: N=2 h=0.1 slack=", 2),
        # A tight cell whose slack is rounding at B*R = 1e6: not a violation.
        (("sweep", "--instance", "worstcase", "--N-list", "150", "--h-grid", "0.6:0.6:0.1",
          "--B", "1e3", "--R", "1e3"), None, 1),
    ],
)
def test_violated_bound_exits_one_and_still_writes_rows(
    capsys, monkeypatch, argv, message, n_rows
):
    if message is not None:
        broken = worstcase.METHODS["constant"]._replace(rate=lambda N, h: -1.0)
        monkeypatch.setitem(worstcase.METHODS, "constant", broken)
    code, out, err = invoke(capsys, *argv)
    header, rows = parse_csv(out)
    assert header[: len(COLUMNS)] == COLUMNS
    assert len(rows) == n_rows
    rows = [dict(zip(header, r)) for r in rows]
    if message is None:
        assert (code, err) == (0, "")
        for row in rows:
            assert float(row["last_gap"]) == pytest.approx(float(row["bound_last"]), rel=1e-12)
        return
    assert code == 1
    assert err.startswith(message)
    assert all(float(row["slack"]) < -1e-9 for row in rows)


@pytest.mark.parametrize("B, R", [(1.0, 1.0), (2.0, 0.5)])
def test_length_worstcase_sweep_attains_the_rate(capsys, B, R):
    """Above the knee a length run follows the long-step script, so every
    cell's last gap is B R constant_length_rate(N, t) to 1e-9 B R."""
    code, out, err = invoke(
        capsys, "sweep", "--instance", "worstcase", "--method", "length",
        "--N-list", "1,5,50,150", "--h-grid", "0.02:0.6:0.02", "--B", str(B), "--R", str(R),
    )
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert len(rows) == 120
    for row in (dict(zip(header, r)) for r in rows):
        gap, rate = float(row["last_gap"]), float(row["bound_last"])
        assert abs(gap - rate) <= 1e-9 * B * R, row
        assert rate == B * R * constant_length_rate(int(row["N"]), float(row["h"]))


def test_certify_violation_exits_one(capsys, monkeypatch):
    # every trial's lemma, in a chunk or through verify_lemma, is a row of
    # lemma_rows; a NaN slack counts as the least, and as a violation
    for rhs in (0.0, math.nan):
        def violated(steps, h_last, *rest):
            return LemmaCheck(*(np.full(len(h_last), side) for side in (1.0, rhs, rhs - 1.0)))

        monkeypatch.setattr(cli.certify_mod, "lemma_rows", violated)
        code, out, _ = invoke(capsys, "certify", "--trials", "3", "--N", "2", "--seed", "1")
        assert code == 1
        assert f"min slack = {rhs - 1.0!r} (trial 0)" in out.splitlines()
        violations = [line for line in out.splitlines() if line.startswith("VIOLATION:")]
        assert violations == [
            f"VIOLATION: trial {t} (seed [1, {t}]) slack = {rhs - 1.0!r}" for t in range(3)
        ]
        assert "OK:" not in out


def test_certify_counts_one_nan_slack_as_the_least(capsys, monkeypatch):
    rows = cli.certify_mod.lemma_rows

    def nan_in_trial_6(steps, h_last, *rest):
        check = rows(steps, h_last, *rest)
        if len(h_last) > 6:  # the chunk; verify_lemma's rows are batches of one
            check.slack[6] = math.nan
        return check

    monkeypatch.setattr(cli.certify_mod, "lemma_rows", nan_in_trial_6)
    code, out, _ = invoke(capsys, "certify", "--trials", "10", "--N", "3", "--seed", "2")
    assert code == 1
    assert out.splitlines()[1:] == [
        "min slack = nan (trial 6)", "VIOLATION: trial 6 (seed [2, 6]) slack = nan"
    ]


def test_steps_file_roundtrip(tmp_path, capsys):
    steps = tmp_path / "steps.txt"
    steps.write_text("0.2 0.1\n0.05\n")
    code, out, _ = invoke(
        capsys, "run", "--method", "custom", "--N", "3", "--instance", "abs",
        "--steps-file", str(steps),
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    # 1 - 0.2 - 0.1 - 0.05 = 0.65
    assert float(row["last_gap"]) == pytest.approx(0.65, abs=1e-12)


@pytest.mark.parametrize(
    "contents,message",
    [(None, "error: cannot read --steps-file: "),
     ("0.2 abc\n", "error: --steps-file must hold numbers: ")],
    ids=["unreadable", "non-numeric"],
)
def test_bad_steps_file_exits_two(tmp_path, capsys, contents, message):
    steps = tmp_path / "steps.txt"
    if contents is None:
        steps.mkdir()  # opening a directory fails with an OSError
    else:
        steps.write_text(contents)
    code, out, err = invoke(
        capsys, "run", "--method", "custom", "--N", "2", "--instance", "abs",
        "--steps-file", str(steps),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_sweep_grid_shape_and_order(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--N-list", "1,2", "--h-grid", "0.1:0.3:0.1",
        "--method", "constant",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == ",".join(SWEEP_COLUMNS)
    assert len(rows) == 6
    ns = [int(r[1]) for r in rows]
    assert ns == [1, 1, 1, 2, 2, 2]
    hs = [float(r[2]) for r in rows[:3]]
    assert hs == pytest.approx([0.1, 0.2, 0.3], abs=1e-9)


def test_sweep_worstcase_is_tight(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--N-list", "1,2,3", "--h-grid", "0.05:0.5:0.05",
        "--method", "constant",
    )
    assert code == 0
    header, rows = parse_csv(out)
    for r in rows:
        row = dict(zip(header, r))
        assert abs(float(row["slack"])) <= 1e-9 or float(row["slack"]) >= 0


def test_sweep_parallel_matches_serial(capsys):
    base = (
        "sweep", "--N-list", "1,3,5", "--h-grid", "0.05:0.45:0.1",
        "--method", "constant",
    )
    code1, serial, _ = invoke(capsys, *base)
    code2, parallel, _ = invoke(capsys, *base, "--parallel", "4")
    assert code1 == code2 == 0
    assert serial == parallel


def test_sweep_optimal_single_column(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--N-list", "2,4", "--method", "optimal",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 2
    for r in rows:
        row = dict(zip(header, r))
        assert row["h"] == ""
        assert float(row["bound_last"]) == pytest.approx(
            1.0 / math.sqrt(int(row["N"]) + 1), abs=1e-12
        )
        assert row["bound_log"] == ""


def test_sweep_log_bound_column(capsys):
    code, out, _ = invoke(
        capsys, "sweep", "--N-list", "1,4", "--h-grid", "0.2:0.2:0.1",
        "--method", "constant",
    )
    assert code == 0
    header, rows = parse_csv(out)
    byn = {int(dict(zip(header, r))["N"]): dict(zip(header, r)) for r in rows}
    assert byn[1]["bound_log"] == ""
    w = float(byn[4]["bound_log"])
    assert w >= float(byn[4]["bound_last"]) - 1e-12


def test_certify_pass_and_seed_echo(capsys):
    code, out, err = invoke(capsys, "certify", "--trials", "5", "--N", "4",
                            "--seed", "3")
    assert code == 0
    assert "min slack" in out
    assert "OK" in out
    assert err == ""


def test_certify_nonmonotone_rejected(capsys):
    code, _, err = invoke(capsys, "certify", "--trials", "2",
                          "--force-nonmonotone")
    assert code == 2
    assert "monoton" in err.lower() or "non-decreasing" in err.lower()


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _entry_env():
    """The environment for ``python -m subgradlab`` on this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_a_reader_closing_stdout_ends_the_command_quietly():
    """``head -1`` on a sweep of about 150 KB, more than a pipe holds: the
    entry point ends with status 141, not 1 ("bound violated") or 2, and
    prints no traceback."""
    argv = ["sweep", "--instance", "abs", "--method", "constant", "--N-list", "1",
            "--h-grid", "0.001:0.999:0.001"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "subgradlab", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_entry_env(),
    )
    assert proc.stdout.readline().startswith(b"method,N,h,")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert stderr == b""


# --- certify in lock-step chunks against the trial-by-trial loop ---------------------


# certify's step rules and their draws, written out: each draws its parameter
# from the trial's generator, then builds
_SCHEDULE_DRAWS = (
    lambda rng, N: StepSchedule.constant_normalized(rng.uniform(0.05, 1.2)),
    lambda rng, N: StepSchedule.constant_length(rng.uniform(0.05, 1.0)),
    lambda rng, N: StepSchedule.optimal_last_iterate(N),
    lambda rng, N: StepSchedule.optimal_length(N),
    lambda rng, N: StepSchedule.custom(rng.uniform(0.02, 0.8, N)),
)


def _certify_trial_by_trial(trials, N, seed):
    """The certify loop with one ``run`` and one ``verify_lemma`` per trial,
    printing what ``certify`` prints."""
    min_slack, min_trial, violations = math.inf, -1, []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        dim = int(rng.integers(2, 9))
        directions = int(rng.integers(1, 2 * dim + 1))
        p = random_instance(dim, directions, seed=rng)
        trace = run(p, _SCHEDULE_DRAWS[trial % 5](rng, N), N=N)
        v = np.sort(rng.uniform(0.05, 2.0, N + 2))
        weights = WeightSequence(v, h_last=float(rng.uniform(0.05, 1.0)))
        x_hat = p.x_star if trial % 2 == 0 else rng.standard_normal(dim)
        check = verify_lemma(trace, p, weights, x_hat)
        if check.slack < min_slack:
            min_slack, min_trial = check.slack, trial
        if check.slack < cli.SLACK_FLOOR:
            violations.append((trial, check.slack))
    lines = [f"certify trials={trials} N={N} seed={seed}",
             f"min slack = {min_slack!r} (trial {min_trial})"]
    lines += [f"VIOLATION: trial {t} (seed [{seed}, {t}]) slack = {s!r}" for t, s in violations]
    if not violations:
        lines.append(f"OK: all slacks >= {cli.SLACK_FLOOR}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("N", [1, 5, 20])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_certify_lockstep_replays_the_trial_by_trial_loop(capsys, N, seed):
    code, out, err = invoke(capsys, "certify", "--trials", "40", "--N", str(N),
                            "--seed", str(seed))
    assert (code, err) == (0, "")
    assert out == _certify_trial_by_trial(40, N, seed)


@pytest.mark.parametrize("N", [1, 20])
def test_certify_lockstep_replays_across_chunks(capsys, N):
    trials = 2 * certify._chunk_trials(N) + 3
    code, out, _ = invoke(capsys, "certify", "--trials", str(trials), "--N", str(N),
                          "--seed", "7")
    assert code == 0
    assert out == _certify_trial_by_trial(trials, N, 7)


def test_certify_hands_a_chunk_with_a_failing_trial_to_the_trial_by_trial_path(
    capsys, monkeypatch
):
    """A NaN maximum in one trial of the second chunk, which would make run
    raise, sends that chunk through random_instance, run and verify_lemma;
    the output is still the trial-by-trial loop's."""
    N = 5
    chunk = certify._chunk_trials(N)
    threshold = core.active_threshold
    chunk_path, trial_path = certify._certify_chunk, certify._certify_trials
    armed, handed = [], []

    def nan_in_trial_4(fmax):
        thr = threshold(fmax)
        if armed and np.ndim(thr) == 1:
            armed.clear()
            thr[4] = np.nan
        return thr

    def arm_the_second_chunk(seed, trials, *rest):
        if trials.start == chunk:
            armed.append(True)
        return chunk_path(seed, trials, *rest)

    def spy(seed, trials, *rest):
        handed.append(trials)
        return trial_path(seed, trials, *rest)

    monkeypatch.setattr(core, "active_threshold", nan_in_trial_4)
    monkeypatch.setattr(certify, "_certify_chunk", arm_the_second_chunk)
    monkeypatch.setattr(certify, "_certify_trials", spy)
    code, out, err = invoke(capsys, "certify", "--trials", str(2 * chunk + 3), "--N", str(N),
                            "--seed", "7")
    assert (code, err) == (0, "")
    assert handed == [range(chunk, 2 * chunk)] and not armed
    assert out == _certify_trial_by_trial(2 * chunk + 3, N, 7)


@pytest.mark.parametrize("bad", [{2: (2.0, 1.0)}, {2: (1.0, 3.0)}, {5: (2.0, 1.0), 3: (1.0, 3.0)}])
def test_certify_chunk_raises_the_instance_error_of_the_trial_path(monkeypatch, bad):
    """Pieces or a start scaled past the declared B or R fail the chunk's
    instance check with random_instance's error for the first such trial.
    Both paths make their draws unit in worstcase.unit_pieces, the chunk once
    per dimension and random_pieces once per trial, so the scaling sits
    there and finds a trial by its unit start point."""
    starts = {}
    for trial in bad:
        rng = np.random.default_rng([3, trial])
        dim = int(rng.integers(2, 9))
        starts[trial] = worstcase.random_pieces(dim, int(rng.integers(1, 2 * dim + 1)), rng)[1]
    unit = worstcase.unit_pieces

    def scaled(slopes, counts, x):
        drawn = unit(slopes, counts, x)
        for trial, (a, b) in bad.items():
            if x.shape[1] == len(starts[trial]):
                mine = (x == starts[trial]).all(axis=1)
                slopes[mine] *= a
                x[mine] *= b
        return drawn

    monkeypatch.setattr(worstcase, "unit_pieces", scaled)
    errors = []
    for path in (certify._certify_chunk, certify._certify_trials):
        with pytest.raises(ValueError) as exc:
            path(3, range(10), 5, False)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    slopes_scale, _ = bad[min(bad)]
    assert f"exceeds declared {'B' if slopes_scale != 1.0 else 'R'}=1.0" in errors[0]


def test_certify_lockstep_rejects_nonmonotone_weights_before_printing(capsys):
    code, out, err = invoke(capsys, "certify", "--trials", "300", "--N", "3",
                            "--force-nonmonotone")
    assert (code, out) == (2, "")
    assert err == "error: weights must be positive and non-decreasing\n"


def _certify_peak(trials):
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert main(["certify", "--trials", str(trials), "--N", "10"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_certify_memory_does_not_grow_with_trials():
    _certify_peak(5)  # first-call set-up out of the way
    chunk = certify._chunk_trials(10)  # trials per chunk at the N = 10 of _certify_peak
    small, large = _certify_peak(5 * chunk), _certify_peak(20 * chunk)
    assert abs(large - small) <= 0.1 * small


# --- one parser per process; --seed ----------------------------------------------


def test_main_reuses_its_parser_and_prints_what_fresh_calls_print(capsys):
    argvs = [
        ["certify", "--trials", "20", "--N", "3", "--seed", "4"],
        ["run", "--instance", "random", "--method", "optimal", "--N", "5", "--seed", "3",
         "--dim", "3", "--B", "2"],
        ["sweep", "--instance", "random", "--method", "optimal", "--N-list", "2,3"],
        ["run", "--instance", "abs", "--method", "constant", "--N", "4", "--h", "0.1"],
    ]

    def outputs(fresh):
        got = []
        for argv in argvs:
            if fresh:
                cli._build_parser.cache_clear()
            got.append(invoke(capsys, *argv))
        return got

    reused = outputs(False)
    assert cli._build_parser() is cli._build_parser()
    assert reused == outputs(True)
    assert all(code == 0 for code, _, _ in reused)
    assert ",random,0," in reused[2][1]  # sweep's default seed, after run --seed 3


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--instance", "random", "--method", "optimal", "--N", "3", "--seed", "-1"],
        ["sweep", "--instance", "random", "--method", "optimal", "--N-list", "2",
         "--seed", "-5"],
        ["certify", "--trials", "3", "--seed", "-1"],
    ],
)
def test_negative_seed_names_the_flag(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    seed = argv[argv.index("--seed") + 1]
    assert (code, err) == (2, f"error: --seed must be >= 0, got {seed}\n")
    assert "," not in out


def test_negative_seed_is_echoed_where_no_seed_is_drawn(capsys):
    code, out, _ = invoke(capsys, "run", "--instance", "abs", "--method", "optimal",
                          "--N", "3", "--seed", "-1")
    header, rows = parse_csv(out)
    assert code == 0 and dict(zip(header, rows[0]))["seed"] == "-1"


def test_an_overflowing_run_exits_two_with_a_message(tmp_path, capsys):
    # steps of 1.7e308 on 2|x| overflow x to -inf, where the maximum is +inf
    steps = tmp_path / "steps.txt"
    steps.write_text("1.7e308 1.7e308 1.7e308\n")
    code, out, err = invoke(capsys, "run", "--instance", "abs", "--method", "custom",
                            "--N", "3", "--steps-file", str(steps), "--B", "2")
    assert (code, out) == (2, "")
    assert err == ("error: iteration 2: no piece is active at the queried point, "
                   "where the maximum is inf\n")


@pytest.mark.parametrize("R", ["1", "3"])
@pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]],
                         ids=["plain", "W-error"])
def test_an_overflowing_run_prints_one_error_line_through_the_entry_point(
    tmp_path, flags, R
):
    """No numpy overflow warning before the error line, and under ``-W error``
    no traceback with status 1, the "bound violated" status."""
    steps = tmp_path / "steps.txt"
    steps.write_text("1.7e308 1.7e308 1.7e308\n")
    argv = ["run", "--instance", "abs", "--method", "custom", "--N", "3",
            "--steps-file", str(steps), "--B", "2", "--R", R]
    proc = subprocess.run([sys.executable, *flags, "-m", "subgradlab", *argv],
                          capture_output=True, text=True, env=_entry_env(), timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: iteration 2: no piece is active at the queried point, "
                           "where the maximum is inf\n")
