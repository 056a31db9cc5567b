import csv
import io
import json
import math

import pytest

from subgradlab import cli
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
    ]
    for argv in cases:
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err != "", argv


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
def test_unwritable_out_exits_two(tmp_path, capsys, argv, target):
    code, out, err = invoke(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message,n_rows",
    [
        (("run", "--method", "constant", "--N", "2", "--h", "0.1", "--instance", "abs"),
         "bound violated: slack=", 1),
        (("sweep", "--N-list", "2", "--h-grid", "0.1:0.2:0.1", "--instance", "abs"),
         "bound violated: N=2 h=0.1 slack=", 2),
    ],
)
def test_violated_bound_exits_one_and_still_writes_rows(
    capsys, monkeypatch, argv, message, n_rows
):
    broken = cli._METHODS["constant"]._replace(rate=lambda N, h: -1.0)
    monkeypatch.setitem(cli._METHODS, "constant", broken)
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert err.startswith(message)
    header, rows = parse_csv(out)
    assert header[: len(COLUMNS)] == COLUMNS
    assert len(rows) == n_rows
    assert all(float(dict(zip(header, r))["slack"]) < -1e-9 for r in rows)


def test_certify_violation_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.certify_mod, "verify_lemma", lambda *args: LemmaCheck(1.0, 0.0, -1.0)
    )
    code, out, _ = invoke(capsys, "certify", "--trials", "3", "--N", "2", "--seed", "1")
    assert code == 1
    violations = [line for line in out.splitlines() if line.startswith("VIOLATION:")]
    assert violations == [
        f"VIOLATION: trial {t} (seed [1, {t}]) slack = -1.0" for t in range(3)
    ]
    assert "OK:" not in out


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
