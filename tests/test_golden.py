"""Byte-for-byte output gate for a fixed set of CLI commands.

The expected stdout files under ``tests/golden/`` were written by the CLI
itself; a refactor or speed-up of any layer must leave them unchanged.  To
regenerate one after an intended output change, run the command below with
``python -m subgradlab`` and redirect stdout to the file.
"""

from pathlib import Path

import pytest

from subgradlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

WORSTCASE_SWEEP = (
    "sweep", "--instance", "worstcase", "--N-list", "1,5,50,150",
    "--h-grid", "0.02:0.6:0.02",
)

CASES = {
    "sweep_worstcase_constant.csv": (*WORSTCASE_SWEEP, "--method", "constant"),
    "sweep_worstcase_length.csv": (*WORSTCASE_SWEEP, "--method", "length"),
    "sweep_worstcase_constant_scaled.csv": (
        *WORSTCASE_SWEEP, "--method", "constant", "--B", "2", "--R", "0.5",
    ),
    "run_random_length.csv": (
        "run", "--instance", "random", "--method", "length", "--N", "2000",
        "--dim", "8", "--directions", "16", "--t", "0.1", "--B", "2", "--R", "3",
    ),
    "certify.txt": ("certify", "--trials", "50", "--N", "10", "--seed", "3"),
    "run_lemma_ii_custom_scaled.csv": (
        "run", "--instance", "lemma-ii", "--method", "custom", "--N", "2",
        "--h2", "0.3", "--B", "2", "--R", "3",
    ),
    "run_lemma_i_custom.csv": (
        "run", "--instance", "lemma-i", "--method", "custom", "--N", "2", "--h2", "0.05",
    ),
    "run_longstep_length.csv": (
        "run", "--instance", "longstep", "--method", "length", "--h", "0.3",
        "--t", "0.2", "--N", "5",
    ),
    "sweep_random_optimal_length.json": (
        "sweep", "--method", "optimal-length", "--N-list", "3,7,40", "--instance",
        "random", "--dim", "6", "--directions", "5", "--B", "2", "--R", "3",
        "--format", "json",
    ),
    "sweep_abs_optimal_scaled.csv": (
        "sweep", "--method", "optimal", "--N-list", "3,7,40", "--instance", "abs",
        "--B", "2", "--R", "3",
    ),
    "sweep_longstep_length_scaled.csv": (
        "sweep", "--method", "length", "--instance", "longstep", "--N-list", "4,9",
        "--h-grid", "0.3:0.5:0.1", "--B", "0.7", "--R", "1.3",
    ),
    "certify_300.txt": ("certify", "--trials", "300", "--N", "7", "--seed", "9"),
    "certify_n20.txt": ("certify", "--trials", "200", "--N", "20", "--seed", "11"),
    # two chunks of trials at N = 20
    "certify_n20_1000.txt": ("certify", "--trials", "1000", "--N", "20", "--seed", "11"),
    "run_random_constant_unscaled.csv": (
        "run", "--instance", "random", "--method", "constant", "--N", "20000",
        "--dim", "32", "--directions", "64", "--h", "0.1", "--seed", "4",
    ),
    "run_random_optimal_length_scaled.csv": (
        "run", "--instance", "random", "--method", "optimal-length", "--N", "5000",
        "--dim", "2", "--directions", "4", "--seed", "5", "--B", "2", "--R", "3",
    ),
    # one scale left at 1.0: the oracle skips only the other's multiply or divide
    "sweep_longstep_length_B2.csv": (
        "sweep", "--method", "length", "--instance", "longstep", "--N-list", "4,9",
        "--h-grid", "0.3:0.5:0.1", "--B", "2",
    ),
    "run_random_constant_R3.csv": (
        "run", "--instance", "random", "--method", "constant", "--N", "2000",
        "--dim", "8", "--directions", "16", "--h", "0.1", "--R", "3",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
