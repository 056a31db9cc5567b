"""The README's examples run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from subgradlab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def test_library_sketch_runs():
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})


def test_cli_examples_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [
        line
        for lang, body in BLOCKS
        if lang == "sh"
        for line in body.splitlines()
        if line.startswith("subgradlab ")
    ]
    assert len(lines) == 4
    outputs = []
    for line in lines:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(shlex.split(line)[1:]) == 0, line
        outputs.append(buf.getvalue())

    # The first example's row, as the README shows it up to its "...".
    shown = next(body for lang, body in BLOCKS if lang == "" and body.startswith("method,"))
    expected = shown.splitlines()[1].removesuffix("...")
    assert expected == "constant,5,0.3,1.0,1.0,longstep,0,0.525607289377436,"
    assert outputs[0].splitlines()[1].startswith(expected)
    assert (tmp_path / "sweep.json").is_file()
