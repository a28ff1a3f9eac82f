"""Golden CLI transcripts: every case in tests/golden/ replays byte for byte.

Each case directory holds ``argv`` (a JSON list), ``stdout``, ``stderr``
and ``exit_code``, written by ``tests/golden/generate.py``.  The case
runs through ``cli.main`` in a fresh directory holding copies of the
folder's spec files, and its exit code and both streams must equal the
recorded ones.  No line is normalised: the recorded commands print no
timings.
"""

import json
import shutil
from pathlib import Path

import pytest

from rankloc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "argv").is_file())


def test_golden_cases_present():
    assert len(CASES) >= 13


@pytest.mark.parametrize("case", CASES)
def test_golden_transcript(case, tmp_path, monkeypatch, capsys):
    folder = GOLDEN / case
    for spec in GOLDEN.glob("*.spec"):
        shutil.copy(spec, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(json.loads((folder / "argv").read_text(encoding="utf-8")))
    out = capsys.readouterr()
    assert code == int((folder / "exit_code").read_text(encoding="utf-8"))
    assert out.out == (folder / "stdout").read_text(encoding="utf-8")
    assert out.err == (folder / "stderr").read_text(encoding="utf-8")
