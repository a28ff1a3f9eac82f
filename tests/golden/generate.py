"""Write the golden CLI transcripts that ``tests/test_golden.py`` replays.

    python3 tests/golden/generate.py

Run by hand, never by the tests.  Each case in ``CASES`` runs through
``rankloc.cli.main`` in a fresh directory holding this folder's spec
files, and its directory here receives four files: ``argv`` (a JSON
list), ``stdout``, ``stderr`` and ``exit_code``.  A change that alters
output on purpose reruns this script, and the diff of this folder is the
statement of what changed.  The package is imported from this checkout's
``src/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from rankloc import cli  # noqa: E402

# case name -> argv; spec paths are relative to the run directory
CASES = {
    "verify_tiny_exact": ["verify", "--spec", "tiny.spec", "--mode", "exact"],
    # the tiny code has 4096 codewords, so the exact scan refuses
    "verify_tiny_exact_budget100": [
        "verify", "--spec", "tiny.spec", "--mode", "exact", "--budget", "100",
    ],
    "verify_ref_exact_refused": ["verify", "--spec", "ref.spec", "--mode", "exact"],
    "verify_ref_sampled_seed0": ["verify", "--spec", "ref.spec", "--mode", "sampled"],
    "verify_ref_sampled_seed1": [
        "verify", "--spec", "ref.spec", "--mode", "sampled", "--seed", "1",
    ],
    "verify_ref_sampled_seed7": [
        "verify", "--spec", "ref.spec", "--mode", "sampled", "--seed", "7",
    ],
    # each local code has 2^18 codewords: past the budget the blocks pair
    # random messages from a pool
    "verify_ref_sampled_budget1000": [
        "verify", "--spec", "ref.spec", "--mode", "sampled", "--budget", "1000",
    ],
    # r = 1 and 64 local messages, so 300 draws hold zero rows to refill
    "verify_tiny_sampled_samples300": [
        "verify", "--spec", "tiny.spec", "--mode", "sampled", "--samples", "300",
    ],
    "verify_tiny_sampled_budget10": [
        "verify", "--spec", "tiny.spec", "--mode", "sampled", "--budget", "10",
    ],
    "verify_refuses_samples0": [
        "verify", "--spec", "tiny.spec", "--mode", "sampled", "--samples", "0",
    ],
    "verify_refuses_budget0": [
        "verify", "--spec", "tiny.spec", "--mode", "exact", "--budget", "0",
    ],
    "verify_refuses_seed_negative": [
        "verify", "--spec", "tiny.spec", "--mode", "sampled", "--seed", "-1",
    ],
    "verify_refuses_seed_2_64": [
        "verify", "--spec", "tiny.spec", "--mode", "sampled", "--seed", str(1 << 64),
    ],
}


def run_case(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` beside copies of the specs."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for spec in HERE.glob("*.spec"):
            shutil.copy(spec, tmp)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    for name, argv in CASES.items():
        code, out, err = run_case(argv)
        case = HERE / name
        case.mkdir(exist_ok=True)
        (case / "argv").write_text(json.dumps(argv) + "\n", encoding="utf-8")
        (case / "stdout").write_text(out, encoding="utf-8")
        (case / "stderr").write_text(err, encoding="utf-8")
        (case / "exit_code").write_text(f"{code}\n", encoding="utf-8")
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    main()
