"""Self-test of the benchmark, in short mode (about a minute on two cores).

    python3 -m pytest -q rankbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHORT = "0.5"  # seconds: every part still runs its minimum of two ops

sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

run.use_checkout_source()


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "rankbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", SHORT, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == wanted
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_replay_matches_untraced_and_reports_absent(monkeypatch):
    import rankloc.subspace

    # a function a later change might delete: download_tiny never calls it
    monkeypatch.delattr(rankloc.subspace, "min_subspace_distance")
    record = run.run(run.parse_args(
        ["--workload", "download_tiny", "--seed", "5", "--seconds", SHORT, "--trace", "1"]))
    details = record["details"]
    assert details["absent"] == ["subspace.min_subspace_distance"]
    assert details["trace_mismatches"] == 0
    assert details["ops"]["trials:untraced"] == details["ops"]["trials:traced"]
    assert record["result"]["correct"] is True
    metrics = record["result"]["metrics"]
    assert metrics["subspace.min_subspace_distance.calls"]["value"] == 0
    assert metrics["netsim.decode_subspace_min.calls"]["value"] > 0
    # the wrappers are gone again
    import rankloc.netsim

    assert not hasattr(rankloc.netsim.decode_subspace_min, "__wrapped__")


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "rankbench", ignore=shutil.ignore_patterns("results"))
    proc = bench("--workload", "download_tiny", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pattern_classes_keep_their_weight_bounds():
    from rankloc.crisscross import crisscross_weight

    rng = random.Random(11)
    d = workloads.REF_D_BOUND
    for cls in ("local", "global", "mixed", "beyond"):
        for _ in range(200):
            mask = workloads.crisscross_mask(rng, cls, 9, 9, 3, d)
            weight, _ = crisscross_weight(mask)
            assert weight >= 1
            if cls == "beyond":
                assert weight == d
            else:
                assert weight <= d - 1
            if cls == "local":
                for j in range(0, 9, 3):
                    assert crisscross_weight(mask[:, j:j + 3])[0] <= 1


def test_tail_latency_keeps_ten_samples_beyond():
    value, label = run.tail_latency(list(range(100)))
    assert value == 89 and label == "p90.00"
    value, label = run.tail_latency([float(x) for x in range(19)])
    assert value == 9.0 and label.startswith("p50")
