"""The package's public name list, and the names the benchmark traces."""

import types
from pathlib import Path

import pytest

import rankloc

TRACING = Path(__file__).resolve().parents[1] / "rankbench" / "tracing.py"


def test_all_names_resolve_sorted_and_unique():
    names = rankloc.__all__
    for name in names:
        assert getattr(rankloc, name, None) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def _load_tracing():
    # rankbench/tracing.py records a deleted target as absent and runs on,
    # so a deleted traced name shows only in the benchmark's own tests;
    # its source is compiled here read-only, writing no bytecode beside it
    module = types.ModuleType("rankbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module_name, path",
    [pytest.param(module, path, id=prefix) for prefix, module, path, _ in tracing.TARGETS],
)
def test_traced_target_resolves(module_name, path):
    assert tracing._resolve(module_name, path) is not None, f"{module_name}.{path}"
