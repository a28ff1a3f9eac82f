"""Spans around the calls into each rankloc layer, recorded from outside.

The traced run rebinds module and class attributes to wrappers; the
untraced run installs nothing.  A wrapper records one span (name, op,
parent, start, end) per call into flat arrays kept in memory, plus counts
taken at the same boundary (matrices ranked, candidates scanned, ties).
Self time is a span's duration minus the time its direct children cover;
the program is single threaded with no queues, so no layer waits and no
waiting time is reported.

A target whose module or attribute no longer exists is recorded as absent
and reported with zero calls; it never stops the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import types
from array import array
from time import perf_counter


def _note_rank_batch(counts, args, result):
    count, rows, cols = args[0].shape
    counts["kernels.rank_batch.matrices"] += count
    counts["kernels.rank_batch.bytes"] += count * rows * cols


def _note_decode(counts, args, result):
    counts["netsim.decode_subspace_min.candidates"] += args[0].shape[0]
    counts["netsim.decode_subspace_min.ties"] += int(result.is_tie)


# (metric prefix, module, attribute path, boundary counter)
TARGETS = (
    ("kernels.rank", "rankloc._kernels", "rank", None),
    ("kernels.rank_batch", "rankloc._kernels", "rank_batch", _note_rank_batch),
    ("kernels.row_reduce", "rankloc._kernels", "row_reduce", None),
    ("kernels.matmul", "rankloc._kernels", "matmul", None),
    ("gf.Field.to_matrix", "rankloc.gf", "Field.to_matrix", None),
    ("gf.Field.matrix_batch", "rankloc.gf", "Field.matrix_batch", None),
    ("rng.SplitMix64.randbelow", "rankloc.rng", "SplitMix64.randbelow", None),
    ("codes.encode", "rankloc.codes", "_EvaluationCode.encode", None),
    ("codes.encode_batch", "rankloc.codes", "_EvaluationCode.encode_batch", None),
    ("codes.codeword_matrices", "rankloc.codes", "_EvaluationCode.codeword_matrices", None),
    ("codes.generator_gfq", "rankloc.codes", "_EvaluationCode.generator_gfq", None),
    ("codes.local_code", "rankloc.codes", "LocalRankCode.local_code", None),
    ("codes.sampled_min_rank", "rankloc.codes", "sampled_min_rank", None),
    ("crisscross.crisscross_weight", "rankloc.crisscross", "crisscross_weight", None),
    ("crisscross.decode_erasures_batch", "rankloc.crisscross", "decode_erasures_batch", None),
    ("subspace.rcef", "rankloc.subspace", "rcef", None),
    ("subspace.min_subspace_distance", "rankloc.subspace", "min_subspace_distance", None),
    ("subspace.verify_subspace_locality", "rankloc.subspace", "verify_subspace_locality", None),
    ("netsim.channel_apply", "rankloc.netsim", "channel_apply", None),
    ("netsim.local_candidates", "rankloc.netsim", "local_candidates", None),
    ("netsim.decode_subspace_min", "rankloc.netsim", "decode_subspace_min", _note_decode),
    ("formats.load_code_spec", "rankloc.formats", "load_code_spec", None),
)

# counts the wrappers accumulate; every key is reported, zero when unused
COUNT_KEYS = (
    "kernels.rank_batch.matrices",
    "kernels.rank_batch.bytes",
    "netsim.decode_subspace_min.candidates",
    "netsim.decode_subspace_min.ties",
)


class Tracer:
    """In-memory span store; wrappers record only inside ``span``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {key: 0 for key in COUNT_KEYS}
        self.recording = False
        self.op = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.op_of.append(self.op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, op: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op number ``op``."""
        self.recording, self.op = True, op
        idx = self.begin(self.name_id(name))
        try:
            return fn(*args)
        finally:
            self.finish(idx)
            self.recording, self.op = False, -1

    def wrap(self, name: str, fn, note=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if note is not None:
                try:
                    note(self.counts, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # the call's signature changed; its counts stop, the run goes on
                    self.counts["note_errors"] = self.counts.get("note_errors", 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, list] = {}
        for i in range(n):
            entry = totals.setdefault(self.names[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def child_calls(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent span is named ``parent``."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        return sum(
            1
            for i in range(len(self.start))
            if self.name[i] == cid and self.parent[i] >= 0 and self.name[self.parent[i]] == pid
        )

    def write(self, path, limit: int = 200_000) -> None:
        """Write the first ``limit`` spans as gzipped JSON."""
        n = len(self.start)
        keep = min(n, limit)
        doc = {
            "fields": ["name", "op", "parent", "start_s", "end_s"],
            "names": self.names,
            "recorded": n,
            "written": keep,
            "spans": [
                [self.name[i], self.op_of[i], self.parent[i],
                 round(self.start[i], 7), round(self.end[i], 7)]
                for i in range(keep)
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not isinstance(original, types.FunctionType):
        return None
    return owner, attr, original


def install(tracer: Tracer):
    """Wrap every target; return (undo list, absent metric prefixes).

    A module-level function is rebound in every rankloc module that holds
    it, so callers that imported it by name (the CLI, netsim) are caught
    as well as callers that go through its module.
    """
    undo, absent = [], []
    for prefix, module_name, path, note in TARGETS:
        found = _resolve(module_name, path)
        if found is None:
            absent.append(prefix)
            continue
        owner, attr, original = found
        wrapper = tracer.wrap(prefix, original, note)
        if isinstance(owner, type):
            holders = [(owner, attr)]
        else:
            holders = [
                (mod, key)
                for name, mod in list(sys.modules.items())
                if mod is not None and (name == "rankloc" or name.startswith("rankloc."))
                for key, value in list(vars(mod).items())
                if value is original
            ]
        for holder, key in holders:
            setattr(holder, key, wrapper)
            undo.append((holder, key, original))
    return undo, absent


def uninstall(undo) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)
