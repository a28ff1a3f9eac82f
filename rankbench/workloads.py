"""The benchmark's four workloads: seeded inputs, one op each, answer checks.

Every op enters rankloc through a public call looked up at call time
(``netsim.run_trials``, ``crisscross.decode_erasures``,
``crisscross.decode_erasures_batch``, ``cli.main``), so the traced run's
wrappers see everything beneath it.  Inputs come from Python's ``random``
seeded with the workload seed, never from the program's own generator;
the program receives only the generated inputs and seeds.

An op's outcome separates two kinds of bad answer:

* ``failed``: a check the code guarantees did not hold (an in-guarantee
  trial or word was not recovered, an erasure-only word came back wrong,
  verify did not print what the README shows) or the call raised;
* ``wrong``: a wrong word returned as a success for a pattern the erasure
  decoder does not promise to handle (one flipped unerased cell).  The
  seed has this defect; it is measured, not hidden.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

SPEC_DIR = Path(__file__).resolve().parent / "specs"
REF_SPEC = SPEC_DIR / "ref.spec"
TINY_SPEC = SPEC_DIR / "tiny.spec"

# README, `rankloc build --spec ref.spec`: d_bound=5
REF_D_BOUND = 5
# README, `rankloc verify --spec tiny.spec --mode exact`
TINY_EXACT_LINES = [
    "d_bound=4",
    "good_poly_per_rack=1,w^3,w^6",
    "block_1: size_ok=True dim_ok=True projected_d=4 required=4 exact=True",
    "block_2: size_ok=True dim_ok=True projected_d=4 required=4 exact=True",
    "block_3: size_ok=True dim_ok=True projected_d=4 required=4 exact=True",
    "d=4 (optimal), local d=2 (MRD), lifted d_S=8, subspace-locality (1,4): PASS",
]


@dataclass
class Outcome:
    units: int            # ops this call stands for: trials for a download call
    successes: int = 0    # units whose answer is a success in the user's sense
    failed: int = 0       # units that broke a guaranteed check, or raised
    wrong: int = 0        # wrong words returned as success outside the guarantee
    key: object = None    # must be equal in the untraced and traced replays
    tag: tuple = ()       # classification tallied into the result file


@dataclass
class Part:
    name: str
    share: float                          # share of the run's seconds
    units: int                            # units per op
    make_input: Callable[[int], object]   # op index -> input, in index order
    run: Callable[[object], Outcome]
    words: int = 0                        # codewords per op (batch parts)


def load_code(spec: Path):
    from rankloc import formats

    return formats.load_code_spec(str(spec)).build()


class Download:
    """Closed-loop ``run_trials`` calls; one op is one trial.

    Each call gets its own channel seed and builds its own candidate list,
    as every ``rankloc simulate`` run does.
    """

    primary = "trials"
    batch = None

    def __init__(self, name, spec, rack, rho_max, t_max, collect, links, trials_per_call):
        self.name = name
        self.spec = spec
        self.rack = rack
        self.rho_max = rho_max
        self.t_max = t_max
        self.collect = collect
        self.links = links
        self.trials_per_call = trials_per_call

    def setup(self):
        return load_code(self.spec)

    def parts(self, seed, code):
        rng = random.Random(f"{self.name}:{seed}")

        def call(channel_seed):
            from rankloc import netsim

            p = code.params
            config = netsim.ChannelConfig(
                packets_per_rack=p.s, n_collect=self.collect, rho_max=self.rho_max,
                t_max=self.t_max, links=self.links, seed=channel_seed,
            )
            report = netsim.run_trials(code, self.rack, config, self.trials_per_call)
            inside = sum(c for (rho, t), c in report.histogram if 2 * t + rho <= p.delta - 1)
            # within 2t + rho <= delta - 1 every trial must decode uniquely
            failed = max(0, inside - report.successes)
            if 2 * self.t_max + self.rho_max <= p.delta - 1:
                # the channel never leaves the guarantee: no other pair may appear
                failed = max(failed, report.trials - report.successes, report.trials - inside)
            return Outcome(
                units=report.trials, successes=report.successes, failed=failed,
                key=tuple(report.to_kv()), tag=("trials",),
            )

        return [Part("trials", 1.0, self.trials_per_call, lambda i: rng.getrandbits(64), call)]


# one class per word index mod 10: fixed shares of 10% beyond d - 1,
# 10% flipped cell, 30% local-only, 30% global, 20% mixed
READ_CLASSES = ("beyond", "flipped", "local", "global", "mixed",
                "local", "global", "mixed", "local", "global")
IN_GUARANTEE = ("local", "global", "mixed")
REBUILD_BLOCK = 2048
# rack rebuilds cycle through these losses, as columns lost per affected
# rack: one column, one in each of two racks (both local repairs), two
# columns of one rack, a whole rack, two columns in each of two racks
# (global solves); every one stays within d - 1 = 4 columns
REBUILD_KINDS = ((1,), (1, 1), (2,), (3,), (2, 2))


def _piece(rng, mask, cols):
    """Erase a nonempty part of one line, restricted to ``cols``: weight <= 1."""
    m = mask.shape[0]
    if rng.random() < 0.5:
        mask[rng.randrange(m), rng.sample(cols, rng.randint(1, len(cols)))] = 1
    else:
        mask[rng.sample(range(m), rng.randint(1, m)), rng.choice(cols)] = 1


def crisscross_mask(rng, cls, m, n, s, d):
    """Erasure mask whose crisscross weight is bounded by construction.

    Each piece lies on one row or column, so the weight is at most the
    number of pieces: local patterns put one piece in each chosen rack,
    global ones use up to d - 1 pieces anywhere, mixed ones (as in the
    criterion-8 scenario) one piece inside a rack plus up to d - 2 on the
    other racks.  ``beyond`` erases d distinct full lines: weight exactly d.
    """
    mask = np.zeros((m, n), dtype=np.uint8)
    racks = [list(range(j, j + s)) for j in range(0, n, s)]
    if cls == "beyond":
        lines = rng.sample([("row", i) for i in range(m)] + [("col", j) for j in range(n)], d)
        for kind, idx in lines:
            if kind == "row":
                mask[idx, :] = 1
            else:
                mask[:, idx] = 1
    elif cls == "local":
        for cols in rng.sample(racks, rng.randint(1, len(racks))):
            _piece(rng, mask, cols)
    elif cls == "global":
        for _ in range(rng.randint(2, d - 1)):
            _piece(rng, mask, list(range(n)))
    elif cls == "mixed":
        local = rng.randrange(len(racks))
        _piece(rng, mask, racks[local])
        others = [c for j, cols in enumerate(racks) if j != local for c in cols]
        for _ in range(rng.randint(2, d - 2)):
            _piece(rng, mask, others)
    else:
        raise ValueError(f"unknown pattern class {cls!r}")
    return mask


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(arr).tobytes()).hexdigest()


class Repair:
    """Degraded reads (one ``decode_erasures`` per word) and rack rebuilds
    (``encode_batch`` then ``decode_erasures_batch`` with one shared
    pattern) on the reference code."""

    name = "repair_ref"
    primary = "read"
    batch = "rebuild"

    def setup(self):
        return load_code(REF_SPEC)

    def parts(self, seed, code):
        p = code.params
        order = code.field.order
        read_rng = random.Random(f"repair_ref:read:{seed}")
        rebuild_rng = random.Random(f"repair_ref:rebuild:{seed}")

        def read_input(i):
            cls = READ_CLASSES[i % len(READ_CLASSES)]
            recipe = read_rng.choice(IN_GUARANTEE) if cls == "flipped" else cls
            sent = code.encode_matrix([read_rng.randrange(order) for _ in range(p.k)])
            mask = crisscross_mask(read_rng, recipe, p.m, p.n, p.s, REF_D_BOUND)
            received = sent.copy()
            erased = np.nonzero(mask)
            received[erased] = [read_rng.randrange(p.q) for _ in range(len(erased[0]))]
            if cls == "flipped":
                rows, cols = np.nonzero(mask == 0)
                cell = read_rng.randrange(len(rows))
                shift = 1 + read_rng.randrange(p.q - 1)
                received[rows[cell], cols[cell]] = (received[rows[cell], cols[cell]] + shift) % p.q
            return cls, sent, received, mask

        def read(inp):
            from rankloc import crisscross

            cls, sent, received, mask = inp
            try:
                res = crisscross.decode_erasures(code, received, mask)
            except (crisscross.AmbiguousErasureError, ValueError):
                # `rankloc decode` maps both to exit 2: a refusal
                return Outcome(units=1, failed=int(cls in IN_GUARANTEE),
                               key=(cls, "refused"), tag=(cls, "refused", "none"))
            recovered = bool(np.array_equal(res.matrix, sent))
            outcome = "recovered" if recovered else "wrong"
            stage = "global" if res.used_global else "local"
            if recovered:
                failed = wrong = 0
            elif cls == "flipped":
                failed, wrong = 0, 1
            else:
                # erasures alone may be refused beyond d - 1, never answered wrongly
                failed, wrong = 1, 0
            return Outcome(
                units=1, successes=int(recovered), failed=failed, wrong=wrong,
                key=(cls, outcome, tuple(res.verdict_lines()), _digest(res.matrix)),
                tag=(cls, outcome, stage),
            )

        def rebuild_input(i):
            messages = np.array(
                [[rebuild_rng.randrange(order) for _ in range(p.k)] for _ in range(REBUILD_BLOCK)],
                dtype=np.int64,
            )
            mask = np.zeros((p.m, p.n), dtype=np.uint8)
            kind = REBUILD_KINDS[i % len(REBUILD_KINDS)]
            for rack, lost in zip(rebuild_rng.sample(range(p.mu), len(kind)), kind):
                mask[:, rebuild_rng.sample(range(rack * p.s, (rack + 1) * p.s), lost)] = 1
            return messages, mask

        def rebuild(inp):
            from rankloc import crisscross

            messages, mask = inp
            words = code.field.matrix_batch(code.encode_batch(messages))
            received = np.where(mask.astype(bool), 0, words).astype(np.uint8)
            res = crisscross.decode_erasures_batch(code, received, mask)
            ok = bool(np.array_equal(res.matrices, words))
            return Outcome(units=1, successes=int(ok), failed=int(not ok),
                           key=_digest(res.matrices), tag=("rebuild",))

        return [
            Part("read", 0.8, 1, read_input, read),
            Part("rebuild", 0.2, 1, rebuild_input, rebuild, words=REBUILD_BLOCK),
        ]


def _cli(argv):
    from rankloc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue().splitlines()


class Verify:
    """One op: `verify --mode sampled` on the reference spec, then
    `verify --mode exact` on the tiny spec, through the CLI in-process."""

    name = "verify"
    primary = "pair"
    batch = None

    def setup(self):
        from rankloc import cli  # noqa: F401  (the op's entry point)

        return [load_code(REF_SPEC), load_code(TINY_SPEC)]

    def parts(self, seed, codes):
        rng = random.Random(f"verify:{seed}")

        def pair(sample_seed):
            rc_s, sampled = _cli(["verify", "--spec", str(REF_SPEC), "--mode", "sampled",
                                  "--seed", str(sample_seed)])
            rc_e, exact = _cli(["verify", "--spec", str(TINY_SPEC), "--mode", "exact"])
            last = sampled[-1] if sampled else ""
            found = re.match(r"d<=(\d+) ", last)
            ok = (
                rc_s == 0 and rc_e == 0
                and "PASS" in last
                and found is not None and int(found.group(1)) >= REF_D_BOUND
                and exact == TINY_EXACT_LINES
            )
            return Outcome(units=1, successes=int(ok), failed=int(not ok),
                           key=(rc_s, tuple(sampled), rc_e, tuple(exact)), tag=("pair",))

        return [Part("pair", 1.0, 1, lambda i: rng.randrange(1 << 32), pair)]


WORKLOADS = {
    # the README's simulate example: 262144 candidates ranked per trial
    "download_ref": lambda: Download("download_ref", REF_SPEC, rack=2, rho_max=1, t_max=0,
                                     collect=3, links=6, trials_per_call=3),
    # 64 candidates per trial: fixed per-call costs dominate; some trials
    # fall beyond the guarantee, so success_rate can move
    "download_tiny": lambda: Download("download_tiny", TINY_SPEC, rack=1, rho_max=1, t_max=1,
                                      collect=3, links=4, trials_per_call=50),
    "repair_ref": Repair,
    "verify": Verify,
}
