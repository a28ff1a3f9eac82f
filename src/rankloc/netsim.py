"""Download-from-a-rack simulator over a random-linear-coded noisy network.

Each server in a rack emits one packet: the unit vector marking its global
column index followed by the column it stores, so the rack's packets span
the block projection of the lifted codeword.  The network is abstracted to
its end-to-end effect Y = A X + B Z: a random collection matrix A whose
rank deficiency models packet erasures, and up to t_max injected error
packets Z mixed in through B.  The receiver decodes by minimum subspace
distance over the rack's lifted local code: first by one GF(q) linear solve
for the candidates whose lifted space contains the received row space
(``solve_download``), which are exactly the nearest ones whenever any
exists, and only when none does by ranking every enumerated candidate
(``local_candidates`` and ``decode_subspace_min``, built on first need).
Candidates and received rows are ranked as base-q packed vectors, the
lifted form ``subspace.lift_codes`` and ``subspace.pack_rows`` write.

Every trial draws its own generator stream from (seed, trial index), so
runs are reproducible and order independent; reports compare equal across
reruns (wall time excluded).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .codes import DEFAULT_ORACLE_BUDGET, LocalRankCode, OracleBudgetError
from .gf import (
    AmbiguousErasureError,
    _digit_rows,
    base_tables,
    gfq_matmul,
    gfq_rank,
    gfq_rank_codes,
    gfq_solve,
)
from .rng import SplitMix64
from .subspace import lift_codes, pack_rows

_MAX_REJECTIONS = 10_000


@dataclass(frozen=True)
class ChannelConfig:
    """Operator-channel parameters for one download session."""

    packets_per_rack: int  # servers per rack, r+delta-1
    n_collect: int         # packets gathered by the receiver
    rho_max: int           # erasure budget: rank(A) >= packets_per_rack - rho_max
    t_max: int             # most error packets the network may inject
    links: int             # network links, each a potential injection point
    seed: int = 0

    def __post_init__(self):
        if self.packets_per_rack < 1 or self.n_collect < 1 or self.links < 1:
            raise ValueError("channel dimensions must be positive")
        if self.rho_max < 0 or self.t_max < 0:
            raise ValueError("noise budgets must be non-negative")
        if self.links < self.t_max:
            raise ValueError("links must accommodate the error packets")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")


def transmit_matrix(code: LocalRankCode, codeword: np.ndarray, j: int) -> np.ndarray:
    """Stack rack j's packets: row i = [unit vector of global column | column].

    The packets are the columns of the rack's lifted basis, one per row.
    """
    p = code.params
    codeword = np.asarray(codeword, dtype=np.uint8)
    if codeword.shape != (p.m, p.n):
        raise ValueError("codeword shape mismatch")
    cols = code.rack_columns(j)
    x = np.zeros((len(cols), p.n + p.m), dtype=np.uint8)
    x[range(len(cols)), cols] = 1
    x[:, p.n :] = codeword[:, cols.start : cols.stop].T
    return x


@dataclass(frozen=True)
class ChannelOutput:
    received: np.ndarray  # N x M
    rho: int              # realized rank deficiency of A
    t: int                # realized injected error packets


def _uniform_matrix(rng: SplitMix64, rows: int, cols: int, q: int) -> np.ndarray:
    return np.array(
        [[rng.randbelow(q) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8
    )


def channel_apply(x: np.ndarray, config: ChannelConfig, rng: SplitMix64, q: int = 2) -> ChannelOutput:
    """One pass through the network: Y = A X + B Z with realized (rho, t).

    A is uniform among N x s matrices of rank at least s - rho_max, found
    by rejection; exhausting the rejection budget means the floor is
    unreachable (e.g. too few collected packets) and the config is at
    fault.  Z carries exactly t <= t_max nonzero rows on distinct links.
    """
    x = np.asarray(x, dtype=np.uint8)
    s, width = x.shape
    if s != config.packets_per_rack:
        raise ValueError("config packet count mismatch")
    n_col = config.n_collect
    floor = s - config.rho_max
    for _ in range(_MAX_REJECTIONS):
        a = _uniform_matrix(rng, n_col, s, q)
        rank_a = gfq_rank(a.copy(), q)
        if rank_a >= floor:
            break
    else:
        raise RuntimeError("cannot realize rank constraint")

    t = rng.randbelow(config.t_max + 1)
    z = np.zeros((config.links, width), dtype=np.uint8)
    for row in rng.sample_indices(config.links, t):
        while True:
            packet = [rng.randbelow(q) for _ in range(width)]
            if any(packet):
                break
        z[row] = packet
    b = _uniform_matrix(rng, n_col, config.links, q)

    tables = base_tables(q)
    y = gfq_matmul(a, x, q)
    if t:
        y = tables.add[y, gfq_matmul(b, z, q)]
    return ChannelOutput(received=y, rho=s - rank_a, t=t)


def local_candidates(
    code: LocalRankCode, j: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> np.ndarray:
    """Rack j's local codewords as a (B, s) array of element codes.

    Candidate i's packets are the ``lift_codes`` columns of row i placed on
    the rack's global columns.
    """
    return code.local_code(j).codeword_codes(budget)


@dataclass(frozen=True)
class DownloadDecodeResult:
    index: int             # candidate index of the minimizer
    distance: int
    is_tie: bool
    local_matrix: np.ndarray


def decode_subspace_min(
    candidates: np.ndarray, n: int, cols: range, received: np.ndarray, q: int = 2
) -> DownloadDecodeResult:
    """Minimum-subspace-distance decoding over an enumerated candidate family.

    ``candidates`` holds rack codewords as element codes (``local_candidates``)
    of the rack on global columns ``cols`` of an n-column code.  Each
    candidate's lifted columns are ranked stacked with the received rows,
    packed by ``pack_rows``, so its distance is 2 rank - s - rank Y with rank Y
    computed once.  A shared minimum is a tie, which callers count as
    failure.
    """
    width = np.shape(received)[1]
    y_codes = pack_rows(received, q)
    lifted = lift_codes(candidates, n, cols, q)
    stacked = np.hstack([lifted, np.broadcast_to(y_codes, (len(lifted), len(y_codes)))])
    rank_y = int(gfq_rank_codes(y_codes[None], q, width)[0])
    dists = 2 * gfq_rank_codes(stacked, q, width) - len(cols) - rank_y
    best = int(dists.argmin())
    dmin = int(dists[best])
    ties = int((dists == dmin).sum())
    return DownloadDecodeResult(
        index=best,
        distance=dmin,
        is_tie=ties > 1,
        # the element codes' coordinate matrix, as ``Field.matrix_batch``
        local_matrix=_digit_rows(candidates[best], q, width - n),
    )


def solve_download(
    local_gen: np.ndarray, n: int, cols: range, received: np.ndarray, q: int = 2
) -> np.ndarray | None:
    """The rack codeword whose lifted space contains row(Y), by one GF(q) solve.

    A received row [h | y] lies in the lift of local codeword C = u G exactly
    when h vanishes off the rack's columns ``cols`` and y = u (sum_i h_i G_i),
    with G_i the column blocks of the local generator ``local_gen``
    (``generator_gfq`` layout).  Every lifted candidate is s-dimensional, so
    the candidates containing row(Y) are at distance s - rank Y and every
    other one is at least 2 further: a unique solution is the unique nearest
    candidate (returned as its m x s matrix) and several solutions are a tie
    (AmbiguousErasureError).  None means no candidate contains row(Y), which
    takes an injected error packet; then only enumeration finds the nearest.
    """
    y = np.asarray(received, dtype=np.uint8)
    header = y[:, :n]
    if header[:, : cols.start].any() or header[:, cols.stop :].any():
        return None
    dim, width = local_gen.shape
    s = len(cols)
    m = width // s
    # one product forms sum_i h_i G_i for every received row at once
    blocks = local_gen.reshape(dim, s, m).transpose(1, 0, 2).reshape(s, dim * m)
    mixed = gfq_matmul(np.ascontiguousarray(header[:, cols.start : cols.stop]), blocks, q)
    mixed = mixed.reshape(len(y), dim, m).transpose(1, 0, 2).reshape(dim, len(y) * m)
    known = np.arange(len(y) * m)
    try:
        word = gfq_solve(
            np.hstack([mixed, local_gen]), known, y[:, n:].reshape(1, -1),
            known.size + np.arange(width), q,
        )
    except ValueError:  # inconsistent: no candidate contains row(Y)
        return None
    return word.reshape(s, m).T


@dataclass(frozen=True)
class TrialReport:
    rack: int
    config: ChannelConfig
    trials: int
    successes: int
    histogram: tuple[tuple[tuple[int, int], int], ...]  # ((rho, t), count) sorted
    enumerated: int        # trials the solve could not answer, ranked by enumeration
    wall_time: float = field(compare=False)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def to_kv(self) -> list[str]:
        lines = [
            f"rack={self.rack}",
            f"seed={self.config.seed}",
            f"trials={self.trials}",
            f"successes={self.successes}",
            f"success_rate={self.success_rate:.6f}",
        ]
        lines.extend(
            f"count_rho{rho}_t{t}={count}" for (rho, t), count in self.histogram
        )
        return lines


def run_trials(
    code: LocalRankCode,
    j: int,
    config: ChannelConfig,
    trials: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> TrialReport:
    """Monte Carlo download sessions against rack j.

    Success means the unique nearest candidate is the transmitted local
    codeword.  The realized (rho, t) pairs are tallied so guarantee
    sweeps can see which noise levels actually occurred.  Each trial is
    decoded by ``solve_download``; the enumerated candidates are built
    only for the first trial it cannot answer, but a local code beyond
    ``budget`` is refused up front either way.
    """
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    p = code.params
    if config.packets_per_rack != p.s:
        raise ValueError("config packet count mismatch")
    if config.n_collect < p.r:
        raise ValueError("collector must gather at least r packets")
    local = code.local_code(j)
    if local.codeword_count > budget:
        raise OracleBudgetError("oracle scale exceeded")
    local_gen = local.generator_gfq()
    cols = code.rack_columns(j)
    candidates = None
    root = SplitMix64(config.seed)
    hist: dict[tuple[int, int], int] = {}
    successes = enumerated = 0
    start = time.perf_counter()
    for trial in range(trials):
        rng = root.spawn(trial)
        message = [rng.randbelow(code.field.order) for _ in range(p.k)]
        codeword = code.encode_matrix(message)
        x = transmit_matrix(code, codeword, j)
        out = channel_apply(x, config, rng, p.q)
        try:
            got = solve_download(local_gen, p.n, cols, out.received, p.q)
        except AmbiguousErasureError:  # several nearest candidates: a tie
            got = None
        else:
            if got is None:
                # module-global calls, so tracers that rebind them see these
                if candidates is None:
                    candidates = local_candidates(code, j, budget)
                enumerated += 1
                result = decode_subspace_min(candidates, p.n, cols, out.received, p.q)
                got = None if result.is_tie else result.local_matrix
        if got is not None and (got == codeword[:, cols.start : cols.stop]).all():
            successes += 1
        key = (out.rho, out.t)
        hist[key] = hist.get(key, 0) + 1
    wall = time.perf_counter() - start
    return TrialReport(
        rack=j,
        config=config,
        trials=trials,
        successes=successes,
        histogram=tuple(sorted(hist.items())),
        enumerated=enumerated,
        wall_time=wall,
    )
