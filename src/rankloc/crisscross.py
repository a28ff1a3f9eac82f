"""Crisscross erasure and error handling for rank-metric array codes.

An erasure pattern is a binary m x n mask (1 = cell lost); an error
pattern is an m x n array over GF(q) supported off the erased cells.  The
crisscross weight of a pattern is the smallest number of full rows plus
full columns covering its support; by Koenig's theorem that equals the
maximum matching on the support's bipartite graph, which is how we compute
it, extracting a witness cover from the matching.

Decoding is two staged, mirroring how racks actually repair: every rack
whose restricted pattern is light enough is solved against its own local
generator first, then whatever remains is solved against the full code's
GF(q) generator.  Both stages are exact linear solves (``gf.gfq_solve``);
the guarantee predicate is advisory, the solver's uniqueness check is
authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    DEFAULT_ORACLE_BUDGET,
    LocalRankCode,
    _EvaluationCode,
    rank_distance_bound,
)
# gfq_solve raises AmbiguousErasureError; callers of the decoders catch it by this module
from .gf import AmbiguousErasureError, gfq_matmul, gfq_rank, gfq_rank_codes, gfq_solve


@dataclass(frozen=True)
class Cover:
    """A set of full rows and columns containing a pattern's support."""

    rows: frozenset[int]
    cols: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.rows) + len(self.cols)

    def covers(self, pattern: np.ndarray) -> bool:
        pattern = np.asarray(pattern)
        residue = pattern.copy()
        if self.rows:
            residue[sorted(self.rows), :] = 0
        if self.cols:
            residue[:, sorted(self.cols)] = 0
        return not residue.any()


def _as_mask(pattern: np.ndarray) -> np.ndarray:
    mask = np.asarray(pattern)
    if mask.ndim != 2:
        raise ValueError("pattern must be a 2-d array")
    return (mask != 0).astype(np.uint8)


def crisscross_weight(pattern: np.ndarray) -> tuple[int, Cover]:
    """Minimum cover size and a witness cover.

    Maximum matching by augmenting paths, rows tried in ascending index
    order and columns scanned ascending inside each search, so the witness
    is deterministic.  The cover is read off the matching the standard
    way: rows not reachable from unmatched rows by alternating paths,
    plus reachable columns.
    """
    mask = _as_mask(pattern)
    m, n = mask.shape
    adj = [np.nonzero(mask[i])[0].tolist() for i in range(m)]
    match_row = [-1] * m
    match_col = [-1] * n

    def augment(row: int, seen: list[bool]) -> bool:
        for col in adj[row]:
            if seen[col]:
                continue
            seen[col] = True
            if match_col[col] < 0 or augment(match_col[col], seen):
                match_col[col] = row
                match_row[row] = col
                return True
        return False

    size = 0
    for row in range(m):
        if adj[row] and augment(row, [False] * n):
            size += 1

    # Alternating-path reachability from unmatched rows.
    row_seen = [False] * m
    col_seen = [False] * n
    stack = [i for i in range(m) if adj[i] and match_row[i] < 0]
    for i in stack:
        row_seen[i] = True
    while stack:
        row = stack.pop()
        for col in adj[row]:
            if not col_seen[col]:
                col_seen[col] = True
                nxt = match_col[col]
                if nxt >= 0 and not row_seen[nxt]:
                    row_seen[nxt] = True
                    stack.append(nxt)
    cover_rows = frozenset(
        i for i in range(m) if match_row[i] >= 0 and not row_seen[i]
    )
    cover_cols = frozenset(j for j in range(n) if col_seen[j])
    cover = Cover(cover_rows, cover_cols)
    assert cover.size == size and cover.covers(mask)
    return size, cover


def validate_patterns(
    erasures: np.ndarray, errors: np.ndarray | None, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an (erasure mask, error array) pair; errors vanish on erasures."""
    mask = _as_mask(erasures)
    if errors is None:
        err = np.zeros_like(mask)
    else:
        err = np.asarray(errors, dtype=np.uint8)
        if err.shape != mask.shape:
            raise ValueError("error pattern shape mismatch")
        if err.size and err.max() >= q:
            raise ValueError("error values out of range")
        if np.any(err[mask.astype(bool)]):
            raise ValueError("errors must vanish on erased cells")
    return mask, err


def locally_correctable(
    code: LocalRankCode,
    erasures: np.ndarray,
    errors: np.ndarray | None,
    j: int,
) -> bool:
    """Whether rack j's restricted pattern is within its local guarantee:
    twice the restricted error rank plus the restricted erasure weight
    must fit under delta."""
    mask, err = validate_patterns(erasures, errors, code.q)
    cols = list(code.rack_columns(j))
    weight, _ = crisscross_weight(mask[:, cols])
    erank = gfq_rank(err[:, cols], code.q)
    return 2 * erank + weight <= code.delta - 1


@dataclass(frozen=True)
class CorrectionReport:
    """Outcome of the two-stage guarantee test for one pattern."""

    local_racks: tuple[int, ...]
    residual_racks: tuple[int, ...]
    discounted_weight: int
    distance: int
    global_ok: bool

    @property
    def verdict(self) -> str:
        if not self.residual_racks:
            return "LOCAL"
        return "GLOBAL" if self.global_ok else "NO_GUARANTEE"


def correctable(
    code: LocalRankCode,
    erasures: np.ndarray,
    errors: np.ndarray | None = None,
    d: int | None = None,
) -> CorrectionReport:
    """Sufficient-condition classifier for a combined erasure/error pattern.

    Racks within their local guarantee are discounted, and the remaining
    weight (twice the error rank plus the erasure cover weight, minus the
    discounted racks' shares) must fit under the code distance ``d``
    (default: the locality Singleton-like bound).  Patterns failing this
    may still decode; the predicate is one-sided.  Note the discounting
    can undercount the true residual when a discounted rack's cover rows
    also serve other racks, so the decoder, not this report, is the final
    word on a specific pattern.
    """
    p = code.params
    mask, err = validate_patterns(erasures, errors, p.q)
    if mask.shape != (p.m, p.n):
        raise ValueError("pattern shape mismatch")
    if d is None:
        d = rank_distance_bound(p.n, p.k, p.r, p.delta)
    total = 2 * gfq_rank(err, p.q) + crisscross_weight(mask)[0]
    discounted = total
    local, residual = [], []
    for j in range(1, p.mu + 1):
        cols = list(code.rack_columns(j))
        w, _ = crisscross_weight(mask[:, cols])
        er = gfq_rank(err[:, cols], p.q)
        share = 2 * er + w
        if share == 0:
            continue
        if share <= p.delta - 1:
            local.append(j)
            discounted -= share
        else:
            residual.append(j)
    return CorrectionReport(
        local_racks=tuple(local),
        residual_racks=tuple(residual),
        discounted_weight=discounted,
        distance=d,
        global_ok=discounted <= d - 1,
    )


# ---------------------------------------------------------------------------
# Erasure decoding (exact linear solves)


@dataclass
class ErasureDecodeResult:
    matrices: np.ndarray  # (B, m, n) over GF(q)
    local_racks: tuple[int, ...]
    used_global: bool

    @property
    def matrix(self) -> np.ndarray:
        if self.matrices.shape[0] != 1:
            raise ValueError("batched result; index .matrices")
        return self.matrices[0]

    def verdict_lines(self) -> list[str]:
        """The stages that ran; ``INTACT`` when no cell was erased, so only
        the parity check ran, and it passed."""
        out = []
        if self.local_racks:
            out.append("LOCAL j=" + ",".join(str(j) for j in self.local_racks))
        if self.used_global:
            out.append("GLOBAL")
        return out or ["INTACT"]


def decode_erasures_batch(
    code: LocalRankCode, received: np.ndarray, erasures: np.ndarray
) -> ErasureDecodeResult:
    """Fill erased cells for a batch of received arrays sharing one pattern.

    Stage one solves each rack whose restricted erasure weight is below
    delta against the rack's own generator; stage two solves the residual
    against the full generator.  Values at erased positions in the input
    are ignored.  Every returned word is a codeword: when no global solve
    ran, the words are checked against the code's parity checks, and a
    batch holding any non-codeword, such as a word with a corrupted
    surviving cell, raises ValueError instead.
    """
    p = code.params
    mask = _as_mask(erasures)
    if mask.shape != (p.m, p.n):
        raise ValueError("pattern shape mismatch")
    received = np.asarray(received, dtype=np.uint8)
    if received.ndim == 2:
        received = received[None]
    if received.shape[1:] != (p.m, p.n):
        raise ValueError("received shape mismatch")
    if received.size and received.max() >= p.q:
        raise ValueError("received entries out of range")

    m = p.m
    # column-major flattening keeps each rack's cells contiguous
    flat = received.transpose(0, 2, 1).reshape(received.shape[0], p.n * m).copy()
    mask_flat = mask.flatten(order="F").astype(bool)
    flat[:, mask_flat] = 0
    pending = mask_flat.copy()

    local_racks = []
    for j in range(1, p.mu + 1):
        cols = code.rack_columns(j)
        rack_idx = np.arange(cols.start * m, cols.stop * m)
        rack_mask = mask_flat[rack_idx]
        if not rack_mask.any():
            continue
        weight, _ = crisscross_weight(mask[:, list(cols)])
        if weight > p.delta - 1:
            continue
        gen = code.local_code(j).generator_gfq()
        known_local = np.nonzero(~rack_mask)[0]
        wanted_local = np.nonzero(rack_mask)[0]
        vals = flat[:, rack_idx[known_local]]
        rec = gfq_solve(gen, known_local, vals, wanted_local, p.q)
        flat[:, rack_idx[wanted_local]] = rec
        pending[rack_idx] = False
        local_racks.append(j)

    used_global = bool(pending.any())
    if used_global:
        # a global solve checks every known cell for consistency and fills
        # the rest from the one message, so its words are codewords already
        gen = code.generator_gfq()
        known = np.nonzero(~pending)[0]
        wanted = np.nonzero(pending)[0]
        rec = gfq_solve(gen, known, flat[:, known], wanted, p.q)
        flat[:, wanted] = rec
    elif gfq_matmul(flat, code.parity_checks(), p.q).any():
        raise ValueError("decoded word is not a codeword")
    out = flat.reshape(received.shape[0], p.n, m).transpose(0, 2, 1)
    return ErasureDecodeResult(
        matrices=np.ascontiguousarray(out),
        local_racks=tuple(local_racks),
        used_global=used_global,
    )


def decode_erasures(
    code: LocalRankCode, received: np.ndarray, erasures: np.ndarray
) -> ErasureDecodeResult:
    """Single-array convenience wrapper around the batched solver."""
    received = np.asarray(received)
    if received.ndim != 2:
        raise ValueError("expected one received array")
    return decode_erasures_batch(code, received[None], erasures)


# ---------------------------------------------------------------------------
# Minimum-rank-distance decoding (brute force oracle)


@dataclass
class NearestCodeword:
    distance: int
    indices: list[int]
    matrices: list[np.ndarray]

    @property
    def is_tie(self) -> bool:
        return len(self.indices) > 1

    @property
    def codeword(self) -> np.ndarray:
        if self.is_tie:
            raise ValueError("tie")
        return self.matrices[0]


def decode_min_distance(
    code: _EvaluationCode, received: np.ndarray, budget: int = DEFAULT_ORACLE_BUDGET
) -> NearestCodeword:
    """Exhaustive nearest-codeword decoding in the rank metric.

    Scans every codeword; a shared minimum is reported as a tie (callers
    treat ties as decoding failure).
    """
    f = code.field
    received = np.asarray(received, dtype=np.uint8)
    codes = code.codeword_codes(budget)
    if received.shape != (f.m, code.n):
        raise ValueError("received shape mismatch")
    diffs = f.sub_vec(codes, np.asarray(f.from_matrix(received)))
    ranks = gfq_rank_codes(diffs, f.q, f.m)
    dmin = int(ranks.min())
    idx = np.nonzero(ranks == dmin)[0]
    return NearestCodeword(
        distance=dmin,
        indices=[int(i) for i in idx],
        matrices=list(f.matrix_batch(codes[idx])),
    )
