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
GF(q) generator.  Both stages are exact linear solves
(``gf._pattern_solve``) that depend on the erasure pattern alone, so they
run once per pattern: composed, they are one GF(q)-linear map from the
surviving digits to the stages' checks and the decoded word, cached on
the code per mask.  A batch of words goes through that map as element
codes, by a table gather per surviving column (the Method of Four
Russians, as ``encode_batch`` runs) or, for a few words, one product.
The guarantee predicate is advisory, the solver's uniqueness check is
authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import (
    LocalRankCode,
    _digit_chunks,
    _gather_sum,
    _linear_tables,
    rank_distance_bound,
)
# callers of the decoders catch AmbiguousErasureError by this module
from .gf import (
    AmbiguousErasureError,
    _digit_rows,
    _pattern_solve,
    _row_codes,
    base_tables,
    gfq_matmul,
    gfq_rank,
)


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
# Erasure decoding (one linear map per pattern)

# plans one code keeps, the least recently used dropped first: a budget of
# 1 MiB at 3.5 KiB a reference-code plan (2.3 KiB of images, the rest its
# key and objects, measured with tracemalloc)
_PLAN_CACHE_SIZE = 292

_RESTRICTION = "not a codeword restriction"
_NOT_CODEWORD = "decoded word is not a codeword"


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


@dataclass(frozen=True)
class _ErasurePlan:
    """One erasure pattern's decode as a GF(q)-linear map on element codes.

    ``images[c, t]`` holds the element codes that digit t of column c
    adds to a word's [stage checks | n output codes]; erased digits map
    to zero.  ``checks`` gives each stage's check codes as (start, stop),
    the refusal when any of them is nonzero, and whether the stage's
    solve was ambiguous, in the order the stages ran.  Check digits are
    packed m to a code, so a code is zero exactly when its checks are.
    """

    images: np.ndarray  # (n, m, C), the narrowest unsigned type
    columns: np.ndarray  # columns with a surviving digit
    checks: tuple[tuple[int, int, str, bool], ...]
    local_racks: tuple[int, ...]
    used_global: bool


def _build_plan(code: LocalRankCode, mask: np.ndarray) -> _ErasurePlan:
    """Run the staged decode once on the pattern, on maps instead of words.

    A word's digits are laid out column-major, as ``generator_gfq`` lays a
    codeword out, and each map below has one row per surviving digit.
    Stage one solves each rack whose restricted weight is below delta
    against the rack's own generator; a rack's surviving digits are a run
    of rows.  Stage two solves what remains against the full generator,
    composed with the local fills.  When no global solve ran, the parity
    checks, composed the same way, close the plan; a global solve checks
    every known cell and fills the rest from one message, so its words
    are codewords already.  An ambiguous solve ends the plan.
    """
    p = code.params
    q, m, s, size = p.q, p.m, p.s, p.n * p.m
    erased = mask.flatten(order="F").astype(bool)
    known = np.nonzero(~erased)[0]
    # rows[i]: surviving digits before digit i, so rack j's rows run from
    # rows[start] to rows[stop]
    rows = np.concatenate([[0], np.cumsum(~erased)])
    # the output word's digits as a map of the surviving digits
    word = np.zeros((len(known), size), dtype=np.uint8)
    word[np.arange(len(known)), known] = 1
    pending = erased.copy()
    blocks: list[np.ndarray] = []
    checks: list[tuple[int, int, str, bool]] = []

    def stage(check: np.ndarray, refusal: str, ambiguous: bool) -> None:
        codes = -(-check.shape[1] // m)
        block = np.zeros((len(known), codes * m), dtype=np.uint8)
        block[:, : check.shape[1]] = check
        start = checks[-1][1] if checks else 0
        blocks.append(block)
        checks.append((start, start + codes, refusal, ambiguous))

    def compose(have: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the word at the digits ``have`` (every surviving one among them)
        # times x: surviving digits pass x's rows through in row order,
        # filled ones multiply their maps by the rest of x
        kept = ~erased[have]
        out = x[kept]
        if not kept.all():
            filled = np.ascontiguousarray(word[:, have[~kept]])
            out = base_tables(q).add[out, gfq_matmul(filled, np.ascontiguousarray(x[~kept]), q)]
        return out

    # a rack pattern inside fewer lines than delta is light enough without
    # the matching
    racks = mask.reshape(m, p.mu, s)
    lines = np.minimum(racks.any(axis=0).sum(axis=1), racks.any(axis=2).sum(axis=0))
    local_racks = []
    for j in np.nonzero(lines)[0].tolist():
        if lines[j] > p.delta - 1 and crisscross_weight(racks[:, j])[0] > p.delta - 1:
            continue
        start, stop = j * s * m, (j + 1) * s * m
        lost = erased[start:stop]
        wanted = np.nonzero(lost)[0]
        gen = code.local_code(j + 1).generator_gfq()
        rack_checks, repair = _pattern_solve(gen, np.nonzero(~lost)[0], wanted, q)
        own = slice(rows[start], rows[stop])
        check = np.zeros((len(known), rack_checks.shape[1]), dtype=np.uint8)
        check[own] = rack_checks
        stage(check, _RESTRICTION, repair is None)
        if repair is None:
            break
        word[own, start + wanted] = repair
        pending[start:stop] = False
        local_racks.append(j + 1)
    else:  # no local solve was ambiguous
        if pending.any():
            have, wanted = np.nonzero(~pending)[0], np.nonzero(pending)[0]
            residual, repair = _pattern_solve(code.generator_gfq(), have, wanted, q)
            width = residual.shape[1]
            composed = compose(have, residual if repair is None else np.hstack([residual, repair]))
            stage(composed[:, :width], _RESTRICTION, repair is None)
            if repair is not None:
                word[:, wanted] = composed[:, width:]
        else:
            stage(compose(np.arange(size), code.parity_checks()), _NOT_CODEWORD, False)

    digits = np.hstack(blocks + [word])
    width = digits.shape[1] // m
    images = np.zeros((size, width), dtype=np.min_scalar_type(code.field.order - 1))
    images[known] = _row_codes(digits.reshape(-1, m).T, q).reshape(len(known), width)
    return _ErasurePlan(
        images=images.reshape(p.n, m, width),
        columns=np.nonzero(~mask.all(axis=0))[0],
        checks=tuple(checks),
        local_racks=tuple(local_racks),
        used_global=bool(pending.any()),
    )


def _plan(code: LocalRankCode, mask: np.ndarray) -> _ErasurePlan:
    """The code's plan for an erasure mask, from its LRU cache keyed by
    the mask's bytes.  The cache keeps ``_PLAN_CACHE_SIZE`` = 292 plans,
    about 1 MiB for the reference code; a plan holds its images as codes,
    never the tables a batch builds from them."""
    plans = code._erasure_plans
    key = mask.tobytes()
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _build_plan(code, mask)
        if len(plans) > _PLAN_CACHE_SIZE:
            plans.popitem(last=False)
    else:
        plans.move_to_end(key)
    return plan


def _decode_codes(
    code: LocalRankCode, codes: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, _ErasurePlan]:
    """Apply the mask's plan to (B, n) element codes: (B, n) decoded codes.

    A batch with more words than one table has entries gathers from
    ``_linear_tables`` of the images, one surviving column at a time, as
    ``encode_batch`` does; a smaller one multiplies its digits by the
    images.  Each stage's checks are then read in stage order, so a batch
    gets the refusal the staged solves would raise.
    """
    f = code.field
    q, m = f.q, f.m
    plan = _plan(code, mask)
    n, _, width = plan.images.shape
    if len(codes) > q ** _digit_chunks(q, m)[0][1] and plan.columns.size:
        tables = _linear_tables(f, plan.images[plan.columns])
        out = _gather_sum(f, tables, codes[:, plan.columns])
    else:
        # transposed, so both operands pack along contiguous rows: digit t
        # of output code c is row c * m + t, and the input digits are
        # column-major, as the images are laid out
        maps = _digit_rows(plan.images.reshape(n * m, width).T, q, m).reshape(width * m, n * m)
        digits = _digit_rows(codes, q, m).swapaxes(1, 2).reshape(len(codes), n * m)
        out = gfq_matmul(maps, digits.T, q).reshape(width, m, len(codes))
        out = _row_codes(out, q).T
    for start, stop, refusal, ambiguous in plan.checks:
        if out[:, start:stop].any():
            raise ValueError(refusal)
        if ambiguous:
            raise AmbiguousErasureError("erasure pattern exceeds guarantee")
    return out[:, width - n :], plan


def decode_erasures_batch(
    code: LocalRankCode, received: np.ndarray, erasures: np.ndarray
) -> ErasureDecodeResult:
    """Fill erased cells for a batch of received arrays sharing one pattern.

    Stage one solves each rack whose restricted erasure weight is below
    delta against the rack's own generator; stage two solves the residual
    against the full generator.  Both run once per pattern, as one linear
    map (``_build_plan``), which the batch then goes through as element
    codes.  Values at erased positions in the input are ignored.  Every
    returned word is a codeword: when no global solve ran, the words are
    checked against the code's parity checks, and a batch holding any
    non-codeword, such as a word with a corrupted surviving cell, raises
    ValueError instead.
    """
    p = code.params
    f = code.field
    mask = _as_mask(erasures)
    if mask.shape != (p.m, p.n):
        raise ValueError("pattern shape mismatch")
    received = np.asarray(received)
    if received.ndim == 2:
        received = received[None]
    if received.shape[1:] != (p.m, p.n):
        raise ValueError("received shape mismatch")
    # checked before any cast, which would wrap v + 256 to v
    if received.size and (received.min() < 0 or received.max() >= p.q):
        raise ValueError("received entries out of range")
    codes, plan = _decode_codes(code, f.codes_batch(received), mask)
    return ErasureDecodeResult(
        matrices=f.matrix_batch(codes),
        local_racks=plan.local_racks,
        used_global=plan.used_global,
    )


def decode_erasures(
    code: LocalRankCode, received: np.ndarray, erasures: np.ndarray
) -> ErasureDecodeResult:
    """Single-array convenience wrapper around the batched solver."""
    received = np.asarray(received)
    if received.ndim != 2:
        raise ValueError("expected one received array")
    return decode_erasures_batch(code, received[None], erasures)
