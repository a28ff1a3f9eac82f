"""Constant-dimension subspace codes obtained by lifting rank-metric codes.

A subspace of GF(q)^M is stored as a matrix whose columns form its
canonical ordered basis (reduced column echelon form), so equality of
subspaces is equality of arrays.  Lifting glues an identity block on top
of a codeword array; the resulting family inherits twice the rank
distance, and a code with column-block rank-locality lifts to one whose
basis vectors can be checked locally per block.

Distance computations deliberately run on two routes, the pairwise
subspace-distance definition and the doubled rank distance of the source
code, and the two are compared rather than merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import (
    DEFAULT_ORACLE_BUDGET,
    LocalRankCode,
    _EvaluationCode,
    min_rank_distance,
)
from .gf import gfq_rank, gfq_rank_codes, gfq_row_reduce
from .rng import SplitMix64

_CROSS_CHECK_PAIRS = 64  # pairs ``min_subspace_distance`` checks, from SplitMix64(0)
_EXACT_PAIRS = 200_000   # most pairs a block's exhaustive scan compares
_SAMPLED_PAIRS = 2000    # seeded pairs a block compares past that or the budget


def rcef(mat: np.ndarray, q: int = 2) -> np.ndarray:
    """Reduced column echelon form with dependent columns dropped.

    Computed as the transpose of the reduced row echelon form of the
    transpose; the result is the canonical basis matrix of the column
    span, and the map is idempotent.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    if mat.ndim != 2:
        raise ValueError("expected a matrix")
    reduced, pivots = gfq_row_reduce(np.ascontiguousarray(mat.T), q, mat.shape[0])
    return np.ascontiguousarray(reduced[: len(pivots)].T)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(q)^M, canonically represented."""

    q: int
    basis: np.ndarray  # M x dim, RCEF, read-only

    @classmethod
    def from_matrix(cls, mat: np.ndarray, q: int = 2) -> "Subspace":
        canon = rcef(mat, q)
        canon.setflags(write=False)
        return cls(q=q, basis=canon)

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.q == other.q
            and self.basis.shape == other.basis.shape
            and bool((self.basis == other.basis).all())
        )

    def __hash__(self) -> int:
        return hash((self.q, self.basis.shape, self.basis.tobytes()))


def subspace_distance(u: Subspace, v: Subspace) -> int:
    """dim U + dim V - 2 dim(U cap V), via the rank of the stacked bases."""
    if u.ambient != v.ambient or u.q != v.q:
        raise ValueError("ambient dimension mismatch")
    joint = np.hstack([u.basis, v.basis])
    return 2 * gfq_rank(np.ascontiguousarray(joint.T), u.q) - u.dim - v.dim


def lift_codes(codes: np.ndarray, n: int, cols: Sequence[int], q: int) -> np.ndarray:
    """(B, w) codeword-code blocks -> (B, w) lifted columns packed as uint64.

    Column i of a block, lifted with unit vector cols[i] of GF(q)^n on top,
    is the vector of GF(q)^(n+m) whose base-q code is q^cols[i] + code * q^n:
    a whole codeword passes range(n), a column block its global columns.
    Every buildable field has q^m <= 2^32 and n <= m, so q^(n+m) <= 2^64
    and the packed value fits uint64 exactly.
    """
    units = np.uint64(q) ** np.asarray(cols, dtype=np.uint64)
    return np.asarray(codes).astype(np.uint64) * np.uint64(q**n) + units


def pack_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """(..., w) GF(q) vectors -> (...) uint64 codes, coordinate d as digit d.

    The form ``lift_codes`` writes, for vectors given by coordinates, such
    as received packets; w <= n + m keeps every code exact in uint64.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    return rows.astype(np.uint64) @ np.uint64(q) ** np.arange(rows.shape[-1], dtype=np.uint64)


def lift(mat: np.ndarray, q: int = 2) -> Subspace:
    """The n-dimensional subspace of GF(q)^(m+n) spanned by [I; X] columns.

    The identity block sits on the rows indexing the basis vectors, so the
    matrix is already in reduced column echelon form and the map is
    injective.
    """
    mat = np.asarray(mat, dtype=np.uint8)
    basis = np.vstack([np.eye(mat.shape[1], dtype=np.uint8), mat])
    basis.setflags(write=False)
    return Subspace(q=q, basis=basis)


def _sample_pairs(rng: SplitMix64, count: int, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """``pairs`` index pairs i != j from range(count), drawing i then j each."""
    drawn = rng.randbelow_array(np.tile([count, count - 1], pairs)).astype(np.int64)
    i, j = drawn[0::2], drawn[1::2]
    return i, j + (j >= i)


def _lifted_distances(
    left: np.ndarray, right: np.ndarray, n: int, cols: Sequence[int], q: int, m: int
) -> np.ndarray:
    """Subspace distances between lifted (B, w) codeword-code blocks.

    Pair t stacks the ``lift_codes`` columns of left[t] with those of
    right[t], and all B stacked pairs are ranked in one batch call.
    """
    stacked = np.hstack([lift_codes(block, n, cols, q) for block in (left, right)])
    return 2 * gfq_rank_codes(stacked, q, n + m) - 2 * len(cols)


def min_subspace_distance(code: _EvaluationCode, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Minimum subspace distance of the lifting of every codeword of ``code``.

    Primary route: twice the code's minimum rank distance (linearity).
    Cross-checks, never collapsed into the primary route:
    ``_CROSS_CHECK_PAIRS`` sampled pairs must satisfy the per-pair identity
    d_S = 2 d_R, and the pairwise distances from the all-zero codeword must
    reproduce the minimum.
    """
    if code.codeword_count < 2:
        raise ValueError("degenerate")
    primary = 2 * min_rank_distance(code, budget)

    f = code.field
    codes = code.codeword_codes(budget)
    n = code.n
    i, j = _sample_pairs(SplitMix64(0), len(codes), _CROSS_CHECK_PAIRS)
    ds = _lifted_distances(codes[i], codes[j], n, range(n), f.q, f.m)
    dr = gfq_rank_codes(f.sub_vec(codes[i], codes[j]), f.q, f.m)
    if (ds != 2 * dr).any():
        raise RuntimeError("distance cross-check failed")
    # zero is a codeword of any linear source, so distances from it alone
    # already reach the code minimum
    rest = codes[1:]
    zero = np.broadcast_to(codes[0], rest.shape)
    from_zero = int(_lifted_distances(rest, zero, n, range(n), f.q, f.m).min())
    if from_zero != primary:
        raise RuntimeError("distance cross-check failed")
    return primary


@dataclass(frozen=True)
class BlockLocality:
    """Locality verdict for one column block of basis vectors."""

    block: int                 # 1-based block index
    columns: tuple[int, ...]   # 0-based basis-vector indices
    size_ok: bool
    dim_ok: bool
    projected_distance: int
    required_distance: int
    exact: bool                # exhaustive pair scan vs sampled

    @property
    def distance_ok(self) -> bool:
        return self.projected_distance >= self.required_distance

    @property
    def passed(self) -> bool:
        return self.size_ok and self.dim_ok and self.distance_ok


@dataclass(frozen=True)
class LocalityReport:
    r: int
    delta: int                 # rank-locality delta of the source
    blocks: tuple[BlockLocality, ...]

    @property
    def subspace_delta(self) -> int:
        return 2 * self.delta

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.blocks)

    @property
    def exact(self) -> bool:
        return all(b.exact for b in self.blocks)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if not self.exact:
            verdict += " (sampled)"
        return f"subspace-locality ({self.r},{self.subspace_delta}): {verdict}"


def verify_subspace_locality(
    code: LocalRankCode, budget: int = DEFAULT_ORACLE_BUDGET, seed: int = 0
) -> LocalityReport:
    """Check that lifting kept ``code``'s locality, block by block.

    For each column block of the source code the report verifies the
    block is no wider than r+delta-1 basis vectors and the projected
    family's minimum subspace distance reaches twice the source's local
    distance guarantee; every projected codeword keeps full dimension by
    construction.  The distance scan is exhaustive over the block's local
    code when it has at most ``budget`` codewords and ``_EXACT_PAIRS``
    pairs.  Otherwise it compares ``_SAMPLED_PAIRS`` pairs seeded by
    ``seed`` and the report says so: pairs of local codewords when the
    code is within budget, built from their message indices, and otherwise
    pairs among ``_SAMPLED_PAIRS`` random messages, where a pair that drew
    the same message twice is left out.  Only the compared words are
    encoded and lifted.
    """
    if not isinstance(code, LocalRankCode):
        raise TypeError("locality verification needs a column-block local code")
    p = code.params
    blocks = []
    for j in range(1, p.mu + 1):
        cols = code.rack_columns(j)
        size_ok = len(cols) <= p.s
        local = code.local_code(j)
        count = local.codeword_count
        # the projection of a lifted basis onto the block is the block's
        # local codeword under distinct unit vectors of GF(q)^n, one per
        # column, so it always keeps the full dimension: dim_ok holds by
        # construction and is not recomputed
        exact = count <= budget and count * (count - 1) // 2 <= _EXACT_PAIRS
        if exact:
            codes = local.codeword_codes(budget)
            left, right = (codes[idx] for idx in np.triu_indices(count, 1))
        else:
            if count <= budget:
                # index i stands for local codeword i of the enumeration
                i, i2 = _sample_pairs(SplitMix64(seed + j), count, _SAMPLED_PAIRS)
                pair_msgs = local.messages_at(i), local.messages_at(i2)
            else:
                rng = SplitMix64(seed * 7919 + j)
                drawn = rng.randbelow_array(np.full(_SAMPLED_PAIRS * local.k, code.field.order))
                pool = drawn.astype(np.int64).reshape(_SAMPLED_PAIRS, local.k)
                i, i2 = _sample_pairs(SplitMix64(seed + j), _SAMPLED_PAIRS, _SAMPLED_PAIRS)
                # distinct indices can still hold equal messages, at distance 0
                distinct = (pool[i] != pool[i2]).any(axis=1)
                pair_msgs = pool[i[distinct]], pool[i2[distinct]]
            left, right = (local.encode_batch(msgs) for msgs in pair_msgs)
        dist = int(_lifted_distances(left, right, p.n, cols, p.q, p.m).min())
        blocks.append(
            BlockLocality(
                block=j,
                columns=tuple(range(cols.start, cols.stop)),
                size_ok=size_ok,
                dim_ok=True,
                projected_distance=dist,
                required_distance=2 * p.delta,
                exact=exact,
            )
        )
    return LocalityReport(r=p.r, delta=p.delta, blocks=tuple(blocks))
