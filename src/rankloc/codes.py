"""Rank-metric evaluation codes with rack-level locality.

A codeword is the evaluation of a linearized polynomial on n points of
GF(q^m) that are linearly independent over GF(q); viewed through
``Field.to_matrix`` it is an m x n array over GF(q), and the code's
distance is measured by the rank of difference arrays.

``LocalRankCode`` restricts the encoding polynomial's q-exponents to
arithmetic windows (block j contributes exponents (r+delta-1)*j + i,
0 <= i < r) and evaluates on a tower's product points, grouped into mu
racks of r+delta-1 columns.  Each rack then carries a length-(r+delta-1),
dimension-r Gabidulin code: any r surviving columns of a rack rebuild the
whole rack, which is the locality property everything else exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf import Field, FieldSpec, FieldTower, gfq_rank, gfq_rank_batch, tower_build
from .linpoly import LinearizedPoly
from .rng import SplitMix64

DEFAULT_ORACLE_BUDGET = 1 << 20


class OracleBudgetError(RuntimeError):
    """Raised when an exhaustive scan would exceed its enumeration budget."""


@dataclass(frozen=True)
class CodeParams:
    """Parameters (q, m, n, k, r, delta) of a locality code.

    n columns of height m over GF(q); k message symbols from GF(q^m);
    locality r with failure tolerance delta per rack.  delta = 1 is legal
    and means no local guarantee (racks of width r, local distance 1).
    """

    q: int
    m: int
    n: int
    k: int
    r: int
    delta: int

    def __post_init__(self):
        if min(self.q, self.m, self.n, self.k, self.r) < 1:
            raise ValueError("parameters must be positive")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.k % self.r != 0:
            raise ValueError("r must divide k")
        if self.n % self.s != 0:
            raise ValueError("(r+delta-1) must divide n")
        if self.m % self.n != 0:
            raise ValueError("n must divide m")
        if self.k > self.n:
            raise ValueError("k must not exceed n")
        if self.k // self.r > self.mu:
            raise ValueError("message blocks cannot exceed racks")

    @property
    def s(self) -> int:
        """Rack width r + delta - 1."""
        return self.r + self.delta - 1

    @property
    def mu(self) -> int:
        return self.n // self.s

    def message_slot(self, i: int, j: int) -> int:
        """Flat message index of block-j, inner-i symbol (j outer, i inner)."""
        if not (0 <= i < self.r and 0 <= j < self.k // self.r):
            raise ValueError("message subscript out of range")
        return j * self.r + i


def rank_distance_bound(n: int, k: int, r: int, delta: int) -> int:
    """Largest rank distance compatible with (r, delta) locality."""
    return n - k + 1 - ((-(-k // r)) - 1) * (delta - 1)


class _EvaluationCode:
    """Shared plumbing: evaluation points x q-exponents over one field."""

    field: Field
    eval_points: tuple[int, ...]
    exponents: tuple[int, ...]

    def _init_eval(self, field: Field, points: Sequence[int], exponents: Sequence[int]):
        self.field = field
        self.eval_points = tuple(points)
        self.exponents = tuple(exponents)
        if len(set(self.exponents)) != len(self.exponents):
            raise ValueError("duplicate exponents")
        if gfq_rank(field.to_matrix(self.eval_points), field.q) != len(self.eval_points):
            raise ValueError("evaluation points dependent")
        # gen[j][t] = point_t ^ (q ^ exponent_j)
        self._gen = [
            [field.frobenius(p, e) for p in self.eval_points] for e in self.exponents
        ]
        self._cw_mats: np.ndarray | None = None
        self._gen_gfq: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.eval_points)

    @property
    def k(self) -> int:
        return len(self.exponents)

    @property
    def codeword_count(self) -> int:
        return self.field.order**self.k

    def encoding_poly(self, message: Sequence[int]) -> LinearizedPoly:
        msg = self._check_message(message)
        return LinearizedPoly(self.field, dict(zip(self.exponents, msg)))

    def _check_message(self, message: Sequence[int]) -> list[int]:
        msg = [int(v) for v in message]
        if len(msg) != self.k:
            raise ValueError("message has wrong length")
        for v in msg:
            if not 0 <= v < self.field.order:
                raise ValueError("message symbol out of range")
        return msg

    def encode(self, message: Sequence[int]) -> list[int]:
        """Codeword as n field elements, one per evaluation point."""
        msg = self._check_message(message)
        f = self.field
        out = []
        for t in range(self.n):
            acc = 0
            for j, mj in enumerate(msg):
                if mj:
                    acc = f.add(acc, f.mul(mj, self._gen[j][t]))
            out.append(acc)
        return out

    def encode_matrix(self, message: Sequence[int]) -> np.ndarray:
        return self.field.to_matrix(self.encode(message))

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Vectorized encode: (B, k) element codes -> (B, n) element codes."""
        f = self.field
        messages = np.asarray(messages, dtype=np.int64)
        out = np.zeros((messages.shape[0], self.n), dtype=np.int64)
        for j in range(self.k):
            row = np.asarray(self._gen[j], dtype=np.int64)
            out = f.add_vec(out, f.mul_vec(messages[:, j][:, None], row[None, :]))
        return out

    def message_codes(self, budget: int = DEFAULT_ORACLE_BUDGET) -> np.ndarray:
        """All q^(mk) messages, lexicographic, zero message first."""
        count = self.codeword_count
        if count > budget:
            raise OracleBudgetError("oracle scale exceeded")
        order = self.field.order
        idx = np.arange(count, dtype=np.int64)
        out = np.empty((count, self.k), dtype=np.int64)
        for j in range(self.k):
            out[:, j] = idx % order
            idx = idx // order
        return out

    def codeword_matrices(self, budget: int = DEFAULT_ORACLE_BUDGET) -> np.ndarray:
        """All codewords as a (q^(mk), m, n) uint8 array (cached).

        The budget is checked on every call, so a cache filled under a
        larger budget never answers a smaller one.
        """
        if self.codeword_count > budget:
            raise OracleBudgetError("oracle scale exceeded")
        if self._cw_mats is None:
            codes = self.encode_batch(self.message_codes(budget))
            self._cw_mats = self.field.matrix_batch(codes)
        return self._cw_mats

    def generator_gfq(self) -> np.ndarray:
        """GF(q) generator: (m*k) x (m*n), codewords flattened column-major.

        Row slot*m + t is the codeword of the message with the single basis
        element x^t in message slot ``slot``; columns are ordered so each
        rack's cells stay contiguous.
        """
        if self._gen_gfq is None:
            f = self.field
            mk = f.m * self.k
            products = [
                f.mul(f.q**t, self._gen[slot][col])
                for slot in range(self.k)
                for t in range(f.m)
                for col in range(self.n)
            ]
            # digits[i, row, col] -> rows[row, col * m + i]: column-major flatten
            digits = f.to_matrix(products).reshape(f.m, mk, self.n)
            self._gen_gfq = digits.transpose(1, 2, 0).reshape(mk, self.n * f.m)
        return self._gen_gfq


class GabidulinCode(_EvaluationCode):
    """Evaluation code with exponents 0..k-1: maximum rank distance n-k+1."""

    def __init__(self, field: Field, points: Sequence[int], k: int):
        if not 1 <= k <= len(points):
            raise ValueError("k must be in 1..n")
        if len(points) > field.m:
            raise ValueError("more points than field degree")
        self._init_eval(field, points, range(k))

    @property
    def designed_distance(self) -> int:
        return self.n - self.k + 1

    def __repr__(self) -> str:
        return f"GabidulinCode(n={self.n}, k={self.k}, q^m={self.field.order})"


class LocalRankCode(_EvaluationCode):
    """Rank-metric code whose racks each carry a small Gabidulin code."""

    def __init__(self, params: CodeParams, tower: FieldTower):
        f = tower.field
        if (f.q, f.m) != (params.q, params.m):
            raise ValueError("tower field does not match parameters")
        if tower.s != params.s or tower.n != params.n:
            raise ValueError("tower shape does not match parameters")
        self.params = params
        self.tower = tower
        exps = [
            params.s * j + i for j in range(params.k // params.r) for i in range(params.r)
        ]
        self._init_eval(f, tower.product_points(), exps)

    @property
    def q(self) -> int:
        return self.params.q

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def r(self) -> int:
        return self.params.r

    @property
    def delta(self) -> int:
        return self.params.delta

    @property
    def s(self) -> int:
        return self.params.s

    @property
    def mu(self) -> int:
        return self.params.mu

    def rack_columns(self, j: int) -> range:
        """Column block of rack j (racks are numbered 1..mu)."""
        if not 1 <= j <= self.mu:
            raise ValueError("rack index out of range")
        return range((j - 1) * self.s, j * self.s)

    def rack_points(self, j: int) -> tuple[int, ...]:
        cols = self.rack_columns(j)
        return self.eval_points[cols.start : cols.stop]

    def rack_of_column(self, col: int) -> int:
        if not 0 <= col < self.n:
            raise ValueError("column out of range")
        return col // self.s + 1

    def repair_poly(self, message: Sequence[int], j: int) -> LinearizedPoly:
        """Rack-j reconstruction polynomial of q-degree <= r-1.

        Within rack j the encoding polynomial collapses: the map
        x -> x^(q^s - 1) is constant on the rack's points, so every block
        beyond the first folds into the first r coefficients.  Evaluating
        the result on the rack's points reproduces that slice of the
        codeword, which is what single-rack repair solves against.
        """
        msg = self._check_message(message)
        f = self.field
        gamma = self.rack_points(j)[0]
        h = f.pow(gamma, f.q**self.s - 1)
        coeffs: dict[int, int] = {}
        blocks = self.params.k // self.r
        for i in range(self.r):
            acc = msg[self.params.message_slot(i, 0)]
            exp_sum = f.q**i
            for jb in range(1, blocks):
                term = f.mul(msg[self.params.message_slot(i, jb)], f.pow(h, exp_sum))
                acc = f.add(acc, term)
                exp_sum += f.q ** (self.s * jb + i)
            coeffs[i] = acc
        return LinearizedPoly(f, coeffs)

    def local_code(self, j: int) -> GabidulinCode:
        """The (r+delta-1, r) Gabidulin code living on rack j's columns."""
        return GabidulinCode(self.field, self.rack_points(j), self.r)

    def __repr__(self) -> str:
        p = self.params
        return (
            f"LocalRankCode(q={p.q}, m={p.m}, n={p.n}, k={p.k}, "
            f"r={p.r}, delta={p.delta})"
        )


def build_code(
    q: int,
    m: int,
    n: int,
    k: int,
    r: int,
    delta: int,
    *,
    spec: FieldSpec | None = None,
    g: int | None = None,
    basis_a: Sequence[int] | None = None,
    basis_b: Sequence[int] | None = None,
) -> LocalRankCode:
    """Validate parameters, build the tower (defaults unless pinned), encode-ready."""
    params = CodeParams(q, m, n, k, r, delta)
    tower = tower_build(q, m, n, params.s, spec=spec, g=g, basis_a=basis_a, basis_b=basis_b)
    return LocalRankCode(params, tower)


def min_rank_distance(code: _EvaluationCode, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Exhaustive minimum rank over all nonzero codewords.

    Linear code, so this is the true minimum distance.  Refuses to scan
    more than ``budget`` codewords.
    """
    mats = code.codeword_matrices(budget)
    ranks = gfq_rank_batch(mats[1:], code.field.q)
    return int(ranks.min())


def sampled_min_rank(
    code: _EvaluationCode, samples: int = 10_000, seed: int = 0
) -> int:
    """Minimum rank over ``samples`` random nonzero codewords.

    An upper bound on the distance and a probabilistic floor check; use
    when the full scan is out of budget.
    """
    rng = SplitMix64(seed)
    order = code.field.order
    msgs = np.empty((samples, code.k), dtype=np.int64)
    done = 0
    while done < samples:
        row = [rng.randbelow(order) for _ in range(code.k)]
        if any(row):
            msgs[done] = row
            done += 1
    mats = code.field.matrix_batch(code.encode_batch(msgs))
    ranks = gfq_rank_batch(mats, code.field.q)
    return int(ranks.min())
