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

import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gf import (
    Field,
    FieldTower,
    gfq_parity_checks,
    gfq_rank_codes,
    gfq_solve,
    tower_build,
)
from .linpoly import LinearizedPoly
from .rng import SplitMix64

DEFAULT_ORACLE_BUDGET = 1 << 20
# most rows of one ``_linear_tables`` table: a symbol over a larger field
# is split into chunks of its digits (the Method of Four Russians)
_SLOT_TABLE_ROWS = 1 << 12


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


@functools.lru_cache(maxsize=None)
def _digit_chunks(q: int, m: int) -> tuple[tuple[int, int], ...]:
    """(first digit, digit count) of each chunk a ``_linear_tables`` table covers.

    One chunk when q^m rows fit ``_SLOT_TABLE_ROWS``; otherwise the fewest
    chunks that fit, their digit counts as even as possible.
    """
    fits = 1
    while q ** (fits + 1) <= _SLOT_TABLE_ROWS:
        fits += 1
    width = -(-m // -(-m // fits))
    return tuple((first, min(width, m - first)) for first in range(0, m, width))


def _linear_tables(field: Field, images: np.ndarray) -> list[tuple[int, int, np.ndarray]]:
    """Four-Russians tables of S GF(q)-linear maps from GF(q^m) to element codes.

    ``images`` is (S, m, C): map j takes x^i to the C element codes
    ``images[j, i]``.  Returns (first digit, digit count, tables) per
    chunk of ``_digit_chunks``, with ``tables[j, v]`` the image under map
    j of the element holding v in digits ``first ..`` and zero elsewhere.
    Adding digit i's value a adds ``a * images[j, i]``, so row
    a * q^(i - first) + v is that multiple plus row v; over GF(2) this
    doubles the table.  Codes are stored in the narrowest unsigned type
    that holds them, which makes the gathers of ``_gather_sum`` cheaper.
    """
    q, m = field.q, field.m
    multiples = [None, images] + [field.scale_vec(a, images) for a in range(2, q)]
    word = np.min_scalar_type(field.order - 1)
    out = []
    for first, count in _digit_chunks(q, m):
        tables = np.zeros((len(images), q**count, images.shape[-1]), dtype=word)
        for i in range(first, first + count):
            size = q ** (i - first)
            for a in range(1, q):
                image = multiples[a][:, i, None]
                tables[:, a * size : (a + 1) * size] = field.add_vec(tables[:, :size], image)
        out.append((first, count, tables))
    return out


def _gather_sum(
    field: Field, chunk_tables: list[tuple[int, int, np.ndarray]], symbols: np.ndarray
) -> np.ndarray:
    """(B, S) element codes through ``_linear_tables``' S maps, summed: (B, C).

    One gather per map and digit chunk, the chunk's digits of column j
    indexing map j's table; no field multiply runs.  The codes keep the
    tables' unsigned type.
    """
    q, m = field.q, field.m
    out = None
    for first, count, tables in chunk_tables:
        for j, table in enumerate(tables):
            idx = symbols[:, j]
            if first:
                idx = idx // q**first
            if first + count < m:
                idx = idx % q**count
            rows = np.take(table, idx, axis=0)
            if out is None:
                out = rows
            elif q == 2:
                out ^= rows
            else:
                out = field.add_vec(out, rows)
    return out


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
        if field.span_rank(self.eval_points) != len(self.eval_points):
            raise ValueError("evaluation points dependent")
        self._cw_codes: np.ndarray | None = None
        self._basis: np.ndarray | None = None
        self._tables: list[tuple[int, int, np.ndarray]] | None = None
        self._gen_gfq: np.ndarray | None = None
        self._parity: np.ndarray | None = None

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
        """Codeword as n field elements, one per evaluation point: the one
        row of ``encode_batch``."""
        return self.encode_batch([message])[0].tolist()

    def encode_matrix(self, message: Sequence[int]) -> np.ndarray:
        return self.field.to_matrix(self.encode(message))

    def _basis_images(self) -> np.ndarray:
        """(k, m, n) element codes: entry [j, t] is x^t times generator row j (cached).

        Row [j, 0] evaluates x^(q^e_j) on the points, e_j being slot j's
        q-exponent; row [j, t] is the codeword of the message with x^t in
        slot j and zero elsewhere.  Each step from x^t to x^(t+1) shifts
        every code one digit up and folds the digit c that leaves back in
        as c * x^m = -c * (modulus below x^m), so no field multiply runs.
        """
        if self._basis is None:
            f = self.field
            row = np.array(
                [[f.frobenius(p, e) for p in self.eval_points] for e in self.exponents],
                dtype=np.int64,
            )
            basis = np.empty((self.k, f.m, self.n), dtype=np.int64)
            for i in range(f.m):
                basis[:, i] = row
                row = f.times_x(row)
            self._basis = basis
        return self._basis

    def _slot_tables(self) -> list[tuple[int, int, np.ndarray]]:
        """``_linear_tables`` of the message slots (cached).

        ``tables[j, v]`` is the codeword of the message whose slot j holds
        v in digits ``first ..`` and zero elsewhere: slot j maps x^i to
        ``_basis_images()[j, i]``.
        """
        if self._tables is None:
            self._tables = _linear_tables(self.field, self._basis_images())
        return self._tables

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Vectorized encode: (B, k) element codes -> (B, n) element codes.

        Each message slot is a GF(q)-linear map, so its image is read off
        cached tables (``_slot_tables``), one gather per slot and digit
        chunk, and the gathers are summed.  No field multiply runs.
        """
        f = self.field
        try:
            messages = np.asarray(messages, dtype=np.int64)
        except OverflowError:
            raise ValueError("message symbol out of range") from None
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError("message has wrong length")
        if messages.size and (messages.min() < 0 or messages.max() >= f.order):
            raise ValueError("message symbol out of range")
        return _gather_sum(f, self._slot_tables(), messages).astype(np.int64, copy=False)

    def messages_at(self, idx: np.ndarray) -> np.ndarray:
        """The messages at positions ``idx`` of ``message_codes()``.

        Position i holds the base-q^m digits of i, least significant first.
        """
        order = self.field.order
        idx = np.asarray(idx, dtype=np.int64)
        out = np.empty((len(idx), self.k), dtype=np.int64)
        for j in range(self.k):
            out[:, j] = idx % order
            idx = idx // order
        return out

    def message_codes(self, budget: int = DEFAULT_ORACLE_BUDGET) -> np.ndarray:
        """All q^(mk) messages, lexicographic, zero message first."""
        count = self.codeword_count
        if count > budget:
            raise OracleBudgetError("oracle scale exceeded")
        return self.messages_at(np.arange(count, dtype=np.int64))

    def codeword_codes(self, budget: int = DEFAULT_ORACLE_BUDGET) -> np.ndarray:
        """All codewords as a (q^(mk), n) array of element codes (cached).

        The budget is checked on every call, so a cache filled under a
        larger budget never answers a smaller one.
        """
        if self.codeword_count > budget:
            raise OracleBudgetError("oracle scale exceeded")
        if self._cw_codes is None:
            self._cw_codes = self.encode_batch(self.message_codes(budget))
        return self._cw_codes

    def codeword_matrices(self, budget: int = DEFAULT_ORACLE_BUDGET) -> np.ndarray:
        """All codewords as a (q^(mk), m, n) uint8 array, budget as above."""
        return self.field.matrix_batch(self.codeword_codes(budget))

    def generator_gfq(self) -> np.ndarray:
        """GF(q) generator: (m*k) x (m*n), codewords flattened column-major.

        Row slot*m + t is the codeword of the message with the single basis
        element x^t in message slot ``slot``; columns are ordered so each
        rack's cells stay contiguous.
        """
        if self._gen_gfq is None:
            f = self.field
            mk = f.m * self.k
            # digits[row, i, col] -> rows[row, col * m + i]: column-major flatten
            digits = f.matrix_batch(self._basis_images().reshape(mk, self.n))
            self._gen_gfq = digits.transpose(0, 2, 1).reshape(mk, self.n * f.m)
        return self._gen_gfq

    def parity_checks(self) -> np.ndarray:
        """H^T for ``generator_gfq``'s layout: flat @ H^T = 0 exactly when the
        column-major flattened word is a codeword (cached)."""
        if self._parity is None:
            self._parity = gfq_parity_checks(self.generator_gfq(), self.field.q)
        return self._parity


class GabidulinCode(_EvaluationCode):
    """Evaluation code with exponents 0..k-1: maximum rank distance n-k+1."""

    def __init__(self, field: Field, points: Sequence[int], k: int):
        if not 1 <= k <= len(points):
            raise ValueError("k must be in 1..n")
        if len(points) > field.m:
            raise ValueError("more points than field degree")
        self._init_eval(field, points, range(k))

    def __repr__(self) -> str:
        return f"GabidulinCode(n={self.n}, k={self.k}, q^m={self.field.order})"


def interpolate(field: Field, points: Sequence[int], values: Sequence[int]) -> LinearizedPoly:
    """Unique linearized polynomial of q-degree < len(points) through the data.

    The points must be linearly independent over GF(q).  The coefficients
    are then the message of the Gabidulin code of dimension len(points) on
    them whose codeword is ``values``: one ``gfq_solve`` of that code's
    GF(q) generator against the values returns the message's coordinates.

    Raises:
        ValueError: "Moore matrix singular" when the Gabidulin code refuses
            the points: dependent ones (more than m of them included) or
            ones outside the field; the refusal is the exception's cause.
    """
    pts = list(points)
    vals = list(values)
    if len(pts) != len(vals):
        raise ValueError("points and values differ in length")
    n = len(pts)
    if n == 0:
        return LinearizedPoly.zero(field)
    try:
        gen = GabidulinCode(field, pts, n).generator_gfq()
    except ValueError as exc:
        raise ValueError("Moore matrix singular") from exc
    flat = field.to_matrix(vals).flatten(order="F")
    u = gfq_solve(gen, flat[None], field.q)[0]
    return LinearizedPoly(field, dict(enumerate(map(field.from_digits, u.reshape(n, -1)))))


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
        self._local_codes: dict[int, GabidulinCode] = {}
        # crisscross erasure plans by mask bytes, least recently used first
        self._erasure_plans: OrderedDict[bytes, object] = OrderedDict()

    def rack_columns(self, j: int) -> range:
        """Column block of rack j (racks are numbered 1..mu)."""
        p = self.params
        if not 1 <= j <= p.mu:
            raise ValueError("rack index out of range")
        return range((j - 1) * p.s, j * p.s)

    def rack_points(self, j: int) -> tuple[int, ...]:
        cols = self.rack_columns(j)
        return self.eval_points[cols.start : cols.stop]

    def local_code(self, j: int) -> GabidulinCode:
        """The (r+delta-1, r) Gabidulin code living on rack j's columns (cached)."""
        if j not in self._local_codes:
            self._local_codes[j] = GabidulinCode(self.field, self.rack_points(j), self.params.r)
        return self._local_codes[j]

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
    field: Field | None = None,
    basis_a: Sequence[int] | None = None,
    basis_b: Sequence[int] | None = None,
) -> LocalRankCode:
    """Validate parameters, build the tower (defaults unless pinned), encode-ready.

    ``field`` defaults to the field of ``FieldSpec.default(q, m)`` (see
    ``tower_build``).
    """
    params = CodeParams(q, m, n, k, r, delta)
    tower = tower_build(q, m, n, params.s, field=field, basis_a=basis_a, basis_b=basis_b)
    return LocalRankCode(params, tower)


def min_rank_distance(code: _EvaluationCode, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Exhaustive minimum rank over all nonzero codewords.

    Linear code, so this is the true minimum distance.  Refuses to scan
    more than ``budget`` codewords.
    """
    f = code.field
    return int(gfq_rank_codes(code.codeword_codes(budget)[1:], f.q, f.m).min())


def sampled_min_rank(
    code: _EvaluationCode, samples: int = 10_000, seed: int = 0
) -> int:
    """Minimum rank over ``samples`` random nonzero codewords.

    An upper bound on the distance and a probabilistic floor check; use
    when the full scan is out of budget.
    """
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    rng = SplitMix64(seed)
    msgs = np.empty((samples, code.k), dtype=np.int64)
    done = 0
    # draw the missing rows in one block and keep the nonzero ones: the
    # stream is the row-by-row draw that skips all-zero rows
    while done < samples:
        rows = rng.randbelow_array(np.full((samples - done) * code.k, code.field.order))
        rows = rows.astype(np.int64).reshape(samples - done, code.k)
        rows = rows[rows.any(axis=1)]
        msgs[done : done + len(rows)] = rows
        done += len(rows)
    f = code.field
    return int(gfq_rank_codes(code.encode_batch(msgs), f.q, f.m).min())
