"""Shared test utilities: independent oracles and random-case generators.

The oracles here deliberately avoid the package's optimized paths: rank and
matrix products by schoolbook scalar field arithmetic, encoding by scalar
evaluation at each point, covers by brute subset enumeration,
linearized-polynomial evaluation by direct powering and root spaces by the
rank of the polynomial's images, rack repair by the collapsed repair
polynomial, nearest-codeword decoding by ranking the difference from every
codeword, and erasure decoding by one solve per stage on every word, so
tests compare two genuinely different computations.
"""

import functools
from dataclasses import dataclass

import numpy as np

from rankloc import gf
from rankloc.codes import DEFAULT_ORACLE_BUDGET
from rankloc.crisscross import ErasureDecodeResult, crisscross_weight
from rankloc.gf import Field, FieldSpec, gfq_rank_codes
from rankloc.linpoly import LinearizedPoly
from rankloc.rng import SplitMix64
from rankloc.subspace import Subspace


@functools.lru_cache(maxsize=None)
def _scalar_field(q):
    """GF(q) as a degree-e field over GF(p), on the modulus base_tables uses."""
    p, e = gf._prime_power(q)
    return Field(FieldSpec(p, e, gf._search_modulus(p, e, primitive=False)))


def _axpy(f, a, c, b):
    """a - c*b by scalar schoolbook ops: -1 is the constant p - 1."""
    p = f.tables.q
    return f.add(a, f._mul_poly(f._mul_poly(p - 1, c), b))


def naive_rank(mat, q):
    """Row reduction with schoolbook GF(q) arithmetic, q any prime power."""
    f = _scalar_field(q)
    rows = [[int(v) for v in row] for row in np.asarray(mat)]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = next(b for b in range(1, q) if f._mul_poly(rows[rank][col], b) == 1)
        rows[rank] = [f._mul_poly(v, inv) for v in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [_axpy(f, a, c, b) for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def digit_rows_oracle(codes, q, count):
    """(..., n) base-q codes -> (..., count, n) uint8 digits by one divmod
    per digit, the expansion ``gf._digit_rows`` replaced over GF(2)."""
    rest = np.asarray(codes)
    if rest.dtype.kind != "u":
        rest = rest.astype(np.int64)
    out = np.empty(rest.shape[:-1] + (count, rest.shape[-1]), dtype=np.uint8)
    for i in range(count):
        rest, out[..., i, :] = np.divmod(rest, q)
    return out


def naive_matmul(a, b, q):
    """Schoolbook GF(q) matrix product, q any prime power."""
    f = _scalar_field(q)
    a, b = np.asarray(a), np.asarray(b)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(a.shape[1]):
                acc = f.add(acc, f._mul_poly(int(a[i, t]), int(b[t, j])))
            out[i, j] = acc
    return out


def cover_oracle(mask):
    """Minimum crisscross cover by scanning every (rows, cols) subset pair.

    Column j is held as a bitboard of its nonzero rows, so a pair covers
    the mask when no column outside cols has a bit outside rows.
    """
    mask = np.asarray(mask) != 0
    m, n = mask.shape
    col_bits = [sum(1 << i for i in range(m) if mask[i, j]) for j in range(n)]
    best = m + n
    for rows in range(1 << m):
        for cols in range(1 << n):
            size = bin(rows).count("1") + bin(cols).count("1")
            if size >= best:
                continue
            for j in range(n):
                if not cols >> j & 1 and col_bits[j] & ~rows:
                    break
            else:
                best = size
    return best


def all_4x4_cover_oracle():
    """Minimum cover for every 16-bit support pattern, vectorized over (X, Y) pairs.

    Bit (4*i + j) of the pattern integer is cell (row i, col j).  Returns an
    array of length 2^16.
    """
    covers = np.zeros(256, dtype=np.uint32)
    sizes = np.zeros(256, dtype=np.int8)
    for rows in range(16):
        for cols in range(16):
            mask = 0
            for i in range(4):
                for j in range(4):
                    if rows >> i & 1 or cols >> j & 1:
                        mask |= 1 << (4 * i + j)
            covers[rows * 16 + cols] = mask
            sizes[rows * 16 + cols] = bin(rows).count("1") + bin(cols).count("1")
    patterns = np.arange(1 << 16, dtype=np.uint32)[:, None]
    valid = (patterns & ~covers[None, :]) == 0
    return np.where(valid, sizes[None, :], 9).min(axis=1)


def pattern_to_matrix(bits):
    return np.array(
        [[bits >> (4 * i + j) & 1 for j in range(4)] for i in range(4)],
        dtype=np.uint8,
    )


def naive_lin_eval(field, coeffs, x):
    """Evaluate sum_e c_e * x^(q^e) by direct exponentiation."""
    acc = 0
    for e, c in coeffs.items():
        acc = field.add(acc, field.mul(c, field.pow(x, field.q**e)))
    return acc


def rand_matrix(rng: SplitMix64, m, n, q):
    return np.array(
        [[rng.randbelow(q) for _ in range(n)] for _ in range(m)], dtype=np.uint8
    )


def rand_nonzero_message(rng: SplitMix64, field, k):
    while True:
        msg = [rng.randbelow(field.order) for _ in range(k)]
        if any(msg):
            return msg


def is_codeword(code, word):
    """Membership by the generator's rank, not by the code's parity checks."""
    gen = code.generator_gfq()
    flat = np.asarray(word, dtype=np.uint8).flatten(order="F")
    return gf.gfq_rank(np.vstack([gen, flat]), code.q) == gf.gfq_rank(gen, code.q)


def subfield_elements(field, s):
    """All elements of the subfield GF(q^s) inside this field."""
    assert field.m % s == 0
    return [a for a in range(field.order) if field.frobenius(a, s) == a]


def lifted_subspace(field, codes, n, cols):
    """The lift of one codeword block by its definition: the column span of
    unit vectors cols[i] of GF(q)^n stacked on the block's coordinate
    columns, built from the matrix form rather than from packed codes."""
    mat = field.to_matrix([int(c) for c in codes])
    basis = np.zeros((n + field.m, len(cols)), dtype=np.uint8)
    basis[list(cols), range(len(cols))] = 1
    basis[n:] = mat
    return Subspace.from_matrix(basis, field.q)


def staged_decode_oracle(code, received, erasures):
    """Erasure decoding stage by stage on the words themselves.

    Each rack whose restricted crisscross weight is below delta is solved
    against its local generator (``gfq_solve``), then whatever is still
    erased against the full generator; when no global solve ran, the
    parity product checks the words.  Raises what the decoder raises, in
    the same order; returns an ``ErasureDecodeResult``.
    """
    p = code.params
    m = p.m
    mask = (np.asarray(erasures) != 0).astype(np.uint8)
    received = np.asarray(received, dtype=np.uint8)
    if received.ndim == 2:
        received = received[None]
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
        if not rack_mask.any() or crisscross_weight(mask[:, list(cols)])[0] > p.delta - 1:
            continue
        gen = code.local_code(j).generator_gfq()
        known, wanted = np.nonzero(~rack_mask)[0], np.nonzero(rack_mask)[0]
        vals = flat[:, rack_idx[known]]
        flat[:, rack_idx[wanted]] = gf.gfq_solve(gen, known, vals, wanted, p.q)
        pending[rack_idx] = False
        local_racks.append(j)
    used_global = bool(pending.any())
    if used_global:
        known, wanted = np.nonzero(~pending)[0], np.nonzero(pending)[0]
        flat[:, wanted] = gf.gfq_solve(code.generator_gfq(), known, flat[:, known], wanted, p.q)
    elif gf.gfq_matmul(flat, code.parity_checks(), p.q).any():
        raise ValueError("decoded word is not a codeword")
    out = flat.reshape(received.shape[0], p.n, m).transpose(0, 2, 1)
    return ErasureDecodeResult(
        matrices=np.ascontiguousarray(out),
        local_racks=tuple(local_racks),
        used_global=used_global,
    )


def encode_oracle(code, message):
    """Codeword of ``message`` as n elements by scalar evaluation: at each
    point p, the sum over slots j of message[j] * p^(q^e_j), one field
    multiply a term, where ``encode`` reads one table row a slot."""
    f = code.field
    msg = [int(v) for v in message]
    out = []
    for point in code.eval_points:
        acc = 0
        for e, mj in zip(code.exponents, msg):
            if mj:
                acc = f.add(acc, f.mul(mj, f.frobenius(point, e)))
        out.append(acc)
    return out


def message_slot(params, i, j):
    """Flat message index of block-j, inner-i symbol (j outer, i inner)."""
    if not (0 <= i < params.r and 0 <= j < params.k // params.r):
        raise ValueError("message subscript out of range")
    return j * params.r + i


def repair_poly(code, message, j):
    """Rack-j reconstruction polynomial of q-degree <= r-1.

    Within rack j the encoding polynomial collapses: the map
    x -> x^(q^s - 1) is constant on the rack's points, so every block
    beyond the first folds into the first r coefficients.  Evaluating
    the result on the rack's points reproduces that slice of the
    codeword, which is what single-rack repair solves against.
    """
    p, f = code.params, code.field
    msg = [int(v) for v in message]
    h = f.pow(code.rack_points(j)[0], f.q**p.s - 1)
    coeffs = {}
    for i in range(p.r):
        acc = msg[message_slot(p, i, 0)]
        exp_sum = f.q**i
        for jb in range(1, p.k // p.r):
            acc = f.add(acc, f.mul(msg[message_slot(p, i, jb)], f.pow(h, exp_sum)))
            exp_sum += f.q ** (p.s * jb + i)
        coeffs[i] = acc
    return LinearizedPoly(f, coeffs)


def root_space_dim(poly):
    """Dimension of the kernel of x -> L(x) as a GF(q)-linear map on GF(q^m).

    Bounded above by the q-degree: a q-degree-l polynomial has at most q^l
    roots in any extension.  Raises ValueError for the zero polynomial.
    """
    if not poly:
        raise ValueError("root space is everything")
    f = poly.field
    return f.m - f.span_rank([poly(f.q**t) for t in range(f.m)])


@dataclass
class NearestCodeword:
    distance: int
    indices: list
    matrices: list

    @property
    def is_tie(self):
        return len(self.indices) > 1

    @property
    def codeword(self):
        if self.is_tie:
            raise ValueError("tie")
        return self.matrices[0]


def decode_min_distance(code, received, budget=DEFAULT_ORACLE_BUDGET):
    """Exhaustive nearest-codeword decoding in the rank metric.

    Ranks the difference of ``received`` from every codeword; a shared
    minimum is reported as a tie.
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
