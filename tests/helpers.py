"""Shared test utilities: independent oracles and random-case generators.

The oracles here deliberately avoid the package's optimized paths: rank and
matrix products by schoolbook scalar field arithmetic, covers by brute
subset enumeration, and linearized-polynomial evaluation by direct
powering, so tests compare two genuinely different computations.
"""

import functools

import numpy as np

from rankloc import gf
from rankloc.gf import Field, FieldSpec
from rankloc.rng import SplitMix64


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
    """Minimum crisscross cover by scanning every (rows, cols) subset pair."""
    mask = np.asarray(mask) != 0
    m, n = mask.shape
    best = m + n
    for rows in range(1 << m):
        uncovered_rows = [i for i in range(m) if not rows >> i & 1]
        for cols in range(1 << n):
            size = bin(rows).count("1") + bin(cols).count("1")
            if size >= best:
                continue
            if all(
                not mask[i][j]
                for i in uncovered_rows
                for j in range(n)
                if not cols >> j & 1
            ):
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


def subfield_elements(field, s):
    """All elements of the subfield GF(q^s) inside this field."""
    assert field.m % s == 0
    return [a for a in range(field.order) if field.frobenius(a, s) == a]
