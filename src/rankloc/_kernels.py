"""Exact linear algebra over GF(q) on uint8 arrays, in numpy.

Every routine here is table driven: callers pass the base-field tables it
reads (subtraction, multiplication and inversion for elimination, addition
and multiplication for products; see ``gf.base_tables``), so one code path
serves every supported q.  Row operations are fancy-indexed table lookups
over whole rows, and ``rank_batch`` drives one elimination across a whole
batch of matrices, GF(2) included.  GF(2) takes bit-level shortcuts
elsewhere: ``rank_words`` ranks vectors packed as integer words by a
leading-bit elimination, row reduction holds each row as one Python int,
a bitset of any width, and clears a column by XORing the pivot row into
the rows that hold its bit, and a GF(2) ``matmul`` packs both operands
into uint64 words along the inner dimension, each output bit a popcount
parity.  A linear map on a batch of more words than one table has entries
runs as a table gather on their element codes instead
(``codes._linear_tables``).
No path uses floating point or BLAS: every product is exact.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _reduce_bits(mat, n_pivot_cols):
    # GF(2) rows as int bitsets, bit j = column j: the pivot search and row
    # operations of the table path, one big-int XOR per row touched
    rows, cols = mat.shape
    width = -(-cols // 8)
    packed = np.packbits(mat, axis=1, bitorder="little").tobytes()
    work = [int.from_bytes(packed[i * width : (i + 1) * width], "little") for i in range(rows)]
    pivots = []
    for col in range(n_pivot_cols):
        r = len(pivots)
        bit = 1 << col
        for piv in range(r, rows):
            if work[piv] & bit:
                break
        else:
            continue
        top = work[piv]
        work[piv] = work[r]
        work = [w ^ top if w & bit else w for w in work]
        work[r] = top
        pivots.append(col)
        if r + 1 == rows:
            break
    return work, pivots


def _reduce(mat, sub, mul, inv, n_pivot_cols):
    work = np.array(mat, dtype=np.uint8, copy=True)
    rows, cols = work.shape
    if len(inv) == 2:
        bits, pivots = _reduce_bits(work, n_pivot_cols)
        width = -(-cols // 8)
        packed = np.frombuffer(b"".join(w.to_bytes(width, "little") for w in bits), np.uint8)
        work = np.unpackbits(packed.reshape(rows, width), axis=1, count=cols, bitorder="little")
        return work, np.asarray(pivots, dtype=np.int64)
    pivots = []
    r = 0
    for col in range(n_pivot_cols):
        below = work[r:, col].nonzero()[0]
        if not below.size:
            continue
        piv = r + below[0]
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        p = work[r, col]
        if p != 1:
            work[r] = mul[inv[p], work[r]]
        nz = work[:, col].nonzero()[0]
        nz = nz[nz != r]
        if nz.size:
            work[nz] = sub[work[nz], mul[work[nz, col][:, None], work[r][None, :]]]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return work, np.asarray(pivots, dtype=np.int64)


def row_reduce(mat, sub, mul, inv, n_pivot_cols):
    """Reduced row echelon form, pivots searched in the first columns only."""
    return _reduce(mat, sub, mul, inv, n_pivot_cols)


def rank(mat, sub, mul, inv):
    # the private helpers, so a wrapper rebound over ``row_reduce`` counts
    # only the callers of row_reduce itself; GF(2) rows are never unpacked
    mat = np.asarray(mat, dtype=np.uint8)
    if len(inv) == 2:
        return len(_reduce_bits(mat, mat.shape[1])[1])
    return len(_reduce(mat, sub, mul, inv, mat.shape[1])[1])


def rank_words(words):
    """GF(2) ranks of a (B, rows) batch of vector sets, one word each.

    Each step takes every matrix's largest word: its leading bit is the
    highest left in the matrix.  XOR with it lowers exactly the words that
    carry that bit, itself to zero, and raises every other word, so
    ``min(w, w ^ top)`` clears the bit from the matrix and the quotient
    keeps the rest of the span.  A nonzero top adds one to the rank; after
    at most min(rows, bits) steps every word is zero.  The words keep
    their integer dtype, so a caller with narrow vectors passes narrow
    words; signed words must be nonnegative.
    """
    # rows-major, so each step's max and XOR run along the batch
    work = np.array(np.asarray(words).T, order="C")
    rank = np.zeros(work.shape[1], dtype=np.int64)
    for _ in range(work.shape[0]):
        top = work.max(axis=0)
        if not top.any():
            break
        np.minimum(work, work ^ top, out=work)
        rank += top != 0
    return rank


def _pack_words(bits):
    # (..., w) bits -> (..., max(1, ceil(w / 64))) uint64 words, bit i of
    # word t = column 64 t + i
    *lead, w = bits.shape
    packed = np.zeros((*lead, max(1, -(-w // 64)) * 8), dtype=np.uint8)
    # packbits reads a strided view, such as a transposed operand, several
    # times slower than a contiguous copy of it
    bits = np.ascontiguousarray(bits)
    packed[..., : -(-w // 8)] = np.packbits(bits, axis=-1, bitorder="little")
    return packed.view("<u8")


def rank_batch(mats, sub, mul, inv):
    # one elimination driven across the whole batch: per-column pivot
    # search, swap, normalize and clear-below as fancy-indexed table
    # lookups, with an independent pivot cursor r[b] per matrix
    work = mats.copy()
    count, rows, cols = work.shape
    r = np.zeros(count, dtype=np.int64)
    row_idx = np.arange(rows)
    for col in range(cols):
        colvals = work[:, :, col]
        eligible = (row_idx[None, :] >= r[:, None]) & (colvals != 0)
        has = eligible.any(axis=1)
        if not has.any():
            continue
        sel = np.nonzero(has)[0]
        piv = np.argmax(eligible[sel], axis=1)
        cur = r[sel]
        moved = work[sel, piv, :].copy()
        work[sel, piv, :] = work[sel, cur, :]
        work[sel, cur, :] = moved
        work[sel, cur, :] = mul[inv[work[sel, cur, col]][:, None], work[sel, cur, :]]
        colnow = work[:, :, col]
        below = (row_idx[None, :] > r[:, None]) & (colnow != 0) & has[:, None]
        bb, rr = np.nonzero(below)
        if bb.size:
            fac = colnow[bb, rr]
            work[bb, rr, :] = sub[work[bb, rr, :], mul[fac[:, None], work[bb, r[bb], :]]]
        r[sel] += 1
        if (r == rows).all():
            break
    return r


def matmul(a, b, add, mul):
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    rows, inner = a.shape
    inner2, cols = b.shape
    if inner != inner2:
        raise ValueError("shape mismatch")
    if len(add) == 2:
        # both operands packed along the inner dimension: output bit (i, j)
        # is the parity of a_i & b_j, XORed up one word at a time so the
        # transient stays one rows x cols array of words
        a_words, b_words = _pack_words(a), _pack_words(b.T)
        acc = np.zeros((rows, cols), dtype=np.uint64)
        for t in range(a_words.shape[1]):
            acc ^= a_words[:, t, None] & b_words[None, :, t]
        return np.bitwise_count(acc) & np.uint8(1)
    out = np.zeros((rows, cols), dtype=np.uint8)
    for t in range(inner):
        out = add[out, mul[a[:, t][:, None], b[t, :][None, :]]]
    return out
