"""Exact linear algebra over GF(q) on uint8 arrays, in numpy.

Every routine here is table driven: callers pass the base-field tables it
reads (subtraction, multiplication and inversion for elimination, addition
and multiplication for products; see ``gf.base_tables``), so one code path
serves every supported q.  Row operations are fancy-indexed table lookups
over whole rows, and ``rank_batch`` drives one elimination across a whole
batch of matrices.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _reduce(mat, sub, mul, inv, n_pivot_cols):
    work = np.array(mat, dtype=np.uint8, copy=True)
    rows, cols = work.shape
    pivots = []
    r = 0
    for col in range(n_pivot_cols):
        piv = -1
        for row in range(r, rows):
            if work[row, col]:
                piv = row
                break
        if piv < 0:
            continue
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        p = work[r, col]
        if p != 1:
            work[r] = mul[inv[p], work[r]]
        colvals = work[:, col].copy()
        colvals[r] = 0
        nz = np.nonzero(colvals)[0]
        if nz.size:
            work[nz] = sub[work[nz], mul[colvals[nz][:, None], work[r][None, :]]]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return work, np.asarray(pivots, dtype=np.int64)


def row_reduce(mat, sub, mul, inv, n_pivot_cols):
    """Reduced row echelon form, pivots searched in the first columns only."""
    return _reduce(mat, sub, mul, inv, n_pivot_cols)


def rank(mat, sub, mul, inv):
    # the private helper, so a wrapper rebound over ``row_reduce`` counts
    # only the callers of row_reduce itself
    mat = np.asarray(mat, dtype=np.uint8)
    return len(_reduce(mat, sub, mul, inv, mat.shape[1])[1])


def rank_batch(mats, sub, mul, inv):
    # one elimination driven across the whole batch: per-column pivot
    # search, swap, normalize and clear-below as fancy-indexed table
    # lookups, with an independent pivot cursor r[b] per matrix
    work = np.array(mats, dtype=np.uint8, copy=True)
    if work.ndim != 3:
        raise ValueError("expected a (batch, rows, cols) array")
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
    out = np.zeros((rows, cols), dtype=np.uint8)
    for t in range(inner):
        out = add[out, mul[a[:, t][:, None], b[t, :][None, :]]]
    return out
