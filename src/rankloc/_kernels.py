"""Exact linear algebra over GF(q) on uint8 arrays.

Every routine here is table driven: callers pass the base-field addition,
subtraction, multiplication and inversion tables (see ``gf.base_tables``),
so one code path serves every supported q.  Two interchangeable backends
implement the routines:

* ``numba``  - tight loops compiled with ``@njit(cache=True)``; the default
  whenever numba imports cleanly.
* ``numpy``  - pure-numpy fallback using fancy indexing for the row
  operations.

Selection is controlled by the ``RANKLOC_BACKEND`` environment variable
(``"numba"`` or ``"numpy"``), read once at import time; a value naming a
backend that is not available falls back to numpy with a warning.
``get_backend`` exposes both implementations so they can be compared side
by side (see ``benchmarks/bench_kernels.py``).
"""

from __future__ import annotations

import os
import warnings

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


_ENV_VAR = "RANKLOC_BACKEND"


# ---------------------------------------------------------------------------
# numpy backend


def _np_row_reduce(mat, add, sub, mul, inv, n_pivot_cols):
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


def _np_matmul(a, b, add, mul):
    rows, inner = a.shape
    inner2, cols = b.shape
    if inner != inner2:
        raise ValueError("shape mismatch")
    out = np.zeros((rows, cols), dtype=np.uint8)
    for t in range(inner):
        out = add[out, mul[a[:, t][:, None], b[t, :][None, :]]]
    return out


class _NumpyBackend:
    name = "numpy"

    @staticmethod
    def rank(mat, add, sub, mul, inv):
        mat = np.asarray(mat, dtype=np.uint8)
        return len(_np_row_reduce(mat, add, sub, mul, inv, mat.shape[1])[1])

    @staticmethod
    def rank_batch(mats, add, sub, mul, inv):
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

    @staticmethod
    def row_reduce(mat, add, sub, mul, inv, n_pivot_cols):
        return _np_row_reduce(mat, add, sub, mul, inv, n_pivot_cols)

    @staticmethod
    def matmul(a, b, add, mul):
        return _np_matmul(
            np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8), add, mul
        )


# ---------------------------------------------------------------------------
# numba backend


@njit(cache=True)
def _nb_rank(mat, sub, mul, inv):
    rows, cols = mat.shape
    r = 0
    for col in range(cols):
        piv = -1
        for row in range(r, rows):
            if mat[row, col] != 0:
                piv = row
                break
        if piv < 0:
            continue
        if piv != r:
            for c in range(col, cols):
                t = mat[r, c]
                mat[r, c] = mat[piv, c]
                mat[piv, c] = t
        pinv = inv[mat[r, col]]
        for row in range(r + 1, rows):
            f = mat[row, col]
            if f != 0:
                fac = mul[f, pinv]
                for c in range(col, cols):
                    mat[row, c] = sub[mat[row, c], mul[fac, mat[r, c]]]
        r += 1
        if r == rows:
            break
    return r


@njit(cache=True)
def _nb_rank_batch(mats, sub, mul, inv):
    count = mats.shape[0]
    out = np.empty(count, dtype=np.int64)
    scratch = np.empty((mats.shape[1], mats.shape[2]), dtype=np.uint8)
    for i in range(count):
        scratch[:, :] = mats[i]
        out[i] = _nb_rank(scratch, sub, mul, inv)
    return out


@njit(cache=True)
def _nb_row_reduce(work, sub, mul, inv, n_pivot_cols):
    rows, cols = work.shape
    pivots = np.empty(rows, dtype=np.int64)
    r = 0
    for col in range(n_pivot_cols):
        piv = -1
        for row in range(r, rows):
            if work[row, col] != 0:
                piv = row
                break
        if piv < 0:
            continue
        if piv != r:
            for c in range(cols):
                t = work[r, c]
                work[r, c] = work[piv, c]
                work[piv, c] = t
        p = work[r, col]
        if p != 1:
            ip = inv[p]
            for c in range(cols):
                work[r, c] = mul[ip, work[r, c]]
        for row in range(rows):
            if row != r and work[row, col] != 0:
                f = work[row, col]
                for c in range(cols):
                    work[row, c] = sub[work[row, c], mul[f, work[r, c]]]
        pivots[r] = col
        r += 1
        if r == rows:
            break
    return pivots[:r]


@njit(cache=True)
def _nb_matmul(a, b, add, mul):
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for t in range(inner):
            v = a[i, t]
            if v != 0:
                for j in range(cols):
                    out[i, j] = add[out[i, j], mul[v, b[t, j]]]
    return out


class _NumbaBackend:
    name = "numba"

    @staticmethod
    def rank(mat, add, sub, mul, inv):
        work = np.array(mat, dtype=np.uint8, copy=True)
        return int(_nb_rank(work, sub, mul, inv))

    @staticmethod
    def rank_batch(mats, add, sub, mul, inv):
        return _nb_rank_batch(np.ascontiguousarray(mats, dtype=np.uint8), sub, mul, inv)

    @staticmethod
    def row_reduce(mat, add, sub, mul, inv, n_pivot_cols):
        work = np.array(mat, dtype=np.uint8, copy=True)
        pivots = _nb_row_reduce(work, sub, mul, inv, n_pivot_cols)
        return work, pivots.copy()

    @staticmethod
    def matmul(a, b, add, mul):
        return _nb_matmul(
            np.ascontiguousarray(a, dtype=np.uint8),
            np.ascontiguousarray(b, dtype=np.uint8),
            add,
            mul,
        )


_BACKENDS = {"numpy": _NumpyBackend}
if HAS_NUMBA:
    _BACKENDS["numba"] = _NumbaBackend


def get_backend(name: str | None = None):
    """Return a kernel backend by name, or the environment-selected default.

    An explicit ``name`` that is not available raises ``ValueError``.  A
    ``RANKLOC_BACKEND`` value that is not available falls back to numpy so
    that import never fails, with a ``RuntimeWarning`` naming both.
    """
    if name is None:
        name = os.environ.get(_ENV_VAR, "numba" if HAS_NUMBA else "numpy").lower()
        if name not in _BACKENDS:
            warnings.warn(
                f"{_ENV_VAR}={name!r} is not an available backend; using 'numpy'",
                RuntimeWarning,
                stacklevel=2,
            )
            name = "numpy"
        return _BACKENDS[name]
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}") from None


_active = get_backend()

BACKEND = _active.name
rank = _active.rank
rank_batch = _active.rank_batch
row_reduce = _active.row_reduce
matmul = _active.matmul
