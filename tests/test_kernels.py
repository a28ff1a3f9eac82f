"""The GF(q) kernels against independent schoolbook oracles, prime and
prime-power q alike."""

import numpy as np
import pytest

import rankloc
from rankloc import _kernels
from rankloc.gf import base_tables, gfq_matmul, gfq_rank, gfq_rank_batch, gfq_row_reduce
from rankloc.rng import SplitMix64

from helpers import masked_xor_reduce, naive_matmul, naive_rank, rand_matrix


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_rank_matches_oracle(q):
    rng = SplitMix64(100 + q)
    for _ in range(300):
        m = 1 + rng.randbelow(7)
        n = 1 + rng.randbelow(7)
        mat = rand_matrix(rng, m, n, q)
        assert gfq_rank(mat.copy(), q) == naive_rank(mat, q)


def test_row_reduce_properties():
    # pivots identify an identity submatrix; augmented columns are solved
    rng = SplitMix64(9)
    for q in (2, 3, 4, 9):
        for _ in range(100):
            m = 2 + rng.randbelow(5)
            n = 2 + rng.randbelow(5)
            mat = rand_matrix(rng, m, n, q)
            reduced, pivots = gfq_row_reduce(mat.copy(), q, n)
            assert len(pivots) == naive_rank(mat, q)
            for i, c in enumerate(pivots):
                col = reduced[:, c]
                assert col[i] == 1 and (np.delete(col, i) == 0).all()


def test_matmul_prime_modular_oracle():
    # integer products mod q for prime q; schoolbook field products for all
    rng = SplitMix64(4242)
    for q in (2, 3, 4, 5, 9):
        for _ in range(150):
            a = rand_matrix(rng, 1 + rng.randbelow(6), 1 + rng.randbelow(6), q)
            b = rand_matrix(rng, a.shape[1], 1 + rng.randbelow(6), q)
            ref = naive_matmul(a, b, q)
            if q in (2, 3, 5):
                assert (ref == a.astype(np.int64) @ b.astype(np.int64) % q).all()
            assert (gfq_matmul(a, b, q) == ref).all()


@pytest.mark.parametrize("inner", [0, 1, 63, 64, 65, 128, 129])
def test_packed_gf2_matmul_matches_schoolbook(inner):
    # GF(2) products run on words packed along the inner dimension; the
    # word boundaries at 64 and 128 and the byte boundaries at multiples
    # of 8 are where a packing slip would show, at any row count
    gen = np.random.default_rng(inner)
    shapes = [(5, 7), (1, 1), (0, 4), (4, 0), (0, 0)]
    shapes += [(rows, cols) for rows in (256, 257, 2048) for cols in (0, 1, 63, 64, 65, 129)]
    for rows, cols in shapes:
        a = gen.integers(0, 2, size=(rows, inner), dtype=np.uint8)
        b = gen.integers(0, 2, size=(inner, cols), dtype=np.uint8)
        got = gfq_matmul(a, b, 2)
        assert got.dtype == np.uint8 and got.shape == (rows, cols)
        if rows * cols <= 64:
            assert (got == naive_matmul(a, b, 2)).all()
        # exact integer schoolbook product, reduced mod 2
        assert (got == a.astype(np.int64) @ b.astype(np.int64) % 2).all()


@pytest.mark.parametrize("rows, cols", [(6, 6), (9, 14), (14, 9), (20, 40), (0, 5), (5, 0)])
def test_gf2_xor_row_reduce_matches_table_path(rows, cols):
    # a 0/1 matrix reduces inside GF(2) whether read over GF(2) (row XORs)
    # or over GF(4) (table gathers): 0 and 1 are closed under GF(4)'s
    # characteristic-2 arithmetic, so both must give one reduced matrix
    mats = _gf2_stack(rows * 100 + cols, 9, rows, cols)
    for mat in mats:
        for n_pivot in sorted({cols // 2, cols}):
            xor, xor_piv = gfq_row_reduce(mat, 2, n_pivot)
            table, table_piv = gfq_row_reduce(mat, 4, n_pivot)
            assert xor.tolist() == table.tolist()
            assert xor_piv.tolist() == table_piv.tolist()
            if n_pivot == cols:
                assert len(xor_piv) == naive_rank(mat, 2)


@pytest.mark.parametrize(
    "rows, cols",
    [(0, 0), (0, 5), (5, 0), (1, 1), (6, 1), (9, 63), (40, 64), (30, 65), (70, 64), (20, 130), (140, 200)],
)
def test_bitset_reduce_matches_masked_xor(rows, cols):
    # rows held as int bitsets against the whole-matrix masked XOR they
    # replaced: the same reduced matrix, pivots and dtypes, pivots searched
    # in every column or in a prefix, on zero and rank <= 2 matrices too;
    # widths 63, 64 and 65 straddle a word and 130 and 200 several
    t = base_tables(2)
    mats = _gf2_stack(rows * 1000 + cols, 6, rows, cols)
    for mat in [*mats, mats[3].T]:
        width = mat.shape[1]
        for n_pivot in sorted({0, width // 3, width}):
            got, got_piv = _kernels.row_reduce(mat, t.sub, t.mul, t.inv, n_pivot)
            want, want_piv = masked_xor_reduce(mat, n_pivot)
            assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert got_piv.dtype == want_piv.dtype and got_piv.tolist() == want_piv.tolist()
        rank = _kernels.rank(mat, t.sub, t.mul, t.inv)
        assert rank == len(masked_xor_reduce(mat, width)[1])
    assert _kernels.rank(mats[0], t.sub, t.mul, t.inv) == 0


def test_rank_batch_matches_scalar():
    rng = SplitMix64(31)
    mats = np.stack([rand_matrix(rng, 5, 6, 2) for _ in range(64)])
    batch = gfq_rank_batch(mats, 2)
    for i in range(64):
        assert batch[i] == gfq_rank(mats[i].copy(), 2)


def _gf2_stack(seed, count, rows, cols):
    """Random GF(2) stack with every third matrix zero and every third of
    rank <= 2, so rank-deficient cases are common."""
    gen = np.random.default_rng(seed)
    mats = gen.integers(0, 2, size=(count, rows, cols), dtype=np.uint8)
    mats[0::3] = 0
    thin = gen.integers(0, 2, size=(count, rows, 2)) @ gen.integers(0, 2, size=(count, 2, cols))
    mats[1::3] = (thin % 2)[1::3]
    return mats


@pytest.mark.parametrize(
    "rows, bits", [(1, 1), (3, 9), (9, 9), (12, 18), (5, 64), (12, 64), (40, 7), (0, 8)]
)
def test_rank_words_matches_oracles(rows, bits):
    # the leading-bit word elimination against schoolbook rank and the
    # table path, on zero, full 64-bit and rank-deficient rows alike
    t = base_tables(2)
    mats = _gf2_stack(rows * 100 + bits, 30, rows, bits)
    if rows:
        mats[2::3, 0] = 1  # an all-ones row: with bits = 64 the top bit is set
    words = (mats.astype(np.uint64) << np.arange(bits, dtype=np.uint64)).sum(axis=2)
    got = _kernels.rank_words(words)
    assert got.tolist() == _kernels.rank_batch(mats, t.sub, t.mul, t.inv).tolist()
    for b in range(6):
        assert got[b] == naive_rank(mats[b], 2)
    assert (got[0::3] == 0).all()


def test_rank_words_keeps_unsigned_dtype():
    # the same words as uint16, uint32 and uint64 rank alike, all-ones
    # 16-bit rows (top bit set) and zero rows included
    t = base_tables(2)
    mats = _gf2_stack(1616, 30, 12, 16)
    mats[2::3, 0] = 1
    words = (mats.astype(np.uint64) << np.arange(16, dtype=np.uint64)).sum(axis=2)
    expected = _kernels.rank_batch(mats, t.sub, t.mul, t.inv).tolist()
    for dtype in (np.uint16, np.uint32, np.uint64):
        assert _kernels.rank_words(words.astype(dtype)).tolist() == expected


def test_kernels_are_looked_up_at_call_time(monkeypatch):
    # one implementation, and gf reaches each kernel through the module
    # attribute, so rebinding it (as a tracer does) reroutes every caller
    assert rankloc.BACKEND == "numpy"
    calls = []
    for name in ("rank", "rank_batch", "row_reduce", "matmul"):
        kernel = getattr(_kernels, name)

        def traced(*args, kernel=kernel, name=name):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(_kernels, name, traced)
    eye = np.eye(2, dtype=np.uint8)
    assert gfq_rank(eye, 3) == 2
    assert list(gfq_rank_batch(eye[None], 3)) == [2]
    assert list(gfq_row_reduce(eye, 3)[1]) == [0, 1]
    assert (gfq_matmul(eye, eye, 3) == eye).all()
    assert calls == ["rank", "rank_batch", "row_reduce", "matmul"]
