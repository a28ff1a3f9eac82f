"""The GF(q) kernels against independent schoolbook oracles, prime and
prime-power q alike."""

import numpy as np
import pytest

import rankloc
from rankloc import _kernels
from rankloc.gf import gfq_matmul, gfq_rank, gfq_rank_batch, gfq_row_reduce
from rankloc.rng import SplitMix64

from helpers import naive_matmul, naive_rank, rand_matrix


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


def test_rank_batch_matches_scalar():
    rng = SplitMix64(31)
    mats = np.stack([rand_matrix(rng, 5, 6, 2) for _ in range(64)])
    batch = gfq_rank_batch(mats, 2)
    for i in range(64):
        assert batch[i] == gfq_rank(mats[i].copy(), 2)


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
